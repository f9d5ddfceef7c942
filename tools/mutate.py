"""Mutation testing: run tier-1 against small deliberate faults, one at a time, in a copy.

A mutant changes one operator or constant of the source:
  + and -, << and >> swap;
  <, <=, > and >= become their neighbour across the boundary (< and <=, > and >=),
  == and != swap, and `and` and `or` swap;
  a small int constant (0 to 16) grows by 1.
The sites are listed in source order, shuffled with SEED, and the first SAMPLE of them run.  A
target is a file, or `file:fn1,fn2` for the named functions (and their nested code) only.  The
repository is copied once into a temporary directory; each mutant rewrites its module there,
from the AST, and runs `python -m pytest -x` on the copy, for at most TIMEOUT seconds.  The
working tree is never written.  A mutant is "killed" when a test fails, "timeout" when the run
passes TIMEOUT, and "survived" when every test passes: a gap, or an equivalent mutant.

    python tools/mutate.py src/phik/cli.py src/phik/core.py:library,route_order

Not part of tier-1: a sample of 40 takes up to 40 tier-1 runs.
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.LShift: "<<", ast.RShift: ">>", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.And: "and", ast.Or: "or",
}
SMALL_INT = range(0, 17)
SEED = 2
SAMPLE = 40
TIMEOUT = 900  # seconds per mutant; tier-1 takes about a minute


def _sites(tree: ast.Module, functions: set[str] | None) -> list[tuple[int, str, tuple]]:
    """(line, description, path) of every mutable site; path finds the node in a fresh parse."""
    sites = []

    def visit(node: ast.AST, path: tuple, inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and functions is not None:
            inside = inside or node.name in functions
        if isinstance(node, ast.JoinedStr):
            return  # f-string parts: their positions are unreliable, and no logic lives there
        if inside:
            line = getattr(node, "lineno", 0)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                sites.append((line, _swap_text(node.op), path + ("op",)))
            elif isinstance(node, ast.BoolOp):
                sites.append((line, _swap_text(node.op), path + ("op",)))
            elif isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        sites.append((line, _swap_text(op), path + ("ops", i)))
            elif (isinstance(node, ast.Constant) and type(node.value) is int
                  and node.value in SMALL_INT):
                sites.append((line, f"{node.value} -> {node.value + 1}", path + ("value",)))
        for field, value in ast.iter_fields(node):
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, ast.AST):
                        visit(item, path + (field, i), inside)
            elif isinstance(value, ast.AST):
                visit(value, path + (field,), inside)

    visit(tree, (), functions is None)
    return sites


def _swap_text(op: ast.AST) -> str:
    return f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"


def mutated_source(source: str, path: tuple | None) -> str:
    """source with the site at path mutated (none when path is None), unparsed from the AST,
    so without its comments."""
    tree = ast.parse(source)
    if path is not None:
        *steps, last = path
        node = tree
        for step in steps:
            node = node[step] if isinstance(step, int) else getattr(node, step)
        if last == "value":
            node.value += 1
        elif isinstance(last, int):
            node[last] = SWAPS[type(node[last])]()
        else:
            setattr(node, last, SWAPS[type(getattr(node, last))]())
    return ast.unparse(tree) + "\n"


def _targets(specs: list[str]) -> list[tuple[str, set[str] | None]]:
    targets = []
    for spec in specs:
        file, _, names = spec.partition(":")
        targets.append((file, set(names.split(",")) if names else None))
    return targets


def _copy(into: Path) -> Path:
    copy = into / "tree"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
    return copy


def run_mutant(copy: Path, file: str, source: str, path: tuple | None) -> str:
    """"killed", "survived" or "timeout"; the copy's file is restored afterwards."""
    target = copy / file
    target.write_text(mutated_source(source, path))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        return "survived" if proc.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        target.write_text(source)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("targets", nargs="+", help="file, or file:fn1,fn2, relative to the repo")
    args = parser.parse_args(argv)
    sites = []
    for file, functions in _targets(args.targets):
        source = (ROOT / file).read_text()
        sites += [(file, source, *site) for site in _sites(ast.parse(source), functions)]
    random.Random(SEED).shuffle(sites)
    sample = sites[:SAMPLE]
    print(f"{len(sites)} sites, running {len(sample)} (seed {SEED})", flush=True)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="phik-mutants-") as scratch:
        copy = _copy(Path(scratch))
        for file, _ in _targets(args.targets):
            # unparsing alone must keep tier-1 passing, or no survivor means anything
            source = (ROOT / file).read_text()
            if (verdict := run_mutant(copy, file, source, None)) != "survived":
                print(f"{file} unparsed, unmutated: tier-1 {verdict}; no mutant run")
                return 1
        for i, (file, source, line, what, path) in enumerate(sample, 1):
            verdict = run_mutant(copy, file, source, path)
            print(f"{i:3} {file}:{line} {what}: {verdict}", flush=True)
            if verdict == "survived":
                survivors.append(f"{file}:{line} {what}")
    print(f"{len(survivors)} of {len(sample)} survived", *survivors, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
