"""Tests of the benchmark itself: smoke run, output checks, reference arithmetic.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference as ref
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from phik import summatory  # noqa: E402


def _phik(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "phik.cli", *argv], cwd=ROOT, capture_output=True,
                          text=True, env={"PYTHONPATH": "src", "PATH": ""}, timeout=120)


def test_smoke_run_passes_every_check():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke"] == "ok"
    assert "FAILED" not in proc.stderr


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed-forms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _mutations(argv, out: str) -> list[str]:
    """Wrong outputs a check must reject, for each kind of command."""
    if argv[0] == "sum":
        payload = json.loads(out)
        value = int(payload["value"])
        return [json.dumps({**payload, "value": str(value + delta)}) for delta in (1, ref.MOD64)]
    if argv[0] == "eval":
        return [str(int(out) + 1)]
    if argv[0] == "constant":
        payload = json.loads(out)
        narrow = {**payload, "hi": payload["lo"] + 1e-18}
        wide = {**payload, "lo": payload["lo"] - 1e-3}
        return [json.dumps(narrow), json.dumps(wide)]
    if argv[0] == "error-table":
        lines = out.strip().splitlines()
        cells = lines[-1].split(",")
        cells[1] = str(int(cells[1]) + 1)
        return ["\n".join(lines[:-1] + [",".join(cells)])]
    if argv[0] == "verify":
        first, rest = out.split("\n", 1)
        recount = first.replace("checked=", "checked=1", 1)
        return [out.replace("PASS", "FAIL"), recount + "\n" + rest]
    raise AssertionError(f"no mutation for {argv}")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_accept_phik_and_reject_wrong_outputs(name, tmp_path):
    workload = workloads.build(name, 7, tmp_path, smoke=True)
    for cmd in workload.commands:
        proc = _phik(cmd.argv)
        assert proc.returncode == 0, proc.stderr
        assert cmd.check(proc.stdout) is None, cmd.argv
        for wrong in _mutations(cmd.argv, proc.stdout):
            assert cmd.check(wrong) is not None, (cmd.argv, wrong)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_reference_sums_agree_with_phik(k):
    xs = [1, 2, 3, 97, 1_000, 4_321]
    exact = [summatory.sum_phi_k_direct(k, x).value % ref.MOD64 for x in xs]
    assert ref.phi_k_prefix_mod64(k, xs) == exact


@pytest.mark.parametrize("k", sorted(ref.C_K))
def test_reference_constants_inside_phik_enclosures(k):
    enclosure = summatory.average_order_constant(k, 20_000)
    lo, hi = ref.c_k_interval(k)
    assert Fraction(enclosure.lo) <= lo <= hi <= Fraction(enclosure.hi)
    assert enclosure.width <= ref.seed_width_limit(k, 20_000)


def test_reference_arithmetic_small_n():
    assert [ref.phi_k(2, n) for n in range(1, 7)] == [1, 0, 2, 0, 12, 0]
    assert ref.jordan(2, 6) == 24
    assert ref.squarefree_count(100) == 61
    assert ref.distinct_quotients(10) == [1, 2, 3, 5, 10]
    assert [n for n in range(90) if ref.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89]
