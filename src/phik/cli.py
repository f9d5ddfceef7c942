"""Command-line surface: evaluation by every route, identity sweeps, sums, constants.

Exit codes: 0 success, 1 identity failure or method mismatch (witnesses
printed), 2 usage or domain error, 3 budget refusal.  JSON output encodes
every exact integer as a decimal string (`_json_value`), since values outgrow
doubles.  `_check_printable` refuses an answer of more than MAX_PRINTED_DIGITS digits; before
that, `core.power` refuses any power of a closed form that no printable answer needs.

Every subcommand is one row of COMMANDS.  Each `eval` row, `sum phi-k`, `constant` and
`error-table` is one quantity of `core.ROUTES`, run by `_cmd_value`, whose routes --method picks
(`all`, or the sum's `both`, runs and cross-checks every one); a route is imported when it runs,
so a process loads only what its command needs.  Every disagreement of routes is printed by
`_agree`.  The value prints itself: its str, or in JSON its as_dict() when it has one, else the
row's flags and the value.  Only the `verify` rows, which print reports and exit 1 or 3 on a
failed or partial sweep, have a handler of their own, `_cmd_verify`.

main() reads argv straight from COMMANDS (`_read_table`) when it is canonical: a row's path,
then `--flag value` pairs naming each of its flags once, every value valid.  Any other argv
(--help, a usage error, `--k=2`, an abbreviation, a repeated flag, a negative number) goes to
`build_parser`, the one place argparse (and with it gettext and locale) is imported, and the one
renderer of help and usage text.  `_row_flags` gives both readers each row's flags.

main() also keeps numpy's OpenBLAS from starting a thread pool (phik calls no BLAS routine)
unless OPENBLAS_NUM_THREADS is already set.  A process enters through run() (`python -m
phik.cli`, the `phik` script), which ends it with `os._exit` once main() returns, skipping the
interpreter's teardown; callers in a process call main().
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Mapping, NamedTuple, NoReturn, Sequence, Union

from .core import (
    DEFAULT_PRIME_BOUND,
    DEFAULT_SIEVE_LIMIT,
    ROUTES,
    BudgetExceededError,
    library,
    route_order,
)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

GROUPS = {
    "eval": "values by closed form, recursion or oracle",
    "verify": "identity sweeps against oracles",
    "sum": "exact partial sums",
}

# The longest integer printed, in decimal digits (about 0.15 s of conversion); longer is refused.
MAX_PRINTED_DIGITS = 10**5


class Command(NamedTuple):
    """One subcommand: where it sits, what it runs, the flags it reads, what it may print.

    `fn` is a route map of `core.ROUTES`, run by `_cmd_value` (the --method choices, the first
    the default, and "all", unless the row names its own), or a verify row's sweep, run by
    `_cmd_verify`: a `menon.verify_sweep` kind, or "lemmas" for `menon.lemma_sweeps`.
    `flags` name entries of FLAGS, optionally as (name, overrides); `formats` are the --format
    choices, the first being the default.
    """

    path: tuple[str, ...]
    help: str
    fn: Union[str, Mapping[str, str]]
    flags: tuple[Union[str, tuple[str, dict]], ...]
    formats: tuple[str, ...] = ("plain", "json")


FLAGS = {
    "k": dict(type=int, required=True),
    "n": dict(type=int, required=True),
    "m": dict(type=int, required=True),
    "d": dict(type=int, required=True),
    "delta": dict(type=int, required=True),
    "x": dict(type=int, required=True),
    "f": dict(default="id", help="id | one | tau | mu | pow:j | table:<path>"),
    "method": {},  # a route map's keys and "all", or the row's own choices
    "k-max": dict(type=int, default=3),
    "n-max": dict(type=int, default=40),
    "x-grid": dict(required=True, help="comma-separated cutoffs, e.g. 100,1000"),
    "workers": dict(type=int, default=1),
    "prime-bound": dict(type=int, default=DEFAULT_PRIME_BOUND),
    "sieve-limit": dict(type=int, default=DEFAULT_SIEVE_LIMIT),
}


def _flag_names(cmd: Command) -> list[str]:
    return [flag if isinstance(flag, str) else flag[0] for flag in cmd.flags]


def _emit(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left: the output ends, and the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _json_value(value):
    """A payload in JSON terms: every exact value (an int, a Fraction, a FunctionSpec) as its str.

    Dicts and lists are walked; str, float, bool and None pass through.
    """
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if value is None or isinstance(value, (str, float, bool)):
        return value
    return str(value)


def _emit_json(payload) -> None:
    import json

    _emit(json.dumps(_json_value(payload), indent=2))


def _check_printable(value) -> None:
    # an int below 8**MAX_PRINTED_DIGITS needs no exact comparison
    if isinstance(value, int) and value.bit_length() > 3 * MAX_PRINTED_DIGITS:
        if abs(value) >= 10**MAX_PRINTED_DIGITS:
            raise BudgetExceededError(f"the answer has more than {MAX_PRINTED_DIGITS} decimal "
                                      "digits, the most phik prints")


# -- handlers -----------------------------------------------------------------


def _params(cmd: Command, args) -> dict:
    """The row's flags as keywords ("-" read as "_"), f and the x grid (as xs) parsed once, no
    unset flag nor method."""
    params = {}
    for key in (name.replace("-", "_") for name in _flag_names(cmd)):
        value = getattr(args, key)
        if key == "f":
            value = library("menon.parse_function_spec")(value)
        elif key == "x_grid":
            try:
                key, value = "xs", [int(part) for part in value.split(",") if part.strip()]
            except ValueError:
                raise ValueError(f"bad x grid {value!r}, expected comma-separated integers")
        if key != "method" and value is not None:
            params[key] = value
    return params


def _agree(values: Mapping[str, object]) -> bool:
    """Whether all routes gave one value; if not, each route and its value go to stderr."""
    first, *others = values.values()
    agree = all(value == first for value in others)
    if not agree:
        print("METHOD MISMATCH (implementation bug): "
              + " ".join(f"{route}={value}" for route, value in values.items()), file=sys.stderr)
    return agree


def _cmd_value(cmd: Command, args) -> int:
    """One route's value, or every route's when --method names none (all, both): they must agree."""
    params = _params(cmd, args)
    order = route_order({route: library(name) for route, name in cmd.fn.items()},
                        getattr(args, "method", "all"))
    values = {route: fn(**params) for route, fn in order}
    if not _agree(values):
        return EXIT_FAILURE
    value = next(iter(values.values()))
    _check_printable(value)
    if args.format == "json":
        _emit_json(value.as_dict() if hasattr(value, "as_dict") else {**params, "value": value})
    else:
        _emit(str(value))
    return EXIT_OK


def _report_lines(report) -> list[str]:
    lines = [
        f"identity={report.identity} checked={report.checked} "
        f"failures={len(report.failures)} trivial_zeros={report.trivial_zeros} "
        f"skipped={len(report.skipped)}"
    ]
    for inst in report.failures:
        params = " ".join(f"{key}={val}" for key, val in inst.params)
        lines.append(f"FAIL {params} lhs={inst.lhs} rhs={inst.rhs}")
    for skip in report.skipped:
        lines.append(f"SKIP {_json_value(skip)}")
    return lines


def _cmd_verify(cmd: Command, args) -> int:
    """Run the row's sweeps; exit 1 on any failure, else 3 when any sweep skipped."""
    from . import menon

    params = _params(cmd, args)
    reports = (menon.lemma_sweeps(**params) if cmd.fn == "lemmas"
               else [menon.verify_sweep(cmd.fn, **params)])
    if args.format == "json":
        payload = [report.as_dict() for report in reports]
        _emit_json(payload if len(payload) > 1 else payload[0])
    else:
        lines = [line for report in reports for line in _report_lines(report)]
        verdict = "PASS" if all(r.ok for r in reports) else "FAIL"
        if any(r.partial for r in reports):
            verdict += " (partial: some instances skipped over budget)"
        lines.append(verdict)
        _emit("\n".join(lines))
    if not all(r.ok for r in reports):
        return EXIT_FAILURE
    if any(r.partial for r in reports):
        return EXIT_BUDGET
    return EXIT_OK


# -- the command table ----------------------------------------------------------


COMMANDS = (
    Command(("eval", "phi-k"), "phi_k(n)", ROUTES["phi-k"], ("k", "n", "method")),
    Command(("eval", "phi-k-nm"), "two-parameter phi_k(n, m)", ROUTES["phi-k-nm"],
            ("k", "n", "m", "method")),
    Command(("eval", "g-k"), "convolution factor g_k(n)", ROUTES["g-k"], ("k", "n")),
    Command(("eval", "n-k"), "unit-tuple count N_k(n, d, delta)", ROUTES["n-k"],
            ("k", "n", "d", "delta", "method")),
    Command(("eval", "jordan"), "Jordan totient J_k(n)", ROUTES["jordan"], ("k", "n")),
    Command(("eval", "gcd-sum"), "gcd sum over admissible tuples", ROUTES["gcd-sum"],
            ("k", "n", "f", "method")),
    Command(("verify", "menon"), "gcd-sum identity, arbitrary f", "menon_general",
            ("k-max", "n-max", "f")),
    Command(("verify", "sita-ramaiah"), "k = 2 gcd-sum specialization", "sita_ramaiah",
            (("n-max", dict(default=60)),)),
    Command(("verify", "nageswara-rao"), "joint-gcd power identity", "nageswara_rao",
            ("k-max", "n-max")),
    Command(("verify", "lemmas"), "residue-class counts and N_k machinery", "lemmas",
            ("n-max", ("k-max", dict(help="tuple length cap for the N_k sweep")))),
    Command(("verify", "phi-k-nm"), "every route of phi_k(n, m), every m | n", "phi_k_nm",
            ("k-max", "n-max")),
    Command(("sum", "phi-k"), "sum of phi_k(n) for n <= x", ROUTES["sum-phi-k"],
            ("k", "x", "sieve-limit", "workers",
             ("method", dict(choices=("direct", "convolution", "both"))))),
    Command(("constant",), "enclose the average-order constant C_k", ROUTES["constant"],
            ("k", "prime-bound")),
    Command(("error-table",), "exact sums against the main term", ROUTES["error-table"],
            ("k", "x-grid", "prime-bound", "sieve-limit"), formats=("csv", "json")),
)


def _row_flags(cmd: Command) -> dict[str, dict]:
    """The flags a row takes, --format last, each with its argparse keywords.

    A flag's keywords are its FLAGS entry, then a route map's --method choices and default, then
    the row's overrides, each over the one before.  Both argv readers use these.
    """
    flags = {}
    for flag in cmd.flags:
        name, overrides = (flag, {}) if isinstance(flag, str) else flag
        if name == "method" and isinstance(cmd.fn, Mapping):  # the row's own choices win
            overrides = dict(choices=(*cmd.fn, "all"), default=next(iter(cmd.fn))) | overrides
        flags[name] = {**FLAGS[name], **overrides}
    flags["format"] = dict(choices=cmd.formats, default=cmd.formats[0])
    return flags


# The keywords `_read_table` applies as argparse does; a row with a flag using any other goes
# to argparse.
_TABLE_KEYS = {"type", "required", "default", "choices", "help"}


def _read_table(argv: Sequence[str]) -> SimpleNamespace | None:
    """argv read from COMMANDS when it is canonical, with the attributes argparse would set (but
    `parser`); else None, and argparse reads it.

    Canonical is a row's path, then `--flag value` pairs naming each of the row's flags at most
    once, every required one among them, no value starting with "-", each value converted by its
    `type` and within its `choices`.
    """
    cmd = next((c for c in COMMANDS if tuple(argv[:len(c.path)]) == c.path), None)
    if cmd is None:
        return None
    words = argv[len(cmd.path):]
    given = dict(zip(words[::2], words[1::2]))
    if len(words) % 2 or 2 * len(given) < len(words) or any(
            value.startswith("-") for value in given.values()):
        return None
    attrs = dict(zip(("cmd", "target"), cmd.path), command=cmd)
    for name, spec in _row_flags(cmd).items():
        word = given.pop(f"--{name}", None)
        if not spec.keys() <= _TABLE_KEYS or (word is None and spec.get("required")):
            return None
        value = spec.get("default")
        if word is not None:
            try:
                value = spec.get("type", str)(word)
            except (TypeError, ValueError):
                return None
            if value not in spec.get("choices", (value,)):
                return None
        attrs[name.replace("-", "_")] = value
    return None if given else SimpleNamespace(**attrs)


def build_parser() -> argparse.ArgumentParser:
    """The phik parser, every row of COMMANDS a leaf; the one place phik imports argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="phik",
        description="Exact arithmetic for the k-dimensional totient, its "
        "gcd-sum identities, and its average order.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    groups = {}
    for cmd in COMMANDS:
        parent = sub
        if len(cmd.path) == 2:
            group = cmd.path[0]
            if group not in groups:
                p_group = sub.add_parser(group, help=GROUPS[group])
                groups[group] = p_group.add_subparsers(dest="target", required=True)
            parent = groups[group]
        p = parent.add_parser(cmd.path[-1], help=cmd.help)
        for name, spec in _row_flags(cmd).items():
            p.add_argument(f"--{name}", **spec)
        p.set_defaults(command=cmd, parser=p)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # the limit exists from Python 3.10.7
        sys.set_int_max_str_digits(MAX_PRINTED_DIGITS)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before any handler imports numpy
    argv = sys.argv[1:] if argv is None else argv
    args = _read_table(argv)
    if args is None:  # --help, a usage error, or a spelling the table leaves to argparse
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # reported by the leaf, whose usage names the flags it takes
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    cmd = args.command
    try:
        return (_cmd_value if isinstance(cmd.fn, Mapping) else _cmd_verify)(cmd, args)
    except BudgetExceededError as exc:
        # advise a flag only where this row has the one that sets the refused limit
        flag = (exc.limit or "").replace("_", "-")
        hint = f"; pass a larger --{flag} to override" if flag in _flag_names(cmd) else ""
        print(f"budget refused: {exc}{hint}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> NoReturn:
    """The process entry point: main(), then exit without tearing the interpreter down.

    No output waits on teardown: worker pools are closed by their `with` blocks before main
    returns, and both streams are flushed here.  atexit handlers do not run.  An exception from
    main, SystemExit included, takes the interpreter's own exit; a failed flush keeps main's exit
    code.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # no stream (fd closed), no reader, closed
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
