"""Command-line surface: evaluation by every route, identity sweeps, sums, constants.

Exit codes: 0 success, 1 identity failure or method mismatch (witnesses
printed), 2 usage or domain error, 3 budget refusal.  JSON output encodes
every exact integer as a decimal string (`_json_value`), since values outgrow
doubles.  `_check_printable` refuses an answer of more than MAX_PRINTED_DIGITS digits; before
that, `core.power` refuses any power of a closed form that no printable answer needs.

Every subcommand is one row of COMMANDS.  Each `eval` row and `sum phi-k` is one quantity of
`core.ROUTES`, run by `_cmd_value`, whose routes --method picks (`all`, or the sum's `both`,
runs and cross-checks every one); a route is imported when it runs, so a process loads
only what its command needs.  Every disagreement of routes is printed by `_agree`.

main() reads argv straight from COMMANDS (`_read_table`) when it is canonical: a row's path,
then `--flag value` pairs naming each of its flags once, every value valid.  Any other argv
(--help, a usage error, `--k=2`, an abbreviation, a repeated flag, a negative number) goes to
`build_parser`, the one place argparse (and with it gettext and locale) is imported, and the one
renderer of help and usage text.  Its parser is built as far as argv reaches: every group and
top-level row, but the leaves of one group only.  `_row_flags` gives both readers each row's
flags.

main() also keeps numpy's OpenBLAS from starting a thread pool (phik calls no BLAS routine)
unless OPENBLAS_NUM_THREADS is already set.  A process enters through run() (`python -m
phik.cli`, the `phik` script), which ends it with `os._exit` once main() returns, skipping the
interpreter's teardown; callers in a process call main().
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, NoReturn, Sequence, Union

from .core import (
    DEFAULT_ORACLE_BUDGET,
    DEFAULT_PRIME_BOUND,
    DEFAULT_SIEVE_LIMIT,
    ROUTES,
    BudgetExceededError,
    library,
    route_order,
    route_values,
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
    """One subcommand: where it sits, what it may print, the flags its handler reads.

    `flags` name entries of `_flag_specs()`, optionally as (name, overrides); `formats` are
    the --format choices, the first being the default.
    `fn` is what the row calls: a route map of `core.ROUTES` (the --method choices, the first the
    default, and "all", unless the row names its own), a verify row's `menon.verify_sweep` kind,
    or a callable of (`menon`, the arguments) returning the reports.
    """

    path: tuple[str, ...]
    help: str
    handler: Callable[["Command", "SimpleNamespace | argparse.Namespace"], int]
    flags: tuple[Union[str, tuple[str, dict]], ...]
    formats: tuple[str, ...] = ("plain", "json")
    fn: Union[str, Mapping[str, str], Callable, None] = None


def _flag_specs() -> dict[str, dict]:
    return {
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
        "budget": dict(type=int, default=DEFAULT_ORACLE_BUDGET),
        # a string default goes through `type` too, so a bad PHIK_WORKERS is a usage error
        "workers": dict(type=int, default=os.environ.get("PHIK_WORKERS", "1")),
        "prime-bound": dict(type=int, default=DEFAULT_PRIME_BOUND),
        "sieve-limit": dict(type=int, default=DEFAULT_SIEVE_LIMIT),
    }


def _flag_names(cmd: Command) -> list[str]:
    return [flag if isinstance(flag, str) else flag[0] for flag in cmd.flags]


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        return
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


def _emit_json(args, payload) -> None:
    import json

    _emit(args, json.dumps(_json_value(payload), indent=2))


def _check_printable(value) -> None:
    # an int below 8**MAX_PRINTED_DIGITS needs no exact comparison
    if isinstance(value, int) and value.bit_length() > 3 * MAX_PRINTED_DIGITS:
        if abs(value) >= 10**MAX_PRINTED_DIGITS:
            raise BudgetExceededError(f"the answer has more than {MAX_PRINTED_DIGITS} decimal "
                                      "digits, the most phik prints")


# -- handlers -----------------------------------------------------------------


def _params(cmd: Command, args) -> dict:
    """The row's flags as keywords ("-" read as "_"), f parsed once, no unset flag nor method."""
    params = {}
    for key in (name.replace("-", "_") for name in _flag_names(cmd)):
        value = getattr(args, key)
        if key != "method" and value is not None:
            params[key] = library("menon.parse_function_spec")(value) if key == "f" else value
    return params


def _agree(values: Mapping[str, object]) -> bool:
    """Whether all routes gave one value; if not, each route and its value go to stderr."""
    agree = len(set(values.values())) == 1
    if not agree:
        print("METHOD MISMATCH (implementation bug): "
              + " ".join(f"{route}={value}" for route, value in values.items()), file=sys.stderr)
    return agree


def _cmd_value(cmd: Command, args) -> int:
    """One route's value, or every route's when --method names none (all, both): they must agree."""
    params = _params(cmd, args)
    budget = params.pop("budget", None)
    order = route_order({route: library(name) for route, name in cmd.fn.items()},
                        getattr(args, "method", "all"))
    values = route_values(order, params, budget)
    if not _agree(values):
        return EXIT_FAILURE
    value = next(iter(values.values()))
    _check_printable(value)
    if args.format == "json":
        _emit_json(args, {**params, "value": value})
    else:
        _emit(args, str(value))
    return EXIT_OK


def _report_lines(report) -> list[str]:
    lines = [
        f"identity={report.identity} checked={report.checked} "
        f"failures={len(report.failures)} trivial_zeros={report.trivial_zeros} "
        f"skipped={len(report.skipped)}"
    ]
    for inst in report.failures:
        params = " ".join(f"{key}={val}" for key, val in inst.params)
        line = f"FAIL {params} lhs={inst.lhs} rhs={inst.rhs}"
        if inst.detail:
            line += f" ({inst.detail})"
        lines.append(line)
    for skip in report.skipped:
        lines.append(f"SKIP {_json_value(skip)}")
    return lines


def _cmd_verify(cmd: Command, args) -> int:
    """Run the row's sweeps; exit 1 on any failure, else 3 when any sweep skipped."""
    from . import menon

    reports = (cmd.fn(menon, args) if callable(cmd.fn)
               else [menon.verify_sweep(cmd.fn, **_params(cmd, args))])
    if args.format == "json":
        payload = [report.as_dict() for report in reports]
        _emit_json(args, payload if len(payload) > 1 else payload[0])
    else:
        lines = [line for report in reports for line in _report_lines(report)]
        verdict = "PASS" if all(r.ok for r in reports) else "FAIL"
        if any(r.partial for r in reports):
            verdict += " (partial: some instances skipped over budget)"
        lines.append(verdict)
        _emit(args, "\n".join(lines))
    if not all(r.ok for r in reports):
        return EXIT_FAILURE
    if any(r.partial for r in reports):
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_constant(cmd: Command, args) -> int:
    from . import summatory

    enclosure = summatory.average_order_constant(args.k, args.prime_bound)
    if args.format == "json":
        _emit_json(args, enclosure.as_dict())
    else:
        _emit(
            args,
            f"C_{args.k} in [{enclosure.lo!r}, {enclosure.hi!r}] "
            f"width={enclosure.width!r} (primes up to {args.prime_bound})",
        )
    return EXIT_OK


def _cmd_error_table(cmd: Command, args) -> int:
    from . import summatory

    try:
        grid = [int(part) for part in args.x_grid.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad x grid {args.x_grid!r}, expected comma-separated integers")
    rows = summatory.error_term_rows(
        args.k, grid, prime_bound=args.prime_bound, sieve_limit=args.sieve_limit
    )
    if args.format == "json":
        _emit_json(args, [row.as_dict() for row in rows])
    else:
        _emit(args, summatory.error_table_csv(rows))
    return EXIT_OK


# -- the command table ----------------------------------------------------------


COMMANDS = (
    Command(("eval", "phi-k"), "phi_k(n)", _cmd_value, ("k", "n", "method", "budget"),
            fn=ROUTES["phi-k"]),
    Command(("eval", "phi-k-nm"), "two-parameter phi_k(n, m)", _cmd_value,
            ("k", "n", "m", "method", "budget"), fn=ROUTES["phi-k-nm"]),
    Command(("eval", "g-k"), "convolution factor g_k(n)", _cmd_value, ("k", "n"),
            fn=ROUTES["g-k"]),
    Command(("eval", "n-k"), "unit-tuple count N_k(n, d, delta)", _cmd_value,
            ("k", "n", "d", "delta", "method", "budget"), fn=ROUTES["n-k"]),
    Command(("eval", "jordan"), "Jordan totient J_k(n)", _cmd_value, ("k", "n"),
            fn=ROUTES["jordan"]),
    Command(("eval", "gcd-sum"), "gcd sum over admissible tuples", _cmd_value,
            ("k", "n", "f", "method", "budget"), fn=ROUTES["gcd-sum"]),
    Command(("verify", "menon"), "gcd-sum identity, arbitrary f", _cmd_verify,
            ("k-max", "n-max", "f", "budget", "workers"), fn="menon_general"),
    Command(("verify", "sita-ramaiah"), "k = 2 gcd-sum specialization", _cmd_verify,
            (("n-max", dict(default=60)), "budget", "workers"), fn="sita_ramaiah"),
    Command(("verify", "nageswara-rao"), "joint-gcd power identity", _cmd_verify,
            ("k-max", "n-max", "budget", "workers"), fn="nageswara_rao"),
    Command(("verify", "lemmas"), "residue-class counts and N_k machinery", _cmd_verify,
            ("n-max", ("k-max", dict(help="tuple length cap for the N_k sweep")), "budget"),
            fn=lambda menon, a: [menon.lemma_sweep(a.n_max, a.budget),
                                 menon.n_k_sweep(a.k_max, a.n_max, a.budget)]),
    Command(("verify", "phi-k-nm"), "every route of phi_k(n, m), every m | n", _cmd_verify,
            ("k-max", "n-max", "budget"),
            fn=lambda menon, a: [menon.route_sweep("phi-k-nm", ("m",), "phi_k_nm", "phi_k(n, m)",
                                                   a.k_max, a.n_max, a.budget)]),
    Command(("sum", "phi-k"), "sum of phi_k(n) for n <= x", _cmd_value,
            ("k", "x", "sieve-limit", "workers",
             ("method", dict(choices=("direct", "convolution", "both")))), fn=ROUTES["sum-phi-k"]),
    Command(("constant",), "enclose the average-order constant C_k", _cmd_constant,
            ("k", "prime-bound")),
    Command(("error-table",), "exact sums against the main term", _cmd_error_table,
            ("k", "x-grid", "prime-bound", "sieve-limit"), formats=("csv", "json")),
)


def _row_flags(cmd: Command) -> dict[str, dict]:
    """The flags a row takes, --format and --out last, each with its argparse keywords.

    A flag's keywords are its `_flag_specs()` entry, then a route map's --method choices and
    default, then the row's overrides, each over the one before.  Both argv readers use these.
    """
    specs = _flag_specs()
    flags = {}
    for flag in cmd.flags:
        name, overrides = (flag, {}) if isinstance(flag, str) else flag
        if name == "method" and isinstance(cmd.fn, Mapping):  # the row's own choices win
            overrides = dict(choices=(*cmd.fn, "all"), default=next(iter(cmd.fn))) | overrides
        flags[name] = {**specs[name], **overrides}
    flags["format"] = dict(choices=cmd.formats, default=cmd.formats[0])
    flags["out"] = dict(help="write output to this file instead of stdout")
    return flags


# The keywords `_read_table` applies as argparse does; a row with a flag using any other goes
# to argparse.
_TABLE_KEYS = {"type", "required", "default", "choices", "help"}


def _read_table(argv: Sequence[str]) -> SimpleNamespace | None:
    """argv read from COMMANDS when it is canonical, with the attributes argparse would set (but
    `parser`); else None, and argparse reads it.

    Canonical is a row's path, then `--flag value` pairs naming each of the row's flags at most
    once, every required one among them, no value starting with "-", each value converted by its
    `type` and within its `choices`; a string default goes through `type` too, as in argparse.
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
        value = spec.get("default") if word is None else word
        if isinstance(value, str) and spec.get("type"):
            try:
                value = spec["type"](value)
            except (TypeError, ValueError):
                return None
        if word is not None and value not in spec.get("choices", (value,)):
            return None
        attrs[name.replace("-", "_")] = value
    return None if given else SimpleNamespace(**attrs)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The phik parser: every group and top-level row, and the leaf rows of the group argv names.

    Without argv, every group's leaves are built.  argparse reads the first word
    of argv not starting with "-" as the group, so help and error texts are those
    of the full parser.  This is the one place phik imports argparse.
    """
    import argparse

    reached = next((word for word in argv or () if not word.startswith("-")), None)
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
            if argv is not None and group != reached:
                continue
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
        args, extra = build_parser(argv).parse_known_args(argv)
        if extra:  # reported by the leaf, whose usage names the flags it takes
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    cmd = args.command
    try:
        return cmd.handler(cmd, args)
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

    No output waits on teardown: `--out` files and worker pools are closed by their `with`
    blocks before main returns.  atexit handlers do not run.  An exception from main, SystemExit
    included, takes the interpreter's own exit; a failed flush keeps main's exit code.
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
