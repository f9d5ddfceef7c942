"""Command-line surface: evaluation, oracles, identity sweeps, sums, constants.

Exit codes: 0 success, 1 identity failure or method mismatch (witnesses
printed), 2 usage or domain error, 3 budget refusal.  JSON output encodes
every exact integer as a decimal string (`_json_value`), since values outgrow
doubles.

Every subcommand is one row of COMMANDS.  Rows name library functions as
"module.function", and a module is imported when a row that uses it runs, so
a process loads only what its command needs, and a function replaced on its
module (for instance by a tracer) is the one that is called.  The parser is
built as far as argv reaches: every group and top-level row, but the leaves
of one group only.  main() also keeps numpy's OpenBLAS from starting a thread
pool (phik calls no BLAS routine) unless OPENBLAS_NUM_THREADS is already set.
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings
from importlib import import_module
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from .core import (
    DEFAULT_ORACLE_BUDGET,
    DEFAULT_PRIME_BOUND,
    DEFAULT_SIEVE_LIMIT,
    BudgetExceededError,
    positive_int,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

GROUPS = {
    "eval": "closed-form evaluation",
    "oracle": "counts from the definitions",
    "verify": "identity sweeps against oracles",
    "sum": "exact partial sums",
}

M_ORACLE_HELP = "test the sum against m instead of n (m not dividing n is experimental)"

# The longest integer printed, in decimal digits (about 0.15 s of conversion); longer is refused.
MAX_PRINTED_DIGITS = 10**5


class Command(NamedTuple):
    """One subcommand: where it sits, what it may print, the flags its handler reads.

    `flags` name entries of `_flag_specs()`, optionally as (name, overrides); `formats` are
    the --format choices, the first being the default.
    `fn` is what the row calls: a "module.function" name, a route map from each --method
    choice (the first the default) to a name, a verify row's `menon.verify_sweep` kind, or
    (for `verify lemmas`) a callable of (`menon`, the arguments) returning the reports.
    """

    path: tuple[str, ...]
    help: str
    handler: Callable[["Command", argparse.Namespace], int]
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
        "method": {},  # a route map's keys, or the row's own choices
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


def _library(name: str):
    """The library function named "module.function", importing its module if need be."""
    module, attr = name.split(".")
    return getattr(import_module(f"{__package__}.{module}"), attr)


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


def _warning_line(message, *_) -> None:  # replaces warnings.showwarning
    print(f"warning: {message}", file=sys.stderr)


def _check_printable(value) -> None:
    # an int below 2**332192 < 10**MAX_PRINTED_DIGITS needs no exact comparison
    long = isinstance(value, int) and value.bit_length() > 332_192
    if long and abs(value) >= 10**MAX_PRINTED_DIGITS:
        raise BudgetExceededError(
            f"the answer has more than {MAX_PRINTED_DIGITS} decimal digits, the most phik prints")


# -- handlers -----------------------------------------------------------------


def _params(cmd: Command, args) -> dict:
    """The row's flags as keywords ("-" read as "_"), f parsed once, no unset flag nor method."""
    params = {}
    for key in (name.replace("-", "_") for name in _flag_names(cmd)):
        value = getattr(args, key)
        if key != "method" and value is not None:
            params[key] = _library("menon.parse_function_spec")(value) if key == "f" else value
    return params


def _cmd_value(cmd: Command, args) -> int:
    """Call the row's function, or its route map's --method entry; JSON echoes all but budget."""
    params = _params(cmd, args)
    value = _library(cmd.fn if isinstance(cmd.fn, str) else cmd.fn[args.method])(**params)
    _check_printable(value)
    if args.format == "json":
        payload = {key: v for key, v in params.items() if key != "budget"}
        _emit_json(args, {**payload, "value": value})
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


def _cmd_sum_phi_k(cmd: Command, args) -> int:
    from . import summatory

    if args.format == "csv":  # the enclosure is cheap: refuse a bad prime bound before any sum
        enclosure = summatory.average_order_constant(args.k, args.prime_bound, args.sieve_limit)
    results = []
    if args.method != "direct":  # first, so that its refusals come before any direct sum
        positive_int(args.workers, "worker count")  # as the direct route does, for every method
        results.append(summatory.sum_phi_k_convolution(args.k, args.x, args.sieve_limit))
    if args.method != "convolution":
        results.insert(0, summatory.sum_phi_k_direct(args.k, args.x, args.sieve_limit, args.workers))
    if len(results) == 2 and results[0].value != results[1].value:
        print(f"METHOD MISMATCH (implementation bug): direct_sieve={results[0].value} "
              f"convolution={results[1].value}", file=sys.stderr)
        return EXIT_FAILURE
    _check_printable(results[0].value)
    if args.format == "csv":
        row = summatory.error_row(args.x, results[0].value, enclosure)
        _emit(args, summatory.error_table_csv([row]))
    elif args.format == "json":
        payload = results[0]._asdict()
        if args.method == "both":
            payload["method"] = "both"
        _emit_json(args, payload)
    else:
        _emit(args, str(results[0].value))
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
    Command(("eval", "phi-k"), "phi_k(n)", _cmd_value, ("k", "n"), fn="totients.phi_k"),
    Command(("eval", "phi-k-nm"), "two-parameter phi_k(n, m)", _cmd_value,
            ("k", "n", "m", "method"),
            fn={"closed": "totients.phi_k_nm", "recursion": "totients.phi_k_nm_recursion"}),
    Command(("eval", "g-k"), "convolution factor g_k(n)", _cmd_value, ("k", "n"),
            fn="totients.g_k"),
    Command(("eval", "n-k"), "unit-tuple count N_k(n, d, delta)", _cmd_value,
            ("k", "n", "d", "delta", "method"),
            fn={"closed": "menon.n_k", "recursion": "menon.n_k_recursion"}),
    Command(("eval", "jordan"), "Jordan totient J_k(n)", _cmd_value, ("k", "n"),
            fn="core.jordan_totient"),
    Command(("oracle", "phi-k"), "phi_k(n) counted from the definition", _cmd_value,
            ("k", "n", ("m", dict(required=False, help=M_ORACLE_HELP)), "budget"),
            fn="totients.phi_k_nm_oracle"),
    Command(("oracle", "n-k"), "N_k(n, d, delta) counted over unit tuples", _cmd_value,
            ("k", "n", "d", "delta", "budget"), fn="menon.n_k_oracle"),
    Command(("oracle", "menon-lhs"), "gcd sum over admissible tuples", _cmd_value,
            ("k", "n", "f", "budget"), fn="menon.gcd_sum_lhs_oracle"),
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
    Command(("sum", "phi-k"), "sum of phi_k(n) for n <= x", _cmd_sum_phi_k,
            ("k", "x", "sieve-limit", "prime-bound", "workers",
             ("method", dict(choices=("direct", "convolution", "both"), default="direct"))),
            formats=("plain", "json", "csv")),
    Command(("constant",), "enclose the average-order constant C_k", _cmd_constant,
            ("k", "prime-bound")),
    Command(("error-table",), "exact sums against the main term", _cmd_error_table,
            ("k", "x-grid", "prime-bound", "sieve-limit"), formats=("csv", "json", "plain")),
)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The phik parser: every group and top-level row, and the leaf rows of the group argv names.

    Without argv, every group's leaves are built.  argparse reads the first word
    of argv not starting with "-" as the group, so help and error texts are those
    of the full parser.
    """
    reached = next((word for word in argv or () if not word.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="phik",
        description="Exact arithmetic for the k-dimensional totient, its "
        "gcd-sum identities, and its average order.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    groups = {}
    specs = _flag_specs()
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
        for flag in cmd.flags:
            name, overrides = (flag, {}) if isinstance(flag, str) else flag
            if name == "method" and isinstance(cmd.fn, Mapping):
                overrides = dict(choices=tuple(cmd.fn), default=next(iter(cmd.fn)))
            p.add_argument(f"--{name}", **{**specs[name], **overrides})
        p.add_argument("--format", choices=cmd.formats, default=cmd.formats[0])
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(command=cmd)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # the limit exists from Python 3.10.7
        sys.set_int_max_str_digits(MAX_PRINTED_DIGITS)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before any handler imports numpy
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    cmd = args.command
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
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


if __name__ == "__main__":
    sys.exit(main())
