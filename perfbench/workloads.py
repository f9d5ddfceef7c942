"""The four workloads: seeded phik command lists, each command with its output check.

A workload is built from (name, seed, smoke).  The seed picks every input
phik sees; sizes are fixed per workload so that run time barely depends on
the seed (x and prime bounds move by at most 0.5%, trial-division primes by
0.5%, sweep sizes not at all).  Checks compare against `reference`, never
against phik itself; the one exception is that the workers run must also
print the same sum as the `both` run at the same x.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("partial-sums", "average-order", "identity-sweeps", "closed-forms")

# The trivial command timed inside every workload as setup_s.
SETUP_ARGV = ("eval", "phi-k", "--k", "2", "--n", "15")

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Command:
    """One phik invocation, the check on its stdout, and an optional agreement key.

    Commands that share `agree` must print the same checked value.
    """

    argv: tuple[str, ...]
    check: Check
    agree: str | None = None


@dataclass
class Workload:
    name: str
    seed: int
    commands: list[Command]
    # library calls the traced run makes after the commands, for public
    # functions the commands reach only from inside loops or not at all
    extras: list[list] = field(default_factory=list)


def _jitter(rng: random.Random, base: int, share: float = 0.005) -> int:
    spread = max(1, int(base * share))
    return base + rng.randrange(-spread, spread + 1)


# -- checks -------------------------------------------------------------------


def check_value(expected: int) -> Check:
    def check(out: str):
        got = out.strip()
        return None if got == str(expected) else f"expected {expected}, got {got[:80]!r}"

    return check


def check_sum(k: int, x: int) -> Check:
    """Exact sum: matches the reference mod 2**64 and C_k x**(k+1)/(k+1) to 10%."""
    (expected_mod,) = ref.phi_k_prefix_mod64(k, [x])

    def check(out: str):
        try:
            payload = json.loads(out)
            value = int(payload["value"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable sum output: {exc}"
        if (payload.get("k"), payload.get("x")) != (str(k), str(x)):
            return f"echoed k, x {payload.get('k')}, {payload.get('x')} != {k}, {x}"
        return _sum_error(k, x, value, expected_mod)

    return check


def _sum_error(k: int, x: int, value: int, expected_mod: int):
    if value % ref.MOD64 != expected_mod:
        return f"sum({k}, {x}) = {value} disagrees with the reference mod 2**64"
    main = float(ref.C_K[k]) * x ** (k + 1) / (k + 1)
    if x >= 100 and abs(value / main - 1) > 0.1:
        return f"sum({k}, {x}) = {value} is far from the main term {main:.6g}"
    return None


def _exact(v) -> Fraction:
    return Fraction(v) if isinstance(v, (int, float)) else Fraction(str(v))


def check_constant(k: int, prime_bound: int) -> Check:
    """lo <= hi, contains the reference interval for C_k, no wider than the seed."""
    ref_lo, ref_hi = ref.c_k_interval(k)
    limit = ref.seed_width_limit(k, prime_bound)

    def check(out: str):
        try:
            payload = json.loads(out)
            lo, hi = _exact(payload["lo"]), _exact(payload["hi"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable enclosure: {exc}"
        if not lo <= ref_lo <= ref_hi <= hi:
            return f"[{float(lo)!r}, {float(hi)!r}] does not contain C_{k} = {ref.C_K[k]}"
        if hi - lo > limit:
            return f"width {float(hi - lo)!r} exceeds the seed width {limit!r} at P={prime_bound}"
        return None

    return check


ERROR_COLUMNS = ["x", "sum", "main_term_lo", "main_term_hi", "delta", "normalized_ratio"]


def check_error_table(k: int, grid: list[int], prime_bound: int) -> Check:
    """Rows in grid order, exact sums, main terms around C_k x**(k+1)/(k+1), delta and ratio consistent."""
    expected_mods = ref.phi_k_prefix_mod64(k, grid)
    slack = 2 * (k + 1) / (prime_bound - 1)

    def check(out: str):
        rows = list(csv.reader(io.StringIO(out.strip())))
        if not rows or rows[0] != ERROR_COLUMNS:
            return f"bad header {rows[:1]!r}"
        if [r[0] for r in rows[1:]] != [str(x) for x in grid]:
            return f"grid {[r[0] for r in rows[1:]]} != {grid}"
        for row, x, mod in zip(rows[1:], grid, expected_mods):
            try:
                total = int(row[1])
                lo, hi, delta, ratio = (float(v) for v in row[2:])
            except ValueError as exc:
                return f"unreadable row {row!r}: {exc}"
            err = _sum_error(k, x, total, mod)
            if err:
                return err
            main = float(ref.C_K[k]) * x ** (k + 1) / (k + 1)
            if not (lo <= hi and abs(lo / main - 1) <= slack and abs(hi / main - 1) <= slack):
                return f"main term [{lo!r}, {hi!r}] at x={x} is not around {main!r}"
            if abs(delta - (total - (lo + hi) / 2)) > (hi - lo) + 1e-12 * hi:
                return f"delta {delta!r} at x={x} is not sum minus the main term"
            want = abs(delta) / (x**k * math.log(x) ** (k + 1))
            if not math.isclose(ratio, want, rel_tol=1e-9, abs_tol=1e-300):
                return f"normalized ratio {ratio!r} at x={x}, expected {want!r}"
        return None

    return check


_REPORT = re.compile(
    r"identity=(\S+) checked=(\d+) failures=(\d+) trivial_zeros=\d+ skipped=(\d+)$"
)


def check_verify(expected: list[tuple[str, int]]) -> Check:
    """Every report line names the expected identity and count, no failures or skips, then PASS."""

    def check(out: str):
        lines = out.strip().splitlines()
        if not lines or lines[-1] != "PASS":
            return f"verdict {lines[-1:]!r}, expected PASS"
        reports = [m.groups() for m in map(_REPORT.match, lines[:-1]) if m]
        got = [(name, int(checked)) for name, checked, _, _ in reports]
        if got != expected:
            return f"reports {got} != expected {expected}"
        if len(reports) != len(lines) - 1 or any(f != "0" or s != "0" for _, _, f, s in reports):
            return "failures or skipped instances reported"
        return None

    return check


# -- workloads ------------------------------------------------------------------


def _sum_cmd(k: int, x: int, *extra: str) -> Command:
    argv = ("sum", "phi-k", "--k", str(k), "--x", str(x), *extra, "--format", "json")
    return Command(argv, check_sum(k, x), agree=f"sum:{k}:{x}")


def partial_sums(rng: random.Random, smoke: bool) -> tuple[list[Command], list[list]]:
    x_even = _jitter(rng, 3_000 if smoke else 500_000)
    x_odd = _jitter(rng, 2_000 if smoke else 250_000)
    commands = [
        _sum_cmd(2, x_even, "--method", "both"),
        _sum_cmd(5, x_odd, "--method", "both"),
        _sum_cmd(2, x_even, "--method", "direct", "--workers", "2"),
    ]
    extras = [["faulhaber_quotients", {"k": 2, "x": x_even}], ["faulhaber_quotients", {"k": 5, "x": x_odd}]]
    return commands, extras


def average_order(rng: random.Random, smoke: bool) -> tuple[list[Command], list[list]]:
    p_even = _jitter(rng, 3_000 if smoke else 1_000_000)
    p_big = _jitter(rng, 2_000 if smoke else 500_000)
    p_table = _jitter(rng, 1_500 if smoke else 100_000)
    top = 2_000 if smoke else 150_000
    grid = sorted({rng.randrange(top // 200, top // 100), rng.randrange(top // 20, top // 10),
                   rng.randrange(top // 3, top // 2), _jitter(rng, top)})
    commands = [
        Command(("constant", "--k", "2", "--prime-bound", str(p_even), "--format", "json"),
                check_constant(2, p_even)),
        Command(("constant", "--k", "4", "--prime-bound", str(p_big), "--format", "json"),
                check_constant(4, p_big)),
        Command(("error-table", "--k", "3", "--x-grid", ",".join(map(str, grid)),
                 "--prime-bound", str(p_table)),
                check_error_table(3, grid, p_table)),
    ]
    return commands, []


def _lemma_counts(n_max: int, k_max: int) -> list[tuple[str, int]]:
    lemmas = nk = 0
    for n in range(1, n_max + 1):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        lemmas += sum(d + sum(d * e for e in divs) for d in divs)
        nk += k_max * len(divs) ** 2
    return [("lemmas", lemmas), ("n_k_machinery", nk)]


def identity_sweeps(rng: random.Random, smoke: bool, table_path: Path) -> tuple[list[Command], list[list]]:
    k_max = 2 if smoke else 3
    n_menon, n_rao, n_sita, n_lemma = (10, 8, 12, 8) if smoke else (40, 30, 100, 28)
    named = rng.choice(["id", "one", "tau", "mu", "pow:2"])
    # a non-multiplicative table: independent random values, f(1) != 1 included
    table = {str(d): rng.randrange(-99, 100) for d in range(1, n_menon + 1)}
    table_path.write_text(json.dumps(table))
    menon = [("menon_general", k_max * n_menon)]
    commands = [
        Command(("verify", "menon", "--k-max", str(k_max), "--n-max", str(n_menon), "--f", named),
                check_verify(menon)),
        Command(("verify", "menon", "--k-max", str(k_max), "--n-max", str(n_menon),
                 "--f", f"table:{table_path.as_posix()}"), check_verify(menon)),
        Command(("verify", "nageswara-rao", "--k-max", str(k_max), "--n-max", str(n_rao)),
                check_verify([("nageswara_rao", k_max * n_rao)])),
        Command(("verify", "sita-ramaiah", "--n-max", str(n_sita)),
                check_verify([("sita_ramaiah", n_sita)])),
        Command(("verify", "lemmas", "--n-max", str(n_lemma), "--k-max", str(k_max)),
                check_verify(_lemma_counts(n_lemma, k_max))),
    ]
    # public functions no verify command calls, over the menon grid
    n_oracle = n_menon // 2
    extras = [["menon.menon_expansion_rhs", {"k": k, "n": n, "f": named}]
              for k in range(1, k_max + 1) for n in range(1, n_menon + 1)]
    extras += [["totients.phi_k_oracle", {"k": k, "n": n}]
               for k in range(1, k_max + 1) for n in range(1, n_oracle + 1)]
    return commands, extras


def closed_forms(rng: random.Random, smoke: bool) -> tuple[list[Command], list[list]]:
    base = 10_000 if smoke else 10_000_000
    spread = max(50, base // 200)

    def semiprime():
        p = ref.random_prime(rng, base, base + spread)
        q = ref.random_prime(rng, p + 1, p + 1 + spread)
        return p, q

    def eval_cmd(target, k, n, *extra, expected):
        argv = ("eval", target, "--k", str(k), "--n", str(n), *extra)
        return Command(argv, check_value(expected))

    commands = []
    ks = [rng.choice([2, 3, 4]) for _ in range(8)]
    p, q = semiprime()
    commands.append(eval_cmd("phi-k", ks[0], p * q,
                             expected=ref.phi_k_prime(ks[0], p) * ref.phi_k_prime(ks[0], q)))
    p, q = semiprime()
    commands.append(eval_cmd("phi-k-nm", ks[1], p * q, "--m", str(p),
                             expected=(q - 1) ** ks[1] * ref.phi_k_prime(ks[1], p)))
    p, q = semiprime()
    k = ks[2]
    commands.append(eval_cmd("g-k", k, p * q,
                             expected=(ref.phi_k_prime(k, p) - p**k) * (ref.phi_k_prime(k, q) - q**k)))
    p, q = semiprime()
    k = ks[3]
    # N_k(pq, p, q) = ((p-1)**k - (-1)**k) / p * phi_{k-1}(q)
    commands.append(eval_cmd("n-k", k, p * q, "--d", str(p), "--delta", str(q),
                             expected=((p - 1) ** k - (-1) ** k) // p * ref.phi_k_prime(k - 1, q)))
    p, q = semiprime()
    commands.append(eval_cmd("jordan", ks[4], p * q, expected=(p ** ks[4] - 1) * (q ** ks[4] - 1)))
    n1, n2, n3 = (rng.randrange(2, 100_000) for _ in range(3))
    m3 = rng.choice([d for d in range(1, n3 + 1) if n3 % d == 0])
    commands += [
        eval_cmd("phi-k", ks[5], n1, expected=ref.phi_k(ks[5], n1)),
        eval_cmd("jordan", ks[6], n2, expected=ref.jordan(ks[6], n2)),
        eval_cmd("phi-k-nm", ks[7], n3, "--m", str(m3), expected=ref.phi_k_nm(ks[7], n3, m3)),
    ]
    return commands, []


def build(name: str, seed: int, out_dir: Path, smoke: bool = False) -> Workload:
    """The workload's commands and traced extras, all inputs drawn from the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "partial-sums":
        commands, extras = partial_sums(rng, smoke)
    elif name == "average-order":
        commands, extras = average_order(rng, smoke)
    elif name == "identity-sweeps":
        commands, extras = identity_sweeps(rng, smoke, out_dir / f"table-{seed}.json")
    elif name == "closed-forms":
        commands, extras = closed_forms(rng, smoke)
    else:
        raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
    return Workload(name, seed, commands, extras)


def probe_calls(seed: int) -> list[list]:
    """Small library calls reaching every traced layer, for layers a workload's commands miss.

    Their numbers stand in for a layer on a workload that does not exercise
    it, so that every per-layer metric exists on every workload; compare a
    layer across commits on the workload that exercises it.
    """
    rng = random.Random(f"probe:{seed}")
    x = _jitter(rng, 20_000)
    prime_bound = _jitter(rng, 20_000)
    f = rng.choice(["id", "one", "tau", "mu", "pow:2"])
    calls = [
        ["summatory.sum_phi_k_direct", {"k": 2, "x": x}],
        ["summatory.sum_phi_k_direct", {"k": 2, "x": x, "workers": 2}],
        ["summatory.sum_phi_k_convolution", {"k": 2, "x": x}],
        ["faulhaber_quotients", {"k": 2, "x": x}],
        ["summatory.average_order_constant", {"k": 3, "prime_bound": prime_bound}],
        ["summatory.error_term_rows", {"k": 2, "xs": [1_000, x], "prime_bound": prime_bound}],
        ["menon.verify_sweep", {"kind": "menon_general", "k_max": 2, "n_max": 12, "f": f}],
        ["menon.verify_sweep", {"kind": "nageswara_rao", "k_max": 2, "n_max": 12}],
        ["menon.lemma_sweep", {"n_max": 10}],
        ["menon.n_k_sweep", {"k_max": 2, "n_max": 10}],
    ]
    calls += [["menon.menon_expansion_rhs", {"k": 2, "n": n, "f": f}] for n in range(1, 13)]
    calls += [["totients.phi_k_oracle", {"k": 2, "n": n}] for n in range(1, 21)]
    for _ in range(3):
        p = ref.random_prime(rng, 10_000, 10_100)
        n = p * ref.random_prime(rng, p + 1, p + 100)
        calls += [["core.factorize", {"n": n}], ["totients.phi_k", {"k": 3, "n": n}],
                  ["core.jordan_totient", {"k": 3, "n": n}]]
    return calls
