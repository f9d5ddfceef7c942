"""Gcd-sum identities over coprime tuples and the unit-counting machinery.

The central identity: summing f(gcd(a_1 + ... + a_k - 1, n)) over the
phi_k(n) admissible tuples equals phi_k(n) * sum_{d | n} (mu*f)(d)/phi(d)
for any arithmetic function f.  With f = id the divisor sum collapses to
tau(n).  Supporting pieces: counts of units in one or two residue classes,
read off one table of the units by (a mod d, a mod e) per (n, d, e), and
N_k(n, d, delta), the number of unit k-tuples whose sum is 1 mod d and 0 mod
delta, whose three routes live in `totients` and which `menon_expansion_rhs`
sums.  Every closed form has an oracle next to it, counting from
the definition with the kernels of `totients`: `unit_sum_counts` for sums of
units, `fold_counts` for the joint-gcd pairs.  Arguments pass `core.tuple_args`, tables
of f `core.table_lookup`.  Sweeps report through `IdentityReport.of`, a skipped cell by
its oracle's own refusal, and spread their cells with `core.parallel_map`; `route_sweep`
checks every route of a quantity of `core.ROUTES` against its first.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import product
from math import gcd, lcm, prod
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .core import (
    DEFAULT_ORACLE_BUDGET,
    ROUTES,
    ArithValue,
    BudgetExceededError,
    MultiplicativeFunction,
    cap_workers,
    check_budget,
    check_word_budget,
    divisors,
    euler_phi,
    exact_div,
    factorize,
    jordan_totient,
    library,
    mobius,
    mobius_transform,
    parallel_map,
    positive_int,
    power,
    route_order,
    route_values,
    table_lookup,
    tau,
    tuple_args,
)
# units_mod and the N_k routes stay names here: perfbench reports the cache of "menon.units_mod"
# and traces "menon.n_k", "menon.n_k_recursion" and "menon.n_k_oracle"
from .totients import (fold_counts, n_k, n_k_oracle, n_k_recursion, phi_k, unit_sum_counts,
                       units_mod)

IDENTITY_KINDS = ("menon_general", "menon_gcd", "sita_ramaiah", "nageswara_rao")

# Cells per worker below which `verify_sweep` starts no pool.  As processes (`verify menon --f tau`,
# 2 vCPUs, Python 3.11, medians of 9-13 alternating runs), `--workers 2` lost to `--workers 1` at
# 120 cells (k <= 3, n <= 40: 140 against 89 ms), 480 (k <= 6, n <= 80: 234 against 153 ms) and
# 600 (k <= 3, n <= 200: 301 against 238 ms; k <= 4, n <= 150: 276 against 181 ms), split at 800
# (k = 1, n <= 800: 419 against 689 ms; k <= 2, n <= 400: 391 against 359 ms), tied at 900
# (k <= 3, n <= 300) and won from 1,000 (k <= 2, n <= 500: 409 against 444 ms; k <= 3, n <= 400:
# 472 against 591 ms).  A cell costs more as n grows.  At 400, a 2-way pool starts at 800 cells.
SWEEP_POOL_FLOOR = 400


# -- counting units in residue classes -------------------------------------


def _class_table(n: int, d: int, e: int) -> Counter:
    """Units a <= n counted by (a mod d, a mod e), read off their residues mod lcm(d, e)."""
    table: Counter = Counter()
    for t, c in unit_sum_counts(1, n, lcm(d, e)):
        table[t % d, t % e] += c
    return table


def _predicted(n: int, d: int, e: int, r: int, s: int) -> int:
    """phi(n) gcd(d,e) / phi(de) when gcd(r,d) = gcd(s,e) = 1 and gcd(d,e) | r - s, else 0."""
    g = gcd(d, e)
    if gcd(r, d) == 1 and gcd(s, e) == 1 and (r - s) % g == 0:
        return exact_div(euler_phi(n) * g, euler_phi(d * e))
    return 0


def count_units_in_class(n: int, d: int, r: int) -> tuple[int, int]:
    """Units a <= n with a = r (mod d), counted by residue, plus the prediction.

    Prediction: phi(n)/phi(d) when gcd(r, d) = 1, else 0.  d must divide n.
    """
    return count_units_in_two_classes(n, d, 1, r, 0)


def count_units_in_two_classes(n: int, d: int, e: int, r: int, s: int) -> tuple[int, int]:
    """Units a <= n with a = r (mod d) and a = s (mod e), plus the prediction.

    Prediction: phi(n) gcd(d,e) / phi(de) when gcd(r,d) = gcd(s,e) = 1 and
    gcd(d,e) divides r - s, else 0.  Both d and e must divide n.
    """
    n, d, e = tuple_args(None, n, d=d, e=e)
    return _class_table(n, d, e)[r % d, s % e], _predicted(n, d, e, r, s)


# -- arbitrary f: parsing and tables ----------------------------------------

FSpecInput = Union[str, Mapping, MultiplicativeFunction, Callable[[int], ArithValue], "FunctionSpec"]


class FunctionSpec(NamedTuple):
    """An arithmetic function f, plus (optionally) precomputed (mu * f) values.

    When `mu_fn` is given, the closed-form side of the gcd-sum identity uses
    it instead of computing the Moebius transform of `fn`; a table whose
    mu_fn disagrees with fn therefore yields genuine identity failures.
    Every spec parsed from a name, pow:j or a table pickles.
    """

    label: str
    fn: Callable[[int], ArithValue]
    mu_fn: Callable[[int], ArithValue] | None = None

    def __str__(self) -> str:
        return self.label

    def mobius_transform_at(self, d: int) -> ArithValue:
        if self.mu_fn is not None:
            return self.mu_fn(d)
        return mobius_transform(self.fn, d)


def _parse_table(data: Mapping, label: str) -> FunctionSpec:
    raw_f, raw_mu = (data["f"], data.get("mu_f")) if "f" in data else (data, None)
    mu_fn = None if raw_mu is None else table_lookup(raw_mu, f"{label} mu_f")
    return FunctionSpec(label, table_lookup(raw_f, f"{label} f"), mu_fn)


def _load_table_file(path: str) -> FunctionSpec:
    import json

    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # a JSON or UTF-8 decoding error
            raise ValueError(f"table file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"table file {path} must hold a JSON object")
    return _parse_table(data, f"table:{path}")


def parse_function_spec(spec: FSpecInput) -> FunctionSpec:
    """Resolve a function spec: id | one | tau | mu | pow:j | table:<path>.

    Also accepts a divisor-indexed mapping (optionally {"f": ..., "mu_f": ...}),
    a registered multiplicative function, a plain callable, or an already
    parsed FunctionSpec.  id, one and pow:j are x**1, x**0 and x**j, built by `core.power`, which
    refuses a value of f over its bits as it refuses a closed form's power.
    """
    if isinstance(spec, FunctionSpec):
        return spec
    if isinstance(spec, MultiplicativeFunction):
        return FunctionSpec(spec.name, spec)
    if isinstance(spec, Mapping):
        return _parse_table(spec, "table")
    if callable(spec):
        return FunctionSpec(getattr(spec, "__name__", "callable"), spec)
    if not isinstance(spec, str):
        raise ValueError(f"cannot interpret {spec!r} as a function spec")
    text = spec.strip()
    if text in ("id", "one"):  # x**1 and x**0
        return FunctionSpec(text, partial(power, e=1 if text == "id" else 0))
    if text == "tau":
        return FunctionSpec("tau", tau)
    if text == "mu":
        return FunctionSpec("mu", mobius)
    if text.startswith("pow:"):
        try:
            j = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad power spec {text!r}, expected pow:<integer>") from None
        if j < 0:
            raise ValueError(f"pow:{j} rejected, exponent must be >= 0")
        return FunctionSpec(text, partial(power, e=j))
    if text.startswith("table:"):
        return _load_table_file(text.split(":", 1)[1])
    raise ValueError(
        f"unknown function spec {text!r}; expected id, one, tau, mu, pow:j, or table:<path>"
    )


# -- the gcd-sum identity ---------------------------------------------------


def gcd_sum_lhs_oracle(
    k: int, n: int, f: FSpecInput = "id", budget: int = DEFAULT_ORACLE_BUDGET
) -> ArithValue:
    """Sum f(gcd(a_1+...+a_k-1, n)) over admissible tuples, counted by their sum.

    Admissible: every entry in [1, n], product and sum both coprime to n.
    The gcd is taken with the sum reduced mod n, so gcd(0, n) = n.  f is
    called only at gcds some tuple reaches.  Priced at n**k tuples.
    """
    k, n = tuple_args(k, n)
    check_budget((n, k), budget, f"gcd-sum oracle at k={k}, n={n}")
    spec = parse_function_spec(f)
    gcds: Counter[int] = Counter()
    for r, c in unit_sum_counts(k, n, n):
        if gcd(r, n) == 1:
            gcds[gcd((r - 1) % n, n)] += c
    return sum(spec.fn(g) * c for g, c in sorted(gcds.items()))


def _divisor_sum_spec(k: int, n: int, f: FSpecInput, what: str, with_n_k=False) -> FunctionSpec:
    """f for a divisor sum over n, priced first at prod (e+1)(e+2)/2 = sum_{d | n} tau(d) transform
    terms (with_n_k: plus the 2**omega(n) N_k pairs of each divisor) of k bits(n) bits.  Without a
    mu_f table, f is evaluated once per divisor, not per read (3**omega at squarefree n)."""
    spec = parse_function_spec(f)
    factors = factorize(n).factors
    terms = prod((e + 1) * (e + 2) // 2 for _, e in factors)
    pairs = prod(e + 1 for _, e in factors) << len(factors) if with_n_k else 0
    check_word_budget(terms + pairs, k * n.bit_length(), what)
    if spec.mu_fn is None:  # a refusal is not cached: the first read of a missing entry raises
        spec = spec._replace(fn=lru_cache(maxsize=None)(spec.fn))
    return spec


def gcd_sum_rhs(k: int, n: int, f: FSpecInput = "id") -> ArithValue:
    """Closed form phi_k(n) * sum_{d | n} (mu*f)(d) / phi(d), exactly, in integers.

    phi(d) | phi(n) | phi_k(n), so each phi_k(n) / phi(d) is an exact integer:
    the value is an int for every integer-valued f and mu_f table, consistent
    or not, and a Fraction only where f itself takes Fraction values.  Priced before any
    divisor is listed (`_divisor_sum_spec`).
    """
    k, n = tuple_args(k, n)
    spec = _divisor_sum_spec(k, n, f, f"gcd-sum divisor sum at k={k}, n={n}")
    phi_kn = phi_k(k, n)
    val = sum(spec.mobius_transform_at(d) * exact_div(phi_kn, euler_phi(d)) for d in divisors(n))
    return int(val) if getattr(val, "denominator", None) == 1 else val


def menon_expansion_rhs(k: int, n: int, f: FSpecInput = "id") -> ArithValue:
    """The same gcd sum assembled from N_k values.

    sum_{d | n} (mu*f)(d) * sum_{delta | n} mu(delta) * N_k(n, d, delta);
    a third route to the identity, independent of the admissible-tuple loop.  Priced before any
    divisor is listed, with its N_k pairs (`_divisor_sum_spec`).
    """
    k, n = tuple_args(k, n)
    spec = _divisor_sum_spec(k, n, f, f"N_k expansion of the gcd sum at k={k}, n={n}",
                             with_n_k=True)
    divs = divisors(n)
    return sum(sum(mobius(delta) * n_k(k, n, d, delta) for delta in divs if mobius(delta))
               * spec.mobius_transform_at(d) for d in divs)


def nageswara_rao_lhs_oracle(k: int, n: int, budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Sum gcd(a_1-1, ..., a_k-1, n)**k over tuples with gcd(a_1,...,a_k,n)=1.

    The tuples of [1, n] are counted by the pair (gcd(a_1, ..., a_k, n),
    gcd(a_1-1, ..., a_k-1, n)), folded by squaring.  Priced at n**k tuples.
    """
    k, n = tuple_args(k, n)
    check_budget((n, k), budget, f"joint-gcd oracle at k={k}, n={n}")
    pairs = fold_counts(range(1, n + 1), lambda a: (gcd(a, n), gcd(a - 1, n)),
                        lambda u, v: (gcd(u[0], v[0]), gcd(u[1], v[1])), k)
    return sum(c * h**k for (g, h), c in pairs.items() if g == 1)


# -- identity verification and sweeps ---------------------------------------


class Instance(NamedTuple):
    """One verified identity instance: parameters and both exact sides."""

    params: tuple[tuple[str, object], ...]
    lhs: ArithValue
    rhs: ArithValue
    ok: bool
    trivial_zero: bool = False
    detail: str | None = None

    def as_dict(self) -> dict:
        out = {**dict(self.params), "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}
        if self.trivial_zero:
            out["trivial_zero"] = True
        if self.detail:
            out["detail"] = self.detail
        return out


class IdentityReport(NamedTuple):
    """Outcome of an identity sweep; `failures` empty iff every lhs = rhs.

    A sweep that had to skip instances (budget) is `partial`, never silent.
    """

    identity: str
    swept: dict
    checked: int
    trivial_zeros: int
    failures: list[Instance]
    skipped: list[dict]

    @classmethod
    def of(cls, identity: str, swept: dict, cells: Iterable[Union[tuple, dict]]) -> IdentityReport:
        """The report on a sweep's cells, in order.

        A cell is a skip record (a dict) or a triple (checks, trivial zeros, failures).
        """
        checked = trivial_zeros = 0
        failures, skipped = [], []
        for cell in cells:
            if isinstance(cell, dict):
                skipped.append(cell)
            else:
                checked, trivial_zeros = checked + cell[0], trivial_zeros + cell[1]
                failures += cell[2]
        return cls(identity, swept, checked, trivial_zeros, failures, skipped)

    @property
    def partial(self) -> bool:
        return bool(self.skipped)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {**self._asdict(), "failures": [inst.as_dict() for inst in self.failures],
                "partial": self.partial, "ok": self.ok}


def _identity_kind(kind: str) -> str:
    if kind not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity {kind!r}, expected one of {IDENTITY_KINDS}")
    return kind


def verify_identity(
    kind: str,
    k: int,
    n: int,
    f: FSpecInput = "id",
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> Instance:
    """Check one instance of a named identity; returns both exact sides."""
    if _identity_kind(kind) == "sita_ramaiah" and k != 2:
        raise ValueError("the k = 2 specialization requires k = 2")
    params = (("identity", kind), ("k", k), ("n", n))
    if kind == "nageswara_rao":
        lhs = nageswara_rao_lhs_oracle(k, n, budget)
        rhs = jordan_totient(k, n) * tau(n)
        return Instance(params, lhs, rhs, lhs == rhs)
    spec = parse_function_spec(f if kind == "menon_general" else "id")
    lhs = gcd_sum_lhs_oracle(k, n, spec, budget)
    divisor_form = gcd_sum_rhs(k, n, spec)
    phi_kn = phi_k(k, n)
    # menon_gcd, sita_ramaiah: f = id, and the rhs collapses to phi_k(n) tau(n)
    rhs = divisor_form if kind == "menon_general" else phi_kn * tau(n)
    detail = None if divisor_form == rhs else f"divisor-sum rhs = {divisor_form}"
    return Instance(params + (("f", spec.label),), lhs, rhs, lhs == rhs == divisor_form,
                    phi_kn == 0, detail)


def _sweep_cell(args: tuple) -> Union[tuple[int, int, list[Instance]], dict]:
    """One checked instance as a report cell, or the skip record of a cell its oracle refused."""
    kind, k, n, spec, budget = args
    try:
        inst = verify_identity(kind, k, n, spec, budget)
    except BudgetExceededError as exc:
        return {"k": k, "n": n, "reason": str(exc)}
    return 1, inst.trivial_zero, [] if inst.ok else [inst]


def verify_sweep(
    kind: str,
    k_max: int = 3,
    n_max: int = 40,
    f: FSpecInput = "id",
    budget: int = DEFAULT_ORACLE_BUDGET,
    workers: int = 1,
) -> IdentityReport:
    """Sweep an identity over 1 <= k <= k_max, 1 <= n <= n_max.

    The grid is priced first, at a tuple per cell; cells whose oracle refuses the budget
    are skipped and reported, making the report partial.  With workers > 1 the cells, each
    carrying the one parsed f, are evaluated by `core.parallel_map`, on at most one worker per
    SWEEP_POOL_FLOOR cells, and merged back in parameter order; an f that does not pickle is
    refused before any cell runs.
    """
    _identity_kind(kind)
    k_max = positive_int(k_max, "k_max")
    n_max = positive_int(n_max, "n_max")
    spec = parse_function_spec(f)
    ks, k_count = ([2], 1) if kind == "sita_ramaiah" else (range(1, k_max + 1), k_max)
    swept = {"k": ks if kind == "sita_ramaiah" else f"1..{k_max}", "n": f"1..{n_max}"}
    check_budget(k_count * n_max, budget, f"{kind} sweep of {k_count} x {n_max} cells, one each,")
    if kind in ("menon_general", "menon_gcd"):
        swept["f"] = spec.label
    if workers > 1:
        import pickle

        try:
            pickle.dumps(spec)
        except (pickle.PicklingError, AttributeError, TypeError):
            raise ValueError(f"parallel sweeps need an f that pickles (a name, pow:j, a table, "
                             f"or a module-level function), got {spec.label}") from None
    cells = [(kind, k, n, spec, budget) for k in ks for n in range(1, n_max + 1)]
    workers = cap_workers(workers, len(cells) // SWEEP_POOL_FLOOR)
    return IdentityReport.of(kind, swept, parallel_map(_sweep_cell, cells, workers))


def lemma_sweep(n_max: int = 40, budget: int = DEFAULT_ORACLE_BUDGET) -> IdentityReport:
    """Exhaustive residue-class count checks for all n <= n_max.

    Covers every divisor pair (d, e) of n and all residues 0 <= r < d,
    0 <= s < e, including the e = 1 collapse onto the one-congruence count:
    sigma(n) + sigma(n)**2 checks at each n, all priced against the budget.
    Each (n, d, e) is counted once into a class table, walked pair by pair only when it is
    wrong; only failures become Instances.
    """
    n_max = positive_int(n_max, "n_max")
    cost = 0
    for n in range(1, n_max + 1):  # the cost grows like n**3: stop once it is over
        sigma = sum(divisors(n))
        cost += sigma + sigma**2
        if cost > budget:
            break
    check_budget(cost, budget, f"lemma sweep to n_max={n_max}: its checks up to n={n}")

    def check(n, d, e, table, params):  # the table of (d, e) at every residue pair (r, s)
        # the phi(lcm(d, e)) unit pairs that agree mod gcd(d, e) (CRT) are the only ones predicted
        # nonzero: a table with that many entries, each at its nonzero prediction, is right
        if len(table) == euler_phi(lcm(d, e)) and all(
                count == _predicted(n, d, e, r, s) > 0 for (r, s), count in table.items()):
            return
        for r in range(d):
            for s in range(e):
                count, predicted = table.get((r, s), 0), _predicted(n, d, e, r, s)
                if count != predicted:
                    yield Instance(params(r, s), count, predicted, False)

    def cell(n, divs, d):  # the checks of one (n, d), and the failures among them
        tables = {e: _class_table(n, d, e) for e in divs}  # e = 1: the one-congruence table
        failures = list(check(n, d, 1, tables[1], lambda r, s: (
            ("lemma", "one_congruence"), ("n", n), ("d", d), ("r", r))))
        for e in divs:
            failures += check(n, d, e, tables[e], lambda r, s: (
                ("lemma", "two_congruences"), ("n", n), ("d", d), ("e", e), ("r", r), ("s", s)))
        return d + d * sum(divs), 0, failures

    cells = (cell(n, divs, d) for n in range(1, n_max + 1) for divs in [divisors(n)] for d in divs)
    return IdentityReport.of("lemmas", {"n": f"1..{n_max}", "residues": "all"}, cells)


def route_sweep(quantity: str, divisor_args: tuple[str, ...], identity: str, what: str,
                k_max: int, n_max: int, budget: int = DEFAULT_ORACLE_BUDGET) -> IdentityReport:
    """Check each route of a quantity of `core.ROUTES` against its first at every k <= k_max,
    n <= n_max and divisor of n for each of `divisor_args`, priced first at a tuple per (k, n).

    A (k, n) that a route refuses is skipped, with the refusal as its reason.  A route off the
    first is a failure naming the point and the route, its value as lhs, the first's as rhs.
    """
    k_max = positive_int(k_max, "k_max")
    n_max = positive_int(n_max, "n_max")
    check_budget(k_max * n_max, budget, f"{what} sweep of {k_max} x {n_max} cells, one each,")
    order = route_order({route: library(name) for route, name in ROUTES[quantity].items()})
    first = next(iter(ROUTES[quantity]))

    def cell(k, n):  # the checks of one (k, n) and the failures among them, or its skip record
        points = list(product(divisors(n), repeat=len(divisor_args)))
        failures = []
        try:
            for point in points:
                params = {"k": k, "n": n, **dict(zip(divisor_args, point))}
                values = route_values(order, params, budget)
                reference = values[first]
                failures += [Instance((*params.items(), ("route", route)), value, reference, False)
                             for route, value in values.items() if value != reference]
        except BudgetExceededError as exc:
            return {"k": k, "n": n, "reason": str(exc)}
        return len(points), 0, failures

    cells = (cell(k, n) for k in range(1, k_max + 1) for n in range(1, n_max + 1))
    return IdentityReport.of(identity, {"k": f"1..{k_max}", "n": f"1..{n_max}"}, cells)


def n_k_sweep(
    k_max: int = 3, n_max: int = 30, budget: int = DEFAULT_ORACLE_BUDGET
) -> IdentityReport:
    """N_k's closed form, recursion and oracle at every divisor pair (d, delta): `route_sweep`."""
    return route_sweep("n-k", ("d", "delta"), "n_k_machinery", "N_k", k_max, n_max, budget)
