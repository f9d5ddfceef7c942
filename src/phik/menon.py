"""Gcd-sum identities over coprime tuples and the unit-counting machinery.

The central identity: summing f(gcd(a_1 + ... + a_k - 1, n)) over the phi_k(n) admissible tuples
equals phi_k(n) * sum_{d | n} (mu*f)(d)/phi(d) for any arithmetic function f, parsed once into a
`FunctionSpec` that caches f and mu*f, so a command reads each once per argument.  With f = id
the divisor sum collapses to tau(n).  Supporting pieces: counts of units in one or two residue
classes, read off one table of the units by (a mod d, a mod e) per (n, d, e), and N_k(n, d,
delta), the number of unit k-tuples whose sum is 1 mod d and 0 mod delta, whose three routes live
in `totients` and which `menon_expansion_rhs` sums.  Every closed form has an oracle next to it,
counting from the definition with the kernels of `totients`: `unit_sum_counts` for sums of units,
`fold_counts` for the joint-gcd pairs.  Arguments pass `core.tuple_args`, tables of f
`core.table_lookup`.  `verify_sweep` runs every (k, n) grid in one process, each kind
(SWEEP_KINDS) the routes of a quantity of `core.ROUTES`, an identity's sides among them, checked
route against route by one cell, `_sweep_cell`; it reports through `IdentityReport.of`.  Each
oracle is priced by its kernel, a sweep first at the sum of its cells' prices (`_cell_price`): a
cell is skipped only by a refusal no price foresees (a value of f).
"""
from __future__ import annotations

from collections import Counter
from functools import cache, partial
from itertools import chain, product
from math import gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .core import (
    DEFAULT_ORACLE_BUDGET,
    POINT_PRICE,
    ROUTES,
    ArithValue,
    BudgetExceededError,
    MultiplicativeFunction,
    check_word_budget,
    divisors,
    euler_phi,
    exact_div,
    factorize,
    jordan_totient,
    library,
    mobius,
    mobius_transform,
    positive_int,
    power,
    route_order,
    table_lookup,
    tau,
    tuple_args,
    words_of,
)
# units_mod and the N_k routes stay names here: perfbench reports the cache of "menon.units_mod"
# and traces "menon.n_k", "menon.n_k_recursion" and "menon.n_k_oracle"
from .totients import (fold_counts, fold_price, levels_price, n_k, n_k_oracle, n_k_recursion,
                       phi_k, unit_sum_counts, unit_sum_price, units_mod)

# The kinds of `verify_sweep`, each a quantity of `core.ROUTES`; its arguments past k and n, each
# a divisor of n but f, the swept f; the name of its grid in a refusal; and whether it sums over
# the phi_k(n) admissible tuples, so that a cell where phi_k(n) = 0 is a trivial zero.
SWEEP_KINDS = {
    "menon_general": ("gcd-sum", ("f",), "menon_general", True),
    "menon_gcd": ("gcd-sum-id", (), "menon_gcd", True),
    "sita_ramaiah": ("gcd-sum-id", (), "sita_ramaiah", True),
    "nageswara_rao": ("joint-gcd-sum", (), "nageswara_rao", False),
    "phi_k_nm": ("phi-k-nm", ("m",), "phi_k(n, m)", False),
    "n_k_machinery": ("n-k", ("d", "delta"), "N_k", False),
}

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
    """An arithmetic function f and mu*f, as `_spec` caches them: mu_fn is a table's mu_f as given,
    else the transform of fn.  The closed-form side of the gcd-sum identity reads mu_fn, so a table
    whose mu_f disagrees with f yields genuine identity failures."""

    label: str
    fn: Callable[[int], ArithValue]
    mu_fn: Callable[[int], ArithValue]

    def __str__(self) -> str:
        return self.label


def _spec(label: str, fn: Callable, mu_fn: Callable | None = None) -> FunctionSpec:
    """fn cached, read once per argument while the spec lives (a command), and mu_fn as given or
    the cached transform of fn; a refusal is not cached: a missing entry raises at every read."""
    fn = cache(fn)
    return FunctionSpec(label, fn, cache(partial(mobius_transform, fn)) if mu_fn is None else mu_fn)


def _parse_table(data: Mapping, label: str) -> FunctionSpec:
    raw_f, raw_mu = (data["f"], data.get("mu_f")) if "f" in data else (data, None)
    mu_fn = None if raw_mu is None else table_lookup(raw_mu, f"{label} mu_f")
    return _spec(label, table_lookup(raw_f, f"{label} f"), mu_fn)


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

    Also accepts a divisor-indexed mapping (optionally {"f": ..., "mu_f": ...}), a registered
    multiplicative function, a plain callable, or an already parsed FunctionSpec.  id, one and
    pow:j are x**1, x**0 and x**j, built by `core.power`, which refuses a value of f over its bits
    as it refuses a closed form's power.  A named f is built once per process (`_named_spec`).
    """
    if isinstance(spec, FunctionSpec):
        return spec
    if isinstance(spec, MultiplicativeFunction):
        return _spec(spec.name, spec)
    if isinstance(spec, Mapping):
        return _parse_table(spec, "table")
    if callable(spec):
        return _spec(getattr(spec, "__name__", "callable"), spec)
    if not isinstance(spec, str):
        raise ValueError(f"cannot interpret {spec!r} as a function spec")
    text = spec.strip()
    if text.startswith("table:"):
        return _load_table_file(text.split(":", 1)[1])
    return _named_spec(text)


@cache
def _named_spec(text: str) -> FunctionSpec:
    """The spec of a named f, one per name: its values and transforms are pure, so shared."""
    if text in ("id", "one"):  # x**1 and x**0
        return _spec(text, partial(power, e=1 if text == "id" else 0))
    if text == "tau":
        return _spec("tau", tau)
    if text == "mu":
        return _spec("mu", mobius)
    if text.startswith("pow:"):
        try:
            j = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad power spec {text!r}, expected pow:<integer>") from None
        if j < 0:
            raise ValueError(f"pow:{j} rejected, exponent must be >= 0")
        return _spec(text, partial(power, e=j))
    raise ValueError(f"unknown function spec {text!r}; expected id, one, tau, mu, pow:j, or "
                     "table:<path>")


# -- the gcd-sum identity ---------------------------------------------------


def gcd_sum_lhs_oracle(k: int, n: int, f: FSpecInput = "id") -> ArithValue:
    """Sum f(gcd(a_1+...+a_k-1, n)) over admissible tuples, counted by their sum.

    Admissible: every entry in [1, n], product and sum both coprime to n.
    The gcd is taken with the sum reduced mod n, so gcd(0, n) = n.  f is
    called only at gcds some tuple reaches.  Priced by its kernel (`unit_sum_price`).
    """
    k, n = tuple_args(k, n)
    check_word_budget(unit_sum_price(k, n, n), f"gcd-sum oracle at k={k}, n={n}")
    spec = parse_function_spec(f)
    gcds: Counter[int] = Counter()
    for r, c in unit_sum_counts(k, n, n):
        if gcd(r, n) == 1:
            gcds[gcd((r - 1) % n, n)] += c
    return sum(spec.fn(g) * c for g, c in sorted(gcds.items()))


def menon_gcd_rhs(k: int, n: int) -> int:
    """phi_k(n) tau(n): the gcd sum at f = id, where the divisor sum of `gcd_sum_rhs` collapses."""
    return phi_k(k, n) * tau(n)


def _divisor_sum_price(k: int, n: int, with_n_k=False) -> int:
    """prod (e+1)(e+2)/2 = sum_{d | n} tau(d) transform terms (with_n_k: plus the 2**omega(n) N_k
    pairs of each divisor, each a closed-form N_k of omega(n) + 1 products) of k bits(n) bits."""
    factors = factorize(n).factors
    terms = prod((e + 1) * (e + 2) // 2 for _, e in factors)
    pairs = (len(factors) + 1) * prod(e + 1 for _, e in factors) << len(factors) if with_n_k else 0
    return (terms + pairs) * words_of(k * n.bit_length())


def gcd_sum_rhs(k: int, n: int, f: FSpecInput = "id") -> ArithValue:
    """Closed form phi_k(n) * sum_{d | n} (mu*f)(d) / phi(d), exactly, in integers.

    phi(d) | phi(n) | phi_k(n), so each phi_k(n) / phi(d) is an exact integer:
    the value is an int for every integer-valued f and mu_f table, consistent
    or not, and a Fraction only where f itself takes Fraction values.  Priced before any
    divisor is listed (`_divisor_sum_price`).
    """
    k, n = tuple_args(k, n)
    spec = parse_function_spec(f)
    check_word_budget(_divisor_sum_price(k, n), f"gcd-sum divisor sum at k={k}, n={n}")
    phi_kn = phi_k(k, n)
    val = sum(spec.mu_fn(d) * exact_div(phi_kn, euler_phi(d)) for d in divisors(n))
    return int(val) if getattr(val, "denominator", None) == 1 else val


def menon_expansion_rhs(k: int, n: int, f: FSpecInput = "id") -> ArithValue:
    """The same gcd sum assembled from N_k values.

    sum_{d | n} (mu*f)(d) * sum_{delta | n} mu(delta) * N_k(n, d, delta);
    a third route to the identity, independent of the admissible-tuple loop.  Priced before any
    divisor is listed, with its N_k pairs (`_divisor_sum_price`).
    """
    k, n = tuple_args(k, n)
    spec = parse_function_spec(f)
    check_word_budget(_divisor_sum_price(k, n, with_n_k=True),
                      f"N_k expansion of the gcd sum at k={k}, n={n}")
    divs = divisors(n)
    return sum(sum(mobius(delta) * n_k(k, n, d, delta) for delta in divs if mobius(delta))
               * spec.mu_fn(d) for d in divs)


def nageswara_rao_lhs_oracle(k: int, n: int) -> int:
    """Sum gcd(a_1-1, ..., a_k-1, n)**k over tuples with gcd(a_1,...,a_k,n)=1.

    The tuples of [1, n] are counted by the pair (gcd(a_1, ..., a_k, n),
    gcd(a_1-1, ..., a_k-1, n)), folded by squaring.  Priced by its fold (`fold_price`).
    """
    k, n = tuple_args(k, n)
    check_word_budget(fold_price(k, n), f"joint-gcd oracle at k={k}, n={n}")
    pairs = fold_counts(range(1, n + 1), lambda a: (gcd(a, n), gcd(a - 1, n)),
                        lambda u, v: (gcd(u[0], v[0]), gcd(u[1], v[1])), k)
    return sum(c * h**k for (g, h), c in pairs.items() if g == 1)


def nageswara_rao_rhs(k: int, n: int) -> int:
    """J_k(n) tau(n): Nageswara Rao's closed form of the joint-gcd sum."""
    return jordan_totient(k, n) * tau(n)


# -- identity verification and sweeps ---------------------------------------


class Instance(NamedTuple):
    """One verified identity instance: parameters and both exact sides."""

    params: tuple[tuple[str, object], ...]
    lhs: ArithValue
    rhs: ArithValue
    ok: bool

    def as_dict(self) -> dict:
        return {**dict(self.params), "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}


class IdentityReport(NamedTuple):
    """Outcome of an identity sweep; `failures` empty iff every lhs = rhs.

    A sweep that had to skip instances (a refusal no price foresaw) is `partial`, never silent.
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


def _sweep_cell(kind: str, k: int, n: int,
                spec: FunctionSpec | None) -> Union[tuple[int, int, list[Instance]], dict]:
    """One (k, n) of a sweep as a report cell, or the skip record of a cell a refusal stopped.

    Each route of the kind's quantity runs at every point, k, n and the kind's arguments, and is
    checked against the first.  The cell is the points it checks, whether it is a trivial zero
    (k and n even in a sum over the phi_k(n) admissible tuples), and as failures the routes off
    the first, each naming the point and the route, its value as lhs, the first's as rhs.
    """
    quantity, args, _, admissible_sum = SWEEP_KINDS[kind]
    order = route_order({route: library(name) for route, name in ROUTES[quantity].items()})
    first = next(iter(ROUTES[quantity]))
    failures = []
    try:
        points = list(product(*([spec] if arg == "f" else divisors(n) for arg in args)))
        for point in points:
            params = {"k": k, "n": n, **dict(zip(args, point))}
            values = {route: fn(**params) for route, fn in order}
            failures += [Instance((*params.items(), ("route", route)), value, values[first], False)
                         for route, value in values.items() if value != values[first]]
    except BudgetExceededError as exc:
        return {"k": k, "n": n, "reason": str(exc)}
    return len(points), admissible_sum and k % 2 == n % 2 == 0, failures


def _cell_price(kind: str, k: int, n: int) -> int:
    """The word operations of a sweep's (k, n) cell: POINT_PRICE at each point it checks, plus the
    price of each priced call there (an oracle's kernel, a recursion's levels, a divisor sum)."""
    if kind == "nageswara_rao":
        return POINT_PRICE + fold_price(k, n)
    if kind == "phi_k_nm":
        return sum(POINT_PRICE + unit_sum_price(k, n, m) + levels_price(k, n, factorize(m).omega())
                   for m in divisors(n))
    if kind == "n_k_machinery":  # every pair's oracle reads the one kernel of modulus n; the
        omegas = {d: factorize(d).omega() for d in divisors(n)}  # recursion prices a coprime pair
        return unit_sum_price(k, n, n) + sum(
            POINT_PRICE + (levels_price(k, n, omegas[d] + omegas[e]) if gcd(d, e) == 1 else 0)
            for d in omegas for e in omegas)
    return POINT_PRICE + unit_sum_price(k, n, n) + _divisor_sum_price(k, n)


def _grid_prices(kind: str, ks: Iterable[int], n_max: int) -> Iterator[tuple[int, str]]:
    """Each cell's price (`_cell_price`) and its name, in the order the cells run."""
    return ((_cell_price(kind, k, n), f"k={k}, n={n}") for k in ks for n in range(1, n_max + 1))


def _check_prices(prices: Iterable[tuple[int, str]], what: str) -> None:
    """Refuse `what` once the prices of its parts, summed in order, are over the budget, naming
    the part the sum reached: no part past it is priced, so a huge grid is refused at once."""
    total = 0
    for price, part in prices:
        total += price
        if total > DEFAULT_ORACLE_BUDGET:
            check_word_budget(total, f"{what}, to {part},")


def verify_sweep(kind: str, k_max: int = 3, n_max: int = 40,
                 f: FSpecInput | None = None) -> IdentityReport:
    """Sweep a kind of SWEEP_KINDS over 1 <= k <= k_max, 1 <= n <= n_max, in one process.

    The grid is priced first, at the sum of its cells' prices (`_grid_prices`), so no cell's own
    price is over the budget; a cell refused anyway (a value of f too long to build) is skipped
    and reported, making the report partial.  Only the kind that sweeps f takes one (None: id),
    parsed once for all its cells; any other refuses an f before reading it.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"unknown identity {kind!r}, expected one of {tuple(SWEEP_KINDS)}")
    _, args, name, _ = SWEEP_KINDS[kind]
    if f is not None and "f" not in args:
        raise ValueError(f"the {kind} sweep takes no f")
    k_max, n_max = positive_int(k_max, "k_max"), positive_int(n_max, "n_max")
    spec = parse_function_spec("id" if f is None else f) if "f" in args else None
    ks, k_count = ([2], 1) if kind == "sita_ramaiah" else (range(1, k_max + 1), k_max)
    swept = {"k": ks if kind == "sita_ramaiah" else f"1..{k_max}", "n": f"1..{n_max}"}
    _check_prices(_grid_prices(kind, ks, n_max), f"{name} sweep of {k_count} x {n_max} cells")
    if spec is not None:
        swept["f"] = spec.label
    cells = (_sweep_cell(kind, k, n, spec) for k in ks for n in range(1, n_max + 1))
    return IdentityReport.of(kind, swept, cells)


def _lemma_prices(n_max: int) -> Iterator[tuple[int, str]]:
    """The price of the lemma checks at each n <= n_max, one word operation for each of its
    sigma(n) + sigma(n)**2 checks, and its name."""
    return ((s + s * s, f"n={n}") for n in range(1, n_max + 1) for s in [sum(divisors(n))])


def lemma_sweep(n_max: int = 40) -> IdentityReport:
    """Exhaustive residue-class count checks for all n <= n_max.

    Covers every divisor pair (d, e) of n and all residues 0 <= r < d,
    0 <= s < e, including the e = 1 collapse onto the one-congruence count:
    sigma(n) + sigma(n)**2 checks at each n, all priced first (`_lemma_prices`).
    Each (n, d, e) is counted once into a class table, walked pair by pair only when it is
    wrong; only failures become Instances.
    """
    n_max = positive_int(n_max, "n_max")
    _check_prices(_lemma_prices(n_max), f"lemma sweep to n_max={n_max}")

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


def n_k_sweep(k_max: int = 3, n_max: int = 30) -> IdentityReport:
    """N_k's closed form, recursion and oracle at every divisor pair (d, delta)."""
    return verify_sweep("n_k_machinery", k_max, n_max)


def lemma_sweeps(n_max: int = 40, k_max: int = 3) -> list[IdentityReport]:
    """[`lemma_sweep`, `n_k_sweep`] to n_max, priced as one before either runs: the lemma checks,
    then the N_k grid, which runs first."""
    n_max, k_max = positive_int(n_max, "n_max"), positive_int(k_max, "k_max")
    grid = _grid_prices("n_k_machinery", range(1, k_max + 1), n_max)
    _check_prices(chain(_lemma_prices(n_max), grid), f"lemma and N_k sweeps to n_max={n_max}, "
                  f"k_max={k_max}")
    n_k = n_k_sweep(k_max, n_max)
    return [lemma_sweep(n_max), n_k]
