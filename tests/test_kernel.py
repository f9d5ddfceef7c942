"""The counting kernel behind every oracle, against literal enumeration.

`literal_sums` is the one place that still walks all n**k tuples: each
kernel-backed oracle, and both residue-class counts, must equal the sum of
its defining weight over that walk.
"""
import warnings
from collections import Counter
from functools import reduce
from itertools import product
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from phik import menon, totients
from phik.menon import (
    count_units_in_class,
    count_units_in_two_classes,
    gcd_sum_lhs_oracle,
    n_k_oracle,
    nageswara_rao_lhs_oracle,
)
from phik.totients import fold_counts, phi_k_nm_oracle, phi_k_oracle, unit_sum_counts


def literal_sums(k, n, weights):
    """{name: sum of weight(tuple)} over all k-tuples of [1, n], in one walk."""
    totals = dict.fromkeys(weights, 0)
    for tup in product(range(1, n + 1), repeat=k):
        for name, weight in weights.items():
            totals[name] += weight(tup)
    return totals


def _unit(tup, n):
    return gcd(prod(tup), n) == 1


@st.composite
def cases(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 20).filter(lambda n: n**k <= 10**5))
    divs = [d for d in range(1, n + 1) if n % d == 0]
    d, delta, e = (draw(st.sampled_from(divs)) for _ in range(3))
    m = draw(st.integers(1, n + 2))
    f = {g: draw(st.integers(-99, 99)) for g in divs}
    r, s = draw(st.integers(0, d - 1)), draw(st.integers(0, e - 1))
    return k, n, m, d, delta, e, f, r, s


@settings(max_examples=60, deadline=None)
@given(cases())
def test_kernel_matches_literal_enumeration(case):
    k, n, m, d, delta, e, f, r, s = case

    def admissible(t):
        return _unit(t, n) and gcd(sum(t), n) == 1

    expected = literal_sums(k, n, {
        "phi_k": admissible,
        "phi_k_nm": lambda t: _unit(t, n) and gcd(sum(t), m) == 1,
        "n_k": lambda t: _unit(t, n) and sum(t) % d == 1 % d and sum(t) % delta == 0,
        "gcd_sum": lambda t: f[gcd((sum(t) - 1) % n, n)] if admissible(t) else 0,
        "nageswara": lambda t: (
            reduce(gcd, (a - 1 for a in t), n) ** k if reduce(gcd, t, n) == 1 else 0
        ),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m not dividing n is the experimental regime
        nm = phi_k_nm_oracle(k, n, m)
    assert phi_k_oracle(k, n) == expected["phi_k"]
    assert nm == expected["phi_k_nm"]
    assert n_k_oracle(k, n, d, delta) == expected["n_k"]
    assert gcd_sum_lhs_oracle(k, n, f) == expected["gcd_sum"]
    assert nageswara_rao_lhs_oracle(k, n) == expected["nageswara"]

    lemmas = literal_sums(1, n, {
        "one": lambda t: _unit(t, n) and t[0] % d == r % d,
        "two": lambda t: _unit(t, n) and t[0] % d == r % d and t[0] % e == s % e,
    })
    assert count_units_in_class(n, d, r)[0] == lemmas["one"]
    assert count_units_in_two_classes(n, d, e, r, s)[0] == lemmas["two"]


def test_fold_counts_counts_every_tuple():
    # pairs and triples of {1, 2, 3} by their maximum: 3**k tuples in all
    counts = fold_counts([1, 2, 3], lambda a: a, max, 3)
    assert counts == Counter({1: 1, 2: 7, 3: 19})
    assert fold_counts("ab", str.upper, lambda u, v: u + v, 1) == Counter({"A": 1, "B": 1})


def test_unit_sum_counts_shape():
    # units mod 5 are 1..4; their pairs hit every residue, 0 most often
    assert unit_sum_counts(2, 5, 5) == ((0, 4), (1, 3), (2, 3), (3, 3), (4, 3))
    assert sum(c for _, c in unit_sum_counts(3, 12, 7)) == 4**3


def test_units_mod_is_one_cached_object():
    assert menon.units_mod is totients.units_mod
    assert hasattr(menon.units_mod, "cache_info")


def test_gcd_sum_calls_f_only_at_reached_gcds():
    # phi_2 vanishes at even n: no tuple is admissible, so f is never read
    assert gcd_sum_lhs_oracle(2, 12, {}) == 0
    # at k = 1 the unit sum a - 1 reaches gcd(a - 1, 9) in {1, 3, 9} only
    calls = []

    def f(g):
        calls.append(g)
        return g

    assert gcd_sum_lhs_oracle(1, 9, f) == 9 + 3 + 1 + 1 + 3 + 1
    assert calls == [1, 3, 9]
    assert gcd_sum_lhs_oracle(1, 9, {1: 1, 3: 3, 9: 9}) == 18
