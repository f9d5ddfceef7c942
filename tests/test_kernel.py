"""The counting kernel behind every oracle, against literal enumeration.

`literal_sums` is the one place that still walks all n**k tuples: each
kernel-backed oracle, and both residue-class counts, must equal the sum of
its defining weight over that walk.
"""
import subprocess
import sys
import time
from collections import Counter
from functools import reduce
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phik import menon, totients
from phik.cli import main
from phik.core import euler_phi
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
    m = draw(st.sampled_from(divs))
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
    assert phi_k_oracle(k, n) == expected["phi_k"]
    assert phi_k_nm_oracle(k, n, m) == expected["phi_k_nm"]
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


def test_fold_counts_at_a_huge_k_answers_at_once():
    # bits(k) - 1 squarings and popcount(k) - 1 products, at any size of k
    start = time.perf_counter()
    assert fold_counts([1], lambda a: a, gcd, 10**20) == Counter({1: 1})
    assert time.perf_counter() - start < 1


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


def test_a_kernel_digit_holds_every_tuple():
    # modulus 1: all phi(n)**k tuples in one digit, at the width k * bits(phi(n) - 1) / 8 + 1 bytes
    for n in range(1, 13):
        for k in range(1, 20):
            assert unit_sum_counts.__wrapped__(k, n, 1) == ((0, euler_phi(n) ** k),), (k, n)
    # phi(n) = 1: one byte per digit at any k
    assert unit_sum_counts.__wrapped__(10**20, 1, 1) == ((0, 1),)
    assert unit_sum_counts.__wrapped__(10**20, 2, 2) == ((0, 1),)
    assert unit_sum_counts.__wrapped__(10**20 + 1, 2, 2) == ((1, 1),)


def test_unit_sum_counts_equals_the_generic_fold():
    # the Kronecker power against the generic fold's pairings, below, at and far above n
    for k in range(1, 7):
        for n in range(1, 61):
            divs = [m for m in range(1, n + 1) if n % m == 0]
            for m in divs + [7, n + 1, k * n + 1, 10**12]:
                folded = fold_counts(totients.units_mod(n), lambda a: a % m,
                                     lambda u, v: (u + v) % m, k)
                assert unit_sum_counts.__wrapped__(k, n, m) == tuple(sorted(folded.items())), (k, n, m)


def test_oracle_with_a_huge_m_is_refused_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "phik.cli", "eval", "phi-k-nm", "--k", "2", "--n", "10", "--m",
         "1000000000", "--method", "oracle"],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 2 and proc.stdout == ""  # m must divide n, as in the closed form
    assert proc.stderr == "error: m=1000000000 must be a positive divisor of n=10\n"


def test_oracle_at_a_large_k_folds_each_product():
    # the default budget admits it (the kernel's price is 4.3 * 10**6 word operations); the
    # unfolded power took about 20 s
    def phik(*argv):
        return subprocess.run([sys.executable, "-m", "phik.cli", *argv], capture_output=True,
                              text=True, timeout=60)

    start = time.perf_counter()
    oracle = phik("eval", "phi-k", "--k", "151", "--n", "200", "--method", "oracle")
    assert time.perf_counter() - start < 10
    closed = phik("eval", "phi-k", "--k", "151", "--n", "200")
    assert oracle.returncode == closed.returncode == 0 and oracle.stderr == ""
    assert oracle.stdout == closed.stdout


@pytest.mark.parametrize("k", range(1, 65))
def test_power_makes_the_products_it_is_priced_at(k):
    # (bits(k) - 1) squarings and (popcount(k) - 1) products by the base
    calls = []
    assert totients._power(3, k, lambda u, v: calls.append(1) or u * v) == 3**k
    assert len(calls) == totients._products(k) == (k.bit_length() - 1) + (bin(k).count("1") - 1)


@pytest.mark.parametrize("k, n, modulus", [(1, 1, 1), (16, 3, 3), (2, 1000, 1000), (3, 60, 12),
                                           (5, 97, 97), (151, 200, 200), (1000, 30, 5),
                                           (7, 360, 40)])
def test_the_kernel_price_counts_the_words_of_its_packed_operand(monkeypatch, k, n, modulus):
    # the operand packs the unit counts of min(modulus, n + 1) classes in digits wider than
    # phi(n)**k: the price is n residues and one product of its words per `_power` call
    bases = []
    real_power = totients._power
    monkeypatch.setattr(totients, "_power", lambda base, k, times: bases.append(base)
                        or real_power(base, k, times))
    totients.unit_sum_counts.cache_clear()
    totients.unit_sum_counts(k, n, modulus)
    width = k * (euler_phi(n) - 1).bit_length() // 8 + 1
    classes = Counter(a % modulus for a in range(1, n + 1) if gcd(a, n) == 1)
    packed = b"".join(classes[r].to_bytes(width, "little") for r in range(min(modulus, n + 1)))
    assert bases == [int.from_bytes(packed, "little")]
    words = -(-len(packed) // 8)
    assert totients.unit_sum_price(k, n, modulus) == (
        50 * n + totients._products(k) * totients.product_price(words))


def test_the_fold_price_counts_its_key_pairs():
    # 60 = 2**2 * 3 * 5 has 5 * 3 * 3 = 45 coprime divisor pairs, which bound the keys
    # (gcd(a, 60), gcd(a - 1, 60)) (36: one of a, a - 1 is even); at k = 3 two pairings, each
    # priced at 45 x 45 keys, on counts of 3 * 5 + 1 bits
    keys = Counter((gcd(a, 60), gcd(a - 1, 60)) for a in range(1, 61))
    assert len(keys) == 36
    assert totients.fold_price(3, 60) == 50 * 60 + 2 * 45 * 45 * (40 + 1)
    # a count of k (bits(n) - 1) + 1 bits: one word at n = 1 whatever k is, 313 words at n = 2
    assert totients.fold_price(20000, 1) == 50 + 18 * (40 + 1)
    assert totients.fold_price(20000, 2) == 100 + 18 * 9 * (40 + totients.product_price(312))
    # k + 1 bits at n = 2: 127 fit one word, 128 take two (two squared: 4 word operations)
    assert totients.fold_price(126, 2) == 100 + totients._products(126) * 9 * (40 + 1)
    assert totients.fold_price(127, 2) == 100 + totients._products(127) * 9 * (40 + 4)


def old_lemma_witnesses(n_max, count):
    """The failures of the per-check lemma sweep, in its order, for the class counts
    `count(n, d, e, r, s)` of units a = r (mod d), a = s (mod e); e = 1 gives the one-congruence
    count."""
    failures = []
    for n in range(1, n_max + 1):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        phi_n = euler_phi(n)
        for d in divs:
            for lemma, e in [("one_congruence", 1), *(("two_congruences", e) for e in divs)]:
                g = gcd(d, e)
                for r in range(d):
                    for s in range(e):
                        coprime = gcd(r, d) == 1 and gcd(s, e) == 1 and (r - s) % g == 0
                        predicted = phi_n * g // euler_phi(d * e) if coprime else 0
                        if (found := count(n, d, e, r, s)) != predicted:
                            where = ((("e", e), ("r", r), ("s", s)) if lemma == "two_congruences"
                                     else (("r", r),))
                            failures.append(((("lemma", lemma), ("n", n), ("d", d), *where),
                                             found, predicted))
    return failures


def test_lemma_sweep_reports_the_per_check_witnesses(monkeypatch, capsys):
    # drop the unit 5 of n = 12 from the kernel: the class counts of 12 break, the predictions hold
    real = totients.unit_sum_counts

    def dropped(k, n, modulus):
        counts = dict(real(k, n, modulus))
        if (k, n) == (1, 12):
            counts[5 % modulus] -= 1
        return tuple((r, c) for r, c in sorted(counts.items()) if c)

    monkeypatch.setattr(menon, "unit_sum_counts", dropped)
    expected = old_lemma_witnesses(14, lambda n, d, e, r, s: sum(
        1 for a in totients.units_mod(n) if (n, a) != (12, 5) and a % d == r and a % e == s))
    assert expected  # n = 12 alone has failures
    report = menon.lemma_sweep(14)
    assert [(inst.params, inst.lhs, inst.rhs) for inst in report.failures] == expected
    assert not any(inst.ok for inst in report.failures) and report.checked == 2902

    assert main(["verify", "lemmas", "--n-max", "14"]) == 1
    lines = capsys.readouterr().out.splitlines()
    witnesses = [" ".join(f"{key}={val}" for key, val in params) + f" lhs={lhs} rhs={rhs}"
                 for params, lhs, rhs in expected]
    assert [line for line in lines if line.startswith("FAIL lemma=")] == [
        f"FAIL {text}" for text in witnesses]
    assert lines[-1] == "FAIL"


# edits of one class table: (r, s) keys an entry, None drops the least admissible pair's entry
@pytest.mark.parametrize("edit", [
    {(0, 0): 1},  # an entry added off the unit pairs
    {None: None},  # an entry dropped
    {None: None, (0, 0): 0},  # one dropped, one zero count added: as many entries as before
    {None: None, (0, 0): 2},  # one moved off the unit pairs with a nonzero count
    {(1, 1): 5},  # a wrong count on a unit pair
])
def test_a_wrong_class_table_fails_where_the_per_pair_check_does(monkeypatch, edit):
    real = menon._class_table

    def edited(n, d, e):
        table = real(n, d, e)
        if (n, d, e) in ((12, 4, 6), (10, 5, 2)):
            for key, count in edit.items():
                if key is None:
                    del table[min(table)]
                else:
                    table[key] = count
        return table

    monkeypatch.setattr(menon, "_class_table", edited)
    expected = old_lemma_witnesses(14, lambda n, d, e, r, s: edited(n, d, e).get((r, s), 0))
    report = menon.lemma_sweep(14)
    assert [(inst.params, inst.lhs, inst.rhs) for inst in report.failures] == expected
    assert expected and report.checked == 2902


def test_lemma_sweep_checks_count_unchanged():
    report = menon.lemma_sweep(28)
    assert report.checked == 22900 and report.ok
