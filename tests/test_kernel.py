"""The counting kernel behind every oracle, against literal enumeration.

`literal_sums` is the one place that still walks all n**k tuples: each
kernel-backed oracle, and both residue-class counts, must equal the sum of
its defining weight over that walk.
"""
import subprocess
import sys
import time
import warnings
from collections import Counter
from functools import reduce
from itertools import product
from math import gcd, prod

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
    # the Kronecker power against k - 1 pairing steps, below, at and far above n
    for k in range(1, 7):
        for n in range(1, 61):
            divs = [m for m in range(1, n + 1) if n % m == 0]
            for m in divs + [7, n + 1, k * n + 1, 10**12]:
                folded = fold_counts(totients.units_mod(n), lambda a: a % m,
                                     lambda u, v: (u + v) % m, k)
                assert unit_sum_counts.__wrapped__(k, n, m) == tuple(sorted(folded.items())), (k, n, m)


def test_oracle_with_a_huge_m_answers_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "phik.cli", "oracle", "phi-k", "--k", "2", "--n", "10", "--m",
         "1000000000"],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 0 and proc.stdout == "0\n"  # two odd units never sum to an odd


def test_oracle_at_a_large_k_folds_each_product():
    # 200**151 tuples are admitted by the budget; the unfolded power took about 20 s
    def phik(*argv):
        return subprocess.run([sys.executable, "-m", "phik.cli", *argv], capture_output=True,
                              text=True, timeout=60)

    start = time.perf_counter()
    oracle = phik("oracle", "phi-k", "--k", "151", "--n", "200", "--budget", str(10**348))
    assert time.perf_counter() - start < 10
    closed = phik("eval", "phi-k", "--k", "151", "--n", "200")
    assert oracle.returncode == closed.returncode == 0 and oracle.stderr == ""
    assert oracle.stdout == closed.stdout


def old_lemma_witnesses(n_max, units):
    """The failures of the per-check lemma sweep, in its order, for the units `units(n)`."""
    failures = []
    for n in range(1, n_max + 1):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        phi_n = euler_phi(n)
        for d in divs:
            for r in range(d):
                count = sum(1 for a in units(n) if a % d == r)
                predicted = phi_n // euler_phi(d) if gcd(r, d) == 1 else 0
                if count != predicted:
                    failures.append(((("lemma", "one_congruence"), ("n", n), ("d", d), ("r", r)),
                                     count, predicted))
            for e in divs:
                g = gcd(d, e)
                for r in range(d):
                    for s in range(e):
                        count = sum(1 for a in units(n) if a % d == r and a % e == s)
                        coprime = gcd(r, d) == 1 and gcd(s, e) == 1 and (r - s) % g == 0
                        predicted = phi_n * g // euler_phi(d * e) if coprime else 0
                        if count != predicted:
                            failures.append(((("lemma", "two_congruences"), ("n", n), ("d", d),
                                              ("e", e), ("r", r), ("s", s)), count, predicted))
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
    expected = old_lemma_witnesses(14, lambda n: [a for a in totients.units_mod(n)
                                                  if (n, a) != (12, 5)])
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


def test_lemma_sweep_checks_count_unchanged():
    report = menon.lemma_sweep(28)
    assert report.checked == 22900 and report.ok
