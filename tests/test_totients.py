"""phi_k, the two-parameter phi_k(n, m), and the convolution factor g_k."""
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import pytest

from phik import (
    BudgetExceededError,
    dirichlet_convolve,
    divisors,
    euler_phi,
    eval_mf,
    factorize,
    g_k,
    g_k_mf,
    id_k_mf,
    mobius,
    n_k,
    n_k_recursion,
    phi_k,
    phi_k_mf,
    phi_k_nm,
    phi_k_nm_oracle,
    phi_k_nm_recursion,
    phi_k_oracle,
)


def test_phi_k_frozen_values():
    assert phi_k(1, 12) == 4
    assert phi_k(2, 15) == 24
    assert phi_k(2, 4) == 0
    assert phi_k(3, 2) == 1
    assert phi_k(2, 3) == 2
    assert phi_k(1, 1) == 1


def test_phi_k_oracle_frozen_values():
    assert phi_k_oracle(2, 3) == 2  # exactly the tuples (1,1) and (2,2)
    assert phi_k_oracle(1, 5) == 4
    assert phi_k_oracle(2, 15) == 24


def test_phi_k_matches_oracle_small():
    for k in (1, 2, 3):
        for n in range(1, 26):
            assert phi_k(k, n) == phi_k_oracle(k, n), (k, n)


def test_phi_k_domain_errors():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            phi_k(bad, 5)
        with pytest.raises(ValueError):
            phi_k(2, bad)


def test_phi_k_oracle_refuses_the_kernel_price_past_the_budget(monkeypatch):
    # at k = 2 the kernel costs 50 n plus one product of ceil(5 n / 8) words: first over at 164223
    from phik import totients

    monkeypatch.setattr(totients, "unit_sum_counts", lambda k, n, m: ())  # an admitted call runs
    assert totients.unit_sum_price(2, 164222, 164222) <= 10**8 < totients.unit_sum_price(
        2, 164223, 164223)
    assert phi_k_oracle(2, 164222) == 0
    with pytest.raises(BudgetExceededError, match=r"^phi_2\(164223, m=164223\) oracle would take "
                       r"100000715 word operations, over the budget of 100000000$"):
        phi_k_oracle(2, 164223)


def test_phi_k_vanishing_characterization():
    for k in range(1, 7):
        for n in range(1, 501):
            expected_zero = k % 2 == 0 and n % 2 == 0
            assert (phi_k(k, n) == 0) == expected_zero, (k, n)


def test_phi_k_multiplicative_in_n():
    for k in range(1, 5):
        f = phi_k_mf(k)
        for m in range(1, 100):
            for n in range(1, 100):
                if gcd(m, n) == 1 and m * n <= 10000 and m * n > 1:
                    assert phi_k(k, m * n) == eval_mf(f, m) * eval_mf(f, n)


def test_phi_2_carlitz_forms():
    # product form n^2 prod (1 - 1/p)(1 - 2/p) and the Moebius divisor form
    for n in range(1, 501):
        primes = factorize(n).primes()
        prod_form = Fraction(n) ** 2
        for p in primes:
            prod_form *= Fraction(p - 1, p) * Fraction(p - 2, p)
        assert prod_form.denominator == 1
        assert phi_k(2, n) == int(prod_form)
        moebius_form = euler_phi(n) ** 2 * sum(
            Fraction(mobius(d), euler_phi(d)) for d in divisors(n)
        )
        assert phi_k(2, n) == moebius_form


def test_phi_k_nm_frozen_values():
    assert phi_k_nm(3, 12, 1) == euler_phi(12) ** 3 == 64
    assert phi_k_nm(1, 12, 6) == 4
    assert phi_k_nm(2, 15, 3) == 32
    assert phi_k_nm_recursion(2, 15, 3) == 32
    assert phi_k_nm_recursion(2, 5, 1) == 16
    assert phi_k_nm_recursion(2, 9, 1) == 36
    assert phi_k_nm_recursion(3, 2, 2) == 1 == phi_k(3, 2)


def test_phi_k_nm_oracle_frozen():
    assert phi_k_nm_oracle(2, 15, 3) == 32
    assert phi_k_nm_oracle(2, 15, 15) == phi_k_oracle(2, 15) == 24


def test_phi_k_nm_reduces_to_phi_k_and_phi():
    for k in range(1, 5):
        for n in range(1, 201):
            assert phi_k_nm(k, n, n) == phi_k(k, n), (k, n)
            assert phi_k_nm(k, n, 1) == euler_phi(n) ** k, (k, n)


def test_phi_k_nm_three_routes_agree():
    for k in (1, 2, 3):
        for n in range(1, 21):
            for m in divisors(n):
                closed = phi_k_nm(k, n, m)
                assert closed == phi_k_nm_recursion(k, n, m), (k, n, m)
                assert closed == phi_k_nm_oracle(k, n, m), (k, n, m)


@lru_cache(maxsize=None)
def alternating_unit_sum(length, p):
    """sum of (-1/(p-1))**j for j = 0 .. length-1: phi_length(p) / (p-1)**length."""
    return sum((Fraction(-1, p - 1) ** j for j in range(length)), Fraction(0))


def reference_phi_k_nm(k, n, m):
    """phi(n)**k times the alternating unit sum of length k at each prime p | m."""
    val = Fraction(euler_phi(n)) ** k
    for p in factorize(m).primes():
        val *= alternating_unit_sum(k, p)
    return val


def reference_n_k(k, n, d, delta):
    """phi(n)**k / (phi(d) phi(delta)) times the sums of length k at p | d, k-1 at p | delta."""
    val = Fraction(euler_phi(n)) ** k / (euler_phi(d) * euler_phi(delta))
    for p in factorize(d).primes():
        val *= alternating_unit_sum(k, p)
    for p in factorize(delta).primes():
        val *= alternating_unit_sum(k - 1, p)
    return val


def test_phi_k_nm_and_its_recursion_match_the_fraction_formula():
    for n in range(1, 301):
        for k in range(1, 13):
            for m in divisors(n):
                want = reference_phi_k_nm(k, n, m)
                for got in (phi_k_nm(k, n, m), phi_k_nm_recursion(k, n, m)):
                    assert type(got) is int and got == want, (k, n, m)


def test_n_k_and_its_recursion_match_the_fraction_formula():
    for n in range(1, 301):
        pairs = [(d, delta) for d in divisors(n) for delta in divisors(n) if gcd(d, delta) == 1]
        for k in range(1, 13):
            for d, delta in pairs:
                want = reference_n_k(k, n, d, delta)
                for got in (n_k(k, n, d, delta), n_k_recursion(k, n, d, delta)):
                    assert type(got) is int and got == want, (k, n, d, delta)


def test_closed_forms_at_large_k_are_quick():
    k = 60000
    start = time.perf_counter()
    phi, count = phi_k_nm(k, 15, 15), n_k(k, 15, 3, 5)
    assert time.perf_counter() - start < 2
    # phi_k(p) = (p-1)((p-1)**k - (-1)**k)/p, and with phi(15) = 2 * 4 the
    # formula gives N_k(15, 3, 5) = phi_k(3) phi_{k-1}(5) / 2
    phi_3, phi_5 = 2 * (2**k - 1) // 3, 4 * (4**k - 1) // 5
    assert phi == phi_3 * phi_5
    assert count == phi_3 * (4 * (4 ** (k - 1) + 1) // 5) // 2


def test_even_k_with_even_modulus_is_zero_at_once():
    # phi_k(2) = 0 for even k, so no power of the other primes is built
    start = time.perf_counter()
    assert phi_k(10**9, 14) == 0
    assert phi_k_nm(10**9, 14, 2) == 0
    assert n_k(10**9, 14, 2, 7) == 0  # phi_k(n, d) vanishes
    assert n_k(10**9 + 1, 14, 7, 2) == 0  # phi_{k-1}(n, delta) vanishes
    assert time.perf_counter() - start < 1


def test_phi_k_nm_rejects_non_divisor():
    # all three routes take the closed form's domain: m a divisor of n
    with pytest.raises(ValueError):
        phi_k_nm(2, 15, 4)
    with pytest.raises(ValueError):
        phi_k_nm_recursion(2, 15, 4)


def test_phi_k_nm_oracle_refuses_non_divisor():
    # the brute-force count takes the same domain: an m off the divisors of n
    # is refused, while a divisor m still gets the hand count
    with pytest.raises(ValueError, match="m=3 must be a positive divisor of n=10"):
        phi_k_nm_oracle(2, 10, 3)
    count = 0
    for a in range(1, 11):
        for b in range(1, 11):
            if gcd(a * b, 10) == 1 and gcd(a + b, 5) == 1:
                count += 1
    assert phi_k_nm_oracle(2, 10, 5) == count


def test_g_k_frozen_values():
    assert g_k(2, 1) == 1
    assert g_k(2, 2) == -4
    assert g_k(2, 3) == -7
    assert g_k(2, 4) == 0
    assert g_k(2, 6) == 28
    assert g_k(1, 30) == mobius(30)  # g_1 = mu


def test_g_k_vanishes_on_squareful():
    for k in (1, 2, 3, 4):
        for p in (2, 3, 5, 7, 11):
            for e in range(2, 6):
                assert g_k(k, p**e) == 0


def test_g_k_prime_inequality():
    # -(k+1) p^(k-1) < g_k(p) < 0 for k >= 2
    from phik import primes_up_to

    for k in range(2, 11):
        f = g_k_mf(k)
        for p in primes_up_to(10000):
            val = f.prime_power_rule(p, 1)
            assert -(k + 1) * p ** (k - 1) < val < 0, (k, p)


def test_g_k_absolute_bound():
    for k in range(1, 7):
        for n in range(1, 10001):
            fac = factorize(n)
            assert abs(g_k(k, n)) <= (k + 1) ** fac.omega() * n ** (k - 1), (k, n)


def test_g_k_convolution_recovers_phi_k():
    for k in range(1, 5):
        conv = dirichlet_convolve(id_k_mf(k), g_k_mf(k))
        for n in range(1, 1001):
            assert eval_mf(conv, n) == phi_k(k, n), (k, n)


def test_g_k_from_mobius_convolution_of_phi_k():
    # inverse direction: g_k(n) = sum over d | n of phi_k(d) mu(n/d) (n/d)^k
    for k in (1, 2, 3):
        for n in range(1, 201):
            total = sum(
                phi_k(k, d) * mobius(n // d) * (n // d) ** k for d in divisors(n)
            )
            assert total == g_k(k, n), (k, n)


def test_both_recursions_are_priced_once_by_the_level_builder(monkeypatch):
    from phik import menon, totients

    priced = []
    monkeypatch.setattr(totients, "check_word_budget", lambda *args: priced.append(args))
    assert phi_k_nm_recursion(5, 30, 30) == phi_k_nm(5, 30, 30)
    assert menon.n_k_recursion(5, 30, 3, 5) == n_k(5, 30, 3, 5)
    # 5 levels, each 64 and 3**omega pairs of one word (5 bits(phi(30)) = 20 bits)
    assert priced == [(5 * (64 + 27), "phi_5(n, m=30) recursion over divisor steps"),
                      (5 * (64 + 9), "N_5(n, 3, 5) recursion over divisor steps")]


def test_recursions_at_many_primes_take_each_prime_once():
    # 16 primes at k = 2 are priced under the budget; pairing every divisor with its
    # divisors (3**16 steps) took two minutes
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    n, d = prod(primes), prod(primes[1:9])
    start = time.perf_counter()
    assert phi_k_nm_recursion(2, n, n) == phi_k_nm(2, n, n)
    assert phi_k_nm_recursion(3, n // 53, n // 53) == phi_k_nm(3, n // 53, n // 53)
    assert n_k_recursion(2, n, d, n // d) == n_k(2, n, d, n // d)
    assert time.perf_counter() - start < 10
