"""Residue rows: the moduli and the Chinese-remainder rebuild."""
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phik import primes_up_to, residues
from phik.totients import _g_k_prime, _phi_k_prime_power


def _trial_division_prime(q):
    return q > 1 and all(q % p for p in primes_up_to(math.isqrt(q)))


@pytest.mark.parametrize(
    "bits", [0, 1, 30, 31, 32, 61, 62, 63, 64, 93, 94, 95, 124, 186, 216, 217, 247, 250, 280]
)
def test_moduli_are_the_fewest_large_primes_that_cover_the_bits(bits):
    moduli = residues.moduli(bits)
    assert 1 <= len(moduli) <= residues.MAX_MODULI
    assert moduli[0] == 2**64
    # then the largest primes below 2**31, in descending order (none below 64 bits)
    primes = [q for q in range(2**31 - 1, moduli[-1] - 1, -1) if _trial_division_prime(q)]
    assert list(moduli[1:]) == primes
    assert math.prod(moduli) > 2**bits >= math.prod(moduli[:-1])


@pytest.mark.parametrize("bits", [248, 281, 300, 10**4])
def test_moduli_give_way_to_exact_rows_past_the_maximum(bits):
    # 64 bits in the word row and 31 in each prime row: 280 bits at most, where 31-bit
    # primes alone held 247; 248 bits now take 7 rows
    assert len(residues.moduli(bits)) == (7 if bits == 248 else 0)


def _signed_word(n):
    return (n + 2**63) % 2**64 - 2**63


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_crt_round_trips_every_value_below_the_product(data):
    moduli = residues.moduli(data.draw(st.integers(min_value=0, max_value=280)))
    n = data.draw(st.integers(min_value=0, max_value=math.prod(moduli) - 1))
    # the word row holds the signed representative, the prime rows plain residues
    assert residues.crt([_signed_word(n), *(n % q for q in moduli[1:])], moduli) == n
    assert residues.crt([n % q for q in moduli], moduli) == n


def _phi_k_prime_coefficients(k):
    """phi_k(p) = (p-1) sum_{j=1..k} C(k,j) (-1)**(k-j) p**(j-1), lowest degree first."""
    inner = [math.comb(k, j) * (-1) ** (k - j) for j in range(1, k + 1)]  # of p**0 .. p**(k-1)
    return [b - a for a, b in zip([*inner, 0], [0, *inner])]  # (p - 1) * inner


@pytest.mark.parametrize("k", range(1, 41))
def test_monomials_of_phi_k_and_g_k_at_a_prime(k):
    phi = _phi_k_prime_coefficients(k)
    assert residues.monomials(partial(_phi_k_prime_power, k), k) == phi
    assert residues.monomials(partial(_g_k_prime, k), k) == [*phi[:k], phi[k] - 1]


@pytest.mark.parametrize("k", [1, 2, 5, 17])
def test_polynomial_rows_hold_each_value_in_every_layout(k):
    t = np.array([1, 2, 3, 97, 2**31 - 1, 2**31 + 11, 10**9 + 7], dtype=np.int64)
    exact = [_phi_k_prime_power(k, v) for v in t.tolist()]
    for x in (3, 2**12, 2**40, 2**60):  # from one row to the exact row
        rows = residues.Rows(k, x)
        table = rows.polynomial(partial(_phi_k_prime_power, k), k, t)
        if rows.moduli:
            assert table.tolist() == [[_signed_word(v) for v in exact],
                                      *([v % q for v in exact] for q in rows.moduli[1:])]
        else:
            assert table[0].tolist() == exact
