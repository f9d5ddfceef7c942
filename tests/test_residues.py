"""Residue rows: the moduli and the Chinese-remainder rebuild."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phik import primes_up_to, residues


def _trial_division_prime(q):
    return q > 1 and all(q % p for p in primes_up_to(math.isqrt(q)))


@pytest.mark.parametrize("bits", [0, 1, 30, 31, 32, 61, 62, 63, 93, 124, 186, 216, 217, 247])
def test_moduli_are_the_fewest_large_primes_that_cover_the_bits(bits):
    moduli = residues.moduli(bits)
    assert 1 <= len(moduli) <= residues.MAX_MODULI
    # the largest primes below 2**31, in descending order
    assert list(moduli) == [q for q in range(2**31 - 1, moduli[-1] - 1, -1) if _trial_division_prime(q)]
    assert math.prod(moduli) > 2**bits >= math.prod(moduli[:-1])


@pytest.mark.parametrize("bits", [248, 300, 10**4])
def test_moduli_give_way_to_exact_rows_past_the_maximum(bits):
    assert residues.moduli(bits) == ()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_crt_round_trips_every_value_below_the_product(data):
    moduli = residues.moduli(data.draw(st.integers(min_value=0, max_value=247)))
    n = data.draw(st.integers(min_value=0, max_value=math.prod(moduli) - 1))
    assert residues.crt([n % q for q in moduli], moduli) == n
