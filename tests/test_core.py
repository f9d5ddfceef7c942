"""Factorization, divisors, and the multiplicative-function registry."""
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import compress, takewhile
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phik import (
    BudgetExceededError,
    MultiplicativeFunction,
    average_order_constant,
    count_units_in_class,
    count_units_in_two_classes,
    dirichlet_convolve,
    divisors,
    epsilon_mf,
    error_term_rows,
    eval_mf,
    factorize,
    faulhaber_sum,
    g_k,
    g_k_mf,
    gcd_sum_lhs_oracle,
    gcd_sum_rhs,
    id_k_mf,
    id_mf,
    jordan_totient,
    menon_expansion_rhs,
    mobius,
    mobius_mf,
    mobius_transform,
    n_k,
    n_k_oracle,
    n_k_recursion,
    nageswara_rao_lhs_oracle,
    one_mf,
    phi_k,
    phi_k_nm,
    phi_k_nm_oracle,
    phi_k_nm_recursion,
    phi_k_mf,
    phi_k_oracle,
    phi_mf,
    piltz_mf,
    sum_phi_k_convolution,
    sum_phi_k_direct,
    tau,
    tau_mf,
)
from phik.core import (DEFAULT_FACTOR_BUDGET, MAX_POWER_BITS, ROUTES, _rho_divisor, library, power,
                       route_order, table_lookup)


def test_factorize_basic():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2**10).factors == ((2, 10),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_roundtrip():
    for n in range(1, 10001):
        fac = factorize(n)
        prod = 1
        for p, e in fac.factors:
            prod *= p**e
        assert prod == n


def _primes_up_to(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


_PRIMES_TO_10_6 = _primes_up_to(10**6)


def _is_prime_by_trial_division(p):
    """Plain trial division, enough for p < 10**12."""
    assert p < 10**12
    return p > 1 and all(p % q for q in takewhile(lambda q: q * q <= p, _PRIMES_TO_10_6))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**12 - 1))
def test_factorize_property_below_10_12(n):
    factors = factorize(n).factors
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))
    assert prod(p**e for p, e in factors) == n
    assert all(e >= 1 and _is_prime_by_trial_division(p) for p, e in factors)


@pytest.mark.parametrize(
    "factors",
    [
        ((151, 1), (751, 1), (28351, 1)),  # strong pseudoprime to bases 2, 3, 5, 7
        ((149491, 1), (747451, 1), (34233211, 1)),  # strong pseudoprime to bases 2..23
        ((399165290221, 1), (798330580441, 1)),  # psi_12: passes bases 2..37, not 41
        ((1031, 2),),  # the first prime past trial division, squared
        ((1031, 1), (1033, 1)),
        ((1000003, 2),),
        ((1000003, 3),),
        ((2, 3), (1021, 1), (1000003, 2)),
        ((9999991, 1), (10000019, 1)),  # semiprimes like the closed-form benchmark's
        ((10000079, 1), (10000103, 1)),
    ],
    ids=str,
)
def test_factorize_past_trial_division(factors):
    assert factorize(prod(p**e for p, e in factors)).factors == factors


REFUSED_FACTORIZATIONS = [
    # psi_13 = 1287836182261 * 2575672364521 passes every base, so no pass is a proof
    (3317044064679887385961981, "cannot certify"),
    # a prime above psi_13
    (10**30 + 57, "cannot certify"),
    # two 20-digit primes: certainly composite, but out of reach of the step budget
    (10000000000000000051 * 20000000000000000011, "Pollard rho"),
]


@pytest.mark.parametrize("n, reason", REFUSED_FACTORIZATIONS, ids=str)
def test_factorize_refusals(n, reason):
    with pytest.raises(BudgetExceededError, match=reason):
        factorize(n)


@pytest.mark.parametrize("n, reason", REFUSED_FACTORIZATIONS, ids=str)
def test_eval_refuses_unfactorable_n(n, reason):
    proc = subprocess.run(
        [sys.executable, "-m", "phik.cli", "eval", "phi-k", "--k", "2", "--n", str(n)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget refused:") and reason in proc.stderr


def test_cli_import_leaves_out_numpy_and_process_pools():
    code = (
        "import sys, phik.cli; "
        "print([m for m in ('numpy', 'concurrent.futures.process') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]
    for n in range(1, 500):
        divs = divisors(n)
        assert divs == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_eval_registry_values():
    assert phi_mf(12) == 4
    assert jordan_totient(2, 2) == 3  # pairs (a,b) <= 2 with gcd(a,b,2)=1
    assert mobius(12) == 0
    assert mobius(30) == -1
    assert tau(12) == 6
    assert eval_mf(epsilon_mf, 1) == 1 and eval_mf(epsilon_mf, 7) == 0
    assert id_k_mf(3)(5) == 125


def test_jordan_against_pair_count():
    # J_2(n) counts pairs with joint gcd 1 against n
    for n in range(1, 25):
        count = sum(
            1
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            if gcd(gcd(a, b), n) == 1
        )
        assert jordan_totient(2, n) == count


def test_dirichlet_convolutions():
    mu_one = dirichlet_convolve(mobius_mf, one_mf)
    mu_id = dirichlet_convolve(mobius_mf, id_mf)
    one_one = dirichlet_convolve(one_mf, one_mf)
    for n in range(1, 101):
        assert eval_mf(mu_one, n) == (1 if n == 1 else 0)
        assert eval_mf(mu_id, n) == phi_mf(n)
        assert eval_mf(one_one, n) == len(divisors(n))


def test_a_convolution_is_named_after_its_factors_by_default():
    assert dirichlet_convolve(mobius_mf, one_mf).name == "(mu*one)"
    assert dirichlet_convolve(mobius_mf, one_mf, "epsilon").name == "epsilon"


def test_the_rho_step_budget_admits_exactly_the_steps_it_takes():
    m = 1000003 * 1000033
    divisor, steps = _rho_divisor(m, DEFAULT_FACTOR_BUDGET)
    assert divisor in (1000003, 1000033)
    assert _rho_divisor(m, steps) == (divisor, steps)
    with pytest.raises(BudgetExceededError, match="Pollard rho"):
        _rho_divisor(m, steps - 1)


def test_mobius_inversion_sum():
    for n in range(1, 10001):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_mobius_transform_examples():
    assert mobius_transform(lambda x: x, 6) == 2  # equals phi(6)
    for d in range(2, 50):
        assert mobius_transform(lambda x: 1, d) == 0
    assert mobius_transform(tau, 4) == tau(4) - tau(2)


def test_mobius_transform_table_missing_entry():
    table = {1: 1, 2: 5}
    assert mobius_transform(table, 2) == 4
    with pytest.raises(ValueError):
        mobius_transform(table, 4)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=10**4),
                 st.integers(min_value=1, max_value=10**15)),
       st.sampled_from(["id", "one", "tau", "mu", "pow:3", "table"]))
def test_mobius_transform_matches_its_definition(d, name):
    # the sum over the squarefree s | rad(d) equals the sum of mu(d/j) f(j) over every j | d
    from phik.menon import parse_function_spec

    if name == "table":  # a table holds every divisor, and no rule beyond it
        f = {j: (j * j + 3 * j + 7) % 11 - 5 for j in divisors(d)}
        fn = f.__getitem__
    else:
        f = fn = parse_function_spec(name).fn
    assert mobius_transform(f, d) == sum(mobius(d // j) * fn(j) for j in divisors(d))


def test_mobius_transform_names_the_least_missing_divisor_first():
    # the divisors d/s are read in ascending order, as the sum over j | d read them: 12/s is
    # 12, 6, 4 or 2, and 3 = 12/4 is never read
    with pytest.raises(ValueError, match="value table has no entry for 4$"):
        mobius_transform({1: 1, 2: 1, 6: 1}, 12)


def test_power_is_refused_before_it_is_built_past_its_bits():
    # (bits(|base|) - 1) e is a lower bound on the length: 2**MAX_POWER_BITS is built, one more
    # factor of 2 is not, and at the bases 0, 1 and -1 the bound is 0 or less whatever e is
    assert power(2, MAX_POWER_BITS) == 1 << MAX_POWER_BITS
    assert power(-3, 5) == -243 and power(7, 0) == 1
    assert (power(0, 10**20), power(1, 10**20), power(-1, 10**20 + 1)) == (0, 1, -1)
    for base, e in ((2, MAX_POWER_BITS + 1), (-3, MAX_POWER_BITS + 1), (3, 10**20)):
        with pytest.raises(BudgetExceededError) as exc:
            power(base, e)
        assert str(exc.value) == (f"the power {base}**{e} has more than {MAX_POWER_BITS} bits, "
                                  "the longest phik builds") and exc.value.limit is None


@pytest.mark.parametrize("quantity", ["phi-k", "phi-k-nm", "g-k", "n-k", "jordan"])
def test_no_power_of_a_closed_form_is_over_twice_its_value(quantity, monkeypatch):
    # why MAX_POWER_BITS = 2**20 refuses no answer of 10**5 digits (332,193 bits): at k >= 2
    # each power is at most 2 bits(value) + 1 bits long
    from itertools import product

    from phik import core, menon, totients

    built = []

    def spy(base, e):
        built.append(abs(base**e).bit_length())
        return base**e

    for module in (core, totients, menon):
        monkeypatch.setattr(module, "power", spy)
    closed = library(ROUTES[quantity]["closed"])
    names = {"phi-k-nm": ("m",), "n-k": ("d", "delta")}.get(quantity, ())
    for k in range(2, 25):
        for n in range(1, 121):
            for point in product(divisors(n), repeat=len(names)):
                built.clear()
                value = closed(k=k, n=n, **dict(zip(names, point)))
                assert value == 0 or max(built, default=0) <= 2 * abs(value).bit_length() + 1


def test_route_order_runs_the_last_route_listed_first():
    routes = {"closed": len, "recursion": abs, "oracle": sum}
    assert route_order(routes) == [("oracle", sum), ("recursion", abs), ("closed", len)]
    # a method that names no route runs them all; a named route runs alone
    assert route_order(routes, "all") == route_order(routes, "both") == route_order(routes)
    assert route_order(routes, "recursion") == [("recursion", abs)]
    # the convolution sum runs first, so that its refusals come before the direct walk
    assert [route for route, _ in route_order(ROUTES["sum-phi-k"], "both")] == [
        "convolution", "direct"]


@pytest.mark.parametrize("fn, args", [
    (phi_k, (10**20, 3)), (phi_k_nm, (10**20, 15, 5)), (g_k, (10**20, 15)),
    (n_k, (10**20, 15, 5, 3)), (jordan_totient, (10**20, 3)),
])
def test_closed_forms_refuse_a_huge_power_at_once(fn, args):
    # each hung, building a power of over 10**20 bits
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"\*\*100000000000000000000 has more than"):
        fn(*args)
    assert time.perf_counter() - start < 1


def test_g_k_off_squarefree_n_builds_no_factor():
    # eval_mf built g_k(3) = phi_k(3) - 3**k at 12 = 2**2 3 and at 75 = 3 5**2 alike
    assert g_k(10**20, 12) == g_k(10**20, 75) == g_k(10**20 + 1, 4) == 0


@pytest.mark.parametrize("table, message", [
    ({1: 1, "x": 2}, "value table has a key 'x' that is not an integer"),
    # int() would read these keys as 2, 2, 1 and 2
    ({1: 1, 2.5: 3}, "value table has a key 2.5 that is not an integer"),
    ({1: 1, 2.0: 3}, "value table has a key 2.0 that is not an integer"),
    ({True: 1, 2: 3}, "value table has a key True that is not an integer"),
    ({1: 1, Fraction(2): 3}, "value table has a key Fraction(2, 1) that is not an integer"),
    ({"1": True}, "value table[1]: boolean is not a valid value"),
    ({1: Fraction(1, 2)}, "value table[1]: values must be exact integers, got Fraction(1, 2)"),
    ([1, 2], "value table must map divisors to values, got list"),
], ids=["key", "float-key", "integral-float-key", "bool-key", "fraction-key", "bool", "fraction",
        "list"])
def test_mobius_transform_reads_a_table_by_the_one_table_rule(table, message):
    if isinstance(table, dict):
        with pytest.raises(ValueError) as exc:
            mobius_transform(table, 1)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        table_lookup(table)
    assert str(exc.value) == message
    assert mobius_transform({"1": 1.0, 2: 3}, 2) == 2  # string keys, integral floats
    assert mobius_transform({np.int64(1): 1, " 2 ": 3}, 2) == 2  # any integer type


def test_exact_div_refuses_a_remainder_under_python_O():
    code = "from phik.core import exact_div\nprint(exact_div(21, 7))\nexact_div(7, 2)"
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout == "3\n"
    assert proc.returncode == 1
    assert "ArithmeticError: exact_div: the divisor leaves a nonzero remainder" in proc.stderr


def test_piltz_lower_bound():
    # tau_{k+1}(n) >= (k+1)**omega(n)
    for k in range(1, 7):
        f = piltz_mf(k + 1)
        for n in range(1, 10001):
            assert f(n) >= (k + 1) ** factorize(n).omega()


def test_piltz_is_iterated_convolution():
    built = one_mf
    for j in range(2, 5):
        built = dirichlet_convolve(built, one_mf)
        ref = piltz_mf(j)
        for n in range(1, 200):
            assert eval_mf(built, n) == ref(n)


def test_eval_clears_fractions_to_int():
    half_scaled = MultiplicativeFunction("halves", lambda p, e: Fraction(p**e, 2))
    assert eval_mf(half_scaled, 6) == Fraction(3, 2)
    # the two halves cancel: result must come back as a plain int
    val = eval_mf(half_scaled, 12)
    assert val == 3 and isinstance(val, int)
    assert eval_mf(half_scaled, 1) == 1


_REGISTERED = [phi_mf, tau_mf, mobius_mf, one_mf, id_mf, piltz_mf(3)]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=100))
def test_registered_functions_multiplicative(m, n):
    if gcd(m, n) != 1 or m * n > 10000:
        return
    for f in _REGISTERED:
        assert eval_mf(f, m * n) == eval_mf(f, m) * eval_mf(f, n)


# (function, valid arguments, positions of the integer arguments it validates)
INTEGER_ENTRY_POINTS = [
    (factorize, (12,), (0,)),
    (divisors, (12,), (0,)),
    (phi_k, (2, 15), (0, 1)),
    (phi_k_oracle, (2, 15), (0, 1)),
    (phi_k_nm, (2, 15, 3), (0, 1, 2)),
    (phi_k_nm_recursion, (2, 15, 3), (0, 1, 2)),
    (phi_k_nm_oracle, (2, 15, 3), (0, 1, 2)),
    (g_k, (2, 6), (0, 1)),
    (n_k, (2, 15, 3, 1), (0, 1, 2, 3)),
    (n_k_recursion, (2, 15, 3, 1), (0, 1, 2, 3)),
    (n_k_oracle, (2, 15, 3, 1), (0, 1, 2, 3)),
    (gcd_sum_lhs_oracle, (2, 6), (0, 1)),
    (gcd_sum_rhs, (2, 6), (0, 1)),
    (nageswara_rao_lhs_oracle, (2, 6), (0, 1)),
    (sum_phi_k_direct, (2, 30), (0, 1)),
    (sum_phi_k_convolution, (2, 30), (0, 1)),
    (average_order_constant, (2, 1000), (0, 1)),
]


@pytest.mark.parametrize(
    "fn, args, positions", INTEGER_ENTRY_POINTS, ids=lambda v: getattr(v, "__name__", None)
)
def test_integer_arguments_one_validator(fn, args, positions):
    # bool and integral floats are domain errors; numpy integers act as ints
    expected = fn(*args)
    for i in positions:
        for bad in (True, float(args[i])):
            with pytest.raises(ValueError):
                fn(*args[:i], bad, *args[i + 1 :])
        assert fn(*args[:i], np.int64(args[i]), *args[i + 1 :]) == expected


def test_budget_errors_name_the_limit_a_caller_can_raise():
    import pickle

    from phik.core import check_word_budget, words_of

    with pytest.raises(BudgetExceededError) as exc:
        check_word_budget(10**8 * words_of(128), "two-word steps")
    assert exc.value.limit is None and str(exc.value) == (
        "two-word steps would take 200000000 word operations, over the budget of 100000000")
    check_word_budget(10**8 * words_of(127), "one-word steps")  # under a word: priced as one
    check_word_budget(10**8, "the budget itself")
    copy = pickle.loads(pickle.dumps(BudgetExceededError("refused", "sieve_limit")))
    assert str(copy) == "refused" and copy.limit == "sieve_limit"


def test_a_price_past_4096_bits_is_printed_by_its_bit_length():
    from phik.core import check_word_budget

    def refusal(price) -> str:
        with pytest.raises(BudgetExceededError) as exc:
            check_word_budget(price, "it")
        return str(exc.value)

    assert refusal(2**4096 - 1) == f"it would take {2**4096 - 1} word operations, over the budget of 100000000"
    assert refusal(2**4096) == ("it would take at least 2**4096 word operations, over the budget of "
                                "100000000")
    assert refusal(3**(10**6)).startswith("it would take at least 2**1584962 word operations")


def test_a_product_is_priced_schoolbook_then_by_karatsuba():
    from phik.core import KARATSUBA_WORDS, product_price

    assert [product_price(w) for w in (1, 2, KARATSUBA_WORDS)] == [1, 4, KARATSUBA_WORDS**2]
    # words**log2(3) at each power of two past the cutoff, on a line between them
    assert [product_price(2**e) for e in (6, 10, 16)] == [3**6, 3**10, 3**16]
    assert product_price(3 * 2**9) == (3**10 + 3**11) // 2
    assert all(product_price(w) <= product_price(w + 1) for w in range(KARATSUBA_WORDS + 1, 5000))
    # an enormous operand is priced without building 3**e for its bit length e: a lower bound
    start = time.perf_counter()
    assert product_price(2**(10**7)).bit_length() > 4096
    assert time.perf_counter() - start < 1


def test_parallel_map_keeps_task_order_one_process_per_task(monkeypatch):
    import concurrent.futures

    from phik.core import parallel_map

    pools = []

    class StandIn:  # maps in-process, recording its size
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandIn)
    assert parallel_map(abs, [-3, -2, -1]) == [3, 2, 1]
    assert pools == [3]  # the caller sized the tasks: one process each
    assert parallel_map(abs, [-1]) == [1]
    assert pools == [3]  # one task: no pool


def test_cap_workers_counts_the_cpus_this_process_may_use(monkeypatch):
    from phik.core import cap_workers

    # its own affinity (pid 0), not another process's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2} if pid == 0 else {0},
                        raising=False)
    assert cap_workers(8, 8) == 3
    # no affinity call on this platform: the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process
    assert cap_workers(8, 8) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cap_workers(8, 8) == 3 and cap_workers(2, 8) == 2 and cap_workers(8, 0) == 1


# Entry points behind the argument gate, each with a valid call; k is argument 0, n argument 1.
TUPLE_COUNTS = [
    (phi_k, (2, 6)), (phi_k_oracle, (2, 6)), (g_k, (2, 6)), (phi_k_nm, (2, 6, 3)),
    (phi_k_nm_recursion, (2, 6, 3)), (phi_k_nm_oracle, (2, 6, 3)), (n_k, (2, 6, 3, 1)),
    (n_k_recursion, (2, 6, 3, 1)), (n_k_oracle, (2, 6, 3, 1)), (gcd_sum_lhs_oracle, (2, 6)),
    (gcd_sum_rhs, (2, 6)), (menon_expansion_rhs, (2, 6)), (nageswara_rao_lhs_oracle, (2, 6)),
    (jordan_totient, (2, 6)),
]
K_ONLY = [
    (phi_k_mf, (2,)), (g_k_mf, (2,)), (sum_phi_k_direct, (2, 10)),
    (sum_phi_k_convolution, (2, 10)), (average_order_constant, (2, 1000)),
    (error_term_rows, (2, [10], 1000)),
]
GATE_CASES = [
    *[(fn, args, 0, "tuple length k") for fn, args in TUPLE_COUNTS + K_ONLY],
    *[(fn, args, 1, "modulus n") for fn, args in TUPLE_COUNTS],
    (count_units_in_class, (6, 3, 1), 0, "modulus n"),
    (count_units_in_two_classes, (6, 3, 2, 1, 1), 0, "modulus n"),
    (faulhaber_sum, (2, 3), 0, "exponent k"),
    (faulhaber_sum, (2, 3), 1, "upper limit m"),
]


@pytest.mark.parametrize("value", [0, -1, True, 2.0])
@pytest.mark.parametrize("fn, args, position, name", GATE_CASES,
                         ids=[f"{case[0].__name__}-{case[3]}" for case in GATE_CASES])
def test_the_argument_gate_names_the_bad_argument(fn, args, position, name, value):
    fn(*args)
    if fn is faulhaber_sum and value == 0:
        return  # 0**k and the empty sum: valid
    bad = list(args)
    bad[position] = value
    with pytest.raises(ValueError) as exc:
        fn(*bad)
    assert str(exc.value).startswith(f"{name} must be ")
    assert "factorize:" not in str(exc.value)
