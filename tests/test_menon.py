"""Counting lemmas, N_k machinery, and the gcd-sum identities."""
import json
import re
import time
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple

import pytest

from phik import (
    BudgetExceededError,
    IdentityReport,
    Instance,
    count_units_in_class,
    count_units_in_two_classes,
    divisors,
    euler_phi,
    gcd_sum_lhs_oracle,
    gcd_sum_rhs,
    jordan_totient,
    lemma_sweep,
    menon_expansion_rhs,
    mobius,
    n_k,
    n_k_oracle,
    n_k_recursion,
    n_k_sweep,
    nageswara_rao_lhs_oracle,
    parse_function_spec,
    phi_k,
    phi_k_oracle,
    tau,
    tau_mf,
    units_mod,
    verify_sweep,
)
from phik import menon
from phik.totients import MAX_UNITS


def test_count_units_one_congruence_examples():
    assert count_units_in_class(6, 3, 1) == (1, 1)  # units {1,5}, only 1 = 1 mod 3
    assert count_units_in_class(6, 3, 0) == (0, 0)
    assert count_units_in_class(12, 1, 0) == (4, 4)


def test_count_units_two_congruences_examples():
    assert count_units_in_two_classes(12, 3, 4, 1, 3) == (1, 1)  # only a = 7
    assert count_units_in_two_classes(12, 2, 2, 0, 1) == (0, 0)


def test_count_units_divisor_preconditions():
    with pytest.raises(ValueError):
        count_units_in_class(10, 3, 1)
    with pytest.raises(ValueError):
        count_units_in_two_classes(10, 2, 3, 1, 1)


def test_lemma_predictions_exhaustive_small():
    for n in range(1, 25):
        for d in divisors(n):
            for r in range(d):
                count, predicted = count_units_in_class(n, d, r)
                assert count == predicted, (n, d, r)
            for e in divisors(n):
                for r in range(d):
                    for s in range(e):
                        count, predicted = count_units_in_two_classes(n, d, e, r, s)
                        assert count == predicted, (n, d, e, r, s)


def test_two_congruences_with_e_1_collapse():
    for n in range(1, 41):
        for d in divisors(n):
            for r in range(d):
                assert count_units_in_two_classes(n, d, 1, r, 0) == count_units_in_class(
                    n, d, r
                )


def test_lemma_sweep_clean():
    report = lemma_sweep(20)
    assert report.ok and not report.partial
    assert report.checked > 0 and report.failures == []


def test_n_k_frozen_values():
    assert n_k(1, 15, 3, 1) == euler_phi(15) // euler_phi(3) == 4
    assert n_k(1, 15, 3, 5) == 0  # a unit cannot be 0 mod 5
    assert n_k(2, 15, 3, 1) == 16
    assert n_k_oracle(2, 15, 3, 1) == 16
    assert n_k(2, 12, 2, 2) == 0
    assert n_k(3, 10, 5, 1) == 13
    assert n_k_recursion(2, 15, 3, 1) == 16
    assert n_k_recursion(2, 15, 1, 1) == euler_phi(15) ** 2 == 64
    assert n_k_recursion(3, 10, 5, 1) == n_k(3, 10, 5, 1)


def test_n_k_recursion_domain():
    # the recursion answers wherever the closed form does, k = 1 and gcd(d, delta) > 1 included
    assert n_k_recursion(1, 15, 3, 1) == n_k(1, 15, 3, 1) == 4
    assert n_k_recursion(1, 15, 3, 5) == n_k(1, 15, 3, 5) == 0
    assert n_k_recursion(2, 12, 2, 2) == n_k(2, 12, 2, 2) == 0
    with pytest.raises(ValueError):
        n_k(2, 15, 4, 1)  # d must divide n


# Each oracle at its last admitted and first refused input, priced by its kernel in word
# operations: n residues at 50 and P(k) products of the packed operand (`unit_sum_price`), or
# n residues and P(k) pairings of K x K keys (`fold_price`); at m = 1 one word, so k = 1 meets the
# budget at n = 2 * 10**6 exactly.
ORACLE_BOUNDARIES = [
    ("phi_k_oracle", (2, 164222), (2, 164223), "phi_2(164223, m=164223) oracle"),
    ("phi_k_nm_oracle", (2, 1999999, 1), (2, 2000000, 1), "phi_2(2000000, m=1) oracle"),
    ("phi_k_nm_oracle", (1, 2000000, 1), (1, 2000001, 1), "phi_1(2000001, m=1) oracle"),
    ("n_k_oracle", (3, 79224, 1, 1), (3, 79225, 1, 1), "N_3(79225, 1, 1) oracle"),
    ("gcd_sum_lhs_oracle", (6, 33790), (6, 33791), "gcd-sum oracle at k=6, n=33791"),
    ("nageswara_rao_lhs_oracle", (2, 55440), (3, 55440), "joint-gcd oracle at k=3, n=55440"),
    # the residues alone meet the budget: k = 1 folds nothing, and k = 2 pairs the keys once
    ("nageswara_rao_lhs_oracle", (1, 2000000), (2, 2000000),
     "joint-gcd oracle at k=2, n=2000000"),
]


@pytest.mark.parametrize("oracle, admitted, refused, what", ORACLE_BOUNDARIES,
                         ids=[f"{row[0]}-{row[2]}" for row in ORACLE_BOUNDARIES])
def test_each_oracle_admits_its_last_input_and_refuses_the_next(monkeypatch, oracle, admitted,
                                                                refused, what):
    from phik import totients

    # an admitted call passes its price and counts nothing: the kernels are stood in for
    for module in (totients, menon):
        monkeypatch.setattr(module, "unit_sum_counts", lambda k, n, m: ())
    monkeypatch.setattr(menon, "fold_counts", lambda *args: Counter())
    fn = getattr(menon if hasattr(menon, oracle) else totients, oracle)
    assert fn(*admitted) == 0
    with pytest.raises(BudgetExceededError) as exc:
        fn(*refused)
    assert re.fullmatch(rf"{re.escape(what)} would take \d+ word operations, over the budget of "
                        r"100000000", str(exc.value)) and exc.value.limit is None


# 39 digits, whose factorization Pollard rho's step cap refuses, after 0.5 s
UNFACTORED = 200000000000000001130000000000000000561


@pytest.mark.parametrize("oracle, args", [
    ("phi_k_oracle", (2, UNFACTORED)), ("phi_k_nm_oracle", (2, UNFACTORED, UNFACTORED)),
    ("n_k_oracle", (2, UNFACTORED, 1, 1)), ("gcd_sum_lhs_oracle", (2, UNFACTORED)),
    ("nageswara_rao_lhs_oracle", (2, UNFACTORED)),
])
def test_an_oracle_over_the_budget_on_its_residues_is_refused_before_n_is_factorized(
        monkeypatch, oracle, args):
    from phik import core, totients

    def no_factorize(n):
        raise AssertionError(f"{n} was factorized")

    for module in (core, totients, menon):
        monkeypatch.setattr(module, "factorize", no_factorize)
    fn = getattr(menon if hasattr(menon, oracle) else totients, oracle)
    with pytest.raises(BudgetExceededError) as exc:
        fn(*args)
    assert str(exc.value).endswith(f" would take {50 * UNFACTORED} word operations, over the "
                                   "budget of 100000000")


def test_n_k_three_routes_agree():
    for k in (1, 2, 3):
        for n in range(1, 21):
            for d in divisors(n):
                for delta in divisors(n):
                    brute = n_k_oracle(k, n, d, delta)
                    closed = n_k(k, n, d, delta)
                    assert brute == closed, (k, n, d, delta)
                    assert n_k_recursion(k, n, d, delta) == closed
                    if gcd(d, delta) > 1:
                        assert closed == 0


def test_n_k_sweep_clean():
    report = n_k_sweep(k_max=2, n_max=16)
    assert report.ok and report.failures == []


def test_units_mod():
    assert units_mod(1) == (1,)
    assert units_mod(12) == (1, 5, 7, 11)


def test_the_units_past_their_bound_are_refused_before_they_are_listed():
    # at k = 1 the budget admits every n <= 2 * 10**6, where the units and their counts take
    # about 180 bytes per n: 1.8 GB at n = 10**7, and a killed process at 10**8
    refusal = f"the units mod {MAX_UNITS + 1} are read off {MAX_UNITS + 1} residues, over 1048576"
    with pytest.raises(BudgetExceededError, match=refusal):
        units_mod(MAX_UNITS + 1)
    for oracle in (phi_k_oracle, gcd_sum_lhs_oracle, lambda k, n: n_k_oracle(k, n, 1, 1)):
        with pytest.raises(BudgetExceededError, match="over 1048576"):
            oracle(1, MAX_UNITS + 1)
    # a sweep's cell at such an n is skipped, and its reason is the refusal
    cell = menon._sweep_cell("menon_gcd", 1, MAX_UNITS + 1, parse_function_spec("id"))
    assert cell == {"k": 1, "n": MAX_UNITS + 1, "reason": refusal}
    assert len(units_mod(MAX_UNITS)) == MAX_UNITS // 2  # the bound itself is listed
    units_mod.cache_clear()


# -- the gcd-sum identity ----------------------------------------------------


def test_gcd_sum_frozen_values():
    assert gcd_sum_lhs_oracle(1, 4, "id") == 6  # (1-1,4) + (3-1,4) = 4 + 2
    assert gcd_sum_lhs_oracle(2, 3, "id") == 4  # tuples (1,1), (2,2)
    assert gcd_sum_lhs_oracle(2, 4, "id") == 0  # empty sum, phi_2(4) = 0
    assert gcd_sum_rhs(2, 3, "id") == phi_k(2, 3) * tau(3) == 4
    assert menon_expansion_rhs(2, 3, "id") == 4


def test_gcd_sum_rhs_one_is_phi_k():
    for k in (1, 2, 3):
        for n in range(1, 30):
            assert gcd_sum_rhs(k, n, "one") == phi_k(k, n)


def test_menon_original_k1():
    # the k = 1 case: sum of gcd(a - 1, n) over units equals phi(n) tau(n)
    for n in range(1, 101):
        assert gcd_sum_lhs_oracle(1, n, "id") == euler_phi(n) * tau(n)


def test_gcd_sum_identity_named_functions():
    for f in ("id", "one", "tau", "mu", "pow:2"):
        for k in (1, 2, 3):
            for n in range(1, 21):
                assert gcd_sum_lhs_oracle(k, n, f) == gcd_sum_rhs(k, n, f), (f, k, n)


def test_gcd_sum_identity_table_function():
    # a fixed non-multiplicative table: f(1) = 3 already breaks multiplicativity
    table = {d: (d * d + 3 * d + 7) % 11 for d in range(1, 25)}
    for k in (1, 2, 3):
        for n in range(1, 25):
            assert gcd_sum_lhs_oracle(k, n, table) == gcd_sum_rhs(k, n, table), (k, n)


def test_expansion_route_matches_oracle():
    for f in ("id", "tau"):
        for k in (1, 2, 3):
            for n in range(1, 21):
                assert menon_expansion_rhs(k, n, f) == gcd_sum_lhs_oracle(k, n, f)


def test_function_spec_parsing():
    assert parse_function_spec("id").fn(7) == 7
    assert parse_function_spec("one").fn(7) == 1
    assert parse_function_spec("tau").fn(12) == 6
    assert parse_function_spec("mu").fn(30) == -1
    assert parse_function_spec("pow:3").fn(2) == 8
    assert parse_function_spec("pow:0").fn(7) == 1  # the least exponent admitted
    with pytest.raises(ValueError, match="pow:-1 rejected, exponent must be >= 0"):
        parse_function_spec("pow:-1")
    spec = parse_function_spec({1: 1, 2: 9})
    assert spec.fn(2) == 9
    with pytest.raises(ValueError):
        spec.fn(3)
    with pytest.raises(ValueError):
        parse_function_spec("sigma")
    with pytest.raises(ValueError):
        parse_function_spec("pow:x")
    with pytest.raises(ValueError, match="bad power spec 'pow:2:3', expected pow:<integer>"):
        parse_function_spec("pow:2:3")  # the exponent is all that follows the first colon
    with pytest.raises(ValueError):
        parse_function_spec({1: 1.5})


def test_table_file_spec(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({str(d): d + 1 for d in range(1, 13)}))
    spec = parse_function_spec(f"table:{path}")
    assert spec.fn(12) == 13
    for n in (6, 10, 12):
        assert gcd_sum_lhs_oracle(2, n, spec) == gcd_sum_rhs(2, n, spec)
    colon = tmp_path / "f:1.json"  # the path is all that follows the first colon
    colon.write_text(path.read_text())
    assert parse_function_spec(f"table:{colon}").label == f"table:{colon}"


def test_corrupted_mu_table_breaks_identity(tmp_path):
    # mu_f values override the Moebius transform on the closed-form side;
    # corrupting one entry must surface as a genuine lhs != rhs failure
    f_table = {str(d): d for d in range(1, 13)}
    mu_table = {str(d): euler_phi(d) for d in range(1, 13)}
    mu_table["6"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"f": f_table, "mu_f": mu_table}))
    spec = parse_function_spec(f"table:{path}")
    assert gcd_sum_lhs_oracle(1, 6, spec) != gcd_sum_rhs(1, 6, spec)
    report = verify_sweep("menon_general", k_max=1, n_max=12, f=spec)
    assert not report.ok
    assert any(dict(inst.params)["n"] == 6 for inst in report.failures)


def test_nageswara_rao_frozen_values():
    assert nageswara_rao_lhs_oracle(2, 2) == 6 == jordan_totient(2, 2) * tau(2)
    assert nageswara_rao_lhs_oracle(1, 4) == 6  # coincides with the k = 1 gcd sum
    assert nageswara_rao_lhs_oracle(2, 1) == 1 == jordan_totient(2, 1) * tau(1)


def test_nageswara_rao_identity_small():
    for k in (1, 2, 3):
        for n in range(1, 16):
            assert nageswara_rao_lhs_oracle(k, n) == jordan_totient(k, n) * tau(n)


def test_nageswara_k1_coincides_with_menon():
    for n in range(1, 41):
        assert nageswara_rao_lhs_oracle(1, n) == gcd_sum_lhs_oracle(1, n, "id")


@pytest.mark.parametrize("kind, k, n, f, cell", [
    ("menon_general", 2, 6, "id", (1, True, [])),  # phi_2(6) = 0: a trivial zero
    # the sum is 0 at f = mu, n = 3, but phi_1(3) = 2 tuples are summed: no trivial zero
    ("menon_general", 1, 3, "mu", (1, False, [])),
    ("menon_gcd", 3, 6, "id", (1, False, [])),
    ("sita_ramaiah", 2, 15, "id", (1, False, [])),
    ("nageswara_rao", 2, 6, "id", (1, False, [])),  # no sum over phi_k(n) tuples
])
def test_one_cell_checks_each_identity_route_against_route(kind, k, n, f, cell):
    assert menon._sweep_cell(kind, k, n, parse_function_spec(f)) == cell


@pytest.mark.parametrize("kind", ["nonsense", "lemmas"])
def test_verify_sweep_refuses_an_unknown_kind(kind):
    with pytest.raises(ValueError, match=f"unknown identity '{kind}', expected one of"):
        verify_sweep(kind)


def test_verify_sweep_reports():
    report = verify_sweep("menon_gcd", k_max=2, n_max=15)
    assert report.ok and report.checked == 30
    assert report.trivial_zeros == 7  # k = 2 with n even
    sita = verify_sweep("sita_ramaiah", n_max=15)
    assert sita.ok and sita.checked == 15
    nag = verify_sweep("nageswara_rao", k_max=2, n_max=12)
    assert nag.ok and nag.checked == 24


def test_verify_sweep_takes_k_up_to_3_by_default():
    report = verify_sweep("menon_gcd", n_max=4)
    assert report.swept["k"] == "1..3" and report.checked == 12


def test_the_lemma_price_sums_sigma_plus_its_square_until_it_is_over(monkeypatch):
    # sigma(n) + sigma(n)**2 checks of one word operation at each n: over 10**8 first at n = 464
    checks = [sum(divisors(n)) + sum(divisors(n)) ** 2 for n in range(1, 465)]
    assert sum(checks[:-1]) <= 10**8 < sum(checks)
    monkeypatch.setattr(menon, "IdentityReport", NamedTuple("Report", [("of", Callable)])(
        lambda kind, swept, cells: swept))  # an admitted sweep runs no check
    assert lemma_sweep(463) == {"n": "1..463", "residues": "all"}
    with pytest.raises(BudgetExceededError) as exc:
        lemma_sweep(10**20)
    assert str(exc.value) == (f"lemma sweep to n_max={10**20}, to n=464, would take {sum(checks)} "
                              "word operations, over the budget of 100000000")


def test_lemma_sweeps_take_k_up_to_3_by_default():
    lemmas, n_k_report = menon.lemma_sweeps(n_max=4)
    assert lemmas.ok and n_k_report.swept["k"] == "1..3"


POW_REFUSAL = r"the power \d+\*\*100000000 has more than 1048576 bits, the longest phik builds"


def test_verify_sweep_is_partial_where_a_refusal_no_price_foresees_stops_a_cell():
    # f = pow:10**8 is refused at its first value past 1, which every cell but n = 1 reads
    report = verify_sweep("menon_general", k_max=3, n_max=12, f="pow:100000000")
    assert report.partial and report.checked == 3
    assert [(s["k"], s["n"]) for s in report.skipped] == [
        (k, n) for k in range(1, 4) for n in range(2, 13)]
    assert all(re.fullmatch(POW_REFUSAL, s["reason"]) for s in report.skipped)
    # everything that did run is still checked honestly
    assert report.ok


@pytest.mark.parametrize("f", ["mapping", "table file", "module-level function"])
def test_a_sweep_runs_the_one_parsed_f_of_each_form(tmp_path, f):
    values = {d: (d * d + 3 * d + 7) % 11 for d in range(1, 17)}  # not multiplicative
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"f": values}))
    f = {"mapping": values, "table file": f"table:{path}", "module-level function": euler_phi}[f]
    serial = verify_sweep("menon_general", k_max=2, n_max=16, f=f)
    assert serial.ok and serial.checked == 32


@pytest.mark.parametrize("f", [lambda x: x, tau_mf], ids=["lambda", "tau_mf"])
def test_a_serial_sweep_takes_an_f_that_does_not_pickle(f):
    # a sweep runs in one process, so f is never pickled
    assert verify_sweep("menon_general", k_max=2, n_max=6, f=f).ok


@pytest.mark.parametrize("kind", ["phi_k_nm", "n_k_machinery"])
def test_an_admitted_route_sweep_skips_no_cell(kind):
    serial = verify_sweep(kind, k_max=3, n_max=14)
    assert serial.ok and serial.checked and not serial.partial


@pytest.mark.parametrize("sweep, what", [
    (lambda: verify_sweep("menon_general", k_max=10**20, n_max=2),
     "menon_general sweep of 100000000000000000000 x 2 cells, to k="),
    (lambda: verify_sweep("nageswara_rao", k_max=10**20, n_max=2), "nageswara_rao sweep"),
    (lambda: verify_sweep("sita_ramaiah", n_max=10**20), "sita_ramaiah sweep of 1 x "),
    (lambda: n_k_sweep(k_max=10**20, n_max=5), "N_k sweep of 100000000000000000000 x 5 cells"),
    (lambda: menon.lemma_sweeps(n_max=5, k_max=10**20),
     "lemma and N_k sweeps to n_max=5, k_max=100000000000000000000, to k="),
], ids=["menon", "nageswara-rao", "sita-ramaiah", "n-k", "lemmas"])
def test_a_sweep_prices_its_grid_before_any_cell(monkeypatch, sweep, what):
    # summed cell by cell only until it is over: a grid of 10**20 rows is refused at once
    monkeypatch.setattr(menon, "_sweep_cell", lambda *args: pytest.fail("a cell ran"))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        sweep()
    assert time.perf_counter() - start < 5
    assert str(exc.value).startswith(what) and exc.value.limit is None
    assert str(exc.value).endswith(" word operations, over the budget of 100000000")


# The last n_max each sweep admits at k_max 1 and 3: its cells' prices (`menon._cell_price`),
# summed, at most 10**8; sita_ramaiah sweeps k = 2 alone, whatever k_max is.
LAST_ADMITTED = {"menon_general": (1949, 987), "menon_gcd": (1949, 987),
                 "sita_ramaiah": (1737, 1737), "nageswara_rao": (1950, 639),
                 "phi_k_nm": (699, 395), "n_k_machinery": (584, 267), "lemmas": (363, 239)}


@pytest.mark.parametrize("kind", list(LAST_ADMITTED))
@pytest.mark.parametrize("k_max", [1, 3])
def test_each_sweep_admits_its_last_n_max_and_refuses_the_next(monkeypatch, kind, k_max):
    monkeypatch.setattr(menon, "_sweep_cell", lambda *args: (1, 0, []))  # a cell checks once
    monkeypatch.setattr(menon, "lemma_sweep", lambda n_max: "lemmas")
    n_max = LAST_ADMITTED[kind][k_max > 1]
    if kind == "lemmas":  # the lemma checks and the N_k grid, priced as one
        sweep = lambda n_max: menon.lemma_sweeps(n_max, k_max)  # noqa: E731
        what = f"lemma and N_k sweeps to n_max={n_max + 1}, k_max={k_max}"
        assert sweep(n_max)[0] == "lemmas"
    else:
        sweep = lambda n_max: verify_sweep(kind, k_max, n_max)  # noqa: E731
        k_count = 1 if kind == "sita_ramaiah" else k_max
        name = menon.SWEEP_KINDS[kind][2]
        what = f"{name} sweep of {k_count} x {n_max + 1} cells"
        assert sweep(n_max).checked == k_count * n_max
    with pytest.raises(BudgetExceededError) as exc:
        sweep(n_max + 1)
    assert re.fullmatch(rf"{re.escape(what)}, to (k=\d+, )?n=\d+, would take \d+ word operations, "
                        r"over the budget of 100000000", str(exc.value)), str(exc.value)


def test_a_cell_is_priced_at_each_call_it_makes():
    # n = 12 = 2**2 * 3 at k = 2: tau(12) = 6 divisors, one point each for phi_k(n, m), 36 pairs
    # (d, delta) for N_k, 5 * 3 = 15 of them coprime, where the recursion runs
    from phik.totients import fold_price, levels_price, unit_sum_price

    kernel = unit_sum_price(2, 12, 12)
    omega = {1: 0, 2: 1, 3: 1, 4: 1, 6: 2, 12: 2}
    assert menon._divisor_sum_price(2, 12) == 6 * 3  # (e+1)(e+2)/2 terms, 6 and 3
    assert menon._divisor_sum_price(2, 12, True) == 6 * 3 + 3 * 6 * 4
    assert menon._cell_price("menon_general", 2, 12) == 2500 + kernel + 6 * 3
    assert menon._cell_price("nageswara_rao", 2, 12) == 2500 + fold_price(2, 12)
    assert menon._cell_price("phi_k_nm", 2, 12) == sum(
        2500 + unit_sum_price(2, 12, m) + levels_price(2, 12, omega[m]) for m in omega)
    coprime = [(d, e) for d in omega for e in omega if gcd(d, e) == 1]
    assert len(coprime) == 15
    assert menon._cell_price("n_k_machinery", 2, 12) == kernel + 36 * 2500 + sum(
        levels_price(2, 12, omega[d] + omega[e]) for d, e in coprime)


def test_gcd_sum_rhs_is_priced_before_any_divisor_is_listed(monkeypatch):
    def no_divisors(n):
        raise AssertionError(f"divisors({n}) listed before the price was compared")

    primorial_20 = 557940830126698960967415390  # 3**20 transform terms
    monkeypatch.setattr(menon, "divisors", no_divisors)
    with pytest.raises(BudgetExceededError) as exc:
        gcd_sum_rhs(2, primorial_20, "tau")
    assert str(exc.value) == (f"gcd-sum divisor sum at k=2, n={primorial_20} would take "
                              f"{2 * 3**20} word operations, over the budget of 100000000")
    assert exc.value.limit is None


def test_the_phi_k_nm_sweep_checks_every_route_at_every_divisor():
    report = verify_sweep("phi_k_nm", 3, 24)
    assert report.ok and not report.partial
    assert report.checked == 3 * sum(len(divisors(n)) for n in range(1, 25))


def test_gcd_sum_rhs_in_integers_matches_fractions():
    # the integer sum against the plain Fraction sum, honest and inconsistent tables alike
    tables = [
        {d: d for d in range(1, 31)},  # mu_f is computed from f
        {"f": {d: d for d in range(1, 31)}, "mu_f": {d: d % 3 for d in range(1, 31)}},
        {"f": {d: 1 for d in range(1, 31)}, "mu_f": {d: 1 for d in range(1, 31)}},
    ]
    for table in tables:
        spec = parse_function_spec(table)
        for k in (1, 2, 3):
            for n in range(1, 31):
                total = sum(Fraction(spec.mu_fn(d), euler_phi(d)) for d in divisors(n))
                got = gcd_sum_rhs(k, n, spec)
                assert got == phi_k(k, n) * total and type(got) is int, (table, k, n)


def test_gcd_sum_rhs_evaluates_f_once_per_divisor():
    # the transforms read f 3**6 = 729 times over the 64 divisors of 30030
    calls = Counter()

    def f(d):
        calls[d] += 1
        return tau(d)

    assert gcd_sum_rhs(2, 30030, f) == gcd_sum_rhs(2, 30030, "tau")
    assert sorted(calls) == divisors(30030) and set(calls.values()) == {1}
    # a table's refusal still names the least divisor it lacks, as the transforms read it
    with pytest.raises(ValueError, match="table f has no entry for 3$"):
        gcd_sum_rhs(2, 12, {1: 1, 2: 1, 6: 1})


def test_a_sweep_reads_f_and_its_transform_once_per_argument(monkeypatch):
    # the lhs reads f at each gcd, the rhs (mu*f)(d) at each divisor, every n <= 40 both; the
    # parsed f and its transform serve all 120 cells (765 reads of f and 474 transforms unshared)
    calls, transforms = Counter(), Counter()
    mobius_transform = menon.mobius_transform

    def f(d):
        calls[d] += 1
        return d * d % 7

    def transform(fn, d):
        transforms[d] += 1
        return mobius_transform(fn, d)

    monkeypatch.setattr(menon, "mobius_transform", transform)
    report = verify_sweep("menon_general", 3, 40, f)
    assert report.ok and report.checked == 120 and report.swept["f"] == "f"
    assert sorted(calls) == sorted(transforms) == list(range(1, 41))
    assert set(calls.values()) == set(transforms.values()) == {1}


def test_every_parsed_f_carries_its_transform(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({str(d): d + 1 for d in range(1, 13)}))
    for f in ("id", "one", "tau", "mu", "pow:2", f"table:{path}", {d: d + 1 for d in range(1, 13)},
              tau_mf, lambda d: d % 5):
        spec = parse_function_spec(f)
        assert [spec.mu_fn(d) for d in range(1, 13)] == [
            sum(mobius(d // j) * spec.fn(j) for j in divisors(d)) for d in range(1, 13)], f
    given = {"f": {1: 1, 2: 2}, "mu_f": {1: 5, 2: 7}}  # inconsistent, and read as given
    assert [parse_function_spec(given).mu_fn(d) for d in (1, 2)] == [5, 7]
    assert parse_function_spec(" tau ") is parse_function_spec("tau")  # once per process


def test_a_tables_missing_entry_raises_at_every_read():
    # the caches keep no refusal: each read of a missing entry raises again, f and mu_f alike
    spec = parse_function_spec({1: 1, 2: 3})
    given = parse_function_spec({"f": {1: 1, 2: 3, 3: 4}, "mu_f": {1: 1}})
    for _ in range(2):
        with pytest.raises(ValueError, match="table f has no entry for 3$"):
            spec.fn(3)
        with pytest.raises(ValueError, match="table f has no entry for 3$"):
            spec.mu_fn(6)
        with pytest.raises(ValueError, match="table f has no entry for 3$"):
            gcd_sum_rhs(1, 3, spec)
        with pytest.raises(ValueError, match="table mu_f has no entry for 2$"):
            gcd_sum_rhs(1, 2, given)
    assert spec.mu_fn(2) == 2 and given.fn(3) == 4


@pytest.mark.parametrize("kind", [kind for kind, (_, args, _, _) in menon.SWEEP_KINDS.items()
                                  if "f" not in args])
@pytest.mark.parametrize("f", ["tau", "table:/nonexistent.json", "id"])
def test_a_sweep_that_sweeps_no_f_refuses_one_before_reading_it(monkeypatch, kind, f):
    def no_open(*args, **kwargs):
        raise AssertionError(f"a file was opened: {args}")

    monkeypatch.setattr("builtins.open", no_open)
    with pytest.raises(ValueError, match=f"^the {kind} sweep takes no f$"):
        verify_sweep(kind, 1, 3, f=f)


def test_the_f_sweep_checks_id_when_given_no_f():
    assert verify_sweep("menon_general", 2, 6).swept == {"k": "1..2", "n": "1..6", "f": "id"}


def test_menon_expansion_rhs_evaluates_f_once_per_divisor():
    calls = Counter()

    def f(d):
        calls[d] += 1
        return tau(d)

    assert menon_expansion_rhs(2, 30030, f) == gcd_sum_rhs(2, 30030, "tau")
    assert sum(calls.values()) == len(calls) == 64


def test_menon_expansion_rhs_is_priced_before_it_lists_a_divisor():
    # the 20-prime primorial: 3**20 transform terms and 4**20 pairs (d, squarefree delta) of N_k
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="N_k expansion of the gcd sum at k=2"):
        menon_expansion_rhs(2, 557940830126698960967415390, "tau")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("primes", [12, 13])
def test_menon_expansion_rhs_prices_each_n_k_pair_at_its_products(monkeypatch, primes):
    # a pair (d, delta) is a closed-form N_k of omega(n) + 1 products: at 12 primes, 3**12 terms
    # and 4**12 pairs of 13 products are over the budget, which pairs of one product each were not
    n = 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)[:primes]:
        n *= p

    def listed(m):
        raise AssertionError(f"the divisors of {m} were listed")

    with monkeypatch.context() as patch:
        patch.setattr(menon, "divisors", listed)
        with pytest.raises(BudgetExceededError, match=f"N_k expansion of the gcd sum at k=2, n={n}"):
            menon_expansion_rhs(2, n, "tau")
    assert menon_expansion_rhs(2, 30030, "tau") == gcd_sum_rhs(2, 30030, "tau")


def test_gcd_sum_rhs_keeps_the_ratio_of_a_fraction_valued_f():
    assert gcd_sum_rhs(1, 5, lambda x: Fraction(1, 3)) == Fraction(4, 3)  # (mu*f)(1) = 1/3 only
    halved = gcd_sum_rhs(2, 15, lambda x: Fraction(x, 2))
    assert halved == gcd_sum_rhs(2, 15, "id") // 2 and type(halved) is int


def test_identity_report_tallies_cells_in_order():
    fail = Instance((("n", 1),), 1, 2, False)
    skip = {"k": "2", "n": "3", "reason": "over budget"}
    cells = [(4, 1, []), skip, (2, 0, [fail]), (1, 1, [])]
    report = IdentityReport.of("demo", {"n": "1..3"}, cells)
    assert report == ("demo", {"n": "1..3"}, 7, 2, [fail], [skip])
    assert report.partial and not report.ok
    assert IdentityReport.of("demo", {}, []).ok
