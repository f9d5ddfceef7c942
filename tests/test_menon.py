"""Counting lemmas, N_k machinery, and the gcd-sum identities."""
import json
import time
from collections import Counter
from fractions import Fraction
from math import gcd

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
    n_k,
    n_k_oracle,
    n_k_recursion,
    n_k_sweep,
    nageswara_rao_lhs_oracle,
    parse_function_spec,
    phi_k,
    route_sweep,
    tau,
    tau_mf,
    units_mod,
    verify_identity,
    verify_sweep,
)
from phik import menon


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


def test_n_k_oracle_budget():
    with pytest.raises(BudgetExceededError):
        n_k_oracle(3, 31, 1, 1, budget=26999)
    assert n_k_oracle(3, 31, 1, 1, budget=27000) == euler_phi(31) ** 3


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


def test_gcd_sum_budget_refusal():
    with pytest.raises(BudgetExceededError):
        gcd_sum_lhs_oracle(2, 200, "id", budget=39999)


def test_function_spec_parsing():
    assert parse_function_spec("id").fn(7) == 7
    assert parse_function_spec("one").fn(7) == 1
    assert parse_function_spec("tau").fn(12) == 6
    assert parse_function_spec("mu").fn(30) == -1
    assert parse_function_spec("pow:3").fn(2) == 8
    spec = parse_function_spec({1: 1, 2: 9})
    assert spec.fn(2) == 9
    with pytest.raises(ValueError):
        spec.fn(3)
    with pytest.raises(ValueError):
        parse_function_spec("sigma")
    with pytest.raises(ValueError):
        parse_function_spec("pow:x")
    with pytest.raises(ValueError):
        parse_function_spec({1: 1.5})


def test_table_file_spec(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({str(d): d + 1 for d in range(1, 13)}))
    spec = parse_function_spec(f"table:{path}")
    assert spec.fn(12) == 13
    for n in (6, 10, 12):
        assert gcd_sum_lhs_oracle(2, n, spec) == gcd_sum_rhs(2, n, spec)


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


def test_verify_identity_instance():
    inst = verify_identity("menon_general", 2, 6, "id")
    assert inst.ok and inst.trivial_zero and inst.lhs == inst.rhs == 0
    inst2 = verify_identity("sita_ramaiah", 2, 15)
    assert inst2.ok and inst2.rhs == phi_k(2, 15) * tau(15)
    with pytest.raises(ValueError):
        verify_identity("sita_ramaiah", 3, 15)
    with pytest.raises(ValueError):
        verify_identity("nonsense", 2, 15)


def test_verify_sweep_reports():
    report = verify_sweep("menon_gcd", k_max=2, n_max=15)
    assert report.ok and report.checked == 30
    assert report.trivial_zeros == 7  # k = 2 with n even
    sita = verify_sweep("sita_ramaiah", n_max=15)
    assert sita.ok and sita.checked == 15
    nag = verify_sweep("nageswara_rao", k_max=2, n_max=12)
    assert nag.ok and nag.checked == 24


def test_verify_sweep_partial_on_budget():
    report = verify_sweep("menon_gcd", k_max=3, n_max=12, budget=1000)
    assert report.partial
    assert report.skipped and all("over the budget of 1000" in s["reason"] for s in report.skipped)
    # everything that did run is still checked honestly
    assert report.ok


def test_verify_sweep_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(menon, "SWEEP_POOL_FLOOR", 1)  # a real pool at a small sweep
    seq = verify_sweep("menon_general", k_max=2, n_max=12, f="tau", workers=1)
    par = verify_sweep("menon_general", k_max=2, n_max=12, f="tau", workers=2)
    assert seq.as_dict() == par.as_dict()


@pytest.mark.parametrize("f", ["mapping", "table file", "module-level function"])
def test_parallel_sweeps_run_the_one_parsed_f_as_serial_ones_do(monkeypatch, tmp_path, f):
    monkeypatch.setattr(menon, "SWEEP_POOL_FLOOR", 1)  # a real pool at a small sweep
    values = {d: (d * d + 3 * d + 7) % 11 for d in range(1, 17)}  # not multiplicative
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"f": values}))
    f = {"mapping": values, "table file": f"table:{path}", "module-level function": euler_phi}[f]
    serial = verify_sweep("menon_general", k_max=2, n_max=16, f=f)
    assert serial.ok and serial.checked == 32
    assert verify_sweep("menon_general", k_max=2, n_max=16, f=f, workers=2).as_dict() == \
        serial.as_dict()


@pytest.mark.parametrize("f", [lambda x: x, tau_mf], ids=["lambda", "tau_mf"])
def test_a_parallel_sweep_refuses_an_f_that_does_not_pickle_before_any_cell(monkeypatch, f):
    monkeypatch.setattr(menon, "parallel_map", lambda *args: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match="parallel sweeps need an f that pickles"):
        verify_sweep("menon_general", k_max=2, n_max=6, f=f, workers=2)


def test_verify_sweep_skips_the_cells_its_oracle_refuses():
    for kind, k_max in (("menon_gcd", 3), ("nageswara_rao", 3), ("sita_ramaiah", 2)):
        report = verify_sweep(kind, k_max=k_max, n_max=40, budget=1000)
        ks = [2] if kind == "sita_ramaiah" else range(1, k_max + 1)
        over = [(k, n) for k in ks for n in range(1, 41) if n**k > 1000]
        assert [(int(s["k"]), int(s["n"])) for s in report.skipped] == over
        k, n = over[0]
        oracle = "joint-gcd" if kind == "nageswara_rao" else "gcd-sum"
        assert report.skipped[0]["reason"] == (
            f"{oracle} oracle at k={k}, n={n} would visit {n**k} tuples, over the budget of 1000")
        assert report.checked == len(ks) * 40 - len(over) and report.ok


def test_parallel_sweep_skips_as_serial(monkeypatch):
    monkeypatch.setattr(menon, "SWEEP_POOL_FLOOR", 1)  # a real pool at a small sweep
    seq = verify_sweep("menon_general", k_max=3, n_max=14, f="tau", budget=1000)
    par = verify_sweep("menon_general", k_max=3, n_max=14, f="tau", budget=1000, workers=2)
    assert seq.skipped and seq.as_dict() == par.as_dict()


@pytest.mark.parametrize("sweep, what", [
    (lambda: verify_sweep("menon_general", k_max=10**20, n_max=2), "menon_general sweep of "
     "100000000000000000000 x 2 cells, one each, would visit 200000000000000000000 tuples"),
    (lambda: verify_sweep("nageswara_rao", k_max=10**20, n_max=2), "nageswara_rao sweep"),
    (lambda: verify_sweep("sita_ramaiah", n_max=10**20), "sita_ramaiah sweep of 1 x "),
    (lambda: n_k_sweep(k_max=10**20, n_max=5), "N_k sweep of 100000000000000000000 x 5 cells"),
    (lambda: n_k_sweep(k_max=3, n_max=14, budget=41), "N_k sweep of 3 x 14 cells, one each, "
     "would visit 42 tuples, over the budget of 41"),
], ids=["menon", "nageswara-rao", "sita-ramaiah", "n-k", "n-k-at-the-budget"])
def test_a_sweep_prices_its_grid_before_any_cell(sweep, what):
    with pytest.raises(BudgetExceededError) as exc:
        sweep()
    assert str(exc.value).startswith(what) and exc.value.limit == "budget"


def test_n_k_sweep_skips_the_cells_its_oracle_refuses():
    report = n_k_sweep(k_max=3, n_max=14, budget=100)
    over = [(k, n) for k in range(1, 4) for n in range(1, 15) if euler_phi(n) ** k > 100]
    assert [(int(s["k"]), int(s["n"])) for s in report.skipped] == over
    assert all(s["reason"] == f"N_{s['k']}({s['n']}, 1, 1) oracle would visit "
               f"{euler_phi(s['n']) ** s['k']} tuples, over the budget of 100"
               for s in report.skipped)
    ran = [(k, n) for k in range(1, 4) for n in range(1, 15) if (k, n) not in over]
    assert report.checked == sum(len(divisors(n)) ** 2 for _, n in ran) and report.ok


def test_gcd_sum_rhs_is_priced_before_any_divisor_is_listed(monkeypatch):
    def no_divisors(n):
        raise AssertionError(f"divisors({n}) listed before the price was compared")

    primorial_20 = 557940830126698960967415390  # 3**20 transform terms
    monkeypatch.setattr(menon, "divisors", no_divisors)
    with pytest.raises(BudgetExceededError) as exc:
        gcd_sum_rhs(2, primorial_20, "tau")
    assert str(exc.value).startswith(f"gcd-sum divisor sum at k=2, n={primorial_20}, counting "
                                     f"word operations as tuples, would visit {2 * 3**20} tuples")
    assert exc.value.limit is None


def test_route_sweep_checks_every_route_at_every_divisor():
    report = route_sweep("phi-k-nm", ("m",), "phi_k_nm", "phi_k(n, m)", 3, 24)
    assert report.ok and not report.partial
    assert report.checked == 3 * sum(len(divisors(n)) for n in range(1, 25))
    skipped = route_sweep("phi-k-nm", ("m",), "phi_k_nm", "phi_k(n, m)", 2, 12, budget=100)
    assert [(s["k"], s["n"]) for s in skipped.skipped] == [(2, n) for n in range(11, 13)]
    assert skipped.skipped[0]["reason"] == ("phi_2(11, m=1) oracle would visit 121 tuples, "
                                            "over the budget of 100")


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
                total = sum(Fraction(spec.mobius_transform_at(d), euler_phi(d)) for d in divisors(n))
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
