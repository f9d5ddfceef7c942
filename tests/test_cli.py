"""The command-line surface: values, formats, exit codes."""
import concurrent.futures
import contextlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phik import menon, sum_phi_k_direct, summatory
from phik.cli import COMMANDS, _read_table, _row_flags, build_parser, main


def run_cli(*argv):
    return main(list(argv))


def test_eval_phi_k(capsys):
    assert run_cli("eval", "phi-k", "--k", "2", "--n", "15") == 0
    assert capsys.readouterr().out.strip() == "24"
    assert run_cli("eval", "phi-k", "--k", "2", "--n", "4") == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_g_k(capsys):
    assert run_cli("eval", "g-k", "--k", "2", "--n", "4") == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run_cli("eval", "g-k", "--k", "2", "--n", "6") == 0
    assert capsys.readouterr().out.strip() == "28"


def test_eval_json_uses_decimal_strings(capsys):
    # phi_6(10**6 + 3) overflows a double; JSON must carry it as a string
    assert run_cli("eval", "phi-k", "--k", "6", "--n", "1000003", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == "6" and payload["n"] == "1000003"
    value = int(payload["value"])
    assert value == (1000002 * (1000002**6 - 1)) // 1000003
    assert isinstance(payload["value"], str)


def test_eval_n_k_and_recursion(capsys):
    assert run_cli("eval", "n-k", "--k", "2", "--n", "15", "--d", "3", "--delta", "1") == 0
    assert capsys.readouterr().out.strip() == "16"
    assert (
        run_cli(
            "eval", "n-k", "--k", "2", "--n", "15", "--d", "3", "--delta", "1",
            "--method", "recursion",
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "16"


def phik_process(*argv, timeout=60):
    return subprocess.run([sys.executable, "-m", "phik.cli", *argv], capture_output=True,
                          text=True, timeout=timeout)


# the product of the first 20 primes: 2**20 squarefree divisors
PRIMORIAL_20 = "557940830126698960967415390"


@pytest.mark.parametrize("argv", [
    ("eval", "phi-k-nm", "--k", "14", "--n", "30030", "--m", "30030"),
    ("eval", "n-k", "--k", "14", "--n", "30030", "--d", "30", "--delta", "1001"),
])
def test_recursions_are_quick_and_agree_with_closed_forms(argv):
    start = time.perf_counter()
    recursion = phik_process(*argv, "--method", "recursion")
    assert time.perf_counter() - start < 5
    assert recursion.returncode == 0, recursion.stderr
    assert recursion.stdout == phik_process(*argv).stdout


@pytest.mark.parametrize("argv", [
    ("eval", "phi-k-nm", "--k", "2", "--n", PRIMORIAL_20, "--m", PRIMORIAL_20),
    ("eval", "n-k", "--k", "2", "--n", PRIMORIAL_20, "--d", PRIMORIAL_20, "--delta", "1"),
    # few primes, but a million levels of numbers up to 3 Mbit long
    ("eval", "phi-k-nm", "--k", "1000000", "--n", "15", "--m", "15"),
    ("eval", "n-k", "--k", "1000000", "--n", "15", "--d", "3", "--delta", "5"),
])
def test_recursions_refuse_many_prime_factors_or_long_numbers(argv):
    proc = phik_process(*argv, "--method", "recursion", timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget refused:") and "divisor steps" in proc.stderr


def test_phi_k_at_even_k_and_even_n_is_zero_at_once():
    start = time.perf_counter()
    proc = phik_process("eval", "phi-k", "--k", "1000000000", "--n", "14", timeout=10)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


HUGE_K = "99999999999999999999"
FLOAT_K = str(10**309)  # over the largest float


# each hung, raised a traceback or misreported its exit: a price built before it was compared,
# a kernel digit k bits wide at phi(n) = 1, a sweep grid listed before it was priced, or a
# sum's modulus 2**((k+1) bits(x)) built, and its exact row left unpriced
@pytest.mark.parametrize("argv, code", [
    (f"eval phi-k --k {HUGE_K} --n 3 --method oracle", 3),
    (f"eval gcd-sum --k {HUGE_K} --n 3 --method oracle", 3),
    (f"eval n-k --k {HUGE_K} --n 3 --d 1 --delta 1 --method oracle", 3),
    ("eval phi-k --k 1000000000 --n 2 --method oracle", 3),
    (f"eval phi-k --k {HUGE_K} --n 1 --method oracle", 0),
    (f"eval n-k --k {HUGE_K} --n 2 --d 1 --delta 1 --method oracle", 0),
    ("eval n-k --k 1000000000 --n 2 --d 1 --delta 1 --method oracle", 0),
    # every route runs, the oracle first: its refusal comes before the closed form is built
    (f"eval phi-k --k {HUGE_K} --n 3 --method all", 3),
    (f"verify menon --k-max {HUGE_K} --n-max 2", 3),
    (f"verify nageswara-rao --k-max {HUGE_K} --n-max 2", 3),
    (f"verify sita-ramaiah --n-max {HUGE_K}", 3),
    (f"verify lemmas --n-max 5 --k-max {HUGE_K}", 3),
    (f"sum phi-k --k {HUGE_K} --x 3", 3),
    (f"sum phi-k --k {HUGE_K} --x 3 --method convolution", 3),
    (f"sum phi-k --k {HUGE_K} --x 1", 0),
    (f"error-table --k {HUGE_K} --x-grid 3", 3),
])
def test_huge_arguments_end_at_once(argv, code):
    proc = phik_process(*argv.split(), timeout=10)
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code == 3:
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("budget refused:")
    else:
        assert (proc.stdout, proc.stderr) == ("1\n", "")


# the closed forms built a power of k bits before anything compared its length with the print
# limit; now `core.power` refuses it before it is built, phi_k(2) is 0 or 1 whatever k is, and
# g_k is 0 off squarefree n without building a factor
@pytest.mark.parametrize("argv, out", [
    (f"eval phi-k --k {HUGE_K} --n 3", None),
    (f"eval phi-k-nm --k {HUGE_K} --n 3 --m 3", None),
    (f"eval n-k --k {HUGE_K} --n 3 --d 1 --delta 1", None),
    (f"eval g-k --k {HUGE_K} --n 3", None),
    (f"eval jordan --k {HUGE_K} --n 3", None),
    (f"eval phi-k --k {HUGE_K} --n 2", "1\n"),
    (f"eval phi-k-nm --k {HUGE_K} --n 6 --m 2", None),
    (f"eval g-k --k {HUGE_K} --n 4", "0\n"),
    (f"eval g-k --k {HUGE_K} --n 12", "0\n"),
    (f"eval g-k --k {HUGE_K} --n 75", "0\n"),
    (f"eval n-k --k {HUGE_K} --n 2 --d 1 --delta 1", "1\n"),
    (f"eval n-k --k {HUGE_K} --n 9 --d 3 --delta 3", "0\n"),  # gcd(d, delta) > 1
    (f"eval n-k --k {HUGE_K} --n 15 --d 5 --delta 3", None),
    ("eval n-k --k 99999999999999999998 --n 15 --d 3 --delta 5", None),
    ("eval n-k --k 99999999999999999998 --n 6 --d 2 --delta 3", "0\n"),  # even k and d
    # the bounds are exact ints: a k past the largest float is no overflow
    (f"eval phi-k --k {FLOAT_K}1 --n 2", "1\n"),
    (f"eval phi-k --k {FLOAT_K}1 --n 3", None),
    (f"eval jordan --k {FLOAT_K} --n 1", "1\n"),
    (f"eval jordan --k {FLOAT_K} --n 2", None),
    (f"eval jordan --k {FLOAT_K} --n 3", None),
    (f"eval n-k --k {FLOAT_K}1 --n 1 --d 1 --delta 1", "1\n"),
    (f"eval n-k --k {FLOAT_K}1 --n 2 --d 1 --delta 1", "1\n"),
    (f"eval n-k --k {FLOAT_K}1 --n 3 --d 1 --delta 1", None),
    (f"eval g-k --k {FLOAT_K} --n 1", "1\n"),
    (f"eval g-k --k {FLOAT_K} --n 2", None),
    (f"eval g-k --k {FLOAT_K} --n 3", None),
    (f"eval phi-k-nm --k {FLOAT_K} --n 3 --m 3", None),
])
def test_huge_closed_forms_are_refused_or_answered_at_once(argv, out):
    proc = phik_process(*argv.split(), timeout=10)
    if out is None:  # every power built here is a k-th one
        k = argv.split()[argv.split().index("--k") + 1]
        assert (proc.returncode, proc.stdout) == (3, "")
        assert re.fullmatch(rf"budget refused: the power \d+\*\*{k} has more than 1048576 bits, "
                            r"the longest phik builds\n", proc.stderr), proc.stderr
    else:
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize("argv, code", [
    # 2**332192 < 10**100000 < phi_332194(3), and J_209590(3) < 10**100000 < J_209591(3)
    ("eval phi-k --k 332192 --n 3", 0), ("eval phi-k --k 332194 --n 3", 3),
    ("eval jordan --k 209590 --n 3", 0), ("eval jordan --k 209591 --n 3", 3),
    ("eval n-k --k 332192 --n 3 --d 1 --delta 1", 0),
    ("eval n-k --k 332193 --n 3 --d 1 --delta 1", 3),
    # |g_209590(3)| < 10**100000 < |g_209591(3)|, and phi_128509(9, 3) < 10**100000
    ("eval g-k --k 209590 --n 3", 0), ("eval g-k --k 209591 --n 3", 3),
    ("eval phi-k-nm --k 128509 --n 9 --m 3", 0), ("eval phi-k-nm --k 128510 --n 9 --m 3", 3),
])
def test_values_near_the_print_limit_are_compared_exactly(argv, code, capsys):
    assert run_cli(*argv.split()) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert 99_900 < len(out.strip().lstrip("-")) <= 100_000 and err == ""
    else:
        assert out == "" and "more than 100000 decimal digits" in err


def test_a_long_nageswara_rao_sweep_at_n_1_passes_at_once():
    # each of the 20,000 cells folds its one entry in bits(k) + popcount(k) - 2 products
    proc = phik_process("verify", "nageswara-rao", "--k-max", "20000", "--n-max", "1", timeout=10)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "PASS"


def test_oracle_refuses_a_non_divisor_m_in_one_line():
    proc = phik_process("eval", "phi-k-nm", "--k", "2", "--n", "10", "--m", "3",
                        "--method", "oracle")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: m=3 must be a positive divisor of n=10\n"


def readme_commands():
    """The `phik ...` lines of the README's "Command line" block, with their comments."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.partition("#") for line in block.splitlines() if line.startswith("phik "))
    return [(command.strip(), comment.strip()) for command, _, comment in lines]


@pytest.mark.parametrize("command, comment", readme_commands())
def test_readme_command_examples_run(command, comment, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if command == "phik eval phi-k --k 2 --n 15":
        assert out == comment + "\n" == "24\n"


def test_eval_jordan(capsys):
    assert run_cli("eval", "jordan", "--k", "2", "--n", "2") == 0
    assert capsys.readouterr().out.strip() == "3"


def test_eval_phi_k_nm_domain_error(capsys):
    assert run_cli("eval", "phi-k-nm", "--k", "2", "--n", "15", "--m", "4") == 2
    assert "divisor" in capsys.readouterr().err


def test_eval_k0_rejected(capsys):
    assert run_cli("eval", "phi-k", "--k", "0", "--n", "5") == 2


def test_oracle_phi_k(capsys):
    assert run_cli("eval", "phi-k", "--k", "2", "--n", "15", "--method", "oracle") == 0
    assert capsys.readouterr().out.strip() == "24"


def test_oracle_budget_refusal(capsys):
    assert run_cli("eval", "phi-k", "--k", "3", "--n", "50", "--method", "oracle",
                   "--budget", "1000") == 3
    assert "budget" in capsys.readouterr().err


def test_oracle_menon_lhs(capsys):
    assert run_cli("eval", "gcd-sum", "--k", "2", "--n", "3", "--f", "id",
                   "--method", "oracle") == 0
    assert capsys.readouterr().out.strip() == "4"


def test_verify_menon_passes(capsys):
    assert run_cli("verify", "menon", "--k-max", "2", "--n-max", "15", "--f", "id") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "failures=0" in out


def test_verify_menon_json_report(capsys):
    assert (
        run_cli(
            "verify", "menon", "--k-max", "2", "--n-max", "10",
            "--f", "tau", "--format", "json",
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["checked"] == "20"
    assert payload["failures"] == []


def test_verify_corrupted_table_fails_with_witness(tmp_path, capsys):
    f_table = {str(d): d for d in range(1, 13)}
    mu_table = {str(d): _phi(d) for d in range(1, 13)}
    mu_table["6"] = 99  # corrupted closed-form side
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"f": f_table, "mu_f": mu_table}))
    code = run_cli(
        "verify", "menon", "--k-max", "2", "--n-max", "12", "--f", f"table:{path}"
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "n=6" in out and "lhs=" in out and "rhs=" in out


def _phi(d):
    from phik import euler_phi

    return euler_phi(d)


def test_verify_lemmas(capsys):
    assert run_cli("verify", "lemmas", "--n-max", "12", "--k-max", "2") == 0
    out = capsys.readouterr().out
    assert "lemmas" in out and "n_k_machinery" in out and "PASS" in out


def test_verify_sita_ramaiah(capsys):
    assert run_cli("verify", "sita-ramaiah", "--n-max", "20") == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_nageswara_rao(capsys):
    assert run_cli("verify", "nageswara-rao", "--k-max", "2", "--n-max", "12") == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_partial_budget_exit(capsys):
    code = run_cli(
        "verify", "menon", "--k-max", "3", "--n-max", "12", "--budget", "1000"
    )
    out = capsys.readouterr().out
    assert code == 3
    assert "skipped" in out and "partial" in out


def test_sum_both_methods(capsys):
    assert run_cli("sum", "phi-k", "--k", "2", "--x", "10", "--method", "both") == 0
    assert capsys.readouterr().out.strip() == "63"


def test_sum_json(capsys):
    assert (
        run_cli("sum", "phi-k", "--k", "3", "--x", "20", "--format", "json") == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "14062"


def test_sum_usage_error_on_empty_range(capsys):
    assert run_cli("sum", "phi-k", "--k", "2", "--x", "0") == 2


def test_every_sum_method_prints_the_row_flags_and_the_value(capsys, monkeypatch):
    monkeypatch.delenv("PHIK_WORKERS", raising=False)
    for method in ("direct", "convolution", "both"):
        assert run_cli("sum", "phi-k", "--k", "3", "--x", "20", "--method", method,
                       "--format", "json") == 0
        assert json.loads(capsys.readouterr().out) == {
            "k": "3", "x": "20", "sieve_limit": "33554432", "workers": "1", "value": "14062"}


def test_sum_keeps_its_own_method_choices(capsys):
    # the row's direct|convolution|both override the route map's (*routes, "all")
    code, out, err = cli_exit(capsys, "sum", "phi-k", "--k", "2", "--x", "10", "--method", "all")
    assert code == 2 and out == ""
    assert "invalid choice: 'all' (choose from 'direct', 'convolution', 'both')" in err


def test_constant_json(capsys):
    assert run_cli("constant", "--k", "2", "--prime-bound", "10000", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == "2" and payload["prime_bound"] == "10000"
    assert payload["lo"] <= 0.286747 <= payload["hi"]
    assert payload["width"] == payload["hi"] - payload["lo"]


@pytest.mark.parametrize("k, prime_bound, lo, hi", [
    (2, 1000000, 0.2867466264908128, 0.286747486741651),
    (4, 500000, 0.24625744591139972, 0.2462599085188426),
])
def test_constant_prints_the_pinned_enclosure(capsys, k, prime_bound, lo, hi):
    # the float product's rounding depends on how its primes are chunked
    argv = ("constant", "--k", str(k), "--prime-bound", str(prime_bound), "--format", "json")
    assert run_cli(*argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["lo"], payload["hi"]) == (lo, hi)


def test_constant_rejects_k1(capsys):
    assert run_cli("constant", "--k", "1", "--prime-bound", "10000") == 2


def test_error_table_csv(capsys):
    assert run_cli("error-table", "--k", "2", "--x-grid", "10,100", "--prime-bound", "10000") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,sum,main_term_lo,main_term_hi,delta,normalized_ratio"
    assert lines[1].startswith("10,63,") and lines[2].startswith("100,91083,")


def test_error_table_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert (
        run_cli(
            "error-table", "--k", "2", "--x-grid", "10",
            "--prime-bound", "10000", "--out", str(target),
        )
        == 0
    )
    assert target.read_text().startswith("x,sum,")


def test_csv_rejected_where_undefined(capsys):
    code, out, err = cli_exit(capsys, "eval", "phi-k", "--k", "2", "--n", "15", "--format", "csv")
    assert code == 2 and out == "" and err.startswith("usage: phik eval phi-k")
    assert "argument --format: invalid choice: 'csv' (choose from 'plain', 'json')" in err
    # error rows are printed by error-table only, and in csv or json only
    for argv, usage, refusal in [
        (("sum", "phi-k", "--k", "2", "--x", "10", "--format", "csv"), "usage: phik sum phi-k",
         "invalid choice: 'csv'"),
        (("sum", "phi-k", "--k", "2", "--x", "10", "--prime-bound", "1000"),
         "usage: phik sum phi-k [-h] --k K --x X",
         "phik sum phi-k: error: unrecognized arguments: --prime-bound 1000"),
        (("error-table", "--k", "2", "--x-grid", "10", "--format", "plain"),
         "usage: phik error-table", "invalid choice: 'plain'"),
    ]:
        code, out, err = cli_exit(capsys, *argv)
        assert code == 2 and out == "" and err.startswith(usage) and refusal in err, argv


def _bad_table(tmp_path) -> str:
    """A table spec whose mu_f disagrees with its f at 2 and 3: verify menon fails at k = 1."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"f": {"1": 1, "2": 2, "3": 3}, "mu_f": {"1": 1, "2": 7, "3": 2}}))
    return f"table:{path}"


# every row that allows --format json, at a small size (verify menon: partial, with skip records)
JSON_ROWS = [
    ("eval", "phi-k", "--k", "2", "--n", "12"),
    ("eval", "phi-k-nm", "--k", "2", "--n", "12", "--m", "6", "--method", "recursion"),
    ("eval", "g-k", "--k", "2", "--n", "6"),
    ("eval", "n-k", "--k", "2", "--n", "15", "--d", "3", "--delta", "1"),
    ("eval", "jordan", "--k", "2", "--n", "12"),
    ("eval", "gcd-sum", "--k", "2", "--n", "12", "--f", "tau"),
    ("eval", "phi-k", "--k", "2", "--n", "12", "--method", "oracle"),
    ("eval", "phi-k-nm", "--k", "2", "--n", "12", "--m", "6", "--method", "oracle"),
    ("eval", "n-k", "--k", "2", "--n", "15", "--d", "3", "--delta", "1", "--method", "oracle"),
    ("eval", "gcd-sum", "--k", "2", "--n", "12", "--f", "tau", "--method", "oracle"),
    ("verify", "menon", "--k-max", "2", "--n-max", "12", "--budget", "100"),
    ("verify", "sita-ramaiah", "--n-max", "8"),
    ("verify", "nageswara-rao", "--k-max", "2", "--n-max", "8"),
    ("verify", "lemmas", "--n-max", "6", "--k-max", "2"),
    ("verify", "phi-k-nm", "--k-max", "2", "--n-max", "8"),
    ("sum", "phi-k", "--k", "2", "--x", "100", "--method", "both"),
    ("constant", "--k", "2", "--prime-bound", "1000"),
    ("error-table", "--k", "2", "--x-grid", "10,100", "--prime-bound", "1000"),
]


def _integers(value) -> list:
    """Every JSON number that is an integer, anywhere in a decoded document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [i for v in value for i in _integers(v)]
    return [value] if isinstance(value, int) and not isinstance(value, bool) else []


def test_json_rows_cover_every_row_with_json():
    for cmd in COMMANDS:
        if "json" in cmd.formats:
            assert any(argv[: len(cmd.path)] == cmd.path for argv in JSON_ROWS), cmd.path


@pytest.mark.parametrize("argv", JSON_ROWS, ids=" ".join)
def test_json_carries_every_integer_as_a_string(argv, capsys):
    assert run_cli(*argv, "--format", "json") in (0, 3)
    assert _integers(json.loads(capsys.readouterr().out)) == []


def test_json_of_a_verify_failure_carries_every_integer_as_a_string(tmp_path, capsys):
    argv = ("verify", "menon", "--k-max", "1", "--n-max", "3", "--f", _bad_table(tmp_path))
    assert run_cli(*argv, "--format", "json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"][0]["k"] == "1" and payload["failures"][0]["n"] == "2"
    assert _integers(payload) == []


@pytest.mark.parametrize("argv, code", [
    (("sum", "phi-k", "--k", "2", "--x", "200000", "--format", "json"), 0),
    (("verify", "menon", "--k-max", "1", "--n-max", "3", "--f", "{table}"), 1),
    (("verify", "menon", "--k-max", "3", "--n-max", "12", "--budget", "1000"), 3),
])
def test_a_closed_stdout_ends_the_output_and_keeps_the_exit_code(argv, code, tmp_path):
    argv = [word.format(table=_bad_table(tmp_path)) for word in argv]
    read, write = os.pipe()
    os.close(read)  # no reader, before the child writes
    try:
        proc = subprocess.run([sys.executable, "-m", "phik.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_an_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "value.txt"
    assert run_cli("eval", "phi-k", "--k", "2", "--n", "15", "--out", str(target)) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_table_file(capsys):
    assert run_cli("eval", "gcd-sum", "--k", "1", "--n", "4", "--f", "table:/nonexistent.json",
                   "--method", "oracle") == 2


def test_console_script_entry_point():
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    target = re.search(r'^phik = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert target is not None and target.groups() == ("phik.cli", "run")
    module, function = target.groups()
    # what the installed script does: argv[1:] are the command's words
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    proc = subprocess.run([sys.executable, "-c", code, "eval", "phi-k", "--k", "2", "--n", "15"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "24\n", "")


@pytest.mark.parametrize("argv, code", [
    (("verify", "menon", "--k-max", "2", "--n-max", "12", "--f", "tau"), 0),
    (("verify", "menon", "--k-max", "1", "--n-max", "3", "--f", "{table}"), 1),
    (("eval", "phi-k", "--k", "2"), 2),  # argparse's usage error
    (("eval", "phi-k", "--k", HUGE_K, "--n", "3", "--method", "oracle"), 3),
])
def test_a_process_prints_and_exits_as_main_does(argv, code, tmp_path, capsys):
    argv = [word.format(table=_bad_table(tmp_path)) for word in argv]
    try:
        returned = main(argv)
    except SystemExit as exc:
        returned = exc.code
    captured = capsys.readouterr()
    proc = phik_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (returned, captured.out, captured.err)
    assert returned == code and (captured.out + captured.err).strip()


def test_a_large_out_file_written_by_a_process_is_complete(tmp_path):
    grid = range(2, 1500)  # about 300 kB of JSON
    target = tmp_path / "rows.json"
    proc = phik_process("error-table", "--k", "2", "--x-grid", ",".join(map(str, grid)),
                        "--prime-bound", "1000", "--format", "json", "--out", str(target))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert [row["x"] for row in json.loads(target.read_text())] == [str(x) for x in grid]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a pool needs 2 CPUs")
def test_a_process_pool_ends_with_its_command(tmp_path):
    outputs = []
    for workers in ("1", "2"):
        # 800 cells: two workers at menon.SWEEP_POOL_FLOOR
        argv = ["verify", "menon", "--k-max", "2", "--n-max", "400", "--workers", workers]
        out = tmp_path / f"workers-{workers}.txt"
        with open(out, "w") as fh:  # a file, not a pipe that a leftover worker would hold open
            proc = subprocess.Popen([sys.executable, "-m", "phik.cli", *argv], stdout=fh,
                                    stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=60)
        finally:
            try:  # the command's session holds every process it started: kill what is left
                os.killpg(proc.pid, signal.SIGKILL)
                left = True
            except ProcessLookupError:
                left = False
        assert not left, f"--workers {workers} left a process running"
        outputs.append((code, out.read_text()))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize("table, part, key", [
    ({"x": 1}, "f", "x"),
    ({"f": {"1": 1, "2.5": 2}}, "f", "2.5"),
    ({"f": {"1": 1}, "mu_f": {"": 1}}, "mu_f", ""),
])
def test_a_table_key_that_is_not_an_integer_is_named(tmp_path, capsys, table, part, key):
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(table))
    assert run_cli("verify", "menon", "--k-max", "2", "--n-max", "4", "--f", f"table:{path}") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: table:{path} {part} has a key {key!r} that is not an integer\n"


def test_a_table_file_that_is_not_json_is_named(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{1: 2}")
    assert run_cli("verify", "menon", "--k-max", "2", "--n-max", "4", "--f", f"table:{path}") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: table file {path} is not valid JSON: Expecting property name "
                   f"enclosed in double quotes: line 1 column 2 (char 1)\n")


@pytest.mark.parametrize("argv, message", [
    (("--k", "2", "--n", "0"), "modulus n must be a positive integer, got 0"),
    (("--k", "0", "--n", "6"), "tuple length k must be a positive integer, got 0"),
])
def test_eval_jordan_passes_the_argument_gate(capsys, argv, message):
    assert run_cli("eval", "jordan", *argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "table",
    [{"f": [1, 2, 3]}, {"f": {"1": 1, "2": 2}, "mu_f": [1]}],
    ids=["f-list", "mu_f-list"],
)
def test_malformed_table_file_is_usage_error(tmp_path, capsys, table):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    code = run_cli("eval", "gcd-sum", "--k", "1", "--n", "4", "--f", f"table:{path}",
                   "--method", "oracle")
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "g-k", "--k", "2", "--n", "15", "--budget", "5"),
        ("eval", "jordan", "--k", "2", "--n", "2", "--workers", "2"),
        ("eval", "phi-k", "--k", "2", "--n", "15", "--method", "oracle", "--workers", "2"),
        ("verify", "lemmas", "--n-max", "4", "--workers", "2"),
        ("sum", "phi-k", "--k", "2", "--x", "10", "--budget", "5"),
        ("constant", "--k", "2", "--workers", "2"),
        ("error-table", "--k", "2", "--x-grid", "10", "--budget", "5"),
    ],
)
def test_unread_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fields",
    [
        (("eval", "n-k", "--k", "2", "--n", "15", "--d", "3", "--delta", "1", "--method", "oracle"),
         {"k": "2", "n": "15", "d": "3", "delta": "1", "value": "16"}),
        (("eval", "phi-k-nm", "--k", "2", "--n", "15", "--m", "3", "--method", "oracle"),
         {"k": "2", "n": "15", "m": "3", "value": "32"}),
        (("eval", "phi-k-nm", "--k", "2", "--n", "15", "--m", "3", "--method", "recursion"),
         {"k": "2", "n": "15", "m": "3", "value": "32"}),
        (("eval", "gcd-sum", "--k", "2", "--n", "3", "--f", " tau ", "--method", "oracle"),
         {"k": "2", "n": "3", "f": "tau", "value": "3"}),
    ],
)
def test_value_commands_echo_parameters(capsys, argv, fields):
    assert run_cli(*argv, "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == fields


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "sita-ramaiah", "--n-max", "0"),
        ("verify", "menon", "--k-max", "0", "--n-max", "5"),
        ("verify", "lemmas", "--n-max", "-3", "--k-max", "2"),
    ],
)
def test_empty_sweep_is_usage_error(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("error-table", "--k", "130", "--x-grid", "1000", "--prime-bound", "1000"),
    ],
)
def test_main_term_overflow_is_usage_error(capsys, argv):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "k=130" in err and "x=1000" in err


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "argv, env, pool_size",
    [
        (("sum", "phi-k", "--k", "2", "--x", "1000", "--workers", "8"), {}, 3),
        (("sum", "phi-k", "--k", "2", "--x", "1000"), {"PHIK_WORKERS": "8"}, 3),
        (("sum", "phi-k", "--k", "2", "--x", "9", "--workers", "8"), {}, 2),
        (("verify", "sita-ramaiah", "--n-max", "2", "--workers", "8"), {}, 2),
    ],
)
def test_workers_capped_at_cpus_and_tasks(monkeypatch, capsys, argv, env, pool_size):
    # three usable CPUs; the fake pool starts no process, and 8 requested
    # workers keep a regression that bypasses the fake small; a direct sum
    # splits at 4 numbers per worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(summatory, "POOL_FLOOR", 4)
    monkeypatch.setattr(menon, "SWEEP_POOL_FLOOR", 1)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run_cli(*argv) == 0
    parallel_out = capsys.readouterr().out
    assert _SerialPool.sizes == [pool_size]
    assert run_cli(*argv, "--workers", "1") == 0
    assert capsys.readouterr().out == parallel_out


def test_a_direct_sum_below_the_pool_floor_starts_no_pool(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    assert sum_phi_k_direct(2, 4000, workers=3) == sum_phi_k_direct(2, 4000)
    argv = ("sum", "phi-k", "--k", "2", "--x", "1000")
    assert run_cli(*argv, "--workers", "8") == 0
    parallel_out = capsys.readouterr().out
    assert run_cli(*argv, "--workers", "1") == 0
    assert capsys.readouterr().out == parallel_out
    assert _SerialPool.sizes == []
    # each worker gets at least POOL_FLOOR numbers
    monkeypatch.setattr(summatory, "POOL_FLOOR", 100)
    assert sum_phi_k_direct(2, 199, workers=3) == sum_phi_k_direct(2, 199)
    assert _SerialPool.sizes == []
    assert sum_phi_k_direct(2, 200, workers=3) == sum_phi_k_direct(2, 200)
    assert _SerialPool.sizes == [2]


def test_a_sweep_below_the_pool_floor_starts_no_pool(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    argv = ("verify", "menon", "--k-max", "3", "--n-max", "40", "--f", "tau")  # 120 cells
    assert run_cli(*argv, "--workers", "2") == 0
    parallel_out = capsys.readouterr().out
    assert run_cli(*argv, "--workers", "1") == 0
    assert capsys.readouterr().out == parallel_out
    assert _SerialPool.sizes == []
    # each worker gets at least SWEEP_POOL_FLOOR cells
    for floor, pool_size in ((41, 2), (40, 3)):
        monkeypatch.setattr(menon, "SWEEP_POOL_FLOOR", floor)
        assert run_cli(*argv, "--workers", "8") == 0
        assert capsys.readouterr().out == parallel_out
        assert _SerialPool.sizes.pop() == pool_size


@pytest.mark.parametrize(
    "argv, env",
    [
        (("sum", "phi-k", "--k", "2", "--x", "100", "--workers", "-4"), {}),
        (("sum", "phi-k", "--k", "2", "--x", "100", "--workers", "0"), {}),
        (("verify", "sita-ramaiah", "--n-max", "5", "--workers", "0"), {}),
        (("sum", "phi-k", "--k", "2", "--x", "100"), {"PHIK_WORKERS": "abc"}),
    ],
)
def test_bad_worker_counts_are_usage_errors(argv, env):
    proc = subprocess.run(
        [sys.executable, "-m", "phik.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("method", ["convolution", "both"])
def test_every_sum_method_refuses_a_bad_worker_count(capsys, method, workers):
    assert run_cli("sum", "phi-k", "--k", "2", "--x", "100", "--method", method,
                   "--workers", workers) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: worker count must be a positive integer, got {workers}\n"


def test_prime_bound_over_budget_is_refused():
    proc = subprocess.run(
        [sys.executable, "-m", "phik.cli", "constant", "--k", "2", "--prime-bound", "100000000000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget refused:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("error-table", "--k", "2", "--x-grid", "100", "--prime-bound", "5000"),
    ],
)
def test_prime_bound_respects_sieve_limit(capsys, argv):
    assert run_cli(*argv) == 0
    capsys.readouterr()
    assert run_cli(*argv, "--sieve-limit", "4000") == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget refused:")


def test_both_methods_stop_at_a_convolution_refusal_before_the_direct_sum(capsys, monkeypatch):
    from phik import BudgetExceededError, summatory

    def refuse(*args, **kwargs):
        raise BudgetExceededError("the convolution route refused")

    def no_sum(*args, **kwargs):
        raise AssertionError("the direct sum ran after the convolution route refused")

    monkeypatch.setattr(summatory, "sum_phi_k_convolution", refuse)
    monkeypatch.setattr(summatory, "sum_phi_k_direct", no_sum)
    assert run_cli("sum", "phi-k", "--k", "2", "--x", "100", "--method", "both") == 3
    assert capsys.readouterr() == ("", "budget refused: the convolution route refused\n")


def _add_one_to(monkeypatch, route: str) -> None:
    """Make the library function "module.function" give one more than it does."""
    module, name = route.split(".")
    module = import_module(f"phik.{module}")
    fn = getattr(module, name)

    def off_by_one(*args, **kwargs):
        result = fn(*args, **kwargs)
        return result + 1

    monkeypatch.setattr(module, name, off_by_one)


@pytest.mark.parametrize("argv, route, line", [
    (("eval", "n-k", "--k", "2", "--n", "15", "--d", "3", "--delta", "1", "--method", "all"),
     "totients.n_k_recursion", "oracle=16 recursion=17 closed=16"),
    (("eval", "phi-k", "--k", "2", "--n", "15", "--method", "all"), "totients.phi_k_oracle",
     "oracle=25 closed=24"),
    (("eval", "gcd-sum", "--k", "2", "--n", "3", "--f", "tau", "--method", "all"),
     "menon.gcd_sum_rhs", "oracle=3 closed=4"),
    (("sum", "phi-k", "--k", "2", "--x", "10", "--method", "both"),
     "summatory.sum_phi_k_convolution", "convolution=64 direct=63"),
])
def test_a_route_off_the_others_is_a_method_mismatch(capsys, monkeypatch, argv, route, line):
    _add_one_to(monkeypatch, route)
    assert run_cli(*argv) == 1
    assert capsys.readouterr() == ("", f"METHOD MISMATCH (implementation bug): {line}\n")


@pytest.mark.parametrize("argv", [
    ("eval", "phi-k", "--k", "3", "--n", "60"),
    ("eval", "phi-k-nm", "--k", "3", "--n", "60", "--m", "12"),
    ("eval", "n-k", "--k", "3", "--n", "60", "--d", "3", "--delta", "5"),
    ("eval", "gcd-sum", "--k", "3", "--n", "60", "--f", "tau"),
])
def test_every_route_prints_what_all_prints(capsys, argv):
    cmd = next(cmd for cmd in COMMANDS if cmd.path == argv[:2])
    outputs = set()
    for method in (*cmd.fn, "all"):
        assert run_cli(*argv, "--method", method) == 0
        outputs.add(capsys.readouterr())
    assert len(outputs) == 1 and outputs.pop()[1] == ""


@pytest.mark.parametrize("route, argv, fail", [
    ("totients.n_k_oracle", ("verify", "lemmas", "--n-max", "3", "--k-max", "2"),
     "FAIL k=1 n=1 d=1 delta=1 route=oracle lhs=2 rhs=1"),
    ("totients.phi_k_nm_recursion", ("verify", "phi-k-nm", "--k-max", "2", "--n-max", "3"),
     "FAIL k=1 n=1 m=1 route=recursion lhs=2 rhs=1"),
])
def test_a_route_off_the_first_fails_its_sweep_naming_the_cell_and_route(capsys, monkeypatch,
                                                                         route, argv, fail):
    _add_one_to(monkeypatch, route)
    assert run_cli(*argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAIL" and fail in lines


@pytest.mark.parametrize("argv", [
    "verify menon --k-max 1 --n-max 4 --f pow:100000000",
    "eval gcd-sum --k 2 --n 6 --f pow:100000000",
])
def test_a_huge_power_of_f_is_refused_at_once(argv):
    # each ran on building f(2) = 2**(10**8): pow:j goes through `core.power`'s guard
    start = time.perf_counter()
    proc = phik_process(*argv.split(), timeout=10)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3 and "Traceback" not in proc.stderr
    refusal = "the power 2**100000000 has more than 1048576 bits, the longest phik builds"
    assert refusal in (proc.stdout if argv.startswith("verify") else proc.stderr)


def test_gcd_sum_refuses_many_prime_factors_at_once():
    # the closed form's divisor sum takes prod (e+1)(e+2)/2 = 3**20 transform terms here
    proc = phik_process("eval", "gcd-sum", "--k", "2", "--n", PRIMORIAL_20, timeout=10)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("budget refused: gcd-sum divisor sum at k=2, n=5579408")
    assert "--" not in proc.stderr


def test_sieve_refusal_advice_matches_the_subcommand(capsys):
    assert run_cli("constant", "--k", "2", "--prime-bound", "100000000000") == 3
    err = capsys.readouterr().err
    assert err.startswith("budget refused:") and "100000000000" in err
    assert "sieve_limit" not in err and "--sieve-limit" not in err
    assert run_cli("error-table", "--k", "2", "--x-grid", "100", "--prime-bound", "5000",
                   "--sieve-limit", "4000") == 3
    assert "--sieve-limit" in capsys.readouterr().err


def test_lemma_sweep_over_budget_is_refused_quickly():
    # sum over n <= 1000 of sigma(n) + sigma(n)**2 is about 10**9 checks
    proc = subprocess.run(
        [sys.executable, "-m", "phik.cli", "verify", "lemmas", "--n-max", "1000"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget refused:") and "Traceback" not in proc.stderr


def test_lemma_sweep_reads_the_budget(capsys):
    # at n = 12 the sweep makes exactly 2092 checks
    argv = ("verify", "lemmas", "--n-max", "12", "--k-max", "2")
    assert run_cli(*argv, "--budget", "2092") == 0
    assert "identity=lemmas checked=2092 " in capsys.readouterr().out
    assert run_cli(*argv, "--budget", "2091") == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget refused:")


def test_long_answers_print_up_to_the_cap(capsys):
    # phi_15000(3) = 2 * (2**15000 - 1) / 3 has 4516 digits, past Python's default 4300
    expected = str(2 * (2**15000 - 1) // 3)
    assert run_cli("eval", "phi-k", "--k", "15000", "--n", "3") == 0
    assert capsys.readouterr().out.strip() == expected
    assert run_cli("eval", "phi-k", "--k", "15000", "--n", "3", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["value"] == expected


@pytest.mark.parametrize("k, code", [(209590, 0), (209591, 3)])
def test_answers_over_the_cap_are_refused(capsys, k, code):
    # J_k(3) = 3**k - 1 has 100000 digits at k = 209590 and 100001 at k = 209591
    assert run_cli("eval", "jordan", "--k", str(k), "--n", "3") == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.startswith("budget refused:")
    else:
        assert len(captured.out.strip()) == 100000


def test_large_k_convolution_is_quick_and_agrees_with_direct():
    # every quotient x // d is at most k + 1, so S_k's polynomial is not built
    values = {}
    for method in ("convolution", "both", "direct"):
        proc = subprocess.run(
            [sys.executable, "-m", "phik.cli", "sum", "phi-k", "--k", "1000", "--x", "10",
             "--method", method, "--format", "json"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 0, proc.stderr
        values[method] = json.loads(proc.stdout)["value"]
    assert values["convolution"] == values["both"] == values["direct"]


# -- the parser surface: built along argv, the same texts as the full parser -----

TOP_ROWS = {
    "eval": "values by closed form, recursion or oracle",
    "verify": "identity sweeps against oracles",
    "sum": "exact partial sums",
    "constant": "enclose the average-order constant C_k",
    "error-table": "exact sums against the main term",
}
LEAVES = {
    "eval": {"phi-k": "phi_k(n)", "phi-k-nm": "two-parameter phi_k(n, m)",
             "g-k": "convolution factor g_k(n)", "n-k": "unit-tuple count N_k(n, d, delta)",
             "jordan": "Jordan totient J_k(n)", "gcd-sum": "gcd sum over admissible tuples"},
    "verify": {"menon": "gcd-sum identity, arbitrary f",
               "sita-ramaiah": "k = 2 gcd-sum specialization",
               "nageswara-rao": "joint-gcd power identity",
               "lemmas": "residue-class counts and N_k machinery",
               "phi-k-nm": "every route of phi_k(n, m), every m | n"},
    "sum": {"phi-k": "sum of phi_k(n) for n <= x"},
}


def cli_exit(capsys, *argv) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def lists_rows(text: str, rows: dict) -> bool:
    return all(re.search(rf"^ +{re.escape(name)} +{re.escape(help)}$", text, re.M)
               for name, help in rows.items())


def test_top_level_help_lists_every_group_and_row(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = cli_exit(capsys, "--help")
    assert code == 0 and lists_rows(out, TOP_ROWS)
    assert "{eval,verify,sum,constant,error-table}" in out


@pytest.mark.parametrize("group", sorted(LEAVES))
def test_group_help_lists_every_leaf(capsys, monkeypatch, group):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = cli_exit(capsys, group, "--help")
    assert code == 0 and lists_rows(out, LEAVES[group])
    assert out.startswith(f"usage: phik {group} [-h] {{{','.join(LEAVES[group])}}} ...")


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda cmd: " ".join(cmd.path))
def test_leaf_help_lists_its_flags_and_formats(capsys, monkeypatch, cmd):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = cli_exit(capsys, *cmd.path, "--help")
    assert code == 0 and out.startswith(f"usage: phik {' '.join(cmd.path)} [-h]")
    for flag in cmd.flags:
        assert f"--{flag if isinstance(flag, str) else flag[0]}" in out
    assert f"--format {{{','.join(cmd.formats)}}}" in out and "--out OUT" in out


@pytest.mark.parametrize("argv, choices", [
    (("bogus",), TOP_ROWS),
    (("eval", "bogus"), LEAVES["eval"]),
    (("verify", "bogus", "--n-max", "3"), LEAVES["verify"]),
    (("sum", "bogus"), LEAVES["sum"]),
])
def test_invalid_choices_exit_2_naming_every_choice(capsys, argv, choices):
    code, out, err = cli_exit(capsys, *argv)
    assert code == 2 and out == ""
    message = err.split("invalid choice: 'bogus'", 1)[1]
    assert all(name in message for name in choices)


@pytest.mark.parametrize("argv, missing", [
    (("eval", "phi-k", "--k", "2"), "--n"),
    (("constant",), "--k"),
    (("error-table", "--k", "2"), "--x-grid"),
    (("eval",), "target"),
    ((), "cmd"),
])
def test_missing_arguments_exit_2(capsys, argv, missing):
    code, out, err = cli_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert f"the following arguments are required: {missing}" in err


def test_full_parser_holds_every_leaf():
    parser = build_parser()
    for cmd in COMMANDS:
        required = [token for flag in cmd.flags if isinstance(flag, str)
                    and flag in ("k", "n", "m", "d", "delta", "x", "x-grid")
                    for token in (f"--{flag}", "1")]
        assert parser.parse_args([*cmd.path, *required]).command is cmd


# -- the command table reads argv as argparse does ------------------------------

# The words a drawn argv gives each flag: well-formed values and awkward ones.
INT_WORDS = ["1", "2", "3", "15", " 2", "+15", "2_0", "0", "-2", "-x", "abc", "1e3", "", "9" * 30]
FLAG_WORDS = {
    "f": ["id", "tau", "pow:2", "", "-x"],
    "method": ["closed", "oracle", "recursion", "all", "direct", "convolution", "both", "bogus"],
    "format": ["plain", "json", "csv", "bogus"],
    "out": ["rows.txt", "-"],
    "x-grid": ["10,100", "x", "-1"],
}
WORKERS_ENV = [None, "2", " 3", "abc", "=2", ""]


@st.composite
def spelled_argv(draw) -> list[str]:
    """A row's path and its required flags plus a few others, then up to three respellings."""
    cmd = draw(st.sampled_from(COMMANDS))
    flags = _row_flags(cmd)
    names = [name for name, spec in flags.items() if spec.get("required")]
    names += draw(st.lists(st.sampled_from(list(flags)), max_size=3))
    words = [[f"--{name}", draw(st.sampled_from(FLAG_WORDS.get(name, INT_WORDS)))]
             for name in dict.fromkeys(names)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["=", "abbreviate", "repeat", "drop", "positional", "help",
                                     "foreign", "path"]))
        if edit in ("=", "abbreviate", "repeat", "drop") and at < len(words) and \
                len(words[at]) == 2:
            flag, value = words[at]
            if edit == "=":
                words[at] = [f"{flag}={value}"]
            elif edit == "abbreviate":
                words[at] = [flag[:draw(st.integers(3, max(3, len(flag) - 1)))], value]
            elif edit == "repeat":
                words.append([flag, draw(st.sampled_from(INT_WORDS))])
            else:
                del words[at]
        elif edit == "positional":
            words.insert(at, ["extra"])
        elif edit == "help":
            words.insert(at, [draw(st.sampled_from(["-h", "--help"]))])
        elif edit == "foreign":
            words.insert(at, [draw(st.sampled_from(["--n", "--k-max", "--x", "--d"])), "2"])
        elif edit == "path":
            cmd = draw(st.sampled_from(COMMANDS))
    return [*cmd.path, *(word for pair in words for word in pair)]


def _printed(call):
    """call()'s value, or (exit code, stdout, stderr) when it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return call()
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _argparse_reads(argv: list[str]):
    """The Namespace argparse reads from argv, or what it prints and its exit code."""
    def parse():
        args, extra = build_parser(argv).parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args

    return _printed(parse)


@settings(max_examples=400, deadline=None)
@given(spelled_argv(), st.sampled_from(WORKERS_ENV))
@example(["eval", "phi-k", "--k=2", "--n", "15"], None)
@example(["eval", "phi-k", "--k", "2", "--k", "3", "--n", "15"], None)
@example(["eval", "phi-k", "--k", "-2", "--n", "15"], None)
@example(["verify", "menon", "--k-m", "2", "--n-max", "10"], None)
@example(["eval", "phi-k", "--k", "2", "--n", "15", "--help"], None)
@example(["eval", "phi-k", "-h"], None)
@example(["verify", "sita-ramaiah", "--n-max", "5"], "abc")
@example(["verify", "sita-ramaiah", "--n-max", "5"], "=2")
@example(["verify", "menon", "--k-max", "2", "--n-max", "10", "--workers", "2"], " 3")
@example(["sum", "phi-k", "--k", "2", "--x", "10", "--method", "all"], None)
@example(["eval", "phi-k", "--k", "2", "--n", "15", "--format", "csv"], None)
@example(["eval", "phi-k", "--k", "2", "--n", "15", "extra"], None)
@example(["eval", "phi-k", "--k", " 2", "--n", "15"], None)
@example(["eval", "phi-k", "--k", "+15", "--n", "15"], None)
@example(["eval", "phi-k", "--k", "2_0", "--n", "15"], None)
@example(["verify", "menon", "--f", ""], None)
@example(["verify", "menon", "--f", "-x"], None)
@example(["eval", "phi-k", "--k", "2"], None)
@example(["error-table", "--k", "2", "--x-grid", "10,100", "--format", "json", "--out", "r"], None)
@example([], None)
@example(["--help"], None)
@example(["eval", "--help"], None)
def test_the_table_reads_argv_as_argparse_does(argv, workers_env):
    # what the table takes, argparse takes alike; what it leaves, main prints as argparse does
    with pytest.MonkeyPatch.context() as patch:
        if workers_env is None:
            patch.delenv("PHIK_WORKERS", raising=False)
        else:
            patch.setenv("PHIK_WORKERS", workers_env)
        table, parsed = _read_table(argv), _argparse_reads(argv)
        if table is not None:
            assert not isinstance(parsed, tuple), parsed
            assert vars(table) == {key: v for key, v in vars(parsed).items() if key != "parser"}
        elif isinstance(parsed, tuple):
            assert _printed(lambda: main(argv)) == parsed


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda cmd: " ".join(cmd.path))
def test_the_table_reads_every_row_with_every_flag(cmd):
    words = {"f": "tau", "out": "rows.txt", "x-grid": "10,100"}
    argv = [*cmd.path, *(word for name, spec in _row_flags(cmd).items() for word in
                         (f"--{name}", spec["choices"][-1] if "choices" in spec
                          else words.get(name, "3")))]
    table = _read_table(argv)
    assert table is not None and table.command is cmd
    assert vars(table) == {key: v for key, v in vars(_argparse_reads(argv)).items()
                           if key != "parser"}


def test_recursion_refusal_names_no_flag():
    # the recursion price has no flag on eval rows: the refusal advises none
    proc = phik_process("eval", "phi-k-nm", "--k", "2", "--n", PRIMORIAL_20, "--m", PRIMORIAL_20,
                        "--method", "recursion", timeout=10)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("budget refused:") and "--" not in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    (["eval", "phi-k", "--k", "9", "--n", "100", "--method", "oracle"], "--budget"),
    (["eval", "gcd-sum", "--k", "9", "--n", "100", "--method", "oracle"], "--budget"),
    (["verify", "lemmas", "--n-max", "1000"], "--budget"),
    (["sum", "phi-k", "--k", "2", "--x", "2000", "--sieve-limit", "1000"], "--sieve-limit"),
    (["error-table", "--k", "2", "--x-grid", "10,2000", "--sieve-limit", "1000"], "--sieve-limit"),
    (["eval", "phi-k", "--k", "2", "--n", "1000000000000000000000000000057"], None),
    (["sum", "phi-k", "--k", "5000", "--x", "10000", "--method", "convolution"], None),
])
def test_refusal_advises_the_flag_that_sets_its_limit(argv, flag, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget refused:") and "raise the budget" not in err
    if flag is None:
        assert "--" not in err
    else:
        assert err.rstrip().endswith(f"; pass a larger {flag} to override")


def test_large_k_bernoulli_build_is_refused_at_once():
    # x > k + 1 needs S_k's polynomial: priced in word operations before any block is summed
    start = time.perf_counter()
    proc = phik_process("sum", "phi-k", "--k", "5000", "--x", "10000", "--method", "convolution",
                        timeout=5)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("budget refused: the power-sum polynomial S_5000,")


def test_both_methods_price_the_bernoulli_build_before_the_direct_sum():
    argv = ("sum", "phi-k", "--k", "5000", "--x", "10000")
    start = time.perf_counter()
    both = phik_process(*argv, "--method", "both", timeout=10)
    assert time.perf_counter() - start < 2
    convolution = phik_process(*argv, "--method", "convolution", timeout=10)
    assert both.returncode == convolution.returncode == 3 and both.stdout == ""
    assert both.stderr == convolution.stderr and "power-sum polynomial S_5000" in both.stderr
