"""The command-line surface: values, formats, exit codes."""
import concurrent.futures
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

from phik.cli import COMMANDS, build_parser, main


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


# each hung, raised a traceback or misreported its exit: a price built before it was compared,
# a kernel digit k bits wide at phi(n) = 1, or a sweep grid listed before it was priced
@pytest.mark.parametrize("argv, code", [
    (f"oracle phi-k --k {HUGE_K} --n 3", 3),
    (f"oracle menon-lhs --k {HUGE_K} --n 3", 3),
    (f"oracle n-k --k {HUGE_K} --n 3 --d 1 --delta 1", 3),
    ("oracle phi-k --k 1000000000 --n 2", 3),
    (f"oracle phi-k --k {HUGE_K} --n 1", 0),
    (f"oracle n-k --k {HUGE_K} --n 2 --d 1 --delta 1", 0),
    ("oracle n-k --k 1000000000 --n 2 --d 1 --delta 1", 0),
    (f"verify menon --k-max {HUGE_K} --n-max 2", 3),
    (f"verify nageswara-rao --k-max {HUGE_K} --n-max 2", 3),
    (f"verify sita-ramaiah --n-max {HUGE_K}", 3),
    (f"verify lemmas --n-max 5 --k-max {HUGE_K}", 3),
])
def test_huge_arguments_end_at_once(argv, code):
    proc = phik_process(*argv.split(), timeout=10)
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code == 3:
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("budget refused:")
    else:
        assert (proc.stdout, proc.stderr) == ("1\n", "")


def test_experimental_regime_warns_in_one_line():
    proc = phik_process("oracle", "phi-k", "--k", "2", "--n", "10", "--m", "3")
    assert proc.returncode == 0
    assert proc.stdout == "12\n"
    assert proc.stderr == (
        "warning: m=3 does not divide n=10: experimental regime, "
        "only this brute-force count is available\n"
    )


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
    assert run_cli("oracle", "phi-k", "--k", "2", "--n", "15") == 0
    assert capsys.readouterr().out.strip() == "24"


def test_oracle_budget_refusal(capsys):
    assert run_cli("oracle", "phi-k", "--k", "3", "--n", "50", "--budget", "1000") == 3
    assert "budget" in capsys.readouterr().err


def test_oracle_menon_lhs(capsys):
    assert run_cli("oracle", "menon-lhs", "--k", "2", "--n", "3", "--f", "id") == 0
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


def test_constant_json(capsys):
    assert run_cli("constant", "--k", "2", "--prime-bound", "10000", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == "2" and payload["prime_bound"] == "10000"
    assert payload["lo"] <= 0.286747 <= payload["hi"]
    assert payload["width"] == payload["hi"] - payload["lo"]


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
    ("oracle", "phi-k", "--k", "2", "--n", "12"),
    ("oracle", "phi-k", "--k", "2", "--n", "12", "--m", "6"),
    ("oracle", "n-k", "--k", "2", "--n", "15", "--d", "3", "--delta", "1"),
    ("oracle", "menon-lhs", "--k", "2", "--n", "12", "--f", "tau"),
    ("verify", "menon", "--k-max", "2", "--n-max", "12", "--budget", "100"),
    ("verify", "sita-ramaiah", "--n-max", "8"),
    ("verify", "nageswara-rao", "--k-max", "2", "--n-max", "8"),
    ("verify", "lemmas", "--n-max", "6", "--k-max", "2"),
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
    assert run_cli("oracle", "menon-lhs", "--k", "1", "--n", "4", "--f", "table:/nonexistent.json") == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "phik.cli", "eval", "phi-k", "--k", "2", "--n", "15"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "24"


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
    code = run_cli("oracle", "menon-lhs", "--k", "1", "--n", "4", "--f", f"table:{path}")
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "phi-k", "--k", "2", "--n", "15", "--budget", "5"),
        ("eval", "jordan", "--k", "2", "--n", "2", "--workers", "2"),
        ("oracle", "phi-k", "--k", "2", "--n", "15", "--workers", "2"),
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
        (("oracle", "n-k", "--k", "2", "--n", "15", "--d", "3", "--delta", "1"),
         {"k": "2", "n": "15", "d": "3", "delta": "1", "value": "16"}),
        (("oracle", "phi-k", "--k", "2", "--n", "15", "--m", "3"),
         {"k": "2", "n": "15", "m": "3", "value": "32"}),
        (("eval", "phi-k-nm", "--k", "2", "--n", "15", "--m", "3", "--method", "recursion"),
         {"k": "2", "n": "15", "m": "3", "value": "32"}),
        (("oracle", "menon-lhs", "--k", "2", "--n", "3", "--f", " tau "),
         {"k": "2", "n": "3", "f": "tau", "value": "3"}),
    ],
)
def test_value_commands_echo_parameters(capsys, argv, fields):
    assert run_cli(*argv, "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == fields


def test_sum_csv_reuses_the_sum(monkeypatch, capsys):
    from phik import summatory

    calls = []
    range_sum = summatory._direct_range_sum

    def counted(args):
        calls.append(args)
        return range_sum(args)

    monkeypatch.setattr(summatory, "_direct_range_sum", counted)
    argv = ("sum", "phi-k", "--k", "2", "--x", "500", "--prime-bound", "10000")
    assert run_cli(*argv, "--format", "json") == 0
    value = json.loads(capsys.readouterr().out)["value"]
    calls.clear()
    assert run_cli(*argv, "--format", "csv") == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header.split(",")[1] == "sum" and row.split(",")[1] == value
    assert len(calls) == 1


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
        ("sum", "phi-k", "--k", "130", "--x", "1000", "--prime-bound", "1000", "--format", "csv"),
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
    # workers keep a regression that bypasses the fake small
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run_cli(*argv) == 0
    parallel_out = capsys.readouterr().out
    assert _SerialPool.sizes == [pool_size]
    assert run_cli(*argv, "--workers", "1") == 0
    assert capsys.readouterr().out == parallel_out


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
        ("sum", "phi-k", "--k", "2", "--x", "100", "--prime-bound", "5000", "--format", "csv"),
    ],
)
def test_prime_bound_respects_sieve_limit(capsys, argv):
    assert run_cli(*argv) == 0
    capsys.readouterr()
    assert run_cli(*argv, "--sieve-limit", "4000") == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget refused:")


def test_csv_sum_refuses_its_prime_bound_before_summing(capsys, monkeypatch):
    from phik import summatory

    def no_sum(*args, **kwargs):
        raise AssertionError("the sum ran before the prime bound was checked")

    monkeypatch.setattr(summatory, "sum_phi_k_direct", no_sum)
    monkeypatch.setattr(summatory, "sum_phi_k_convolution", no_sum)
    argv = ("sum", "phi-k", "--k", "2", "--x", "3000000", "--prime-bound", "100000000000",
            "--format", "csv", "--method", "both")
    assert run_cli(*argv) == 3
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
    "eval": "closed-form evaluation",
    "oracle": "counts from the definitions",
    "verify": "identity sweeps against oracles",
    "sum": "exact partial sums",
    "constant": "enclose the average-order constant C_k",
    "error-table": "exact sums against the main term",
}
LEAVES = {
    "eval": {"phi-k": "phi_k(n)", "phi-k-nm": "two-parameter phi_k(n, m)",
             "g-k": "convolution factor g_k(n)", "n-k": "unit-tuple count N_k(n, d, delta)",
             "jordan": "Jordan totient J_k(n)"},
    "oracle": {"phi-k": "phi_k(n) counted from the definition",
               "n-k": "N_k(n, d, delta) counted over unit tuples",
               "menon-lhs": "gcd sum over admissible tuples"},
    "verify": {"menon": "gcd-sum identity, arbitrary f",
               "sita-ramaiah": "k = 2 gcd-sum specialization",
               "nageswara-rao": "joint-gcd power identity",
               "lemmas": "residue-class counts and N_k machinery"},
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
    assert "{eval,oracle,verify,sum,constant,error-table}" in out


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


def test_recursion_refusal_names_no_flag():
    # the recursion price has no flag on eval rows: the refusal advises none
    proc = phik_process("eval", "phi-k-nm", "--k", "2", "--n", PRIMORIAL_20, "--m", PRIMORIAL_20,
                        "--method", "recursion", timeout=10)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("budget refused:") and "--" not in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "phi-k", "--k", "9", "--n", "100"], "--budget"),
    (["oracle", "menon-lhs", "--k", "9", "--n", "100"], "--budget"),
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
