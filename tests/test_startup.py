"""Start-up: what each command imports, the lazy package namespace, and the BLAS setting."""
import os
import subprocess
import sys

import pytest

import phik
from phik.cli import COMMANDS, main

PUBLIC = """
    BudgetExceededError DEFAULT_ORACLE_BUDGET DEFAULT_PRIME_BOUND DEFAULT_SIEVE_LIMIT Enclosure
    ErrorRow Factorization FunctionSpec IdentityReport Instance MultiplicativeFunction PartialSum
    average_order_constant count_units_in_class count_units_in_two_classes
    dirichlet_convolve divisors epsilon_mf error_table_csv error_term_rows euler_phi eval_mf
    factorize faulhaber_sum g_k g_k_mf gcd_sum_lhs_oracle gcd_sum_rhs id_k_mf id_mf jordan_mf
    jordan_totient lemma_sweep lemma_sweeps menon_expansion_rhs mobius mobius_mf mobius_transform
    n_k n_k_oracle n_k_recursion n_k_sweep nageswara_rao_lhs_oracle one_mf parse_function_spec
    phi_k phi_k_mf phi_k_nm phi_k_nm_oracle phi_k_nm_recursion phi_k_oracle phi_mf piltz_mf
    primes_up_to sum_phi_k_convolution sum_phi_k_direct tau tau_mf units_mod verify_sweep
""".split()

HEAVY = ("phik.menon", "phik.summatory", "phik.residues", "numpy", "dataclasses", "fractions")


def python(code: str, env: dict | None = None) -> str:
    """stdout of a fresh interpreter running code; fails the test on a nonzero exit."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(argv: list[str], modules: tuple[str, ...]) -> list[str]:
    """Which of modules a fresh interpreter holds after running `phik argv`."""
    code = (
        "import sys, contextlib, io\n"
        "from phik.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"print(' '.join(m for m in {modules!r} if m in sys.modules))"
    )
    return python(code).split()


def test_import_phik_loads_no_submodule():
    code = "import sys, phik; print(' '.join(m for m in sys.modules if m.startswith('phik.')))"
    assert python(code).split() == []
    assert python(f"import sys, phik; print([m for m in {HEAVY!r} if m in sys.modules])") == "[]\n"


def test_eval_imports_only_core_and_totients():
    assert loaded_after(["eval", "phi-k", "--k", "2", "--n", "15"], HEAVY) == []
    assert loaded_after(["eval", "phi-k", "--k", "2", "--n", "15"], ("phik.totients",)) == [
        "phik.totients"
    ]


PHIK = tuple(f"phik.{name}" for name in ("cli", "core", "totients", "menon", "summatory",
                                         "residues"))
EVAL_ARGS = {"phi-k-nm": ["--m", "3"], "n-k": ["--d", "3", "--delta", "5"],
             "gcd-sum": ["--f", "tau"]}
# every eval row at every --method choice; a row with one route takes no --method
EVAL_RUNS = [[*cmd.path, "--k", "2", "--n", "15", *EVAL_ARGS.get(cmd.path[1], []), *method]
             for cmd in COMMANDS if cmd.path[0] == "eval"
             for method in ([["--method", m] for m in (*cmd.fn, "all")] if len(cmd.fn) > 1
                            else [[]])]
MENON = ["cli", "core", "totients", "menon"]
RATIONALS = ("fractions", "decimal", "numbers")


@pytest.mark.parametrize("argv", EVAL_RUNS, ids=" ".join)
def test_eval_imports_only_what_its_routes_need(argv):
    # the routes of phi_k, phi_k(n, m) and N_k live in totients, the gcd sum's in menon; no route
    # imports numpy
    loaded = loaded_after(argv, PHIK + ("numpy", "dataclasses", "fractions"))
    modules = {"jordan": ["cli", "core"], "gcd-sum": MENON}.get(
        argv[1], ["cli", "core", "totients"])
    assert loaded == [f"phik.{name}" for name in modules]


def test_canonical_argv_loads_no_argparse_and_help_does():
    # the command table reads canonical argv; argparse (with gettext and locale) prints help
    parsers = ("argparse", "gettext", "locale")
    for argv in (["eval", "phi-k", "--k", "2", "--n", "15"],
                 ["verify", "nageswara-rao", "--k-max", "2", "--n-max", "10"],
                 ["sum", "phi-k", "--k", "2", "--x", "100", "--format", "json"],
                 ["constant", "--k", "2", "--prime-bound", "1000"],
                 ["error-table", "--k", "2", "--x-grid", "10,100", "--prime-bound", "1000"]):
        assert loaded_after(argv, parsers) == [], argv
    code = (
        "import sys, contextlib, io\n"
        "from phik.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    main(['--help'])\n"
        "print('argparse' in sys.modules)"
    )
    assert python(code) == "True\n"


def test_verify_phi_k_nm_imports_menon_and_no_numpy():
    argv = ["verify", "phi-k-nm", "--k-max", "2", "--n-max", "10"]
    assert loaded_after(argv, PHIK + ("numpy",)) == [f"phik.{name}" for name in MENON]


def test_verify_imports_neither_summatory_nor_numpy():
    argv = ["verify", "nageswara-rao", "--k-max", "2", "--n-max", "10"]
    assert loaded_after(argv, ("phik.summatory", "phik.residues", "numpy", "fractions")) == []


def test_eval_n_k_imports_no_fractions():
    argv = ["eval", "n-k", "--k", "2", "--n", "15", "--d", "3", "--delta", "1"]
    assert loaded_after(argv, ("phik.summatory", "numpy", "fractions")) == []


@pytest.mark.parametrize("argv", [
    ["verify", "menon", "--k-max", "2", "--n-max", "12", "--f", "tau"],
    ["verify", "sita-ramaiah", "--n-max", "12"],
])
def test_divisor_sum_side_imports_no_fractions(argv):
    # phi(d) divides phi_k(n) for every d | n: the divisor sum stays in integers
    assert loaded_after(argv, ("phik.summatory", "numpy", "fractions")) == []


@pytest.mark.parametrize("argv", [
    ["constant", "--k", "2", "--prime-bound", "1000"],
    ["constant", "--k", "5", "--format", "json"],
])
def test_the_constant_imports_no_numpy_and_runs_without_it(argv):
    # one byte sieve streams the primes into a product of Python floats, bounded in integers
    assert loaded_after(argv, PHIK + ("numpy",) + RATIONALS) == [
        f"phik.{name}" for name in ("cli", "core", "summatory")]
    code = (
        "import sys, contextlib, io\n"
        "sys.modules['numpy'] = None  # any import of numpy raises ImportError\n"
        "from phik.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(out.getvalue(), end='')"
    )
    with_numpy = subprocess.run([sys.executable, "-m", "phik.cli", *argv], capture_output=True,
                                text=True)
    assert with_numpy.returncode == 0 and python(code) == with_numpy.stdout != ""


def test_sums_import_no_fractions():
    # every bound is rounded from integer ratios, and the sums are exact ints
    argv = ["sum", "phi-k", "--k", "2", "--x", "100", "--method", "both"]
    assert loaded_after(argv, ("phik.summatory", "fractions")) == ["phik.summatory"]


@pytest.mark.parametrize("argv", [
    ["sum", "phi-k", "--k", "3", "--x", "100", "--method", method]
    for method in ("direct", "convolution", "both")
] + [["error-table", "--k", "3", "--x-grid", "10,1000", "--prime-bound", "1000"]])
def test_sums_and_error_tables_load_no_totients(argv):
    # phi_k and g_k at primes and at powers of 2 come from core
    assert loaded_after(argv, PHIK) == [f"phik.{name}" for name in ("cli", "core", "summatory",
                                                                     "residues")]


def test_the_error_table_imports_no_fractions():
    # its main terms are rounded from the enclosure's integer ratios (numpy itself loads numbers)
    argv = ["error-table", "--k", "3", "--x-grid", "10,1000", "--prime-bound", "1000"]
    assert loaded_after(argv, ("phik.summatory", "fractions", "decimal")) == ["phik.summatory"]


@pytest.mark.parametrize("argv", [
    ["sum", "phi-k", "--k", "2", "--x", "100", "--method", "both", "--format", "json"],
    ["constant", "--k", "2", "--prime-bound", "1000", "--format", "json"],
    ["error-table", "--k", "2", "--x-grid", "10,100", "--prime-bound", "1000"],
])
def test_sums_and_the_constant_import_no_dataclasses(argv):
    assert loaded_after(argv, ("dataclasses",)) == []


def test_star_import_binds_each_name_to_its_home_object():
    code = (
        "import phik\n"
        "from phik import *\n"
        "from phik import core, menon, summatory, totients\n"
        "for name in phik.__all__:\n"
        "    homes = [m for m in (core, totients, menon, summatory) if name in vars(m)]\n"
        "    assert homes, name\n"
        "    assert all(vars(m)[name] is globals()[name] for m in homes), name\n"
        "    assert getattr(phik, name) is globals()[name], name\n"
        "print(len(phik.__all__))"
    )
    assert python(code) == f"{len(PUBLIC)}\n"


def test_public_names_are_listed_and_unknown_ones_refused():
    assert phik.__all__ == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(phik))
    assert {"core", "totients", "menon", "summatory", "__version__"} <= set(dir(phik))
    with pytest.raises(AttributeError, match="no_such_name"):
        phik.no_such_name
    assert not hasattr(phik, "phi_k_closed")


def test_submodules_load_on_attribute_access():
    code = "import phik; print(phik.summatory.sum_phi_k_direct(2, 10).value, phik.phi_k(2, 15))"
    assert python(code) == "63 24\n"


def test_main_sets_openblas_threads_only_when_unset(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["eval", "phi-k", "--k", "2", "--n", "15"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert main(["eval", "phi-k", "--k", "2", "--n", "15"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"


def test_library_imports_leave_the_environment_alone():
    env = {key: v for key, v in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    code = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import phik, phik.summatory\n"
        "from phik import *\n"
        "phik.summatory.sum_phi_k_direct(2, 100)\n"
        "print(dict(os.environ) == before)"
    )
    assert python(code, env) == "True\n"


@pytest.mark.parametrize("argv", [
    ["constant", "--k", "2", "--prime-bound", "10000"],
    ["error-table", "--k", "3", "--x-grid", "100,1000,5000"],
])
def test_output_does_not_depend_on_openblas_threads(argv):
    base = {key: v for key, v in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    outputs = set()
    for preset in (None, "4"):
        env = base if preset is None else {**base, "OPENBLAS_NUM_THREADS": preset}
        proc = subprocess.run([sys.executable, "-m", "phik.cli", *argv], capture_output=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
