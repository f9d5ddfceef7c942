"""Exact arithmetic for a k-dimensional generalization of Euler's totient.

phi_k(n) counts k-tuples (a_1, ..., a_k) with 1 <= a_i <= n whose product
and whose sum are both coprime to n.  The package provides closed forms,
oracles that count from the definitions, gcd-sum identities over coprime
tuples, exact partial sums, and rigorous enclosures of the average-order
constant.

Every public name is re-exported here, but a module is imported only when
one of its names (or the module itself) is first read: `import phik` alone
loads no submodule, so the command line pays only for what a command runs.
"""

__version__ = "0.1.0"

# Each public name and the module it lives in.
_EXPORTS = {
    "core": (
        "BudgetExceededError", "DEFAULT_ORACLE_BUDGET", "DEFAULT_PRIME_BOUND",
        "DEFAULT_SIEVE_LIMIT", "Factorization", "MultiplicativeFunction", "dirichlet_convolve",
        "divisors", "epsilon_mf", "euler_phi", "eval_mf", "factorize", "id_k_mf", "id_mf",
        "jordan_mf", "jordan_totient", "mobius", "mobius_mf", "mobius_transform", "one_mf",
        "phi_mf", "piltz_mf", "tau", "tau_mf",
    ),
    "totients": (
        "g_k", "g_k_mf", "n_k", "n_k_oracle", "n_k_recursion", "phi_k", "phi_k_mf", "phi_k_nm",
        "phi_k_nm_oracle", "phi_k_nm_recursion", "phi_k_oracle",
    ),
    "menon": (
        "FunctionSpec", "IdentityReport", "Instance", "count_units_in_class",
        "count_units_in_two_classes", "gcd_sum_lhs_oracle", "gcd_sum_rhs", "lemma_sweep",
        "lemma_sweeps", "menon_expansion_rhs", "n_k_sweep", "nageswara_rao_lhs_oracle",
        "parse_function_spec", "units_mod", "verify_sweep",
    ),
    "summatory": (
        "Enclosure", "ErrorRow", "PartialSum", "average_order_constant", "error_table_csv",
        "error_term_rows", "faulhaber_sum", "primes_up_to", "sum_phi_k_convolution",
        "sum_phi_k_direct",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's module on first use and bind the name here."""
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
