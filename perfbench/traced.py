"""Run one phik command in-process with spans around phik's public functions.

    python perfbench/traced.py SPEC.json OUT.json

SPEC holds {"argv": [...] or null, "calls": [[name, kwargs], ...]}.  The
runner wraps the public functions listed in TRACED wherever phik's modules
hold them, so a call from one module into another is recorded as a child
span of the caller.  It then runs `phik.cli.main(argv)` under a root span
with stdout captured, makes the listed library calls, and writes the spans,
the captured stdout, the exit code and each public lru_cache's
`cache_info()` to OUT.  A fresh interpreter per command keeps the caches
cold, as they are for a user of the CLI.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import time

from phik import cli, core, menon, summatory, totients
from reference import distinct_quotients

MODULES = {"core": core, "totients": totients, "menon": menon, "summatory": summatory, "cli": cli}

# Wrapped in every phik namespace that holds them.  Cached helpers called
# per tuple or per divisor (euler_phi, mobius, units_mod) are read through
# cache_info() instead; the SPF sieve and the Faulhaber calls inside the
# convolution loop are private or internal and are not measured.
TRACED = (
    "cli.main",
    "core.factorize",
    "core.jordan_totient",
    "totients.phi_k",
    "totients.phi_k_nm",
    "totients.g_k",
    "totients.phi_k_oracle",
    "menon.n_k",
    "menon.n_k_recursion",
    "menon.n_k_oracle",
    "menon.gcd_sum_lhs_oracle",
    "menon.gcd_sum_rhs",
    "menon.menon_expansion_rhs",
    "menon.nageswara_rao_lhs_oracle",
    "menon.verify_sweep",
    "menon.lemma_sweep",
    "menon.n_k_sweep",
    "summatory.sum_phi_k_direct",
    "summatory.sum_phi_k_convolution",
    "summatory.primes_up_to",
    "summatory.average_order_constant",
    "summatory.error_term_rows",
)

CACHES = ("core.euler_phi", "core.mobius", "menon.units_mod")


class Tracer:
    """Spans kept in memory as [name, parent, start, end, int/str args, result summary]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, args: dict) -> list:
        span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, args, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        params = list(inspect.signature(fn).parameters)

        def traced(*args, **kwargs):
            bound = dict(zip(params, args))
            bound.update(kwargs)
            span = self.open(name, {key: v for key, v in bound.items()
                                    if isinstance(v, (int, str)) and not isinstance(v, bool)})
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span[5] = _summary(result)
            return result

        traced.__wrapped__ = fn
        return traced


def _summary(result):
    if hasattr(result, "checked"):  # IdentityReport
        return {"checked": result.checked, "skipped": len(result.skipped)}
    if isinstance(result, list):
        return {"len": len(result)}
    return None


def install(tracer: Tracer) -> dict:
    """Replace each TRACED function in every phik namespace; returns name -> wrapper."""
    wrappers = {}
    for name in TRACED:
        module, attr = name.split(".")
        original = getattr(MODULES[module], attr)
        wrapper = tracer.wrap(name, original)
        wrappers[name] = wrapper
        for ns in MODULES.values():
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
    return wrappers


def faulhaber_quotients(tracer: Tracer, k: int, x: int) -> None:
    """faulhaber_sum over the distinct quotients x // d, as one span."""
    quotients = distinct_quotients(x)
    span = tracer.open("summatory.faulhaber_sum", {"k": k, "x": x})
    for q in quotients:
        summatory.faulhaber_sum(k, q)
    tracer.close(span)
    span[5] = {"calls": len(quotients)}


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = Tracer()
    wrappers = install(tracer)
    exit_code = None
    stdout = io.StringIO()
    if spec.get("argv") is not None:
        with contextlib.redirect_stdout(stdout):
            try:
                exit_code = wrappers["cli.main"](spec["argv"])
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else 2
    for name, kwargs in spec.get("calls", []):
        if name == "faulhaber_quotients":
            faulhaber_quotients(tracer, **kwargs)
        else:
            wrappers[name](**kwargs)
    caches = {}
    for name in CACHES:
        module, attr = name.split(".")
        info = getattr(MODULES[module], attr).cache_info()
        caches[name] = {"hits": info.hits, "misses": info.misses}
    with open(out_path, "w") as fh:
        json.dump({"exit": exit_code, "stdout": stdout.getvalue(), "spans": tracer.spans,
                   "caches": caches}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
