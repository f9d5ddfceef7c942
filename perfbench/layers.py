"""Per-layer metrics from the spans and cache counts of one traced pass.

Each metric is a function of the spans recorded by `traced.py`.  Work
counts (terms, tuples, primes, quotients) are computed from the span
arguments with `reference`, or read from results and `cache_info()`, so
they repeat exactly for a given seed.  A metric whose layer the pass never
reached is None; the caller fills it from a probe pass.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import reference as ref


@dataclass(frozen=True)
class Span:
    name: str
    parent: str | None
    dur: float
    self_s: float
    args: dict
    summary: dict | None
    process: int


def flatten(results: list[dict]) -> list[Span]:
    """Spans of several interpreters, each with its duration and self time."""
    out = []
    for process, result in enumerate(results):
        raw = result["spans"]
        child_time = [0.0] * len(raw)
        for name, parent, start, end, _, _ in raw:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, parent, start, end, args, summary) in enumerate(raw):
            parent_name = raw[parent][0] if parent is not None else None
            out.append(Span(name, parent_name, end - start, end - start - child_time[i],
                            args, summary, process))
    return out


@lru_cache(maxsize=None)
def _phi_k(k: int, n: int) -> int:
    return ref.phi_k(k, n)


def _ratio(num: float, den: float):
    return num / den if den else None


def _rate(spans: list[Span], work) -> float | None:
    total = sum(s.dur for s in spans)
    return _ratio(sum(work(s) for s in spans), total) if spans else None


def _total(spans: list[Span]) -> float | None:
    return sum(s.dur for s in spans) if spans else None


def compute(results: list[dict]) -> dict[str, float | None]:
    spans = flatten(results)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    m: dict[str, float | None] = {}

    direct = [s for s in by["summatory.sum_phi_k_direct"] if s.args.get("workers", 1) == 1]
    m["summatory.sum_phi_k_direct.s"] = _total(direct)
    m["summatory.sum_phi_k_direct.terms_per_s"] = _rate(direct, lambda s: s.args["x"])
    m["summatory.sum_phi_k_direct.zero_term_ratio"] = _ratio(
        sum(s.args["x"] // 2 for s in direct if s.args["k"] % 2 == 0), sum(s.args["x"] for s in direct))
    serial = defaultdict(float)
    for s in direct:
        serial[s.args["k"], s.args["x"]] += s.dur
    t1 = tw = 0.0
    for s in by["summatory.sum_phi_k_direct"]:
        key, workers = (s.args["k"], s.args["x"]), s.args.get("workers", 1)
        if workers > 1 and key in serial:
            t1 += serial[key]
            tw += workers * s.dur
    m["summatory.sum_phi_k_direct.parallel_efficiency"] = _ratio(t1, tw)

    conv = by["summatory.sum_phi_k_convolution"]
    m["summatory.sum_phi_k_convolution.s"] = _total(conv)
    m["summatory.sum_phi_k_convolution.terms_per_s"] = _rate(conv, lambda s: s.args["x"])
    m["summatory.sum_phi_k_convolution.squarefree_ratio"] = _ratio(
        sum(ref.squarefree_count(s.args["x"]) for s in conv), sum(s.args["x"] for s in conv))

    faul = by["summatory.faulhaber_sum"]
    m["summatory.faulhaber_sum.s"] = _total(faul)
    m["summatory.faulhaber_sum.calls"] = sum(s.summary["calls"] for s in faul) if faul else None

    primes = by["summatory.primes_up_to"]
    m["summatory.primes_up_to.s"] = _total(primes)
    m["summatory.primes_up_to.primes"] = sum(s.summary["len"] for s in primes) if primes else None

    const = by["summatory.average_order_constant"]
    m["summatory.average_order_constant.s"] = _total(const)
    m["summatory.average_order_constant.self_s"] = sum(s.self_s for s in const) if const else None
    const_primes = sum(s.summary["len"] for s in primes if s.parent == "summatory.average_order_constant")
    m["summatory.average_order_constant.primes_per_s"] = (
        _ratio(const_primes, m["summatory.average_order_constant.s"]) if const else None)
    m["summatory.error_term_rows.s"] = _total(by["summatory.error_term_rows"])

    lhs = by["menon.gcd_sum_lhs_oracle"]
    m["menon.gcd_sum_lhs_oracle.tuples_per_s"] = _rate(lhs, lambda s: s.args["n"] ** s.args["k"])
    m["menon.gcd_sum_lhs_oracle.admissible_ratio"] = _ratio(
        sum(_phi_k(s.args["k"], s.args["n"]) for s in lhs), sum(s.args["n"] ** s.args["k"] for s in lhs))
    m["menon.nageswara_rao_lhs_oracle.tuples_per_s"] = _rate(
        by["menon.nageswara_rao_lhs_oracle"], lambda s: s.args["n"] ** s.args["k"])
    m["menon.n_k_oracle.tuples_per_s"] = _rate(
        by["menon.n_k_oracle"], lambda s: _phi_k(1, s.args["n"]) ** s.args["k"])
    m["totients.phi_k_oracle.tuples_per_s"] = _rate(
        by["totients.phi_k_oracle"], lambda s: s.args["n"] ** s.args["k"])
    for name in ("menon.gcd_sum_rhs", "menon.menon_expansion_rhs", "menon.n_k",
                 "menon.n_k_recursion", "totients.phi_k", "core.jordan_totient"):
        m[f"{name}.calls_per_s"] = _rate(by[name], lambda s: 1)

    m["menon.lemma_sweep.checks_per_s"] = _rate(by["menon.lemma_sweep"], lambda s: s.summary["checked"])
    sweeps = by["menon.verify_sweep"]
    m["menon.verify_sweep.instances_per_s"] = _rate(sweeps, lambda s: s.summary["checked"])
    m["menon.verify_sweep.skipped_ratio"] = _ratio(
        sum(s.summary["skipped"] for s in sweeps),
        sum(s.summary["checked"] + s.summary["skipped"] for s in sweeps))

    for name in ("menon.units_mod", "core.euler_phi", "core.mobius"):
        hits = sum(r["caches"][name]["hits"] for r in results)
        lookups = hits + sum(r["caches"][name]["misses"] for r in results)
        m[f"{name}.hit_ratio"] = _ratio(hits, lookups)

    # first call per distinct input in each interpreter: later calls hit the cache
    first = {}
    for s in by["core.factorize"]:
        first.setdefault((s.process, s.args["n"]), s.dur)
    cold = list(first.values())
    m["core.factorize.median_s"] = statistics.median(cold) if cold else None
    m["core.factorize.max_s"] = max(cold) if cold else None

    mains = by["cli.main"]
    m["cli.main.self_s"] = statistics.median(s.self_s for s in mains) if mains else None
    return m
