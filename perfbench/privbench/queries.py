"""The query workloads: private shortest-path queries on the default engine path.

``QueryEngine(scheme)`` with no options serves every PIR read as a real
two-server XOR retrieval through the packed numpy kernel, with the
512-entry decode cache: the path a caller of the library takes.
"""

from __future__ import annotations

import gc
import itertools
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import ConciseIndexScheme, PassageIndexScheme, QueryEngine
from repro.bench.datasets import load_dataset, system_spec_for
from repro.bench.workloads import generate_workload
from repro.engine.cache import LruCache
from repro.network import all_pairs_sample_costs
from repro.pir import UsablePirSimulator
from repro.pir import kernels
from repro.pir.kernels import PackedDatabase
from repro.schemes import assembly, ci, pi
from repro.schemes.base import PreparedQuery

from .machine import peak_rss_mb
from .results import WorkloadResult
from .stats import (
    Tally,
    fastest_window_mean,
    percentile,
    self_time_by_name,
    total_time_by_name,
    windowed_percentile,
)
from .tracing import Hook, Tracer

Pair = Tuple[int, int]

#: Pairs drawn per run, the size of the paper's query workload; the closed
#: loop and the batches take their pairs in turn from one cycle over them.
POOL_SIZE = 1000
#: Pairs per ``run_batch`` call of the throughput measurement.
BATCH_SIZE = 100
#: Share of the measuring time spent on the closed loop (the rest on batches).
CLOSED_LOOP_SHARE = 0.6
#: The closed loop and the batches alternate this many times, so that both
#: sample the machine's speed across the whole run, not one stretch of it.
#: Each round's closed loop is one window of the latency percentiles.
ROUNDS = 15
#: Set-ups per untraced run; set-up time is reported as their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class QueryWorkload:
    dataset: str
    scheme: type
    #: The module whose globals the scheme's build and query resolve.
    module: object


#: Both workloads draw uniform random pairs, as the paper's workload does.
WORKLOADS: Dict[str, QueryWorkload] = {
    "ci-uniform": QueryWorkload("germany", ConciseIndexScheme, ci),
    "pi-uniform": QueryWorkload("oldenburg", PassageIndexScheme, pi),
}


class _Checker:
    """Checks results outside the timed regions: cost and adversary view."""

    def __init__(self, network, plan, tally: Tally) -> None:
        self.network = network
        self.expected_view = plan.expected_adversary_view()
        self.tally = tally
        self._pending: List[Tuple[Pair, float, object]] = []

    def add(self, pair: Pair, result) -> None:
        self.tally.attempt()
        self._pending.append((pair, result.path.cost, result.adversary_view))

    def add_exception(self) -> None:
        self.tally.attempt()
        self.tally.fail("exception")

    def check(self) -> None:
        pending, self._pending = self._pending, []
        truth = all_pairs_sample_costs(self.network, {pair for pair, _, _ in pending})
        for pair, cost, view in pending:
            if not math.isclose(cost, truth[pair], rel_tol=1e-4, abs_tol=1e-6):
                self.tally.fail("wrong_cost")
            elif view != self.expected_view:
                self.tally.fail("wrong_view")


def _set_up(spec: QueryWorkload, seed: int, tracer: Optional[Tracer] = None):
    """Network generation, scheme build, engine boot and the first query.

    The first query packs every page file into the XOR kernel, so the
    packing cost lands in set-up rather than in the first timed query.
    """
    network = load_dataset(spec.dataset)
    with tracer.span("setup.build") if tracer is not None else nullcontext():
        scheme = spec.scheme.build(network, spec=system_spec_for("quick"))
    engine = QueryEngine(scheme)
    pairs = generate_workload(network, count=POOL_SIZE, seed=seed)
    warm = engine.execute(*pairs[0])
    return network, scheme, engine, pairs, warm


def _closed_loop(engine, pairs: Iterator[Pair], seconds: float, checker: _Checker,
                 wall: List[float], simulated: List[float],
                 on_query: Optional[Callable[[int], None]] = None,
                 tracer: Optional[Tracer] = None) -> None:
    """One client, one query at a time; appends wall and simulated times."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pair = next(pairs)
        if tracer is not None:
            tracer.request = len(wall)
        started = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("engine.execute"):
                    result = engine.execute(*pair)
            else:
                result = engine.execute(*pair)
        except Exception:
            checker.add_exception()
            continue
        wall.append(time.perf_counter() - started)
        simulated.append(result.response.total_s)
        checker.add(pair, result)
        if on_query is not None:
            on_query(result.total_pir_pages)
    checker.check()


def _batches(engine, pairs: Iterator[Pair], seconds: float, checker: _Checker,
             rates: List[float]) -> None:
    """Back-to-back ``run_batch`` calls at default settings; appends queries/s of each."""
    deadline = time.perf_counter() + seconds
    done_here = 0
    errors = 0
    while (time.perf_counter() < deadline or not done_here) and errors < 3:
        batch = list(itertools.islice(pairs, BATCH_SIZE))
        started = time.perf_counter()
        try:
            done = engine.run_batch(batch, verify_costs=False)
        except Exception:
            checker.add_exception()
            errors += 1
            continue
        rates.append(len(batch) / (time.perf_counter() - started))
        done_here += 1
        for pair, result in zip(batch, done.results):
            checker.add(pair, result)
    checker.check()


def run(name: str, seed: int, seconds: float, trace: bool) -> WorkloadResult:
    spec = WORKLOADS[name]
    out = WorkloadResult()
    if trace:
        return _run_traced(spec, seed, seconds, out)

    setups: List[float] = []
    engine = None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
            del engine, scheme, network, pairs, warm
            gc.collect()
        started = time.perf_counter()
        network, scheme, engine, pairs, warm = _set_up(spec, seed)
        setups.append(time.perf_counter() - started)
        checker = _Checker(network, scheme.plan, out.tally)
        checker.add(pairs[0], warm)
        checker.check()

    latencies: List[List[float]] = []
    simulated: List[float] = []
    rates: List[float] = []
    traffic = itertools.cycle(pairs)
    with engine:
        for _ in range(ROUNDS):
            latencies.append([])
            _closed_loop(engine, traffic, seconds * CLOSED_LOOP_SHARE / ROUNDS,
                         checker, latencies[-1], simulated)
            _batches(engine, traffic, seconds * (1 - CLOSED_LOOP_SHARE) / ROUNDS,
                     checker, rates)

    mean, count = fastest_window_mean(latencies)
    p50 = windowed_percentile(latencies, 50)
    p90 = windowed_percentile(latencies, 90)
    out.end_to_end = {
        "latency_ms.mean": (mean * 1e3, "ms", count),
        "latency_ms.p90": (p90.value * 1e3, "ms", p90.count),
        "throughput_per_s": (median(rates), "1/s", len(rates)),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb(), "MB", None),
        "db_mb": (scheme.storage_mb, "MB", None),
    }
    out.details = {
        "setup_runs_s": setups,
        "batch_rates_per_s": rates,
        "query_ms.p50": p50.value * 1e3,
        "sim_response_s": sum(simulated) / len(simulated),
        "pairs_distinct": len(set(pairs)),
    }
    out.notes.append(f"query_ms.p50 = {p50.value * 1e3:.6g} ms (n={p50.count})")
    out.notes.append(
        f"sim_response_s = {out.details['sim_response_s']:.6f} s "
        f"(mean simulated response, n={len(simulated)})"
    )
    return out


# ---------------------------------------------------------------------- #
# the traced run
# ---------------------------------------------------------------------- #
def count_kernel(tracer: Tracer, result, kernel, masks) -> None:
    tracer.count("kernel.calls")
    tracer.count("kernel.masks", len(masks))
    tracer.count("kernel.rows", sum(mask.bit_count() for mask in masks))


def _count_cache(tracer: Tracer, result, cache, key) -> None:
    kind = key[0] if isinstance(key, tuple) and key else "other"
    hit = result is not None
    tracer.count("cache.gets")
    tracer.count("cache.hits", hit)
    if kind == "csr":
        tracer.count("cache.csr_gets")
        tracer.count("cache.csr_hits", hit)


def _count_call(tracer: Tracer, result, *args, **kwargs) -> None:
    tracer.count("pir.calls")


def setup_hooks(module) -> List[Hook]:
    return [
        (module, "packed_kdtree_partition", "setup.partition", None),
        (module, "compute_border_nodes", "setup.border_nodes", None),
        (module, "compute_border_products", "setup.border_products", None),
        (kernels, "kernel_from_pages", "setup.pack", None),
    ]


def query_hooks(spec: QueryWorkload) -> List[Hook]:
    assemble = "assemble_region_csr" if spec.scheme is ConciseIndexScheme else "assemble_passage_csr"
    return [
        (spec.scheme, "prepare_query", "schemes.prepare", None),
        (PreparedQuery, "solve", "schemes.solve", None),
        (assembly, assemble, "schemes.assembly", None),
        (spec.module, "csr_shortest_path", "network.search", None),
        (UsablePirSimulator, "retrieve_page", "pir.retrieve", _count_call),
        (UsablePirSimulator, "retrieve_pages", "pir.retrieve", _count_call),
        (kernels, "random_subset_masks", "pir.mask_draw", None),
        (PackedDatabase, "answer_rows", "pir.kernel", count_kernel),
        (PackedDatabase, "rows_to_blocks", "pir.combine", None),
        (LruCache, "get", None, _count_cache),
    ]


def setup_layers(tracer: Tracer) -> Dict[str, float]:
    """Set-up seconds by stage from the set-up spans."""
    totals = total_time_by_name(tracer.spans)
    own = self_time_by_name(tracer.spans)
    return {
        "setup.partition_s": totals.get("setup.partition", 0.0),
        "setup.border_nodes_s": totals.get("setup.border_nodes", 0.0),
        "setup.border_products_s": totals.get("setup.border_products", 0.0),
        "setup.encode_s": own.get("setup.build", 0.0),
        "setup.pack_s": totals.get("setup.pack", 0.0),
    }


def _run_traced(spec: QueryWorkload, seed: int, seconds: float, out: WorkloadResult) -> WorkloadResult:
    tracer = Tracer()
    with tracer.patch(setup_hooks(spec.module)):
        network, scheme, engine, pairs, warm = _set_up(spec, seed, tracer)
    layers = setup_layers(tracer)
    setup_spans = len(tracer.spans)

    checker = _Checker(network, scheme.plan, out.tally)
    checker.add(pairs[0], warm)
    pages: List[int] = []
    untraced: List[float] = []
    traced: List[float] = []
    traffic = itertools.cycle(pairs)
    with engine:
        _closed_loop(engine, traffic, seconds * 0.3, checker, untraced, [])
        with tracer.patch(query_hooks(spec)):
            _closed_loop(engine, traffic, seconds * 0.7, checker, traced, [],
                         on_query=pages.append, tracer=tracer)
    queries = len(traced)
    # spans are appended as they end, so every set-up span comes first
    own = self_time_by_name(tracer.spans[setup_spans:])
    totals = total_time_by_name(tracer.spans[setup_spans:])
    c = tracer.counters
    kernel_s = totals.get("pir.kernel", 0.0)
    rows = c.get("kernel.rows", 0)
    untraced_p50 = percentile(untraced, 50).value * 1e3
    traced_p50 = percentile(traced, 50).value * 1e3

    def per_query_ms(seconds_total: float) -> float:
        return seconds_total / queries * 1e3

    figures: Dict[str, Tuple[float, str]] = {
        "pir.calls_per_query": (c.get("pir.calls", 0) / queries, "count"),
        "pir.retrieve_self_ms": (per_query_ms(own.get("pir.retrieve", 0.0)), "ms"),
        "pir.mask_draw_ms": (per_query_ms(totals.get("pir.mask_draw", 0.0)), "ms"),
        "pir.combine_ms": (per_query_ms(totals.get("pir.combine", 0.0)), "ms"),
        "pir.kernel_ms": (per_query_ms(kernel_s), "ms"),
        "pir.kernel_calls_per_query": (c.get("kernel.calls", 0) / queries, "count"),
        "pir.kernel_masks_per_call": (
            c.get("kernel.masks", 0) / max(1, c.get("kernel.calls", 0)), "count"),
        "pir.kernel_rows_per_query": (rows / queries, "count"),
        "pir.kernel_ns_per_row": (kernel_s / rows * 1e9 if rows else 0.0, "ns"),
        "pir.kernel_share": (kernel_s / totals["engine.execute"], "fraction"),
        "engine.cache.csr_hit_ratio": (
            c.get("cache.csr_hits", 0) / max(1, c.get("cache.csr_gets", 0)), "fraction"),
        "engine.cache.hit_ratio": (
            c.get("cache.hits", 0) / max(1, c.get("cache.gets", 0)), "fraction"),
        "engine.self_ms": (per_query_ms(own.get("engine.execute", 0.0)), "ms"),
        "schemes.prepare_self_ms": (per_query_ms(own.get("schemes.prepare", 0.0)), "ms"),
        "schemes.solve_self_ms": (per_query_ms(own.get("schemes.solve", 0.0)), "ms"),
        "schemes.assembly_ms": (per_query_ms(totals.get("schemes.assembly", 0.0)), "ms"),
        "schemes.pages_per_query": (sum(pages) / queries, "count"),
        "network.search_ms": (per_query_ms(totals.get("network.search", 0.0)), "ms"),
        "trace.query_ms.p50": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
    }
    figures.update({name: (value, "s") for name, value in layers.items()})
    out.per_layer = {name: (value, unit, None) for name, (value, unit) in figures.items()}
    out.details["traced_queries"] = queries
    out.details["untraced_p50_ms"] = untraced_p50
    out.details["tracer"] = tracer
    return out
