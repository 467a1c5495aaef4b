"""Benchmark: the asyncio PIR shard service under open-loop load.

Boots a four-shard :class:`repro.serving.ShardCluster` over a real CI scheme
database and measures two things the serving layer promises:

* **Throughput/latency** — the open-loop load generator offers a fixed
  arrival rate of full two-server XOR retrievals (every page verified
  against the database) and reports sustained retrievals/s with p50/p99/max
  latency.  The committed floor requires >= 1k retrievals/s at 4 shards
  wherever numpy serves the packed kernel.
* **Transport transparency** — one engine batch served through the cluster
  must be bit-identical (paths, costs, adversary views) to the same batch
  served in process; ``bit_identical`` is floored at 1.0 unconditionally.

Run directly (``PYTHONPATH=src python benchmarks/bench_serving.py``, add
``--json`` to also write ``benchmarks/results/serving.json``) or through
pytest, which records both result files and applies the metric floors.
"""

from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.bench.workloads import generate_workload
from repro.network import random_planar_network
from repro.pir import resolve_kernel
from repro.schemes import ConciseIndexScheme
from repro.serving import ShardCluster, run_loadgen

#: Offered arrival rate — comfortably above the 1k floor; the floored
#: metric counts in-window arrivals that completed (all of them must, and
#: correctly), while the unfloored service rate records how fast the
#: machine actually drained them.
OFFERED_RATE = 1500.0
NUM_SHARDS = 4
DURATION_S = 2.0
WARMUP_S = 0.5


def _build_scheme(num_nodes=1000, seed=13):
    network = random_planar_network(num_nodes, seed=seed)
    # a small page size yields several hundred pages, so the four shard
    # slices (and the masks the wire carries) stay non-trivial
    return ConciseIndexScheme.build(network, spec=SystemSpec(page_size=256))


def _batch_fingerprint(batch):
    return [
        (result.path.nodes, round(result.path.cost, 9), result.trace.adversary_view())
        for result in batch.results
    ]


def run_serving_benchmark(
    num_nodes=1000,
    num_shards=NUM_SHARDS,
    rate=OFFERED_RATE,
    duration_s=DURATION_S,
    warmup_s=WARMUP_S,
    num_queries=12,
    seed=13,
):
    scheme = _build_scheme(num_nodes=num_nodes, seed=seed)
    kernel = resolve_kernel("auto")
    pairs = generate_workload(scheme.network, count=num_queries, seed=seed)
    baseline = _batch_fingerprint(
        QueryEngine(scheme).run_batch(pairs, verify_costs=False)
    )

    with ShardCluster(
        scheme.database, num_shards=num_shards, kernel=kernel
    ) as cluster:
        report = run_loadgen(
            cluster.addresses,
            scheme.database,
            rate=rate,
            duration_s=duration_s,
            warmup_s=warmup_s,
            connections=16,
            seed=17,
            verify=True,
        )
        report.shard_stats = cluster.stats()
        with QueryEngine(scheme, serving=cluster) as engine:
            remote_batch = engine.run_batch(pairs, verify_costs=False, workers=2)

    assert report.errors == 0, "shard servers answered errors under load"
    assert report.mismatches == 0, "serving returned wrong page bytes"
    assert remote_batch.remote
    bit_identical = 1.0 if _batch_fingerprint(remote_batch) == baseline else 0.0

    return {
        "kernel": kernel,
        "shards": num_shards,
        "file": report.file_name,
        "offered_rate": report.offered_rate,
        "arrivals": report.arrivals,
        "completed": report.completed,
        "busy": report.busy,
        "errors": report.errors,
        "mismatches": report.mismatches,
        "retrievals_per_s": report.retrievals_per_s,
        "service_rate_per_s": report.service_rate_per_s,
        "p50_ms": report.p50_ms,
        "p99_ms": report.p99_ms,
        "max_ms": report.max_ms,
        "coalesced_flushes": sum(s["flushes"] for s in report.shard_stats),
        "masks_answered": sum(s["masks_answered"] for s in report.shard_stats),
        "largest_flush": max(s["largest_flush"] for s in report.shard_stats),
        "engine_queries": num_queries,
        "bit_identical": bit_identical,
    }


def _format(results):
    return (
        f"serving: {results['shards']} shards, {results['kernel']} kernel, "
        f"{results['offered_rate']:g}/s offered\n"
        f"  sustained {results['retrievals_per_s']:,.0f} retrievals/s, "
        f"service rate {results['service_rate_per_s']:,.0f}/s "
        f"(p50 {results['p50_ms']:.2f} ms, p99 {results['p99_ms']:.2f} ms, "
        f"max {results['max_ms']:.2f} ms)\n"
        f"  {results['arrivals']} arrivals, {results['busy']} busy, "
        f"{results['errors']} errors, {results['mismatches']} mismatches; "
        f"{results['masks_answered']} masks in {results['coalesced_flushes']} "
        f"flushes (largest {results['largest_flush']})\n"
        f"  engine batch over TCP bit-identical to in-process: "
        f"{bool(results['bit_identical'])}\n"
    )


def test_serving_benchmark(record_result):
    results = run_serving_benchmark()
    record_result("serving", _format(results), data=results)
    from perf_gate import check_floors

    violations = check_floors({"serving": results})
    assert not violations, "; ".join(violations)


if __name__ == "__main__":
    import argparse
    import sys

    from conftest import RESULTS_DIR, write_json_result
    from perf_gate import check_floors

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", action="store_true",
        help="also write benchmarks/results/serving.json",
    )
    args = parser.parse_args()
    results = run_serving_benchmark()
    text = _format(results)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serving.txt").write_text(text, encoding="utf-8")
    if args.json:
        write_json_result(RESULTS_DIR, "serving", results)
    violations = check_floors({"serving": results})
    if violations:
        sys.exit("; ".join(violations))
