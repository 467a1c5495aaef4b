"""The ``serve-open`` workload: XOR retrievals against shard servers.

The PI index file is split over two shards served by a ``ShardCluster`` in
a process of its own, so the servers never contend with the client for
the interpreter lock.  One client process drives both connections (one per
shard) from a single thread: requests are sent on a Poisson schedule
without waiting for earlier answers (the protocol answers in order on each
connection) and every answer is XOR-combined and byte-compared with the
page it must reproduce.  Latency runs from the scheduled arrival, so a
stalled sender or a growing queue shows in it.  Between the light windows,
saturated windows keep a fixed number of requests in flight and count the
answers per second: what the servers and the client sustain together.

The client speaks :mod:`repro.serving.wire` directly rather than going
through ``repro.serving.loadgen``, so a change to the load generator cannot
move this instrument.
"""

from __future__ import annotations

import collections
import gc
import multiprocessing
import random
import selectors
import socket
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from statistics import median
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro import PassageIndexScheme
from repro.bench.datasets import load_dataset, system_spec_for
from repro.pir import ShardMap, random_subset_masks, xor_bytes
from repro.schemes import pi
from repro.schemes.files import INDEX_FILE
from repro.serving import wire

from .machine import peak_rss_mb
from .queries import SETUP_REPEATS, count_kernel, setup_hooks, setup_layers
from .results import WorkloadResult
from .stats import (
    Tally,
    fastest_window_mean,
    fastest_window_percentile,
    percentile,
    total_time_by_name,
)
from .tracing import Tracer

DATASET = "oldenburg"
SHARDS = 2
#: Offered rate of the light-load windows (retrievals/s), about a tenth of
#: what the servers sustain on a 2-core machine: low enough that a slower
#: stretch of the host does not turn into queueing.
LIGHT_RATE = 500.0
#: Requests kept in flight by a saturated window, over both connections:
#: enough for coalesced flushes of tens of masks per shard, far below the
#: servers' admission limit.
SATURATION_DEPTH = 64
#: Share of the measuring time spent on the light windows (the rest on
#: saturated windows).
LIGHT_SHARE = 0.4
#: Light and saturated windows alternate this many times, so that both
#: sample the machine's speed across the whole run.
ROUNDS = 10
#: Seconds of saturated warm-up before the first measured window.
WARMUP_S = 0.3
#: Seconds allowed for the answers of one window to drain.
DRAIN_TIMEOUT_S = 10.0


# ---------------------------------------------------------------------- #
# the server process
# ---------------------------------------------------------------------- #
def serve_shards(conn, page_size: int, pages: List[bytes], trace: bool) -> None:
    """Entry point of the server process: boot, report, answer commands."""
    from repro.pir import kernels
    from repro.pir.kernels import PackedDatabase
    from repro.serving import ShardCluster
    from repro.storage import Database, Page

    tracer = Tracer()
    hooks = [(kernels, "kernel_from_pages", "setup.pack", None)]
    if trace:
        hooks += [
            (PackedDatabase, "answer_many", "serving.answer_many", None),
            (PackedDatabase, "answer_rows", "pir.kernel", count_kernel),
            (PackedDatabase, "rows_to_blocks", "pir.combine", None),
        ]
    database = Database(page_size)
    index_file = database.create_file(INDEX_FILE)
    for page in pages:
        index_file.append_page(Page.from_bytes(page, page_size))
    del pages
    with tracer.patch(hooks):
        cluster = ShardCluster(database, num_shards=SHARDS)
        try:
            # pack every shard now, so the first timed request does not
            for shard in range(SHARDS):
                cluster.store.shard_kernel(shard, INDEX_FILE, cluster.servers[shard].kernel)
            conn.send(cluster.addresses)
            while True:
                command = conn.recv()
                if command == "stats":
                    totals = total_time_by_name(tracer.spans)
                    conn.send({
                        "servers": cluster.stats(),
                        "totals_s": totals,
                        "counters": dict(tracer.counters),
                    })
                elif command == "stop":
                    break
        finally:
            cluster.stop()
    conn.send(peak_rss_mb())
    conn.close()


class ServerProcess:
    """The shard cluster's own process and its command pipe."""

    def __init__(self, page_size: int, pages: List[bytes], trace: bool) -> None:
        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=serve_shards, args=(child, page_size, pages, trace), daemon=True
        )
        self._process.start()
        child.close()
        self.addresses: List[Tuple[str, int]] = self._receive(120.0)
        self.peak_rss_mb = 0.0

    def _receive(self, timeout: float):
        if not self._conn.poll(timeout):
            raise RuntimeError("the shard server process stopped answering")
        return self._conn.recv()

    def stats(self) -> Dict[str, object]:
        self._conn.send("stats")
        return self._receive(30.0)

    def stop(self) -> None:
        try:
            self._conn.send("stop")
            self.peak_rss_mb = self._receive(60.0)
        finally:
            self._process.join(timeout=30)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
            self._conn.close()
            # starting a spawned process also started multiprocessing's
            # resource tracker; end it too and wait for it
            stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
            if stop_tracker is not None:
                stop_tracker()


# ---------------------------------------------------------------------- #
# the client
# ---------------------------------------------------------------------- #
@dataclass
class Window:
    """What one window of retrievals observed."""

    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    mask_draw_s: float = 0.0
    tally: Tally = field(default_factory=Tally)
    #: Correct answers per second that arrived inside a saturated window.
    rate: float = 0.0


class _Connection:
    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = wire.FrameDecoder()
        #: (scheduled arrival, page) of each request awaiting its answer.
        self.inflight: Deque[Tuple[float, int]] = collections.deque()


class Client:
    """Retrieval client over one connection per shard."""

    def __init__(self, addresses: Sequence[Tuple[str, int]], pages: List[bytes], seed: int) -> None:
        self.pages = pages
        self.layout = ShardMap(len(pages), len(addresses))
        self.shard_blocks = self.layout.shard_sizes()
        self.connections = [_Connection(address) for address in addresses]
        self._selector = selectors.DefaultSelector()
        for connection in self.connections:
            self._selector.register(connection.sock, selectors.EVENT_READ, connection)
        self._pages_rng = random.Random(seed)
        self._masks_rng = random.Random(seed + 1)
        self._arrivals_rng = random.Random(seed + 2)

    def close(self) -> None:
        self._selector.close()
        for connection in self.connections:
            connection.sock.close()

    def _inflight(self) -> int:
        return sum(len(connection.inflight) for connection in self.connections)

    def _send(self, scheduled: float, window: Window, trace: bool) -> None:
        page = self._pages_rng.randrange(len(self.pages))
        shard, local = self.layout.locate(page)
        if trace:
            started = time.perf_counter()
            mask = random_subset_masks(self._masks_rng, self.shard_blocks[shard], 1)[0]
            window.mask_draw_s += time.perf_counter() - started
        else:
            mask = random_subset_masks(self._masks_rng, self.shard_blocks[shard], 1)[0]
        payload = wire.encode_answer_request(INDEX_FILE, [mask, mask ^ (1 << local)])
        connection = self.connections[shard]
        connection.inflight.append((scheduled, page))
        connection.sock.sendall(wire.encode_frame(payload))
        window.tally.attempt()

    def _receive(self, connection: _Connection, window: Window) -> Tuple[float, int]:
        """Read what ``connection`` has; check every answer.  Returns the
        time of the read and the number of correct answers in it."""
        data = connection.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("a shard server closed its connection")
        now = time.perf_counter()
        correct = 0
        for frame in connection.decoder.feed(data):
            scheduled, page = connection.inflight.popleft()
            try:
                answer_a, answer_b = wire.decode_answer_response(frame)
            except wire.ServerBusy:
                window.tally.fail("busy")
                continue
            except wire.RemoteServerError:
                window.tally.fail("error")
                continue
            if xor_bytes(answer_a, answer_b) != self.pages[page]:
                window.tally.fail("wrong_bytes")
                continue
            window.latencies.append(now - scheduled)
            correct += 1
        return now, correct

    def _wait(self, window: Window, timeout: float, deadline: float) -> Tuple[float, int]:
        """Receive whatever arrives within ``timeout``; fail past ``deadline``."""
        if time.perf_counter() > deadline + DRAIN_TIMEOUT_S:
            raise RuntimeError("shard servers stopped answering")
        last, correct = 0.0, 0
        for key, _ in self._selector.select(timeout):
            last, answered = self._receive(key.data, window)
            correct += answered
        return last, correct

    def window(self, rate: float, seconds: float, trace: bool = False) -> Window:
        """Send on a Poisson schedule at ``rate`` for ``seconds``; drain; report."""
        window = Window()
        start = time.perf_counter() + 0.001
        stop_sending = start + seconds
        scheduled = start + self._arrivals_rng.expovariate(rate)
        while True:
            now = time.perf_counter()
            while scheduled <= now and scheduled < stop_sending:
                window.lags.append(now - scheduled)
                self._send(scheduled, window, trace)
                scheduled += self._arrivals_rng.expovariate(rate)
            sending = scheduled < stop_sending
            if not sending and not self._inflight():
                return window
            self._wait(window, max(0.0, scheduled - now) if sending else 0.05, stop_sending)

    def saturate(self, seconds: float, trace: bool = False) -> Window:
        """Keep ``SATURATION_DEPTH`` requests in flight for ``seconds``; drain.

        The window's rate counts the correct answers read before the
        window closes, per second of the window.
        """
        window = Window()
        start = time.perf_counter()
        stop_sending = start + seconds
        answered = 0
        while True:
            now = time.perf_counter()
            if now < stop_sending:
                for _ in range(SATURATION_DEPTH - self._inflight()):
                    self._send(time.perf_counter(), window, trace)
            elif not self._inflight():
                window.rate = answered / seconds
                return window
            read_at, correct = self._wait(window, 0.05, stop_sending)
            if read_at <= stop_sending:
                answered += correct


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #
def _set_up(seed: int, tracer: Optional[Tracer]):
    """Network generation, PI build, server-process boot (which packs every
    shard), the client's connections and a short burst that opens both
    connections' paths end to end."""
    network = load_dataset(DATASET)
    with tracer.span("setup.build") if tracer is not None else nullcontext():
        scheme = PassageIndexScheme.build(network, spec=system_spec_for("quick"))
    index_file = scheme.database.file(INDEX_FILE)
    pages = index_file.read_pages_batch(list(range(index_file.num_pages)))
    server = ServerProcess(scheme.spec.page_size, pages, tracer is not None)
    try:
        client = Client(server.addresses, pages, seed)
    except BaseException:
        server.stop()
        raise
    try:
        warm = client.window(LIGHT_RATE, 0.05)
    except BaseException:
        client.close()
        server.stop()
        raise
    return scheme, server, client, warm.tally


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    out = WorkloadResult()
    tracer = Tracer() if trace else None
    # the traced run sets up once: its set-up figures come from the spans
    setups: List[float] = []
    server = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if server is not None:
            client.close()
            server.stop()
            del scheme, server, client
            gc.collect()
        started = time.perf_counter()
        with tracer.patch(setup_hooks(pi)) if tracer is not None else nullcontext():
            scheme, server, client, warm = _set_up(seed, tracer)
        setups.append(time.perf_counter() - started)
        out.tally.merge(warm)
    try:
        out.tally.merge(client.saturate(WARMUP_S).tally)
        before = server.stats()
        measured_from = time.perf_counter()
        light: List[Window] = []
        saturated: List[Window] = []
        for _ in range(ROUNDS):
            light.append(client.window(LIGHT_RATE, seconds * LIGHT_SHARE / ROUNDS, trace))
            saturated.append(client.saturate(seconds * (1 - LIGHT_SHARE) / ROUNDS, trace))
        windows = light + saturated
        measured_s = time.perf_counter() - measured_from
        after = server.stats()
    finally:
        client.close()
        server.stop()

    for window in windows:
        out.tally.merge(window.tally)
    light_latencies = [window.latencies for window in light]
    mean, count = fastest_window_mean(light_latencies)
    p50 = percentile([latency for window in light_latencies for latency in window], 50)
    p90 = fastest_window_percentile(light_latencies, 90)
    rates = [window.rate for window in saturated]
    out.end_to_end = {
        "latency_ms.mean": (mean * 1e3, "ms", count),
        "latency_ms.p90": (p90.value * 1e3, "ms", p90.count),
        "throughput_per_s": (median(rates), "1/s", len(rates)),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb() + server.peak_rss_mb, "MB", None),
        "db_mb": (scheme.storage_mb, "MB", None),
    }
    out.details = {
        "light_rate_per_s": LIGHT_RATE,
        "saturation_depth": SATURATION_DEPTH,
        "setup_runs_s": setups,
        "retrieval_ms.p50": p50.value * 1e3,
        "saturated_rates_per_s": rates,
        "server_stats": after["servers"],
    }
    out.notes.append(f"retrieval_ms.p50 = {p50.value * 1e3:.6g} ms (n={p50.count})")
    out.notes.append("saturated windows: " + ", ".join(f"{rate:.0f}/s" for rate in rates))
    if tracer is not None:
        out.per_layer = _serving_layers(tracer, before, after, windows, measured_s)
    return out


def _serving_layers(tracer, before, after, windows, measured_s):
    def delta(key: str) -> int:
        return sum(s[key] for s in after["servers"]) - sum(s[key] for s in before["servers"])

    totals_before, totals_after = before["totals_s"], after["totals_s"]
    counters_before, counters_after = before["counters"], after["counters"]

    def spent(name: str) -> float:
        return totals_after.get(name, 0.0) - totals_before.get(name, 0.0)

    def counted(name: str) -> float:
        return counters_after.get(name, 0) - counters_before.get(name, 0)

    retrievals = sum(len(w.latencies) for w in windows)
    kernel_s = spent("pir.kernel")
    rows = counted("kernel.rows")
    lags = [lag for w in windows for lag in w.lags]
    layers = setup_layers(tracer)
    layers["setup.pack_s"] = after["totals_s"].get("setup.pack", 0.0)
    figures = {name: (value, "s", None) for name, value in layers.items()}
    figures.update({
        "pir.mask_draw_ms": (sum(w.mask_draw_s for w in windows) / retrievals * 1e3, "ms", None),
        "pir.combine_ms": (spent("pir.combine") / retrievals * 1e3, "ms", None),
        "pir.kernel_ms": (kernel_s / retrievals * 1e3, "ms", None),
        "pir.kernel_calls_per_query": (counted("kernel.calls") / retrievals, "count", None),
        "pir.kernel_masks_per_call": (
            counted("kernel.masks") / max(1, counted("kernel.calls")), "count", None),
        "pir.kernel_rows_per_query": (rows / retrievals, "count", None),
        "pir.kernel_ns_per_row": (kernel_s / rows * 1e9 if rows else 0.0, "ns", None),
        "serving.flush_masks_mean": (delta("masks_answered") / max(1, delta("flushes")), "count", None),
        "serving.largest_flush": (max(s["largest_flush"] for s in after["servers"]), "count", None),
        "serving.busy_ratio": (delta("busy_rejections") / max(1, delta("requests_served")), "fraction", None),
        "serving.kernel_busy_share": (
            spent("serving.answer_many") / (measured_s * SHARDS), "fraction", None),
        "serving.generator_lag_ms.p99": (percentile(lags, 99).value * 1e3, "ms", len(lags)),
    })
    return figures
