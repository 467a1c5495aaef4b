"""Shard-server behaviour: serving, admission control, coalescing, drain.

Each test boots real servers on loopback (port 0) and talks to them over
actual sockets — the same path production clients use.  Answers are checked
against the local packed kernel, so a passing run is also a bit-correctness
check of the remote path.
"""

import random
import socket
import threading
import time

import pytest

from repro.exceptions import PirError
from repro.pir import numpy_available
from repro.pir.batch import mask_indices
from repro.pir.sharded import ShardedPageStore
from repro.serving import (
    RemotePirShard,
    RemoteServerError,
    ServerBusy,
    ShardCluster,
    ShardConnection,
    ShardServer,
)
from repro.serving import wire
from repro.storage import Database

#: Server kernels the kernel-thread cases run for.
KERNELS = ("numpy", "bigint") if numpy_available() else ("bigint",)


def make_database(num_pages=10, page_size=64, files=("data",)):
    database = Database(page_size)
    for name in files:
        page_file = database.create_file(name)
        for index in range(num_pages):
            payload = bytes([index & 0xFF, len(name)]) * (page_size // 4)
            page_file.new_page().append(payload)
    return database


class TestHello:
    def test_hello_describes_the_shard_layout(self):
        database = make_database(num_pages=9, files=("data", "index"))
        store = ShardedPageStore(database, 2, "round-robin")
        with ShardServer(store, shard_id=1) as server:
            conn = ShardConnection(server.address)
            info = wire.decode_hello_response(conn.request(wire.encode_hello_request()))
            conn.close()
        assert info.shard_id == 1
        assert info.num_shards == 2
        assert info.strategy == "round-robin"
        assert {f.name for f in info.files} == {"data", "index"}
        for file_info in info.files:
            assert file_info.num_pages == store.shard_num_pages(1, file_info.name)
            assert file_info.page_size == 64

    def test_layout_check_rejects_mismatched_cluster(self):
        database = make_database(num_pages=9)
        store = ShardedPageStore(database, 2, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            shard = RemotePirShard(
                shard_id=1,  # wrong identity for this server
                store=store,
                address=server.address,
                rng=random.Random(0),
            )
            info = shard.hello()
            assert info.shard_id == 0 != shard.shard_id
            shard.close()


class TestAnswering:
    def test_answers_match_the_local_kernel(self):
        database = make_database(num_pages=12)
        store = ShardedPageStore(database, 3, "round-robin")
        with ShardServer(store, shard_id=2) as server:
            kernel = store.shard_kernel(2, "data", server.kernel)
            rng = random.Random(5)
            masks = [rng.getrandbits(kernel.num_blocks) for _ in range(6)]
            conn = ShardConnection(server.address)
            payload = conn.request(
                wire.encode_frame(b"")[:0]
                + wire.encode_answer_request("data", masks)
            )
            answers = wire.decode_answer_response(payload)
            conn.close()
            assert answers == kernel.answer_many(masks)
            assert server.stats()["masks_answered"] == len(masks)

    def test_remote_shard_reads_are_bit_identical(self):
        database = make_database(num_pages=11)
        store = ShardedPageStore(database, 2, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            shard = RemotePirShard(0, store, server.address, rng=random.Random(3))
            local = list(range(store.shard_num_pages(0, "data")))
            pages = shard.read_many("data", local)
            assert pages == store.read_local_batch(0, "data", local)
            assert shard.pages_served == len(local)
            shard.close()

    def test_stats_count_requests_masks_and_flushes(self):
        database = make_database(num_pages=12)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0, coalesce_window_s=0.0) as server:
            conn = ShardConnection(server.address)
            for masks in ([0b1], [0b11, 0b101, 0b111]):
                wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("data", masks))
                )
            conn.close()
        # stop() drains, so every response is counted once the server is down
        stats = server.stats()
        assert stats == {
            "requests_served": 2,
            "masks_answered": 4,
            "flushes": 2,
            "largest_flush": 3,
            "busy_rejections": 0,
        }

    def test_unknown_file_is_an_error_and_server_survives(self):
        database = make_database()
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            with pytest.raises(RemoteServerError, match="no pages"):
                wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("missing", [1]))
                )
            # same connection still answers afterwards
            answers = wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", [0b11]))
            )
            assert len(answers) == 1
            conn.close()

    def test_mask_beyond_shard_blocks_is_an_error(self):
        database = make_database(num_pages=4)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            with pytest.raises(RemoteServerError, match="beyond"):
                wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("data", [1 << 64]))
                )
            conn.close()

    def test_malformed_payload_gets_an_error_response(self):
        database = make_database()
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            with pytest.raises(PirError):
                wire.decode_answer_response(conn.request(b"\xff\x00garbage"))
            conn.close()


class TestAdmissionControl:
    def test_overfull_request_answers_busy(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0, max_pending_masks=1) as server:
            conn = ShardConnection(server.address)
            with pytest.raises(ServerBusy):
                wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("data", [1, 2]))
                )
            assert server.stats()["busy_rejections"] == 1
            # a request that fits is still served
            answers = wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", [1]))
            )
            assert len(answers) == 1
            conn.close()

    def test_client_retries_busy_then_gives_up(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0, max_pending_masks=1) as server:
            shard = RemotePirShard(
                0, store, server.address, rng=random.Random(1),
                busy_retries=3, busy_backoff_s=0.0,
            )
            with pytest.raises(ServerBusy):
                shard.read("data", 0)  # two masks never fit in one pending slot
            assert server.stats()["busy_rejections"] == 4  # initial try + 3 retries
            shard.close()


class TestCoalescing:
    def test_concurrent_requests_flush_as_one_batch(self):
        database = make_database(num_pages=16)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(
            store, shard_id=0, coalesce_window_s=0.25, max_batch_masks=64
        ) as server:
            results = []
            barrier = threading.Barrier(2)

            def one_request():
                conn = ShardConnection(server.address)
                barrier.wait()
                payload = conn.request(wire.encode_answer_request("data", [0b1, 0b10]))
                results.append(wire.decode_answer_response(payload))
                conn.close()

            threads = [threading.Thread(target=one_request) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
        assert len(results) == 2 and all(len(r) == 2 for r in results)
        assert stats["masks_answered"] == 4
        # both requests landed inside one coalescing window
        assert stats["flushes"] == 1
        assert stats["largest_flush"] == 4

    def test_full_batch_flushes_without_waiting_for_the_window(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(
            store, shard_id=0, coalesce_window_s=30.0, max_batch_masks=2
        ) as server:
            conn = ShardConnection(server.address)
            # 2 masks == max_batch_masks: flushes immediately despite the
            # pathological 30s window
            answers = wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", [1, 2]))
            )
            assert len(answers) == 2
            conn.close()



class RecordingKernel:
    """Wraps a shard kernel; records which thread ran each ``answer_many``
    and how many calls overlapped.  ``before_answer`` runs first in each."""

    def __init__(self, kernel, before_answer=None):
        self.kernel = kernel
        self._before_answer = before_answer
        self._lock = threading.Lock()
        self._running = 0
        self.max_overlap = 0
        self.threads = []

    def answer_many(self, masks):
        with self._lock:
            self._running += 1
            self.max_overlap = max(self.max_overlap, self._running)
            self.threads.append(threading.current_thread())
        try:
            if self._before_answer is not None:
                self._before_answer()
            return self.kernel.answer_many(masks)
        finally:
            with self._lock:
                self._running -= 1


class RecordingStore:
    """A shard-store view whose kernels are :class:`RecordingKernel`s, one
    per (shard, file, kernel); everything else delegates to ``store``."""

    def __init__(self, store, before_answer=None):
        self._store = store
        self._before_answer = before_answer
        self.recorders = {}

    def __getattr__(self, name):
        return getattr(self._store, name)

    def shard_kernel(self, shard_id, file_name, kernel=None):
        key = (shard_id, file_name, kernel)
        if key not in self.recorders:
            self.recorders[key] = RecordingKernel(
                self._store.shard_kernel(shard_id, file_name, kernel),
                self._before_answer,
            )
        return self.recorders[key]


class TestKernelThread:
    """Each server answers on one dedicated kernel thread, off its loop."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernel_runs_off_the_event_loop_thread(self, kernel):
        database = make_database(num_pages=12)
        store = RecordingStore(ShardedPageStore(database, 1, "round-robin"))
        with ShardServer(store, shard_id=0, kernel=kernel) as server:
            conn = ShardConnection(server.address)
            for mask in (0b1, 0b110, 0b1011):
                wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("data", [mask]))
                )
            conn.close()
            loop_thread = server._thread
        (recorder,) = store.recorders.values()
        assert len(recorder.threads) == 3
        assert loop_thread not in recorder.threads
        assert threading.main_thread() not in recorder.threads
        # one dedicated thread answered every flush
        assert len(set(recorder.threads)) == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_flushes_queued_behind_a_busy_kernel_run_one_at_a_time(self, kernel):
        database = make_database(num_pages=16)
        release = threading.Event()
        store = RecordingStore(
            ShardedPageStore(database, 1, "round-robin"),
            before_answer=lambda: release.wait(timeout=30),
        )
        with ShardServer(
            store, shard_id=0, kernel=kernel, coalesce_window_s=0.0, max_batch_masks=2
        ) as server:
            results = {}

            def one_request(index):
                masks = [index + 1, (index + 1) << 3]
                conn = ShardConnection(server.address)
                payload = conn.request(wire.encode_answer_request("data", masks))
                results[index] = (masks, wire.decode_answer_response(payload))
                conn.close()

            threads = [
                threading.Thread(target=one_request, args=(index,)) for index in range(6)
            ]
            threads[0].start()
            deadline = time.monotonic() + 30
            while (
                not any(recorder.threads for recorder in store.recorders.values())
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            for thread in threads[1:]:
                thread.start()
            # wait until every later request has left the coalescing queue
            # for a flush, all of them now queued behind the blocked kernel
            while (
                server._outstanding < 6 or server._pending_masks
            ) and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()
            for thread in threads:
                thread.join(timeout=30)
        stats = server.stats()
        (recorder,) = store.recorders.values()
        assert stats["flushes"] == len(recorder.threads) >= 2
        assert stats["masks_answered"] == 12
        assert recorder.max_overlap == 1
        assert len(set(recorder.threads)) == 1
        assert len(results) == 6
        for masks, answers in results.values():
            assert answers == recorder.kernel.answer_many(masks)

    def test_loop_keeps_serving_while_a_flush_is_answered(self):
        database = make_database(num_pages=8)
        release = threading.Event()
        entered = threading.Event()

        def block_until_released():
            entered.set()
            assert release.wait(timeout=30)

        store = RecordingStore(
            ShardedPageStore(database, 1, "round-robin"),
            before_answer=block_until_released,
        )
        with ShardServer(store, shard_id=0) as server:
            answered = []

            def blocked_request():
                conn = ShardConnection(server.address)
                payload = conn.request(wire.encode_answer_request("data", [0b11]))
                answered.append(wire.decode_answer_response(payload))
                conn.close()

            worker = threading.Thread(target=blocked_request)
            worker.start()
            try:
                assert entered.wait(timeout=30), "flush never reached the kernel"
                # the kernel thread is busy; the loop still answers HELLO
                conn = ShardConnection(server.address)
                info = wire.decode_hello_response(
                    conn.request(wire.encode_hello_request())
                )
                conn.close()
                assert info.shard_id == 0
                assert answered == []
            finally:
                release.set()
                worker.join(timeout=30)
        assert len(answered) == 1 and len(answered[0]) == 1

    def test_stop_drains_a_flush_held_on_the_kernel_thread(self):
        database = make_database(num_pages=8)
        release = threading.Event()
        entered = threading.Event()

        def block_until_released():
            entered.set()
            assert release.wait(timeout=30)

        store = RecordingStore(
            ShardedPageStore(database, 1, "round-robin"),
            before_answer=block_until_released,
        )
        server = ShardServer(store, shard_id=0)
        server.start()
        answered = []

        def blocked_request():
            conn = ShardConnection(server.address)
            payload = conn.request(wire.encode_answer_request("data", [0b101]))
            answered.append(wire.decode_answer_response(payload))
            conn.close()

        worker = threading.Thread(target=blocked_request)
        worker.start()
        assert entered.wait(timeout=30), "flush never reached the kernel"
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        time.sleep(0.05)
        assert stopper.is_alive(), "stop() returned before the admitted flush"
        release.set()
        stopper.join(timeout=30)
        worker.join(timeout=30)
        assert not stopper.is_alive()
        (recorder,) = store.recorders.values()
        assert answered == [recorder.kernel.answer_many([0b101])]

    def test_stop_shuts_the_kernel_thread_down(self):
        database = make_database(num_pages=8)
        store = RecordingStore(ShardedPageStore(database, 1, "round-robin"))
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", [0b1]))
            )
            conn.close()
        (recorder,) = store.recorders.values()
        (kernel_thread,) = set(recorder.threads)
        kernel_thread.join(timeout=10)
        assert not kernel_thread.is_alive()

    def test_cluster_servers_use_one_kernel_thread_each(self):
        database = make_database(num_pages=12)
        cluster = ShardCluster(database, num_shards=3)
        store = RecordingStore(cluster.store)
        for server in cluster.servers:
            server._store = store
        with cluster:
            for address in cluster.addresses:
                conn = ShardConnection(address)
                for mask in (0b1, 0b11):
                    wire.decode_answer_response(
                        conn.request(wire.encode_answer_request("data", [mask]))
                    )
                conn.close()
        threads_by_shard = {
            shard_id: set(recorder.threads)
            for (shard_id, _, _), recorder in store.recorders.items()
        }
        assert sorted(threads_by_shard) == [0, 1, 2]
        assert all(len(threads) == 1 for threads in threads_by_shard.values())
        assert len(set().union(*threads_by_shard.values())) == 3


class TestQueryLogging:
    def test_queries_seen_stays_empty_unless_enabled(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            conn.request(wire.encode_answer_request("data", [0b101]))
            conn.close()
            assert server.queries_seen == []

    def test_queries_seen_records_subsets_when_enabled(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0, log_queries=True) as server:
            conn = ShardConnection(server.address)
            conn.request(wire.encode_answer_request("data", [0b101]))
            conn.close()
            assert server.queries_seen == [
                ("data", 0, frozenset(mask_indices(0b101)))
            ]


class TestLifecycle:
    def test_stop_refuses_new_connections(self):
        database = make_database()
        store = ShardedPageStore(database, 1, "round-robin")
        server = ShardServer(store, shard_id=0)
        address = server.start()
        server.stop()
        with pytest.raises((ConnectionError, OSError, PirError)):
            with socket.create_connection(address, timeout=2) as sock:
                sock.sendall(wire.encode_frame(wire.encode_hello_request()))
                if not sock.recv(1):
                    raise ConnectionError("server closed the listener")

    def test_cluster_boots_one_server_per_shard(self):
        database = make_database(num_pages=12)
        with ShardCluster(database, num_shards=3) as cluster:
            assert len(cluster.addresses) == 3
            assert len({address[1] for address in cluster.addresses}) == 3
            stats = cluster.stats()
            assert len(stats) == 3
            # every server answers HELLO with its own shard id
            for shard_id, address in enumerate(cluster.addresses):
                conn = ShardConnection(address)
                info = wire.decode_hello_response(
                    conn.request(wire.encode_hello_request())
                )
                conn.close()
                assert info.shard_id == shard_id

    def test_cluster_start_is_idempotent(self):
        database = make_database()
        cluster = ShardCluster(database, num_shards=2)
        try:
            cluster.start()
            first = list(cluster.addresses)
            cluster.start()
            assert list(cluster.addresses) == first
        finally:
            cluster.stop()

