"""Packs are private to the process that builds them.

A server kernel (the packed numpy image or the big-int oracle) lives in the
memory of the process that packed it, memoised per backing store by
:func:`~repro.pir.kernels.shared_kernel`.  Nothing is published across
processes: a forked process packs its own bit-identical copy, killing it
cannot disturb the parent's, and no engine, pool or shard cluster leaves a
segment under ``/dev/shm`` — whatever the kernel, shard count or worker
mode.
"""

import multiprocessing
import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.network import random_planar_network
from repro.pir import BigIntKernel, make_kernel, numpy_available
from repro.pir.sharded import ShardedPageStore
from repro.schemes import ConciseIndexScheme
from repro.serving import RemotePirSimulator, ShardCluster

requires_dev_shm = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="no /dev/shm on this platform"
)

SPEC = SystemSpec(page_size=256)

#: Kernels every case runs for; without numpy only the big-int oracle serves.
KERNELS = ("numpy", "bigint") if numpy_available() else ("bigint",)


def make_blocks(count=24, size=48, seed=3):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]


def random_masks(num_blocks, count=12, seed=9):
    rng = random.Random(seed)
    masks = [rng.getrandbits(num_blocks) for _ in range(count)]
    return [0, (1 << num_blocks) - 1] + masks


def shm_names():
    """Current segment names under /dev/shm (empty off-Linux)."""
    root = Path("/dev/shm")
    if not root.is_dir():
        return frozenset()
    return frozenset(entry.name for entry in root.iterdir())


@pytest.fixture(scope="module")
def network():
    return random_planar_network(110, seed=11)


@pytest.fixture(scope="module")
def ci_scheme(network):
    return ConciseIndexScheme.build(network, spec=SPEC)


@pytest.fixture(scope="module")
def pairs(network):
    rng = random.Random(42)
    return [tuple(rng.sample(range(network.num_nodes), 2)) for _ in range(4)]


# ---------------------------------------------------------------------- #
# child helpers (top-level so the fork context finds them by reference)
# ---------------------------------------------------------------------- #
def _child_pack_and_answer(blocks, kernel, masks, connection):
    """Pack ``blocks`` in this process and send the answers back."""
    try:
        connection.send(make_kernel(blocks, kernel).answer_many(masks))
    except BaseException as exc:  # pragma: no cover - failure reporting only
        connection.send(exc)
    finally:
        connection.close()


def _child_pack_and_hang(blocks, kernel, event):
    """Pack, signal readiness, then wait to be killed."""
    make_kernel(blocks, kernel)
    event.set()
    time.sleep(60)  # pragma: no cover - the parent SIGKILLs us first


class TestPackPerProcess:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_forked_child_packs_a_bit_identical_copy(self, kernel):
        blocks = make_blocks()
        masks = random_masks(len(blocks))
        pack = make_kernel(blocks, kernel)
        expected = BigIntKernel(blocks).answer_many(masks)
        assert pack.answer_many(masks) == expected

        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe(duplex=False)
        process = context.Process(
            target=_child_pack_and_answer, args=(blocks, kernel, masks, child_end)
        )
        process.start()
        answers = parent_end.recv()
        process.join(timeout=30)
        if isinstance(answers, BaseException):
            raise answers
        assert answers == expected
        # the child's exit must leave the parent's pack untouched
        assert pack.answer_many(masks) == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_killed_child_leaves_the_parent_pack_intact(self, kernel):
        blocks = make_blocks()
        masks = random_masks(len(blocks))
        pack = make_kernel(blocks, kernel)
        expected = pack.answer_many(masks)

        context = multiprocessing.get_context("fork")
        ready = context.Event()
        process = context.Process(
            target=_child_pack_and_hang, args=(blocks, kernel, ready)
        )
        process.start()
        assert ready.wait(timeout=30), "child never packed"
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=30)
        assert process.exitcode == -signal.SIGKILL
        assert pack.answer_many(masks) == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shard_kernels_are_memoised_once_per_shard(self, ci_scheme, kernel):
        database = ci_scheme.database
        store = ShardedPageStore(database, num_shards=2)
        page_file = database.file("data")
        for shard_id in range(2):
            first = store.shard_kernel(shard_id, "data", kernel)
            assert store.shard_kernel(shard_id, "data", kernel) is first
            local = list(range(store.shard_num_pages(shard_id, "data")))
            blocks = [
                page_file.read_page(store.maps["data"].global_index(shard_id, page))
                for page in local
            ]
            masks = random_masks(len(blocks), count=6, seed=shard_id)
            assert first.answer_many(masks) == BigIntKernel(blocks).answer_many(masks)
        assert store.shard_kernel(0, "data", kernel) is not store.shard_kernel(
            1, "data", kernel
        )


@requires_dev_shm
class TestNoSharedMemorySegments:
    """No serving path creates a segment under /dev/shm."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shards,worker_mode", [
        (1, "thread"),
        (2, "thread"),
        (2, "process"),
        (3, "process"),
    ])
    def test_engine_batches_create_no_segments(
        self, ci_scheme, pairs, kernel, shards, worker_mode
    ):
        before = shm_names()
        with QueryEngine(ci_scheme, shards=shards, pir_kernel=kernel) as engine:
            batch = engine.run_batch(
                pairs, verify_costs=True, workers=2, worker_mode=worker_mode
            )
            assert batch.all_costs_correct
            assert shm_names() - before == frozenset()
        assert shm_names() - before == frozenset()

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_cluster_serving_creates_no_segments(self, ci_scheme, kernel, num_shards):
        database = ci_scheme.database
        num_pages = database.file("data").num_pages
        reads = random.Random(8).choices(range(num_pages), k=12)
        before = shm_names()
        with ShardCluster(database, num_shards=num_shards, kernel=kernel) as cluster:
            remote = RemotePirSimulator(database, cluster.addresses)
            pages = remote.retrieve_pages("data", reads)
            remote.close()
            assert shm_names() - before == frozenset()
        assert pages == [database.file("data").read_page(page) for page in reads]
        assert shm_names() - before == frozenset()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_remote_process_batch_creates_no_segments(self, ci_scheme, pairs, kernel):
        before = shm_names()
        with ShardCluster(ci_scheme.database, num_shards=2, kernel=kernel) as cluster:
            with QueryEngine(ci_scheme, serving=cluster) as engine:
                batch = engine.run_batch(
                    pairs, verify_costs=True, workers=2, worker_mode="process"
                )
                assert batch.remote
                assert batch.all_costs_correct
                assert shm_names() - before == frozenset()
        assert shm_names() - before == frozenset()
