"""SolvePool semantics: reuse across batches, growth, teardown, engine wiring."""

import pytest

from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.exceptions import SchemeError
from repro.network import grid_network
from repro.schemes import ConciseIndexScheme
from repro.serving import SolvePool


def square(value):
    return value * value


class TestSolvePool:
    def test_executor_is_reused_across_submits(self):
        with SolvePool() as pool:
            assert pool.starts == 0 and pool.size == 0
            first = pool.executor(2)
            assert pool.submit(2, square, 7).result() == 49
            assert pool.executor(2) is first
            assert pool.executor(1) is first  # never shrinks
            assert pool.starts == 1 and pool.size == 2

    def test_growing_replaces_the_executor_once(self):
        with SolvePool() as pool:
            small = pool.executor(1)
            grown = pool.executor(3)
            assert grown is not small
            assert pool.starts == 2 and pool.size == 3
            assert pool.submit(2, square, 3).result() == 9
            assert pool.starts == 2

    def test_max_workers_caps_growth(self):
        with SolvePool(max_workers=2) as pool:
            pool.executor(8)
            assert pool.size == 2
            assert pool.starts == 1

    def test_invalid_sizes_rejected(self):
        with pytest.raises(SchemeError):
            SolvePool(max_workers=0)
        with SolvePool() as pool:
            with pytest.raises(SchemeError):
                pool.executor(0)

    def test_closed_pool_refuses_work(self):
        pool = SolvePool()
        pool.executor(1)
        pool.close()
        with pytest.raises(SchemeError):
            pool.executor(1)


@pytest.fixture(scope="module")
def scheme():
    network = grid_network(5, 5, seed=2)
    return ConciseIndexScheme.build(network, spec=SystemSpec(page_size=256))


@pytest.fixture(scope="module")
def pairs(scheme):
    nodes = sorted(scheme.network.node_ids())
    return [(nodes[0], nodes[-1]), (nodes[1], nodes[-2]), (nodes[2], nodes[-3])]


class TestEngineWarmPool:
    def test_consecutive_process_batches_share_one_pool_start(self, scheme, pairs):
        with QueryEngine(scheme) as engine:
            first = engine.run_batch(pairs, workers=2, worker_mode="process")
            second = engine.run_batch(pairs, workers=2, worker_mode="process")
            assert engine.solve_pool.starts == 1
            fingerprint = lambda batch: [
                (result.path.nodes, result.path.cost) for result in batch.results
            ]
            assert fingerprint(first) == fingerprint(second)

    def test_supplied_pool_is_shared_and_not_closed_by_the_engine(self, scheme, pairs):
        with SolvePool() as pool:
            with QueryEngine(scheme, solve_pool=pool) as engine_a:
                engine_a.run_batch(pairs[:1], workers=1, worker_mode="process")
            with QueryEngine(scheme, solve_pool=pool) as engine_b:
                engine_b.run_batch(pairs[:1], workers=1, worker_mode="process")
            # both engines rode the same warm pool; closing them left it open
            assert pool.starts == 1
            assert pool.submit(1, square, 4).result() == 16

    def test_engine_close_shuts_its_own_pool(self, scheme, pairs):
        engine = QueryEngine(scheme)
        engine.run_batch(pairs[:1], workers=1, worker_mode="process")
        pool = engine.solve_pool
        engine.close()
        with pytest.raises(SchemeError):
            pool.executor(1)

    def test_sharded_engine_close_is_idempotent(self, scheme, pairs):
        engine = QueryEngine(scheme, shards=2)
        batch = engine.run_batch(pairs, verify_costs=True, workers=2, worker_mode="process")
        assert batch.all_costs_correct
        pool = engine.solve_pool
        engine.close()
        engine.close()
        with pytest.raises(SchemeError):
            pool.executor(1)
