"""Tests of the benchmark's own helpers (no program under test involved).

Run with ``python -m pytest perfbench -q`` from the root of the repository.
"""

from __future__ import annotations

import threading

import pytest

from privbench.stats import (
    Span,
    Tally,
    covered_length,
    fastest_window_mean,
    fastest_window_percentile,
    percentile,
    self_time_by_name,
    self_times,
    windowed_percentile,
)
from privbench.tracing import Tracer


class TestPercentile:
    def test_nearest_rank_with_sample_count(self):
        samples = [float(v) for v in range(100, 0, -1)]  # 100 .. 1, unsorted
        assert percentile(samples, 50).value == 50.0
        assert percentile(samples, 90).value == 90.0
        assert percentile(samples, 100).value == 100.0
        assert percentile(samples, 90).count == 100

    def test_small_sample_rounds_up(self):
        p = percentile([3.0, 1.0, 2.0], 50)
        assert (p.value, p.count) == (2.0, 3)
        assert percentile([7.0], 99).value == 7.0

    def test_windowed_is_the_median_of_the_windows_cuts(self):
        fast = [1.0] * 9 + [2.0]
        slow = [5.0] * 10  # one slow stretch of the machine
        p = windowed_percentile([fast, slow, fast], 90)
        assert (p.value, p.count) == (1.0, 30)
        assert percentile(fast + slow + fast, 90).value == 5.0
        with pytest.raises(ValueError):
            windowed_percentile([[], []], 50)

    def test_fastest_window_mean(self):
        two_modes = [2.0] * 6 + [4.0] * 4  # mean 2.8; the median sits at a mode
        slow = [3.0] * 10  # a window the host slowed
        assert fastest_window_mean([slow, two_modes, slow]) == (pytest.approx(2.8), 30)
        # a shift of one sample between the modes moves the mean by 0.2,
        # where the median would jump from 2.0 to 3.0
        shifted = [2.0] * 5 + [4.0] * 5
        assert fastest_window_mean([shifted]) == (pytest.approx(3.0), 10)
        with pytest.raises(ValueError):
            fastest_window_mean([[]])

    def test_fastest_window_percentile(self):
        quiet = [1.0] * 9 + [2.0]
        noisy = [1.0] * 5 + [6.0] * 5
        p = fastest_window_percentile([noisy, quiet, []], 90)
        assert (p.value, p.count) == (1.0, 20)
        with pytest.raises(ValueError):
            fastest_window_percentile([[]], 90)

    def test_empty_and_out_of_range_are_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span(0, "query", 0.0, 10.0, None, 1),
            Span(1, "prepare", 1.0, 5.0, 0, 1),
            Span(2, "kernel", 2.0, 4.0, 1, 1),
            Span(3, "solve", 6.0, 9.0, 0, 1),
        ]
        own = self_times(spans)
        assert own == {0: 3.0, 1: 2.0, 2: 2.0, 3: 3.0}

    def test_overlapping_children_count_once(self):
        # two threads' children under one parent overlap in [3, 4]
        spans = [
            Span(0, "batch", 0.0, 10.0, None, None),
            Span(1, "retrieve", 2.0, 4.0, 0, None),
            Span(2, "retrieve", 3.0, 6.0, 0, None),
        ]
        assert self_times(spans)[0] == pytest.approx(6.0)
        assert self_time_by_name(spans)["retrieve"] == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        assert covered_length([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
        assert covered_length([], 0.0, 10.0) == 0.0

    def test_tracer_records_parents_and_restores_patches(self):
        class Layer:
            def work(self, amount):
                return amount * 2

        def outer(layer):
            return layer.work(3)

        tracer = Tracer()
        counted = []
        hooks = [(Layer, "work", "layer.work", lambda t, result, self, amount: counted.append(result))]
        original = Layer.__dict__["work"]
        with tracer.patch(hooks):
            tracer.request = 7
            with tracer.span("outer"):
                assert outer(Layer()) == 6
        assert Layer.__dict__["work"] is original
        assert counted == [6]
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["layer.work"].parent == by_name["outer"].span_id
        assert by_name["outer"].parent is None
        assert {span.request for span in tracer.spans} == {7}

    def test_threads_keep_their_own_parent_stacks(self):
        tracer = Tracer()

        def worker():
            with tracer.span("thread"):
                pass

        with tracer.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert {span.name: span.parent for span in tracer.spans}["thread"] is None


class TestTally:
    def test_busy_counts_as_failed(self):
        tally = Tally()
        tally.attempt(10)
        tally.fail("busy")
        tally.fail("wrong_bytes", 2)
        assert tally.failed == 3
        assert tally.failed_frac == pytest.approx(0.3)
        assert tally.failures == {"busy": 1, "wrong_bytes": 2}

    def test_nothing_attempted_is_zero_failed(self):
        assert Tally().failed_frac == 0.0

    def test_more_failures_than_attempts_is_an_error(self):
        tally = Tally()
        tally.attempt()
        with pytest.raises(ValueError):
            tally.fail("exception", 2)

