"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import itertools

import pytest

import harness
from harness import NullTracer, Tally, Tracer, self_time, tail_percentile
from run import measure_ops


@pytest.mark.parametrize(
    "n, level",
    [(100, 90.0), (99, 75.0), (40, 75.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_level_with_ten_samples_beyond(n, level):
    samples = [float(i) for i in range(n)][::-1]  # order must not matter
    got_level, value = tail_percentile(samples)
    assert got_level == level
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= 10
    # The next level up would leave fewer than ten beyond it.
    higher = [lv for lv in harness.TAIL_LEVELS if lv > level]
    if higher:
        rank = -(-higher[0] * n // 100)
        assert n - rank < 10


@pytest.mark.parametrize("n", [0, 1, 10, 39])
def test_tail_needs_enough_samples(n):
    assert tail_percentile([1.0] * n) is None


def test_tail_uses_nearest_rank():
    assert tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)


def test_self_time_subtracts_union_of_children():
    # Overlapping children count once; parts outside the span do not count.
    children = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.0, 12.0)]
    assert self_time((0.0, 10.0), children) == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert self_time((0.0, 10.0), []) == 10.0
    assert self_time((0.0, 10.0), [(0.0, 10.0), (2.0, 3.0)]) == 0.0


def test_tracer_self_time_counts_only_direct_children(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(harness.time, "perf_counter", lambda: float(next(ticks)))
    tr = Tracer()
    with tr.span("root"):  # starts at 0
        with tr.span("a"):  # 1
            tr.call("a.inner", lambda: None)  # 2..3
        # a ends at 4
        tr.call("b", lambda: None)  # 5..6
    # root ends at 7: 7 long, children a (3) and b (1) cover 4
    assert tr.durations("root") == [7.0]
    assert tr.self_times("root") == [3.0]
    assert tr.self_times("a") == [2.0]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]


def test_null_tracer_calls_through():
    tr = NullTracer()
    assert tr.call("x", lambda a, b=0: a + b, 2, b=3) == 5
    tr.count("x", 1)


def test_tally_fail_frac():
    t = Tally()
    with pytest.raises(ValueError):
        t.fail_frac
    for ok in (True, False, True, True):
        t.record(ok, "" if ok else "bad")
    assert (t.attempted, t.failed, t.fail_frac) == (4, 1, 0.25)
    assert t.reasons == ["bad"]


class _Flaky:
    """Operation i raises when i % 3 == 1 and fails its check when i % 3 == 2."""

    name = "flaky"

    def inputs(self, i):
        return i

    def op(self, i, tr):
        if i % 3 == 1:
            raise RuntimeError("boom")
        return i

    def check(self, i, inp, res, tr):
        return (i % 3 != 2), "check missed"

    @staticmethod
    def fidelity(a, b):
        return a == b, "differs"


@pytest.mark.parametrize("tracer", [None, Tracer()])
def test_failures_counted_against_attempts(tracer):
    loop = measure_ops(_Flaky(), 0.02, tracer)
    tally = loop["tally"]
    n = tally.attempted
    assert n >= 1
    assert tally.failed == sum(1 for i in range(n) if i % 3)
    assert tally.fail_frac == tally.failed / n
    # Raised operations leave no latency sample; missed checks do.
    assert len(loop["plain_s"]) == sum(1 for i in range(n) if i % 3 != 1)


def test_fidelity_mismatch_is_a_failure():
    class Diverging(_Flaky):
        def op(self, i, tr):
            return tr.enabled

        def check(self, i, inp, res, tr):
            return True, ""

    tally = measure_ops(Diverging(), 0.01, Tracer())["tally"]
    assert tally.failed == tally.attempted >= 1
