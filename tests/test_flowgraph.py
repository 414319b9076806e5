"""Flow graph reductions: envelopes, overlap, utilization, Gantt text."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.flowgraph import FlowGraph


def make_flow(records):
    f = FlowGraph()
    for tid, kernel, core, s, e, it in records:
        f.record(tid, kernel, core, s, e, it)
    return f


def test_empty_flow():
    f = FlowGraph()
    assert f.makespan == 0.0
    assert f.kernel_overlap_fraction() == 0.0
    assert f.utilization(4) == 0.0
    assert "(empty" in f.to_gantt()


def test_envelopes():
    f = make_flow([
        (0, "SPMM", 0, 0.0, 1.0, 0),
        (1, "SPMM", 1, 0.5, 2.0, 0),
        (2, "XY", 0, 1.0, 3.0, 0),
    ])
    env = f.kernel_envelopes()
    assert env["SPMM"] == (0.0, 2.0)
    assert env["XY"] == (1.0, 3.0)
    assert f.makespan == 3.0


def test_overlap_fraction_phased_vs_pipelined():
    phased = make_flow([
        (0, "A", 0, 0.0, 1.0, 0),
        (1, "B", 0, 1.0, 2.0, 0),
    ])
    assert phased.kernel_overlap_fraction() == 0.0
    pipelined = make_flow([
        (0, "A", 0, 0.0, 2.0, 0),
        (1, "B", 1, 0.0, 2.0, 0),
    ])
    assert pipelined.kernel_overlap_fraction() == pytest.approx(0.5)


def test_core_busy_and_utilization():
    f = make_flow([
        (0, "A", 0, 0.0, 2.0, 0),
        (1, "A", 1, 0.0, 1.0, 0),
    ])
    busy = f.core_busy_time()
    assert busy == {0: 2.0, 1: 1.0}
    assert f.utilization(2) == pytest.approx(3.0 / 4.0)


def test_iteration_spans():
    f = make_flow([
        (0, "A", 0, 0.0, 1.0, 0),
        (1, "A", 0, 1.0, 2.5, 1),
    ])
    spans = f.iteration_spans()
    assert spans[0] == (0.0, 1.0)
    assert spans[1] == (1.0, 2.5)


def test_gantt_renders_all_cores_and_legend():
    f = make_flow([
        (0, "SPMM", 0, 0.0, 1.0, 0),
        (1, "XY", 3, 1.0, 2.0, 0),
    ])
    text = f.to_gantt(width=40)
    assert "A=SPMM" in text and "B=XY" in text
    assert "core   0" in text and "core   3" in text
    assert "A" in text.splitlines()[1]


def _reference_reductions(records):
    """One walk per reduction — the definitions the one-pass
    ``FlowGraph.summary()`` must reproduce bit for bit."""
    makespan = max((r.end for r in records), default=0.0)
    env, busy, spans = {}, {}, {}
    for r in records:
        lo, hi = env.get(r.kernel, (r.start, r.end))
        env[r.kernel] = (min(lo, r.start), max(hi, r.end))
    for r in records:
        busy[r.core] = busy.get(r.core, 0.0) + (r.end - r.start)
    for r in records:
        lo, hi = spans.get(r.iteration, (r.start, r.end))
        spans[r.iteration] = (min(lo, r.start), max(hi, r.end))
    return makespan, env, busy, spans


_times = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(st.sampled_from("ABCD"), st.integers(0, 5),
                          _times, _times, st.integers(0, 3)),
                max_size=60))
@settings(max_examples=200, deadline=None)
def test_one_pass_summary_matches_per_reduction_walks(rows):
    f = make_flow([(i, k, c, min(a, b), max(a, b), it)
                   for i, (k, c, a, b, it) in enumerate(rows)])
    mk, env, busy, spans = _reference_reductions(f.records)
    s = f.summary()
    # Same floats to the bit and same key order, not merely equal.
    assert repr(s.makespan) == repr(mk) == repr(f.makespan)
    assert repr(list(s.envelopes.items())) == repr(list(env.items()))
    assert repr(list(s.core_busy.items())) == repr(list(busy.items()))
    assert repr(list(s.spans.items())) == repr(list(spans.items()))
    assert s.n_records == len(rows)
