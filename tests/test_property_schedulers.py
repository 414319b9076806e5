"""Metamorphic cross-scheduler invariants on random built DAGs.

Every runtime policy (DeepSparse, HPX, Regent, BSP) executing a random
builder-produced DAG must land between the scheduling-theory bounds —
makespan no better than the compute-only critical path or the work/P
bound, and no worse than serializing every charged second — and must
do so with and without the engine's equivalence switch
``REPRO_NO_STEADY_STATE`` (iteration fast path off).  The switch is
documented bit-identical; here that promise is pinned on random DAGs
rather than the fixed paper problems of ``test_engine_bounds.py``.
"""

import os
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.builder import BuildOptions, DAGBuilder
from repro.graph.trace import TraceRecorder
from repro.machine import broadwell
from repro.matrices.coo import COOMatrix
from repro.matrices.csb import CSBMatrix
from repro.sim.engine import _default_barrier_cost, SimulationEngine, run_bsp
from repro.sim.schedulers import (
    DeepSparseScheduler,
    HPXScheduler,
    RegentScheduler,
)
from tests.test_property_dag import random_problem

POLICIES = ("deepsparse", "hpx", "regent", "bsp")

_SCHEDULERS = {
    "deepsparse": DeepSparseScheduler,
    "hpx": HPXScheduler,
    "regent": RegentScheduler,
}

#: The engine switch is read at call time, so toggling the
#: environment between runs is enough — no re-import needed.
_FLAGS = ("REPRO_NO_STEADY_STATE",)

FLAG_COMBOS = (
    {},
    {"REPRO_NO_STEADY_STATE": "1"},
)


@contextmanager
def _flags(combo):
    saved = {k: os.environ.get(k) for k in _FLAGS}
    try:
        for k in _FLAGS:
            os.environ.pop(k, None)
        os.environ.update(combo)
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _run(machine, dag, policy, seed=0, iterations=1):
    """Run ``dag`` under ``policy``; returns (result, scheduler|None)."""
    if policy == "bsp":
        return run_bsp(machine, dag, iterations=iterations), None
    sched = _SCHEDULERS[policy]()
    res = SimulationEngine(machine, seed=seed).run(
        dag, sched, iterations=iterations
    )
    return res, sched


def _serial_bound(machine, dag, res, policy, sched, iterations):
    """Serializing every charged second is the slowest legal schedule.

    Busy time covers task durations; overhead time covers runtime
    charges billed outside them.  Barriers close each iteration — and,
    under BSP, each fork-join phase — with a little slop per phase for
    the static loop overhead.  Policies that serialize task *release*
    (Regent's dependence-analysis pipeline) can hold the last task
    invisible past the serial-charge horizon, so the latest release
    offset is added once per iteration.
    """
    phases = iterations
    if policy == "bsp":
        phases = iterations * len({t.seq for t in dag.tasks})
    release = 0.0
    if sched is not None:
        release = max(
            (sched.release_time(t.tid, 0.0) for t in dag.tasks),
            default=0.0,
        )
    c = res.counters
    return (c.busy_time + c.overhead_time
            + iterations * release
            + phases * (_default_barrier_cost(machine.n_cores) + 1e-6)
            + 1e-9)


@given(random_problem(), st.sampled_from(POLICIES), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_makespan_between_span_and_serial_sum(dag, policy, seed):
    """work/P ≤ span-bound ≤ makespan ≤ serialized charges, any policy."""
    bw = broadwell()
    span = dag.critical_path(weight=SimulationEngine(bw).cost.compute_seconds)
    res, sched = _run(bw, dag, policy, seed=seed)
    assert res.counters.tasks_executed == len(dag)
    assert res.total_time >= span - 1e-12
    assert res.total_time >= res.counters.busy_time / bw.n_cores - 1e-12
    assert res.total_time <= _serial_bound(bw, dag, res, policy, sched, 1)


@given(random_problem(), st.sampled_from(POLICIES))
@settings(max_examples=15, deadline=None)
def test_flag_combos_are_bit_identical(dag, policy):
    """The steady-state switch never changes a single bit.

    Six iterations so the steady-state detector has room to arm (it
    needs ≥ 4); the replayed run must reproduce the fully simulated
    one exactly — total, per-iteration times, and the full counter
    block.
    """
    baseline = None
    for combo in FLAG_COMBOS:
        with _flags(combo):
            res, _ = _run(broadwell(), dag, policy, seed=7, iterations=6)
        obs = (res.total_time, tuple(res.iteration_times),
               res.counters.busy_time, res.counters.overhead_time,
               res.counters.compute_time, res.counters.memory_time,
               res.counters.misses(), res.counters.tasks_executed)
        if baseline is None:
            baseline = obs
        else:
            assert obs == baseline, combo
    # All six iterations ran, under whichever path produced them.
    assert baseline[7] == 6 * len(dag)


def test_replay_guard_catches_release_overtaking_finish_head():
    """Regression for a draw of the property above.

    On this DAG a dependence release and a finish are within rounding
    of each other when the event loop picks its next event, and at a
    later iteration's anchor they swap order.  Replaying the tape
    without re-checking that comparison committed iteration times one
    ulp off the full simulation; the guard must fall back instead.
    """
    rng = np.random.default_rng(0)
    coo = COOMatrix((36, 36), rng.integers(0, 36, 1),
                    rng.integers(0, 36, 1), rng.standard_normal(1))
    t = TraceRecorder()
    t.record("SPMM", ("A", "X"), ("Y",))
    t.record("SPMM", ("A", "X"), ("Y",))
    t.record("XY", ("X", "Z"), ("Y",))
    dag = DAGBuilder(
        CSBMatrix.from_coo(coo, 5), "A", {"X": 2, "Y": 2, "Q": 2},
        {"Z": (2, 2), "P": (2, 2), "s": (1, 1)},
        BuildOptions(skip_empty=False, spmm_mode="dependency"),
    ).build(t.calls)
    runs = []
    for combo in FLAG_COMBOS:
        with _flags(combo):
            res, _ = _run(broadwell(), dag, "deepsparse", seed=7,
                          iterations=6)
        runs.append((res.total_time, tuple(res.iteration_times)))
    assert runs[0] == runs[1]


@given(random_problem(), st.sampled_from(POLICIES), st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_multi_iteration_bounds_hold_per_iteration(dag, policy, seed):
    """Each barriered repetition individually beats the span bound,
    and the iteration times sum back to the total."""
    bw = broadwell()
    span = dag.critical_path(weight=SimulationEngine(bw).cost.compute_seconds)
    res, sched = _run(bw, dag, policy, seed=seed, iterations=3)
    assert len(res.iteration_times) == 3
    assert sum(res.iteration_times) <= res.total_time + 1e-9
    assert res.total_time <= _serial_bound(bw, dag, res, policy, sched, 3)
    for t in res.iteration_times:
        # Every iteration executes the whole DAG, so the compute-only
        # critical path lower-bounds each repetition individually.
        assert t >= span - 1e-12
