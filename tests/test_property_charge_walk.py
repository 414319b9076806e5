"""The compiled charge walk must match the generic walk bit for bit.

``CostModel`` prices a task two ways.  Untraced runs take the compiled
walk ``_charge_bare``: one fused loop over the task's precompiled
access plan, with the DRAM legs priced from epoch-stamped NUMA home
arrays.  Everything else — notably any run with a trace hook attached
— takes the generic walk in ``charge``, which goes through
:meth:`~repro.machine.cache.CacheHierarchy.access` and
:meth:`~repro.machine.memory.MemoryModel.dram_line_cost` one operand at
a time.  The generic walk is the oracle: random task sets charged over
random schedules must produce bit-identical
:class:`~repro.sim.cost.TaskCharge` values *and* leave the hierarchy in
bit-identical state — LRU insertion order, ``used`` totals and the
coherence sharer maps included (the steady-state fingerprint hashes
all of them) — through either walk.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from repro.graph.dag import TaskDAG
from repro.graph.task import DataHandle, Task
from repro.machine.cache import CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.machine.presets import broadwell
from repro.sim.cost import CostModel

# Repeats of one schedule, so warm and fixed-point states are walked
# as well as the cold first round.
_ROUNDS = 4

#: Broadwell with caches shrunk far below the drawn operand sizes, so
#: L3 evictions (and the sharer prunes they cause) and non-scattered
#: gathers with a DRAM leg are common, not corner cases.
_TINY = replace(broadwell(), name="broadwell-tiny", l1_size=4 * 1024,
                l2_size=16 * 1024, l3_size=128 * 1024)


def _fingerprint(cache: CacheHierarchy):
    """Exact hierarchy state: entries and sharers in insertion order."""
    return (
        tuple((tuple(l._entries.items()), l.used) for l in cache.l1),
        tuple((tuple(l._entries.items()), l.used) for l in cache.l2),
        tuple((tuple(l._entries.items()), l.used) for l in cache.l3),
        tuple((k, tuple(sorted(v))) for k, v in cache._sharers.items()),
        tuple((k, tuple(sorted(v)))
              for k, v in cache._l3_sharers.items()),
    )


def _charge_schedule(machine, tasks, schedule, generic: bool):
    """Charge ``schedule`` for ``_ROUNDS`` rounds on a fresh model."""
    cache = CacheHierarchy(machine)
    mem = MemoryModel(machine, first_touch=True, n_parts=8)
    cm = CostModel(machine, cache, mem)
    dag = TaskDAG()
    for t in tasks:
        dag.add_task(t)
    cm.prepare(dag)
    # Guard against vacuity: the compiled walk must actually be armed.
    assert cm._fast_prep is not None
    if generic:
        cache.trace_hook = lambda lines: None
    charges = []
    for _ in range(_ROUNDS):
        for ti, core in schedule:
            task = dag.tasks[ti]
            if generic:
                c = cm.charge(task, core)
            else:
                c = cm._charge_bare(cm._prep[task.tid], core)
            charges.append(tuple(c))
    return charges, _fingerprint(cache)


@st.composite
def task_workloads(draw):
    """A machine, a random task set and a (task, core) schedule.

    Handle sizes range up to several hundred KB so evictions, L2/L3
    spills, whole-level clobbers and cross-core sharing all occur, and
    half are L1-sized so full L1 hits happen too.  Sparse tasks add
    effective-byte overrides and gather traffic, with gather spans
    drawn around the input chunk size so both the scattered and the
    home-domain DRAM pricing occur.  Cores span both Broadwell
    sockets, so L3 groups and NUMA domains differ across the schedule.
    """
    machine = draw(st.sampled_from([broadwell(), _TINY]))
    n_handles = draw(st.integers(2, 8))
    handles = [
        DataHandle(f"h{i}", draw(st.integers(0, 7)),
                   draw(st.integers(0, 4096) | st.integers(0, 400_000)))
        for i in range(n_handles)
    ]
    matrix = DataHandle("A", draw(st.integers(0, 7)),
                        draw(st.integers(64, 200_000)))
    n_tasks = draw(st.integers(1, 5))
    tasks = []
    for _ in range(n_tasks):
        if draw(st.booleans()):
            x = handles[draw(st.integers(0, n_handles - 1))]
            y = handles[draw(st.integers(0, n_handles - 1))]
            shape = {
                "rows": draw(st.integers(1, 5_000)),
                "cols": draw(st.integers(1, 5_000)),
                "nnz": draw(st.integers(0, 20_000)),
                "width": draw(st.integers(1, 8)),
            }
            chunk = shape["cols"] * shape["width"] * 8
            shape["gather_span"] = int(chunk * draw(
                st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 100.0])))
            params = {"A": "A", "X": x.name, "Y": y.name,
                      "buffer": draw(st.booleans())}
            tasks.append(Task(0, "SPMM", (matrix, x), (y,), shape, params))
            continue
        reads = tuple(
            handles[draw(st.integers(0, n_handles - 1))]
            for _ in range(draw(st.integers(1, 3)))
        )
        writes = tuple(
            handles[draw(st.integers(0, n_handles - 1))]
            for _ in range(draw(st.integers(0, 1)))
        )
        tasks.append(Task(0, "AXPY", reads, writes,
                          {"rows": draw(st.integers(1, 10_000))}))
    schedule = [
        (draw(st.integers(0, n_tasks - 1)), draw(st.integers(0, 27)))
        for _ in range(draw(st.integers(1, 12)))
    ]
    return machine, tasks, schedule


#: A core's full L1 hit on a key that a neighbour's streaming touch
#: has meanwhile evicted from their shared L3: the hit must re-add the
#: group as an L3 sharer.
_L3_READD = (
    _TINY,
    [Task(0, "AXPY", (DataHandle("k", 0, 1024),), (), {"rows": 10}),
     Task(0, "AXPY", (DataHandle("b", 1, 200_000),), (), {"rows": 10})],
    [(0, 0), (1, 1)],
)


@given(task_workloads())
@example(_L3_READD)
@settings(max_examples=100, deadline=None)
def test_bare_walk_matches_generic_walk(workload):
    machine, tasks, schedule = workload
    bare_charges, bare_state = _charge_schedule(machine, tasks, schedule,
                                                generic=False)
    generic_charges, generic_state = _charge_schedule(
        machine, tasks, schedule, generic=True)
    assert bare_charges == generic_charges  # floats compared with ==
    assert bare_state == generic_state


def test_charge_routes_untraced_tasks_to_the_compiled_walk(monkeypatch):
    """``charge`` takes the compiled walk only while no hook is attached."""
    big = DataHandle("big", 0, 1 << 20)
    aux = DataHandle("aux", 1, 200_000)
    bw = broadwell()
    cache = CacheHierarchy(bw)
    cm = CostModel(bw, cache, MemoryModel(bw, first_touch=True, n_parts=8))
    dag = TaskDAG()
    dag.add_task(Task(0, "AXPY", (big, aux), (aux,), {"rows": 4096}))
    cm.prepare(dag)
    calls = []
    bare = CostModel._charge_bare

    def spy(self, plan, core):
        calls.append(core)
        return bare(self, plan, core)

    monkeypatch.setattr(CostModel, "_charge_bare", spy)
    cm.charge(dag.tasks[0], 3)
    cache.trace_hook = lambda lines: None
    cm.charge(dag.tasks[0], 5)
    assert calls == [3]
