"""The discrete-event engine and the BSP phase executor.

:class:`SimulationEngine.run` plays a DAG under an AMT scheduling
policy: cores pull ready tasks as the policy dictates, each execution
is priced by the cost model against live cache state, and iteration
boundaries are barriers (§4: DeepSparse reuses a single-iteration DAG
with barriers in between; HPX/Regent are barriered in practice by the
convergence check).

:func:`run_bsp` is the library baseline: each primitive call is one
parallel phase — tasks statically chunked over cores, a barrier at the
end — which is exactly the fork-join structure of the MKL-based
``libcsr``/``libcsb`` versions.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.faults.report import FaultReport
from repro.graph.dag import TaskDAG
from repro.machine.cache import CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.machine.perf import PerfCounters
from repro.machine.topology import MachineSpec
from repro.sim.cost import CostModel, apply_core_derate
from repro.sim.flowgraph import FlowGraph, FlowSummary
from repro.sim.schedulers import Scheduler

__all__ = ["RunResult", "RunResultSummary", "SimulationEngine", "run_bsp"]

_EPS = 1e-15


_NO_KEY = (float("-inf"), -1)


def _pops_hold(vals, pops, last, lim) -> bool:
    """Whether taped heap pops ``(node, tiebreak, lo)`` still pop in
    key order after ``last``, inside the window ending at ``lim``, and
    above the window of node ``lo`` (-1: none) they previously sat
    out — the replay guard's ordering facts at one anchor."""
    for node, tie, lo in pops:
        key = (vals[node], tie)
        if key < last or key[0] > lim or (
                lo >= 0 and key[0] <= vals[lo] + _EPS):
            return False
        last = key
    return True


def _steady_state_enabled() -> bool:
    """Whether the steady-state fast path is on: it is unless the
    ``REPRO_NO_STEADY_STATE`` environment kill-switch is set."""
    return not os.environ.get("REPRO_NO_STEADY_STATE")


def _machine_state_fingerprint(cache: CacheHierarchy,
                               memory: MemoryModel) -> tuple:
    """Hashable snapshot of every piece of mutable machine state.

    Taken at iteration barriers by the steady-state detector: per-level
    LRU contents *in LRU order* (eviction order is state), the
    coherence sharer maps, and any explicit NUMA placement pins.  The
    memoization dicts (``MemoryModel._domain_memo`` etc.) are excluded
    on purpose — they are pure caches that cannot change simulated
    values.
    """
    return (
        tuple(tuple(c._entries.items()) for c in cache.l1),
        tuple(tuple(c._entries.items()) for c in cache.l2),
        tuple(tuple(c._entries.items()) for c in cache.l3),
        tuple((k, tuple(sorted(v))) for k, v in cache._sharers.items()),
        tuple((k, tuple(sorted(v))) for k, v in cache._l3_sharers.items()),
        tuple(memory._placement.items()),
    )


@dataclass
class RunResult:
    """Outcome of one simulated solver run."""

    machine: str
    policy: str
    total_time: float
    iteration_times: List[float]
    counters: PerfCounters
    flow: FlowGraph
    n_cores: int
    n_tasks_per_iteration: int
    #: 0-based index of the first iteration produced by the
    #: steady-state tape replay instead of full simulation; ``None``
    #: when every iteration was simulated (fast path disabled, never
    #: detected, or the run is too short to arm it).
    steady_state_at: Optional[int] = None
    #: :class:`repro.faults.FaultReport` when the run executed under a
    #: non-empty fault plan; ``None`` on healthy runs.
    fault_report: Optional[FaultReport] = None

    @property
    def time_per_iteration(self) -> float:
        """Mean iteration wall time — the paper's reported quantity."""
        return self.total_time / max(1, len(self.iteration_times))

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup relative to a baseline run (libcsr in the paper)."""
        return baseline.time_per_iteration / self.time_per_iteration

    def summary(self) -> "RunResultSummary":
        """Serializable aggregate of this run (flow records dropped)."""
        return RunResultSummary(
            machine=self.machine,
            policy=self.policy,
            total_time=self.total_time,
            iteration_times=list(self.iteration_times),
            counters=self.counters,
            flow=self.flow.summary(),
            n_cores=self.n_cores,
            n_tasks_per_iteration=self.n_tasks_per_iteration,
            steady_state_at=self.steady_state_at,
            fault_report=self.fault_report,
        )


@dataclass
class RunResultSummary:
    """What the on-disk result cache stores for one simulated run.

    Drop-in for :class:`RunResult` everywhere the benchmarks and the
    analysis layer read results — timing, counters, flow *aggregates* —
    but without the per-task :class:`FlowRecord` list, so it serializes
    to a few KB regardless of DAG size.  ``to_dict``/``from_dict``
    round-trip bit-exactly (floats survive via ``repr`` in JSON).
    """

    machine: str
    policy: str
    total_time: float
    iteration_times: List[float]
    counters: PerfCounters
    flow: FlowSummary
    n_cores: int
    n_tasks_per_iteration: int
    #: See :attr:`RunResult.steady_state_at`.  Optional with a ``None``
    #: default so summaries serialized before the fast path existed
    #: (older on-disk result caches) still deserialize.
    steady_state_at: Optional[int] = None
    #: See :attr:`RunResult.fault_report`; ``None``-default for the
    #: same backward-compatibility reason.
    fault_report: Optional[FaultReport] = None

    @property
    def time_per_iteration(self) -> float:
        return self.total_time / max(1, len(self.iteration_times))

    def speedup_over(self, baseline) -> float:
        return baseline.time_per_iteration / self.time_per_iteration

    def summary(self) -> "RunResultSummary":
        return self

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "machine": self.machine,
            "policy": self.policy,
            "total_time": self.total_time,
            "iteration_times": list(self.iteration_times),
            "counters": self.counters.to_dict(),
            "flow": self.flow.to_dict(),
            "n_cores": self.n_cores,
            "n_tasks_per_iteration": self.n_tasks_per_iteration,
            "steady_state_at": self.steady_state_at,
            "fault_report": None
            if self.fault_report is None
            else self.fault_report.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunResultSummary":
        ss = d.get("steady_state_at")
        fr = d.get("fault_report")
        return cls(
            machine=str(d["machine"]),
            policy=str(d["policy"]),
            total_time=float(d["total_time"]),
            iteration_times=[float(t) for t in d["iteration_times"]],
            counters=PerfCounters.from_dict(d["counters"]),
            flow=FlowSummary.from_dict(d.get("flow", {})),
            n_cores=int(d["n_cores"]),
            n_tasks_per_iteration=int(d["n_tasks_per_iteration"]),
            steady_state_at=None if ss is None else int(ss),
            fault_report=None if fr is None else FaultReport.from_dict(fr),
        )


def _default_barrier_cost(n_cores: int) -> float:
    """Tree barrier: ~0.4 µs per fan-in level."""
    return 0.4e-6 * max(1.0, math.log2(n_cores))


#: Per-task OpenMP loop-body overhead of a BSP library phase.
_LOOP_OVERHEAD = 0.05e-6


def _max_partitions(dag: TaskDAG) -> int:
    """Highest chunk partition count in the DAG (NUMA placement input)."""
    return max(1, dag.freeze().max_part)


def _begin_faulted_iteration(fs, it, t0, tracer, on_loss=None):
    """Advance ``fs`` to iteration ``it``; returns the newly dead cores.

    Each death is handed to ``on_loss(core, t0)`` (the AMT policy's
    recovery) before the tracer sees it."""
    newly_dead, newly_slow = fs.begin_iteration(it)
    for c in newly_dead:
        if on_loss is not None:
            on_loss(c, t0)
        if tracer is not None:
            tracer.fault(t0, c, "core-loss")
    if tracer is not None:
        for c in newly_slow:
            tracer.fault(t0, c, "slow-onset", detail=fs.factor(c))
    return newly_dead


def _close_faults(fs, name, iteration_times, tracer):
    """The run's :class:`FaultReport` (``None`` when healthy), with each
    measurable recovery traced at the end of its death iteration."""
    if fs is None:
        return None
    report = fs.finalize(name, tuple(iteration_times))
    if tracer is not None:
        for core, at, latency in report.core_losses:
            if latency is not None:
                tracer.recovery(sum(iteration_times[: at + 1]), core,
                                latency)
    return report


class SimulationEngine:
    """Event-driven execution of a TaskDAG under one scheduling policy.

    One engine instance owns one machine state (caches, NUMA
    placement); create a fresh engine per configuration so runs don't
    share warmth.
    """

    def __init__(
        self,
        machine: MachineSpec,
        first_touch: bool = True,
        seed: int = 0,
    ):
        self.machine = machine
        self.cache = CacheHierarchy(machine)
        self.memory = MemoryModel(machine, first_touch=first_touch)
        self.cost = CostModel(machine, self.cache, self.memory)
        self.seed = seed

    # ------------------------------------------------------------------
    def run(
        self,
        dag: TaskDAG,
        scheduler: Scheduler,
        iterations: int = 1,
        record_flow: bool = True,
        tracer=None,
        faults=None,
    ) -> RunResult:
        """Execute ``iterations`` barriered repetitions of the DAG.

        ``faults`` (a :class:`repro.faults.FaultPlan`, default off)
        attaches deterministic fault injection: per-core frequency
        derates, core losses at iteration barriers (recovered per the
        scheduler's policy), and transient task faults re-executed with
        backoff charged to the simulated clock.  An empty plan resolves
        to no :class:`~repro.faults.FaultState` and the run is
        bit-identical to ``faults=None``; an active plan disarms the
        steady-state fast path (a degraded machine has no certified
        fixed point) and surfaces ``RunResult.fault_report``.

        ``tracer`` (a :class:`repro.trace.Tracer`, default off) attaches
        the observability layer: per-task events on worker lanes,
        barrier intervals, scheduler queue/steal/poll events, and
        machine-state samples at every barrier.  Tracing is strictly
        observational — with a tracer attached the simulated numbers
        are bit-identical to ``tracer=None``; iterations produced by
        the steady-state replay emit synthesized events
        (``synthesized=True``) carrying the exact times the full
        simulation would have produced.

        The iteration fast path is on unless ``REPRO_NO_STEADY_STATE``
        is set (the full-simulation oracle).  Iterative solvers
        replay the same DAG against machine state that converges to a
        fixed point after a warm-up iteration or two; once the detector
        sees two consecutive iterations leave *identical* machine and
        scheduler state behind (:func:`_machine_state_fingerprint`,
        :meth:`Scheduler.state_fingerprint`) and produce *identical*
        value tapes, every remaining iteration is produced by replaying
        the tape — re-executing exactly the float operations the full
        simulation would execute, anchored at each iteration's start
        time — so results are bit-identical to full simulation while
        skipping the cache simulation and scheduling logic entirely.
        Schedulers opt out by returning ``None`` from
        ``state_fingerprint`` (unknown subclasses) or by fingerprinting
        state that never repeats (HPX's RNG), in which case every
        iteration is simulated in full.
        """
        barrier_cost = _default_barrier_cost(self.machine.n_cores)
        self.memory.configure_from_dag(dag)
        if self.memory.n_parts is None:
            self.memory.n_parts = _max_partitions(dag)
        scheduler.prepare(dag, self.machine, self.memory, seed=self.seed)
        self.cost.prepare(dag)
        counters = PerfCounters()
        # record_flow=False must actually skip recording, not record
        # every task and throw the trace away afterwards.
        flow = FlowGraph() if record_flow else None
        if tracer is not None:
            tracer.begin_run(self.machine.name, scheduler.name,
                             self.machine.n_cores, dag)
            scheduler.tracer = tracer
            self.cache.trace_hook = tracer._on_cache_access
        ttask = tracer.task if tracer is not None else None
        fs = faults.state(self.machine) if faults is not None else None
        # Detection needs two comparable warm iterations after the cold
        # one, so runs shorter than 4 iterations never tape.
        armed = _steady_state_enabled() and iterations >= 4 and fs is None
        clock = 0.0
        iteration_times: List[float] = []
        steady_state_at = None
        prev_fp = None
        prev_tape = None
        it = 0
        while it < iterations:
            t0 = clock
            scheduler.reset_iteration(it, t0)
            if fs is not None:
                _begin_faulted_iteration(fs, it, t0, tracer,
                                         scheduler.on_core_loss)
            ops, batches = ([], []) if armed else (None, None)
            end, end_node = self._run_iteration(
                dag, scheduler, counters, flow, it, t0, ttask, fs,
                ops, batches,
            )
            clock = end + barrier_cost
            iteration_times.append(clock - t0)
            if tracer is not None:
                tracer.sample_machine(it, end, self.cache, self.memory)
                tracer.barrier(it, t0, end, clock)
            it += 1
            if not armed:
                continue
            tape = (ops, batches, end_node)
            sched_fp = scheduler.state_fingerprint()
            if sched_fp is None:
                # Scheduler opted out: no more taping this run.
                armed = False
                continue
            fp = (sched_fp,
                  _machine_state_fingerprint(self.cache, self.memory))
            if prev_fp is not None and fp == prev_fp and tape == prev_tape:
                # Two consecutive iterations started from the same
                # state, behaved identically, and returned to that
                # state: by induction every remaining iteration repeats
                # the tape.  Replay it (falls back to full simulation
                # if the sanity guard ever trips).
                first = it
                it, clock = self._replay_iterations(
                    dag, scheduler, tape, counters, flow,
                    it, iterations, clock, barrier_cost, iteration_times,
                    tracer,
                )
                if it > first:
                    steady_state_at = first
                armed = False
                continue
            prev_fp = fp
            prev_tape = tape
        if tracer is not None:
            scheduler.tracer = None
            self.cache.trace_hook = None
        return RunResult(
            machine=self.machine.name,
            policy=scheduler.name,
            total_time=clock,
            iteration_times=iteration_times,
            counters=counters,
            flow=flow if record_flow else FlowGraph(),
            n_cores=self.machine.n_cores,
            n_tasks_per_iteration=len(dag),
            steady_state_at=steady_state_at,
            fault_report=_close_faults(fs, scheduler.name, iteration_times,
                                       tracer),
        )

    # ------------------------------------------------------------------
    def _run_iteration(self, dag, scheduler, counters, flow, it, t0,
                       ttask=None, fs=None, ops=None, batches=None):
        """Simulate one iteration of the DAG; returns ``(end, end_node)``.

        Two optional layers ride on the one event loop, each off when
        its local is ``None``:

        * ``fs`` — an active :class:`~repro.faults.FaultState`.  Dead
          cores never enter the idle scan, derates stretch each
          charge's compute component, and a completion may be poisoned
          and re-executed after a backoff instead of releasing its
          successors.
        * ``ops`` — a list that receives the iteration's *value tape*.
          Every timestamp the loop produces is a node of a small value
          graph anchored at ``t0`` (node 0); the tape records, in
          creation order, how each node is computed:

          - ``(0, tid)`` — initial release: ``release_time(tid, t0)``;
          - ``(1, tid, j)`` — dependence-satisfied release, clamped to
            the enabling event: ``max(release_time(tid, t0), vals[j])``;
          - ``(2, j, dur, tid, core, overhead, compute, memory_t,
            m1, m2, m3)`` — task assignment at time node ``j``,
            finishing at ``vals[j] + dur``, with the full charge
            decomposition for counter/flow replay.

          ``end_node`` names the node of the iteration's end time.
          ``batches`` (given with ``ops``) receives one
          ``(time_node, rival, won, released, finished)`` entry per
          event — the ordering facts :meth:`_replay_iterations`
          re-checks at each new anchor: ``rival`` is the node of the
          other heap's head the event time was compared against (or
          -1), ``won`` whether a release beat the finish head,
          ``released`` the release-heap nodes popped in the scheduling
          round before the event, and ``finished`` the
          ``(node, core)`` finish-heap entries completed at the event,
          each in pop order.  Faults and taping never combine (an
          active plan disarms the steady-state fast path), so the
          retry path appends no ops.

        Heap entries carry their value-node id as a trailing element;
        tuple ordering is untouched because ``(time, tid)`` / ``(time,
        core)`` are already unique within their heaps.  Neither layer
        changes an arithmetic operation of the healthy path, so the
        simulated numbers are bit-identical with or without the tape.
        """
        n = len(dag)
        if n == 0:
            return t0, 0
        indeg = dag.in_degrees()
        tape_op = ops.append if ops is not None else None
        nv = 1  # node 0 is t0; each timestamp creates one value node
        # (time, tid, enabler_core, node): dep-free, waiting on the
        # runtime.
        release_heap = []
        for tid, d in enumerate(indeg):
            if d == 0:
                if tape_op is not None:
                    tape_op((0, tid))
                heapq.heappush(
                    release_heap,
                    (scheduler.release_time(tid, t0), tid, -1, nv),
                )
                nv += 1
        finish_heap = []  # (time, core, tid, node)
        n_cores = self.machine.n_cores
        # Idle cores as a flag array scanned in ascending id order —
        # same assignment order as the historical ``sorted(idle)``
        # without re-sorting a set on every scheduling round.  Dead
        # lanes start (and stay) busy: they are simply never scanned
        # for work, which is the engine half of every policy's
        # recovery story.
        if fs is None:
            idle = bytearray([1]) * n_cores
            derates = None
            rate = 0.0
        else:
            idle = bytearray(
                0 if fs.dead(c) else 1 for c in range(n_cores)
            )
            derates = fs.derates
            rate = fs.rate
        n_idle = sum(idle)
        attempts: dict = {}  # tid -> failed attempts this iteration
        completed = 0
        time = t0
        time_node = 0
        released = [] if batches is not None else None
        tasks = dag.tasks
        succ = dag.succ
        charge = self.cost.charge
        pick = scheduler.pick
        overhead_of = scheduler.overhead
        has_ready = scheduler.has_ready
        release_time = scheduler.release_time
        record_flow = flow.record if flow is not None else None
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Counters accumulate in locals (see PerfCounters.totals).
        (n_exec, busy_t, ovh_t, comp_t, mem_t,
         l1m, l2m, l3m) = counters.totals()
        ktime = counters.kernel_time
        ktasks = counters.kernel_tasks
        ktime_get = ktime.get
        ktasks_get = ktasks.get

        def launch(tid, core, start):
            """Charge ``tid`` on ``core`` from ``start``: push its
            finish, count and record it; returns its duration."""
            nonlocal nv, n_exec, busy_t, ovh_t, comp_t, mem_t, l1m, l2m, l3m
            task = tasks[tid]
            overhead = overhead_of(tid)
            dur, compute, memory_t, (m1, m2, m3) = charge(task, core)
            if derates is not None and derates[core] != 1.0:
                f = derates[core]
                dur, compute, extra = apply_core_derate(dur, compute, f)
                ovh_extra = overhead * (f - 1.0)
                overhead += ovh_extra
                fs.slow_time += extra + ovh_extra
            dur += overhead
            if tape_op is not None:
                tape_op((2, time_node, dur, tid, core, overhead,
                         compute, memory_t, m1, m2, m3))
            end = start + dur
            heappush(finish_heap, (end, core, tid, nv))
            nv += 1
            kernel = task.kernel
            n_exec += 1
            busy_t += dur
            ovh_t += overhead
            comp_t += compute
            mem_t += memory_t
            l1m += m1
            l2m += m2
            l3m += m3
            ktime[kernel] = ktime_get(kernel, 0.0) + dur
            ktasks[kernel] = ktasks_get(kernel, 0) + 1
            if record_flow is not None:
                record_flow(tid, kernel, core, start, end, it)
            if ttask is not None:
                ttask(tid, kernel, core, start, end, it, overhead,
                      compute, memory_t, m1, m2, m3)
            return dur

        while completed < n:
            while release_heap and release_heap[0][0] <= time + _EPS:
                _, tid, enabler, node = heappop(release_heap)
                if released is not None:
                    released.append(node)
                scheduler.on_ready(tid, time,
                                   enabler if enabler >= 0 else None)
            # Hand ready tasks to idle cores (policy picks per core).
            assigned = False
            if n_idle and has_ready():
                for core in range(n_cores):
                    if not idle[core]:
                        continue
                    tid = pick(core, time)
                    if tid is None:
                        continue
                    launch(tid, core, time)
                    idle[core] = 0
                    n_idle -= 1
                    assigned = True
                    if not has_ready():
                        break
            if assigned:
                continue
            # Nothing assignable now: advance to the next event.
            rival = -1
            won = False
            if finish_heap:
                head = finish_heap[0]
                if n_idle and release_heap:
                    other = release_heap[0]
                    if other[0] < head[0]:
                        head, other, won = other, head, True
                    rival = other[3]
            elif n_idle and release_heap:
                head = release_heap[0]
            else:
                raise RuntimeError(
                    "simulation deadlock: tasks remain but no events pending"
                )
            time = head[0]
            time_node = head[3]
            batch = [] if batches is not None else None
            while finish_heap and finish_heap[0][0] <= time + _EPS:
                ftime, core, tid, node = heappop(finish_heap)
                if batch is not None:
                    batch.append((node, core))
                if rate > 0.0:
                    a = attempts.get(tid, 0)
                    if fs.task_fails(it, tid, a):
                        if a < fs.budget:
                            # Poisoned result: re-execute on the same
                            # core after exponential backoff; the core
                            # stays busy and the successors stay
                            # unreleased until a clean attempt lands.
                            attempts[tid] = a + 1
                            backoff = fs.backoff_seconds(a)
                            fs.re_executed_time += launch(
                                tid, core, ftime + backoff)
                            fs.retries += 1
                            fs.backoff_time += backoff
                            if scheduler.tracer is not None:
                                scheduler.tracer.fault(
                                    ftime, core, "task-retry", tid,
                                    float(a + 1))
                            continue
                        # Budget exhausted: abandon (solver falls back
                        # to the stale iterate for this block) so the
                        # DAG still completes.
                        fs.abandoned += 1
                        if scheduler.tracer is not None:
                            scheduler.tracer.fault(
                                ftime, core, "task-abandoned", tid,
                                float(a))
                idle[core] = 1
                n_idle += 1
                completed += 1
                scheduler.on_complete(tid, core)
                for v in succ[tid]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        rt = release_time(v, t0)
                        if rt < time:
                            rt = time
                        if tape_op is not None:
                            tape_op((1, v, time_node))
                        heappush(release_heap, (rt, v, core, nv))
                        nv += 1
            if batch is not None:
                batches.append((time_node, rival, won, tuple(released),
                                tuple(batch)))
                released.clear()
        counters.set_totals(n_exec, busy_t, ovh_t, comp_t, mem_t,
                            l1m, l2m, l3m)
        return time, time_node

    # ------------------------------------------------------------------
    def _replay_iterations(
        self, dag, scheduler, tape, counters, flow,
        it, iterations, clock, barrier_cost, iteration_times,
        tracer=None,
    ):
        """Produce iterations ``it..iterations-1`` by replaying ``tape``.

        Re-executes, per iteration, exactly the float operations the
        full simulation would execute — one ``release_time`` call or
        max/add per value node, the same counter additions in the same
        order — anchored at that iteration's start time, so the results
        (clock, iteration times, counters, flow records) are
        bit-identical to continuing the simulation.

        A guard re-checks, at this anchor, every time comparison whose
        outcome steered the taped iteration: event times never
        decrease, each event head wins its release-vs-finish comparison
        the same way, each round's releases and each event's finishes
        pop in the recorded heap order inside the ``_EPS`` window, and
        an entry that sat out the previous round or event still lies
        outside that one's window.  Two values within rounding of each
        other can swap order at a new anchor and move an event time
        (or the iteration end) by an ulp.  A violation means the event
        order depended on the absolute anchor; the iteration is then
        *not* committed and the caller falls back to full simulation
        from it.  Returns ``(next_iteration, clock)``.
        """
        ops, batches, end_node = tape
        # Event index at which each value node entered its heap (round
        # 0 for initial releases); an entry older than the previous
        # round (release) or event (finish) has sat one out.
        ev_of = {hi: i for i, (hi, *_) in enumerate(batches, 1)}
        ev_of[0] = 0
        entered = [0] + [ev_of[op[1]] if op[0] == 2
                         else ev_of[op[2]] if op[0] == 1 else 0
                         for op in ops]
        checks = []
        prev2, prev = -1, 0
        for i, (hi, rival, won, released, finished) in enumerate(
                batches, 1):
            rel = tuple((node, ops[node - 1][1],
                         prev2 if entered[node] < i - 1 else -1)
                        for node in released)
            fin = tuple((node, core, prev if entered[node] + 1 < i else -1)
                        for node, core in finished)
            checks.append((prev, hi, rival, won, rel, fin))
            prev2, prev = prev, hi
        # kind-2 ops with the ids of the value nodes they created
        # (node id of op i is i + 1).
        assign_ops = [(i + 1, op) for i, op in enumerate(ops)
                      if op[0] == 2]
        tasks = dag.tasks
        release_time = scheduler.release_time
        record_flow = flow.record if flow is not None else None
        ttask = tracer.task if tracer is not None else None
        eps = _EPS
        (n_exec, busy_t, ovh_t, comp_t, mem_t,
         l1m, l2m, l3m) = counters.totals()
        ktime = counters.kernel_time
        ktasks = counters.kernel_tasks
        ktime_get = ktime.get
        ktasks_get = ktasks.get
        while it < iterations:
            t0 = clock
            scheduler.reset_iteration(it, t0)
            # -- pass 1: evaluate the value graph at this anchor ------
            vals = [t0]
            append = vals.append
            for op in ops:
                kind = op[0]
                if kind == 2:
                    append(vals[op[1]] + op[2])
                elif kind == 1:
                    rt = release_time(op[1], t0)
                    tv = vals[op[2]]
                    append(tv if rt < tv else rt)
                else:
                    append(release_time(op[1], t0))
            ok = True
            for prev, hi, rival, won, rel, fin in checks:
                t = vals[prev]
                t_ev = vals[hi]
                if (t_ev < t or (rival >= 0 and (
                        not t_ev < vals[rival] if won
                        else vals[rival] < t_ev))
                        or not _pops_hold(vals, rel, _NO_KEY, t + eps)
                        or not _pops_hold(vals, fin, (t_ev, -1),
                                          t_ev + eps)):
                    ok = False
                    break
            if not ok:
                break  # uncommitted; caller resumes full simulation
            # -- pass 2: commit counters, flow, and the clock ---------
            for node, op in assign_ops:
                dur = op[2]
                tid = op[3]
                kernel = tasks[tid].kernel
                n_exec += 1
                busy_t += dur
                ovh_t += op[5]
                comp_t += op[6]
                mem_t += op[7]
                l1m += op[8]
                l2m += op[9]
                l3m += op[10]
                ktime[kernel] = ktime_get(kernel, 0.0) + dur
                ktasks[kernel] = ktasks_get(kernel, 0) + 1
                if record_flow is not None:
                    record_flow(tid, kernel, op[4], vals[op[1]],
                                vals[node], it)
                if ttask is not None:
                    # Synthesized event: not re-simulated, but carries
                    # the exact anchored times/charges full simulation
                    # would produce for this iteration.
                    ttask(tid, kernel, op[4], vals[op[1]], vals[node],
                          it, op[5], op[6], op[7], op[8], op[9], op[10],
                          True)
            clock = vals[end_node] + barrier_cost
            iteration_times.append(clock - t0)
            if tracer is not None:
                # Machine state is at its fixed point during replay, so
                # barrier-interval samples legitimately repeat it.
                tracer.sample_machine(it, vals[end_node], self.cache,
                                      self.memory)
                tracer.barrier(it, t0, vals[end_node], clock,
                               synthesized=True)
            it += 1
        counters.set_totals(n_exec, busy_t, ovh_t, comp_t, mem_t,
                            l1m, l2m, l3m)
        return it, clock


# ----------------------------------------------------------------------
def _bsp_phase_assignments(dag: TaskDAG, n_cores: int,
                           nnz_balanced: bool = False):
    """Static chunk→core assignment of every BSP phase, memoized.

    The assignment is run-invariant — a pure function of the task
    list, the core count, and the balancing mode — so it is cached on
    the DAG (and therefore persisted inside prep artifacts: a loaded
    DAG never recomputes it).  Phases are contiguous runs of equal
    ``task.seq`` in program order; library kernels balance differently
    per kernel class — MKL splits sparse kernels by nonzeros, dense
    ones by rows — so the chunk→core mapping shifts between phases on
    skewed matrices (the cross-kernel locality loss inherent to the
    fork-join model).
    """
    memo = getattr(dag, "_bsp_phases", None)
    if memo is None:
        memo = dag._bsp_phases = {}
    mkey = (n_cores, bool(nnz_balanced))
    cached = memo.get(mkey)
    if cached is not None:
        return cached
    tasks = dag.tasks
    phases: List[List[int]] = []
    last_seq = None
    for t in tasks:
        if t.seq != last_seq:
            phases.append([])
            last_seq = t.seq
        phases[-1].append(t.tid)
    phase_assignments: List[List[tuple]] = []
    for phase in phases:
        # Row-group order; reduce tasks (no row index) sort last,
        # which is also a topological order of intra-phase edges.
        order = sorted(
            phase,
            key=lambda tid: (
                tasks[tid].params.get("i", float("inf")), tid
            ),
        )
        # The parallel loop ranges over row blocks: all tasks of a
        # row group stay on one core (the inner column loop is
        # serial), which also preserves intra-phase dependence
        # chains.  Library BSP phases split the groups statically
        # by row count; on matrices with skewed nonzero
        # distributions the heaviest chunk straggles and the
        # barrier makes everyone wait — the §1 load-imbalance cost
        # of the BSP model.  Set ``nnz_balanced`` for an idealized
        # baseline that splits sparse phases by nonzeros instead.
        groups: List[List[int]] = []
        last_i = object()
        for tid in order:
            gi = tasks[tid].params.get("i", tid)
            if gi != last_i:
                groups.append([])
                last_i = gi
            groups[-1].append(tid)
        ng = len(groups)
        if tasks[order[0]].kind == "sparse" and nnz_balanced:
            weights = [
                sum(max(1.0, tasks[t].shape.get("nnz", 1))
                    for t in g)
                for g in groups
            ]
            total_w = sum(weights)
            cum = 0.0
            group_core = []
            for wgt in weights:
                group_core.append(
                    min(n_cores - 1, int(cum / total_w * n_cores))
                )
                cum += wgt
        else:
            group_core = [k * n_cores // ng for k in range(ng)]
        phase_assignments.append([
            (tid, group_core[k])
            for k, g in enumerate(groups)
            for tid in g
        ])
    memo[mkey] = phase_assignments
    return phase_assignments


def _bsp_catch_up(phase_assignments, pred, dead, rcore):
    """Each phase's work list with the dead lanes' share moved last.

    BSP has no runtime to recover a lost lane: its statically assigned
    tasks — and any live-lane task transitively depending on them —
    miss the barrier and re-run serially on ``rcore`` after every live
    lane has finished.  The catch-up follows a ``(-1, rcore)`` marker
    at which :func:`run_bsp` stalls ``rcore`` until the phase's other
    lanes are done.
    """
    out = []
    for assignment in phase_assignments:
        work = []
        deferred = []
        stuck: set = set()
        for tid, core in assignment:
            if core in dead or (stuck and any(p in stuck for p in pred[tid])):
                deferred.append((tid, rcore))
                stuck.add(tid)
            else:
                work.append((tid, core))
        if deferred:
            work.append((-1, rcore))
            work += deferred
        out.append(work)
    return out


def run_bsp(
    machine: MachineSpec,
    dag: TaskDAG,
    iterations: int = 1,
    first_touch: bool = True,
    flavor: str = "bsp",
    nnz_balanced: bool = False,
    tracer=None,
    faults=None,
) -> RunResult:
    """Phase-parallel (fork-join) execution of the same DAG.

    Tasks are grouped by originating primitive call (``task.seq``);
    each group is one parallel region: tasks sorted by partition index
    are statically chunked over cores (MKL/OpenMP static schedule), a
    barrier closes the phase.  Dependence edges are honoured by
    construction because phases execute in program order.

    The iteration fast path of :meth:`SimulationEngine.run` applies
    here too: once two consecutive iterations leave identical
    cache/NUMA state behind and draw identical charges, the remaining
    iterations run the same loop fed the taped charges instead of
    calling ``charge`` — the schedule is static, so the replay *is* the
    full per-iteration computation minus the cache simulation, and
    results are bit-identical by construction.

    ``faults`` attaches a :class:`repro.faults.FaultPlan`.  BSP has no
    runtime to recover a lost lane: the dead lane's share (and any live
    task transitively depending on it) misses the barrier and is re-run
    serially on the lowest surviving core while everyone stalls — the
    no-recovery worst case the AMT policies are compared against.  An
    empty plan is bit-identical to ``faults=None``; an active one
    disarms the steady-state fast path and fills
    ``RunResult.fault_report``.
    """
    n_cores = machine.n_cores
    barrier_cost = _default_barrier_cost(n_cores)
    cache = CacheHierarchy(machine)
    memory = MemoryModel(machine, first_touch=first_touch, scattered=True)
    memory.configure_from_dag(dag)
    if memory.n_parts is None:
        memory.n_parts = _max_partitions(dag)
    cost = CostModel(machine, cache, memory)
    cost.prepare(dag)
    counters = PerfCounters()
    flow = FlowGraph()
    tasks = dag.tasks
    pred = dag.pred
    phase_assignments = _bsp_phase_assignments(dag, n_cores, nnz_balanced)
    work_lists = phase_assignments

    charge = cost.charge
    frecord = flow.record
    if tracer is not None:
        tracer.begin_run(machine.name, flavor, n_cores, dag)
        cache.trace_hook = tracer._on_cache_access
    ttask = tracer.task if tracer is not None else None
    # Counters accumulate in locals (see PerfCounters.totals).
    n_exec, busy_t, ovh_t, comp_t, mem_t, l1m, l2m, l3m = counters.totals()
    ktime = counters.kernel_time
    ktasks = counters.kernel_tasks
    ktime_get = ktime.get
    ktasks_get = ktasks.get
    fs = faults.state(machine) if faults is not None else None
    derates = None
    rate = 0.0
    armed = _steady_state_enabled() and iterations >= 4 and fs is None
    steady_state_at = None
    prev_fp = prev_taped = None
    replay = None  # the taped charges, once the fixed point is reached
    clock = 0.0
    iteration_times = []
    it = 0
    while it < iterations:
        t0 = clock
        if fs is not None:
            newly_dead = _begin_faulted_iteration(fs, it, t0, tracer)
            if newly_dead:
                work_lists = _bsp_catch_up(phase_assignments, pred,
                                           fs.dead_cores, fs.recovery_core)
            derates = fs.derates
            rate = fs.rate
        feed = iter(replay).__next__ if replay is not None else None
        synthesized = feed is not None
        taped = [] if armed else None
        for work in work_lists:
            core_clock = [clock] * n_cores
            phase_end: dict = {}
            stall_from = None
            for tid, core in work:
                if tid < 0:
                    # Serial catch-up: ``core`` waits for every live
                    # lane to hit the barrier.
                    stall_from = core_clock[core] = max(core_clock)
                    continue
                task = tasks[tid]
                kernel = task.kernel
                # Intra-phase dependences (row chains stay on one core;
                # reduce tasks read partials from other cores) delay
                # the start beyond the core's own availability.
                start = core_clock[core]
                for p in pred[tid]:
                    e = phase_end.get(p)
                    if e is not None and e > start:
                        start = e
                attempt = 0
                while True:
                    c = charge(task, core) if feed is None else feed()
                    if taped is not None:
                        taped.append(c)
                    dur, compute, memory_t, (m1, m2, m3) = c
                    lo = _LOOP_OVERHEAD
                    if derates is not None and derates[core] != 1.0:
                        f = derates[core]
                        dur, compute, extra = apply_core_derate(
                            dur, compute, f
                        )
                        lo_extra = lo * (f - 1.0)
                        lo += lo_extra
                        fs.slow_time += extra + lo_extra
                    dur += lo
                    end = start + dur
                    n_exec += 1
                    busy_t += dur
                    ovh_t += lo
                    comp_t += compute
                    mem_t += memory_t
                    l1m += m1
                    l2m += m2
                    l3m += m3
                    ktime[kernel] = ktime_get(kernel, 0.0) + dur
                    ktasks[kernel] = ktasks_get(kernel, 0) + 1
                    frecord(tid, kernel, core, start, end, it)
                    if ttask is not None:
                        # Replayed tasks are synthesized events carrying
                        # the exact times full simulation would produce.
                        ttask(tid, kernel, core, start, end, it,
                              lo, compute, memory_t, m1, m2, m3,
                              synthesized)
                    if attempt > 0:
                        fs.re_executed_time += dur
                    if rate > 0.0 and fs.task_fails(it, tid, attempt):
                        if attempt < fs.budget:
                            backoff = fs.backoff_seconds(attempt)
                            fs.retries += 1
                            fs.backoff_time += backoff
                            if tracer is not None:
                                tracer.fault(end, core, "task-retry",
                                             tid, float(attempt + 1))
                            start = end + backoff
                            attempt += 1
                            continue
                        fs.abandoned += 1
                        if tracer is not None:
                            tracer.fault(end, core, "task-abandoned",
                                         tid, float(attempt))
                    break
                core_clock[core] = end
                phase_end[tid] = end
            phase_close = max(core_clock)
            if stall_from is not None:
                fs.stall_time += phase_close - stall_from
            clock = phase_close + barrier_cost
        iteration_times.append(clock - t0)
        if tracer is not None:
            # During replay the machine state is at its fixed point, so
            # barrier samples legitimately repeat it.
            tracer.sample_machine(it, clock - barrier_cost, cache, memory)
            tracer.barrier(it, t0, clock - barrier_cost, clock,
                           synthesized=synthesized)
        it += 1
        if taped is None:
            continue
        fp = _machine_state_fingerprint(cache, memory)
        if fp == prev_fp and taped == prev_taped:
            # Cache/NUMA state is at a fixed point and the last two
            # iterations charged identically: every remaining charge()
            # would return the taped values, so feed them instead.
            replay = taped
            steady_state_at = it
            armed = False
        prev_fp = fp
        prev_taped = taped
    counters.set_totals(n_exec, busy_t, ovh_t, comp_t, mem_t,
                        l1m, l2m, l3m)
    if tracer is not None:
        cache.trace_hook = None
    return RunResult(
        machine=machine.name,
        policy=flavor,
        total_time=clock,
        iteration_times=iteration_times,
        counters=counters,
        flow=flow,
        n_cores=n_cores,
        n_tasks_per_iteration=len(dag),
        steady_state_at=steady_state_at,
        fault_report=_close_faults(fs, flavor, iteration_times, tracer),
    )
