"""Scheduling policies of the three AMT runtimes.

The engine is policy-agnostic; each scheduler implements the documented
(or empirically characterized) behaviour of one runtime:

* :class:`DeepSparseScheduler` — OpenMP tasking as DeepSparse drives
  it: the master thread spawns all tasks of an iteration in depth-first
  topological order (a small per-task spawn cost serializes releases),
  workers pull in roughly spawn order but prefer tasks whose producers
  they executed (the cache-aware stealing effect that yields pipelined
  execution).
* :class:`HPXScheduler` — future/dataflow readiness scheduling with
  per-NUMA-domain queues when NUMA-aware hints are on (§5.1 "Other
  Attempts": ≈50 % gain on EPYC), work stealing between domains, and
  the paper's observed "less value on prioritization of tasks launched
  earlier" (Fig. 13): picks are drawn from a window of the local queue
  rather than strictly from the front.
* :class:`RegentScheduler` — the Legion dependence-analysis pipeline:
  tasks become *visible* to workers only after a serial analysis stage
  has processed them (cheap for ``__demand(__index_launch)`` loops,
  expensive for individually-analyzed tasks), and a slice of cores is
  reserved for the runtime (``-ll:util``), shrinking the worker pool.
  Both effects together reproduce Regent's preference for coarse tasks
  and its 5–10× collapse past 64 block counts (§5.4).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.graph.dag import TaskDAG
from repro.machine.memory import MemoryModel
from repro.machine.topology import MachineSpec

__all__ = [
    "Scheduler",
    "DeepSparseScheduler",
    "HPXScheduler",
    "RegentScheduler",
]

#: Kernels Regent launches via __demand(__index_launch): a whole loop of
#: non-interfering tasks admitted with one analysis, per §3.3.
INDEX_LAUNCH_KERNELS = frozenset(
    {"XY", "XTY", "AXPY", "SCALE", "COPY", "ADD", "SUB", "DOT"}
)


def _domain_tables(dag, memory):
    """Per-task NUMA-domain tables over the frozen DAG view.

    Returns ``(first_write_dom, write_doms)`` — the home domain of each
    task's first write (``-1`` for write-less tasks) and the tuple of
    all its writes' domains — or ``None`` when they cannot be derived
    (explicit placement pins, or the memory model's interning is not
    this DAG's).  The tables are a pure function of the DAG and the
    striping inputs, so they are cached on the DAG under the same key
    shape the cost model uses for its home arrays: five runtimes
    scheduling the same memoized DAG resolve every domain once.
    Callers must stamp ``memory.state_epoch`` next to the tables and
    re-validate per use — a placement mutation bumps the epoch, and
    the live ``domain_of`` path takes over.
    """
    if memory._placement:
        return None
    _, id_to_key = dag.handle_interning()
    if memory._intern_keys is not id_to_key:
        return None
    key = (memory.machine, memory.first_touch, memory._n_parts,
           memory.matrix_geometry)
    store = getattr(dag, "_sched_domains", None)
    if store is None:
        store = dag._sched_domains = {}
    tables = store.get(key)
    if tables is not None:
        return tables
    homes = memory.home_arrays()[0]
    soa = dag.freeze()
    indptr = soa.write_indptr.tolist()
    wids = soa.write_ids.tolist()
    first_write_dom = [
        homes[i] if i >= 0 else -1 for i in soa.first_write_id.tolist()
    ]
    write_doms = [
        tuple(homes[wids[j]] for j in range(indptr[t], indptr[t + 1]))
        for t in range(soa.n_tasks)
    ]
    tables = store[key] = (first_write_dom, write_doms)
    return tables


class Scheduler:
    """Base policy: global FIFO, no release serialization, no overhead."""

    name = "base"

    def __init__(self, overhead_per_task: float = 0.0):
        self.overhead_per_task = overhead_per_task
        self.dag: Optional[TaskDAG] = None
        self.machine: Optional[MachineSpec] = None
        self.memory: Optional[MemoryModel] = None
        self._queue = deque()
        #: Observability hook (``repro.trace``): set by the engine for
        #: the duration of a traced run.  Policies emit queue-depth
        #: samples after every enqueue/dequeue plus steal/poll events;
        #: emission is strictly observational (never reads back), so
        #: scheduling decisions — including every RNG draw — are
        #: identical with tracing on or off.  Deliberately *not* part
        #: of :meth:`state_fingerprint`.
        self.tracer = None

    # -- lifecycle ------------------------------------------------------
    def prepare(
        self,
        dag: TaskDAG,
        machine: MachineSpec,
        memory: MemoryModel,
        seed: int = 0,
    ) -> None:
        """Bind to one DAG and machine before a run.

        ``seed`` is ignored here: a deterministic policy owns no RNG,
        so a draw from one fails loudly.  A stochastic policy builds
        its own generator from ``seed`` and must be listed in
        :data:`repro.analysis.experiment.SEEDED_VERSIONS`, or cells
        differing only in seed would share one result-cache entry.
        """
        self.dag = dag
        self.machine = machine
        self.memory = memory
        self._queue = deque()
        self._dead_cores = set()

    def reset_iteration(self, iteration: int, iter_start: float) -> None:
        """Called at each iteration boundary (barrier)."""

    def on_core_loss(self, core: int, time: float) -> None:
        """A lane died (fault injection): stop handing it work.

        The base bookkeeping just records the loss — the engine never
        polls a dead core again.  Policies with per-core structures
        override this to enact their documented recovery
        (:data:`repro.faults.report.RECOVERY_POLICIES`); DeepSparse
        deliberately does not: a dead lane's deque is drained by its
        peers' ordinary work stealing, which *is* its recovery policy.
        """
        self._dead_cores.add(core)

    def state_fingerprint(self):
        """Hashable snapshot of every piece of policy state that can
        influence future scheduling decisions, or ``None`` to opt out
        of the engine's steady-state fast path.

        The engine compares fingerprints taken at consecutive
        iteration barriers; equality (together with identical
        per-iteration charge tapes) certifies that every remaining
        iteration would replay the same schedule, so it stops
        simulating and replays the tape instead
        (:meth:`repro.sim.engine.SimulationEngine.run`).

        The base implementation only knows about the base class's
        FIFO queue, so it *refuses to guess* for subclasses: any
        scheduler that adds mutable state must override this (as all
        built-ins do) or it is conservatively excluded from the fast
        path.  Stochastic policies include their RNG state — which
        advances every iteration, so they simply never reach a
        fingerprint fixed point and always simulate in full.
        """
        if type(self) is not Scheduler:
            return None
        return (tuple(self._queue),)

    # -- policy surface ---------------------------------------------------
    def overhead(self, tid: int) -> float:
        """Per-task runtime overhead charged on the executing core."""
        return self.overhead_per_task

    def release_time(self, tid: int, iter_start: float) -> float:
        """Earliest time the runtime itself can hand this task to a worker."""
        return iter_start

    def allowed(self, core: int) -> bool:
        """Whether this core executes application tasks."""
        return True

    def on_ready(self, tid: int, time: float, enabler_core=None) -> None:
        """A task became runnable; ``enabler_core`` is the core whose
        completion satisfied its last dependence (None for sources)."""
        self._queue.append(tid)
        tr = self.tracer
        if tr is not None:
            tr.queue_depth(time, len(self._queue))

    def on_complete(self, tid: int, core: int) -> None:
        """Completion callback (affinity tracking hooks)."""

    def pick(self, core: int, time: float) -> Optional[int]:
        tr = self.tracer
        if not self.allowed(core) or not self._queue:
            if tr is not None:
                tr.poll(time, core)
            return None
        tid = self._queue.popleft()
        if tr is not None:
            tr.queue_depth(time, len(self._queue))
        return tid

    def has_ready(self) -> bool:
        return bool(self._queue)


class DeepSparseScheduler(Scheduler):
    """OpenMP tasking: per-core LIFO deques with work stealing.

    The LLVM/libomp behaviour DeepSparse rides on: a task enabled by a
    completion is pushed on the completing thread's own deque and
    popped LIFO (depth-first) — so a thread that just produced a chunk
    immediately runs the consumer of that chunk.  This continuation
    locality is the mechanism behind the pipelined execution flow of
    Figs. 10/13.  Idle threads steal the *oldest* task from the victim
    with the fullest deque; master-spawned (source) tasks enter a
    shared FIFO in DeepSparse's depth-first topological spawn order.
    """

    name = "deepsparse"

    def __init__(
        self,
        overhead_per_task: float = 0.35e-6,
        spawn_cost: float = 0.15e-6,
    ):
        super().__init__(overhead_per_task)
        self.spawn_cost = spawn_cost

    def prepare(self, dag, machine, memory, seed=0):
        super().prepare(dag, machine, memory, seed)
        self._deques: List[deque] = [deque() for _ in range(machine.n_cores)]
        self._shared = deque()
        self._n_ready = 0
        # Precomputed write-home domains for the shared-queue NUMA
        # scan; epoch-guarded, with the live domain_of path as
        # fallback (see _domain_tables).
        tables = _domain_tables(dag, memory)
        if tables is not None:
            self._write_doms = tables[1]
            self._dom_epoch = memory.state_epoch
        else:
            self._write_doms = None
            self._dom_epoch = -1

    def state_fingerprint(self):
        # Deques + shared FIFO are the complete policy state (picks
        # depend on nothing else); all empty at a barrier in practice.
        return (
            tuple(tuple(d) for d in self._deques),
            tuple(self._shared),
            self._n_ready,
        )

    def release_time(self, tid: int, iter_start: float) -> float:
        # Master thread spawns tasks serially in program (tid) order.
        return iter_start + (tid + 1) * self.spawn_cost

    def on_ready(self, tid, time, enabler_core=None):
        if enabler_core is None:
            self._shared.append(tid)
        else:
            self._deques[enabler_core].append(tid)
        self._n_ready += 1
        tr = self.tracer
        if tr is not None:
            tr.queue_depth(time, self._n_ready)

    #: shared-queue scan depth for domain-local work: DeepSparse's
    #: depth-first spawn order plus bound threads gives OpenMP tasking
    #: de-facto locality on the spawn queue (DeepSparse's design goal).
    numa_window = 8

    def pick(self, core, time):
        tr = self.tracer
        if self._n_ready == 0:
            if tr is not None:
                tr.poll(time, core)
            return None
        own = self._deques[core]
        if own:
            self._n_ready -= 1
            tid = own.pop()  # LIFO: depth-first continuation
            if tr is not None:
                tr.queue_depth(time, self._n_ready)
            return tid
        if self._shared:
            self._n_ready -= 1
            shared = self._shared
            dom = self.machine.domain_of_core(core)
            limit = min(len(shared), self.numa_window)
            hit = -1
            wdoms = self._write_doms
            if wdoms is not None \
                    and self.memory.state_epoch == self._dom_epoch:
                # Any-write membership over the precomputed domain
                # tuple — the same predicate as the handle scan below.
                for idx in range(limit):
                    if dom in wdoms[shared[idx]]:
                        hit = idx
                        break
            else:
                for idx in range(limit):
                    t = self.dag.tasks[shared[idx]]
                    for h in t.writes:
                        if self.memory.domain_of((h.name, h.part)) == dom:
                            hit = idx
                            break
                    if hit >= 0:
                        break
            if hit >= 0:
                tid = shared[hit]
                del shared[hit]
            else:
                tid = shared.popleft()
            if tr is not None:
                tr.queue_depth(time, self._n_ready)
            return tid
        victim = max(self._deques, key=len)
        if victim:
            self._n_ready -= 1
            tid = victim.popleft()  # steal the oldest
            if tr is not None:
                # Identity lookup: ``list.index`` compares deques by
                # value, and the drained victim would alias any other
                # empty lane.
                vidx = next(i for i, d in enumerate(self._deques)
                            if d is victim)
                tr.steal(time, core, vidx, tid)
                tr.queue_depth(time, self._n_ready)
            return tid
        if tr is not None:
            tr.poll(time, core)
        return None

    def has_ready(self):
        return self._n_ready > 0


class HPXScheduler(Scheduler):
    """HPX future/dataflow scheduling with optional NUMA-aware queues."""

    name = "hpx"

    def __init__(
        self,
        overhead_per_task: float = 0.55e-6,
        spawn_cost: float = 0.25e-6,
        numa_aware: bool = True,
        shuffle_window: int = 8,
    ):
        super().__init__(overhead_per_task)
        self.spawn_cost = spawn_cost
        self.numa_aware = numa_aware
        self.shuffle_window = shuffle_window

    def prepare(self, dag, machine, memory, seed=0):
        super().prepare(dag, machine, memory, seed)
        self.rng = np.random.default_rng(seed)
        n_dom = machine.n_numa_domains if self.numa_aware else 1
        self._queues: List[List[int]] = [[] for _ in range(n_dom)]
        self._n_ready = 0
        #: NUMA-hint fallback (fault injection): when every core of a
        #: domain is dead its queue index maps to the nearest live
        #: domain.  Empty on healthy runs — on_ready stays untouched.
        self._dom_remap: Dict[int, int] = {}
        # Precomputed per-task hint domains (first write's home) for
        # on_ready; epoch-guarded like the cost model's home arrays.
        self._task_dom = None
        self._dom_epoch = -1
        if self.numa_aware:
            tables = _domain_tables(dag, memory)
            if tables is not None:
                self._task_dom = [
                    d % n_dom if d >= 0 else 0 for d in tables[0]
                ]
                self._dom_epoch = memory.state_epoch

    def on_core_loss(self, core: int, time: float) -> None:
        # HPX recovery: the ready queue is redistributed.  Individual
        # lane loss needs no queue action (domain peers keep draining
        # the shared per-domain queue); only when the *whole* domain is
        # gone is its queue drained to the nearest live domain and the
        # NUMA hint remapped for future on_ready placements.
        super().on_core_loss(core, time)
        if not self.numa_aware:
            return
        n_q = len(self._queues)
        dead_dom = self.machine.domain_of_core(core) % n_q
        per = self.machine.cores_per_domain
        dom_cores = range(dead_dom * per, (dead_dom + 1) * per)
        if any(c not in self._dead_cores for c in dom_cores):
            return
        live = [
            d
            for d in range(n_q)
            if d != dead_dom
            and self._dom_remap.get(d, d) == d
            and any(
                c not in self._dead_cores
                for c in range(d * per, (d + 1) * per)
            )
        ]
        if not live:
            return
        target = min(live, key=lambda d: (abs(d - dead_dom), d))
        if self._queues[dead_dom]:
            self._queues[target].extend(self._queues[dead_dom])
            self._queues[dead_dom].clear()
            tr = self.tracer
            if tr is not None:
                tr.queue_depth(time, self._n_ready)
        self._dom_remap[dead_dom] = target
        # Re-point any earlier remap that targeted the now-dead domain.
        for d, t in list(self._dom_remap.items()):
            if t == dead_dom:
                self._dom_remap[d] = target

    def release_time(self, tid: int, iter_start: float) -> float:
        # The main thread builds the dataflow tree serially each iteration.
        return iter_start + (tid + 1) * self.spawn_cost

    def _domain_of_task(self, tid: int) -> int:
        if not self.numa_aware:
            return 0
        t = self.dag.tasks[tid]
        for h in t.writes:
            return self.memory.domain_of((h.name, h.part)) % len(self._queues)
        return 0

    def on_ready(self, tid, time, enabler_core=None):
        table = self._task_dom
        if table is not None \
                and self.memory.state_epoch == self._dom_epoch:
            dom = table[tid]
        else:
            dom = self._domain_of_task(tid)
        if self._dom_remap:
            dom = self._dom_remap.get(dom, dom)
        self._queues[dom].append(tid)
        self._n_ready += 1
        tr = self.tracer
        if tr is not None:
            tr.queue_depth(time, self._n_ready)

    def state_fingerprint(self):
        # Window picks draw from the RNG, so the generator state is
        # scheduling state.  It advances every iteration — HPX never
        # reaches a fingerprint fixed point, i.e. it always simulates
        # every iteration in full (the honest outcome for a policy
        # whose schedule genuinely differs between iterations).
        rng_state = self.rng.bit_generator.state
        return (
            tuple(tuple(q) for q in self._queues),
            self._n_ready,
            repr(sorted(rng_state.items(), key=lambda kv: kv[0])),
        )

    def pick(self, core, time):
        tr = self.tracer
        if self._n_ready == 0:
            if tr is not None:
                tr.poll(time, core)
            return None
        if self.numa_aware:
            dom = self.machine.domain_of_core(core) % len(self._queues)
        else:
            dom = 0
        q = self._queues[dom]
        if not q:
            # Work stealing: raid the longest other queue from the back.
            q = max(self._queues, key=len)
            if not q:
                if tr is not None:
                    tr.poll(time, core)
                return None
            self._n_ready -= 1
            tid = q.pop()
            if tr is not None:
                # Victim is a *domain* queue index (HPX queues are
                # per-domain, not per-core); identity lookup because
                # a drained queue compares equal to any empty one.
                vidx = next(i for i, d in enumerate(self._queues)
                            if d is q)
                tr.steal(time, core, vidx, tid)
                tr.queue_depth(time, self._n_ready)
            return tid
        # HPX places "less value on prioritization of tasks launched
        # earlier": draw from a small window at the front.
        idx = int(self.rng.integers(0, min(len(q), self.shuffle_window)))
        self._n_ready -= 1
        tid = q.pop(idx)
        if tr is not None:
            tr.queue_depth(time, self._n_ready)
        return tid

    def has_ready(self):
        return self._n_ready > 0


class RegentScheduler(Scheduler):
    """Legion/Regent: serial dependence analysis + reserved util cores."""

    name = "regent"

    def __init__(
        self,
        overhead_per_task: float = 0.8e-6,
        analysis_cost: float = 15.0e-6,
        index_launch_cost: float = 0.25e-6,
        util_fraction: float = 0.14,
        dynamic_tracing: bool = False,
        replay_cost: float = 0.3e-6,
    ):
        super().__init__(overhead_per_task)
        self.analysis_cost = analysis_cost
        self.index_launch_cost = index_launch_cost
        self.util_fraction = util_fraction
        #: §5.1 "Other Attempts": dynamic tracing (Lee et al. 2018)
        #: captures the task graph in the first iteration and replays
        #: it through memoization afterwards, skipping the dependence
        #: analysis.  The paper found no significant improvement — the
        #: analysis pipeline overlaps execution, so only analysis-bound
        #: configurations benefit.
        self.dynamic_tracing = dynamic_tracing
        self.replay_cost = replay_cost
        self._iteration = 0

    def prepare(self, dag, machine, memory, seed=0):
        super().prepare(dag, machine, memory, seed)
        # -ll:util split: paper uses 4/28 on Broadwell, 18/128 on EPYC.
        self.n_util = max(1, int(round(machine.n_cores * self.util_fraction)))
        self.n_workers = machine.n_cores - self.n_util
        # Serial analysis pipeline: prefix-sum of per-task analysis cost
        # in program order gives each task's visibility time.  Over a
        # frozen DAG the per-task cost is selected by indexing a tiny
        # per-kernel table with the interned kernel codes (same values,
        # same dtype, same cumsum — bit-identical prefix sums).
        soa = dag.freeze() if hasattr(dag, "freeze") else None
        if soa is not None:
            kernel_cost = np.fromiter(
                (
                    self.index_launch_cost
                    if k in INDEX_LAUNCH_KERNELS
                    else self.analysis_cost
                    for k in soa.kernel_names
                ),
                dtype=np.float64,
                count=len(soa.kernel_names),
            )
            costs = kernel_cost[soa.kernel_codes]
        else:
            costs = np.fromiter(
                (
                    self.index_launch_cost
                    if t.kernel in INDEX_LAUNCH_KERNELS
                    else self.analysis_cost
                    for t in dag.tasks
                ),
                dtype=np.float64,
                count=len(dag),
            )
        self._visible = np.cumsum(costs)
        self._visible_replay = np.cumsum(
            np.full(len(dag), self.replay_cost)
        )
        self._iteration = 0
        # Legion's default mapper places point tasks statically by
        # partition index (no work stealing); per-worker queues model
        # that, with a light overflow raid so starvation shows up as
        # idle time rather than artificial deadlock.
        self._np = max(1, getattr(dag, "n_partitions", 1))
        # Static point-task homes, vectorized from the frozen param-i
        # table (exact integer arithmetic — same min/floor-div per
        # task as _home_worker).
        if soa is not None:
            pi = soa.param_i
            nw = self.n_workers
            self._home = np.where(
                pi < 0,
                np.arange(soa.n_tasks, dtype=np.int64) % nw,
                np.minimum(nw - 1, pi * nw // self._np),
            ).tolist()
        else:
            self._home = None
        self._worker_q: List[deque] = [deque()
                                       for _ in range(self.n_workers)]
        self._n_ready = 0
        #: Utility-core promotion (fault injection): maps a promoted
        #: util core to the worker-queue slot of the dead lane it
        #: replaces.  Empty on healthy runs — allowed/pick untouched.
        self._slot_of: Dict[int, int] = {}

    def reset_iteration(self, iteration: int, iter_start: float) -> None:
        self._iteration = iteration

    def on_core_loss(self, core: int, time: float) -> None:
        # Regent recovery: promote a reserved utility core into the
        # worker pool to serve the dead lane's queue slot, keeping at
        # least one util core for the runtime itself (the mapper and
        # dependence-analysis pipeline still need a home).
        super().on_core_loss(core, time)
        slot = self._slot_of.pop(core, core if core < self.n_workers else None)
        if slot is None:
            return
        spare = [
            c
            for c in range(self.machine.n_cores - 1, self.n_workers - 1, -1)
            if c not in self._slot_of and c not in self._dead_cores
        ]
        if len(spare) < 2:  # the last util core is never promoted
            return
        self._slot_of[spare[0]] = slot

    def state_fingerprint(self):
        # ``_iteration`` only influences behaviour through the
        # tracing-replay switch, so fingerprint the *switch*, not the
        # counter (the counter always differs between iterations).
        return (
            bool(self.dynamic_tracing and self._iteration > 0),
            tuple(tuple(q) for q in self._worker_q),
            self._n_ready,
        )

    def release_time(self, tid: int, iter_start: float) -> float:
        if self.dynamic_tracing and self._iteration > 0:
            return iter_start + float(self._visible_replay[tid])
        return iter_start + float(self._visible[tid])

    def allowed(self, core: int) -> bool:
        # The last n_util cores belong to the runtime (unless promoted
        # into the worker pool after a lane loss).
        return core < self.n_workers or core in self._slot_of

    def _home_worker(self, tid: int) -> int:
        i = self.dag.tasks[tid].params.get("i")
        if i is None:
            return tid % self.n_workers
        return min(self.n_workers - 1, int(i) * self.n_workers // self._np)

    def on_ready(self, tid, time, enabler_core=None):
        home = self._home
        self._worker_q[
            home[tid] if home is not None else self._home_worker(tid)
        ].append(tid)
        self._n_ready += 1
        tr = self.tracer
        if tr is not None:
            tr.queue_depth(time, self._n_ready)

    def pick(self, core, time):
        tr = self.tracer
        if not self.allowed(core) or self._n_ready == 0:
            if tr is not None:
                tr.poll(time, core)
            return None
        slot = core
        if self._slot_of:
            slot = self._slot_of.get(core, core)
        q = self._worker_q[slot]
        raided = False
        if not q:
            q = max(self._worker_q, key=len)
            if not q:
                if tr is not None:
                    tr.poll(time, core)
                return None
            raided = True
        self._n_ready -= 1
        tid = q.popleft()
        if tr is not None:
            if raided:
                vidx = next(i for i, d in enumerate(self._worker_q)
                            if d is q)
                tr.steal(time, core, vidx, tid)
            tr.queue_depth(time, self._n_ready)
        return tid

    def has_ready(self):
        return self._n_ready > 0
