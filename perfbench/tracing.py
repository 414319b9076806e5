"""Layer spans recorded from outside the program.

Each target below is a public function or method of the ``repro``
package.  :func:`install` replaces it, in its defining module or class
and in every module that imported it by name, with a wrapper that
records one span per call.  Nothing inside ``repro`` is edited: the
spans sit at the boundaries between modules, so a layer's *self* time
is its spans' duration minus the spans nested inside them.

The recorder assumes one thread, which holds for the sweep workloads
(``repro bench --jobs 1`` runs cells inline, ``repro chaos`` is
sequential).  Spans stay in memory; the caller writes them out once,
when the repetition ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (layer, module, attribute path).  Several targets may feed one
#: layer; a layer none of whose targets exists any more is reported as
#: absent instead of failing the run.
TARGETS = (
    ("cli", "repro.cli", "main"),
    ("bench.runner", "repro.bench.runner", "ExperimentRunner.run_cells"),
    ("bench.cache.get", "repro.bench.cache", "ResultCache.get"),
    ("bench.cache.put", "repro.bench.cache", "ResultCache.put"),
    ("bench.prep.get", "repro.bench.prep", "PrepStore.get"),
    ("bench.prep.put", "repro.bench.prep", "PrepStore.put"),
    ("matrices.census", "repro.matrices.census", "census_for"),
    ("solvers.trace", "repro.solvers.lanczos", "lanczos_trace"),
    ("solvers.trace", "repro.solvers.lobpcg", "lobpcg_trace"),
    ("graph.build", "repro.runtime.base", "build_solver_dag"),
    ("graph.freeze", "repro.graph.dag", "TaskDAG.freeze"),
    ("sim.cost_prepare", "repro.sim.cost", "CostModel.prepare"),
    ("sim.sched_prepare", "repro.sim.schedulers", "Scheduler.prepare"),
    ("sim.engine", "repro.sim.engine", "SimulationEngine.run"),
    ("sim.bsp", "repro.sim.engine", "run_bsp"),
    ("sim.summary", "repro.sim.engine", "RunResult.summary"),
)

#: Layers whose calls return a simulated run; their results feed the
#: exact task counts.
_RUN_LAYERS = ("sim.engine", "sim.bsp")


class SpanRecorder:
    """In-memory spans plus per-layer self time."""

    def __init__(self):
        self.spans = []          # (layer, start_s, end_s, parent index)
        self.self_s = {}
        self.present = set()     # layers with at least one live target
        self.runs = []           # (n_tasks, iterations, steady_state_at)
        self._stack = []         # [span index, start, child seconds]

    def wrap(self, layer, fn):
        split_faults = layer == "sim.engine"
        record_run = layer in _RUN_LAYERS
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            name = layer
            if split_faults:
                faulted = kwargs.get("faults")
                if faulted is None and len(args) > 8:
                    faulted = args[8]
                name = ("sim.engine_faulted" if faulted is not None
                        else "sim.engine_healthy")
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans[index] = (name, frame[1], end, parent)
                self.self_s[name] = (self.self_s.get(name, 0.0)
                                     + duration - frame[2])
            if record_run:
                self.runs.append((result.n_tasks_per_iteration,
                                  len(result.iteration_times),
                                  result.steady_state_at))
            return result

        return functools.update_wrapper(wrapper, fn)

    def task_counts(self):
        """(tasks simulated, tasks replayed) over every recorded run."""
        simulated = replayed = 0
        for n_tasks, iterations, steady_at in self.runs:
            full = iterations if steady_at is None else steady_at
            simulated += n_tasks * full
            replayed += n_tasks * (iterations - full)
        return simulated, replayed


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        original = owner.__dict__[name]
    else:
        original = getattr(owner, name)
    return owner, name, original


def _targets():
    """TARGETS plus every scheduler subclass overriding ``prepare``."""
    yield from TARGETS
    try:
        schedulers = importlib.import_module("repro.sim.schedulers")
        base = schedulers.Scheduler
    except (ImportError, AttributeError):
        return
    for value in vars(schedulers).values():
        if (isinstance(value, type) and issubclass(value, base)
                and value is not base and "prepare" in value.__dict__):
            yield ("sim.sched_prepare", "repro.sim.schedulers",
                   f"{value.__name__}.prepare")


def install(recorder: SpanRecorder) -> None:
    """Wrap every target that exists; record which layers are live."""
    for layer, module_name, path in _targets():
        try:
            module = importlib.import_module(module_name)
            owner, name, original = _resolve(module, path)
        except (ImportError, AttributeError, KeyError):
            continue
        wrapper = recorder.wrap(layer, original)
        setattr(owner, name, wrapper)
        if layer == "sim.engine":
            recorder.present.update(("sim.engine_healthy",
                                     "sim.engine_faulted"))
        else:
            recorder.present.add(layer)
        if isinstance(owner, type):
            continue
        # Module-level functions are also bound by name in every module
        # that did ``from ... import name``; rebind those references.
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not namespace or other is owner:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(other, attr, wrapper)
