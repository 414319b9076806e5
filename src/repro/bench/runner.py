"""The parallel experiment orchestrator.

:class:`ExperimentRunner` is the one path every sweep goes through:

1. expand a grid spec into cells (:func:`expand_grid`),
2. dedupe identical cells,
3. serve what the on-disk cache already has,
4. fan the misses out over a ``ProcessPoolExecutor`` (the simulator is
   pure Python and CPU-bound, so *processes*, not threads, are the
   right parallelism — the GIL serializes threads),
5. persist fresh summaries and return results in input order.

Result ordering is deterministic and independent of ``jobs``: cells
are keyed, executed by key order of first appearance, and re-assembled
into the caller's order, so ``--jobs 8`` returns exactly what
``--jobs 1`` returns.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.experiment import SEEDED_VERSIONS
from repro.bench.cache import ResultCache, default_cache
from repro.sim.engine import RunResultSummary

__all__ = [
    "Cell",
    "DEFAULT_BLOCK_COUNT",
    "DEFAULT_MATRICES",
    "ExperimentRunner",
    "REGENT_BLOCK_COUNT",
    "SweepError",
    "WorkerFailure",
    "expand_grid",
    "run_cell_config",
]

#: Rule-of-thumb block counts for the headline comparisons (§5.4:
#: DeepSparse/HPX 32–63 on Broadwell, 64–127 on EPYC).
DEFAULT_BLOCK_COUNT = {"broadwell": 48, "epyc": 96}
#: Regent favours coarse grains (paper: 16–31); on the simulated EPYC
#: its workers starve below ~96 blocks (deviation in EXPERIMENTS.md).
REGENT_BLOCK_COUNT = {"broadwell": 24, "epyc": 96}

#: Representative suite subset — every sparsity family, small through
#: large.  The figure benchmarks and ``repro bench`` default to it.
DEFAULT_MATRICES = (
    "inline1", "Flan_1565", "Queen4147", "Nm7",
    "nlpkkt160", "nlpkkt240", "twitter7", "webbase-2001",
)


@dataclass(frozen=True)
class Cell:
    """One point of the experiment grid."""

    machine: str
    matrix: str
    solver: str
    version: str
    block_count: int = 64
    iterations: int = 2
    width: Optional[int] = None
    first_touch: bool = True
    seed: int = 0

    def config(self) -> dict:
        """Canonical key material for the result cache.

        The key holds only inputs that can change the simulated
        result, so cells that simulate identically share one entry
        (and one shard, and one single-flight slot):

        * ``libcsr`` ignores the block count (its grain is one row
          chunk per core), so the block count becomes ``None``;
        * only :data:`~repro.analysis.experiment.SEEDED_VERSIONS`
          schedule stochastically, so every other version's seed
          becomes 0 — mapped rather than dropped, so seed-0 keys keep
          their bytes.
        """
        return {
            "machine": self.machine,
            "matrix": self.matrix,
            "solver": self.solver,
            "version": self.version,
            "block_count": (None if self.version == "libcsr"
                            else int(self.block_count)),
            "iterations": int(self.iterations),
            "width": self.width,
            "first_touch": bool(self.first_touch),
            "seed": (int(self.seed) if self.version in SEEDED_VERSIONS
                     else 0),
        }

    def label(self) -> str:
        return (f"{self.machine}/{self.matrix}/{self.solver}/"
                f"{self.version}@{self.block_count}x{self.iterations}")


def run_cell_config(config: dict) -> RunResultSummary:
    """Simulate one cell (cache-oblivious; the runner handles caching)."""
    from repro.analysis.experiment import run_version

    return run_version(
        config["machine"],
        config["matrix"],
        config["solver"],
        config["version"],
        block_count=int(config.get("block_count") or 64),
        iterations=int(config.get("iterations", 2)),
        width=config.get("width"),
        first_touch=bool(config.get("first_touch", True)),
        seed=int(config.get("seed", 0)),
    ).summary()


#: Stderr-tail capture budget: what a failure record retains of the
#: worker's stderr stream (warnings, native-library chatter, and the
#: formatted traceback).  Bounded so a chatty cell can't bloat the
#: failure table or the service audit log.
STDERR_TAIL_LINES = 20
STDERR_TAIL_CHARS = 4000


def stderr_tail(text: str, lines: int = STDERR_TAIL_LINES,
                chars: int = STDERR_TAIL_CHARS) -> str:
    """Last ``lines`` lines (at most ``chars`` chars) of a stream."""
    text = text[-chars * 4:]
    tail = "\n".join(text.splitlines()[-lines:])
    return tail[-chars:]


class WorkerFailure(RuntimeError):
    """A cell failed in a worker; carries the captured stderr tail.

    Raised by :func:`_pool_worker` instead of the original exception so
    the parent's failure table (and the serve layer's audit log) can
    show *what the worker printed* — warnings and the full traceback —
    not just the exception repr.  Both fields sit in ``args`` so the
    exception pickles across a ``ProcessPoolExecutor`` intact.
    """

    def __init__(self, error: str, stderr_tail: str = ""):
        super().__init__(error, stderr_tail)
        self.error = error
        self.stderr_tail = stderr_tail

    def __str__(self) -> str:
        return self.error


def _pool_worker(config: dict) -> tuple:
    """Child-process entry: plain dicts in, plain dicts out (picklable).

    The cell runs under stderr capture; on failure the exception is
    re-raised as a :class:`WorkerFailure` whose tail holds whatever the
    cell wrote to stderr plus the formatted traceback — the parent
    process cannot see a pool child's stderr otherwise.
    """
    t0 = time.perf_counter()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stderr(buf):
            summary = run_cell_config(config)
    except Exception as e:
        traceback.print_exc(file=buf)
        raise WorkerFailure(f"{type(e).__name__}: {e}",
                            stderr_tail(buf.getvalue())) from None
    return summary.to_dict(), time.perf_counter() - t0


class SweepError(RuntimeError):
    """A sweep finished with cells that failed every retry.

    ``failures`` is a list of ``{"cell", "key", "attempts", "error",
    "stderr"}`` dicts, one per exhausted cell, in first-appearance
    order; the message renders them as a table, with each non-empty
    stderr tail indented under its cell.  Successfully simulated cells
    were still cached before this was raised, so a re-run only repeats
    the failed work.
    """

    def __init__(self, failures: List[dict]):
        self.failures = failures
        lines = [f"{len(failures)} cell(s) failed after retries:"]
        for f in failures:
            lines.append(
                f"  {f['cell']}  attempts={f['attempts']}  {f['error']}"
            )
            for tail_line in (f.get("stderr") or "").splitlines():
                lines.append(f"      stderr| {tail_line}")
        super().__init__("\n".join(lines))


class ExperimentRunner:
    """Expand → dedupe → cache-check → (parallel) simulate → report.

    Parameters
    ----------
    cache:
        A :class:`ResultCache`; defaults to the process-wide one.
        Pass ``ResultCache(enabled=False)`` to force cold runs.
    jobs:
        Worker processes for cache misses.  ``1`` (default, or
        ``$REPRO_BENCH_JOBS``) runs inline — no pool, no pickling.
        ``0`` auto-detects: one worker per available CPU
        (``os.cpu_count()``).
    progress:
        Optional callable invoked with one line per completed cell.
    timeout:
        Per-cell wall-clock budget in seconds for pool execution
        (``None`` = unlimited).  Scaled by the batch size per worker,
        it bounds how long a wedged worker can hold the sweep; expired
        cells are retried, then reported in the failure table.  Inline
        execution cannot preempt a cell, so the timeout only applies
        when a pool is used.
    attempts:
        Total tries per cell (default 2: one run + one retry) before
        the cell lands in the failure table.
    backoff:
        Base of the exponential retry backoff in seconds (sleep
        ``backoff * 2**(attempt-1)`` before re-trying).
    pool_worker:
        The per-cell execution callable, ``config -> (summary_dict,
        seconds)``.  Injectable so the orchestration tests can run
        against crashing/hanging workers; everything else should keep
        the default.
    """

    #: A crashed pool (a worker died, poisoning every queued future) is
    #: rebuilt and the affected cells resubmitted — without charging
    #: them a retry, since the crash cannot be attributed to one cell —
    #: at most this many times before degrading to inline execution.
    max_pool_rebuilds = 3

    def __init__(self, cache: Optional[ResultCache] = None,
                 jobs: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 timeout: Optional[float] = None,
                 attempts: int = 2,
                 backoff: float = 0.25,
                 pool_worker: Callable[[dict], tuple] = _pool_worker):
        self.cache = cache if cache is not None else default_cache()
        if jobs is None:
            jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
        jobs = int(jobs)
        if jobs == 0:
            jobs = os.cpu_count() or 1
        self.jobs = max(1, jobs)
        self.progress = progress
        self.timeout = timeout
        self.attempts = max(1, int(attempts))
        self.backoff = max(0.0, float(backoff))
        self.pool_worker = pool_worker
        self.report: List[dict] = []

    # ------------------------------------------------------------------
    def _note(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def run_cells(self, cells: Sequence[Cell]) -> List[RunResultSummary]:
        """Run every cell; returns summaries in input order.

        Identical cells (after key normalization) are simulated once.
        """
        t_start = time.perf_counter()
        self.report = []
        order: List[str] = []            # unique keys, first-appearance order
        configs: Dict[str, dict] = {}
        labels: Dict[str, str] = {}
        keys: List[str] = []             # per input cell
        for cell in cells:
            config = cell.config()
            key = self.cache.key(config)
            keys.append(key)
            if key not in configs:
                configs[key] = config
                labels[key] = cell.label()
                order.append(key)

        results: Dict[str, RunResultSummary] = {}
        miss_keys: List[str] = []
        for key in order:
            t0 = time.perf_counter()
            hit = self.cache.get(configs[key])
            if hit is not None:
                results[key] = hit
                dt = time.perf_counter() - t0
                self.report.append({
                    "cell": labels[key], "key": key,
                    "cached": True, "seconds": dt,
                })
                self._note(f"[cache] {labels[key]} ({dt * 1e3:.1f} ms)")
            else:
                miss_keys.append(key)

        if miss_keys:
            if self.jobs > 1 and len(miss_keys) > 1:
                self._prebuild_prep(miss_keys, configs)
            self._run_misses(miss_keys, configs, labels, results)

        self.total_seconds = time.perf_counter() - t_start
        return [results[k] for k in keys]

    def _prebuild_prep(self, miss_keys, configs) -> None:
        """Build each distinct prep artifact once before the fan-out.

        Different cells (versions, iteration counts, seeds) share prep
        subkeys, so building in the parent means pool workers *load*
        the census/DAG/compiled plans instead of each rebuilding them.
        Repeats are free (the in-process dag memo absorbs them), a
        disabled store makes this a no-op, and a prebuild failure is
        swallowed — the cell's ordinary run will surface it with the
        full retry machinery.
        """
        from repro.analysis.experiment import prebuild_prep
        from repro.bench.prep import default_prep_store

        store = default_prep_store()
        if not store.enabled:
            return
        t0 = time.perf_counter()
        built = set()
        for key in miss_keys:
            c = configs[key]
            try:
                pc = prebuild_prep(
                    c["machine"], c["matrix"], c["solver"], c["version"],
                    block_count=int(c.get("block_count") or 64),
                    width=c.get("width"),
                    first_touch=bool(c.get("first_touch", True)),
                )
            except Exception as e:
                self._note(f"[prep]  skipped ({type(e).__name__}: {e})")
                continue
            built.add(store.key(pc))
        if built:
            self._note(
                f"[prep]  {len(built)} artifact(s) ready in "
                f"{time.perf_counter() - t0:.2f} s"
            )

    def _run_misses(self, miss_keys, configs, labels, results) -> None:
        """Simulate the cache misses, surviving sick workers.

        Three layers of degradation, so one bad cell or one dead
        worker never loses a whole sweep:

        1. cells whose worker raised or timed out are retried with
           exponential backoff, up to ``attempts`` tries each;
        2. a crashed pool (``BrokenProcessPool``) is rebuilt and the
           poisoned cells resubmitted, up to ``max_pool_rebuilds``;
        3. if the pool stays unhealthy, the leftovers run inline,
           sequentially, in this process.

        Only cells that exhaust their attempts end up in the
        :class:`SweepError` failure table — everything else was
        simulated and cached before the raise.
        """
        attempt_count: Dict[str, int] = {k: 0 for k in miss_keys}
        failures: Dict[str, tuple] = {}  # key -> (error, stderr tail)
        pending = list(miss_keys)
        if self.jobs > 1 and len(pending) > 1:
            pending = self._run_pool(pending, attempt_count, failures,
                                     configs, labels, results)
        self._run_inline(pending, attempt_count, failures,
                         configs, labels, results)
        if failures:
            raise SweepError([
                {"cell": labels[k], "key": k,
                 "attempts": attempt_count[k],
                 "error": failures[k][0], "stderr": failures[k][1]}
                for k in miss_keys if k in failures
            ])

    @staticmethod
    def _failure_fields(exc: BaseException) -> tuple:
        """(error text, stderr tail) of a worker exception.

        :class:`WorkerFailure` carries its own captured tail; anything
        else (injected test workers, pickling errors) degrades to the
        plain exception repr with an empty tail.
        """
        if isinstance(exc, WorkerFailure):
            return exc.error, exc.stderr_tail
        return f"{type(exc).__name__}: {exc}", ""

    def _fail_or_requeue(self, key, exc_text, attempt_count, failures,
                         next_pending, stderr: str = "") -> None:
        attempt_count[key] += 1
        if attempt_count[key] >= self.attempts:
            failures[key] = (exc_text, stderr)
        else:
            next_pending.append(key)

    @staticmethod
    def _kill_pool(pool) -> None:
        """Tear a pool down even if its workers are wedged.

        ``shutdown`` alone waits for running tasks; a cell stuck in an
        infinite loop would hold the sweep forever, so the worker
        processes are terminated first (``_processes`` is private API,
        but the stdlib offers no public kill switch).
        """
        procs = getattr(pool, "_processes", None) or {}
        for p in list(procs.values()):
            try:
                p.terminate()
            except OSError:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _run_pool(self, pending, attempt_count, failures,
                  configs, labels, results) -> List[str]:
        """Pool execution rounds; returns cells left for inline."""
        rebuilds = 0
        rounds = 0
        pool = None
        try:
            while pending:
                if pool is None:
                    try:
                        pool = ProcessPoolExecutor(max_workers=self.jobs)
                    except OSError:
                        return pending  # can't fork: degrade to inline
                if rounds and self.backoff:
                    time.sleep(self.backoff * 2 ** min(rounds - 1, 4))
                rounds += 1
                futs = {
                    pool.submit(self.pool_worker, configs[k]): k
                    for k in pending
                }
                next_pending: List[str] = []
                deadline = None
                if self.timeout is not None:
                    # Per-cell budget scaled by queue depth per worker:
                    # a full batch legitimately takes n/jobs cell-times.
                    batches = max(1, math.ceil(len(pending) / self.jobs))
                    deadline = time.monotonic() + self.timeout * batches
                not_done = set(futs)
                broken = False
                while not_done:
                    budget = None
                    if deadline is not None:
                        budget = max(0.0, deadline - time.monotonic())
                    done, not_done = wait(not_done, timeout=budget)
                    if not done:
                        # Batch deadline expired: whatever is still
                        # running is wedged.  Kill the pool, charge the
                        # unfinished cells one attempt each.
                        for f in not_done:
                            f.cancel()
                            self._fail_or_requeue(
                                futs[f],
                                f"timed out (> {self.timeout:.1f} s/cell)",
                                attempt_count, failures, next_pending,
                            )
                        self._kill_pool(pool)
                        pool = None
                        broken = True
                        break
                    for f in done:
                        key = futs[f]
                        try:
                            summary_dict, dt = f.result()
                        except BrokenProcessPool:
                            # A worker died; every queued future is
                            # poisoned and none of them is to blame.
                            # Requeue without charging an attempt.
                            next_pending.append(key)
                            broken = True
                        except Exception as e:  # clean worker failure
                            text, tail = self._failure_fields(e)
                            self._fail_or_requeue(
                                key, text, attempt_count, failures,
                                next_pending, stderr=tail,
                            )
                        else:
                            summary = RunResultSummary.from_dict(
                                summary_dict
                            )
                            self._finish_miss(key, configs, labels,
                                              results, summary, dt)
                if broken and pool is not None:
                    self._kill_pool(pool)
                    pool = None
                if broken:
                    rebuilds += 1
                    if rebuilds > self.max_pool_rebuilds:
                        self._note(
                            "[pool]  unhealthy after "
                            f"{rebuilds - 1} rebuilds; degrading to "
                            "inline execution"
                        )
                        return next_pending
                pending = next_pending
            return []
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _run_inline(self, pending, attempt_count, failures,
                    configs, labels, results) -> None:
        """Sequential in-process execution with the same retry rules."""
        for key in pending:
            while True:
                try:
                    summary_dict, dt = self.pool_worker(configs[key])
                    summary = RunResultSummary.from_dict(summary_dict)
                except Exception as e:
                    attempt_count[key] += 1
                    if attempt_count[key] >= self.attempts:
                        failures[key] = self._failure_fields(e)
                        break
                    if self.backoff:
                        time.sleep(
                            self.backoff
                            * 2 ** min(attempt_count[key] - 1, 4)
                        )
                    continue
                self._finish_miss(key, configs, labels, results,
                                  summary, dt)
                break

    def _finish_miss(self, key, configs, labels, results, summary,
                     dt) -> None:
        self.cache.put(configs[key], summary)
        results[key] = summary
        self.report.append({
            "cell": labels[key], "key": key,
            "cached": False, "seconds": dt,
        })
        self._note(f"[run]   {labels[key]} ({dt:.2f} s)")

    # ------------------------------------------------------------------
    def run_grid(self, **grid) -> List[RunResultSummary]:
        """Shorthand: :func:`expand_grid` then :meth:`run_cells`."""
        return self.run_cells(expand_grid(**grid))

    def format_report(self) -> str:
        """Human-readable summary of the last :meth:`run_cells`."""
        hits = sum(1 for r in self.report if r["cached"])
        misses = len(self.report) - hits
        sim_s = sum(r["seconds"] for r in self.report if not r["cached"])
        lines = [
            f"{len(self.report)} unique cells: {hits} cached, "
            f"{misses} simulated ({sim_s:.2f} s simulation, "
            f"{getattr(self, 'total_seconds', 0.0):.2f} s wall, "
            f"jobs={self.jobs})",
        ]
        quarantined = getattr(self.cache, "quarantined", 0)
        if quarantined:
            lines.append(
                f"  warning: {quarantined} corrupt cache entr"
                f"{'y' if quarantined == 1 else 'ies'} quarantined to "
                f"{self.cache.quarantine_dir()}"
            )
        slowest = sorted(
            (r for r in self.report if not r["cached"]),
            key=lambda r: -r["seconds"],
        )[:5]
        for r in slowest:
            lines.append(f"  slowest: {r['cell']} {r['seconds']:.2f} s")
        return "\n".join(lines)


def expand_grid(
    machines: Sequence[str] = ("broadwell",),
    matrices: Sequence[str] = (),
    solvers: Sequence[str] = ("lanczos",),
    versions: Sequence[str] = ("libcsr", "libcsb", "deepsparse", "hpx",
                               "regent"),
    block_counts: Optional[Sequence[int]] = None,
    iterations: int = 2,
    width: Optional[int] = None,
    first_touch: bool = True,
    seed: int = 0,
) -> List[Cell]:
    """Cartesian grid spec → cell list (deterministic order).

    With ``block_counts=None`` each version gets its §5.4 rule-of-thumb
    granularity for the machine (Regent coarser than DeepSparse/HPX).
    """
    cells = []
    for machine in machines:
        for matrix in matrices:
            for solver in solvers:
                for version in versions:
                    if block_counts is None:
                        table = (REGENT_BLOCK_COUNT
                                 if version == "regent"
                                 else DEFAULT_BLOCK_COUNT)
                        bcs = [table.get(machine, 64)]
                    else:
                        bcs = list(block_counts)
                    for bc in bcs:
                        cells.append(Cell(
                            machine=machine, matrix=matrix,
                            solver=solver, version=version,
                            block_count=int(bc), iterations=iterations,
                            width=width, first_touch=first_touch,
                            seed=seed,
                        ))
    return cells
