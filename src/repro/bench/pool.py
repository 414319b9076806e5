"""The cell executor: one worker pool and one failure policy.

Every simulated cell — a ``repro bench`` miss, a ``repro bench
--trace`` cell, a ``repro serve`` computation — runs through
:meth:`WarmPool.run`.  The pool keeps one ``ProcessPoolExecutor`` alive
across cells: workers import the simulation stack once
(``initializer``), keep their per-process prep-store memos warm, and
from then on a cell costs only its simulation time.

The policy, in one place:

* at most ``max(1, jobs)`` cells are in flight; the rest wait for a
  slot, and a cell's ``timeout`` starts only when it gets one;
* before a cell first reaches a worker process, the parent builds its
  prep artifact (census, DAG, compiled plans) once per prep signature,
  so workers *load* it instead of each rebuilding it.  Only done when
  worker processes exist and the prep store is enabled; a failure is
  swallowed, since the cell's own run reports it with full diagnostics;
* a cell that raises is retried with exponential backoff, up to
  ``attempts`` tries, then surfaces as :class:`WorkerFailure` with the
  worker's captured stderr tail;
* a cell that exceeds ``timeout`` gets the wedged pool killed and is
  charged an attempt;
* a cell dropped by a killed or crashed pool (``BrokenProcessPool``) is
  resubmitted without being charged — a dead sibling is not its fault.
  Each broken pool is retired once (generation-guarded) and rebuilt.
  After more than ``max_pool_rebuilds`` *crashes* the pool degrades to
  inline execution for the rest of its life.  Timeout kills never
  degrade it: inline execution cannot preempt a cell, so a sweep of
  wedged cells would hang instead of reporting them.  Every kill charges
  the timed-out cell an attempt, so kills are bounded by
  ``cells x attempts`` anyway;
* worker processes are forked only while no prep build runs in a thread
  of this process: :meth:`WarmPool.start` forks them up front, and a
  rebuild waits for the in-process lock the prep builds hold.

``jobs=0`` selects inline mode outright: cells run one at a time in a
worker thread of this process (``asyncio.to_thread``) — no fork, no
pickling.  Inline execution cannot preempt a cell, so ``timeout`` only
applies to worker processes, and an interrupt (Ctrl-C) takes effect once
the running cell returns.

The pool's asyncio primitives are created inside the event loop that
first uses them (:meth:`WarmPool.run_all` makes fresh ones for its own
loop), so a pool may be constructed outside any loop.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["WarmPool", "WorkerFailure"]


class WorkerFailure(RuntimeError):
    """A cell failed every attempt; carries the captured stderr tail.

    Cell workers raise it instead of the original exception so the
    sweep's failure table (and the service's audit log) can show *what
    the worker printed* — warnings and the full traceback — not just
    the exception repr.  Both fields sit in ``args`` so the exception
    pickles across a ``ProcessPoolExecutor`` intact.
    """

    def __init__(self, error: str, stderr_tail: str = ""):
        super().__init__(error, stderr_tail)
        self.error = error
        self.stderr_tail = stderr_tail

    def __str__(self) -> str:
        return self.error


def _warm_init() -> None:
    """Worker initializer: pay the import bill once per process."""
    import repro.analysis.experiment  # noqa: F401  (heavy import chain)
    import repro.bench.prep           # noqa: F401


def _prebuild(config: dict) -> str:
    """Build one cell's prep artifact in this process; never raises.

    Returns a one-line progress note.
    """
    from repro.analysis.experiment import prebuild_prep

    t0 = time.perf_counter()
    try:
        prebuild_prep(
            config["machine"], config["matrix"], config["solver"],
            config["version"],
            block_count=int(config.get("block_count") or 64),
            width=config.get("width"),
            first_touch=bool(config.get("first_touch", True)),
        )
    except Exception as e:
        return f"[prep]  skipped ({type(e).__name__}: {e})"
    return (f"[prep]  {config['matrix']}/{config['solver']}/"
            f"{config['version']} ready in "
            f"{time.perf_counter() - t0:.2f} s")


class WarmPool:
    """One persistent executor behind every cell.

    Parameters
    ----------
    worker:
        The per-cell callable, ``config -> result``.  Module-level so
        it pickles; injectable so the failure-path tests can run
        crashing, hanging or chatty workers.
    jobs:
        Worker processes; ``0`` runs cells inline (see module doc).
    timeout:
        Per-cell wall-clock budget in seconds, counted from the moment
        the cell gets a worker (``None`` = unlimited).
    attempts:
        Total tries per cell before :class:`WorkerFailure` is raised.
    backoff:
        Base of the exponential retry backoff in seconds (sleep
        ``backoff * 2**(attempt-1)`` before re-trying).
    metrics:
        Optional object whose ``worker_restarts`` / ``worker_retries``
        counters the pool bumps.
    progress:
        Optional callable invoked with one line per parent-side prep
        build and when the pool degrades to inline execution.
    """

    #: Pool crashes tolerated before degrading to inline execution.
    max_pool_rebuilds = 3

    def __init__(self, worker: Callable[[dict], object],
                 jobs: int = 0,
                 timeout: Optional[float] = None,
                 attempts: int = 2,
                 backoff: float = 0.25,
                 metrics=None,
                 progress: Optional[Callable[[str], None]] = None):
        self.jobs = max(0, int(jobs))
        self.timeout = timeout
        self.attempts = max(1, int(attempts))
        self.backoff = max(0.0, float(backoff))
        self.worker = worker
        self.metrics = metrics
        self.progress = progress
        self.waiting = 0          # cells waiting for a slot
        self._slots: Optional[asyncio.Semaphore] = None
        self._in_process: Optional[asyncio.Lock] = None
        self._prebuilds: Dict[tuple, asyncio.Future] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._rebuilds = 0        # every retire: kills and crashes
        self._crashes = 0         # unattributed crashes only
        self._inline_only = self.jobs == 0

    def _bind(self) -> None:
        """Create the asyncio state in the running loop."""
        self._slots = asyncio.Semaphore(max(1, self.jobs))
        self._in_process = asyncio.Lock()   # one in-process build/cell
        self._prebuilds = {}

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        return "inline" if self._inline_only else "process"

    def start(self) -> None:
        """Fork the workers now, before any prep build thread exists.

        The executor forks lazily on ``submit``; one warm-up call per
        worker makes every fork happen here, at a moment the caller
        chose.  If the process cannot fork (resource limits), the pool
        degrades to inline execution for good.
        """
        if self._inline_only or self._pool is not None:
            return
        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=self.jobs,
                                       initializer=_warm_init)
            for _ in range(self.jobs):
                pool.submit(_warm_init)
        except OSError:
            if pool is not None:
                self._kill(pool)
            self._inline_only = True
            return
        self._pool = pool

    @staticmethod
    def _kill(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even if its workers are wedged.

        ``shutdown`` alone waits for running tasks, so the worker
        processes are terminated first (``_processes`` is private API,
        but the stdlib offers no public kill switch).  Every cell still
        on the pool then fails with ``BrokenProcessPool`` and is
        resubmitted uncharged.
        """
        for p in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                p.terminate()
            except OSError:
                pass
        pool.shutdown(wait=False)

    def _retire_pool(self, generation: int, kill: bool) -> None:
        """Tear down the current pool once per failure generation.

        Concurrent cells all observe the same broken pool; the
        generation counter makes sure only the first of them rebuilds,
        and the others simply pick up the fresh executor.
        """
        if generation != self._generation:
            return  # somebody else already rebuilt
        self._generation += 1
        pool, self._pool = self._pool, None
        if pool is not None:
            if kill:
                self._kill(pool)
            else:
                pool.shutdown(wait=False)
        self._rebuilds += 1
        if self.metrics is not None:
            self.metrics.worker_restarts += 1
        if kill:
            return  # a timeout kill never degrades (see module doc)
        self._crashes += 1
        if self._crashes > self.max_pool_rebuilds:
            self._inline_only = True
            if self.progress is not None:
                self.progress(
                    f"[pool]  unhealthy after {self._crashes - 1} "
                    "crashes; degrading to inline execution")

    async def _prebuild(self, config: dict) -> None:
        """Parent-side prep build, once per prep signature."""
        if self._inline_only:
            return
        from repro.bench.prep import default_prep_store

        if not default_prep_store().enabled:
            return
        sig = (config["machine"], config["matrix"], config["solver"],
               config["version"], config.get("block_count"),
               config.get("width"), config.get("first_touch", True))
        build = self._prebuilds.get(sig)
        if build is None:
            build = asyncio.ensure_future(self._build(config))
            self._prebuilds[sig] = build
        await build

    async def _build(self, config: dict) -> None:
        # One at a time: the in-process memos it fills are shared.
        async with self._in_process:
            note = await asyncio.to_thread(_prebuild, config)
        if self.progress is not None:
            self.progress(note)

    async def _acquire(self) -> None:
        self.waiting += 1
        try:
            await self._slots.acquire()
        finally:
            self.waiting -= 1

    # ------------------------------------------------------------------
    async def run(self, config: dict):
        """Execute one cell; returns whatever the worker returns.

        Raises :class:`WorkerFailure` once the cell has exhausted its
        attempts.  Timeouts and pool crashes are absorbed per the
        policy in the module docstring.
        """
        if self._slots is None:
            self._bind()
        await self._prebuild(config)
        attempt = 0
        while True:
            await self._acquire()
            try:
                if self._pool is None and not self._inline_only:
                    # Fork only while no prep build thread runs.
                    async with self._in_process:
                        self.start()
                generation = self._generation
                if self._inline_only:
                    async with self._in_process:
                        return await asyncio.to_thread(self.worker, config)
                fut = asyncio.wrap_future(
                    self._pool.submit(self.worker, config))
                done, _ = await asyncio.wait({fut}, timeout=self.timeout)
                if done:
                    return fut.result()
                fut.cancel()
                self._retire_pool(generation, kill=True)
                failure = WorkerFailure(
                    f"timed out (> {self.timeout:.1f} s/cell)")
            except BrokenProcessPool:
                self._retire_pool(generation, kill=False)
                continue  # dropped, not at fault: resubmit uncharged
            except WorkerFailure as e:
                failure = e
            except Exception as e:
                failure = WorkerFailure(f"{type(e).__name__}: {e}")
            finally:
                self._slots.release()
            attempt += 1
            if attempt >= self.attempts:
                raise failure
            if self.metrics is not None:
                self.metrics.worker_retries += 1
            if self.backoff:
                await asyncio.sleep(
                    self.backoff * 2 ** min(attempt - 1, 4))

    def run_all(self, configs: Sequence[dict],
                done: Optional[Callable[[int, object], None]] = None
                ) -> List[object]:
        """Run every config on a fresh event loop, then close the pool.

        Worker processes are forked before the loop starts, while this
        process runs no thread of its own.

        Returns, in input order, each cell's result or the
        :class:`WorkerFailure` it ended with.  ``done(index, result)``
        is called as each cell succeeds, so callers can persist
        results before a later cell fails.
        """
        async def one(index: int, config: dict):
            try:
                result = await self.run(config)
            except WorkerFailure as e:
                return e
            if done is not None:
                done(index, result)
            return result

        async def main():
            self._bind()
            try:
                return await asyncio.gather(
                    *(one(i, c) for i, c in enumerate(configs)))
            finally:
                self.close()

        self.start()
        return asyncio.run(main())

    # ------------------------------------------------------------------
    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def stats(self) -> dict:
        return {
            "jobs": self.jobs,
            "mode": self.mode,
            "rebuilds": self._rebuilds,
        }
