"""Experiment orchestration: grid expansion, on-disk caching, parallel runs.

Every figure of the paper is a grid of simulated cells
(machine × matrix × solver × version × block count).  This package is
the substrate all of them run through:

* :mod:`repro.bench.cache` — a content-addressed, process-safe result
  store keyed by the full cell config plus a cost-model version salt.
* :mod:`repro.bench.prep` — the compiled-prep store: persisted census
  + DAG + access-plan artifacts, so cold sweeps build each distinct
  prep once and everything else (workers, later processes) loads it.
* :mod:`repro.bench.pool` — :class:`WarmPool`: the one cell executor.
  Every cell that is simulated (bench misses, traced sweeps, service
  computations) runs through it, under one failure policy: bounded
  in-flight cells, per-cell timeouts, retries, crash rebuilds, and the
  parent-side prep prebuild.
* :mod:`repro.bench.runner` — :class:`ExperimentRunner`: expands grid
  specs, dedupes cells, serves hits from the cache, runs the misses
  through the pool, and caches each result as it finishes, with
  deterministic result ordering.

Environment knobs (read at cache construction):

* ``REPRO_CACHE_DIR`` — cache root (default ``.repro_cache/``).
* ``REPRO_NO_CACHE=1`` — disable the on-disk result cache entirely.
* ``REPRO_PREP_DIR`` — prep-store root (default ``<cache root>/prep``).
* ``REPRO_NO_PREP=1`` — disable the prep store.
* ``REPRO_BENCH_JOBS`` — default worker-process count.
"""

from repro.bench.cache import ResultCache, cache_key, default_cache
from repro.bench.pool import WarmPool, WorkerFailure
from repro.bench.prep import PrepStore, default_prep_store
from repro.bench.runner import (
    Cell,
    DEFAULT_BLOCK_COUNT,
    DEFAULT_MATRICES,
    ExperimentRunner,
    REGENT_BLOCK_COUNT,
    SweepError,
    expand_grid,
    run_cell_config,
)

__all__ = [
    "Cell",
    "DEFAULT_BLOCK_COUNT",
    "DEFAULT_MATRICES",
    "ExperimentRunner",
    "PrepStore",
    "REGENT_BLOCK_COUNT",
    "ResultCache",
    "SweepError",
    "WarmPool",
    "WorkerFailure",
    "cache_key",
    "default_cache",
    "default_prep_store",
    "expand_grid",
    "run_cell_config",
]
