"""Workload definitions shared by the benchmark and its reference maker.

This module imports nothing from ``repro``: the benchmark drives the
program only through its CLI and its HTTP service.
"""

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "engine_equivalence.json")

#: The Fig. 9 grid ``repro bench`` runs by default: its eight default
#: matrices x five versions on Broadwell, Lanczos, two iterations, each
#: version at its rule-of-thumb block count.
FIG9_MATRICES = ("inline1", "Flan_1565", "Queen4147", "Nm7",
                 "nlpkkt160", "nlpkkt240", "twitter7", "webbase-2001")
FIG9_VERSIONS = ("libcsr", "libcsb", "deepsparse", "hpx", "regent")
FIG9_ITERATIONS = 2
FIG9_ARGV = ["bench", "--machine", "broadwell", "--solver", "lanczos",
             "--iterations", str(FIG9_ITERATIONS), "--jobs", "1"]


def fig9_block_count(version):
    return 24 if version == "regent" else 48


#: ``repro chaos`` on the manycore machine; the benchmark seed picks
#: the core-loss seed as ``seed % CHAOS_SEEDS``, so every seed has a
#: reference.
CHAOS_MATRICES = ("Queen4147", "inline1")
CHAOS_VERSIONS = ("libcsb", "deepsparse", "hpx", "regent")
CHAOS_BLOCK_COUNT = 96
CHAOS_ITERATIONS = 6
CHAOS_SPEC = "core-loss"
CHAOS_SEEDS = 16
PREP_ARGV = (["prep", "build", "--machine", "epyc", "--matrix"]
             + list(CHAOS_MATRICES)
             + ["--solver", "lanczos", "--version"] + list(CHAOS_VERSIONS)
             + ["--block-count", str(CHAOS_BLOCK_COUNT)])


def chaos_argv(matrix, fault_seed, json_path):
    return (["chaos", "--machine", "epyc", "--matrix", matrix,
             "--block-count", str(CHAOS_BLOCK_COUNT),
             "--iterations", str(CHAOS_ITERATIONS), "--spec", CHAOS_SPEC,
             "--seed", str(fault_seed), "--version"]
            + list(CHAOS_VERSIONS) + ["--json", json_path])


#: ``served-mix``: the 40 Fig. 9 cells x these runtime seeds.
SERVED_RUNTIME_SEEDS = (0, 1)
SERVED_REQUESTS = 600


def served_keys():
    """The 80 (matrix, version, runtime seed) keys, in a fixed order."""
    return [(m, v, s) for s in SERVED_RUNTIME_SEEDS
            for m in FIG9_MATRICES for v in FIG9_VERSIONS]


def request_doc(matrix, version, runtime_seed):
    """The ``POST /v1/cell`` body for one served key."""
    return {"machine": "broadwell", "matrix": matrix, "solver": "lanczos",
            "version": version, "iterations": FIG9_ITERATIONS,
            "block_count": fig9_block_count(version),
            "seed": runtime_seed}


def cell_label(matrix, version, runtime_seed):
    return f"{matrix}/{version}/seed{runtime_seed}"


def digest(obj):
    """sha256 of the canonical JSON bytes of ``obj``."""
    blob = json.dumps(obj, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def load_reference():
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


#: Fields of the frozen equivalence fixture that a summary carries
#: (the rest of a fixture entry lives under ``counters``).
_FIXTURE_TOP = ("total_time", "iteration_times", "n_cores",
                "n_tasks_per_iteration")


def fixture_cells():
    """The frozen engine-equivalence fixture, or {} if it is gone."""
    try:
        with open(FIXTURE, encoding="utf-8") as f:
            return json.load(f)
    except OSError:
        return {}


def fixture_mismatch(fixture, machine, matrix, version, iterations,
                     block_count, runtime_seed, summary):
    """Compare a summary with the fixture cell it overlaps, if any.

    Returns None when no fixture cell overlaps (fixture cells are
    runtime seed 0; ``libcsr`` ignores the block count), else a list of
    the fields that differ.
    """
    if runtime_seed != 0:
        return None
    for key, expected in fixture.items():
        f_machine, f_matrix, f_solver, f_version, f_bc, f_iters = \
            key.split("/")
        if (f_machine, f_matrix, f_solver, f_version, int(f_iters)) != (
                machine, matrix, "lanczos", version, iterations):
            continue
        if version != "libcsr" and int(f_bc) != block_count:
            continue
        counters = summary.get("counters", {})
        return [field for field, want in expected.items()
                if (summary.get(field) if field in _FIXTURE_TOP
                    else counters.get(field)) != want]
    return None
