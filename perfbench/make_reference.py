"""Regenerate ``perfbench/reference.json`` from direct library calls.

    PYTHONPATH=src python3 perfbench/make_reference.py

Every reference is computed by calling ``run_version`` directly, not
through the CLI or the service the benchmark measures, so a check
compares two independent paths.  Simulated numbers are pure functions
of the config, so the file changes only when ``COST_MODEL_VERSION``
does.  The run uses a throwaway cache directory inside ``perfbench``.
"""

import json
import os
import shutil
import sys
import tempfile

import spec


def main():
    work = tempfile.mkdtemp(prefix="reference-", dir=spec.HERE)
    os.environ["REPRO_CACHE_DIR"] = work
    try:
        reference = build()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(spec.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {spec.REFERENCE}")


def build():
    from repro.analysis.experiment import run_version
    from repro.faults import FaultPlan
    from repro.sim.cost import COST_MODEL_VERSION

    cells = {}
    for matrix, version, seed in spec.served_keys():
        summary = run_version(
            "broadwell", matrix, "lanczos", version,
            block_count=spec.fig9_block_count(version),
            iterations=spec.FIG9_ITERATIONS, seed=seed,
        ).summary().to_dict()
        cells[spec.cell_label(matrix, version, seed)] = spec.digest(summary)

    chaos = {}
    healthy = {}
    for fault_seed in range(spec.CHAOS_SEEDS):
        plan = FaultPlan.from_spec(spec.CHAOS_SPEC, seed=fault_seed)
        for matrix in spec.CHAOS_MATRICES:
            for version in spec.CHAOS_VERSIONS:
                common = dict(block_count=spec.CHAOS_BLOCK_COUNT,
                              iterations=spec.CHAOS_ITERATIONS)
                if (matrix, version) not in healthy:
                    healthy[matrix, version] = run_version(
                        "epyc", matrix, "lanczos", version,
                        **common).total_time
                faulted = run_version("epyc", matrix, "lanczos", version,
                                      faults=plan, **common)
                fr = faulted.fault_report
                chaos[f"{fault_seed}/{matrix}/{version}"] = spec.digest({
                    "healthy_total_time": healthy[matrix, version],
                    "faulted_total_time": faulted.total_time,
                    "fault_report": None if fr is None else fr.to_dict(),
                })

    fig9 = sorted((label, d) for label, d in cells.items()
                  if label.endswith("/seed0"))
    return {
        "cost_model_version": COST_MODEL_VERSION,
        "cells": cells,
        "fig9_digest": spec.digest(fig9),
        "chaos": chaos,
    }


if __name__ == "__main__":
    sys.exit(main())
