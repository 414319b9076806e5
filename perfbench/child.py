"""One benchmark repetition, run in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json`` where the spec holds
``commands`` (a list of ``repro`` CLI argument lists), ``trace`` (wrap
the layer functions, see ``tracing.py``) and ``out`` (where to write
the result).  The repetition imports the package, marks itself ready,
then runs each command through ``repro.cli.main`` with stdout captured
line by line and timestamped.  The result file carries the exit codes,
the ready/done clock readings, the peak RSS and, when traced, the
spans and per-layer self times.
"""

import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

#: Modules the CLI commands import lazily; importing them up front
#: puts their cost in set-up rather than in the timed part.
PRELOAD = ("repro.cli", "repro.bench", "repro.analysis.experiment",
           "repro.faults")


class StampedLines(io.TextIOBase):
    """A stdout stand-in that keeps each line with its finish time."""

    def __init__(self):
        self.lines = []
        self._partial = ""

    def writable(self):
        return True

    def write(self, text):
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((time.monotonic(), line))
        return len(text)


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    for name in PRELOAD:
        try:
            importlib.import_module(name)
        except ImportError:
            if name == "repro.cli":
                raise
    recorder = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    cli = sys.modules["repro.cli"]

    commands = []
    ready = time.monotonic()
    ready_wall = time.time()
    real_stdout = sys.stdout
    for argv in spec["commands"]:
        out = StampedLines()
        start = time.monotonic()
        sys.stdout = out
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = 0 if e.code is None else e.code
        except Exception:
            rc = "exception: " + traceback.format_exc()
        finally:
            sys.stdout = real_stdout
        commands.append({"argv": argv, "rc": rc, "start": start,
                         "lines": out.lines})
    done = time.monotonic()

    result = {
        "ready": ready,
        "ready_wall": ready_wall,
        "done": done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "commands": commands,
    }
    if recorder is not None:
        simulated, replayed = recorder.task_counts()
        result["trace"] = {
            "self_s": recorder.self_s,
            "present": sorted(recorder.present),
            "tasks_simulated": simulated,
            "tasks_replayed": replayed,
            "spans": recorder.spans,
            "prep_stats": _prep_stats(),
        }
    with open(spec["out"], "w", encoding="utf-8") as f:
        json.dump(result, f)


def _prep_stats():
    """Hit/miss counters of the process-wide prep store, if it exists."""
    try:
        from repro.bench.prep import default_prep_store

        stats = default_prep_store().stats()
        return {"hits": int(stats["hits"]), "misses": int(stats["misses"])}
    except (ImportError, AttributeError, KeyError, TypeError):
        return None


if __name__ == "__main__":
    main()
