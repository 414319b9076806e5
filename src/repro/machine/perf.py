"""Performance counters: the simulator's ``perf stat``.

Accumulates per-level cache misses (in lines), per-kernel busy time,
task counts and overhead time; supports normalization against a
baseline run the way the paper normalizes every cache plot to
``libcsr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["PerfCounters"]


@dataclass
class PerfCounters:
    """Counter block for one simulated run."""

    l1_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0
    tasks_executed: int = 0
    busy_time: float = 0.0
    overhead_time: float = 0.0
    compute_time: float = 0.0
    memory_time: float = 0.0
    kernel_time: Dict[str, float] = field(default_factory=dict)
    kernel_tasks: Dict[str, int] = field(default_factory=dict)

    def record_task(
        self,
        kernel: str,
        duration: float,
        misses: tuple,
        overhead: float,
        compute: float,
        memory: float,
    ) -> None:
        """Fold one executed task into the counters."""
        self.tasks_executed += 1
        self.busy_time += duration
        self.overhead_time += overhead
        self.compute_time += compute
        self.memory_time += memory
        self.l1_misses += misses[0]
        self.l2_misses += misses[1]
        self.l3_misses += misses[2]
        self.kernel_time[kernel] = self.kernel_time.get(kernel, 0.0) + duration
        self.kernel_tasks[kernel] = self.kernel_tasks.get(kernel, 0) + 1

    def totals(self) -> tuple:
        """``(tasks, busy, overhead, compute, memory, l1, l2, l3)``.

        The engines' hot loops accumulate these in locals — the same
        adds in the same order as per-task :meth:`record_task` calls,
        so bit-exact — and store them back with :meth:`set_totals`."""
        return (self.tasks_executed, self.busy_time, self.overhead_time,
                self.compute_time, self.memory_time, self.l1_misses,
                self.l2_misses, self.l3_misses)

    def set_totals(self, *totals) -> None:
        (self.tasks_executed, self.busy_time, self.overhead_time,
         self.compute_time, self.memory_time, self.l1_misses,
         self.l2_misses, self.l3_misses) = totals

    # ------------------------------------------------------------------
    def misses(self) -> tuple:
        return (self.l1_misses, self.l2_misses, self.l3_misses)

    def normalized_misses(self, baseline: "PerfCounters") -> tuple:
        """Misses of this run relative to a baseline (libcsr in the paper).

        Values < 1 mean *fewer* misses than the baseline; the paper's
        plots report the inverse ("k× fewer misses" = 1/value).
        """
        out = []
        for mine, theirs in zip(self.misses(), baseline.misses()):
            out.append(mine / theirs if theirs else float("nan"))
        return tuple(out)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable snapshot (bit-exact round trip)."""
        return {
            "l1_misses": self.l1_misses,
            "l2_misses": self.l2_misses,
            "l3_misses": self.l3_misses,
            "tasks_executed": self.tasks_executed,
            "busy_time": self.busy_time,
            "overhead_time": self.overhead_time,
            "compute_time": self.compute_time,
            "memory_time": self.memory_time,
            "kernel_time": dict(self.kernel_time),
            "kernel_tasks": dict(self.kernel_tasks),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PerfCounters":
        """Inverse of :meth:`to_dict`."""
        return cls(
            l1_misses=int(d["l1_misses"]),
            l2_misses=int(d["l2_misses"]),
            l3_misses=int(d["l3_misses"]),
            tasks_executed=int(d["tasks_executed"]),
            busy_time=float(d["busy_time"]),
            overhead_time=float(d["overhead_time"]),
            compute_time=float(d["compute_time"]),
            memory_time=float(d["memory_time"]),
            kernel_time={str(k): float(v)
                         for k, v in d.get("kernel_time", {}).items()},
            kernel_tasks={str(k): int(v)
                          for k, v in d.get("kernel_tasks", {}).items()},
        )

    def merge(self, other: "PerfCounters") -> None:
        """Accumulate another counter block (multi-iteration totals)."""
        self.l1_misses += other.l1_misses
        self.l2_misses += other.l2_misses
        self.l3_misses += other.l3_misses
        self.tasks_executed += other.tasks_executed
        self.busy_time += other.busy_time
        self.overhead_time += other.overhead_time
        self.compute_time += other.compute_time
        self.memory_time += other.memory_time
        for k, v in other.kernel_time.items():
            self.kernel_time[k] = self.kernel_time.get(k, 0.0) + v
        for k, v in other.kernel_tasks.items():
            self.kernel_tasks[k] = self.kernel_tasks.get(k, 0) + v
