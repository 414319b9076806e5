"""Execution flow graphs — the data behind Figs. 10 and 13.

Every executed task leaves a :class:`FlowRecord` (kernel, core, start,
end, iteration).  :class:`FlowGraph` offers the reductions the paper's
flow-graph discussion uses: per-kernel start/finish envelopes (to see
pipelining — kernels overlapping in time — versus BSP's disjoint
phases), per-core utilization, and an ASCII Gantt rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

__all__ = ["FlowRecord", "FlowGraph", "FlowSummary"]


class FlowRecord(NamedTuple):
    """One task execution.

    A ``NamedTuple`` rather than a dataclass: one record is appended
    per executed task, so construction cost is on the simulator's hot
    path (tuple construction is several times cheaper than a frozen
    dataclass ``__init__``).
    """

    tid: int
    kernel: str
    core: int
    start: float
    end: float
    iteration: int


class FlowGraph:
    """Append-only trace of task executions for one run."""

    __slots__ = ("records",)

    def __init__(self):
        self.records: List[FlowRecord] = []

    def record(self, tid, kernel, core, start, end, iteration) -> None:
        self.records.append(
            FlowRecord(tid, kernel, core, start, end, iteration)
        )

    def __len__(self):
        return len(self.records)

    # -- reductions: each reads the one-pass summary -------------------
    @property
    def makespan(self) -> float:
        return self.summary().makespan

    def kernel_envelopes(self) -> Dict[str, Tuple[float, float]]:
        """First start and last finish per kernel.

        In a BSP execution the envelopes of consecutive kernels are
        disjoint (barriers); in pipelined task execution they overlap —
        the overlap fraction is the quantitative signature of Figs. 10
        and 13.
        """
        return self.summary().envelopes

    def kernel_overlap_fraction(self) -> float:
        """Fraction of kernel-envelope time shared with another kernel.

        0 ⇒ perfectly phased (BSP-like); towards 1 ⇒ fully pipelined.
        """
        return self.summary().overlap_fraction

    def core_busy_time(self) -> Dict[int, float]:
        return self.summary().core_busy

    def utilization(self, n_cores: int) -> float:
        """Mean busy fraction over the makespan."""
        return self.summary().utilization(n_cores)

    def iteration_spans(self) -> Dict[int, Tuple[float, float]]:
        return self.summary().spans

    # ------------------------------------------------------------------
    def summary(self) -> "FlowSummary":
        """Aggregate view of this trace (serializable, records dropped).

        One walk over the records computes every reduction.  Per-core
        busy sums accumulate in record order and keys appear in
        first-seen order, so the results are exactly those of one walk
        per reduction.
        """
        env: Dict[str, list] = {}
        busy: Dict[int, float] = {}
        spans: Dict[int, list] = {}
        env_get = env.get
        busy_get = busy.get
        spans_get = spans.get
        for _tid, kernel, core, start, end, iteration in self.records:
            e = env_get(kernel)
            if e is None:
                env[kernel] = [start, end]
            else:
                if start < e[0]:
                    e[0] = start
                if end > e[1]:
                    e[1] = end
            busy[core] = busy_get(core, 0.0) + (end - start)
            sp = spans_get(iteration)
            if sp is None:
                spans[iteration] = [start, end]
            else:
                if start < sp[0]:
                    sp[0] = start
                if end > sp[1]:
                    sp[1] = end
        envelopes = {k: (lo, hi) for k, (lo, hi) in env.items()}
        return FlowSummary(
            n_records=len(self.records),
            # The largest end is the largest envelope end.
            makespan=max((hi for _, hi in env.values()), default=0.0),
            envelopes=envelopes,
            overlap_fraction=_overlap_fraction(envelopes),
            core_busy=busy,
            spans={i: (lo, hi) for i, (lo, hi) in spans.items()},
        )

    def to_dict(self) -> dict:
        """Full record list as JSON-serializable rows."""
        return {
            "records": [
                [r.tid, r.kernel, r.core, r.start, r.end, r.iteration]
                for r in self.records
            ]
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FlowGraph":
        fg = cls()
        for tid, kernel, core, start, end, iteration in d.get("records", []):
            fg.record(int(tid), str(kernel), int(core), float(start),
                      float(end), int(iteration))
        return fg

    # ------------------------------------------------------------------
    def to_gantt(self, width: int = 100, max_cores: int = 32) -> str:
        """ASCII Gantt chart: one row per core, one letter per kernel."""
        if not self.records:
            return "(empty flow graph)"
        span = self.makespan
        kernels = sorted({r.kernel for r in self.records})
        letters = {k: chr(ord("A") + i % 26) for i, k in enumerate(kernels)}
        cores = sorted({r.core for r in self.records})[:max_cores]
        lines = []
        legend = "  ".join(f"{letters[k]}={k}" for k in kernels)
        lines.append(f"makespan {span * 1e3:.3f} ms   {legend}")
        for c in cores:
            row = [" "] * width
            for r in self.records:
                if r.core != c:
                    continue
                a = int(r.start / span * (width - 1))
                b = max(a + 1, int(r.end / span * (width - 1)) + 1)
                for x in range(a, min(b, width)):
                    row[x] = letters[r.kernel]
            lines.append(f"core {c:3d} |{''.join(row)}|")
        return "\n".join(lines)


def _overlap_fraction(envelopes: Dict[str, Tuple[float, float]]) -> float:
    """Fraction of kernel-envelope time shared with another kernel."""
    env = sorted(envelopes.values())
    if len(env) < 2:
        return 0.0
    total = sum(hi - lo for lo, hi in env)
    if total <= 0:
        return 0.0
    overlap = 0.0
    for i, (lo1, hi1) in enumerate(env):
        for lo2, hi2 in env[i + 1:]:
            if lo2 >= hi1:
                break
            overlap += max(0.0, min(hi1, hi2) - max(lo1, lo2))
    return min(1.0, overlap / total)


@dataclass
class FlowSummary:
    """Aggregates of a :class:`FlowGraph` without the per-task records.

    This is what the on-disk result cache stores: everything the
    figure/benchmark assertions read (envelopes, overlap fraction,
    per-core busy time, iteration spans) survives the round trip; the
    raw record list — only needed for Gantt rendering — does not.
    The query surface mirrors :class:`FlowGraph` so cached summaries
    are drop-in for analysis code.
    """

    n_records: int = 0
    makespan: float = 0.0
    envelopes: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    overlap_fraction: float = 0.0
    core_busy: Dict[int, float] = field(default_factory=dict)
    spans: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    # -- FlowGraph-compatible query surface -----------------------------
    def __len__(self) -> int:
        return self.n_records

    def kernel_envelopes(self) -> Dict[str, Tuple[float, float]]:
        return dict(self.envelopes)

    def kernel_overlap_fraction(self) -> float:
        return self.overlap_fraction

    def core_busy_time(self) -> Dict[int, float]:
        return dict(self.core_busy)

    def utilization(self, n_cores: int) -> float:
        if self.makespan <= 0:
            return 0.0
        return sum(self.core_busy.values()) / (self.makespan * n_cores)

    def iteration_spans(self) -> Dict[int, Tuple[float, float]]:
        return dict(self.spans)

    def to_gantt(self, width: int = 100, max_cores: int = 32) -> str:
        return ("(flow records not retained in cached summary; "
                "re-run with a cold cache for a Gantt rendering)")

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "makespan": self.makespan,
            "envelopes": {k: [lo, hi]
                          for k, (lo, hi) in self.envelopes.items()},
            "overlap_fraction": self.overlap_fraction,
            "core_busy": {str(c): t for c, t in self.core_busy.items()},
            "spans": {str(i): [lo, hi]
                      for i, (lo, hi) in self.spans.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FlowSummary":
        return cls(
            n_records=int(d.get("n_records", 0)),
            makespan=float(d.get("makespan", 0.0)),
            envelopes={str(k): (float(v[0]), float(v[1]))
                       for k, v in d.get("envelopes", {}).items()},
            overlap_fraction=float(d.get("overlap_fraction", 0.0)),
            core_busy={int(c): float(t)
                       for c, t in d.get("core_busy", {}).items()},
            spans={int(i): (float(v[0]), float(v[1]))
                   for i, v in d.get("spans", {}).items()},
        )
