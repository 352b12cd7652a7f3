"""Spans, Spark job counts and process/host counters for the sweep benchmark.

A :class:`Tracer` records one span per call into a layer (name, start,
end, parent span, unit id) and gives every span its own Spark job group,
so ``sc.statusTracker()`` can attribute jobs, stages and tasks to exactly
that call. A disabled tracer records nothing and never touches the job
group, which is how the untraced (end-to-end) runs measure.

Spans stay in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    unit: int | None
    start: float
    end: float | None = None
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    job_ids: list[int] = field(default_factory=list, repr=False)

    @property
    def seconds(self) -> float:
        return (self.end or self.start) - self.start

    def record(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "unit": self.unit, "start": self.start, "end": self.end,
            "jobs": self.jobs, "stages": self.stages, "tasks": self.tasks,
            "failed_tasks": self.failed_tasks,
        }


class Tracer:
    """Layer spans with one Spark job group per span (no-op when disabled)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._sc = None

    def attach(self, sc) -> None:
        """Count jobs on ``sc`` from now on."""
        self._sc = sc

    def begin(self, name: str, *, unit: int | None = None) -> Span | None:
        if not self.enabled:
            return None
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans) + 1, name, parent, unit, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        self._set_group(span)
        return span

    def end(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        self._open.remove(span)
        self._count(span)
        if self._open:
            self._set_group(self._open[-1])

    @contextmanager
    def span(self, name: str, *, unit: int | None = None):
        span = self.begin(name, unit=unit)
        try:
            yield span
        finally:
            self.end(span)

    def _set_group(self, span: Span) -> None:
        if self._sc is not None:
            self._sc.setJobGroup(f"sweepbench-{span.id}", span.name)

    def _count(self, span: Span) -> None:
        if self._sc is None:
            return
        st = self._sc.statusTracker()
        span.job_ids = sorted(st.getJobIdsForGroup(f"sweepbench-{span.id}"))
        span.jobs = len(span.job_ids)
        for jid in span.job_ids:
            job = st.getJobInfo(jid)
            if job is None:
                continue
            span.stages += len(job.stageIds)
            for sid in job.stageIds:
                stage = st.getStageInfo(sid)
                if stage is not None:
                    span.tasks += stage.numCompletedTasks
                    span.failed_tasks += stage.numFailedTasks

    def total(self, name: str, *, since: int = 0) -> dict[str, float]:
        """Summed seconds/jobs/stages/tasks/calls of the spans called ``name``
        or ``name.<anything>`` (every span when ``name`` is empty)."""
        out = {"s": 0.0, "jobs": 0, "stages": 0, "tasks": 0,
               "failed_tasks": 0, "calls": 0}
        for s in self.spans[since:]:
            hit = not name or s.name == name or s.name.startswith(name + ".")
            if hit and s.end is not None:
                out["s"] += s.seconds
                out["calls"] += 1
                for k in ("jobs", "stages", "tasks", "failed_tasks"):
                    out[k] += getattr(s, k)
        return out


# ---------------------------------------------------------------- /proc
def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def steal_seconds() -> float:
    """Host steal time summed over CPUs, from the ``cpu`` line of ``/proc/stat``."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def busy_seconds() -> float:
    """CPU time spent by every process on the host (user, nice, system, irq,
    softirq), summed over CPUs, from the ``cpu`` line of ``/proc/stat``."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return sum(int(x) for x in fields[1:4] + fields[6:8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")
