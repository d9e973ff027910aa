"""Measurement plumbing shared by the workloads: spans, statistics, the
operation ledger, fresh-interpreter boots and memory readings."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "request", "sid", "parent", "start")

    def __init__(self, tracer, name, request):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.name, self.start, end, self.parent, self.request)
        )
        return False


class Tracer:
    """Spans around the calls the benchmark makes into each layer.

    A span is ``(id, name, start, end, parent id, request id)``; parents
    follow the nesting of ``with`` blocks per thread.  Spans stay in memory
    until :meth:`write`.  A disabled tracer hands out one shared no-op
    context manager, so untraced runs pay almost nothing.
    """

    def __init__(self, enabled: bool) -> None:
        import itertools

        self.enabled = bool(enabled)
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, request)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it that its children cover (children of one parent do not
        overlap, since a thread runs one call at a time)."""
        child_time: Dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: Dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            own = end - start - child_time.get(sid, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [dict(zip(fields, s)) for s in self.spans],
                    "self_seconds": self.self_times(),
                },
                handle,
            )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


# ----------------------------------------------------------------------
# The operation ledger
# ----------------------------------------------------------------------
class Ledger:
    """Operations attempted and failed, and every correctness check.

    An operation *fails* when the program raises or refuses it; an
    operation that answers is checked, and a wrong answer (or any broken
    property) makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def attempt(self, ok: bool = True, why: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(why)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            with self._lock:
                if len(self.problems) < 20:
                    self.problems.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems


# ----------------------------------------------------------------------
# Processes and memory
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def timed_boot(argv: Sequence[str], timeout: float = 60.0):
    """(seconds, peak RSS in MiB) of a fresh interpreter on ``argv``: the
    time from its start to the line ``ok <peak KiB>`` on its stdout (its
    first correct answer).  The child must exit 0 afterwards; anything
    else raises."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    try:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if line[:1] != ["ok"] or proc.returncode != 0:
        raise RuntimeError(
            f"boot {argv} answered {line!r}, exit {proc.returncode}: "
            f"{(out + err)[-400:]}"
        )
    return elapsed, int(line[1]) / 1024.0


def boot_times(argv: Sequence[str], count: int, ledger: Ledger
               ) -> List[tuple]:
    """``count`` cold boots of ``argv``, each one operation in ``ledger``;
    returns (seconds, peak MiB) of the boots that answered correctly."""
    times = []
    for _ in range(count):
        try:
            times.append(timed_boot(argv))
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            ledger.attempt(ok=False, why=f"boot: {exc}")
        else:
            ledger.attempt()
    return times


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of this process, or of child ``pid`` (read while
    it runs), in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def host_fingerprint() -> Dict[str, object]:
    import platform

    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
