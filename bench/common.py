"""Shared pieces of the benchmark: paths, seeds, accounting, reporting.

Everything here is program-agnostic: the workloads import the program
(``repro``) themselves, after :func:`program_importable` has put the
checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The benchmark directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def program_importable() -> None:
    """Make ``import repro`` resolve to this checkout's sources.

    Raises ``ImportError`` when the checkout holds no program (only the
    benchmark's own files), so the run fails before printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for subprocesses that must import the same program."""
    env = dict(os.environ)
    parts = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = ROOT / ".bench_work" / f"{label}-{os.getpid()}"
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------
def derive_seeds(seed: int, stream: str, count: int) -> List[int]:
    """``count`` distinct 31-bit seeds for one named input stream.

    Every input a workload generates (topology seeds, trial seeds, warm
    grid choice, fresh cold seeds) comes from its own stream of the one
    workload seed, so adding a stream never shifts another.
    """
    rng = random.Random(f"{seed}/{stream}")
    out: List[int] = []
    seen = set()
    while len(out) < count:
        value = rng.randrange(1, 2**31 - 1)
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def stream_rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}/{stream}")


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------
class Tally:
    """Attempted/failed operations plus the first few failure reasons.

    Thread-safe: the service workload's two client threads share one.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def ok(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        with self._lock:
            self.attempted += count
            self.failed += count
            if len(self.reasons) < 10:
                self.reasons.append(reason)


class CheckLog:
    """Output checks: every failed check is kept with its message."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition

    @property
    def correct(self) -> bool:
        return not self.failures


class Outcome:
    """What one workload run reports: accounting, checks, metrics, work."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.checks = CheckLog()
        self.metrics: Dict[str, Dict[str, Any]] = {}
        #: Deterministic work counts and result digests (same seed ->
        #: same values), printed beside the timings.
        self.work: Dict[str, Any] = {}

    def result_line(self) -> Dict[str, Any]:
        return {
            "correct": self.checks.correct,
            "attempted": int(self.tally.attempted),
            "failed": int(self.tally.failed),
            "metrics": self.metrics,
        }


def trial_failure(trial: Any) -> Optional[str]:
    """Why a finished trial counts as failed, or None when it is good."""
    if trial.truncated:
        return f"trial seed={trial.seed} truncated at max_convergence_time"
    return None


def count_trial(tally: Tally, trial: Any, label: str = "") -> bool:
    """Count one finished trial as good or failed; True when good."""
    reason = trial_failure(trial)
    if reason is None:
        tally.ok()
        return True
    tally.fail(f"{label}: {reason}" if label else reason)
    return False


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
#: Reference-loop speed (operations per second) every normalized time is
#: scaled to: a metric reads as it would on a host that runs the loop at
#: exactly this speed.
NOMINAL_REF_OPS = 1_000_000.0
_REF_OPS = 40_000


def reference_speed() -> float:
    """Operations per second of a fixed pure-Python heap-and-dict loop.

    The loop touches nothing of the program, so its speed changes only
    with the host.  On a shared host that speed drifts by tens of percent
    over tens of seconds, and the simulator's speed drifts with it.
    """
    rng = random.Random(7)
    heap: List[tuple] = []
    table: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()
    for i in range(_REF_OPS):
        push(heap, (rng.random(), i))
        slot = i % 997
        table[slot] = table.get(slot, 0) + 1
        if len(heap) > 512:
            pop(heap)
    return _REF_OPS / (time.perf_counter() - start)


class HostClock:
    """Reference-speed samples taken through a run, to normalize timings.

    ``scale`` turns host seconds into nominal seconds with the samples
    taken around them: on a host running the loop at half the nominal
    speed, a second of work counts as half a nominal second.
    """

    def __init__(self) -> None:
        self.samples: List[tuple] = []
        self._lock = threading.Lock()

    def sample(self) -> float:
        speed = reference_speed()
        with self._lock:
            self.samples.append((time.perf_counter(), speed))
        return speed

    def sample_every(self, interval: float) -> None:
        """Sample unless the last sample is younger than ``interval`` s."""
        with self._lock:
            last = self.samples[-1][0] if self.samples else None
        if last is None or time.perf_counter() - last >= interval:
            self.sample()

    def speed_around(self, start: float, end: float) -> float:
        """Mean of the last sample before ``start`` and the first after
        ``end`` (the nearest sample when there is neither)."""
        with self._lock:
            if not self.samples:
                raise RuntimeError("no host speed sample taken")
            before = [s for t, s in self.samples if t <= start]
            after = [s for t, s in self.samples if t >= end]
            picked = before[-1:] + after[:1]
            if not picked:
                mid = (start + end) / 2
                picked = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
            return sum(picked) / len(picked)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """Host seconds spent between ``start`` and ``end``, in nominal
        seconds."""
        return seconds * self.speed_around(start, end) / NOMINAL_REF_OPS

    def median_speed(self) -> float:
        with self._lock:
            return statistics.median(s for _t, s in self.samples)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(values: Sequence[float], pct: int) -> tuple:
    """(percentile, value) at the workload's fixed tail percentile ``pct``.

    The percentile is fixed, not the highest one the run's sample count
    allows: a faster program fits more samples into a run, and a
    percentile that rose with them would read its own speed-up as a
    longer tail.  A run with fewer than ten samples beyond ``pct`` falls
    back to the highest percentile that has ten beyond it, and below 40
    samples, where no percentile has a tail behind it, to the maximum.
    """
    n = len(values)
    if n == 0:
        return None, 0.0
    ordered = sorted(values)
    if n * (100 - pct) < 1000:
        if n < 40:
            return 100, ordered[-1]
        pct = int(100.0 * (1.0 - 10.0 / n))
    # Nearest rank: the smallest value with pct% of samples at or below it.
    rank = max(1, min(n, -(-pct * n // 100)))
    return pct, ordered[rank - 1]


def peak_rss_mb(children: Iterable[int] = ()) -> float:
    """Peak resident memory of this process plus the given live children.

    Children are read from their ``VmHWM`` (peak RSS) while still alive;
    pass every child process the workload started.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total_kb = float(own_kb)
    for pid in children:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += float(line.split()[1])
                break
    return total_kb / 1024.0


def child_pids(parent: int) -> List[int]:
    """Live direct children of ``parent`` (read from /proc)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            out.append(int(entry))
    return out


# ---------------------------------------------------------------------------
# Digests and reporting
# ---------------------------------------------------------------------------
def trial_record(trial: Any) -> List[Any]:
    """The simulated (host-independent) content of one trial."""
    return [
        trial.seed,
        float(trial.convergence_delay).hex(),
        trial.messages_sent,
        trial.withdrawals_sent,
        trial.updates_processed,
        trial.stale_dropped,
        trial.route_changes,
        trial.failure_size,
        trial.events_executed,
        bool(trial.truncated),
    ]


def digest(records: Iterable[Any]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def end_to_end(
    setup_s: float, op_ms: Sequence[float], tail_pct: int, rss_mb: float
) -> tuple:
    """The end-to-end metrics every workload prints, and the tail's
    percentile.

    ``op_ms`` holds the time of each of the workload's timed operations:
    1,000 simulated events (``sweep-fifo``), one warm campaign rerun
    (``campaign-schemes``), one warm submit-to-result round trip
    (``service-mixed``).  ``op_tail_ms`` is read at ``tail_pct``.
    """
    pct, tail = tail_percentile(op_ms, tail_pct)
    return {
        "setup_s": metric(setup_s, "s"),
        "op_p50_ms": metric(median(op_ms), "ms"),
        "op_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }, pct


def now() -> float:
    return time.perf_counter()


def timed_median(fn, repeats: int, clock: HostClock) -> tuple:
    """Run ``fn`` ``repeats`` times, sampling host speed around each.

    Returns (median nominal seconds, median host seconds, last return
    value).
    """
    spans = []
    result = None
    for _ in range(repeats):
        clock.sample()
        start = time.perf_counter()
        result = fn()
        spans.append((start, time.perf_counter()))
    clock.sample()
    nominal = [clock.scale(end - start, start, end) for start, end in spans]
    host = [end - start for start, end in spans]
    return statistics.median(nominal), statistics.median(host), result
