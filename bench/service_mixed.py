"""Workload ``service-mixed``: warm and cold clients against one daemon.

Set-up pre-banks a corpus (three schemes x one failure fraction x six
seeds of small skewed topologies) into a fresh store, then boots
``python -m repro.cli serve --jobs 2`` on it as its own process.  Two
client threads then run a closed loop for ``--seconds``:

* the warm client submits grids of mixed sizes cut from the corpus (a
  single spec, two seeds, one scheme, the whole 18-trial grid), each
  fully cached, and fetches ``/result``;
* the cold client submits one grid at a time of one fresh seed, polls
  ``/status`` until it is banked and fetches ``/result``.

Warm reads and cold writes share the daemon process, its queue and its
store file, so a change that speeds one at the cost of the other shows.
The daemon runs two pool workers rather than simulating on its executor
thread (``--jobs 1``): there the simulation holds the interpreter lock
the HTTP handlers need, and the warm median swung between 70 and 254 ms
from run to run, too wide for any bound.

Checks, outside the timed region: every result point's means are
recomputed from the raw trials served by ``/trial/<key>``; points that
cover a whole corpus cell must equal the pre-banking fold bit for bit;
one seeded cold ticket is re-run through a serial ``run_trials`` and
must match the banked trials and ``/result`` bit for bit, and one of
its trials is re-run apart from ``run_experiment`` for the BFS route
check.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    NOMINAL_REF_OPS,
    HostClock,
    Outcome,
    WorkDir,
    child_env,
    child_pids,
    derive_seeds,
    digest,
    end_to_end,
    median,
    now,
    peak_rss_mb,
    stream_rng,
    count_trial,
    trial_record,
)

DYNAMIC = {"mrai_scheme": "dynamic", "levels": [0.5, 1.25, 2.25]}
SCHEMES = {
    "dynamic": dict(DYNAMIC),
    "dest_batch": {"mrai": 0.5, "queue": "dest_batch"},
    "dynamic+dest_batch": dict(DYNAMIC, queue="dest_batch"),
}
FRACTION = 0.20
#: name -> (nodes, corpus seeds)
SCALES = {
    "full": (30, 6),
    "smoke": (16, 2),
}
#: A run holds 370 to 1,320 warm round trips: p95 keeps ten beyond it.
TAIL_PERCENTILE = 95
#: Host-speed samples taken right before the clients start and again
#: right after they stop, while the daemon is idle (see README.md).
SPEED_SAMPLES = 10
SETUP_REPEATS = 3
PREBANK_JOBS = 2
#: Pool workers of the daemon: its cold trials simulate in worker
#: processes, not on the thread that shares the interpreter lock with
#: the HTTP handlers (see README.md).
DAEMON_JOBS = 2
#: Seconds between the cold client's /status polls.
POLL_SECONDS = 0.05
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def corpus_doc(seed: int, scale: str) -> Dict[str, Any]:
    nodes, count = SCALES[scale]
    return {
        "name": f"bench-corpus-{seed}",
        "topology": {"kind": "skewed", "nodes": nodes, "distribution": "70-30"},
        "schemes": {k: dict(v) for k, v in SCHEMES.items()},
        "axis": {"name": "failure_fraction", "values": [FRACTION]},
        "seeds": derive_seeds(seed, "service-mixed/corpus", count),
    }


def warm_grids(seed: int, corpus: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One cycle of warm submissions: sizes 1, 2, 6, 6, 6 and 18 trials.

    The sizes are the same for every seed: a single spec, one scheme on
    two corpus seeds, one scheme on all six (three times) and the whole
    three-scheme corpus.  Which cells they cut and their order come from
    the seed.  Half of the cycle is 6-trial grids, so the median falls
    inside one size class instead of in the gap between two.
    """
    rng = stream_rng(seed, "service-mixed/warm")
    labels = sorted(corpus["schemes"])
    seeds = corpus["seeds"]
    label = rng.choice(labels)
    grids = [
        {
            "name": "warm-spec",
            "topology": corpus["topology"],
            "scheme": dict(corpus["schemes"][label], failure_fraction=FRACTION),
            "seed": rng.choice(seeds),
        }
    ]
    for subset in (sorted(rng.sample(seeds, 2), key=seeds.index), *[seeds] * 3):
        label = rng.choice(labels)
        grids.append(
            {
                "name": "warm-grid",
                "topology": corpus["topology"],
                "schemes": {label: corpus["schemes"][label]},
                "axis": {"name": "failure_fraction", "values": [FRACTION]},
                "seeds": list(subset),
            }
        )
    grids.append(dict(corpus, name="warm-corpus"))
    rng.shuffle(grids)
    return grids


def cold_grid(
    corpus: Dict[str, Any], label: str, seeds: List[int]
) -> Dict[str, Any]:
    return {
        "name": "cold-grid",
        "topology": corpus["topology"],
        "schemes": {label: corpus["schemes"][label]},
        "axis": {"name": "failure_fraction", "values": [FRACTION]},
        "seeds": list(seeds),
    }


# ---------------------------------------------------------------------------
# Daemon
# ---------------------------------------------------------------------------
class Daemon:
    """One ``serve`` process on a store, found through its ready file."""

    def __init__(self, store: str, workdir, tag: str, trace: bool) -> None:
        self.ready = workdir / f"ready-{tag}.json"
        self.trace_out = workdir / f"trace-{tag}.json"
        serve = [
            "--store", store, "--port", "0", "--jobs", str(DAEMON_JOBS),
            "--ready-file", str(self.ready), "--quiet",
        ]
        if trace:
            cmd = [
                sys.executable, str(BENCH_DIR / "daemon_launcher.py"),
                "--trace-out", str(self.trace_out), "--", *serve,
            ]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *serve]
        self.log = open(workdir / f"daemon-{tag}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdout=self.log, stderr=subprocess.STDOUT
        )
        try:
            info = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.url = f"http://{info['host']}:{info['port']}"

    def _wait_ready(self) -> Dict[str, Any]:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not boot; see {self.log.name}")
            time.sleep(0.01)
            try:
                return json.loads(self.ready.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                # Not there yet, or seen half-written: the daemon writes
                # the file in place, not by rename.
                continue

    def snapshot(self) -> Dict[str, Any]:
        """Ask a traced daemon for its layer counters (SIGUSR1)."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not self.trace_out.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced daemon wrote no snapshot")
            time.sleep(0.01)
        return json.loads(self.trace_out.read_text(encoding="utf-8"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(STOP_TIMEOUT)
        self.log.close()


def _setup(work, attempt: int, doc: Dict[str, Any], trace: bool):
    """Pre-bank the corpus into a fresh store and boot a daemon on it."""
    from repro.core.parallel import shutdown_worker_pool
    from repro.store.campaign import Campaign, run_campaign
    from repro.store.result_store import ResultStore

    start = now()
    path = str(work.path / f"service-{attempt}.db")
    with ResultStore(path) as store:
        banked = run_campaign(Campaign.from_dict(doc), store, jobs=PREBANK_JOBS)
    shutdown_worker_pool()
    daemon = Daemon(path, work.path, str(attempt), trace)
    return now() - start, daemon, banked


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------
class Clients:
    """The two closed-loop client threads and everything they record."""

    def __init__(self, url: str, out: Outcome, seed: int,
                 corpus: Dict[str, Any], deadline: float) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(url, timeout=60.0)
        self.out = out
        self.corpus = corpus
        self.deadline = deadline
        self.warm_cycle = warm_grids(seed, corpus)
        #: (start, end, ticket, grid, result) of every good warm request.
        self.warm: List[Tuple[float, float, str, Dict[str, Any], Dict[str, Any]]] = []
        self.cold: List[Dict[str, Any]] = []
        self.http_requests = 0
        self._lock = threading.Lock()
        taken = set(corpus["seeds"])
        self.fresh = [
            s for s in derive_seeds(seed, "service-mixed/cold", 4000)
            if s not in taken
        ]
        self.cold_labels = sorted(corpus["schemes"])

    def request(self, fn, *args) -> Optional[Dict[str, Any]]:
        """One HTTP call; a non-2xx status or client error counts failed."""
        from repro.service.client import ServiceError

        with self._lock:
            self.http_requests += 1
        try:
            answer = fn(*args)
        except ServiceError as exc:
            self.out.tally.fail(f"HTTP {exc.status}: {exc.message}")
            return None
        self.out.tally.ok()
        return answer

    def warm_loop(self) -> None:
        while now() < self.deadline:
            for doc in self.warm_cycle:
                t0 = now()
                receipt = self.request(self.client.submit, doc)
                if receipt is None:
                    continue
                result = self.request(self.client.result, receipt["ticket"])
                t1 = now()
                if result is None:
                    continue
                if receipt["cached"] != receipt["total"]:
                    self.out.tally.fail(
                        f"warm ticket {receipt['ticket']} not fully cached"
                    )
                    continue
                self.out.tally.ok()
                self.warm.append((t0, t1, receipt["ticket"], doc, result))

    def cold_loop(self) -> None:
        """One fresh-seed ticket at a time, schemes in turn.

        A single ticket of a single trial keeps at most one of the
        daemon's two pool workers simulating, so the warm requests keep
        a core: with two two-trial tickets in flight both workers
        simulated and the warm median spread 0.20 over five seeds
        against 0.03 this way.
        """
        for index, fresh in enumerate(self.fresh):
            if now() >= self.deadline:
                return
            label = self.cold_labels[index % len(self.cold_labels)]
            doc = cold_grid(self.corpus, label, [fresh])
            t0 = now()
            receipt = self.request(self.client.submit, doc)
            if receipt is None:
                continue
            polls = 0
            state = "pending"
            while state not in ("done", "failed"):
                time.sleep(POLL_SECONDS)
                status = self.request(self.client.status, receipt["ticket"])
                polls += 1
                if status is None:
                    break
                state = status["state"]
            if state != "done":
                self.out.tally.fail(f"cold ticket {receipt['ticket']}: {state}")
                continue
            result = self.request(self.client.result, receipt["ticket"])
            t1 = now()
            if result is None:
                continue
            self.out.tally.ok()
            self.cold.append(
                {
                    "span": (t0, t1),
                    "polls": polls,
                    "doc": doc,
                    "receipt": receipt,
                    "result": result,
                }
            )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def _points(result: Dict[str, Any]) -> Dict[Tuple[str, float], Dict[str, Any]]:
    return {
        (series["label"], point["x"]): point
        for series in result["series"]
        for point in series["points"]
    }


def _grid_cells(doc: Dict[str, Any]) -> List[Tuple[str, str, float, List[int]]]:
    """(result label, corpus label, x, seeds) of every point of a grid."""
    if "scheme" in doc:
        scheme = dict(doc["scheme"])
        x = scheme.pop("failure_fraction")
        label = next(k for k, v in SCHEMES.items() if v == scheme)
        return [("spec", label, x, [doc["seed"]])]
    return [
        (label, label, x, list(doc["seeds"]))
        for label in doc["schemes"]
        for x in doc["axis"]["values"]
    ]


def check_warm(out: Outcome, clients: Clients, banked: Any) -> None:
    """Warm results against the pre-banking fold (checked once per grid)."""
    from checks import point_problems

    corpus_seeds = clients.corpus["seeds"]
    by_seed = {
        (label, x): dict(zip(corpus_seeds, point.trials))
        for (label, x), point in banked.results.items()
    }
    seen = set()
    for _t0, _t1, _ticket, doc, result in clients.warm:
        key = json.dumps(doc, sort_keys=True) + json.dumps(result, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        points = _points(result)
        for shown, label, x, seeds in _grid_cells(doc):
            point = points.get((shown, x))
            if not out.checks.expect(point is not None,
                                     f"warm result lacks {shown}@{x:g}"):
                continue
            trials = [by_seed[(label, x)][s] for s in seeds]
            problem = point_problems(label, x, trials, point["delay"],
                                     point["messages"])
            out.checks.expect(problem is None, f"warm: {problem}")
            if seeds == corpus_seeds:
                whole = banked.results[(label, x)]
                out.checks.expect(
                    point["delay"] == whole.mean_delay
                    and point["messages"] == whole.mean_messages,
                    f"warm {label}@{x:g}: not bitwise equal to the "
                    f"pre-banking fold",
                )


def check_cold(
    out: Outcome, clients: Clients, seed: int, trace: bool = False
) -> Tuple[List[Any], Optional[Dict[str, Any]]]:
    """Raw /trial rows against /result, and a serial re-run of a sample.

    Returns the banked trials and, when ``trace`` is set, the layer
    snapshot of the serial re-run (the daemon simulates in pool workers
    the wrappers do not reach, so the event-kernel and BGP metrics come
    from it).
    """
    from checks import point_problems, rerun_and_check_routes
    from repro.core.experiment import run_trials
    from repro.store.campaign import Campaign
    from repro.store.result_store import trial_from_dict

    banked_trials = []
    rows_by_ticket = []
    for entry in clients.cold:
        rows = []
        for key in entry["receipt"]["keys"]:
            answer = clients.request(clients.client.trial, key)
            if answer is None:
                rows.append(None)
                continue
            trial = trial_from_dict(answer["trial"])
            count_trial(out.tally, trial, "cold")
            rows.append(trial)
        rows_by_ticket.append(rows)
        if any(row is None for row in rows):
            continue
        banked_trials.extend(rows)
        label = next(iter(entry["doc"]["schemes"]))
        x = entry["doc"]["axis"]["values"][0]
        point = _points(entry["result"]).get((label, x))
        if out.checks.expect(point is not None, f"cold result lacks {label}"):
            problem = point_problems(label, x, rows, point["delay"],
                                     point["messages"])
            out.checks.expect(problem is None, f"cold: {problem}")

    if not clients.cold:
        return banked_trials, None
    rng = stream_rng(seed, "service-mixed/check")
    pick = rng.randrange(len(clients.cold))
    entry = clients.cold[pick]
    rows = rows_by_ticket[pick]
    if any(row is None for row in rows):
        return banked_trials, None
    campaign = Campaign.from_dict(entry["doc"])
    label = next(iter(campaign.schemes))
    x = campaign.values[0]
    spec = campaign.point_spec(label, x)
    factory = campaign.topology_factory()
    layer = None
    if trace:
        from layers import LayerTrace

        layer = LayerTrace().install()
    try:
        serial = run_trials(factory, spec, campaign.seeds, jobs=1, store=None)
    finally:
        if layer is not None:
            layer.uninstall()
    point = _points(entry["result"])[(label, x)]
    out.checks.expect(
        serial.trials == rows
        and serial.mean_delay == point["delay"]
        and serial.mean_messages == point["messages"],
        f"cold {label}: serial run_trials differs from the service",
    )
    index = rng.randrange(len(campaign.seeds))
    trial_seed = campaign.seeds[index]
    for problem in rerun_and_check_routes(
        factory(trial_seed), spec, trial_seed, rows[index]
    )[:5]:
        out.checks.expect(False, f"cold {label}: {problem}")
    return banked_trials, None if layer is None else layer.snapshot()


# ---------------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> Outcome:
    out = Outcome()
    work = WorkDir("service")
    doc = corpus_doc(seed, scale)
    daemons: List[Daemon] = []
    try:
        setups = []
        for attempt in range(SETUP_REPEATS):
            if daemons:
                daemons[-1].stop()
            elapsed, daemon, banked = _setup(work, attempt, doc, trace)
            setups.append(elapsed)
            daemons.append(daemon)
        daemon = daemons[-1]

        clock = HostClock()
        for _ in range(SPEED_SAMPLES):
            clock.sample()
        start = now()
        clients = Clients(daemon.url, out, seed, doc, start + seconds)
        threads = [
            threading.Thread(target=clients.warm_loop, name="bench-warm"),
            threading.Thread(target=clients.cold_loop, name="bench-cold"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 120.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        measured_requests = clients.http_requests
        for _ in range(SPEED_SAMPLES):
            clock.sample()
        daemon_snapshot = daemon.snapshot() if trace else None
        rss = peak_rss_mb([daemon.proc.pid, *child_pids(daemon.proc.pid)])

        check_warm(out, clients, banked)
        cold_trials, sample = check_cold(out, clients, seed, trace)

        host_ms = [1e3 * (t1 - t0) for t0, t1, *_rest in clients.warm]
        scale = clock.median_speed() / NOMINAL_REF_OPS
        warm_ms = [ms * scale for ms in host_ms]
        cold_rtts = [e["span"][1] - e["span"][0] for e in clients.cold]
        metrics, pct = end_to_end(
            median(setups) * scale, warm_ms, TAIL_PERCENTILE, rss
        )
        corpus_trials = [
            trial
            for label in doc["schemes"]
            for x in [FRACTION]
            for trial in banked.results[(label, x)].trials
        ]
        out.work = {
            "corpus_trials": len(corpus_trials),
            "corpus_events": sum(t.events_executed for t in corpus_trials),
            "corpus_messages": sum(t.messages_sent for t in corpus_trials),
            "corpus_digest": digest(trial_record(t) for t in corpus_trials),
            "warm_cycle_trials": [
                sum(len(cell[3]) for cell in _grid_cells(d))
                for d in clients.warm_cycle
            ],
            "warm_samples": len(warm_ms),
            "op_tail_percentile": pct,
            "cold_tickets": len(clients.cold),
            # Not gated: no other workload has a cold request to match it
            # (see README.md).
            "host_cold_rtt_p50_s": median(cold_rtts),
            "host_warm_p50_ms": median(host_ms),
            "host_setup_s": median(setups),
            "host_ref_ops_per_s": clock.median_speed(),
            "cold_trials": len(cold_trials),
            "cold_events": sum(t.events_executed for t in cold_trials),
            "http_requests": measured_requests,
        }
        if trace:
            from layers import traced_metrics

            snap = daemon_snapshot
            spent = []
            for t0, t1, ticket, _doc, _result in clients.warm:
                times = snap["tickets"].get(ticket, {})
                spent.append(
                    t1 - t0 - times.get("plan", 0.0) - times.get("fold", 0.0)
                )
            extra = {
                # Cold trials simulate in the daemon's pool workers, out of
                # the wrappers' reach; their busy time is in the banked rows.
                "core.trial_busy_s": sum(
                    t.warmup_wall + t.convergence_wall for t in cold_trials
                ),
                "service.http_ms": 1e3 * sum(spent) / len(spent) if spent else 0.0,
                "service.status_polls_per_cold": (
                    sum(e["polls"] for e in clients.cold) / len(clients.cold)
                    if clients.cold else 0.0
                ),
            }
            traced = traced_metrics(snap, extra)
            if sample is not None:
                for name, value in traced_metrics(sample, {}).items():
                    if name.startswith(("sim.", "bgp.")):
                        traced[name] = value
            out.metrics = traced
            out.work["end_to_end_traced"] = metrics
        else:
            out.metrics = metrics
        return out
    finally:
        for daemon in daemons:
            daemon.stop()
        work.cleanup()
