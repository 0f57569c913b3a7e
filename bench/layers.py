"""Per-layer tracing: timing and counting wrappers around public calls.

:class:`LayerTrace` replaces a fixed set of the program's functions and
methods with wrappers that count calls and accumulate their wall time,
then restores the originals.  Nothing inside the program changes; the
wrappers sit at the boundaries the benchmark names as layers:

* event kernel (``repro.sim``): ``BGPNetwork.run_until_quiet`` with an
  :class:`~repro.obs.profiling.EventLoopProfiler` attached, which splits
  loop time into handler time per category and the kernel remainder;
  ``Simulator.schedule``/``schedule_at`` and ``Timer.start`` counts;
* BGP speaker (``repro.bgp``): ``run_decision`` (patched under the name
  ``repro.bgp.speaker`` looks it up by), ``BGPSpeaker.export_route`` and
  every queue discipline's ``pop_batch``;
* topology: the skewed builder behind topology blocks;
* hashing and store: ``spec_hash`` (under each name it is imported as),
  ``topology_digest`` and ``ResultStore.get``/``has``/``put``;
* queue: ``enqueue``/``lease_tasks``/``record_ticket``, plus the
  enqueue-to-lease wait of every task;
* campaign: grid expansion (``_campaign_keys``, which the public
  ``campaign_keys`` and ``run_campaign`` both call) and the fold
  (``_fold``, which ``run_campaign`` and ``load_campaign_results`` call);
* service: ``plan_submission`` and ``ticket_results`` as the HTTP
  handler calls them, kept per ticket so the client can subtract them
  from its round trip;
* core: the wall time of every trial ``execute_trial`` runs.

All counters live in memory behind one lock (the daemon records from
its HTTP and executor threads at once) and are read once, at the end.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

perf = time.perf_counter


class LayerTrace:
    """In-memory spans (as count + total seconds) and counters."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.ticket_seconds: Dict[str, Dict[str, float]] = defaultdict(dict)
        self._enqueued_at: Dict[str, float] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        self.profiler = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, seconds: float) -> None:
        with self.lock:
            self.calls[name] += 1
            self.seconds[name] += seconds

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _timed(self, owner: Any, attr: str, name: str) -> Callable:
        original = getattr(owner, attr)
        trace = self

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return original(*args, **kwargs)
            finally:
                trace.span(name, perf() - start)

        self._patch(owner, attr, wrapper)
        return original

    def _counted(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        trace = self

        def wrapper(*args, **kwargs):
            with trace.lock:
                trace.counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self) -> "LayerTrace":
        from repro.bgp import queues, speaker
        from repro.bgp.network import BGPNetwork
        from repro.core import parallel
        from repro.obs.profiling import EventLoopProfiler
        from repro.sim.engine import Simulator
        from repro.sim.timers import Timer
        from repro.specs import topology as topology_specs
        from repro.store import campaign, hashing
        from repro.store.queue import QueueOps
        from repro.store.result_store import ResultStore

        self.profiler = EventLoopProfiler()
        self._install_kernel(BGPNetwork)
        self._counted(Simulator, "schedule", "sim.events_scheduled")
        self._counted(Simulator, "schedule_at", "sim.events_scheduled")
        self._counted(Timer, "start", "sim.timer_starts")

        self._timed(speaker, "run_decision", "bgp.decision")
        self._timed(speaker.BGPSpeaker, "export_route", "bgp.export")
        for cls in (
            queues.FIFOQueue,
            queues.DestinationBatchQueue,
            queues.TCPBatchQueue,
        ):
            self._install_pop(cls)

        self._timed(topology_specs, "skewed_topology", "topology.build")

        self._timed(hashing, "topology_digest", "store.topology_digest")
        spec_hash = self._timed(hashing, "spec_hash", "store.spec_hash")
        # Modules that bound the name at import time get the same wrapper.
        for module_name in ("repro.store.campaign", "repro.service.executor"):
            module = importlib.import_module(module_name)
            if getattr(module, "spec_hash", None) is spec_hash:
                self._patch(module, "spec_hash", hashing.spec_hash)
        self._timed(ResultStore, "get", "store.get")
        self._timed(ResultStore, "has", "store.has")
        self._timed(ResultStore, "put", "store.put")

        self._install_queue(QueueOps)

        self._timed(campaign, "_campaign_keys", "campaign.expand")
        self._timed(campaign, "_fold", "campaign.fold")

        self._install_trial_busy(parallel)
        self._install_service()
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _install_kernel(self, network_cls: Any) -> None:
        original = network_cls.run_until_quiet
        trace = self

        def run_until_quiet(network, *args, **kwargs):
            sim = network.sim
            if sim.on_event is None:
                trace.profiler.attach(sim)
            events0 = sim.events_executed
            counters0 = network.counters.snapshot()
            handler0 = trace.profiler.total_seconds
            start = perf()
            try:
                return original(network, *args, **kwargs)
            finally:
                wall = perf() - start
                handler = trace.profiler.total_seconds - handler0
                diff = network.counters.diff(counters0)
                with trace.lock:
                    trace.calls["sim.run"] += 1
                    trace.seconds["sim.run"] += wall
                    trace.seconds["sim.handlers"] += handler
                    trace.counts["sim.events"] += sim.events_executed - events0
                    for name in (
                        "updates_sent",
                        "updates_processed",
                        "updates_dropped_stale",
                        "route_changes",
                    ):
                        trace.counts["bgp." + name] += diff.get(name, 0)

        self._patch(network_cls, "run_until_quiet", run_until_quiet)

    def _install_pop(self, cls: Any) -> None:
        original = cls.pop_batch
        trace = self

        def pop_batch(queue):
            batch, dropped = original(queue)
            with trace.lock:
                trace.counts["bgp.queue_pops"] += 1
                trace.counts["bgp.batched_updates"] += len(batch)
            return batch, dropped

        self._patch(cls, "pop_batch", pop_batch)

    def _install_queue(self, ops_cls: Any) -> None:
        enqueue = ops_cls.enqueue
        lease = ops_cls.lease_tasks
        trace = self

        def enqueue_wrapper(store, key, payload, ticket=None):
            start = perf()
            try:
                task_id, created = enqueue(store, key, payload, ticket=ticket)
            finally:
                trace.span("queue.enqueue", perf() - start)
            if created:
                with trace.lock:
                    trace._enqueued_at[key] = time.monotonic()
            return task_id, created

        def lease_wrapper(store, *args, **kwargs):
            start = perf()
            try:
                tasks = lease(store, *args, **kwargs)
            finally:
                trace.span("queue.lease", perf() - start)
            leased_at = time.monotonic()
            with trace.lock:
                for task in tasks:
                    since = trace._enqueued_at.pop(task.key, None)
                    if since is not None:
                        trace.calls["queue.wait"] += 1
                        trace.seconds["queue.wait"] += leased_at - since
            return tasks

        self._patch(ops_cls, "enqueue", enqueue_wrapper)
        self._patch(ops_cls, "lease_tasks", lease_wrapper)
        self._timed(ops_cls, "record_ticket", "queue.record_ticket")

    def _install_trial_busy(self, parallel: Any) -> None:
        original = parallel.execute_trial
        trace = self

        def execute_trial(task):
            outcome = original(task)
            trial = outcome[1]
            trace.span(
                "core.trial", trial.warmup_wall + trial.convergence_wall
            )
            return outcome

        self._patch(parallel, "execute_trial", execute_trial)

    def _install_service(self) -> None:
        api = importlib.import_module("repro.service.api")
        plan = api.plan_submission
        fold = api.ticket_results
        trace = self

        def plan_submission(campaign, backend, ticket=None):
            start = perf()
            receipt = plan(campaign, backend, ticket=ticket)
            elapsed = perf() - start
            trace.span("service.plan", elapsed)
            with trace.lock:
                trace.ticket_seconds[receipt.ticket]["plan"] = elapsed
            return receipt

        def ticket_results(ticket, backend):
            start = perf()
            try:
                return fold(ticket, backend)
            finally:
                elapsed = perf() - start
                trace.span("service.fold", elapsed)
                with trace.lock:
                    trace.ticket_seconds[ticket]["fold"] = elapsed

        self._patch(api, "plan_submission", plan_submission)
        self._patch(api, "ticket_results", ticket_results)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Everything recorded so far, as plain JSON-ready data."""
        with self.lock:
            categories = {}
            if self.profiler is not None:
                for row in self.profiler.report():
                    categories[row.category] = [
                        row.events,
                        row.total_seconds,
                    ]
            return {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "counts": dict(self.counts),
                "handlers": categories,
                "tickets": {k: dict(v) for k, v in self.ticket_seconds.items()},
            }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Handler categories (callback qualified names) the BGP metrics read.
BATCH = "BGPSpeaker._complete_batch"
DELIVER = "BGPNetwork._deliver"
TIMER = "Timer._fire"


def layer_metrics(
    snap: Dict[str, Any], extra: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload does not use a layer.

    ``extra`` carries what only the workload knows: pool statistics,
    trial busy time and wall of a pooled phase, HTTP round trips, status
    polls.
    """
    calls, secs, counts = snap["calls"], snap["seconds"], snap["counts"]
    handlers = snap["handlers"]

    def mean_ms(name: str) -> float:
        return 1e3 * _ratio(secs.get(name, 0.0), calls.get(name, 0))

    def handler(category: str) -> Tuple[int, float]:
        events, seconds = handlers.get(category, (0, 0.0))
        return int(events), float(seconds)

    events = counts.get("sim.events", 0.0)
    scheduled = counts.get("sim.events_scheduled", 0.0)
    loop_s = secs.get("sim.run", 0.0)
    handler_s = secs.get("sim.handlers", 0.0)
    batch_events, batch_s = handler(BATCH)
    processed = counts.get("bgp.updates_processed", 0.0)
    out = {
        "sim.events": events,
        "sim.events_scheduled": scheduled,
        "sim.timer_starts": counts.get("sim.timer_starts", 0.0),
        "sim.useful_event_ratio": _ratio(events, scheduled),
        "sim.kernel_ns_per_event": 1e9 * _ratio(loop_s - handler_s, events),
        "bgp.handler_us_per_event": 1e6 * _ratio(handler_s, events),
        "bgp.batch_s": batch_s,
        "bgp.batch_us_mean": 1e6 * _ratio(batch_s, batch_events),
        "bgp.deliver_s": handler(DELIVER)[1],
        "bgp.mrai_expiry_s": handler(TIMER)[1],
        "bgp.decision_calls": float(calls.get("bgp.decision", 0)),
        "bgp.decision_s": secs.get("bgp.decision", 0.0),
        "bgp.export_calls": float(calls.get("bgp.export", 0)),
        "bgp.export_s": secs.get("bgp.export", 0.0),
        "bgp.queue_pops": counts.get("bgp.queue_pops", 0.0),
        "bgp.updates_per_batch": _ratio(
            counts.get("bgp.batched_updates", 0.0),
            counts.get("bgp.queue_pops", 0.0),
        ),
        "bgp.messages_sent": counts.get("bgp.updates_sent", 0.0),
        "bgp.updates_processed": processed,
        "bgp.stale_dropped": counts.get("bgp.updates_dropped_stale", 0.0),
        "bgp.route_changes": counts.get("bgp.route_changes", 0.0),
        "bgp.route_change_ratio": _ratio(
            counts.get("bgp.route_changes", 0.0), processed
        ),
        "topology.builds": float(calls.get("topology.build", 0)),
        "topology.build_ms": mean_ms("topology.build"),
        "store.spec_hashes": float(calls.get("store.spec_hash", 0)),
        "store.spec_hash_ms": mean_ms("store.spec_hash"),
        "store.topology_digests": float(
            calls.get("store.topology_digest", 0)
        ),
        "store.get_ms": mean_ms("store.get"),
        "store.has_ms": mean_ms("store.has"),
        "store.put_ms": mean_ms("store.put"),
        "store.gets": float(calls.get("store.get", 0)),
        "store.puts": float(calls.get("store.put", 0)),
        "queue.enqueue_ms": mean_ms("queue.enqueue"),
        "queue.lease_ms": mean_ms("queue.lease"),
        "queue.record_ticket_ms": mean_ms("queue.record_ticket"),
        "queue.wait_s": _ratio(
            secs.get("queue.wait", 0.0), calls.get("queue.wait", 0)
        ),
        "campaign.expand_ms": mean_ms("campaign.expand"),
        "campaign.fold_ms": mean_ms("campaign.fold"),
        "service.plan_ms": mean_ms("service.plan"),
        "service.fold_ms": mean_ms("service.fold"),
    }
    busy = extra.get("core.trial_busy_s", secs.get("core.trial", 0.0))
    out["core.trial_busy_s"] = busy
    pooled_wall = extra.get("pool.wall_s", 0.0)
    jobs = extra.get("pool.jobs", 0.0)
    out["pool.idle_ratio"] = (
        1.0 - _ratio(extra.get("pool.busy_s", 0.0), pooled_wall * jobs)
        if pooled_wall and jobs
        else 0.0
    )
    for name in (
        "pool.topology_cache_hit_rate",
        "pool.shipped_topologies",
        "pool.chunks",
        "service.http_ms",
        "service.status_polls_per_cold",
    ):
        out[name] = float(extra.get(name, 0.0))
    return out


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_mean") or name.endswith("_us_per_event"):
        return "us"
    if name.endswith("_ns_per_event"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_rate"):
        return "ratio"
    if name.endswith("per_batch"):
        return "updates/batch"
    if name.endswith("per_cold"):
        return "polls/ticket"
    return "count"


def traced_metrics(
    snap: Dict[str, Any], extra: Dict[str, float]
) -> Dict[str, Dict[str, Any]]:
    """:func:`layer_metrics` with units, ready for the result line."""
    return {
        name: {"value": float(value), "unit": layer_unit(name)}
        for name, value in layer_metrics(snap, extra).items()
    }
