"""Workload ``campaign-schemes``: a cold campaign at jobs 2, then warm reruns.

The grid holds the paper's two contributions, dynamic MRAI and
per-destination batching (``dest_batch``), and both combined, over two
failure fractions and several topology seeds.

* Cold phase: ``run_campaign`` at jobs 2 on a fresh store.  It stresses
  the batching queue, the dynamic-MRAI controller, pool IPC with
  topology-cache affinity and ``store.put``.
* Warm phase: the same grid again, 100% cached, until ``--seconds`` have
  passed.  No simulation runs: it is grid expansion, hashing,
  ``store.get`` and the fold.

Checks, outside the timed region: every point's mean delay and message
count recomputed from the raw store rows; the cold fold, every warm fold
and a serial ``run_trials`` of one seeded point agree bit for bit; one
trial of that point is re-run apart from ``run_experiment`` and its
routes checked against BFS.  In traced runs the event-kernel and BGP
metrics come from that serial point, because the cold phase simulates
in pool worker processes the wrappers do not reach.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from common import (
    HostClock,
    Outcome,
    WorkDir,
    child_pids,
    derive_seeds,
    digest,
    end_to_end,
    median,
    now,
    peak_rss_mb,
    count_trial,
    stream_rng,
    trial_record,
)

DYNAMIC = {"mrai_scheme": "dynamic", "levels": [0.5, 1.25, 2.25]}
SCHEMES = {
    "dynamic": dict(DYNAMIC),
    "dest_batch": {"mrai": 0.5, "queue": "dest_batch"},
    "dynamic+dest_batch": dict(DYNAMIC, queue="dest_batch"),
}
#: name -> (nodes, seeds, failure fractions)
SCALES = {
    "full": (60, 6, (0.10, 0.20)),
    "smoke": (20, 2, (0.10, 0.20)),
}
JOBS = 2
#: A run holds 80 to 401 warm reruns: p85 keeps ten beyond it.
TAIL_PERCENTILE = 85
SETUP_REPEATS = 25
MIN_WARM_RERUNS = 5
#: Seconds between host-speed samples during the warm reruns.
SAMPLE_INTERVAL = 0.5


def campaign_doc(seed: int, scale: str) -> Dict[str, Any]:
    nodes, count, fractions = SCALES[scale]
    return {
        "name": f"bench-campaign-{seed}",
        "topology": {"kind": "skewed", "nodes": nodes, "distribution": "70-30"},
        "schemes": {k: dict(v) for k, v in SCHEMES.items()},
        "axis": {"name": "failure_fraction", "values": list(fractions)},
        "seeds": derive_seeds(seed, "campaign-schemes/trial", count),
    }


def _setup(work: WorkDir, attempt: int, doc: Dict[str, Any]):
    """Fresh store, freshly prewarmed pool, parsed campaign."""
    from repro.core.parallel import get_worker_pool, shutdown_worker_pool
    from repro.store.campaign import Campaign
    from repro.store.result_store import ResultStore

    shutdown_worker_pool()
    start = now()
    store = ResultStore(str(work.path / f"campaign-{attempt}.db"))
    get_worker_pool().prewarm(JOBS)
    campaign = Campaign.from_dict(doc)
    return now() - start, store, campaign


def _same_fold(a: Any, b: Any) -> bool:
    """Two CampaignResults fold to bitwise-identical points."""
    if a.results.keys() != b.results.keys():
        return False
    for key, left in a.results.items():
        right = b.results[key]
        if left.trials != right.trials:
            return False
        if left.mean_delay != right.mean_delay:
            return False
        if left.mean_messages != right.mean_messages:
            return False
    return True


def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> Outcome:
    from repro.core.parallel import pool_stats, shutdown_worker_pool
    from repro.store.campaign import campaign_keys, run_campaign

    out = Outcome()
    work = WorkDir("campaign")
    doc = campaign_doc(seed, scale)
    stores = []
    clock = HostClock()
    try:
        setups = []
        for attempt in range(SETUP_REPEATS):
            clock.sample()
            t0 = now()
            elapsed, store, campaign = _setup(work, attempt, doc)
            setups.append((elapsed, t0, t0 + elapsed))
            stores.append(store)
        store = stores[-1]
        total = campaign.total_trials

        layer = None
        if trace:
            from layers import LayerTrace

            layer = LayerTrace().install()
        pool0 = pool_stats()
        start = now()
        try:
            cold = run_campaign(campaign, store, jobs=JOBS)
            cold_end = now()
            pool1 = pool_stats()
            warm_spans: List[tuple] = []
            warm_results = []
            while (
                now() - start < seconds or len(warm_spans) < MIN_WARM_RERUNS
            ):
                clock.sample_every(SAMPLE_INTERVAL)
                t0 = now()
                warm = run_campaign(campaign, store, jobs=JOBS)
                warm_spans.append((t0, now()))
                warm_results.append(warm)
        finally:
            clock.sample()
            if layer is not None:
                layer.uninstall()
        cold_wall = cold_end - start
        warm_ms = [1e3 * clock.scale(t1 - t0, t0, t1) for t0, t1 in warm_spans]
        setup_s = median([clock.scale(*span) for span in setups])
        rss = peak_rss_mb(child_pids(os.getpid()))

        # -- accounting ------------------------------------------------
        # Grid order (scheme, failure fraction, seed), as the fold uses.
        ordered = [
            trial for point in cold.results.values() for trial in point.trials
        ]
        for trial in ordered:
            count_trial(out.tally, trial, "cold")
        out.checks.expect(
            cold.executed == total and cold.cache_hits == 0,
            f"cold phase executed {cold.executed}/{total} "
            f"with {cold.cache_hits} cache hits",
        )
        for warm in warm_results:
            good = (
                warm.cache_hits == total
                and warm.executed == 0
                and _same_fold(cold, warm)
            )
            if good:
                out.tally.ok(total)
            else:
                out.tally.fail("warm rerun did not reproduce the cold fold", total)

        # -- fold recomputation from raw store rows --------------------
        from checks import point_problems

        rows: Dict[Any, List[Any]] = {}
        for task, key, _topology in campaign_keys(campaign):
            rows.setdefault((task.label, task.x), []).append(store.get(key))
        for series in cold.series:
            for point in series.points:
                problem = point_problems(
                    series.label,
                    point.x,
                    rows[(series.label, point.x)],
                    point.delay,
                    point.messages,
                )
                out.checks.expect(problem is None, problem or "")

        # -- serial run_trials over a seeded point ---------------------
        from repro.core.experiment import run_trials

        rng = stream_rng(seed, "campaign-schemes/check")
        label = rng.choice(sorted(campaign.schemes))
        x = rng.choice(campaign.values)
        spec = campaign.point_spec(label, x)
        factory = campaign.topology_factory()
        sample_layer = None
        if trace:
            sample_layer = LayerTrace().install()
        try:
            serial = run_trials(factory, spec, campaign.seeds, jobs=1, store=None)
        finally:
            if sample_layer is not None:
                sample_layer.uninstall()
        pooled = cold.results[(label, x)]
        out.checks.expect(
            serial.trials == pooled.trials
            and serial.mean_delay == pooled.mean_delay
            and serial.mean_messages == pooled.mean_messages,
            f"{label}@{x:g}: serial run_trials differs from the jobs-2 fold",
        )
        from checks import rerun_and_check_routes

        index = rng.randrange(len(campaign.seeds))
        trial_seed = campaign.seeds[index]
        for problem in rerun_and_check_routes(
            factory(trial_seed), spec, trial_seed, pooled.trials[index]
        )[:5]:
            out.checks.expect(False, f"{label}@{x:g}: {problem}")

        # -- report ----------------------------------------------------
        out_events = sum(t.events_executed for t in ordered)
        out.work = {
            "trials": total,
            "events": out_events,
            "messages": sum(t.messages_sent for t in ordered),
            "updates_processed": sum(t.updates_processed for t in ordered),
            "warm_reruns": len(warm_ms),
            # Not gated: too unsteady on this host (see README.md).
            "host_cold_trials_per_s": total / cold_wall,
            "host_cold_events_per_s": out_events / cold_wall,
            "host_warm_campaign_ms": median(
                [1e3 * (t1 - t0) for t0, t1 in warm_spans]
            ),
            "host_setup_s": median([span[0] for span in setups]),
            "host_ref_ops_per_s": clock.median_speed(),
            "store_puts": total,
            "store_gets_per_warm_rerun": total,
            "http_requests": 0,
            "digest": digest(trial_record(t) for t in ordered),
        }
        busy = sum(t.warmup_wall + t.convergence_wall for t in ordered)
        metrics, out.work["op_tail_percentile"] = end_to_end(
            setup_s, warm_ms, TAIL_PERCENTILE, rss
        )
        if trace:
            from layers import traced_metrics

            hits = pool1["cache_hits"] - pool0["cache_hits"]
            misses = pool1["cache_misses"] - pool0["cache_misses"]
            extra = {
                "core.trial_busy_s": busy,
                "pool.busy_s": busy,
                "pool.wall_s": cold_wall,
                "pool.jobs": JOBS,
                "pool.topology_cache_hit_rate": (
                    hits / (hits + misses) if hits + misses else 0.0
                ),
                "pool.shipped_topologies": pool1["shipped_topologies"]
                - pool0["shipped_topologies"],
                "pool.chunks": pool1["chunks"] - pool0["chunks"],
            }
            traced = traced_metrics(layer.snapshot(), extra)
            sample = traced_metrics(sample_layer.snapshot(), {})
            for name, value in sample.items():
                if name.startswith(("sim.", "bgp.")):
                    traced[name] = value
            out.metrics = traced
            out.work["end_to_end_traced"] = metrics
        else:
            out.metrics = metrics
        return out
    finally:
        shutdown_worker_pool()
        for store in stores:
            store.close()
        work.cleanup()
