"""Workload ``sweep-fifo``: serial in-process trials, FIFO queue, 0.5 s MRAI.

The paper's slowest-converging cell (constant MRAI at the left arm of
the V-curve, FIFO update queue) under geographic failures of 10% and
20%.  ``run_trials`` runs with jobs 1, no store and observers off, so
the event kernel, the decision process, export and the MRAI timers do
nearly all the work; pool, store and HTTP do none.

A round is every (topology, failure fraction) trial of the input set,
run once each.  A run repeats whole rounds until ``--seconds`` have
passed; every repeat of a trial must reproduce its first result.
"""

from __future__ import annotations

from typing import Any, Dict, List

from common import (
    HostClock,
    Outcome,
    derive_seeds,
    digest,
    end_to_end,
    now,
    peak_rss_mb,
    stream_rng,
    count_trial,
    timed_median,
    trial_record,
)

#: name -> (nodes, topologies per round, failure fractions)
SCALES = {
    "full": (50, 2, (0.10, 0.20)),
    "smoke": (20, 1, (0.10, 0.20)),
}
#: A run holds 40 to 116 trials, one sample each: p75 keeps ten beyond it.
TAIL_PERCENTILE = 75
SETUP_REPEATS = 5


def make_inputs(seed: int, scale: str) -> Dict[str, Any]:
    nodes, count, fractions = SCALES[scale]
    return {
        "topology": {"kind": "skewed", "nodes": nodes, "distribution": "70-30"},
        "topology_seeds": derive_seeds(seed, "sweep-fifo/topology", count),
        "trial_seeds": derive_seeds(seed, "sweep-fifo/trial", count),
        "fractions": list(fractions),
    }


def build_items(inputs: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Set-up: build every topology and spec of one round."""
    from repro.specs.serialize import build_spec
    from repro.specs.topology import topology_factory

    factory = topology_factory(inputs["topology"])
    items = []
    for topo_seed, trial_seed in zip(
        inputs["topology_seeds"], inputs["trial_seeds"]
    ):
        topology = factory(topo_seed)
        for fraction in inputs["fractions"]:
            spec = build_spec({"mrai": 0.5, "failure_fraction": fraction})
            items.append(
                {
                    "topology": topology,
                    "spec": spec,
                    "seed": trial_seed,
                    "label": f"topo{topo_seed}/f{fraction:g}",
                }
            )
    return items


def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> Outcome:
    from repro.core.experiment import run_trials

    out = Outcome()
    inputs = make_inputs(seed, scale)
    clock = HostClock()
    setup_s, setup_host_s, items = timed_median(
        lambda: build_items(inputs), SETUP_REPEATS, clock
    )

    layer = None
    if trace:
        from layers import LayerTrace

        layer = LayerTrace().install()

    first: Dict[int, Any] = {}
    timed: List[tuple] = []  # (events, start, end) of every good trial
    busy = 0.0
    rounds = 0
    start = now()
    try:
        while True:
            for index, item in enumerate(items):
                clock.sample()
                t0 = now()
                try:
                    result = run_trials(
                        lambda _seed, topo=item["topology"]: topo,
                        item["spec"],
                        [item["seed"]],
                        jobs=1,
                        store=None,
                    )
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    out.tally.fail(f"{item['label']}: {exc!r}")
                    continue
                t1 = now()
                trial = result.trials[0]
                if not count_trial(out.tally, trial, item["label"]):
                    continue
                timed.append((trial.events_executed, t0, t1))
                busy += trial.warmup_wall + trial.convergence_wall
                out.checks.expect(
                    result.n == 1
                    and result.mean_delay == trial.convergence_delay
                    and result.mean_messages == trial.messages_sent,
                    f"{item['label']}: fold of one trial differs from it",
                )
                if index in first:
                    out.checks.expect(
                        trial == first[index],
                        f"{item['label']}: repeat differs from first run",
                    )
                else:
                    first[index] = trial
            rounds += 1
            if now() - start >= seconds:
                break
    finally:
        clock.sample()
        if layer is not None:
            layer.uninstall()
    events = sum(e for e, _t0, _t1 in timed)
    host_wall = sum(t1 - t0 for _e, t0, t1 in timed)
    nominal_wall = sum(clock.scale(t1 - t0, t0, t1) for _e, t0, t1 in timed)
    # The timed operation is 1,000 simulated events: each trial gives one
    # sample, its nominal time divided by its thousands of events.
    op_ms = [
        1e6 * clock.scale(t1 - t0, t0, t1) / e for e, t0, t1 in timed if e
    ]

    # Route check on a seeded sample, outside the timed region.
    from checks import rerun_and_check_routes

    pick = stream_rng(seed, "sweep-fifo/check").randrange(len(items))
    if pick in first:
        item = items[pick]
        for problem in rerun_and_check_routes(
            item["topology"], item["spec"], item["seed"], first[pick]
        )[:5]:
            out.checks.expect(False, f"{item['label']}: {problem}")

    round_trials = [first[i] for i in sorted(first)]
    out.work = {
        "rounds": rounds,
        "trials_per_round": len(items),
        "events_per_round": sum(t.events_executed for t in round_trials),
        "messages_per_round": sum(t.messages_sent for t in round_trials),
        "updates_processed_per_round": sum(
            t.updates_processed for t in round_trials
        ),
        "store_gets": 0,
        "store_puts": 0,
        "http_requests": 0,
        "digest": digest(trial_record(t) for t in round_trials),
        "events_per_s": events / nominal_wall if nominal_wall else 0.0,
        "host_events_per_s": events / host_wall if host_wall else 0.0,
        "host_setup_s": setup_host_s,
        "host_ref_ops_per_s": clock.median_speed(),
    }
    metrics, out.work["op_tail_percentile"] = end_to_end(
        setup_s, op_ms, TAIL_PERCENTILE, peak_rss_mb()
    )
    if trace:
        from layers import traced_metrics

        out.metrics = traced_metrics(
            layer.snapshot(), {"core.trial_busy_s": busy}
        )
        out.work["end_to_end_traced"] = metrics
    else:
        out.metrics = metrics
    return out

