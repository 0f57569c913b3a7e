"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest bench/test_bench.py -q

They check that the route check rejects corrupted route tables, that
failure accounting counts a truncated trial and a non-2xx response, that
a smoke-size run of every workload completes with correct outputs and
every metric BENCHMARK.json names, and that the command fails without
printing a result when the checkout holds no program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import ROOT, Tally, WorkDir, count_trial, program_importable  # noqa: E402

program_importable()

import campaign_schemes  # noqa: E402
import service_mixed  # noqa: E402
import sweep_fifo  # noqa: E402
from checks import converge_network, route_mismatches  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
MODULES = {
    "sweep-fifo": sweep_fifo,
    "campaign-schemes": campaign_schemes,
    "service-mixed": service_mixed,
}


def _converged(queue: str = "fifo"):
    from repro.specs.serialize import build_spec
    from repro.specs.topology import topology_factory

    topology = topology_factory({"kind": "skewed", "nodes": 16})(3)
    spec = build_spec({"mrai": 0.5, "queue": queue, "failure_fraction": 0.2})
    network, failed, _delay, _messages, truncated = converge_network(
        topology, spec, 3
    )
    assert not truncated
    return network, failed


@pytest.mark.parametrize("queue", ["fifo", "dest_batch"])
def test_route_check_accepts_converged_network(queue):
    network, failed = _converged(queue)
    assert route_mismatches(network, failed) == []


def test_route_check_rejects_corrupted_route_table():
    from repro.bgp.routes import Route

    network, failed = _converged()
    speaker = next(
        s for s in network.alive_speakers()
        if any(r.path for _d, r in s.loc_rib.items())
    )
    dest, route = next((d, r) for d, r in speaker.loc_rib.items() if r.path)
    longer = Route(dest, route.path + (route.path[-1],), route.peer, route.ebgp)
    speaker.loc_rib.set(dest, longer)
    assert any("hops" in p for p in route_mismatches(network, failed))

    speaker.loc_rib.set(dest, None)
    assert any("no route" in p for p in route_mismatches(network, failed))

    dead = sorted(failed)[0]
    speaker.loc_rib.set(dest, route)
    speaker.loc_rib.set(dead, Route(dead, (dead,), route.peer, route.ebgp))
    assert any("unreachable" in p for p in route_mismatches(network, failed))


def test_failure_accounting_counts_truncated_trial():
    from repro.core.experiment import run_trials
    from repro.specs.serialize import build_spec
    from repro.specs.topology import topology_factory

    spec = build_spec(
        {"mrai": 0.5, "failure_fraction": 0.2, "max_convergence_time": 0.01}
    )
    factory = topology_factory({"kind": "skewed", "nodes": 16})
    trial = run_trials(factory, spec, [5], jobs=1, store=None).trials[0]
    assert trial.truncated
    tally = Tally()
    assert not count_trial(tally, trial, "tiny-cap")
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "truncated" in tally.reasons[0]


def test_failure_accounting_counts_non_2xx_response():
    from common import Outcome

    work = WorkDir("selftest-http")
    daemon = None
    try:
        from repro.store.result_store import ResultStore

        store = str(work.path / "empty.db")
        ResultStore(store).close()
        daemon = service_mixed.Daemon(store, work.path, "t", trace=False)
        doc = service_mixed.corpus_doc(1, "smoke")
        out = Outcome()
        clients = service_mixed.Clients(daemon.url, out, 1, doc, 0.0)
        assert clients.request(clients.client.result, "no-such-ticket") is None
        assert clients.request(clients.client.queue_status) is not None
        assert (out.tally.attempted, out.tally.failed) == (2, 1)
        assert "HTTP 404" in out.tally.reasons[0]
    finally:
        if daemon is not None:
            daemon.stop()
        work.cleanup()


@pytest.mark.parametrize("workload", sorted(MODULES))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_completes(workload, trace):
    out = MODULES[workload].run(7, 1.0, trace, scale="smoke")
    assert out.checks.correct, out.checks.failures
    assert out.tally.failed == 0, out.tally.reasons
    assert out.tally.attempted > 0
    assert set(out.metrics) == (PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in out.metrics.values())
    assert out.work


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(MODULES)


def test_command_fails_without_program():
    work = WorkDir("selftest-bare")
    try:
        shutil.copytree(BENCH, work.path / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", work.path)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "sweep-fifo",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=work.path, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        work.cleanup()
