"""Output checks computed apart from the simulator's own code paths.

* :func:`rerun_and_check_routes` re-runs one trial by driving
  ``BGPNetwork`` through its public ``start``/``run_until_quiet``/
  ``fail_nodes`` surface, requires the re-run's delay and message count
  to equal the timed trial's, and then checks every surviving speaker's
  best route to every destination against a breadth-first search the
  benchmark runs itself on the surviving graph: inside the speaker's
  surviving component the AS-path length equals the hop distance, and
  outside it no route exists.  This holds in the paper's unrestricted
  shortest-path setting (no policy, flat one-router-per-AS topologies).
* :func:`fold_means` recomputes a point's mean delay and mean message
  count from raw trials, for comparison with the program's folds.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set


def bfs_distances(
    adjacency: Dict[int, List[int]], source: int, alive: Set[int]
) -> Dict[int, int]:
    """Hop distance from ``source`` to every node reachable through
    ``alive`` nodes."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for peer in adjacency[node]:
            if peer in alive and peer not in dist:
                dist[peer] = dist[node] + 1
                frontier.append(peer)
    return dist


def route_mismatches(network: Any, failed: Iterable[int]) -> List[str]:
    """Every (speaker, destination) whose best route disagrees with BFS.

    Destinations are the prefixes of all routers, failed ones included
    (nobody may keep a route to a dead origin).  In a flat topology a
    router's prefix is its AS number, which equals its node id.
    """
    topology = network.topology
    nodes = topology.node_ids()
    dead = set(failed)
    alive = {n for n in nodes if n not in dead}
    adjacency = {n: topology.neighbors(n) for n in nodes}
    asn_of = {n: topology.as_of(n) for n in nodes}
    origin_of = {asn_of[n]: n for n in nodes}
    problems: List[str] = []
    for node in sorted(alive):
        dist = bfs_distances(adjacency, node, alive)
        speaker = network.speakers[node]
        for prefix in sorted(origin_of):
            origin = origin_of[prefix]
            route = speaker.best_route(prefix)
            if origin in dist:
                if route is None:
                    problems.append(
                        f"node {node}: no route to {prefix} "
                        f"(BFS distance {dist[origin]})"
                    )
                elif len(route.path) != dist[origin]:
                    problems.append(
                        f"node {node}: path to {prefix} has "
                        f"{len(route.path)} hops, BFS says {dist[origin]}"
                    )
            elif route is not None:
                problems.append(
                    f"node {node}: route {route.path} to unreachable "
                    f"prefix {prefix}"
                )
    return problems


def converge_network(topology: Any, spec: Any, seed: int):
    """Warm up, fail and reconverge a network through the public API.

    Returns ``(network, failed nodes, delay, messages, truncated)``
    measured the way the paper defines them: delay from the failure to
    the last routing activity, messages as UPDATEs sent after it.
    """
    from repro.bgp.network import BGPNetwork
    from repro.core.experiment import build_scenario

    network = BGPNetwork(topology, spec.to_bgp_config(), seed=seed)
    network.start()
    network.run_until_quiet(max_time=spec.max_warmup_time)
    sent_before = network.counters["updates_sent"]
    scenario = build_scenario(topology, spec, seed)
    t0 = network.fail_nodes(
        scenario.nodes,
        detection_delay=spec.detection_delay,
        detection_jitter=spec.detection_jitter,
    )
    network.run_until_quiet(max_time=t0 + spec.max_convergence_time)
    delay = network.last_activity - t0
    messages = network.counters["updates_sent"] - sent_before
    truncated = not network.is_quiescent()
    return network, scenario.nodes, delay, messages, truncated


def rerun_and_check_routes(
    topology: Any, spec: Any, seed: int, trial: Any
) -> List[str]:
    """Re-run one trial apart from ``run_experiment`` and check it.

    Returns a list of problems; empty means the re-run reproduced the
    timed trial's delay and message count exactly and every best route
    matched the BFS oracle.
    """
    network, failed, delay, messages, truncated = converge_network(
        topology, spec, seed
    )
    problems: List[str] = []
    if truncated:
        problems.append(f"seed {seed}: re-run truncated")
    if delay != trial.convergence_delay:
        problems.append(
            f"seed {seed}: re-run delay {delay!r} != trial "
            f"{trial.convergence_delay!r}"
        )
    if messages != trial.messages_sent:
        problems.append(
            f"seed {seed}: re-run messages {messages} != trial "
            f"{trial.messages_sent}"
        )
    problems.extend(route_mismatches(network, failed))
    return problems


def fold_means(trials: Sequence[Any]) -> tuple:
    """(mean delay, mean messages) recomputed from raw trials."""
    n = len(trials)
    if n == 0:
        return 0.0, 0.0
    delay = sum(t.convergence_delay for t in trials) / n
    messages = sum(t.messages_sent for t in trials) / n
    return delay, messages


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Float agreement up to summation-order rounding."""
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def point_problems(
    label: str, x: float, trials: Sequence[Any], delay: float, messages: float
) -> Optional[str]:
    """Compare a folded point with the recomputation from its trials."""
    want_delay, want_messages = fold_means(trials)
    if close(delay, want_delay) and close(messages, want_messages):
        return None
    return (
        f"{label}@{x:g}: folded delay/messages {delay!r}/{messages!r}, "
        f"recomputed {want_delay!r}/{want_messages!r}"
    )
