"""Simulator mechanics: configuration, mobility, routing, accounting,
and determinism."""

import hashlib
import itertools
import random
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trustwatch import harness, messages, trust_math
from trustwatch.node_protocol import _ALARM_PAYLOAD, Node
from trustwatch.sim import (
    PRESETS,
    _KEY_BYTES,
    AdversaryNode,
    ConfigInvalid,
    ScenarioConfig,
    Simulator,
    run_scenario,
)


def small_config(**kw):
    base = dict(node_count=12, flow_count=4, duration_s=60.0,
                malicious_count=0, rng_seed=5)
    base.update(kw)
    return ScenarioConfig(**base)


# --- configuration --------------------------------------------------------

def test_config_defaults_valid():
    ScenarioConfig().validate()


def test_config_collects_all_problems():
    cfg = ScenarioConfig(duration_s=-1, node_count=0, alpha=1.5,
                         mobility_model="teleport", cache_capacity=0,
                         piggyback_budget=-1, pause_s=-1,
                         exchange_interval_s=0.0004, delta=float("nan"),
                         monitor_window_s=float("nan"), tx_range_m=float("nan"),
                         max_speed_mps=float("inf"), area_height_m=float("-inf"),
                         vote_window_s=-5.0,
                         alarm_cooldown_s=-1.0, challenge_ack_deadline_s=-0.5,
                         min_samples=-3)
    with pytest.raises(ConfigInvalid) as err:
        cfg.validate()
    text = str(err.value)
    assert "duration_s" in text
    assert "node_count" in text
    assert "alpha" in text
    assert "teleport" in text
    assert "cache_capacity" in text
    assert "piggyback_budget" in text
    assert "pause_s" in text
    assert "exchange_interval_s must be at least 0.001" in text
    for name in ("delta", "monitor_window_s", "tx_range_m", "max_speed_mps",
                 "area_height_m"):
        assert f"{name} must be finite" in text
    for name in ("vote_window_s", "alarm_cooldown_s", "challenge_ack_deadline_s",
                 "min_samples"):
        assert f"{name} must be >= 0" in text
    assert "two distinct endpoints" in text


@pytest.mark.parametrize("positions, problems", [
    ([(0.0, 0.0), (1.0, 1.0)], ["shape (3, 2)"]),
    ([(0.0, 0.0), (1.0,), (2.0, 2.0)], ["3 (x, y) pairs"]),
    ([(0.0, 0.0), (float("nan"), 1.0), (2.0, float("inf"))],
     ["nodes [2, 3] are not finite"]),
    ([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, float("-inf"), 2.0)],
     ["shape (3, 2)", "nodes [3] are not finite"]),
    ([(0.0, 0.0), (-1.0, 5.0), (50.0, 100.5)],
     ["nodes [2, 3] lie outside the 100 x 100 m area"]),
    ([(float("nan"), 0.0), (1.0, 1.0), (200.0, 1.0)],
     ["nodes [1] are not finite", "nodes [3] lie outside"]),
])
def test_bad_positions_are_rejected_with_every_problem(positions, problems):
    cfg = small_config(node_count=3, flow_count=0, mobility_model="static")
    with pytest.raises(ConfigInvalid) as err:
        Simulator(cfg, positions=positions)
    assert len(err.value.problems) == len(problems)
    for got, want in zip(err.value.problems, problems):
        assert want in got


def test_positions_on_the_area_border_are_accepted():
    cfg = small_config(node_count=3, flow_count=0, mobility_model="static")
    sim = Simulator(cfg, positions=[(0.0, 0.0), (100.0, 100.0), (0.0, 100.0)])
    assert sim.pos.shape == (3, 2)


def test_config_malicious_count_bound():
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(node_count=5, malicious_count=5).validate()


def test_presets_exist_and_validate():
    assert set(PRESETS) == {"multi-hop", "table1-literal", "congestion"}
    for factory in PRESETS.values():
        factory().validate()


def test_table1_literal_is_single_hop_everywhere():
    cfg = PRESETS["table1-literal"]()
    assert cfg.tx_range_m >= (cfg.area_width_m ** 2
                              + cfg.area_height_m ** 2) ** 0.5


# --- mobility -------------------------------------------------------------

def test_static_positions_never_move():
    sim = Simulator(small_config(mobility_model="static"))
    before = sim.pos.copy()
    assert "_handle_topology" not in [kind for _, _, kind, _ in sim._queue]
    sim.run()
    assert np.array_equal(sim.pos, before)


def test_random_waypoint_moves_and_respects_bounds_and_speed():
    cfg = small_config(max_speed_mps=20.0, pause_s=0.5, duration_s=30.0)
    sim = Simulator(cfg)
    start = sim.pos.copy()
    max_step = cfg.max_speed_mps * 0.1 + 1e-9
    for _ in range(300):
        prev = sim.pos.copy()
        sim.now += 100
        sim._step_mobility(0.1)
        moved = np.hypot(*(sim.pos - prev).T)
        assert (moved <= max_step).all()
        assert (sim.pos[:, 0] >= 0).all() and (sim.pos[:, 0] <= cfg.area_width_m).all()
        assert (sim.pos[:, 1] >= 0).all() and (sim.pos[:, 1] <= cfg.area_height_m).all()
    assert np.hypot(*(sim.pos - start).T).max() > 1.0


def reference_step_mobility(sim, dt_s):
    """Random-waypoint step as written before it became one masked pass:
    arrivals first, then new waypoints, each over its own boolean mask."""
    n = sim.cfg.node_count
    delta = sim.waypoint - sim.pos
    dist = np.hypot(delta[:, 0], delta[:, 1])
    step = sim.speed * dt_s
    paused = sim.pause_until > sim.now
    at_waypoint = dist == 0.0
    arriving = (~paused) & (~at_waypoint) & (dist <= step)
    moving = (~paused) & (dist > step)
    scale = np.zeros(n)
    scale[moving] = step[moving] / dist[moving]
    sim.pos[moving] += delta[moving] * scale[moving, None]
    for i in np.flatnonzero(arriving):
        sim.pos[i] = sim.waypoint[i]
        sim.pause_until[i] = sim.now + sim.cfg.pause_s * 1000
    for i in np.flatnonzero((~paused) & at_waypoint):
        sim._new_waypoint(i)


def test_mobility_step_is_bit_identical_to_the_reference():
    cfg = small_config(node_count=20, pause_s=0.2, rng_seed=4)
    sim, ref = Simulator(cfg), Simulator(cfg)
    for s in (sim, ref):  # node 1 starts exactly on its waypoint
        s.pos[0] = s.waypoint[0]
    dt_s = cfg.topology_step_ms / 1000.0
    redraws = arrivals = 0
    for step in range(3000):
        sim.now += cfg.topology_step_ms
        ref.now = sim.now
        draws = sim.rng.getstate()
        waiting = int((sim.pause_until > sim.now).sum())
        sim._step_mobility(dt_s)
        reference_step_mobility(ref, dt_s)
        for name in ("pos", "waypoint", "speed", "pause_until"):
            assert np.array_equal(getattr(sim, name), getattr(ref, name)), \
                f"step {step} {name}"
        assert sim.rng.getstate() == ref.rng.getstate(), f"step {step}"
        redraws += sim.rng.getstate() != draws
        arrivals += int((sim.pause_until > sim.now).sum()) > waiting
    assert redraws > 100 and arrivals > 100


def test_static_run_never_recomputes_the_topology(monkeypatch):
    sim = Simulator(small_config(mobility_model="static"))
    calls = Counter()
    for name in ("_step_mobility", "_recompute_topology"):
        def counted(self, *args, _fn=getattr(Simulator, name), _name=name):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(Simulator, name, counted)
    sim.run()
    assert calls["_step_mobility"] == 0
    assert calls["_recompute_topology"] == 0


def test_topology_symmetric_and_irreflexive():
    sim = Simulator(small_config())
    assert np.array_equal(sim.adj, sim.adj.T)
    assert not sim.adj.diagonal().any()
    for nid in sim.ids:
        for other in sim.neighbors_of(nid):
            assert nid in sim.neighbors_of(other)


def test_ever_neighbors_accumulates_symmetrically():
    res = run_scenario(small_config(duration_s=120.0))
    for a, peers in res.ever_neighbors.items():
        for b in peers:
            assert a in res.ever_neighbors[b]


def dense_adjacency(sim):
    """The unit-disk graph recomputed from scratch over all n^2 pairs."""
    diff = sim.pos[:, None, :] - sim.pos[None, :, :]
    adj = (diff ** 2).sum(axis=2) <= sim.cfg.tx_range_m ** 2
    np.fill_diagonal(adj, False)
    return adj


def test_incremental_topology_matches_dense_recompute():
    cfg = small_config(node_count=30, pause_s=1.0, rng_seed=11)
    sim = Simulator(cfg)
    ever = {nid: set() for nid in sim.ids}
    changed_steps = unchanged_steps = 0
    for step in range(400):
        if step:
            sim.now += cfg.topology_step_ms
            sim._step_mobility(cfg.topology_step_ms / 1000.0)
            before = sim.adj
            sim._recompute_topology()
            if sim.adj is before:
                unchanged_steps += 1
            else:
                changed_steps += 1
        want = dense_adjacency(sim)
        for i, j in np.argwhere(want):
            ever[int(i) + 1].add(int(j) + 1)
        assert np.array_equal(sim.adj, want), f"step {step}"
        for i, nid in enumerate(sim.ids):
            expect = [int(j) + 1 for j in np.flatnonzero(want[i])]
            assert sim.neighbor_lists[i] == expect, f"step {step} node {nid}"
            assert list(sim.nodes[nid].neighbors) == expect, \
                f"step {step} node {nid}"
        assert sim.ever_neighbors == ever, f"step {step}"
    assert changed_steps > 100 and unchanged_steps > 0


def test_topology_untouched_when_nothing_moves():
    sim = Simulator(small_config(mobility_model="static"))
    adj = sim.adj
    lists = [list(x) for x in sim.neighbor_lists]
    for _ in range(5):
        sim.now += 100
        sim._recompute_topology()
    assert sim.adj is adj
    assert sim.neighbor_lists == lists


# --- routing --------------------------------------------------------------

def brute_force_route(sim, src, dst, isolated):
    """Enumerate every simple path of minimum hop count and return the
    lexicographically smallest, or None."""
    blocked = {x for x in isolated if x not in (src, dst)}
    if src == dst:
        return [src]
    best_len = None
    best = None
    frontier = [[src]]
    while frontier and best_len is None:
        nxt = []
        for path in frontier:
            for v in sim.neighbors_of(path[-1]):
                if v in blocked or v in path:
                    continue
                new = path + [v]
                if v == dst:
                    if best_len is None:
                        best_len = len(new)
                    if len(new) == best_len:
                        best = new if best is None else min(best, new)
                else:
                    nxt.append(new)
        frontier = nxt
    return best


def test_route_matches_brute_force_on_random_graphs():
    for seed in range(6):
        sim = Simulator(small_config(node_count=10, rng_seed=seed,
                                     tx_range_m=45.0))
        for src, dst in itertools.permutations(sim.ids[:6], 2):
            got = sim.compute_route(src, dst, set())
            want = brute_force_route(sim, src, dst, set())
            assert got == want, f"seed={seed} {src}->{dst}"


def test_route_avoids_isolated_nodes():
    positions = [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (20.0, 20.0),
                 (40.0, 20.0)]
    cfg = ScenarioConfig(node_count=5, flow_count=0, malicious_count=0,
                         tx_range_m=29.0, mobility_model="static")
    sim = Simulator(cfg, positions=positions)
    assert sim.compute_route(1, 3, set()) == [1, 2, 3]
    detour = sim.compute_route(1, 3, {2})
    assert detour is not None and 2 not in detour
    assert sim.compute_route(1, 3, {2, 4}) is None


def test_route_endpoints_exempt_from_isolation():
    positions = [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0)]
    cfg = ScenarioConfig(node_count=3, flow_count=0, malicious_count=0,
                         tx_range_m=25.0, mobility_model="static")
    sim = Simulator(cfg, positions=positions)
    assert sim.compute_route(1, 3, {1, 3}) == [1, 2, 3]


def reference_hops(adj, src, dst, blocked):
    """Hop count over the dense matrix, or None: a plain BFS that shares
    no code with the simulator's."""
    seen = {src}
    level = [src]
    hops = 0
    while level:
        if dst in level:
            return hops
        hops += 1
        level = [int(j) + 1 for u in level for j in np.flatnonzero(adj[u - 1])
                 if int(j) + 1 not in blocked and int(j) + 1 not in seen]
        seen.update(level)
    return None


def test_bfs_routes_and_hop_distances_match_brute_force_while_moving():
    cfg = small_config(node_count=16, pause_s=1.0, rng_seed=8)
    sim = Simulator(cfg)
    rng = random.Random(3)
    multi_hop_routes = 0
    for step in range(300):
        sim.now += cfg.topology_step_ms
        sim._step_mobility(cfg.topology_step_ms / 1000.0)
        sim._recompute_topology()
        if step % 20:
            continue
        adj = dense_adjacency(sim)
        for src, dst in itertools.permutations(sim.ids, 2):
            assert sim._hop_distance(src, dst) == \
                reference_hops(adj, src, dst, set()), f"step {step} {src}->{dst}"
            isolated = set(rng.sample(sim.ids, rng.randrange(6)))
            blocked = isolated - {src, dst}
            ledger = Counter(sim.ledger)
            got = sim.compute_route(src, dst, isolated)
            # brute force stops at the shortest level only if dst is reachable
            want = (None if reference_hops(adj, src, dst, blocked) is None
                    else brute_force_route(sim, src, dst, isolated))
            assert got == want, f"step {step} {src}->{dst} isolated {sorted(isolated)}"
            ledger.update(route_discoveries=1, msgs_routing=cfg.node_count)
            assert sim.ledger == ledger
            multi_hop_routes += got is not None and len(got) > 2
    assert multi_hop_routes > 100


# --- control plane --------------------------------------------------------

# node 1 reaches 2 and 3; node 4 is out of everyone's range
STAR = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (90.0, 90.0)]


def star_sim():
    return Simulator(small_config(node_count=4, flow_count=0,
                                  mobility_model="static"), positions=STAR)


def test_broadcast_is_one_event_charged_per_recipient():
    sim = star_sim()
    alarm = sim.nodes[1].raise_global_alarm(4, 0)
    queued = len(sim._queue)
    sim._emit(1, alarm)
    assert len(sim._queue) == queued + 1
    assert [args for _, _, kind, args in sim._queue if kind == "_handle_ctrl"] \
        == [((2, 3), alarm[0].data)]
    assert sim.ledger["msgs_global_alarm"] == 2
    assert sim.ledger["ctrl_bytes"] == 2 * len(alarm[0].data)


def test_broadcast_from_a_node_without_neighbors_is_not_queued_or_charged():
    sim = star_sim()
    queued, ledger = list(sim._queue), Counter(sim.ledger)
    sim._emit(4, sim.nodes[4].raise_global_alarm(1, 0))
    assert sim._queue == queued
    assert dict(sim.ledger) == dict(ledger)


def test_a_unicast_to_another_partition_is_charged_but_not_queued():
    sim = star_sim()
    queued, ledger = list(sim._queue), Counter(sim.ledger)
    challenge = sim.nodes[1].initiate_challenge(4, 0)
    assert [o.dest for o in challenge] == [4]
    sim._emit(1, challenge)
    assert sim._queue == queued
    ledger["ctrl_undeliverable"] += 1
    assert dict(sim.ledger) == dict(ledger)
    assert not [key for key in sim.ledger if key.startswith("msgs_")]


def test_broadcast_reaches_the_neighbors_at_send_time(monkeypatch):
    sim = star_sim()
    sim._emit(1, sim.nodes[1].raise_global_alarm(4, 0))
    # node 2 leaves node 1's range and node 4 enters it before delivery
    sim.pos[1], sim.pos[3] = (90.0, 0.0), (5.0, 5.0)
    sim._recompute_topology()
    assert sim.neighbors_of(1) == [3, 4]
    received = []

    def receive(node, data, now, _receive=Node.receive):
        received.append(node.node_id)
        return _receive(node, data, now)

    monkeypatch.setattr(Node, "receive", receive)
    (t, args), = [(t, args) for t, _, kind, args in sim._queue
                  if kind == "_handle_ctrl"]
    sim.now = t
    sim._handle_ctrl(*args)
    assert received == [2, 3]


class PerRecipientSimulator(Simulator):
    """Queues a broadcast as one event per recipient."""

    def _emit(self, src, outgoings):
        for out in outgoings:
            if out.dest is not None:
                super()._emit(src, [out])
                continue
            for r in self.neighbors_of(src):
                self._push(self.now + self.cfg.hop_latency_ms, "_handle_ctrl",
                           (r,), out.data)
                self.ledger[f"msgs_{out.mess_type.name.lower()}"] += 1
                self.ledger["ctrl_bytes"] += len(out.data)


def test_one_event_per_broadcast_runs_as_one_event_per_recipient():
    cfg = small_config(duration_s=150.0, malicious_count=3, drop_prob=0.5,
                       adv_false_accuser=True, adv_drops_feedback=True,
                       adv_tampers_certificates=True, exchange_interval_s=20.0)
    batched = Simulator(cfg).run()
    single = PerRecipientSimulator(cfg).run()
    assert any(kind == "isolated" for _, kind, *_ in batched.log)
    assert batched.render_log() == single.render_log()
    assert dict(batched.ledger) == dict(single.ledger)
    assert batched.flow_counters == single.flow_counters


# --- accounting and end-to-end behavior ----------------------------------

def test_packet_conservation_small_runs():
    for seed in (1, 2, 3):
        res = run_scenario(small_config(rng_seed=seed))
        assert res.conservation_ok()
        assert sum(c["sent"] for c in res.flow_counters.values()) > 0


def test_packet_conservation_with_adversaries():
    res = run_scenario(ScenarioConfig(duration_s=200.0, rng_seed=3))
    assert res.conservation_ok()
    assert sum(c["dropped_malicious"]
               for c in res.flow_counters.values()) > 0


def test_congestion_preset_overflows_buffers():
    res = run_scenario(PRESETS["congestion"](), seed=2)
    assert sum(c["dropped_buffer"] for c in res.flow_counters.values()) > 0
    assert res.conservation_ok()


class RelayCheckedSimulator(Simulator):
    """Checks after every event that each relay with a non-empty buffer
    has exactly one service event queued and each empty relay has none."""

    def run(self):
        self.events = self.deepest = 0
        for name in [n for n in vars(Simulator) if n.startswith("_handle_")]:
            setattr(self, name, self._checked(getattr(self, name)))
        return super().run()

    def _checked(self, handler):
        def handle_then_check(*args):
            handler(*args)
            self.events += 1
            queued = Counter(a[0] for _, _, kind, a in self._queue
                             if kind == "_handle_service")
            for nid, buffer in self.buffers.items():
                assert queued[nid] == (1 if buffer else 0), \
                    f"t={self.now} relay {nid}: {len(buffer)} buffered, " \
                    f"{queued[nid]} services queued"
                self.deepest = max(self.deepest, len(buffer))
        return handle_then_check


def test_each_busy_relay_has_exactly_one_service_queued():
    cfg = replace(PRESETS["congestion"](), duration_s=30.0, rng_seed=2)
    sim = RelayCheckedSimulator(cfg)
    res = sim.run()
    assert sim.events > 1000
    # relays filled to capacity, so the invariant held through overflow
    assert sim.deepest == sim.cfg.buffer_capacity
    assert sum(c["dropped_buffer"] for c in res.flow_counters.values()) > 0


def test_adversaries_get_isolated_and_logged():
    res = run_scenario(ScenarioConfig(duration_s=600.0, rng_seed=2))
    isolated_subjects = {s for _, k, _, s, _ in res.log if k == "isolated"}
    assert res.malicious <= isolated_subjects
    honest_isolated = isolated_subjects & res.honest
    assert not honest_isolated


def test_seed_override_and_determinism():
    cfg = small_config(duration_s=90.0, malicious_count=2)
    a = run_scenario(cfg, seed=42)
    b = run_scenario(cfg, seed=42)
    c = run_scenario(cfg, seed=43)
    assert a.config.rng_seed == 42
    assert a.render_log() == b.render_log()
    assert a.render_log() != c.render_log()
    assert harness.compute_metrics(a).to_row() == harness.compute_metrics(b).to_row()


def test_explicit_malicious_set_overrides_sampling():
    sim = Simulator(small_config(), malicious={3})
    assert sim.malicious == {3}
    assert [nid for nid, node in sim.nodes.items()
            if isinstance(node, AdversaryNode)] == [3]


@pytest.mark.parametrize("malicious,problems", [
    ({0, 99}, ["malicious ids [0, 99] are not node ids 1..12"]),
    ({3, 3.5}, ["malicious ids [3.5] are not node ids 1..12"]),
    (set(range(1, 13)), ["malicious must leave at least one honest node"]),
    ({0, *range(1, 13)}, ["malicious ids [0] are not node ids 1..12",
                          "malicious must leave at least one honest node"]),
], ids=["phantom", "fraction", "everyone", "both"])
def test_explicit_malicious_set_must_name_nodes_and_leave_an_honest_one(
        malicious, problems):
    with pytest.raises(ConfigInvalid) as exc:
        Simulator(small_config(), malicious=malicious)
    assert exc.value.problems == problems


@pytest.mark.parametrize("budget,charged", [(0, 0), (2, 2), (9, 5)])
def test_a_sent_packet_is_charged_for_its_cache_keys_within_budget(
        budget, charged):
    """A sent packet is charged the bytes of the cache keys its source
    could piggyback on it, at most ``piggyback_budget`` of them."""
    sim = Simulator(small_config(node_count=2, flow_count=1,
                                 mobility_model="static",
                                 piggyback_budget=budget),
                    positions=[(0.0, 0.0), (10.0, 0.0)])
    src = sim.nodes[sim.flows[0].src]
    for i in range(5):
        src._cache_put((i,), b"")
    sim._handle_flow(0)
    assert sim.flow_counters[0]["sent"] == 1
    assert sim.ledger["pb_bytes"] == _KEY_BYTES * charged


def test_feedback_dropper_drops_exactly_what_group_trust_calls_adverse():
    # 0.57 * 10000 truncates to 5699, which used to drop raw 5699 as well
    threshold = 0.57
    sim = Simulator(small_config(maliciousness_threshold=threshold,
                                 adv_drops_feedback=True), malicious={1})
    responses = [messages.CertResponse(2, 5699, 10000, b""),
                 messages.CertResponse(3, 5700, 10000, b"")]
    kept = sim.nodes[1]._select_responses(responses)
    assert [r.maliciousness_raw for r in kept] == [5699]
    # group_trust splits the same two: 5699 low (a one-one tie goes low)
    group = trust_math.group_trust(
        [trust_math.MaliciousnessObservation(
            r.respondent, messages.from_fixed(r.maliciousness_raw))
         for r in responses], threshold)
    assert [o.respondent for o in group.majority] == [2]
    assert not group.majority_adverse


@pytest.mark.parametrize("overrides, digest", [
    # 166 tampered deliveries, each seen by its watcher as outcome 2
    (dict(tamper_prob=1.0, drop_prob=0.0),
     "21ad38a9055cd26d58dbf00af8b80ca41be6723d3154262ecad2f6dd4d7d82dc"),
    (dict(adv_drops_certificates=True),
     "9bc5872d1e5014cb914fda1c43cee87db6850d25e7b8b5a0d3efdc21b66bf6a7"),
], ids=["tamper", "drops-certificates"])
def test_adversary_settings_no_benchmark_workload_sets_keep_their_log(
        overrides, digest):
    res = run_scenario(ScenarioConfig(rng_seed=5, duration_s=150, **overrides))
    assert hashlib.sha256(res.render_log().encode()).hexdigest() == digest


def test_certificate_record_is_who_accepted_each_key_when():
    """Pins every (certificate key, holder, acceptance time) of a run with
    certificate rejects, and that a key was issued when its issuer
    accepted it."""
    res = run_scenario(ScenarioConfig(rng_seed=5, duration_s=150,
                                      adv_drops_feedback=True,
                                      adv_tampers_certificates=True))
    record = sorted((key, sorted(holders.items()))
                    for key, holders in res.cert_holders.items())
    assert hashlib.sha256(repr(record).encode()).hexdigest() == \
        "53534109dabd62e0435ede92a9577a15b205bc22e07ed11a07f8e3533b321e3d"
    assert len(res.cert_issued) == 15
    assert all(res.cert_issued[key] == res.cert_holders[key][key[1]]
               for key in res.cert_issued)


def test_every_protocol_constant_reaches_the_nodes():
    """Every benchmark workload runs the default protocol constants. This
    run sets each of the 18 off its default, and each one changes its log
    or its ledger, so the pin fails if a constant stops reaching the
    nodes or its unit changes."""
    res = run_scenario(ScenarioConfig(
        rng_seed=5, duration_s=300.0, tx_range_m=20.0, tick_interval_ms=50,
        adv_drops_feedback=True, adv_false_accuser=True, drop_prob=0.5,
        alpha=0.5, alpha2=0.7, delta=0.002, maliciousness_threshold=0.45,
        f_fraction=0.7, monitor_window_s=20.0, monitor_threshold=0.3,
        min_samples=8, challenge_ack_deadline_s=0.002, collect_window_s=0.006,
        vote_window_s=4.0, interaction_window_s=90.0, exchange_interval_s=30.0,
        alarm_cooldown_s=20.0, challenge_cooldown_s=45.0, min_voters=40,
        cache_capacity=8, piggyback_budget=3))
    assert hashlib.sha256(res.render_log().encode()).hexdigest() == \
        "45ba50ed1330da6d07f87e9765de47e8dd89bd40a713b992894a63742aa7d4ec"
    assert hashlib.sha256(repr(sorted(res.ledger.items())).encode()).hexdigest() \
        == "85dd07c0ad17e9edc5ba2f19f6b27d94c713651db90e1f698afaf42e84375c09"


def test_log_is_time_ordered():
    res = run_scenario(small_config(duration_s=120.0, malicious_count=1))
    times = [t for t, *_ in res.log]
    assert times == sorted(times)


def test_cert_bytes_with_out_of_range_response_are_invalid():
    sim = Simulator(small_config())
    m_raw, w_raw, nonce = 60000, messages.to_fixed(1.0), 9
    secret = {nid: sim.nodes[nid].secret for nid in (1, 2)}
    rtag = messages.tag(messages.response_sign_bytes(1, 2, m_raw, w_raw, nonce),
                        secret[2])
    body = messages.certificate_body_bytes(messages.GroupTrustCertificate(
        subject=1, issuer=1, issued_at_ms=0, challenge_nonce=nonce,
        group_trust_raw=0,
        responses=(messages.CertResponse(2, m_raw, w_raw, rtag),),
        certificate_tag=b""))
    assert sim._cert_bytes_valid(body + messages.tag(body, secret[1])) is False


def test_replay_state_stays_flat_when_duration_doubles():
    """Three false accusers keep control frames and alarm floods flowing
    all run; the summed seen_nonces and the summed flood_seen, each
    sampled after every tick, peak no higher when the run is twice as
    long."""
    names = ("seen_nonces", "flood_seen")

    class Sampled(Simulator):
        def _handle_tick(self):
            super()._handle_tick()
            for name in names:
                total = sum(len(getattr(n, name)) for n in self.nodes.values())
                self.peak[name] = max(self.peak.get(name, 0), total)

    peaks = []
    for duration in (240.0, 480.0):
        sim = Sampled(small_config(
            duration_s=duration, malicious_count=3, adv_false_accuser=True,
            drop_prob=0.0, exchange_interval_s=5.0))
        sim.peak = {}
        sim.run()
        peaks.append(sim.peak)
    for name in names:
        assert 0 < peaks[1][name] <= 1.2 * peaks[0][name], (name, peaks)


def test_each_node_relays_each_flood_once():
    """A relay restamps an alarm flood, so only flood_seen stops a copy
    that comes back. Here copies come back to nodes that hold their
    flood's key and every tick rotates the filters, yet every node sends
    each flood once."""

    class Counted(Simulator):
        def _emit(self, src, outgoings):
            for out in outgoings:
                if out.mess_type is messages.RepMessType.GLOBAL_ALARM:
                    _, payload, _ = self.authority.open_frame(out.data)
                    self.sends.append((src, payload))
            super()._emit(src, outgoings)

        def _handle_ctrl(self, recipients, frame):
            header, payload, _ = self.authority.open_frame(frame)
            if header.mess_type == messages.RepMessType.GLOBAL_ALARM:
                kind, raiser, nonce = _ALARM_PAYLOAD.unpack_from(payload)
                key = (kind, header.subject, raiser, nonce)
                self.returns += sum(key in self.nodes[r].flood_seen
                                    for r in recipients)
            super()._handle_ctrl(recipients, frame)

    sim = Counted(ScenarioConfig(
        node_count=16, area_width_m=80.0, area_height_m=80.0,
        mobility_model="static", malicious_count=3, adv_false_accuser=True,
        duration_s=12.0, rng_seed=3, tick_interval_ms=1))
    sim.sends, sim.returns = [], 0
    sim.run()
    assert sim.sends and sim.returns
    assert len(set(sim.sends)) == len(sim.sends), Counter(sim.sends).most_common(3)


# --- documentation --------------------------------------------------------

def test_readme_multi_hop_preset_matches_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = re.search(r"^- `multi-hop` — (.*?)(?=^- `|^$)", readme,
                       re.M | re.S).group(1)
    text = " ".join(bullet.split())
    numbers = re.fullmatch(
        r"(\d+) nodes, ([\d.]+) × ([\d.]+) m, ([\d.]+) m radio range, "
        r"random waypoint at up to ([\d.]+) m/s with ([\d.]+) s pauses, "
        r"(\d+) flows at ([\d.]+) pkt/s, (\d+) full packet droppers, "
        r"([\d.]+) s\. The default experiment\.", text)
    assert numbers, text
    cfg = ScenarioConfig()
    assert [float(x) for x in numbers.groups()] == [
        cfg.node_count, cfg.area_width_m, cfg.area_height_m, cfg.tx_range_m,
        cfg.max_speed_mps, cfg.pause_s, cfg.flow_count, cfg.flow_rate_pps,
        cfg.malicious_count, cfg.duration_s]
    assert cfg.mobility_model == "random_waypoint" and cfg.drop_prob == 1.0
