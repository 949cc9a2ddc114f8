"""Deterministic discrete-event world: random-waypoint mobility,
unit-disk radio topology, CBR traffic over idealized source routes,
FIFO relay buffers, adversary behaviors, and the event loop that drives
the per-node protocol.

Identical (config, seed) pairs produce byte-identical event logs. All
fan-outs process recipients in ascending node id and the event queue
breaks time ties by insertion order.

A control frame is one queue event that carries its recipients: the
destination of a unicast, or the sender's neighbors at send time, in
ascending id, for a broadcast. A broadcast event runs exactly as one
event per recipient would: those events would carry consecutive
sequence numbers at one time t, and no delivery pushes an event at t,
because every control frame takes ``hop_latency_ms > 0`` per hop. So
no other event could run between them.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
import sys
from collections import Counter, deque
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import messages
from .node_protocol import (
    OUTCOME_DROP,
    OUTCOME_MODIFIED,
    OUTCOME_OK,
    CertResponse,
    Node,
    Outgoing,
    ProtocolParams,
    ms,
)


# the types a value of a config field may have, by the field's annotation:
# a float field also takes an int, and no numeric field takes a bool
FIELD_TYPES = {"int": (int,), "float": (float, int), "bool": (bool,),
               "str": (str,)}
_TYPE_WORDS = {"int": "an integer", "float": "a number", "bool": "a bool",
               "str": "a string"}


class ConfigInvalid(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass
class ScenarioConfig(ProtocolParams):
    """A scenario: the protocol constants, and the world, traffic,
    adversary and harness settings."""

    duration_s: float = 1000.0
    area_width_m: float = 100.0
    area_height_m: float = 100.0
    tx_range_m: float = 30.0
    mobility_model: str = "random_waypoint"
    max_speed_mps: float = 20.0
    pause_s: float = 5.0
    flow_count: int = 15
    flow_rate_pps: float = 2.0
    buffer_capacity: int = 64
    malicious_count: int = 5
    monitor_sample_prob: float = 1.0

    topology_step_ms: int = 100
    service_slot_ms: int = 10
    tick_interval_ms: int = 500

    drop_prob: float = 1.0
    tamper_prob: float = 0.0
    adv_drops_certificates: bool = False
    adv_drops_feedback: bool = False
    adv_tampers_certificates: bool = False
    adv_false_accuser: bool = False

    overhead_window_s: float = 160.0
    rng_seed: int = 1

    def validate(self) -> None:
        problems = []
        ok = set()  # the fields that hold a finite value of their type
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) not in FIELD_TYPES[f.type]:
                problems.append(f"{f.name} must be {_TYPE_WORDS[f.type]}")
            elif f.type == "float" and not abs(value) <= sys.float_info.max:
                # inf, nan, or an int too large to convert to a float
                problems.append(f"{f.name} must be finite")
            elif f.name.endswith("_s") and not abs(value) * 1000 <= sys.float_info.max:
                # ms() takes every seconds field to whole milliseconds
                problems.append(f"{f.name} must be finite in milliseconds")
            else:
                ok.add(f.name)

        def check(names, bad, problem):
            for name in names:
                if name in ok and bad(getattr(self, name)):
                    problems.append(f"{name} must be {problem}")

        check(("duration_s", "area_width_m", "area_height_m", "tx_range_m",
               "flow_rate_pps", "exchange_interval_s", "node_count",
               "buffer_capacity", "topology_step_ms", "service_slot_ms",
               "hop_latency_ms", "tick_interval_ms", "min_voters",
               "cache_capacity"), lambda v: v <= 0, "positive")
        check(("flow_count", "malicious_count", "delta", "pause_s",
               "piggyback_budget", "min_samples", "monitor_window_s",
               "collect_window_s", "vote_window_s", "interaction_window_s",
               "overhead_window_s", "alarm_cooldown_s", "challenge_cooldown_s",
               "challenge_ack_deadline_s"), lambda v: v < 0, ">= 0")
        check(("f_fraction", "monitor_sample_prob", "monitor_threshold",
               "maliciousness_threshold", "alpha", "alpha2", "drop_prob",
               "tamper_prob"), lambda v: not 0.0 <= v <= 1.0, "in [0, 1]")
        # the period is truncated to whole ms, and a 0 ms period would
        # repeat the exchange at one instant forever
        check(("exchange_interval_s",), lambda v: 0 < v and ms(v) == 0,
              "at least 0.001 (1 ms)")
        # a flow sends every 1000 / flow_rate_pps ms, which must be a number
        check(("flow_rate_pps",), lambda v: 0 < v and 1000 / v == math.inf,
              "large enough for a finite period of 1000 / flow_rate_pps ms")
        if "mobility_model" in ok and \
                self.mobility_model not in ("random_waypoint", "static"):
            problems.append(f"unknown mobility_model {self.mobility_model!r}")
        if {"malicious_count", "node_count"} <= ok and \
                self.malicious_count >= self.node_count:
            problems.append("malicious_count must be < node_count")
        # a node's distance to its waypoint, at most the diagonal, must be
        # a number, or the node could never move toward the waypoint
        if {"area_width_m", "area_height_m"} <= ok and \
                math.hypot(self.area_width_m, self.area_height_m) == math.inf:
            problems.append("the area's diagonal must be finite")
        if {"mobility_model", "max_speed_mps"} <= ok and \
                self.mobility_model == "random_waypoint" and self.max_speed_mps <= 0:
            problems.append("max_speed_mps must be > 0 for random_waypoint")
        if {"flow_count", "node_count"} <= ok and \
                self.flow_count > 0 and self.node_count < 2:
            problems.append("node_count must be >= 2 when flow_count > 0: "
                            "a flow needs two distinct endpoints")
        if problems:
            raise ConfigInvalid(problems)


def multi_hop_default() -> ScenarioConfig:
    """Default experiment preset: multi-hop 30 m range over 100x100 m."""
    return ScenarioConfig()


def table1_literal() -> ScenarioConfig:
    """Literal published parameters. 200 m range over 100x100 m makes the
    graph complete; kept available for reference runs."""
    return ScenarioConfig(tx_range_m=200.0)


def congestion() -> ScenarioConfig:
    """No adversaries; a slow service rate and a few fat flows overload
    relay buffers so honest nodes drop packets under load."""
    return ScenarioConfig(
        malicious_count=0, flow_count=3, flow_rate_pps=30.0,
        service_slot_ms=50, mobility_model="static", duration_s=300.0)


PRESETS = {
    "multi-hop": multi_hop_default,
    "table1-literal": table1_literal,
    "congestion": congestion,
}


class AdversaryNode(Node):
    """Protocol participant with misbehaving control-plane hooks, set by
    the scenario's ``adv_*`` fields. Data plane misbehavior (packet
    drops/tampering) lives in the simulator's forwarding path."""

    params: ScenarioConfig

    def _select_responses(self, responses: list[CertResponse]) -> list[CertResponse]:
        if not self.params.adv_drops_feedback:
            return responses
        # compared as group_trust splits them: a favourable response stays
        threshold = self.params.maliciousness_threshold
        return [r for r in responses
                if messages.from_fixed(r.maliciousness_raw) < threshold]

    def shares_cache(self) -> bool:
        return not self.params.adv_drops_certificates

    def outgoing_cache_bytes(self, key: tuple) -> bytes | None:
        data = self.cache.get(key)
        if data is None or not self.params.adv_tampers_certificates:
            return data
        # flip a bit in the body so the issuer tag no longer verifies
        mutated = bytearray(data)
        mutated[8] ^= 0x01
        return bytes(mutated)


@dataclass
class Flow:
    src: int
    dst: int
    # source first, destination last. Replaced, never changed in place:
    # compute_route returns a fresh list, and each packet shares the route
    # its flow had when it was sent.
    route: list[int] | None = None
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys((
        "sent", "delivered", "delivered_tampered", "dropped_malicious",
        "dropped_buffer", "dropped_route_broken", "dropped_isolated_src",
        "no_route", "in_buffer", "in_flight"), 0))


@dataclass
class DataPacket:
    flow: Flow
    route: list[int]  # its flow's route when it was sent
    hop_index: int  # the packet is at route[hop_index]
    watched: bool = False  # by its last hop, route[hop_index - 1]
    tampered: bool = False


@dataclass
class SimResult:
    config: ScenarioConfig
    log: list[tuple]
    ledger: Counter
    malicious: set[int]
    # who accepted each certificate when, by certificate key
    cert_holders: dict[tuple, dict[int, int]]
    ever_neighbors: dict
    isolated_final: dict
    flow_counters: dict

    @property
    def honest(self) -> set[int]:
        return set(range(1, self.config.node_count + 1)) - self.malicious

    @property
    def cert_issued(self) -> dict[tuple, int]:
        """When each certificate was issued: when its issuer accepted it."""
        return {key: holders[key[1]] for key, holders in self.cert_holders.items()
                if key[1] in holders}

    def render_log(self) -> str:
        lines = [
            f"{t} {kind} {actor} {subject} {detail}"
            for t, kind, actor, subject, detail in self.log
        ]
        return "\n".join(lines) + "\n"

    def conservation_ok(self) -> bool:
        for c in self.flow_counters.values():
            accounted = (c["delivered"] + c["dropped_malicious"]
                         + c["dropped_buffer"] + c["dropped_route_broken"]
                         + c["dropped_isolated_src"] + c["in_buffer"]
                         + c["in_flight"])
            if c["sent"] != accounted:
                return False
        return True


_KEY_BYTES = 16  # accounting size of a certificate cache key on the wire


def _checked_positions(positions, config: ScenarioConfig) -> np.ndarray:
    """Initial positions as an (n, 2) array of finite coordinates inside
    the area. Raises ``ConfigInvalid`` listing every problem: a position
    that is not finite would take its node out of the graph unseen."""
    n = config.node_count
    try:
        pos = np.array(positions, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid([f"positions must be {n} (x, y) pairs: {exc}"]) from None
    problems = []
    if pos.shape != (n, 2):
        problems.append(f"positions must have shape ({n}, 2), not {pos.shape}")
    if pos.ndim == 2:
        finite = np.isfinite(pos).all(axis=1)
        if not finite.all():
            ids = (np.flatnonzero(~finite) + 1).tolist()
            problems.append(f"positions of nodes {ids} are not finite")
        if pos.shape[1] == 2:
            x, y = pos[:, 0], pos[:, 1]
            inside = (0 <= x) & (x <= config.area_width_m) \
                & (0 <= y) & (y <= config.area_height_m)
            outside = finite & ~inside
            if outside.any():
                ids = (np.flatnonzero(outside) + 1).tolist()
                problems.append(
                    f"positions of nodes {ids} lie outside the "
                    f"{config.area_width_m:g} x {config.area_height_m:g} m area")
    if problems:
        raise ConfigInvalid(problems)
    return pos


def _checked_malicious(malicious, config: ScenarioConfig) -> set[int]:
    """An explicit malicious set of node ids that leaves an honest node.
    Raises ``ConfigInvalid`` listing every problem: an id that is no node
    would count as an adversary that never acts."""
    try:
        chosen = set(malicious)
    except TypeError:  # not iterable, or an unhashable member
        raise ConfigInvalid(["malicious must be a collection of node ids"]) from None
    ids, problems = range(1, config.node_count + 1), []
    strays = [x for x in chosen if type(x) is not int or x not in ids]
    if strays:
        problems.append(f"malicious ids {sorted(strays, key=repr)} are not "
                        f"node ids 1..{config.node_count}")
    if chosen.issuperset(ids):
        problems.append("malicious must leave at least one honest node")
    if problems:
        raise ConfigInvalid(problems)
    return chosen


class Simulator:
    def __init__(self, config: ScenarioConfig,
                 positions: list[tuple[float, float]] | None = None,
                 malicious: set[int] | None = None):
        config.validate()
        self.cfg = config
        self.rng = random.Random(config.rng_seed)
        self.now = 0
        self.duration_ms = ms(config.duration_s)
        self._queue: list = []
        self._seq = 0

        n = config.node_count
        self.ids = list(range(1, n + 1))
        # 32 bytes nothing uses: the authority once had a secret of its own.
        # The draw keeps each seed's random stream, so every recorded log
        # digest stays the same.
        self.rng.randbytes(32)
        self.authority = messages.Authority()

        if malicious is None:
            malicious = self.rng.sample(self.ids, config.malicious_count)
        self.malicious = _checked_malicious(malicious, config)

        self.log: list[tuple] = []  # every node appends to it too
        # the unit-disk graph, indexed by node id (slot 0 holds no node):
        # lists kept sorted, symmetric and irreflexive; each node reads its own
        self.adj: list[list[int]] = [[] for _ in range(n + 1)]
        self.nodes: dict[int, Node] = {}
        for nid in self.ids:
            secret = self.rng.randbytes(32)
            self.authority.enroll(nid, secret)
            cls = AdversaryNode if nid in self.malicious else Node
            node = cls(nid, secret, self.authority, config, seed=config.rng_seed)
            node.log = self.log
            node.set_neighbors(self.adj[nid])
            self.nodes[nid] = node

        # mobility state (index i <-> node id i+1)
        if positions is not None:
            self.pos = _checked_positions(positions, config)
        else:
            self.pos = np.column_stack([
                np.array([self.rng.uniform(0, config.area_width_m) for _ in range(n)]),
                np.array([self.rng.uniform(0, config.area_height_m) for _ in range(n)]),
            ])
        self.waypoint = self.pos.copy()
        self.speed = np.zeros(n)
        self.pause_until = np.zeros(n)
        if config.mobility_model == "random_waypoint":
            for i in range(n):
                self._new_waypoint(i)

        self._pair_i, self._pair_j = np.triu_indices(n, 1)
        self._pair_within = np.zeros(len(self._pair_i), dtype=bool)
        self.ever_neighbors: dict[int, set[int]] = {nid: set() for nid in self.ids}
        self._recompute_topology()

        # flows between distinct endpoints, indexed by flow id
        self.flows = [Flow(*self.rng.sample(self.ids, 2))
                      for _ in range(config.flow_count)]
        self.flow_period = max(1, int(1000 / config.flow_rate_pps))

        self.buffers: dict[int, deque] = {nid: deque() for nid in self.ids}
        self.free_at: dict[int, int] = {nid: 0 for nid in self.ids}

        self.ledger: Counter = Counter()

        # initial schedule; a static world never changes its graph
        if config.mobility_model == "random_waypoint":
            self._push(config.topology_step_ms, "_handle_topology")
        self._push(config.tick_interval_ms, "_handle_tick")
        self._push(ms(config.exchange_interval_s), "_handle_exchange")
        for flow in self.flows:
            self._push(self.rng.randrange(self.flow_period), "_handle_flow", flow)
        if config.adv_false_accuser:
            for nid in sorted(self.malicious):
                self._push(30_000 + self.rng.randrange(5_000), "_handle_accuse",
                           nid)

    # --- event queue ------------------------------------------------------

    def _push(self, t: int, kind: str, *args) -> None:
        """Queue a call of the handler method named ``kind`` at t ms."""
        self._seq += 1
        heapq.heappush(self._queue, (t, self._seq, kind, args))

    def _repeat(self, period: int, kind: str, *args) -> None:
        """Queue the next periodic event ``period`` ms from now, unless it
        falls after the end of the run."""
        if self.now + period <= self.duration_ms:
            self._push(self.now + period, kind, *args)

    # --- mobility and topology -------------------------------------------

    def _new_waypoint(self, i: int) -> None:
        self.waypoint[i, 0] = self.rng.uniform(0, self.cfg.area_width_m)
        self.waypoint[i, 1] = self.rng.uniform(0, self.cfg.area_height_m)
        # speed uniform on (0, max]: reject the measure-zero 0 draw
        s = 0.0
        while s == 0.0:
            s = self.rng.uniform(0, self.cfg.max_speed_mps)
        self.speed[i] = s

    def _step_mobility(self, dt_s: float) -> None:
        """Advance every node ``dt_s`` seconds along its random waypoint
        path."""
        delta = self.waypoint - self.pos
        dist = np.hypot(delta[:, 0], delta[:, 1])
        step = self.speed * dt_s
        active = self.pause_until <= self.now
        moving = active & (dist > step)
        # every row is updated; a row not moving adds +-0.0 to a finite
        # coordinate, which leaves it equal (-0.0 may become +0.0)
        scale = np.divide(step, dist, out=np.zeros_like(dist), where=moving)
        delta *= scale[:, None]
        self.pos += delta
        # arrivals draw no random numbers, so the new waypoints are drawn
        # in ascending index order whichever way the two kinds interleave
        for i in np.flatnonzero(active & (dist <= step)).tolist():
            if dist[i] == 0.0:  # pause over: a fresh waypoint and speed
                self._new_waypoint(i)
            else:
                self.pos[i] = self.waypoint[i]
                self.pause_until[i] = self.now + ms(self.cfg.pause_s)

    def _handle_topology(self) -> None:
        self._step_mobility(self.cfg.topology_step_ms / 1000.0)
        self._recompute_topology()
        self._repeat(self.cfg.topology_step_ms, "_handle_topology")

    def _recompute_topology(self) -> None:
        """Update the unit-disk graph from the current positions.

        Squared distances are computed once over the upper triangle of
        node pairs, and only pairs whose in-range bit flipped touch the
        neighbor lists and ``ever_neighbors``. The lists are updated in
        place, so each node sees the change. Exactly when the edge set
        changes, ``self.adj`` becomes a new outer list holding the same lists,
        so a caller that kept the old one sees the change by identity."""
        # dx * dx + dy * dy computed in place: the same roundings as a
        # dense (diff ** 2).sum(axis=2), so the edge set is bit-identical
        x, y = self.pos[:, 0].copy(), self.pos[:, 1].copy()
        dx = x.take(self._pair_i)
        dx -= x.take(self._pair_j)
        dy = y.take(self._pair_i)
        dy -= y.take(self._pair_j)
        with np.errstate(over="ignore"):  # inf: farther than any finite range
            dx *= dx
            dy *= dy
            dx += dy
        # squared once, as a float: a range whose square overflows to inf
        # puts every pair in range
        r = float(self.cfg.tx_range_m)
        within = dx <= r * r
        flips = np.flatnonzero(within != self._pair_within)
        self._pair_within = within
        if len(flips):
            fi, fj, added = self._pair_i[flips], self._pair_j[flips], within[flips]
            lists = self.adj = list(self.adj)
            for i, j, edge in zip(fi.tolist(), fj.tolist(), added.tolist()):
                a, b = i + 1, j + 1  # position row i is node id i + 1
                if edge:
                    bisect.insort(lists[a], b)
                    bisect.insort(lists[b], a)
                    self.ever_neighbors[a].add(b)
                    self.ever_neighbors[b].add(a)
                else:
                    lists[a].remove(b)
                    lists[b].remove(a)

    # --- routing ----------------------------------------------------------

    def _bfs(self, root: int, target: int,
             blocked: set[int] | frozenset[int] = frozenset()) -> list[int]:
        """Hop labels from ``root``, indexed by node id: -1 unreached, -2
        blocked. Labels level by level over the neighbor lists and stops as
        soon as ``target`` is labeled, so every level below the target's
        is complete."""
        dist = [-1] * (self.cfg.node_count + 1)
        for x in blocked:
            dist[x] = -2
        dist[root] = 0
        lists = self.adj
        frontier = [root]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in lists[u]:
                    if dist[v] == -1:
                        dist[v] = d
                        if v == target:
                            return dist
                        nxt.append(v)
            frontier = nxt
        return dist

    def compute_route(self, src: int, dst: int,
                      isolated: set[int]) -> list[int] | None:
        """Lexicographically smallest shortest hop path, excluding
        isolated nodes. Charges one synthetic discovery flood."""
        self.ledger["route_discoveries"] += 1
        self.ledger["msgs_routing"] += self.cfg.node_count
        dist = self._bfs(dst, src, {x for x in isolated if x != src and x != dst})
        if dist[src] < 0:
            return None
        # lists are sorted, so the first neighbor one level closer is the
        # smallest; only levels below dist[src] are read, and those are complete
        route = [src]
        cur = src
        while cur != dst:
            want = dist[cur] - 1
            cur = next(v for v in self.adj[cur] if dist[v] == want)
            route.append(cur)
        return route

    def _route_valid(self, route: list[int], isolated: set[int]) -> bool:
        for a, b in zip(route, route[1:]):
            if b not in self.adj[a]:
                return False
        return not any(x in isolated for x in route[1:-1])

    # --- control plane ----------------------------------------------------

    def _emit(self, src: int, outgoings: list[Outgoing]) -> None:
        for out in outgoings:
            name = f"msgs_{out.mess_type.name.lower()}"
            if out.dest is None:
                recipients = tuple(self.adj[src])
                if recipients:
                    self._push(self.now + self.cfg.hop_latency_ms, "_handle_ctrl",
                               recipients, out.data)
                    self.ledger[name] += len(recipients)
                    self.ledger["ctrl_bytes"] += len(out.data) * len(recipients)
            else:
                if out.dest == src:
                    continue
                hops = self._hop_distance(src, out.dest)
                if hops is None:
                    self.ledger["ctrl_undeliverable"] += 1
                    continue
                self._push(self.now + hops * self.cfg.hop_latency_ms, "_handle_ctrl",
                           (out.dest,), out.data)
                self.ledger[name] += 1
                self.ledger["ctrl_bytes"] += len(out.data) * hops

    def _handle_ctrl(self, recipients: tuple[int, ...], frame: bytes) -> None:
        for r in recipients:
            out = self.nodes[r].receive(frame, self.now)
            if out:
                self._emit(r, out)

    def _hop_distance(self, src: int, dst: int) -> int | None:
        """Hops on a shortest path from src to dst, or None if there is
        none or dst is no node. Isolation does not block control frames."""
        if dst in self.adj[src]:  # most unicasts go to a neighbor
            return 1
        hops = self._bfs(src, dst)[dst] if dst in self.nodes else -1
        return hops if hops >= 0 else None

    def _observe(self, watcher: int, subject: int, outcome: int) -> None:
        self.log.append((self.now, "monitor_obs", watcher, subject, outcome))
        out = self.nodes[watcher].monitor_observe(subject, outcome, self.now)
        if out:
            self._emit(watcher, out)

    # --- data plane -------------------------------------------------------

    def _handle_flow(self, flow: Flow) -> None:
        src_node = self.nodes[flow.src]
        if flow.route is None or not self._route_valid(flow.route, src_node.isolated):
            flow.route = self.compute_route(flow.src, flow.dst, src_node.isolated)
        if flow.route is None:
            flow.counters["no_route"] += 1
        else:
            watched = self.rng.random() < self.cfg.monitor_sample_prob
            packet = DataPacket(flow, flow.route, hop_index=1, watched=watched)
            flow.counters["sent"] += 1
            self.ledger["pb_bytes"] += _KEY_BYTES * min(len(src_node.cache),
                                                        self.cfg.piggyback_budget)
            src_node.note_contact(flow.route[1], self.now)
            self._push(self.now + self.cfg.hop_latency_ms, "_handle_arrive", packet)
        self._repeat(self.flow_period, "_handle_flow", flow)

    def _drop_packet(self, packet: DataPacket, reason: str, observed: bool) -> None:
        packet.flow.counters[f"dropped_{reason}"] += 1
        if observed and packet.watched:
            i = packet.hop_index
            self._observe(packet.route[i - 1], packet.route[i], OUTCOME_DROP)

    def _handle_arrive(self, packet: DataPacket) -> None:
        nid = packet.route[packet.hop_index]
        node = self.nodes[nid]
        upstream = packet.route[packet.hop_index - 1]
        node.note_contact(upstream, self.now)
        if nid == packet.route[-1]:
            counters = packet.flow.counters
            counters["delivered"] += 1
            if packet.tampered:
                counters["delivered_tampered"] += 1
            return
        # relay
        if packet.route[0] in node.isolated:
            # punitive drop of an isolated originator's traffic; watchers
            # share the verdict and do not count it against the relay
            self._drop_packet(packet, "isolated_src", observed=False)
            return
        if nid in self.malicious and self.rng.random() < self.cfg.drop_prob:
            self._drop_packet(packet, "malicious", observed=True)
            return
        buffer = self.buffers[nid]
        if len(buffer) >= self.cfg.buffer_capacity:
            self._drop_packet(packet, "buffer", observed=True)
            return
        buffer.append(packet)
        # a relay has one service event queued exactly while its buffer is
        # not empty: this append started the buffer, so nothing serves it yet
        if len(buffer) == 1:
            self._push(max(self.now, self.free_at[nid]), "_handle_service", nid)

    def _handle_service(self, nid: int) -> None:
        buffer = self.buffers[nid]
        packet = buffer.popleft()
        self.free_at[nid] = self.now + self.cfg.service_slot_ms
        if buffer:
            self._push(self.free_at[nid], "_handle_service", nid)

        next_hop = packet.route[packet.hop_index + 1]
        if next_hop not in self.adj[nid]:
            self._drop_packet(packet, "route_broken", observed=True)
            # by value: a route recomputed to the same path is cleared too
            if packet.flow.route == packet.route:
                packet.flow.route = None
            return
        outcome = OUTCOME_OK
        if nid in self.malicious and self.rng.random() < self.cfg.tamper_prob:
            packet.tampered = True
            outcome = OUTCOME_MODIFIED
        if packet.watched:
            self._observe(packet.route[packet.hop_index - 1], nid, outcome)
        packet.watched = self.rng.random() < self.cfg.monitor_sample_prob
        packet.hop_index += 1
        self.nodes[nid].note_contact(next_hop, self.now)
        self._push(self.now + self.cfg.hop_latency_ms, "_handle_arrive", packet)

    # --- periodic machinery ----------------------------------------------

    def _handle_exchange(self) -> None:
        for nid in self.ids:
            self.nodes[nid].replenish_tick()
        # each neighbor pair once, a < b, in ascending (a, b) order
        for a, lst in enumerate(self.adj):
            for b in lst[bisect.bisect_right(lst, a):]:
                self._exchange_pair(a, b)
        self._repeat(ms(self.cfg.exchange_interval_s), "_handle_exchange")

    def _exchange_pair(self, a: int, b: int) -> None:
        na, nb = self.nodes[a], self.nodes[b]
        if b in na.isolated or a in nb.isolated:
            return
        na.note_contact(b, self.now)
        nb.note_contact(a, self.now)
        keys_a = set(na.cache) if na.shares_cache() else set()
        keys_b = set(nb.cache) if nb.shares_cache() else set()
        self.ledger["msgs_exchange"] += 2
        self.ledger["ctrl_bytes"] += _KEY_BYTES * (len(keys_a) + len(keys_b))
        # a's certificates that b lacks go first, then b's that a lacks
        for src, dst, keys in ((a, b, keys_a - keys_b), (b, a, keys_b - keys_a)):
            for key in sorted(keys):
                data = self.nodes[src].outgoing_cache_bytes(key)
                if data is not None:
                    self.ledger["msgs_exchange"] += 1
                    self.ledger["ctrl_bytes"] += len(data)
                    out = self.nodes[dst].handle_certificate(
                        data, self.now, cache=True, from_node=src)
                    if out:
                        self._emit(dst, out)
        for key in sorted(keys_a & keys_b):
            ca, cb = na.outgoing_cache_bytes(key), nb.outgoing_cache_bytes(key)
            if ca == cb or ca is None or cb is None:
                continue
            self.log.append((self.now, "cache_mismatch", a, b, key[0]))
            valid_a = self._cert_bytes_valid(ca)
            valid_b = self._cert_bytes_valid(cb)
            if valid_a and not valid_b:
                nb.cache[key] = ca
            elif valid_b and not valid_a:
                na.cache[key] = cb

    def _cert_bytes_valid(self, data: bytes) -> bool:
        try:
            _, verdict = self.authority.open_certificate(
                data, self.cfg.maliciousness_threshold)
        except messages.MessageError:
            return False
        return verdict is messages.Verdict.VALID

    def _handle_tick(self) -> None:
        for nid in self.ids:
            out = self.nodes[nid].tick(self.now)
            if out:
                self._emit(nid, out)
        self._repeat(self.cfg.tick_interval_ms, "_handle_tick")

    def _handle_accuse(self, nid: int) -> None:
        node = self.nodes[nid]
        victims = [v for v in self.adj[nid] if v not in self.malicious]
        if victims:
            victim = self.rng.choice(victims)
            self.log.append((self.now, "false_accusation", nid, victim, ""))
            self._emit(nid, node.initiate_challenge(victim, self.now))
            self._emit(nid, node.raise_global_alarm(victim, self.now))
        self._repeat(60_000, "_handle_accuse", nid)

    # --- main loop --------------------------------------------------------

    def run(self) -> SimResult:
        while self._queue:
            t, _, kind, args = heapq.heappop(self._queue)
            if t > self.duration_ms:
                break
            self.now = t
            # looked up per event, so a wrapper put on the class after
            # __init__ is the one called
            getattr(self, kind)(*args)

        for buffer in self.buffers.values():
            for packet in buffer:
                packet.flow.counters["in_buffer"] += 1
        for _, _, kind, args in self._queue:
            if kind == "_handle_arrive":
                args[0].flow.counters["in_flight"] += 1

        cert_holders: dict[tuple, dict[int, int]] = {}
        for nid, node in self.nodes.items():
            for key, accepted_ms in node.processed_certs.items():
                cert_holders.setdefault(key, {})[nid] = accepted_ms

        return SimResult(
            config=self.cfg,
            log=self.log,
            ledger=self.ledger,
            malicious=set(self.malicious),
            cert_holders=cert_holders,
            ever_neighbors={k: set(v) for k, v in self.ever_neighbors.items()},
            isolated_final={nid: set(self.nodes[nid].isolated) for nid in self.ids},
            flow_counters={fid: dict(flow.counters)
                           for fid, flow in enumerate(self.flows)},
        )


def run_scenario(config: ScenarioConfig, seed: int | None = None) -> SimResult:
    if seed is not None:
        config = replace(config, rng_seed=seed)
    return Simulator(config).run()
