"""Per-node protocol state machine: monitoring, challenge-response
collection, certificate maintenance and propagation, and alarm voting.

A Node is driven entirely by the simulator: it receives encoded frames,
monitor events, and timer ticks, and returns the frames it wants sent.
All state belongs to exactly one node; handlers run serially in event
order.
"""

from __future__ import annotations

import math
import random
import struct
from collections import OrderedDict, defaultdict, deque
from dataclasses import dataclass, field
from functools import partial

from . import messages, trust_math
from .messages import (
    Authority,
    CertResponse,
    RepMessType,
    ReputationHeader,
    Verdict,
    from_fixed,
    to_fixed,
)

OUTCOME_OK = 0
OUTCOME_DROP = 1
OUTCOME_MODIFIED = 2

# payload layouts; a layout that carries a tag ends with it
_NONCE = struct.Struct(">Q")  # challenge, challenge ack, verify behavior
_RESP_PAYLOAD = struct.Struct(f">HQ{messages.TAG_LEN}s")  # weight, nonce, tag
_ALARM_PAYLOAD = struct.Struct(">BIQ")  # kind, raiser, alarm nonce
_VOTE_RECORD = struct.Struct(f">IB{messages.TAG_LEN}s")  # voter, vote, tag
_VOTE_PAYLOAD = struct.Struct(_ALARM_PAYLOAD.format + _VOTE_RECORD.format[1:])
_VERDICT_HEAD = struct.Struct(_ALARM_PAYLOAD.format + "H")  # count records follow
_VOTE_SIGN = struct.Struct(">IIIQB")


def ms(seconds: float) -> int:
    """A time in seconds as whole milliseconds, truncated toward zero."""
    return int(seconds * 1000)


@dataclass
class ProtocolParams:
    """Every protocol constant a scenario can set, times in seconds but
    ``hop_latency_ms``, its one time in ms."""

    alpha: float = 0.6
    alpha2: float = 0.8
    delta: float = 0.001
    maliciousness_threshold: float = 0.5
    f_fraction: float = 0.5

    monitor_window_s: float = 30.0
    monitor_threshold: float = 0.25
    min_samples: int = 10

    challenge_ack_deadline_s: float = 2.0
    collect_window_s: float = 3.0
    vote_window_s: float = 5.0
    interaction_window_s: float = 120.0
    exchange_interval_s: float = 60.0
    alarm_cooldown_s: float = 30.0
    challenge_cooldown_s: float = 60.0
    min_voters: int = 3
    cache_capacity: int = 256
    piggyback_budget: int = 2

    # the network, which bounds a frame's age
    node_count: int = 50
    hop_latency_ms: int = 5

    # not a field, so no scenario sets it; a test may set it on an instance
    alarm_jitter_ms = 10_000

    @property
    def flood_span_ms(self) -> int:
        """The oldest frame a node accepts, and how long it keeps a frame's
        or a flood's key. A node relays a flood only on its first copy, one
        broadcast hop after another relay, so a flood's last copy lands
        within node_count hops of its start; one hop more outlasts it."""
        return (self.node_count + 1) * self.hop_latency_ms

    def suspects(self, m: float, n: int) -> bool:
        """The watchdog rule, on a window's ``rate``: enough samples, and
        more than the threshold of them bad."""
        return n >= self.min_samples and m > self.monitor_threshold

    def quorum(self, yes: int, total: int) -> bool:
        """The isolation rule, on an alarm's valid votes: enough voters,
        and more than half of them yes."""
        return total >= self.min_voters and 2 * yes > total


class MonitorWindow:
    """Time-ordered (t, bad) samples of one neighbor's forwarding over the
    last ``span`` ms, with a running count of the bad ones."""

    def __init__(self, span: int):
        self.span = span
        self.samples: deque[tuple[int, bool]] = deque()
        self.bad = 0

    def add(self, t: int, outcome: int) -> tuple[float, int]:
        """Append a sample taken at t, the newest so far; return rate(t)."""
        bad = outcome != OUTCOME_OK
        self.samples.append((t, bad))
        self.bad += bad
        return self.rate(t)

    def rate(self, now: int) -> tuple[float, int]:
        """(bad / n, n) over the samples with t >= now - span."""
        samples, horizon = self.samples, now - self.span
        while samples and samples[0][0] < horizon:
            self.bad -= samples.popleft()[1]
        n = len(samples)
        return (self.bad / n if n else 0.0), n


class ReplayFilter:
    """Keys of received frames or alarm floods, kept in two generations.

    ``rotate`` drops the older generation and starts a new one once
    ``span`` ms have passed since the last rotation, so a key is kept for
    at least ``span`` ms after it was added. Both of a node's filters
    take ``ProtocolParams.flood_span_ms``, and no honest frame is that
    old: a unicast crosses at most ``node_count - 1`` hops, and a relay
    restamps a flood. So a copy arriving after its (sender, nonce) key was
    dropped fails the timestamp check before this one. (Only the signer
    can stamp a frame in the future, and a signer can as well sign a
    fresh frame.)"""

    def __init__(self, span: int):
        self.span = span
        self.rotated_ms = 0
        self.current: set[tuple] = set()
        self.previous: set[tuple] = set()

    def __contains__(self, key: tuple) -> bool:
        return key in self.current or key in self.previous

    def __len__(self) -> int:
        return len(self.current) + len(self.previous)

    def add(self, key: tuple) -> None:
        self.current.add(key)

    def rotate(self, now: int) -> None:
        if now - self.rotated_ms >= self.span:
            self.previous, self.current = self.current, set()
            self.rotated_ms = now


@dataclass
class Outgoing:
    """A frame the node wants delivered. dest None means broadcast to the
    node's current 1-hop neighbors."""

    dest: int | None
    mess_type: RepMessType
    data: bytes


@dataclass
class TableEntry:
    rep_val: float = 1.0
    accepted_respondent_sets: set[frozenset[int]] = field(default_factory=set)


@dataclass
class AccuserChallenge:
    nonce: int
    ack_deadline_ms: int
    close_at_ms: int
    acked: bool = False


@dataclass
class CollectState:
    nonce: int
    deadline_ms: int
    expected: set[int]
    collected: dict[int, CertResponse] = field(default_factory=dict)


@dataclass
class AlarmState:
    subject: int
    nonce: int
    deadline_ms: int
    votes: dict[int, tuple[bool, bytes]] = field(default_factory=dict)


# message type -> name of its handler method, looked up on the node at call
# time so that a wrapper installed on the class is the one called
_HANDLERS = {t: f"_on_{t.name.lower()}" for t in RepMessType
             if t not in (RepMessType.REP_REQUEST, RepMessType.CERT_EXCHANGE)}


def vote_sign_bytes(subject: int, raiser: int, voter: int,
                    alarm_nonce: int, vote: bool) -> bytes:
    return _VOTE_SIGN.pack(subject, raiser, voter, alarm_nonce, 1 if vote else 0)


class Node:
    """Honest protocol participant. Adversarial variants subclass this
    and override the narrow behavior hooks at the bottom."""

    def __init__(self, node_id: int, secret: bytes, authority: Authority,
                 params: ProtocolParams, seed: int = 0):
        self.node_id = node_id
        self.secret = secret
        self.authority = authority
        self.params = params
        self.rng = random.Random((seed << 20) ^ (node_id * 2654435761 % 2**31))
        self.neighbors: list[int] = []

        self.table: dict[int, TableEntry] = {}
        self.isolated: set[int] = set()
        self.monitor = defaultdict(partial(MonitorWindow, ms(params.monitor_window_s)))
        self.last_contact_ms: dict[int, int] = {}

        self.challenges: dict[int, AccuserChallenge] = {}
        self.last_challenge_ms: dict[int, int] = {}
        self.collect: CollectState | None = None  # the open collection round
        self.responded: set[tuple[int, int]] = set()

        self.cache: OrderedDict[tuple, bytes] = OrderedDict()
        self.processed_certs: dict[tuple, int] = {}  # key -> accepted at ms

        self.alarms: dict[int, AlarmState] = {}
        self.pending_alarms: dict[int, int] = {}
        self.alarmed: set[int] = set()  # subjects this node raised an alarm on
        self.last_alarm_seen_ms: dict[int, int] = {}
        self.flood_seen = ReplayFilter(params.flood_span_ms)
        self.seen_nonces = ReplayFilter(params.flood_span_ms)
        # (now, kind, node_id, subject, detail) records; a simulator
        # replaces it with the run's one log
        self.log: list[tuple] = []

    # --- plumbing ---------------------------------------------------------

    def _log(self, now: int, kind: str, subject: int, detail: str = "") -> None:
        self.log.append((now, kind, self.node_id, subject, detail))

    def _nonce(self) -> int:
        return self.rng.getrandbits(64)

    def _send(self, dest: int | None, mess_type: RepMessType, subject: int,
              rep_val_raw: int, payload: bytes, now: int) -> Outgoing:
        """A frame of ``mess_type``, signed and stamped now with a fresh
        nonce, addressed to ``dest`` (None: every neighbor)."""
        header = ReputationHeader(
            mess_type=int(mess_type), subject=subject, rep_val_raw=rep_val_raw,
            timestamp_ms=now, nonce=self._nonce(), sender=self.node_id)
        return Outgoing(dest, mess_type,
                        messages.encode_rep_mess(header, payload, self.secret))

    def note_contact(self, other: int, now: int) -> None:
        if other != self.node_id:
            self.last_contact_ms[other] = now

    def set_neighbors(self, neighbors: list[int]) -> None:
        """Keep ``neighbors`` itself, not a copy. The caller keeps it sorted
        and current; the node only reads it."""
        self.neighbors = neighbors

    # --- monitor ----------------------------------------------------------

    def monitor_observe(self, subject: int, outcome: int, now: int) -> list[Outgoing]:
        """Record one sampled forwarding outcome for a neighbor; may open
        a challenge when the windowed maliciousness crosses threshold."""
        if subject not in self.neighbors:
            return []
        self.note_contact(subject, now)
        m, denom = self.monitor[subject].add(now, outcome)
        if not self.params.suspects(m, denom) or subject in self.isolated:
            return []
        self._log(now, "suspicion", subject, f"m={m:.4f} n={denom}")
        return self.initiate_challenge(subject, now)

    def _window_maliciousness(self, subject: int, now: int) -> tuple[float, int]:
        window = self.monitor.get(subject)
        return (0.0, 0) if window is None else window.rate(now)

    # --- challenge (accuser side) ----------------------------------------

    def initiate_challenge(self, subject: int, now: int) -> list[Outgoing]:
        if subject in self.challenges:
            return []
        last = self.last_challenge_ms.get(subject)
        if last is not None and now - last < ms(self.params.challenge_cooldown_s):
            return []
        nonce = self._nonce()
        self.challenges[subject] = AccuserChallenge(
            nonce=nonce,
            ack_deadline_ms=now + ms(self.params.challenge_ack_deadline_s),
            close_at_ms=now + ms(self.params.challenge_ack_deadline_s)
            + ms(self.params.collect_window_s) + 5_000)
        self.last_challenge_ms[subject] = now
        self._log(now, "challenge", subject, "")
        return [self._send(subject, RepMessType.CHALLENGE, subject, 0,
                           _NONCE.pack(nonce), now)]

    # --- receive dispatch -------------------------------------------------

    def receive(self, data: bytes, now: int) -> list[Outgoing]:
        try:
            header, payload, tag_ok = self.authority.open_frame(bytes(data))
        except messages.MessageError as exc:
            self._log(now, "bad_frame", 0, type(exc).__name__)
            return []
        if not tag_ok:
            self._log(now, "bad_tag", header.sender, "")
            return []
        if now - header.timestamp_ms > self.seen_nonces.span:
            self._log(now, "stale_frame", header.sender, "")
            return []
        replay_key = (header.sender, header.nonce)
        if replay_key in self.seen_nonces:
            self._log(now, "replayed_frame", header.sender, "")
            return []
        self.seen_nonces.add(replay_key)
        self.note_contact(header.sender, now)

        handler = _HANDLERS.get(header.mess_type)
        if handler is None:
            return []
        return getattr(self, handler)(header, payload, now)

    # --- challenge (accused side) ----------------------------------------

    def _on_challenge(self, header: ReputationHeader, payload: bytes,
                      now: int) -> list[Outgoing]:
        if header.subject != self.node_id or len(payload) != _NONCE.size:
            return []
        out = [self._send(header.sender, RepMessType.CHALLENGE_ACK, self.node_id,
                          0, payload, now)]
        # one collection round at a time; concurrent accusers share it
        if self.collect is not None:
            return out
        expected = set(self.neighbors) - {self.node_id}
        if not expected:
            return out
        nonce = self._nonce()
        self.collect = CollectState(
            nonce=nonce, deadline_ms=now + ms(self.params.collect_window_s),
            expected=expected)
        self._log(now, "verify_behavior", self.node_id, f"fanout={len(expected)}")
        out.append(self._send(None, RepMessType.VERIFY_BEHAVIOR, self.node_id, 0,
                              _NONCE.pack(nonce), now))
        return out

    def _on_challenge_ack(self, header: ReputationHeader, payload: bytes,
                          now: int) -> list[Outgoing]:
        state = self.challenges.get(header.sender)
        if state is not None and payload == _NONCE.pack(state.nonce):
            state.acked = True
        return []

    # --- respondent side --------------------------------------------------

    def _on_verify_behavior(self, header: ReputationHeader, payload: bytes,
                            now: int) -> list[Outgoing]:
        accused = header.sender
        if accused not in self.neighbors or len(payload) != _NONCE.size:
            return []
        (collect_nonce,) = _NONCE.unpack(payload)
        m, denom = self._window_maliciousness(accused, now)
        if denom == 0:
            m_raw, w_raw = 0, 0
        else:
            m_raw, w_raw = to_fixed(m), to_fixed(1.0)
        rtag = messages.tag(
            messages.response_sign_bytes(accused, self.node_id, m_raw, w_raw,
                                         collect_nonce),
            self.secret)
        self.responded.add((accused, collect_nonce))
        return [self._send(accused, RepMessType.REP_RESPONSE, accused, m_raw,
                           _RESP_PAYLOAD.pack(w_raw, collect_nonce, rtag), now)]

    def _on_rep_response(self, header: ReputationHeader, payload: bytes,
                         now: int) -> list[Outgoing]:
        if header.subject != self.node_id or len(payload) != _RESP_PAYLOAD.size:
            return []
        w_raw, collect_nonce, rtag = _RESP_PAYLOAD.unpack(payload)
        if w_raw > messages.FIXED_POINT_SCALE:
            self._log(now, "response_rejected", header.sender, f"w={w_raw}")
            return []
        # a response to a closed round finds no open round with its nonce
        state = self.collect
        if state is None or state.nonce != collect_nonce:
            return []
        respondent = header.sender
        if respondent not in state.expected or respondent in state.collected:
            return []
        state.collected[respondent] = CertResponse(
            respondent=respondent, maliciousness_raw=header.rep_val_raw,
            weight_raw=w_raw, tag=rtag)
        if len(state.collected) == len(state.expected):
            return self._aggregate(state, now)
        return []

    def _aggregate(self, state: CollectState, now: int) -> list[Outgoing]:
        self.collect = None
        responses = self._select_responses(list(state.collected.values()))
        cert = messages.build_certificate(
            subject=self.node_id, issuer=self.node_id, issued_at_ms=now,
            challenge_nonce=state.nonce, responses=responses,
            threshold=self.params.maliciousness_threshold,
            issuer_secret=self.secret)
        cert_bytes = messages.encode_certificate(cert)
        self.processed_certs[cert.key()] = now
        self._cache_put(cert.key(), cert_bytes)
        self._log(now, "cert_issued", self.node_id,
                  f"gt={cert.group_trust_raw} n={len(cert.responses)}")
        # broadcast to all neighbors; a random F-fraction of them become
        # cache carriers (initial flood), the rest only process it
        targets = sorted(self.neighbors)
        n_seed = math.ceil(self.params.f_fraction * len(targets))
        seeds = set(self.rng.sample(targets, min(n_seed, len(targets))))
        out = []
        for neighbor in targets:
            flag = b"\x01" if neighbor in seeds else b"\x00"
            out.append(self._send(neighbor, RepMessType.REP_BROADCAST,
                                  self.node_id, 0, flag + cert_bytes, now))
        return out

    # --- certificate maintenance -----------------------------------------

    def _on_rep_broadcast(self, header: ReputationHeader, payload: bytes,
                          now: int) -> list[Outgoing]:
        if len(payload) < 1:
            return []
        cache = payload[0] == 1
        return self.handle_certificate(payload[1:], now, cache=cache,
                                       from_node=header.sender)

    def handle_certificate(self, cert_bytes: bytes, now: int, *, cache: bool,
                           from_node: int) -> list[Outgoing]:
        try:
            cert = self.authority.open_certificate(cert_bytes)
        except messages.MessageError as exc:
            self._log(now, "cert_malformed", 0, type(exc).__name__)
            return []
        if cert.subject == self.node_id:
            return []
        key = cert.key()
        threshold = self.params.maliciousness_threshold
        if key in self.processed_certs:
            # the table already reflects a certificate with this key, but
            # these bytes need not be the ones checked then
            if cache and key not in self.cache and self.authority.check_certificate(
                    cert_bytes, threshold) is Verdict.VALID:
                self._cache_put(key, cert_bytes)
            return []

        verdict = self.authority.check_certificate(cert_bytes, threshold)
        if verdict is Verdict.VALID and \
                (cert.subject, cert.challenge_nonce) in self.responded and \
                self.node_id not in cert.respondent_ids():
            verdict = Verdict.DROPPED_FEEDBACK
        if verdict is not Verdict.VALID:
            self._log(now, "cert_rejected", cert.subject, verdict.value)
            if verdict is Verdict.DROPPED_FEEDBACK:
                # the aggregator suppressed this node's feedback: direct
                # evidence of protocol violation by the issuer
                self._condemn(cert.issuer, now)
            return []

        self.processed_certs[key] = now
        entry = self.table.setdefault(cert.subject, TableEntry())
        effective = [r for r in cert.responses if r.weight_raw > 0]
        fingerprint = frozenset(r.respondent for r in effective)
        k = 2 if fingerprint in entry.accepted_respondent_sets else 1
        a3 = trust_math.alpha3(k)
        obs = [
            trust_math.MaliciousnessObservation(
                respondent=r.respondent,
                maliciousness=from_fixed(r.maliciousness_raw),
                weight=from_fixed(r.weight_raw),
                respondent_trust=self._trust_in(r.respondent),
            )
            for r in effective
        ]
        a1, adverse = 0.0, False
        if obs:
            group = trust_math.group_trust(obs, threshold)
            a1 = trust_math.alpha1(group.majority, sum(o.weight for o in obs))
            adverse = group.majority_adverse
        b = trust_math.beta(a1, self.params.alpha2, a3)
        t_old = entry.rep_val
        t_new = trust_math.update_trust(
            t_old, from_fixed(cert.group_trust_raw), self.params.alpha, b, 0.0)
        entry.rep_val = t_new
        entry.accepted_respondent_sets.add(fingerprint)
        self._log(now, "cert_accepted", cert.subject,
                  f"t={t_new:.4f} b={b:.4f}")
        if cache:
            self._cache_put(key, cert_bytes)

        out = []
        if adverse:
            # pass adverse certificates on to the subject's other known
            # neighbors (the respondents we can still reach directly)
            targets = (set(self.neighbors) & set(cert.respondent_ids())) \
                - {from_node, cert.subject, self.node_id}
            for neighbor in sorted(targets):
                out.append(self._send(neighbor, RepMessType.REP_BROADCAST,
                                      cert.subject, 0, b"\x01" + cert_bytes, now))
        if t_new < trust_math.MALICIOUS_BELOW:
            self.schedule_alarm(cert.subject, now)
        return out

    def _trust_in(self, node: int) -> float:
        entry = self.table.get(node)
        return entry.rep_val if entry is not None else 1.0

    def _cache_put(self, key: tuple, cert_bytes: bytes) -> None:
        if key in self.cache:
            return
        while len(self.cache) >= self.params.cache_capacity:
            self.cache.popitem(last=False)
        self.cache[key] = cert_bytes

    # --- alarm raiser -----------------------------------------------------

    def _condemn(self, subject: int, now: int) -> None:
        """Direct evidence of misbehavior: trust drops to 0 and an alarm
        is queued."""
        self.table.setdefault(subject, TableEntry()).rep_val = 0.0
        self.schedule_alarm(subject, now)

    def _may_alarm(self, subject: int, now: int) -> bool:
        """True unless the subject is isolated, this node has raised an
        alarm on it, or another raiser's alarm on it is still within its
        cooldown."""
        if subject in self.isolated or subject in self.alarmed:
            return False
        last_seen = self.last_alarm_seen_ms.get(subject)
        return last_seen is None or now - last_seen >= ms(self.params.alarm_cooldown_s)

    def schedule_alarm(self, subject: int, now: int) -> None:
        """Queue an alarm with a short random holdoff.

        Many nodes typically learn of the same adverse certificate within
        one broadcast round; the jitter lets the first raiser's flood reach
        the rest before their own raise fires, so one alarm (not one per
        recipient) goes network-wide.
        """
        if subject in self.pending_alarms or not self._may_alarm(subject, now):
            return
        self.pending_alarms[subject] = \
            now + self.rng.randint(0, self.params.alarm_jitter_ms)

    def raise_global_alarm(self, subject: int, now: int) -> list[Outgoing]:
        if not self._may_alarm(subject, now):
            return []
        self.alarmed.add(subject)
        nonce = self._nonce()
        state = AlarmState(subject=subject, nonce=nonce,
                           deadline_ms=now + ms(self.params.vote_window_s))
        own_tag = messages.tag(
            vote_sign_bytes(subject, self.node_id, self.node_id, nonce, True),
            self.secret)
        state.votes[self.node_id] = (True, own_tag)
        self.alarms[subject] = state
        self.last_alarm_seen_ms[subject] = now
        self._log(now, "alarm_raised", subject, "")
        return self._start_flood(0, subject, nonce,
                                 _ALARM_PAYLOAD.pack(0, self.node_id, nonce), now)

    def _start_flood(self, kind: int, subject: int, nonce: int, payload: bytes,
                     now: int) -> list[Outgoing]:
        """Broadcast this node's own flood, keyed first so that it relays no copy."""
        self.flood_seen.add((kind, subject, self.node_id, nonce))
        return [self._send(None, RepMessType.GLOBAL_ALARM, subject, 0, payload, now)]

    def _on_global_alarm(self, header: ReputationHeader, payload: bytes,
                         now: int) -> list[Outgoing]:
        if len(payload) < _ALARM_PAYLOAD.size:
            return []
        kind, raiser, alarm_nonce = _ALARM_PAYLOAD.unpack_from(payload)
        subject = header.subject
        # an alarm (kind 0) and its verdict (kind 1) are keyed alike; no other kind is
        flood_key = (kind, subject, raiser, alarm_nonce)
        if kind > 1 or flood_key in self.flood_seen:
            return []
        self.flood_seen.add(flood_key)
        if kind == 1:
            return self._on_verdict(subject, raiser, alarm_nonce, payload, now)
        self.last_alarm_seen_ms[subject] = now
        # someone else beat this node's own pending raise to it
        self.pending_alarms.pop(subject, None)
        # re-broadcast once, then vote if this node has an opinion
        out = [self._send(None, RepMessType.GLOBAL_ALARM, subject, 0, payload, now)]
        if subject == self.node_id or raiser == self.node_id:
            return out
        vote = self._alarm_vote(subject, now)
        if vote is None:
            return out
        vtag = messages.tag(
            vote_sign_bytes(subject, raiser, self.node_id, alarm_nonce, vote),
            self.secret)
        vote_payload = _VOTE_PAYLOAD.pack(0, raiser, alarm_nonce, self.node_id,
                                          vote, vtag)
        self._log(now, "vote", subject, f"v={int(vote)} to={raiser}")
        out.append(self._send(raiser, RepMessType.ALARM_VOTE, subject,
                              to_fixed(1.0) if vote else 0, vote_payload, now))
        return out

    def _alarm_vote(self, subject: int, now: int) -> bool | None:
        """Vote on an alarm, or None when not an eligible voter.

        Eligible = interacted with the subject recently *and* holds an
        opinion (a table entry, or monitor samples when no entry exists).
        """
        last = self.last_contact_ms.get(subject)
        if last is None or now - last > ms(self.params.interaction_window_s):
            return None
        entry = self.table.get(subject)
        m, denom = self._window_maliciousness(subject, now)
        if denom > 0 and m > self.params.monitor_threshold:
            # first-hand observation of misbehavior outranks whatever
            # second-hand certificates put in the table
            return True
        if entry is not None:
            return entry.rep_val < trust_math.MALICIOUS_BELOW
        if denom == 0:
            return None
        return False

    def _signed_vote(self, subject: int, raiser: int, alarm_nonce: int,
                     voter: int, vote_byte: int, vtag: bytes) -> bool | None:
        """A record's vote (byte 1: yes, else no); None unless the voter signed it."""
        vote = vote_byte == 1
        signed = vote_sign_bytes(subject, raiser, voter, alarm_nonce, vote)
        return vote if self.authority.verify_node(voter, signed, vtag) else None

    def _on_alarm_vote(self, header: ReputationHeader, payload: bytes,
                       now: int) -> list[Outgoing]:
        if len(payload) != _VOTE_PAYLOAD.size:
            return []
        _, raiser, alarm_nonce, voter, vote_byte, vtag = _VOTE_PAYLOAD.unpack(payload)
        if raiser != self.node_id or voter != header.sender:
            return []
        state = self.alarms.get(header.subject)
        if state is None or state.nonce != alarm_nonce or now > state.deadline_ms:
            return []
        vote = self._signed_vote(header.subject, raiser, alarm_nonce, voter,
                                 vote_byte, vtag)
        if vote is not None:
            state.votes.setdefault(voter, (vote, vtag))
        return []

    def _tally_alarm(self, state: AlarmState, now: int) -> list[Outgoing]:
        votes = state.votes
        yes = sum(1 for v, _ in votes.values() if v)
        total = len(votes)
        self._log(now, "alarm_tally", state.subject, f"yes={yes} total={total}")
        if not self.params.quorum(yes, total):
            self._log(now, "alarm_expired", state.subject, "")
            return []
        self.isolated.add(state.subject)
        self._log(now, "isolated", state.subject, f"yes={yes} total={total}")
        payload = _VERDICT_HEAD.pack(1, self.node_id, state.nonce, total) + \
            b"".join(_VOTE_RECORD.pack(voter, v, vtag)
                     for voter, (v, vtag) in sorted(votes.items()))
        return self._start_flood(1, state.subject, state.nonce, payload, now)

    def _on_verdict(self, subject: int, raiser: int, alarm_nonce: int,
                    payload: bytes, now: int) -> list[Outgoing]:
        if len(payload) < _VERDICT_HEAD.size:
            return []
        count = _VERDICT_HEAD.unpack_from(payload)[-1]
        records = payload[_VERDICT_HEAD.size:]
        if len(records) != count * _VOTE_RECORD.size:
            return []
        votes: dict[int, bool] = {}  # the first validly signed vote of each voter
        for voter, vote_byte, vtag in _VOTE_RECORD.iter_unpack(records):
            if voter not in votes:
                vote = self._signed_vote(subject, raiser, alarm_nonce, voter,
                                         vote_byte, vtag)
                if vote is not None:
                    votes[voter] = vote
        out = [self._send(None, RepMessType.GLOBAL_ALARM, subject, 0, payload, now)]
        if self.params.quorum(sum(votes.values()), len(votes)) and \
                subject != self.node_id:
            self.isolated.add(subject)
            self.pending_alarms.pop(subject, None)
            self._log(now, "isolated", subject, f"verdict from={raiser}")
        return out

    # --- timers -----------------------------------------------------------

    def tick(self, now: int) -> list[Outgoing]:
        self.seen_nonces.rotate(now)
        self.flood_seen.rotate(now)
        out: list[Outgoing] = []
        # most ticks find every dict empty: skip copying their keys
        if self.challenges:
            for subject in list(self.challenges):
                state = self.challenges[subject]
                if not state.acked and now >= state.ack_deadline_ms:
                    # silence on challenge: treated as maximal maliciousness
                    self._log(now, "challenge_silent", subject, "")
                    self._condemn(subject, now)
                    del self.challenges[subject]
                elif now >= state.close_at_ms:
                    del self.challenges[subject]
        state = self.collect
        if state is not None and now >= state.deadline_ms:
            if state.collected:
                out.extend(self._aggregate(state, now))
            else:
                self.collect = None
        if self.pending_alarms:
            for subject, due in list(self.pending_alarms.items()):
                if now >= due:
                    del self.pending_alarms[subject]
                    out.extend(self.raise_global_alarm(subject, now))
        if self.alarms:
            for subject in list(self.alarms):
                state = self.alarms[subject]
                if now >= state.deadline_ms:
                    out.extend(self._tally_alarm(state, now))
                    del self.alarms[subject]
        # retry subjects the table condemns but the network has not yet
        # isolated (e.g. another raiser's alarm fell short of quorum and
        # its cooldown has passed; this node raises at most once)
        for subject, entry in self.table.items():
            if entry.rep_val < trust_math.MALICIOUS_BELOW and \
                    subject not in self.isolated:
                self.schedule_alarm(subject, now)
        return out

    def replenish_tick(self) -> None:
        for entry in self.table.values():
            entry.rep_val = trust_math.replenish(entry.rep_val, self.params.delta)

    # --- adversary hooks (honest defaults) --------------------------------

    def _select_responses(self, responses: list[CertResponse]) -> list[CertResponse]:
        return responses

    def shares_cache(self) -> bool:
        return True

    def outgoing_cache_bytes(self, key: tuple) -> bytes | None:
        return self.cache.get(key)
