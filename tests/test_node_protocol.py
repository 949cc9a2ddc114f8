"""Protocol state machine driven directly, without the simulator: the
challenge/collect/certificate flow, alarm voting, escalations, and the
exchange-round delivery bound on static topologies."""

import dataclasses
import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustwatch import messages, trust_math
from trustwatch.messages import (
    Authority,
    CertResponse,
    GroupTrustCertificate,
    RepMessType,
    ReputationHeader,
    build_certificate,
    certificate_body_bytes,
    encode_certificate,
    encode_rep_mess,
    response_sign_bytes,
    tag,
    to_fixed,
)
from trustwatch.node_protocol import (
    OUTCOME_DROP,
    OUTCOME_MODIFIED,
    OUTCOME_OK,
    _ALARM_PAYLOAD,
    _RESP_PAYLOAD,
    _VOTE_PAYLOAD,
    _VOTE_RECORD,
    MonitorWindow,
    Node,
    ProtocolParams,
    vote_sign_bytes,
)
from trustwatch.sim import ScenarioConfig

THRESHOLD = 0.5


def secret_for(nid: int) -> bytes:
    return bytes([nid % 251 + 1]) * 16


class FeedbackDropper(Node):
    """Accused that silently discards adverse feedback when aggregating."""

    def _select_responses(self, responses):
        thr = int(self.params.maliciousness_threshold * 10000)
        return [r for r in responses if r.maliciousness_raw < thr]


class World:
    """Fully synchronous ether for a handful of nodes."""

    def __init__(self, n, adjacency=None, params=None, node_cls=None,
                 node_cls_for=None):
        if params is None:
            params = ProtocolParams(min_samples=3)
            params.alarm_jitter_ms = 1_000
        self.params = params
        self.authority = Authority()
        self.nodes = {}
        for nid in range(1, n + 1):
            cls = Node
            if node_cls_for and nid in node_cls_for:
                cls = node_cls_for[nid]
            elif node_cls is not None:
                cls = node_cls
            self.authority.enroll(nid, secret_for(nid))
            self.nodes[nid] = cls(nid, secret_for(nid), self.authority,
                                  self.params, seed=nid)
        ids = sorted(self.nodes)
        if adjacency is None:
            adjacency = {nid: [o for o in ids if o != nid] for nid in ids}
        self.adjacency = adjacency
        for nid, node in self.nodes.items():
            node.set_neighbors(adjacency[nid])
        self.blocked = set()

    def deliver(self, sender, outgoings, now):
        queue = [(sender, o) for o in outgoings]
        while queue:
            src, out = queue.pop(0)
            targets = ([out.dest] if out.dest is not None
                       else list(self.adjacency[src]))
            for dst in targets:
                if dst == src or (src, dst) in self.blocked:
                    continue
                more = self.nodes[dst].receive(out.data, now)
                queue.extend((dst, m) for m in more)

    def tick_all(self, now):
        for nid in sorted(self.nodes):
            self.deliver(nid, self.nodes[nid].tick(now), now)

    def run_ticks(self, start, end, step=500):
        for now in range(start, end + 1, step):
            self.tick_all(now)


def feed_drops(world, observer, subject, now, count=4):
    """Push enough drop observations through the observer's monitor to
    cross the suspicion threshold, delivering whatever it emits."""
    outs = []
    for i in range(count):
        outs += world.nodes[observer].monitor_observe(
            subject, OUTCOME_DROP, now + i)
    world.deliver(observer, outs, now + count)
    return outs


def make_cert(subject, respondents, ms, nonce, at_ms, issuer=None, ws=None):
    issuer = issuer if issuer is not None else subject
    ws = ws if ws is not None else [1.0] * len(respondents)
    responses = []
    for rid, m, w in zip(respondents, ms, ws):
        m_raw, w_raw = to_fixed(m), to_fixed(w)
        rtag = tag(response_sign_bytes(subject, rid, m_raw, w_raw, nonce),
                   secret_for(rid))
        responses.append(CertResponse(rid, m_raw, w_raw, rtag))
    return build_certificate(subject=subject, issuer=issuer, issued_at_ms=at_ms,
                             challenge_nonce=nonce, responses=responses,
                             threshold=THRESHOLD, issuer_secret=secret_for(issuer))


# --- watchdog window ------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(span=st.integers(0, 6),
       ops=st.lists(st.tuples(st.integers(0, 3),
                              st.sampled_from([None, OUTCOME_OK, OUTCOME_DROP,
                                               OUTCOME_MODIFIED])),
                    max_size=60))
def test_monitor_window_rate_matches_a_fresh_recount(span, ops):
    """Samples arrive in time order and queries never go back in time; each
    add (outcome) and query (None) must equal a recount over the samples
    with t >= now - span. Small steps and spans put many samples exactly
    on the horizon."""
    window, samples, now = MonitorWindow(span), [], 0
    for step, outcome in ops:
        now += step
        if outcome is None:
            got = window.rate(now)
        else:
            samples.append((now, outcome))
            got = window.add(now, outcome)
        live = [o for t, o in samples if t >= now - span]
        bad = sum(1 for o in live if o != OUTCOME_OK)
        assert got == ((bad / len(live) if live else 0.0), len(live))


# --- challenge / certificate flow ----------------------------------------

def test_suspicion_triggers_challenge_and_certificate():
    world = World(5)
    for observer in (1, 2, 3, 4):
        feed_drops(world, observer, 5, now=1000)
    # every watcher saw pure dropping, so the aggregated certificate is
    # adverse and each neighbor's trust in 5 collapses
    for nid in (1, 2, 3, 4):
        entry = world.nodes[nid].table.get(5)
        assert entry is not None
        assert entry.rep_val < trust_math.MALICIOUS_BELOW
        assert 5 in world.nodes[nid].pending_alarms
    # the accused cached its own certificates
    assert len(world.nodes[5].cache) >= 1


def test_full_detection_and_network_isolation():
    world = World(5)
    for observer in (1, 2, 3, 4):
        feed_drops(world, observer, 5, now=1000)
    world.run_ticks(1500, 20_000)
    for nid in (1, 2, 3, 4):
        assert 5 in world.nodes[nid].isolated


def test_respondent_with_no_samples_reports_zero_weight():
    world = World(5)
    feed_drops(world, 1, 5, now=1000)
    # only node 1 had observations; 2-4 responded with weight 0 and are
    # excluded, so the majority is node 1's adverse report
    cert = messages.decode_certificate(next(iter(world.nodes[5].cache.values())))
    weights = {r.respondent: r.weight_raw for r in cert.responses}
    assert weights[1] > 0
    assert weights[2] == weights[3] == weights[4] == 0
    entry = world.nodes[2].table[5]
    assert entry.rep_val < trust_math.MALICIOUS_BELOW


def test_challenge_silence_escalates():
    world = World(3)
    world.blocked = {(1, 3), (3, 1)}  # challenge never reaches node 3
    feed_drops(world, 1, 3, now=1000)
    node = world.nodes[1]
    assert 3 in node.challenges
    world.run_ticks(1500, 4_000)
    assert node.table[3].rep_val == 0.0
    assert 3 in node.pending_alarms or 3 in node.alarms


def test_dropped_feedback_detected_by_omitted_respondent():
    world = World(5, node_cls_for={5: FeedbackDropper})
    for observer in (1, 2, 3, 4):
        feed_drops(world, observer, 5, now=1000)
    # node 5 pruned all adverse responses; every omitted respondent must
    # notice its own feedback is missing and condemn the issuer directly
    for nid in (1, 2, 3, 4):
        assert world.nodes[nid].table[5].rep_val == 0.0
        assert 5 in world.nodes[nid].pending_alarms


def test_duplicate_respondent_set_contributes_beta_zero():
    world = World(6)
    node = world.nodes[1]
    c1 = make_cert(5, (2, 3, 4), (0.9, 0.9, 0.9), nonce=10, at_ms=1000)
    node.handle_certificate(encode_certificate(c1), 1000, cache=True,
                            from_node=5)
    t1 = node.table[5].rep_val
    assert t1 == pytest.approx(1.0 - 0.8 * 0.9)

    c2 = make_cert(5, (2, 3, 4), (0.9, 0.9, 0.9), nonce=11, at_ms=2000)
    node.handle_certificate(encode_certificate(c2), 2000, cache=True,
                            from_node=5)
    t2 = node.table[5].rep_val
    expected = trust_math.update_trust(t1, 0.1, node.params.alpha, 0.0, 0.0)
    assert t2 == pytest.approx(expected)

    # a genuinely different respondent set counts again
    c3 = make_cert(5, (2, 3, 6), (0.9, 0.9, 0.9), nonce=12, at_ms=3000)
    node.handle_certificate(encode_certificate(c3), 3000, cache=True,
                            from_node=5)
    t3 = node.table[5].rep_val
    assert t3 != pytest.approx(expected)
    assert t3 == pytest.approx(
        trust_math.update_trust(t2, 0.1, node.params.alpha, 0.8, 0.0))


def test_identical_certificate_processed_once():
    world = World(5)
    node = world.nodes[1]
    cert = make_cert(5, (2, 3, 4), (0.9, 0.9, 0.9), nonce=10, at_ms=1000)
    data = encode_certificate(cert)
    node.handle_certificate(data, 1000, cache=True, from_node=5)
    t1 = node.table[5].rep_val
    node.handle_certificate(data, 2000, cache=True, from_node=5)
    assert node.table[5].rep_val == t1


def test_tampered_certificate_rejected_and_table_untouched():
    world = World(5)
    node = world.nodes[1]
    data = bytearray(encode_certificate(
        make_cert(5, (2, 3, 4), (0.0, 0.0, 0.0), nonce=10, at_ms=1000)))
    data[20] ^= 0x01
    node.handle_certificate(bytes(data), 1000, cache=True, from_node=5)
    assert 5 not in node.table
    assert len(node.cache) == 0


def test_duplicate_key_certificate_cached_only_if_valid():
    world = World(5)
    node = world.nodes[1]
    cert = make_cert(5, (2, 3, 4), (0.9, 0.9, 0.9), nonce=10, at_ms=1000)
    data = encode_certificate(cert)
    node.handle_certificate(data, 1000, cache=False, from_node=5)
    assert cert.key() in node.processed_certs and cert.key() not in node.cache
    # the same key with one bit of the first response tag flipped
    tampered = bytearray(data)
    tampered[messages._CERT_HEAD.size + messages._CERT_RESP.size
             - messages.TAG_LEN] ^= 0x01
    tampered = bytes(tampered)
    assert messages.verify_group_certificate(
        messages.decode_certificate(tampered), THRESHOLD, world.authority) \
        is messages.Verdict.TAMPERED_RESPONSE
    node.handle_certificate(tampered, 2000, cache=True, from_node=5)
    assert cert.key() not in node.cache
    node.handle_certificate(data, 3000, cache=True, from_node=5)
    assert node.cache[cert.key()] == data


@pytest.mark.parametrize("reports,order", [
    ({2: 0.0, 3: 1.0, 4: 1.0}, (2, 2, 2, 3, 4)),  # a favourable response thrice
    ({2: 0.0, 3: 1.0, 5: 0.0}, (2, 3, 5)),  # the subject vouches for itself
    ({2: 0.0, 3: 1.0, 4: 1.0}, (3, 2, 4)),  # out of ascending order
], ids=["repeated", "subject", "unordered"])
def test_certificate_respondents_must_ascend_and_exclude_the_subject(
        reports, order):
    """Every tag of these certificates verifies and each group trust
    matches its responses, but only distinct respondents other than the
    subject, in ascending order, make a certificate. Respondent 3, whose
    adverse response is inside, rejects each one."""
    world = World(5)
    node = world.nodes[3]
    ids = sorted(order)
    cert = make_cert(5, ids, [reports[r] for r in ids], nonce=10, at_ms=1000)
    by_id = {r.respondent: r for r in cert.responses}
    body = certificate_body_bytes(dataclasses.replace(
        cert, responses=tuple(by_id[r] for r in order)))
    data = body + tag(body, secret_for(5))
    assert messages.verify_group_certificate(
        messages.decode_certificate(data), THRESHOLD, world.authority) \
        is messages.Verdict.TAMPERED_RESPONSE
    assert node.handle_certificate(data, 1000, cache=True, from_node=5) == []
    assert logged(node) == [("cert_rejected", 5, "tampered_response")]
    assert 5 not in node.table


def test_wire_bytes_of_each_sent_frame_type_are_pinned():
    """The first frame of each type a full detection run sends (alarm and
    verdict floods apart) and one certificate, hashed together. Every log
    stays the same if both ends of a layout change alike; this does not."""
    world = World(5)
    first = {}
    for node in world.nodes.values():
        def receive(data, now, _receive=node.receive):
            header, payload, _ = messages.decode_rep_mess(data)
            flood_kind = payload[:1] \
                if header.mess_type == RepMessType.GLOBAL_ALARM else b""
            first.setdefault((header.mess_type, flood_kind), data)
            return _receive(data, now)
        node.receive = receive
    for observer in (1, 2, 3, 4):
        feed_drops(world, observer, 5, now=1000)
    world.run_ticks(1500, 20_000)
    assert sorted(first) == sorted(
        [(t, b"") for t in RepMessType if t not in (
            RepMessType.REP_REQUEST, RepMessType.CERT_EXCHANGE,
            RepMessType.GLOBAL_ALARM)]
        + [(RepMessType.GLOBAL_ALARM, b"\x00"), (RepMessType.GLOBAL_ALARM, b"\x01")])
    cert = make_cert(5, (2, 3, 4), (0.9, 0.1, 0.6), nonce=10, at_ms=1000,
                     ws=(1.0, 0.5, 0.0))
    wire = b"".join(first[key] for key in sorted(first)) + encode_certificate(cert)
    assert hashlib.sha256(wire).hexdigest() == \
        "d0d21b8c1a26c85fe8b851265b24990e748f19cab31a1f6038be394a61e4dda4"


def test_replay_of_identical_frame_ignored():
    world = World(3)
    accused = world.nodes[3]
    frames = world.nodes[1].initiate_challenge(3, 1000)
    assert len(frames) == 1
    first = accused.receive(frames[0].data, 1001)
    assert first  # ack + verify-behavior round
    assert accused.receive(frames[0].data, 1002) == []
    assert logged(accused)[-1] == ("replayed_frame", 1, "")


def test_stale_frame_outside_replay_window_ignored():
    world = World(3)
    frames = world.nodes[1].initiate_challenge(3, 1000)
    span = (world.params.node_count + 1) * world.params.hop_latency_ms
    assert world.nodes[3].receive(frames[0].data, 1000 + span + 1) == []
    assert logged(world.nodes[3]) == [("stale_frame", 1, "")]


def test_a_unicast_across_the_whole_network_is_fresh():
    """A unicast crosses at most node_count - 1 hops, so it is accepted
    that old, whatever the exchange interval; it is stale one ms past
    the span."""
    cfg = ScenarioConfig(node_count=16, exchange_interval_s=0.003)
    world = World(3, params=cfg)
    oldest = (cfg.node_count - 1) * cfg.hop_latency_ms
    frame = world.nodes[1].initiate_challenge(3, 1000)[0].data
    assert world.nodes[3].receive(frame, 1000 + oldest)
    frame = world.nodes[2].initiate_challenge(3, 1000)[0].data
    assert world.nodes[3].receive(frame, 1000 + cfg.flood_span_ms + 1) == []
    assert logged(world.nodes[3])[-1] == ("stale_frame", 2, "")


def test_replay_just_before_a_rotation_still_rejected_after_it():
    params = ProtocolParams(min_samples=3, node_count=3, hop_latency_ms=250)
    params.alarm_jitter_ms = 1_000
    window = (params.node_count + 1) * params.hop_latency_ms
    world = World(3, params=params)
    accused = world.nodes[3]
    frame = world.nodes[1].initiate_challenge(3, window - 2)[0].data
    assert accused.receive(frame, window - 1)
    accused.tick(window)
    assert accused.seen_nonces.rotated_ms == window
    assert accused.receive(frame, window + 1) == []
    # the next rotation drops the key; the frame's timestamp still rejects it
    accused.tick(2 * window)
    assert len(accused.seen_nonces) == 0
    assert accused.receive(frame, 2 * window) == []


# --- hostile input from enrolled senders ----------------------------------

def logged(node):
    """The (kind, subject, detail) of each record the node has logged."""
    return [(kind, subject, detail) for _, kind, _, subject, detail in node.log]


def response_frame(respondent, accused, collect_nonce, w_raw, now, nonce):
    """A REP_RESPONSE to ``collect_nonce`` signed by ``respondent``."""
    rtag = tag(response_sign_bytes(accused, respondent, 0, w_raw, collect_nonce),
               secret_for(respondent))
    header = ReputationHeader(
        mess_type=int(RepMessType.REP_RESPONSE), subject=accused, rep_val_raw=0,
        timestamp_ms=now, nonce=nonce, sender=respondent)
    return messages.encode_rep_mess(
        header, _RESP_PAYLOAD.pack(w_raw, collect_nonce, rtag),
        secret_for(respondent))


def test_rep_response_weight_over_scale_rejected_and_logged():
    world = World(3)
    accused = world.nodes[3]
    round_out = accused.receive(
        world.nodes[1].initiate_challenge(3, 1000)[0].data, 1001)
    state = accused.collect
    w_raw = 65535
    frame = response_frame(2, 3, state.nonce, w_raw, 1002, nonce=99)
    assert accused.receive(frame, 1002) == []
    assert ("response_rejected", 2, f"w={w_raw}") in logged(accused)
    assert state.collected == {}
    # the honest responses still complete the round
    world.deliver(3, round_out, 1003)
    assert accused.collect is None and set(state.collected) == {1, 2}


@pytest.mark.parametrize("close", ["last_response", "deadline"])
def test_closed_collection_round_ignores_late_responses_and_frees_the_slot(
        close):
    world = World(3)
    accused = world.nodes[3]
    round_out = accused.receive(
        world.nodes[1].initiate_challenge(3, 1000)[0].data, 1000)
    old = accused.collect
    assert old is not None and old.expected == {1, 2}
    if close == "last_response":
        world.deliver(3, round_out, 1001)
        now = 1002
    else:
        now = old.deadline_ms
        accused.tick(now)
    assert accused.collect is None
    issued = sum(kind == "cert_issued" for kind, _, _ in logged(accused))
    assert issued == (close == "last_response")

    # a late response to the closed round changes nothing
    late = response_frame(2, 3, old.nonce, to_fixed(1.0), now, nonce=77)
    assert accused.receive(late, now) == []
    assert accused.collect is None

    # a new challenge opens a fresh round at once
    out = accused.receive(world.nodes[2].initiate_challenge(3, now)[0].data, now)
    assert [o.mess_type for o in out] == [RepMessType.CHALLENGE_ACK,
                                          RepMessType.VERIFY_BEHAVIOR]
    fresh = accused.collect
    assert fresh is not old and fresh.nonce != old.nonce
    # ... and a late response to the old round does not count toward it
    late = response_frame(2, 3, old.nonce, to_fixed(1.0), now, nonce=78)
    assert accused.receive(late, now) == []
    assert fresh.collected == {}
    world.deliver(3, out[1:], now + 1)
    assert accused.collect is None and set(fresh.collected) == {1, 2}
    assert sum(kind == "cert_issued" for kind, _, _ in logged(accused)) \
        == issued + 1


def test_a_round_closed_by_its_deadline_certifies_the_responses_it_has():
    world = World(4)
    accused = world.nodes[4]
    round_out = accused.receive(
        world.nodes[1].initiate_challenge(4, 1000)[0].data, 1000)
    state = accused.collect
    assert state.expected == {1, 2, 3}
    world.blocked = {(3, 4)}  # node 3's response never arrives
    world.deliver(4, round_out, 1001)
    assert list(state.collected) == [1, 2]
    assert accused.tick(state.deadline_ms - 1) == []
    assert accused.collect is state

    out = accused.tick(state.deadline_ms)
    assert accused.collect is None
    assert ("cert_issued", 4, "gt=10000 n=2") in logged(accused)
    (data,) = accused.cache.values()
    assert accused.authority.check_certificate(data, THRESHOLD) \
        is messages.Verdict.VALID
    cert = messages.decode_certificate(data)
    assert cert.issued_at_ms == state.deadline_ms
    assert cert.challenge_nonce == state.nonce
    assert list(cert.responses) == list(state.collected.values())
    # the certificate goes to every neighbor, the silent one included
    assert [(o.dest, o.mess_type) for o in out] == \
        [(nid, RepMessType.REP_BROADCAST) for nid in (1, 2, 3)]


def test_certificate_with_out_of_range_response_logged_as_malformed():
    world = World(5)
    node = world.nodes[1]
    m_raw, w_raw, nonce = 60000, to_fixed(1.0), 10
    rtag = tag(response_sign_bytes(5, 2, m_raw, w_raw, nonce), secret_for(2))
    body = certificate_body_bytes(GroupTrustCertificate(
        subject=5, issuer=5, issued_at_ms=1000, challenge_nonce=nonce,
        group_trust_raw=0, responses=(CertResponse(2, m_raw, w_raw, rtag),),
        certificate_tag=b""))
    data = body + tag(body, secret_for(5))
    assert node.handle_certificate(data, 1000, cache=True, from_node=5) == []
    assert logged(node) == [("cert_malformed", 0, "RepValOverflow")]
    assert 5 not in node.table
    assert len(node.cache) == 0


def primed_node():
    """Node 3 of five with a collection round open on itself, a challenge
    open against node 5 and its own alarm on node 4 open, so every handler
    has state a hostile frame can reach. Returns the node and the three
    nonces that state answers to."""
    world = World(5)
    node = world.nodes[3]
    node.receive(world.nodes[1].initiate_challenge(3, 1000)[0].data, 1000)
    node.initiate_challenge(5, 1000)
    node.raise_global_alarm(4, 1000)
    return node, [node.collect.nonce, node.challenges[5].nonce,
                  node.alarms[4].nonce]


@pytest.mark.parametrize("mtype", list(RepMessType), ids=lambda t: t.name)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_no_signed_frame_raises_out_of_a_handler(mtype, data):
    """Whatever an enrolled sender signs, the honest node rejects or
    handles it; nothing escapes receive, handle_certificate or the next
    tick."""
    node, nonces = primed_node()
    draw = data.draw
    # ids 3 and 4 hold the primed state; 1..5 are enrolled, 0 is the
    # authority and 6..7 are unknown
    node_id = st.sampled_from([3, 4]) | st.integers(0, 7)
    nonce = st.sampled_from([*nonces, 0])  # 0 stands for any unknown nonce
    scale = messages.FIXED_POINT_SCALE
    raw = st.integers(0, scale) | st.integers(scale + 1, 0xFFFF)  # half over scale
    tag32 = st.binary(min_size=messages.TAG_LEN, max_size=messages.TAG_LEN)
    subject, sender = draw(node_id), draw(st.integers(1, 5))

    def maybe_signed(signed: bytes, signer: int) -> bytes:
        return tag(signed, secret_for(signer)) if draw(st.booleans()) \
            else draw(tag32)

    cert_subject, cert_nonce = draw(node_id), draw(nonce)
    responses = []
    for rid in draw(st.lists(node_id, max_size=4)):
        m_raw, w_raw = draw(raw), draw(raw)
        rtag = maybe_signed(
            response_sign_bytes(cert_subject, rid, m_raw, w_raw, cert_nonce), rid)
        responses.append(CertResponse(rid, m_raw, w_raw, rtag))
    issuer = draw(node_id)
    in_range = all(max(r.maliciousness_raw, r.weight_raw) <= scale
                   for r in responses)
    if in_range and draw(st.booleans()):
        cert = encode_certificate(build_certificate(
            cert_subject, issuer, draw(st.integers(0, 2000)), cert_nonce,
            responses, THRESHOLD, secret_for(issuer)))
    else:
        body = certificate_body_bytes(GroupTrustCertificate(
            subject=cert_subject, issuer=issuer,
            issued_at_ms=draw(st.integers(0, 2000)), challenge_nonce=cert_nonce,
            group_trust_raw=draw(raw), responses=tuple(responses),
            certificate_tag=b""))
        cert = body + maybe_signed(body, issuer)

    raiser, alarm_nonce = draw(node_id), draw(nonce)
    votes = draw(st.lists(st.tuples(st.just(sender) | node_id, st.booleans()),
                          min_size=1, max_size=4))
    records = [_VOTE_RECORD.pack(voter, int(vote), maybe_signed(
                   vote_sign_bytes(subject, raiser, voter, alarm_nonce, vote), voter))
               for voter, vote in votes]
    kind = draw(st.sampled_from([0, 1, 2]))  # flood, verdict, unknown
    verdict = _ALARM_PAYLOAD.pack(kind, raiser, alarm_nonce) \
        + struct.pack(">H", draw(st.just(len(records)) | st.integers(0, 0xFFFF))) \
        + b"".join(records)
    # the payload of the frame's own type half of the time, so frames get
    # past the length checks into each handler's logic
    fitting = {
        RepMessType.REP_RESPONSE: _RESP_PAYLOAD.pack(
            draw(raw), draw(st.just(nonces[0]) | nonce), draw(tag32)),
        RepMessType.REP_BROADCAST: draw(st.sampled_from([b"\x00", b"\x01"])) + cert,
        RepMessType.CHALLENGE: struct.pack(">Q", draw(nonce)),
        RepMessType.CHALLENGE_ACK: struct.pack(">Q", draw(nonce)),
        RepMessType.VERIFY_BEHAVIOR: struct.pack(">Q", draw(nonce)),
        RepMessType.GLOBAL_ALARM: verdict,  # a flood when kind is 0
        RepMessType.ALARM_VOTE:
            _ALARM_PAYLOAD.pack(0, raiser, alarm_nonce) + records[0],
    }
    fit = fitting.get(mtype, b"")
    payload = draw(st.just(fit) | st.one_of(
        st.integers(0, len(fit)).map(lambda n: fit[:n]), st.binary(max_size=120)))
    header = ReputationHeader(
        mess_type=int(mtype), subject=subject,
        rep_val_raw=draw(st.integers(0, scale)),
        timestamp_ms=draw(st.integers(0, 5000)), nonce=draw(nonce),
        sender=sender)
    node.receive(encode_rep_mess(header, payload, secret_for(sender)), 1010)
    node.handle_certificate(cert, 1020, cache=draw(st.booleans()),
                            from_node=sender)
    node.tick(20_000)


# --- alarms ---------------------------------------------------------------

def test_lone_false_accuser_cannot_isolate():
    world = World(6)
    accuser = world.nodes[1]
    world.deliver(1, accuser.raise_global_alarm(4, 1000), 1000)
    # nobody else interacted with node 4, so everyone abstains
    world.run_ticks(1500, 10_000)
    for nid in range(2, 7):
        assert 4 not in world.nodes[nid].isolated
    assert 4 not in accuser.isolated


def test_forged_verdict_without_quorum_rejected():
    world = World(5)
    accuser = world.nodes[1]
    nonce = 42
    own = vote_sign_bytes(4, 1, 1, nonce, True)
    record = _VOTE_RECORD.pack(1, 1, tag(own, secret_for(1)))
    payload = _ALARM_PAYLOAD.pack(1, 1, nonce) + struct.pack(">H", 1) + record
    frame = accuser._send(None, RepMessType.GLOBAL_ALARM, 4, 0, payload, 1000).data
    world.nodes[2].receive(frame, 1001)
    assert 4 not in world.nodes[2].isolated


def test_forged_verdict_with_invalid_votes_rejected():
    world = World(6)
    accuser = world.nodes[1]
    nonce = 43
    records = b""
    for voter in (1, 2, 3, 5):
        signed = vote_sign_bytes(4, 1, voter, nonce, True)
        # only the accuser's own vote carries a genuine tag
        key = secret_for(1) if voter == 1 else b"forged" * 5 + b"xx"
        records += _VOTE_RECORD.pack(voter, 1, tag(signed, key))
    payload = _ALARM_PAYLOAD.pack(1, 1, nonce) + struct.pack(">H", 4) + records
    frame = accuser._send(None, RepMessType.GLOBAL_ALARM, 4, 0, payload, 1000).data
    world.nodes[2].receive(frame, 1001)
    assert 4 not in world.nodes[2].isolated


def test_valid_verdict_accepted_by_third_party():
    world = World(6)
    nonce = 44
    records = b""
    for voter in (1, 2, 3):
        signed = vote_sign_bytes(4, 1, voter, nonce, True)
        records += _VOTE_RECORD.pack(voter, 1, tag(signed, secret_for(voter)))
    payload = _ALARM_PAYLOAD.pack(1, 1, nonce) + struct.pack(">H", 3) + records
    frame = world.nodes[1]._send(None, RepMessType.GLOBAL_ALARM, 4, 0,
                                 payload, 1000).data
    world.nodes[2].receive(frame, 1001)
    assert 4 in world.nodes[2].isolated


def verdict_payload(subject, raiser, nonce, voters, count=None):
    records = b"".join(
        _VOTE_RECORD.pack(
            voter, 1, tag(vote_sign_bytes(subject, raiser, voter, nonce, True),
                          secret_for(voter)))
        for voter in voters)
    count = len(voters) if count is None else count
    return _ALARM_PAYLOAD.pack(1, raiser, nonce) + struct.pack(">H", count) + records


def test_verdict_with_a_flipped_vote_tag_is_tallied_on_its_own_bytes():
    world = World(6)
    nonce = 45
    valid = verdict_payload(4, 1, nonce, (1, 2, 3))
    raiser = world.nodes[1]
    world.nodes[2].receive(
        raiser._send(None, RepMessType.GLOBAL_ALARM, 4, 0, valid, 1000).data, 1001)
    assert 4 in world.nodes[2].isolated
    # the same verdict with voter 3's tag flipped, to a node that has not
    # seen the valid one, after the valid one's tags were checked
    flipped = bytearray(valid)
    flipped[-1] ^= 0x01
    flipped = bytes(flipped)
    out = world.nodes[5].receive(
        raiser._send(None, RepMessType.GLOBAL_ALARM, 4, 0, flipped, 1000).data, 1001)
    assert 4 not in world.nodes[5].isolated  # two valid votes of three
    assert [o.data[messages.HEADER_LEN:-messages.TAG_LEN] for o in out] == [flipped]


def test_malformed_verdict_is_not_rebroadcast():
    world = World(6)
    nonce = 46
    short = verdict_payload(4, 1, nonce, (1, 2, 3), count=4)
    for nid in (2, 5):  # the second receiver gets the memoized frame
        frame = world.nodes[1]._send(None, RepMessType.GLOBAL_ALARM, 4, 0,
                                     short, 1000).data
        assert world.nodes[nid].receive(frame, 1001) == []
        assert (1, 4, 1, nonce) in world.nodes[nid].flood_seen
        assert 4 not in world.nodes[nid].isolated
    # the flood key was recorded: a well-formed verdict with the same key
    # is a duplicate
    valid = verdict_payload(4, 1, nonce, (1, 2, 3))
    frame = world.nodes[1]._send(None, RepMessType.GLOBAL_ALARM, 4, 0, valid, 1000).data
    assert world.nodes[2].receive(frame, 1002) == []
    assert 4 not in world.nodes[2].isolated


def test_first_hand_observation_outranks_doctored_certificate():
    world = World(5)
    voter = world.nodes[1]
    for i in range(4):
        voter.monitor_observe(5, OUTCOME_DROP, 1000 + i)
    # a benign-looking certificate lands in the table anyway
    cert = make_cert(5, (2, 3, 4), (0.0, 0.0, 0.0), nonce=9, at_ms=900)
    voter.handle_certificate(encode_certificate(cert), 1005, cache=False,
                             from_node=5)
    assert voter.table[5].rep_val > trust_math.MALICIOUS_BELOW
    assert voter._alarm_vote(5, 1010) is True


def test_alarm_suppressed_after_seeing_flood():
    world = World(5)
    a, b = world.nodes[1], world.nodes[2]
    flood = a.raise_global_alarm(5, 1000)
    assert len(flood) == 1
    world.deliver(1, flood, 1000)
    b.schedule_alarm(5, 1100)
    assert 5 not in b.pending_alarms


def test_cooperative_node_votes_no():
    world = World(5)
    voter = world.nodes[1]
    for i in range(20):
        voter.monitor_observe(5, OUTCOME_OK, 1000 + i)
    assert voter._alarm_vote(5, 1050) is False


def test_no_interaction_means_abstain():
    world = World(5)
    assert world.nodes[1]._alarm_vote(5, 1000) is None


def test_a_late_vote_or_a_vote_for_another_alarm_is_not_counted():
    world = World(5)
    raiser = world.nodes[1]
    raiser.raise_global_alarm(5, 1000)
    state = raiser.alarms[5]
    assert state.deadline_ms == 1000 + 1000 * raiser.params.vote_window_s

    def vote(voter, alarm_nonce, now):
        vtag = tag(vote_sign_bytes(5, 1, voter, alarm_nonce, True),
                   secret_for(voter))
        payload = _VOTE_PAYLOAD.pack(0, 1, alarm_nonce, voter, 1, vtag)
        frame = world.nodes[voter]._send(1, RepMessType.ALARM_VOTE, 5,
                                         to_fixed(1.0), payload, now).data
        assert raiser.receive(frame, now) == []

    vote(2, state.nonce ^ 1, 1001)  # signed, but for another alarm
    vote(3, state.nonce, state.deadline_ms + 1)  # after the vote window
    assert set(state.votes) == {1}
    vote(4, state.nonce, state.deadline_ms)  # the last moment that counts
    assert set(state.votes) == {1, 4}
    raiser.tick(state.deadline_ms)
    assert ("alarm_tally", 5, "yes=2 total=2") in logged(raiser)


# --- exchange rounds on static topologies (eventual delivery) -------------

def line_adj(n):
    return {i: [j for j in (i - 1, i + 1) if 1 <= j <= n]
            for i in range(1, n + 1)}


def ring_adj(n):
    return {i: sorted({(i % n) + 1, ((i - 2) % n) + 1})
            for i in range(1, n + 1)}


def grid_adj(rows, cols):
    def nid(r, c):
        return r * cols + c + 1
    adj = {}
    for r in range(rows):
        for c in range(cols):
            near = []
            if r > 0:
                near.append(nid(r - 1, c))
            if r < rows - 1:
                near.append(nid(r + 1, c))
            if c > 0:
                near.append(nid(r, c - 1))
            if c < cols - 1:
                near.append(nid(r, c + 1))
            adj[nid(r, c)] = sorted(near)
    return adj


def diameter(adj):
    import collections
    best = 0
    for s in adj:
        dist = {s: 0}
        q = collections.deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        assert len(dist) == len(adj), "topology must be connected"
        best = max(best, max(dist.values()))
    return best


def exchange_round(world, now):
    """One synchronous pairwise cache exchange: transfers are decided from
    a start-of-round snapshot, so certificates move one hop per round."""
    snapshot = {nid: set(node.cache)
                for nid, node in world.nodes.items()}
    for a in sorted(world.nodes):
        for b in world.adjacency[a]:
            if b < a:
                continue
            for key in sorted(snapshot[a] - snapshot[b]):
                world.nodes[b].handle_certificate(
                    world.nodes[a].outgoing_cache_bytes(key), now, cache=True,
                    from_node=a)
            for key in sorted(snapshot[b] - snapshot[a]):
                world.nodes[a].handle_certificate(
                    world.nodes[b].outgoing_cache_bytes(key), now, cache=True,
                    from_node=b)


def seed_certs(world):
    keys = []
    for nid, node in world.nodes.items():
        respondents = tuple(world.adjacency[nid])
        cert = make_cert(nid, respondents, (0.0,) * len(respondents),
                         nonce=100 + nid, at_ms=0)
        data = encode_certificate(cert)
        node.processed_certs[cert.key()] = 0
        node._cache_put(cert.key(), data)
        keys.append(cert.key())
    return keys


def coverage(world, keys):
    return all(set(keys) <= set(node.cache)
               for node in world.nodes.values())


@pytest.mark.parametrize("name,adj", [
    ("line6", line_adj(6)),
    ("ring10", ring_adj(10)),
    ("grid3x4", grid_adj(3, 4)),
])
def test_every_certificate_delivered_within_diameter_rounds(name, adj):
    d = diameter(adj)
    assert d == 5
    world = World(len(adj), adjacency=adj)
    keys = seed_certs(world)
    rounds = 0
    while rounds < d:
        assert not coverage(world, keys), \
            f"{name}: full coverage before round {d}"
        exchange_round(world, now=(rounds + 1) * 1000)
        rounds += 1
    assert coverage(world, keys), f"{name}: not covered within {d} rounds"
