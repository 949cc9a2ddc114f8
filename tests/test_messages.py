"""Wire codec, identity registry, and certificate verification."""

import hmac
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustwatch import messages
from trustwatch.messages import (
    FIXED_POINT_SCALE,
    HEADER_LEN,
    MIN_FRAME_LEN,
    TAG_LEN,
    Authority,
    BadVersion,
    CertResponse,
    GroupTrustCertificate,
    LengthMismatch,
    RepMessType,
    RepValOverflow,
    ReputationHeader,
    Truncated,
    UnknownType,
    Verdict,
    build_certificate,
    certificate_body_bytes,
    decode_certificate,
    decode_rep_mess,
    encode_certificate,
    encode_rep_mess,
    from_fixed,
    response_sign_bytes,
    tag,
    to_fixed,
    verify_group_certificate,
)
from trustwatch.node_protocol import Node, ProtocolParams

THRESHOLD = 0.5


def random_header(rng, mess_type=None):
    return ReputationHeader(
        mess_type=int(mess_type if mess_type is not None
                      else rng.choice(list(RepMessType))),
        subject=rng.randrange(2**32),
        rep_val_raw=rng.randrange(FIXED_POINT_SCALE + 1),
        timestamp_ms=rng.randrange(2**64),
        nonce=rng.randrange(2**64),
        sender=rng.randrange(2**32),
    )


def enrolled(rekeyed: int | None = None) -> Authority:
    """Nodes 1..9 enrolled with ``bytes([nid]) * 16``, except that
    ``rekeyed`` gets another secret."""
    auth = Authority()
    for nid in range(1, 10):
        auth.enroll(nid, b"k" * 16 if nid == rekeyed else bytes([nid]) * 16)
    return auth


@pytest.fixture()
def authority():
    return enrolled()


def make_cert(authority, subject=5, issuer=5, respondents=(1, 2, 3),
              ms=(0.0, 0.0, 0.0), ws=None, nonce=77, at_ms=1000):
    ws = ws if ws is not None else [1.0] * len(respondents)
    responses = []
    for rid, m, w in zip(respondents, ms, ws):
        m_raw, w_raw = to_fixed(m), to_fixed(w)
        rtag = tag(response_sign_bytes(subject, rid, m_raw, w_raw, nonce),
                   bytes([rid]) * 16)
        responses.append(CertResponse(rid, m_raw, w_raw, rtag))
    return build_certificate(subject=subject, issuer=issuer, issued_at_ms=at_ms,
                             challenge_nonce=nonce, responses=responses,
                             threshold=THRESHOLD,
                             issuer_secret=bytes([issuer]) * 16)


# --- fixed point ----------------------------------------------------------

def test_fixed_point_round_half_up():
    assert to_fixed(0.0) == 0
    assert to_fixed(1.0) == FIXED_POINT_SCALE
    assert to_fixed(0.00005) == 1
    assert to_fixed(0.33333) == 3333
    assert from_fixed(3333) == 0.3333


def test_fixed_point_rejects_out_of_range():
    with pytest.raises(messages.MessageError):
        to_fixed(1.01)
    with pytest.raises(RepValOverflow):
        from_fixed(FIXED_POINT_SCALE + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, FIXED_POINT_SCALE))
def test_fixed_point_round_trip_raw(raw):
    assert to_fixed(from_fixed(raw)) == raw


# --- frame codec ----------------------------------------------------------

def test_round_trip_10k_random_frames():
    rng = random.Random(2024)
    secret = b"s" * 16
    start = time.perf_counter()
    for _ in range(10_000):
        header = random_header(rng)
        payload = rng.randbytes(rng.randrange(0, 64))
        frame = encode_rep_mess(header, payload, secret)
        got_header, got_payload, got_tag = decode_rep_mess(frame)
        assert got_header == header
        assert got_payload == payload
        # canonical re-encode reproduces the original bytes
        assert encode_rep_mess(got_header, got_payload, secret) == frame
        assert got_tag == frame[-TAG_LEN:]
    assert time.perf_counter() - start < 30.0


def test_single_byte_mutation_detected_exhaustively():
    """Every single-byte corruption of a frame must either fail to decode,
    decode to different content, or fail tag verification."""
    rng = random.Random(99)
    auth = Authority()
    secret = b"m" * 16
    auth.enroll(7, secret)
    start = time.perf_counter()
    frames = []
    for _ in range(8):
        header = random_header(rng)
        header = ReputationHeader(
            mess_type=header.mess_type, subject=header.subject,
            rep_val_raw=header.rep_val_raw, timestamp_ms=header.timestamp_ms,
            nonce=header.nonce, sender=7)
        payload = rng.randbytes(rng.randrange(0, 128 - MIN_FRAME_LEN + 1))
        frames.append(encode_rep_mess(header, payload, secret))
    for frame in frames:
        assert len(frame) <= 128
        for pos in range(len(frame)):
            for delta in (0x01, 0x80, 0xFF):
                mutated = bytearray(frame)
                mutated[pos] ^= delta
                mutated = bytes(mutated)
                try:
                    _, _, mtag = decode_rep_mess(mutated)
                except messages.MessageError:
                    continue
                assert not auth.verify_node(7, mutated[:-TAG_LEN], mtag), \
                    f"mutation at byte {pos} went undetected"
    assert time.perf_counter() - start < 30.0


def test_decode_error_precedence():
    secret = b"x" * 16
    header = ReputationHeader(mess_type=int(RepMessType.CHALLENGE), subject=1,
                              rep_val_raw=0, timestamp_ms=0, nonce=0, sender=2)
    frame = bytearray(encode_rep_mess(header, b"pay", secret))

    with pytest.raises(Truncated):
        decode_rep_mess(bytes(frame[:MIN_FRAME_LEN - 1]))

    bad_version = bytes([2]) + bytes(frame[1:])
    with pytest.raises(BadVersion):
        decode_rep_mess(bad_version)

    bad_type = bytes(frame[:1]) + bytes([200]) + bytes(frame[2:])
    with pytest.raises(UnknownType):
        decode_rep_mess(bad_type)

    overflow = bytearray(frame)
    overflow[6:8] = (FIXED_POINT_SCALE + 1).to_bytes(2, "big")
    with pytest.raises(RepValOverflow):
        decode_rep_mess(bytes(overflow))

    short_len = bytearray(frame)
    short_len[28:30] = (1).to_bytes(2, "big")
    with pytest.raises(LengthMismatch):
        decode_rep_mess(bytes(short_len))


def test_payload_too_large_rejected_on_encode():
    header = ReputationHeader(mess_type=0, subject=1, rep_val_raw=0,
                              timestamp_ms=0, nonce=0, sender=1)
    with pytest.raises(messages.PayloadTooLarge):
        encode_rep_mess(header, b"a" * 65_536, b"s" * 16)


def test_min_frame_length_constant():
    header = ReputationHeader(mess_type=0, subject=0, rep_val_raw=0,
                              timestamp_ms=0, nonce=0, sender=0)
    assert len(encode_rep_mess(header, b"", b"s")) == MIN_FRAME_LEN
    assert MIN_FRAME_LEN == HEADER_LEN + TAG_LEN


# --- authority ------------------------------------------------------------

def test_authority_tag_verification(authority):
    body = b"hello world"
    t = tag(body, bytes([3]) * 16)
    assert authority.verify_node(3, body, t)
    assert not authority.verify_node(4, body, t)
    assert not authority.verify_node(999, body, t)


def test_authority_rejects_tags_of_a_node_not_enrolled(authority):
    body = b"hello world"
    for nid in (0, 999):
        secret = bytes([nid % 256]) * 16
        assert not authority.verify_tag(nid, body, tag(body, secret))
        assert not authority.verify_node(nid, body, tag(body, secret))
    # node 0 is no node: its frames fail the tag check, whoever signs them
    node = Node(1, bytes([1]) * 16, authority, ProtocolParams())
    events = []
    node.on_event = lambda now, kind, subject, detail: events.append(
        (kind, subject))
    for signer in (0, 1):
        header = ReputationHeader(mess_type=int(RepMessType.CHALLENGE),
                                  subject=1, rep_val_raw=0, timestamp_ms=0,
                                  nonce=signer, sender=0)
        frame = encode_rep_mess(header, b"", bytes([signer]) * 16)
        assert not authority.open_frame(frame)[2]
        assert node.receive(frame, 1) == []
    assert events == [("bad_tag", 0)] * 2


# --- the authority's memos ------------------------------------------------

SIGNERS = {nid: bytes([nid]) * 16 for nid in range(1, 5)}


@settings(max_examples=150, deadline=None)
@given(checks=st.lists(
    st.tuples(st.sampled_from(sorted(SIGNERS)), st.sampled_from(sorted(SIGNERS)),
              st.binary(max_size=48),
              st.binary(min_size=TAG_LEN, max_size=TAG_LEN), st.booleans()),
    min_size=1, max_size=12))
def test_memoized_verify_node_equals_a_fresh_check(checks):
    """Each check tags a body as ``signer`` and asks whether it is
    ``node``'s tag, with a forged tag after the valid one has become a
    memo hit, or a valid tag after the forged one's failure was memoized.
    Bodies drawn twice hit entries of earlier checks too."""
    auth = Authority()
    for nid, secret in SIGNERS.items():
        auth.enroll(nid, secret)
    for node, signer, body, forged, forged_first in checks:
        valid = tag(body, SIGNERS[signer])
        order = (forged, valid, valid) if forged_first else (valid, valid, forged)
        for t in order:
            fresh = hmac.compare_digest(tag(body, SIGNERS[node]), t)
            assert auth.verify_node(node, body, t) == fresh
            assert auth.verify_node(node, bytearray(body), t) == fresh


def test_reenrolling_a_node_changes_its_verdict(authority):
    body = b"hello world"
    old_secret, new_secret = bytes([3]) * 16, b"n" * 16
    header = ReputationHeader(mess_type=int(RepMessType.CHALLENGE), subject=1,
                              rep_val_raw=0, timestamp_ms=0, nonce=0, sender=3)
    frame = encode_rep_mess(header, b"pay", old_secret)
    assert authority.verify_node(3, body, tag(body, old_secret))
    assert authority.open_frame(frame)[2]
    authority.enroll(3, new_secret)
    assert not authority.verify_node(3, body, tag(body, old_secret))
    assert authority.verify_node(3, body, tag(body, new_secret))
    assert not authority.open_frame(frame)[2]


def test_memos_stay_within_their_bounds(authority):
    secret = SIGNERS[2]
    bounds = {"_tags": messages.TAG_MEMO_SIZE,
              "_frames": 1,
              "_certs": messages.CERT_MEMO_SIZE,
              "_verdicts": messages.CERT_MEMO_SIZE}
    memos = {name: getattr(authority, name) for name in bounds}
    assert {name: memo.cache_info().maxsize for name, memo in memos.items()} \
        == bounds
    peak = dict.fromkeys(bounds, 0)
    frames = []
    for i in range(max(bounds.values()) + 100):
        header = ReputationHeader(mess_type=int(RepMessType.CHALLENGE),
                                  subject=1, rep_val_raw=0, timestamp_ms=i,
                                  nonce=i, sender=2)
        frames.append(encode_rep_mess(header, b"", secret))
        assert authority.open_frame(frames[-1])[2]
        assert authority.verify_node(2, frames[-1][:-TAG_LEN], frames[-1][-TAG_LEN:])
        body = certificate_body_bytes(GroupTrustCertificate(
            subject=1, issuer=2, issued_at_ms=i, challenge_nonce=i,
            group_trust_raw=FIXED_POINT_SCALE, responses=(), certificate_tag=b""))
        cert = body + tag(body, secret)
        assert authority.open_certificate(cert).issued_at_ms == i
        assert authority.check_certificate(cert, THRESHOLD) is Verdict.VALID
        for name, memo in memos.items():
            peak[name] = max(peak[name], memo.cache_info().currsize)
    assert all(0 < peak[name] <= bound for name, bound in bounds.items()), peak
    # the oldest entries went first: the last frame is a hit, the first a miss
    before = memos["_frames"].cache_info()
    authority.open_frame(frames[-1])
    assert memos["_frames"].cache_info().hits == before.hits + 1
    authority.open_frame(frames[0])
    assert memos["_frames"].cache_info().misses == before.misses + 1


CERT_RESPONDENTS = (1, 2, 3)
VALID_CERT = encode_certificate(make_cert(None, respondents=CERT_RESPONDENTS,
                                          ms=(0.2, 0.6, 0.4)))


@settings(max_examples=100, deadline=None)
@given(copies=st.lists(st.none() | st.integers(0, 8 * len(VALID_CERT) - 1),
                       min_size=1, max_size=8),
       rekeyed=st.sampled_from(CERT_RESPONDENTS))
def test_memoized_certificate_verdict_equals_a_fresh_check(copies, rekeyed):
    """Each copy is the valid certificate (None) or the certificate with
    one bit flipped, and each is checked twice. The memoized verdict at
    two thresholds equals a check on an authority whose memos are empty,
    before and after a respondent is enrolled with a new secret."""
    memoized = enrolled()
    datas = [VALID_CERT]
    for bit in copies:
        data = bytearray(VALID_CERT)
        if bit is not None:
            data[bit // 8] ^= 1 << bit % 8
        datas.append(bytes(data))
    for rekey in (None, rekeyed):
        if rekey is not None:
            memoized.enroll(rekey, b"k" * 16)
        for data in datas + datas:
            for threshold in (THRESHOLD, 0.3):
                try:
                    cert = decode_certificate(data)
                except messages.MessageError as exc:
                    with pytest.raises(type(exc)):
                        memoized.check_certificate(data, threshold)
                    continue
                assert memoized.check_certificate(data, threshold) is \
                    verify_group_certificate(cert, threshold, enrolled(rekey))
    assert memoized.check_certificate(VALID_CERT, THRESHOLD) \
        is Verdict.TAMPERED_RESPONSE


def test_certificate_verdict_depends_on_the_threshold():
    auth = enrolled()
    assert auth.check_certificate(VALID_CERT, THRESHOLD) is Verdict.VALID
    assert auth.check_certificate(VALID_CERT, 0.3) is Verdict.WRONG_GROUP_TRUST
    assert auth.check_certificate(VALID_CERT, THRESHOLD) is Verdict.VALID


def test_malformed_frame_logs_bad_frame_each_time_it_is_received(authority):
    node = Node(1, bytes([1]) * 16, authority, ProtocolParams())
    events = []
    node.on_event = lambda now, kind, subject, detail: events.append(
        (kind, detail))
    header = ReputationHeader(mess_type=int(RepMessType.CHALLENGE), subject=1,
                              rep_val_raw=0, timestamp_ms=0, nonce=0, sender=2)
    truncated = encode_rep_mess(header, b"pay", bytes([2]) * 16)[:-1]
    for now in (1, 2, 3):
        assert node.receive(truncated, now) == []
    assert node.receive(bytearray(truncated), 4) == []
    assert events == [("bad_frame", "LengthMismatch")] * 4
    assert authority._frames.cache_info().currsize == 0


# --- certificates ---------------------------------------------------------

def test_certificate_round_trip(authority):
    cert = make_cert(authority, ms=(0.1, 0.9, 0.2))
    data = encode_certificate(cert)
    back = decode_certificate(data)
    assert back == cert
    assert encode_certificate(back) == data


def test_certificate_canonical_response_order(authority):
    a = make_cert(authority, respondents=(3, 1, 2), ms=(0.3, 0.1, 0.2))
    assert [r.respondent for r in a.responses] == [1, 2, 3]


def test_certificate_valid(authority):
    cert = make_cert(authority)
    assert verify_group_certificate(cert, THRESHOLD, authority) is Verdict.VALID


def test_certificate_tampered_response(authority):
    cert = make_cert(authority, ms=(0.9, 0.0, 0.0))
    doctored = cert.responses[0]
    forged = CertResponse(doctored.respondent, to_fixed(0.0),
                          doctored.weight_raw, doctored.tag)
    bad = messages.GroupTrustCertificate(
        subject=cert.subject, issuer=cert.issuer,
        issued_at_ms=cert.issued_at_ms, challenge_nonce=cert.challenge_nonce,
        group_trust_raw=cert.group_trust_raw,
        responses=(forged,) + cert.responses[1:],
        certificate_tag=cert.certificate_tag)
    assert verify_group_certificate(bad, THRESHOLD,
                                    authority) is Verdict.TAMPERED_RESPONSE


def test_certificate_wrong_group_trust(authority):
    cert = make_cert(authority, ms=(0.9, 0.9, 0.9))
    lied = messages.GroupTrustCertificate(
        subject=cert.subject, issuer=cert.issuer,
        issued_at_ms=cert.issued_at_ms, challenge_nonce=cert.challenge_nonce,
        group_trust_raw=to_fixed(1.0), responses=cert.responses,
        certificate_tag=tag(messages.certificate_body_bytes(
            messages.GroupTrustCertificate(
                subject=cert.subject, issuer=cert.issuer,
                issued_at_ms=cert.issued_at_ms,
                challenge_nonce=cert.challenge_nonce,
                group_trust_raw=to_fixed(1.0), responses=cert.responses,
                certificate_tag=b"")), bytes([cert.issuer]) * 16))
    assert verify_group_certificate(lied, THRESHOLD,
                                    authority) is Verdict.WRONG_GROUP_TRUST


def test_certificate_bad_issuer_tag(authority):
    cert = make_cert(authority)
    data = bytearray(encode_certificate(cert))
    data[-1] ^= 0xFF
    back = decode_certificate(bytes(data))
    assert verify_group_certificate(back, THRESHOLD,
                                    authority) is Verdict.BAD_ISSUER_TAG


def test_certificate_any_body_mutation_rejected(authority):
    cert = make_cert(authority, ms=(0.2, 0.6, 0.4))
    data = encode_certificate(cert)
    for pos in range(len(data)):
        mutated = bytearray(data)
        mutated[pos] ^= 0x01
        try:
            back = decode_certificate(bytes(mutated))
        except messages.MessageError:
            continue
        assert verify_group_certificate(back, THRESHOLD,
                                        authority) is not Verdict.VALID


def test_certificate_group_trust_recomputed_from_responses(authority):
    cert = make_cert(authority, ms=(0.75, 0.75, 0.0))
    # majority is the two high respondents: group trust = 1 - 0.75
    assert cert.group_trust_raw == to_fixed(0.25)
    benign = make_cert(authority, ms=(0.1, 0.2, 0.0))
    assert benign.group_trust_raw == to_fixed(1.0 - (0.1 + 0.2 + 0.0) / 3)


def test_certificate_truncation_detected(authority):
    data = encode_certificate(make_cert(authority))
    with pytest.raises(messages.MessageError):
        decode_certificate(data[:-1])
    with pytest.raises(Truncated):
        decode_certificate(data[:10])


@pytest.mark.parametrize("m_raw,w_raw", [(60000, FIXED_POINT_SCALE),
                                         (0, 65535)])
def test_certificate_response_over_scale_rejected_at_decode(m_raw, w_raw):
    # tags are valid: only the range check can stop these values before
    # group-trust aggregation turns them into an exception
    rtag = tag(response_sign_bytes(5, 1, m_raw, w_raw, 77), bytes([1]) * 16)
    unsigned = messages.GroupTrustCertificate(
        subject=5, issuer=5, issued_at_ms=1000, challenge_nonce=77,
        group_trust_raw=0, responses=(CertResponse(1, m_raw, w_raw, rtag),),
        certificate_tag=b"")
    body = messages.certificate_body_bytes(unsigned)
    with pytest.raises(RepValOverflow):
        decode_certificate(body + tag(body, bytes([5]) * 16))
    at_limit = make_cert(None, ms=(1.0, 1.0, 1.0))
    assert decode_certificate(encode_certificate(at_limit)) == at_limit
