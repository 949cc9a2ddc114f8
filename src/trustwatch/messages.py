"""Wire format for reputation messages and group-trust certificates,
plus the key registry that checks their authenticity tags.

Frame layout, big-endian throughout:

    [0]      version (=1)
    [1]      message type
    [2..6)   subject node id (u32)
    [6..8)   rep_val, fixed point, scale 1/10000 (u16)
    [8..16)  timestamp, ms since scenario start (u64)
    [16..24) nonce (u64)
    [24..28) sender node id (u32)
    [28..30) payload length (u16)
    [30..30+len)  payload
    final 32 bytes: authenticity tag over all preceding bytes

Tags are keyed deterministic digests. They stand in for real signatures:
any single-bit change in the covered bytes flips verification, which is
all the protocol checks require. Cryptographic strength is a non-goal.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import hmac
import struct
from dataclasses import dataclass
from functools import lru_cache

from . import trust_math

FIXED_POINT_SCALE = 10000
VERSION = 1
HEADER_LEN = 30
TAG_LEN = 32
MIN_FRAME_LEN = HEADER_LEN + TAG_LEN
MAX_PAYLOAD = 65535
# entries each memo of an Authority holds at most
TAG_MEMO_SIZE = 2048
CERT_MEMO_SIZE = 256

_HEADER = struct.Struct(">BBIHQQIH")


class MessageError(ValueError):
    """Base class for codec and registry failures."""


class Truncated(MessageError):
    pass


class BadVersion(MessageError):
    pass


class UnknownType(MessageError):
    pass


class RepValOverflow(MessageError):
    pass


class LengthMismatch(MessageError):
    pass


class PayloadTooLarge(MessageError):
    pass


class RepMessType(enum.IntEnum):
    REP_REQUEST = 0
    REP_RESPONSE = 1
    REP_BROADCAST = 2
    CHALLENGE = 3
    CHALLENGE_ACK = 4
    VERIFY_BEHAVIOR = 5
    GLOBAL_ALARM = 6
    ALARM_VOTE = 7
    CERT_EXCHANGE = 8


def to_fixed(value: float) -> int:
    """Encode a real in [0, 1] as a raw fixed-point value, round half up."""
    if not 0.0 <= value <= 1.0:
        raise MessageError(f"value {value} outside [0, 1]")
    return int(value * FIXED_POINT_SCALE + 0.5)


def from_fixed(raw: int) -> float:
    if not 0 <= raw <= FIXED_POINT_SCALE:
        raise RepValOverflow(f"raw fixed-point value {raw} > {FIXED_POINT_SCALE}")
    return raw / FIXED_POINT_SCALE


@dataclass(frozen=True)
class ReputationHeader:
    mess_type: int
    subject: int
    rep_val_raw: int
    timestamp_ms: int
    nonce: int
    sender: int
    version: int = VERSION


def tag(message_bytes: bytes, secret: bytes) -> bytes:
    """Deterministic 32-byte authenticity tag keyed by the signer secret."""
    return hashlib.blake2b(message_bytes, key=secret, digest_size=TAG_LEN).digest()


class Authority:
    """Simulated certifying authority and public directory.

    Holds each enrolled node's secret, used to check authenticity tags
    (the simulator's stand-in for public-key verification), and three
    ``lru_cache`` memos over it that every node of one simulation shares:

    - ``verify_node`` results, keyed on (node id, message bytes, tag);
    - ``open_frame`` results, keyed on the frame bytes;
    - ``open_certificate`` results, the certificate and its verdict,
      keyed on (certificate bytes, threshold).

    Each is a pure function of its key and the enrolled secrets, so each
    distinct input is decoded or checked once while it stays in its memo.
    The frame memo holds only the last frame: a broadcast is one event,
    so the next recipient of the same event is the one that opens a frame
    again. ``enroll`` clears all three; a call that raises is never cached.
    """

    def __init__(self):
        self._secrets: dict[int, bytes] = {}
        # each memo looks its function up when called, so a method or
        # codec function replaced after this Authority was built still
        # sees every miss
        self._tags = lru_cache(TAG_MEMO_SIZE)(
            lambda node_id, body, tag_: self.verify_tag(node_id, body, tag_))
        # (header, payload, tag_ok); raises what decode_rep_mess raises
        self.open_frame = lru_cache(1)(self._open_frame)
        # (certificate, Verdict at threshold); raises what decode_certificate raises
        self.open_certificate = lru_cache(CERT_MEMO_SIZE)(self._open_certificate)

    def enroll(self, node_id: int, secret: bytes) -> None:
        """Register a node's secret, replacing any earlier one."""
        self._secrets[node_id] = secret
        for memo in (self._tags, self.open_frame, self.open_certificate):
            memo.cache_clear()

    def verify_tag(self, node_id: int, message_bytes: bytes, tag_: bytes) -> bool:
        """True if ``tag_`` is node_id's tag over ``message_bytes``; False
        for a node that is not enrolled."""
        secret = self._secrets.get(node_id)
        return secret is not None and \
            hmac.compare_digest(tag(message_bytes, secret), tag_)

    def verify_node(self, node_id: int, message_bytes: bytes, tag_: bytes) -> bool:
        """``verify_tag``, memoized."""
        return self._tags(node_id, bytes(message_bytes), bytes(tag_))

    def _open_frame(self, data: bytes) -> tuple[ReputationHeader, bytes, bool]:
        # the tag is checked past the tag memo, whose entries the frame
        # memo's own would only crowd out
        header, payload, frame_tag = decode_rep_mess(data)
        return header, payload, \
            self.verify_tag(header.sender, data[:-TAG_LEN], frame_tag)

    def _open_certificate(self, data: bytes, threshold: float
                          ) -> tuple[GroupTrustCertificate, Verdict]:
        cert = decode_certificate(data)
        return cert, verify_group_certificate(cert, threshold, self)


def encode_rep_mess(header: ReputationHeader, payload: bytes,
                    signer_secret: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    if not 0 <= header.rep_val_raw <= FIXED_POINT_SCALE:
        raise RepValOverflow(f"rep_val raw {header.rep_val_raw} > {FIXED_POINT_SCALE}")
    body = _HEADER.pack(
        header.version, header.mess_type, header.subject, header.rep_val_raw,
        header.timestamp_ms, header.nonce, header.sender, len(payload),
    ) + payload
    return body + tag(body, signer_secret)


def decode_rep_mess(data: bytes) -> tuple[ReputationHeader, bytes, bytes]:
    """Parse a frame into (header, payload, tag).

    The tag is returned for separate verification, never silently dropped.
    """
    if len(data) < MIN_FRAME_LEN:
        raise Truncated(f"frame of {len(data)} bytes below minimum {MIN_FRAME_LEN}")
    version, mtype, subject, rep_val_raw, ts, nonce, sender, payload_len = \
        _HEADER.unpack_from(data, 0)
    if version != VERSION:
        raise BadVersion(f"unsupported version {version}")
    try:
        RepMessType(mtype)
    except ValueError:
        raise UnknownType(f"unknown message type {mtype}")
    if rep_val_raw > FIXED_POINT_SCALE:
        raise RepValOverflow(f"rep_val raw {rep_val_raw} > {FIXED_POINT_SCALE}")
    if len(data) != HEADER_LEN + payload_len + TAG_LEN:
        raise LengthMismatch(
            f"payload_len {payload_len} inconsistent with frame of {len(data)} bytes")
    payload = data[HEADER_LEN:HEADER_LEN + payload_len]
    frame_tag = data[HEADER_LEN + payload_len:]
    header = ReputationHeader(
        mess_type=mtype, subject=subject, rep_val_raw=rep_val_raw,
        timestamp_ms=ts, nonce=nonce, sender=sender, version=version,
    )
    return header, payload, frame_tag


# --- group-trust certificates -------------------------------------------

_CERT_HEAD = struct.Struct(">IIQQHH")
_CERT_RESP = struct.Struct(f">IHH{TAG_LEN}s")
_RESP_SIGN = struct.Struct(">IIHHQ")


class Verdict(enum.Enum):
    VALID = "valid"
    TAMPERED_RESPONSE = "tampered_response"
    DROPPED_FEEDBACK = "dropped_feedback"
    WRONG_GROUP_TRUST = "wrong_group_trust"
    BAD_ISSUER_TAG = "bad_issuer_tag"


@dataclass(frozen=True)
class CertResponse:
    respondent: int
    maliciousness_raw: int
    weight_raw: int
    tag: bytes

    def observation(self, trust: float = 1.0) -> trust_math.MaliciousnessObservation:
        """This response, its respondent held at ``trust``."""
        return trust_math.MaliciousnessObservation(
            respondent=self.respondent,
            maliciousness=from_fixed(self.maliciousness_raw),
            weight=from_fixed(self.weight_raw),
            respondent_trust=trust)


@dataclass(frozen=True)
class GroupTrustCertificate:
    subject: int
    issuer: int
    issued_at_ms: int
    challenge_nonce: int
    group_trust_raw: int
    responses: tuple[CertResponse, ...]
    certificate_tag: bytes

    def key(self) -> tuple[int, int, int, int]:
        return (self.subject, self.issuer, self.issued_at_ms,
                self.challenge_nonce)

    def respondent_ids(self) -> tuple[int, ...]:
        return tuple(r.respondent for r in self.responses)


def response_sign_bytes(subject: int, respondent: int, maliciousness_raw: int,
                        weight_raw: int, challenge_nonce: int) -> bytes:
    """Canonical bytes a respondent tags when feeding back an observation."""
    return _RESP_SIGN.pack(subject, respondent, maliciousness_raw,
                           weight_raw, challenge_nonce)


def certificate_body_bytes(cert: GroupTrustCertificate) -> bytes:
    head = _CERT_HEAD.pack(cert.subject, cert.issuer, cert.issued_at_ms,
                           cert.challenge_nonce, cert.group_trust_raw,
                           len(cert.responses))
    return head + b"".join(
        _CERT_RESP.pack(r.respondent, r.maliciousness_raw, r.weight_raw, r.tag)
        for r in cert.responses)


def encode_certificate(cert: GroupTrustCertificate) -> bytes:
    return certificate_body_bytes(cert) + cert.certificate_tag


def decode_certificate(data: bytes) -> GroupTrustCertificate:
    if len(data) < _CERT_HEAD.size + TAG_LEN:
        raise Truncated(f"certificate of {len(data)} bytes is too short")
    subject, issuer, issued_at, nonce, gt_raw, count = _CERT_HEAD.unpack_from(data)
    expected = _CERT_HEAD.size + count * _CERT_RESP.size + TAG_LEN
    if len(data) != expected:
        raise LengthMismatch(
            f"certificate with {count} responses should be {expected} bytes, "
            f"got {len(data)}")
    if gt_raw > FIXED_POINT_SCALE:
        raise RepValOverflow(f"group trust raw {gt_raw} > {FIXED_POINT_SCALE}")
    responses = tuple(CertResponse(*fields) for fields in
                      _CERT_RESP.iter_unpack(data[_CERT_HEAD.size:-TAG_LEN]))
    for r in responses:
        if max(r.maliciousness_raw, r.weight_raw) > FIXED_POINT_SCALE:
            raise RepValOverflow(
                f"response of {r.respondent}: maliciousness raw "
                f"{r.maliciousness_raw}, weight raw {r.weight_raw}, "
                f"limit {FIXED_POINT_SCALE}")
    return GroupTrustCertificate(
        subject=subject, issuer=issuer, issued_at_ms=issued_at,
        challenge_nonce=nonce, group_trust_raw=gt_raw,
        responses=responses, certificate_tag=data[-TAG_LEN:],
    )


def _recompute_group_trust_raw(responses: tuple[CertResponse, ...],
                               threshold: float) -> int:
    obs = [r.observation() for r in responses]
    if not obs:
        return FIXED_POINT_SCALE
    return to_fixed(trust_math.group_trust(obs, threshold).group_trust)


def build_certificate(subject: int, issuer: int, issued_at_ms: int,
                      challenge_nonce: int,
                      responses: list[CertResponse],
                      threshold: float,
                      issuer_secret: bytes) -> GroupTrustCertificate:
    """Assemble and tag a certificate from collected responses.

    Responses are canonicalized to ascending respondent order before
    tagging so byte-level cache comparison is meaningful.
    """
    ordered = tuple(sorted(responses, key=lambda r: r.respondent))
    gt_raw = _recompute_group_trust_raw(ordered, threshold)
    unsigned = GroupTrustCertificate(
        subject=subject, issuer=issuer, issued_at_ms=issued_at_ms,
        challenge_nonce=challenge_nonce, group_trust_raw=gt_raw,
        responses=ordered, certificate_tag=b"",
    )
    return dataclasses.replace(unsigned, certificate_tag=tag(
        certificate_body_bytes(unsigned), issuer_secret))


def verify_group_certificate(cert: GroupTrustCertificate, threshold: float,
                             authority: Authority) -> Verdict:
    """Check a certificate end to end; return the first failing check.

    Respondents must be distinct, in the ascending order
    ``build_certificate`` gives them, and not the subject; a copy of a
    response would count its vote twice. Omitted feedback
    (``DROPPED_FEEDBACK``) is not checked here: only a respondent knows
    its response is missing, so the node decides it.
    """
    ids = cert.respondent_ids()
    if cert.subject in ids or any(a >= b for a, b in zip(ids, ids[1:])):
        return Verdict.TAMPERED_RESPONSE
    for r in cert.responses:
        signed = response_sign_bytes(cert.subject, r.respondent,
                                     r.maliciousness_raw, r.weight_raw,
                                     cert.challenge_nonce)
        if not authority.verify_node(r.respondent, signed, r.tag):
            return Verdict.TAMPERED_RESPONSE
    expected_raw = _recompute_group_trust_raw(cert.responses, threshold)
    if abs(expected_raw - cert.group_trust_raw) > 1:
        return Verdict.WRONG_GROUP_TRUST
    body = certificate_body_bytes(cert)
    if not authority.verify_node(cert.issuer, body, cert.certificate_tag):
        return Verdict.BAD_ISSUER_TAG
    return Verdict.VALID
