"""Pure trust arithmetic: the malicious band, majority partitioning,
group trust, and the cumulative trust-update rule with its weighting
factors.

All functions here are side-effect free and operate on plain values, so
they can be exercised exhaustively by oracles and property tests. Every
producing operation clamps its result into [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

MALICIOUS_BELOW = 0.4


class TrustMathError(ValueError):
    """Base class for domain violations in trust arithmetic."""


class EmptyObservationSet(TrustMathError):
    pass


class NonPositiveW(TrustMathError):
    pass


class InvalidK(TrustMathError):
    pass


class OutOfRangeFactor(TrustMathError):
    pass


def clamp01(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


@dataclass(frozen=True)
class MaliciousnessObservation:
    """One respondent's feedback about a subject.

    maliciousness is the windowed fraction of monitored packets the
    subject dropped or modified. weight 0 marks a respondent that had
    nothing to report; such observations are excluded from all sums.
    respondent_trust is the trust the *evaluating* node places in the
    respondent.
    """

    respondent: int
    maliciousness: float
    weight: float = 1.0
    respondent_trust: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.maliciousness <= 1.0:
            raise TrustMathError(
                f"maliciousness {self.maliciousness} outside [0, 1]")
        if self.weight < 0.0:
            raise TrustMathError(f"weight {self.weight} must be >= 0")


@dataclass(frozen=True)
class GroupTrustResult:
    group_trust: float
    majority: tuple[MaliciousnessObservation, ...]
    # True when the majority is the at-or-above-threshold ("node looks
    # malicious") group. Drives certificate re-propagation.
    majority_adverse: bool = False


def partition_majority(
    obs: list[MaliciousnessObservation], threshold: float
) -> tuple[list[MaliciousnessObservation], list[MaliciousnessObservation]]:
    """Split respondents into majority and minority groups.

    Group A holds observations with maliciousness >= threshold, group B
    the rest. The larger group is the majority; a tie goes to B (the
    "node looks honest" group) to bias against false accusation.
    Returns (majority, minority).
    """
    if not obs:
        raise EmptyObservationSet("no observations to partition")
    high = [o for o in obs if o.maliciousness >= threshold]
    low = [o for o in obs if o.maliciousness < threshold]
    if len(high) > len(low):
        return high, low
    return low, high


def group_trust(
    obs: list[MaliciousnessObservation], threshold: float
) -> GroupTrustResult:
    """Group trust = 1 - mean maliciousness of the majority group.

    Absolute trust is taken as 1, so the result always lands in [0, 1].
    Zero-weight observations carry no information and are excluded; if
    every observation has zero weight the subject is presumed benign.
    """
    if not obs:
        raise EmptyObservationSet("no observations for group trust")
    effective = [o for o in obs if o.weight > 0.0]
    if not effective:
        return GroupTrustResult(group_trust=1.0, majority=())
    majority, _ = partition_majority(effective, threshold)
    mean_m = sum(o.maliciousness for o in majority) / len(majority)
    # the majority is never empty here; it is adverse exactly when it is the
    # >= threshold group, which wins only when strictly larger
    return GroupTrustResult(
        group_trust=clamp01(1.0 - mean_m),
        majority=tuple(majority),
        majority_adverse=majority[0].maliciousness >= threshold,
    )


def alpha1(majority: list[MaliciousnessObservation], W: float) -> float:
    """Weight of the majority group: clamp(sum(w_i * t_i) / W, 0, 1)."""
    if W <= 0.0:
        raise NonPositiveW(f"W {W} must be > 0")
    total = sum(o.weight * o.respondent_trust for o in majority)
    return clamp01(total / W)


def alpha3(k: int) -> float:
    """Repeat-certificate damping: 1 for the first certificate from a
    respondent set, 0 for every repeat from the identical set."""
    if k < 1:
        raise InvalidK(f"k {k} must be >= 1")
    return 1.0 if k == 1 else 0.0


def beta(a1: float, a2: float, a3: float) -> float:
    """Certificate weight: product of the three alpha factors."""
    for name, v in (("alpha1", a1), ("alpha2", a2), ("alpha3", a3)):
        if not 0.0 <= v <= 1.0:
            raise OutOfRangeFactor(f"{name} {v} outside [0, 1]")
    return a1 * a2 * a3


def update_trust(
    t_old: float, t_cert: float, alpha: float, beta_: float, delta: float
) -> float:
    """Cumulative trust update:

        (1 - t_new) = alpha*(1 - t_old) + beta*(1 - t_cert) - delta

    evaluated exactly as written, then t_new clamped into [0, 1].
    """
    for name, v in (("t_old", t_old), ("t_cert", t_cert),
                    ("alpha", alpha), ("beta", beta_)):
        if not 0.0 <= v <= 1.0:
            raise TrustMathError(f"{name} {v} outside [0, 1]")
    if delta < 0.0:
        raise TrustMathError(f"delta {delta} must be >= 0")
    return clamp01(_update_unclamped(t_old, t_cert, alpha, beta_, delta))


def _update_unclamped(
    t_old: float, t_cert: float, alpha: float, beta_: float, delta: float
) -> float:
    distrust = alpha * (1.0 - t_old) + beta_ * (1.0 - t_cert) - delta
    return 1.0 - distrust


def replenish(t_old: float, delta: float) -> float:
    """Time-driven trust replenishment: clamp(t_old + delta, 0, 1).

    Applied once per replenishment interval when no certificate arrives.
    """
    if not 0.0 <= t_old <= 1.0:
        raise TrustMathError(f"t_old {t_old} outside [0, 1]")
    if delta < 0.0:
        raise TrustMathError(f"delta {delta} must be >= 0")
    return clamp01(t_old + delta)
