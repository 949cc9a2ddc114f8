"""Trust arithmetic against independent straight-line oracles and
brute-force enumeration."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustwatch import trust_math
from trustwatch.trust_math import (
    EmptyObservationSet,
    InvalidK,
    MaliciousnessObservation,
    NonPositiveW,
    OutOfRangeFactor,
    alpha1,
    alpha3,
    beta,
    clamp01,
    group_trust,
    partition_majority,
    replenish,
    update_trust,
)

THRESHOLD = 0.5
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def obs(m, w=1.0, t=1.0, respondent=1):
    return MaliciousnessObservation(respondent=respondent, maliciousness=m,
                                    weight=w, respondent_trust=t)


# --- independent oracles --------------------------------------------------
# Deliberately written as naive transliterations, sharing no code with the
# implementation under test.

def oracle_update(t_old, t_cert, a, b, d):
    one_minus_new = a * (1.0 - t_old) + b * (1.0 - t_cert) - d
    return 1.0 - one_minus_new


def oracle_alpha1(weighted, total_w):
    s = 0.0
    for w, t in weighted:
        s += w * t
    return s / total_w


def oracle_alpha3(k):
    if k == 1:
        return 1.0
    return 0.0


def oracle_beta(a1, a2, a3):
    return a1 * a2 * a3


def oracle_group_trust(ms, threshold):
    high = [m for m in ms if m >= threshold]
    low = [m for m in ms if m < threshold]
    majority = high if len(high) > len(low) else low
    if not majority:
        majority = ms
    mean_m = sum(majority) / len(majority)
    value = 1.0 - mean_m
    return min(1.0, max(0.0, value))


def test_update_trust_oracle_10k():
    rng = random.Random(0xC0FFEE)
    start = time.perf_counter()
    for _ in range(10_000):
        t_old = rng.random()
        t_cert = rng.random()
        a = rng.random()
        b = rng.random()
        d = rng.random() * 0.01
        got = trust_math._update_unclamped(t_old, t_cert, a, b, d)
        want = oracle_update(t_old, t_cert, a, b, d)
        assert abs(got - want) <= 1e-12
        clamped = update_trust(t_old, t_cert, a, b, d)
        assert clamped == clamp01(want)
    assert time.perf_counter() - start < 1.0


def test_alpha_factors_oracle_10k():
    rng = random.Random(0xBEEF)
    start = time.perf_counter()
    for _ in range(10_000):
        n = rng.randint(1, 6)
        weighted = [(rng.random() + 0.01, rng.random()) for _ in range(n)]
        total = sum(w for w, _ in weighted) + rng.random()
        majority = [obs(0.0, w=w, t=t, respondent=i + 1)
                    for i, (w, t) in enumerate(weighted)]
        got = alpha1(majority, total)
        want = clamp01(oracle_alpha1(weighted, total))
        assert abs(got - want) <= 1e-12
        k = rng.randint(1, 4)
        assert alpha3(k) == oracle_alpha3(k)
        a1, a2, a3 = rng.random(), rng.random(), float(rng.randint(0, 1))
        assert abs(beta(a1, a2, a3) - oracle_beta(a1, a2, a3)) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_group_trust_brute_force_all_multisets():
    start = time.perf_counter()
    checked = 0
    for size in range(1, 9):
        for ms in itertools.combinations_with_replacement(GRID, size):
            observations = [obs(m, respondent=i + 1) for i, m in enumerate(ms)]
            got = group_trust(observations, THRESHOLD)
            assert got.group_trust == oracle_group_trust(list(ms), THRESHOLD)
            checked += 1
    assert checked > 1000
    assert time.perf_counter() - start < 10.0


# --- structure ------------------------------------------------------------

def test_partition_majority_tie_prefers_cooperative_group():
    observations = [obs(0.0, respondent=1), obs(1.0, respondent=2)]
    majority, minority = partition_majority(observations, THRESHOLD)
    assert [o.respondent for o in majority] == [1]
    assert [o.respondent for o in minority] == [2]


def test_partition_threshold_boundary_is_malicious_side():
    observations = [obs(THRESHOLD, respondent=1), obs(0.4, respondent=2),
                    obs(0.1, respondent=3)]
    majority, minority = partition_majority(observations, THRESHOLD)
    assert {o.respondent for o in majority} == {2, 3}
    assert {o.respondent for o in minority} == {1}


def test_group_trust_ignores_zero_weight_respondents():
    observations = [obs(1.0, w=0.0, respondent=1), obs(0.0, respondent=2)]
    result = group_trust(observations, THRESHOLD)
    assert result.group_trust == 1.0
    assert not result.majority_adverse


def test_group_trust_all_zero_weight_is_benign():
    observations = [obs(1.0, w=0.0, respondent=1), obs(0.75, w=0.0, respondent=2)]
    assert group_trust(observations, THRESHOLD).group_trust == 1.0


def test_group_trust_empty_raises():
    with pytest.raises(EmptyObservationSet):
        group_trust([], THRESHOLD)


def test_alpha1_requires_positive_w():
    with pytest.raises(NonPositiveW):
        alpha1([obs(0.0)], 0.0)


def test_alpha3_rejects_nonpositive_k():
    with pytest.raises(InvalidK):
        alpha3(0)


def test_beta_rejects_out_of_range_factor():
    with pytest.raises(OutOfRangeFactor):
        beta(1.5, 0.5, 1.0)


def test_observation_validation():
    with pytest.raises(ValueError):
        obs(1.5)
    with pytest.raises(ValueError):
        obs(0.5, w=-1.0)


def test_replenish_caps_at_one():
    assert replenish(0.9995, 0.001) == 1.0
    assert replenish(0.5, 0.001) == pytest.approx(0.501)


# --- properties -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
       st.floats(0, 0.01))
def test_update_trust_stays_in_unit_interval(t_old, t_cert, a, b, d):
    assert 0.0 <= update_trust(t_old, t_cert, a, b, d) <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 0.01))
def test_update_trust_monotone_in_cert_trust(t_old, a, b, d):
    lo = update_trust(t_old, 0.2, a, b, d)
    hi = update_trust(t_old, 0.8, a, b, d)
    assert hi >= lo


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(GRID), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_group_trust_permutation_invariant(ms, rnd):
    observations = [obs(m, respondent=i + 1) for i, m in enumerate(ms)]
    shuffled = list(observations)
    rnd.shuffle(shuffled)
    a = group_trust(observations, THRESHOLD)
    b = group_trust(shuffled, THRESHOLD)
    assert a.group_trust == b.group_trust
    assert a.majority_adverse == b.majority_adverse


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
def test_group_trust_in_unit_interval(ms):
    observations = [obs(m, respondent=i + 1) for i, m in enumerate(ms)]
    assert 0.0 <= group_trust(observations, THRESHOLD).group_trust <= 1.0
