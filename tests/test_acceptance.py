"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line
(visible with -v as the test verdict, and in captured output via the
[criterion N] prints). Heavier runs are shared through module fixtures.
"""

import itertools
import random
import statistics
import time

import pytest

from trustwatch import harness, messages, trust_math
from trustwatch.harness import compute_metrics, loc_alarm_count_window, loc_baseline
from trustwatch.messages import (
    Authority,
    ReputationHeader,
    decode_rep_mess,
    encode_certificate,
    encode_rep_mess,
    to_fixed,
)
from trustwatch.sim import PRESETS, ScenarioConfig, run_scenario

from test_node_protocol import (
    World,
    diameter,
    exchange_round,
    grid_adj,
    line_adj,
    make_cert,
    ring_adj,
    seed_certs,
    coverage,
)

pytestmark = pytest.mark.acceptance

SEEDS = list(range(1, 21))


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def detection_runs():
    """Criterion 5's twenty seeded runs, shared with criterion 6."""
    runs = []
    start = time.perf_counter()
    for seed in SEEDS:
        runs.append(run_scenario(ScenarioConfig(rng_seed=seed)))
    return runs, time.perf_counter() - start


def test_criterion_01_equation_oracles():
    rng = random.Random(20260824)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        t_old, t_cert, a, b = (rng.random() for _ in range(4))
        d = rng.random() * 0.01
        want = 1.0 - (a * (1.0 - t_old) + b * (1.0 - t_cert) - d)
        got = trust_math._update_unclamped(t_old, t_cert, a, b, d)
        worst = max(worst, abs(got - want))

        n = rng.randint(1, 6)
        obs = [trust_math.MaliciousnessObservation(
                   respondent=i + 1, maliciousness=0.0,
                   weight=rng.random() + 0.01, respondent_trust=rng.random())
               for i in range(n)]
        W = sum(o.weight for o in obs) + rng.random()
        want_a1 = min(1.0, max(0.0, sum(o.weight * o.respondent_trust
                                        for o in obs) / W))
        worst = max(worst, abs(trust_math.alpha1(obs, W) - want_a1))

        k = rng.randint(1, 5)
        assert trust_math.alpha3(k) == (1.0 if k == 1 else 0.0)
        a1, a2 = rng.random(), rng.random()
        a3 = float(rng.randint(0, 1))
        worst = max(worst, abs(trust_math.beta(a1, a2, a3) - a1 * a2 * a3))
    elapsed = time.perf_counter() - start
    verdict(1, worst <= 1e-12 and elapsed < 1.0,
            f"max error {worst:.2e} in {elapsed:.2f}s over 10k inputs")


def test_criterion_02_group_trust_brute_force():
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for size in range(1, 9):
        for ms in itertools.combinations_with_replacement(grid, size):
            high = [m for m in ms if m >= 0.5]
            low = [m for m in ms if m < 0.5]
            majority = high if len(high) > len(low) else low
            want = min(1.0, max(0.0, 1.0 - sum(majority) / len(majority)))
            obs = [trust_math.MaliciousnessObservation(respondent=i + 1,
                                                       maliciousness=m)
                   for i, m in enumerate(ms)]
            got = trust_math.group_trust(obs, 0.5).group_trust
            total += 1
            mismatches += got != want
    elapsed = time.perf_counter() - start
    verdict(2, mismatches == 0 and elapsed < 10.0,
            f"{total} multisets, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_03_codec():
    rng = random.Random(77)
    secret = b"acceptance-secret"
    auth = Authority()
    auth.enroll(11, secret)
    start = time.perf_counter()
    for _ in range(10_000):
        header = ReputationHeader(
            mess_type=int(rng.choice(list(messages.RepMessType))),
            subject=rng.randrange(2**32),
            rep_val_raw=rng.randrange(messages.FIXED_POINT_SCALE + 1),
            timestamp_ms=rng.randrange(2**64), nonce=rng.randrange(2**64),
            sender=11)
        payload = rng.randbytes(rng.randrange(0, 66))
        frame = encode_rep_mess(header, payload, secret)
        h2, p2, _ = decode_rep_mess(frame)
        assert (h2, p2) == (header, payload)
        assert encode_rep_mess(h2, p2, secret) == frame

    undetected = 0
    for _ in range(6):
        payload = rng.randbytes(rng.randrange(0, 128 - messages.MIN_FRAME_LEN + 1))
        header = ReputationHeader(mess_type=2, subject=1, rep_val_raw=5,
                                  timestamp_ms=1, nonce=rng.randrange(2**64),
                                  sender=11)
        frame = encode_rep_mess(header, payload, secret)
        for pos in range(len(frame)):
            mutated = bytearray(frame)
            mutated[pos] ^= 0x5A
            mutated = bytes(mutated)
            try:
                _, _, mtag = decode_rep_mess(mutated)
            except messages.MessageError:
                continue
            if auth.verify_node(11, mutated[:-messages.TAG_LEN], mtag):
                undetected += 1
    elapsed = time.perf_counter() - start
    verdict(3, undetected == 0 and elapsed < 30.0,
            f"10k round-trips, exhaustive byte mutations, "
            f"{undetected} undetected, {elapsed:.1f}s")


def test_criterion_04_zero_false_positives_under_congestion():
    zero_alarm_runs = 0
    fewer_than_loc = 0
    for seed in SEEDS:
        res = run_scenario(PRESETS["congestion"](), seed=seed)
        assert sum(c["dropped_buffer"]
                   for c in res.flow_counters.values()) > 0
        m = compute_metrics(res)
        raised = sum(1 for _, k, *_ in res.log if k == "alarm_raised")
        zero_alarm_runs += m.false_alarm_count == 0
        fewer_than_loc += raised < len(loc_baseline(res))
    verdict(4, zero_alarm_runs >= 18 and fewer_than_loc == 20,
            f"{zero_alarm_runs}/20 runs with zero false alarms, "
            f"{fewer_than_loc}/20 with fewer alarms than LOC")


def test_criterion_05_detection_rate(detection_runs):
    runs, elapsed = detection_runs
    rates = [compute_metrics(r).detection_rate for r in runs]
    mean = statistics.mean(rates)
    verdict(5, mean >= 0.80 and elapsed < 300.0,
            f"mean detection {mean:.3f} (target 0.85, floor 0.80), "
            f"min {min(rates):.2f}, {elapsed:.0f}s for 20 runs")


def test_criterion_06_alarm_overhead_ordering(detection_runs):
    runs, _ = detection_runs
    proposed = [compute_metrics(r).alarm_count_window for r in runs]
    loc = [loc_alarm_count_window(r) for r in runs]
    mean_p, mean_l = statistics.mean(proposed), statistics.mean(loc)
    verdict(6, mean_p <= mean_l / 5.0,
            f"proposed {mean_p:.1f} vs LOC {mean_l:.1f} alarms in window "
            f"(ratio {mean_p / mean_l:.3f}, need <= 0.2)")


def _sweep_mean(metric, **overrides):
    vals = []
    for rep in range(6):
        cfg = ScenarioConfig(rng_seed=100 + rep, **overrides)
        value = getattr(compute_metrics(run_scenario(cfg)), metric)
        if value is not None:
            vals.append(value)
    return statistics.mean(vals)


def test_criterion_07a_convergence_faster_with_speed():
    means = [
        _sweep_mean("mean_effective_convergence_s", max_speed_mps=speed)
        for speed in (5.0, 10.0, 20.0)
    ]
    ok = means[0] > means[1] > means[2]
    verdict(7, ok, f"7a: effective convergence by speed {5, 10, 20} = "
            f"{[f'{m:.1f}' for m in means]} s, strictly decreasing={ok}")


def test_criterion_07b_f_fraction_insensitive():
    means = [
        _sweep_mean("mean_total_convergence_s", f_fraction=f)
        for f in (0.2, 0.5, 1.0)
    ]
    spread = max(means) - min(means)
    rel = spread / statistics.mean(means)
    verdict(7, rel < 0.20,
            f"7b: total convergence by F {0.2, 0.5, 1.0} = "
            f"{[f'{m:.1f}' for m in means]} s, spread {rel:.1%} of mean")


def test_criterion_07c_malicious_fraction_robustness():
    detection = {}
    all_delivered = True
    for frac in (0.1, 0.2, 0.3, 0.4):
        rates = []
        for rep in range(6):
            cfg = ScenarioConfig(rng_seed=100 + rep,
                                 malicious_count=int(50 * frac),
                                 adv_drops_certificates=True)
            res = run_scenario(cfg)
            rates.append(compute_metrics(res).detection_rate)
            honest = res.honest
            half = res.config.duration_s * 1000 / 2
            for key, issued_at in res.cert_issued.items():
                if issued_at <= half and \
                        not honest <= set(res.cert_holders.get(key, {})):
                    all_delivered = False
        detection[frac] = statistics.mean(rates)
    gap = detection[0.1] - detection[0.4]
    verdict(7, all_delivered and gap <= 0.10,
            f"7c: detection by fraction {detection}, gap {gap:.3f} "
            f"(need <= 0.10), certificates fully delivered={all_delivered}")


def test_criterion_08_security_suite():
    problems = []

    # dropped feedback: omitted respondents flag it and escalate, and
    # every resulting alarm targets a real adversary
    res = run_scenario(ScenarioConfig(rng_seed=7, adv_drops_feedback=True,
                                      duration_s=400.0))
    rejected = sum(1 for _, k, _, _, d in res.log
                   if k == "cert_rejected" and d == "dropped_feedback")
    alarm_subjects = {s for _, k, _, s, _ in res.log if k == "alarm_raised"}
    if rejected == 0:
        problems.append("no DroppedFeedback verdicts")
    if not alarm_subjects or not alarm_subjects <= res.malicious:
        problems.append(f"escalation misfired ({sorted(alarm_subjects)})")

    # tampered certificates are rejected and poison nothing
    res = run_scenario(ScenarioConfig(rng_seed=7, adv_tampers_certificates=True,
                                      drop_prob=0.5, duration_s=400.0))
    bad_tag = sum(1 for _, k, _, _, d in res.log
                  if k == "cert_rejected" and d == "bad_issuer_tag")
    iso_honest = {s for _, k, _, s, _ in res.log
                  if k == "isolated"} & res.honest
    if bad_tag == 0:
        problems.append("no tampered certificate was rejected")
    if iso_honest:
        problems.append(f"tampering isolated honest nodes {iso_honest}")

    # a lone false accuser cannot isolate anyone honest
    res = run_scenario(ScenarioConfig(rng_seed=7, malicious_count=1,
                                      drop_prob=0.0, adv_false_accuser=True,
                                      duration_s=400.0))
    accusations = sum(1 for _, k, *_ in res.log if k == "false_accusation")
    iso_honest = {s for _, k, _, s, _ in res.log
                  if k == "isolated"} & res.honest
    if accusations == 0:
        problems.append("false accuser never accused")
    if iso_honest:
        problems.append(f"lone accuser isolated honest nodes {iso_honest}")

    # duplicate same-respondent-set certificates contribute beta = 0
    world = World(6)
    node = world.nodes[1]
    c1 = make_cert(5, (2, 3, 4), (0.9, 0.9, 0.9), nonce=1, at_ms=1000)
    node.handle_certificate(encode_certificate(c1), 1000, cache=True, from_node=5)
    t1 = node.table[5].rep_val
    c2 = make_cert(5, (2, 3, 4), (0.9, 0.9, 0.9), nonce=2, at_ms=2000)
    node.handle_certificate(encode_certificate(c2), 2000, cache=True, from_node=5)
    expect = trust_math.update_trust(t1, 0.1, node.params.alpha, 0.0, 0.0)
    if abs(node.table[5].rep_val - expect) > 1e-12:
        problems.append("repeat respondent set did not weigh in at beta=0")

    # certificate droppers delay but never prevent convergence
    for flag in (False, True):
        res = run_scenario(ScenarioConfig(rng_seed=8,
                                          adv_drops_certificates=flag))
        m = compute_metrics(res)
        if not m.total_convergence_times_s:
            problems.append(f"no full convergence with cert droppers={flag}")

    verdict(8, not problems, "; ".join(problems) or
            "all five security cases hold")


def test_criterion_09_determinism():
    cfg = ScenarioConfig(duration_s=300.0, rng_seed=13, malicious_count=3)
    a, b = run_scenario(cfg), run_scenario(cfg)
    logs_equal = a.render_log() == b.render_log()
    rows_equal = compute_metrics(a).to_row() == compute_metrics(b).to_row()
    spec = harness.parse_sweep_file(
        "variable = max_speed\nvalues = 5, 10\nrepetitions = 1\n"
        "node_count = 10\nflow_count = 3\nmalicious_count = 1\n"
        "duration_s = 60\n")
    csv_equal = harness.sweep_csv(spec, harness.run_sweep(spec)) == \
        harness.sweep_csv(spec, harness.run_sweep(spec))
    verdict(9, logs_equal and rows_equal and csv_equal,
            f"logs identical={logs_equal}, metrics identical={rows_equal}, "
            f"CSV identical={csv_equal}")


def test_criterion_10_eventual_delivery_bound():
    failures = []
    for name, adj in (("line6", line_adj(6)), ("ring10", ring_adj(10)),
                      ("grid3x4", grid_adj(3, 4))):
        d = diameter(adj)
        assert d == 5
        world = World(len(adj), adjacency=adj)
        keys = seed_certs(world)
        for r in range(d):
            if coverage(world, keys):
                failures.append(f"{name}: covered after {r} < D rounds")
                break
            exchange_round(world, now=(r + 1) * 1000)
        if not coverage(world, keys):
            failures.append(f"{name}: not covered within D={d} rounds")
    verdict(10, not failures, "; ".join(failures) or
            "line/ring/grid all covered in exactly D=5 exchange rounds")
