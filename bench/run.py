"""trustwatch benchmark: one workload at one seed, in one process.

Run from the root of a trustwatch checkout:

    python3 bench/run.py --workload multihop --seed 1 --seconds 30 --trace 0

The run builds and simulates every scenario of the workload's pool (see
workloads.py), one at a time, checks each one's outputs and invariants,
and prints a table of metrics followed, as the last line, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones (host
time scaled to a reference host speed by ``calibrate()``, not simulated
time); with ``--trace 1`` a smaller part of the pool
is simulated once untraced and once traced, and the metrics are the
per-layer ones. ``--record`` stores the run's digests as the expected
outputs for its seed. README.md explains every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
SPANS_DIR = Path(".bench_out")
SETUP_SAMPLES = 30
# calibrate() at the host speed the bounds were tuned at (2-core host)
CALIBRATION_REFERENCE_S = 0.025


@dataclass
class Sample:
    """One simulated scenario."""

    seed: int
    run_s: float = 0.0
    report_s: float = 0.0
    outcome: str = ""
    log: str = ""
    violations: dict[str, int] = field(default_factory=dict)
    state: dict[str, int] = field(default_factory=dict)
    calibration: list[float] = field(default_factory=list)
    error: str | None = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget for repeating the pool (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this run's digests as the expected outputs")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def calibrate() -> float:
    """Host seconds for a fixed loop of the kinds of work the simulator
    does: tuple keys in a dict and a set, a heap, keyed BLAKE2b tags.

    The host's speed drifts by up to half from one minute to the next
    under other load. Timed next to each phase it scales, this loop slows
    down with it, so dividing by it cancels much of the drift. It calls
    nothing of the program, so a change to the program cannot move it."""
    t0 = perf_counter()
    counts, seen, heap = {}, set(), []
    key = bytes(32)
    for i in range(20_000):
        k = (i & 255, i & 1023)
        counts[k] = counts.get(k, 0) + 1
        seen.add(k)
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        if i % 16 == 0:
            hashlib.blake2b(i.to_bytes(4, "big") * 16, key=key).digest()
    return perf_counter() - t0


def measure_setup(Simulator, configs) -> tuple[list[float], list[float]]:
    """Host seconds to build a Simulator, SETUP_SAMPLES times over the
    pool, and the calibration time taken next to each build.

    The cyclic garbage collector is paused while a Simulator is built, so
    that a collection owed to earlier allocations does not land in one
    sample; with it running, samples split between two modes a third apart."""
    Simulator(configs[0])  # first-call costs are not set-up
    times, calibration = [], []
    for i in range(SETUP_SAMPLES):
        cfg = configs[i % len(configs)]
        calibration.append(calibrate())
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            simulator = Simulator(cfg)
            times.append(perf_counter() - t0)
        finally:
            gc.enable()
        del simulator
    return times, calibration


def simulate(cfg, tracer=None) -> Sample:
    """Build, run and report one scenario; time the run and the report."""
    import checks
    from tracing import state_sizes
    from trustwatch import harness
    from trustwatch.sim import Simulator

    sample = Sample(seed=cfg.rng_seed)
    try:
        simulator = Simulator(cfg)
        gc.collect()
        sample.calibration = [calibrate(), calibrate()]
        with tracer.installed() if tracer else nullcontext():
            t0 = perf_counter()
            result = simulator.run()
            run_s = perf_counter() - t0
            gc.collect()  # the run's garbage is not the report's cost
            t0 = perf_counter()
            report = harness.compute_metrics(result)
            harness.loc_baseline(result)
            log_text = result.render_log()
            report_s = perf_counter() - t0
        sample.run_s, sample.report_s = run_s, report_s
        sample.outcome = checks.outcome_digest(result, report)
        sample.log = checks.log_digest(log_text)
        sample.violations = checks.invariant_violations(simulator, result)
        sample.state = state_sizes(simulator)
    except Exception:  # a run that raises is a failed run, not a crash
        sample.error = traceback.format_exc()
        print(f"scenario seed {cfg.rng_seed} raised:\n{sample.error}",
              file=sys.stderr)
    return sample


def count_failures(samples: list[Sample], expected: dict) -> int:
    """Runs that raised or whose outcome differs from the recorded one,
    or, for a seed with nothing recorded, from the first run of the seed."""
    first: dict[int, str] = {}
    failed = 0
    for s in samples:
        if s.error is not None:
            failed += 1
            continue
        recorded = expected.get(str(s.seed))
        reference = (recorded["outcome"] if recorded
                     else first.setdefault(s.seed, s.outcome))
        if s.outcome != reference:
            failed += 1
            print(f"scenario seed {s.seed}: outcome digest {s.outcome} "
                  f"differs from {reference}", file=sys.stderr)
    return failed


def record(workload: str, samples: list[Sample], failed: int) -> None:
    if failed:
        print("not recording: some runs failed", file=sys.stderr)
        return
    data = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    entries = data.setdefault(workload, {})
    for s in samples:
        entries[str(s.seed)] = {"outcome": s.outcome, "log": s.log}
    EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def per_scenario(rounds: list[list[Sample]], attr: str) -> float:
    """Host seconds per scenario: the mean over each round's pool (the
    batch), then the median over rounds."""
    means = [statistics.mean(getattr(s, attr) for s in r) for r in rounds if r]
    return statistics.median(means) if means else 0.0


def print_table(rows) -> None:
    print(f"{'metric':<44} {'unit':<10} {'value':>14} {'n':>5}")
    for name, unit, value, n, note in rows:
        print(f"{name:<44} {unit:<10} {value:>14.6g} {n:>5}  {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "trustwatch" / "sim.py").is_file():
        print("error: no src/trustwatch here; run from the root of a "
              "trustwatch checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from tracing import Tracer, layer_metrics
    from trustwatch.sim import Simulator
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    started = perf_counter()
    deadline = started + args.seconds
    configs = workload.configs(args.seed)
    expected = {}
    if EXPECTED_PATH.exists() and not args.record:
        expected = json.loads(EXPECTED_PATH.read_text()).get(workload.name, {})
    recorded = all(str(c.rng_seed) in expected for c in configs)

    setup, setup_calibration = measure_setup(Simulator, configs)
    tracer = None
    if args.trace:
        configs = configs[:workload.traced]
        rounds = [[simulate(cfg) for cfg in configs]]
        tracer = Tracer()
        traced = []
        for i, cfg in enumerate(configs):
            tracer.run_id = i
            traced.append(simulate(cfg, tracer))
        tracer.save(SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.npz")
        samples = rounds[0] + traced
    else:
        rounds = []
        while True:
            round_started = perf_counter()
            rounds.append([simulate(cfg) for cfg in configs])
            if perf_counter() + (perf_counter() - round_started) > deadline:
                break
        samples = [s for r in rounds for s in r]
        if len(rounds) == 1 and not recorded:
            # nothing recorded for this seed: a second run must agree
            samples.append(simulate(configs[0]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = count_failures(samples, expected)
    rounds = [[s for s in r if s.error is None] for r in rounds]
    ok = [s for r in rounds for s in r]
    violations = Counter()
    for s in ok:
        violations.update(s.violations)
    log_known = [s for s in samples if str(s.seed) in expected and not s.error]
    log_same = sum(s.log == expected[str(s.seed)]["log"] for s in log_known)

    print(f"workload {workload.name}, seed {args.seed}: {len(configs)} "
          f"scenarios x {workload.duration_s:g} simulated s, {len(rounds)} "
          f"round(s), {len(samples)} runs in {perf_counter() - started:.1f} s"
          f"{' (traced)' if tracer else ''}")
    # each phase is scaled by the calibrations timed during that phase
    setup_scale = CALIBRATION_REFERENCE_S / statistics.median(setup_calibration)
    run_calibration = [c for s in samples for c in s.calibration]
    scale = CALIBRATION_REFERENCE_S / statistics.median(run_calibration)
    print(f"host speed: calibration loop {CALIBRATION_REFERENCE_S * 1e3:.2f} ms "
          f"at reference speed, here {statistics.median(setup_calibration) * 1e3:.2f}"
          f" ms during set-up and {statistics.median(run_calibration) * 1e3:.2f} ms"
          f" during the runs (medians of {len(setup_calibration)} and "
          f"{len(run_calibration)}); times are scaled to the reference")
    raw = {"setup_s": statistics.median(setup),
           "run_s": per_scenario(rounds, "run_s"),
           "report_s": per_scenario(rounds, "report_s")}
    notes = {name: f"unscaled {value:.6g}" for name, value in raw.items()}
    for name in ("run_s", "report_s"):
        if ok:
            notes[name] += (", median per scenario "
                            f"{statistics.median(getattr(s, name) for s in ok):.6g}")
    end_to_end = {
        "setup_s": (raw["setup_s"] * setup_scale, "s", len(setup)),
        "run_s": (raw["run_s"] * scale, "s", len(ok)),
        "report_s": (raw["report_s"] * scale, "s", len(ok)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    print_table(
        [(name, unit, value, n, notes.get(name, ""))
         for name, (value, unit, n) in end_to_end.items()]
        + [("failed_runs", "share", failed / len(samples), len(samples),
            f"{failed} of {len(samples)} runs"),
           ("invariant_violations", "count/run",
            sum(violations.values()) / max(1, len(ok)), len(ok),
            ", ".join(f"{k} {v}" for k, v in violations.items()))])
    if log_known:
        print(f"log digests: {log_same} of {len(log_known)} runs match the "
              f"recorded render_log() SHA-256")
    else:
        print("log digests: none recorded for this seed")

    if tracer:
        state = Counter()
        for s in traced:
            state.update(s.state)
        metrics = layer_metrics(
            tracer, len(traced), sum(s.run_s for s in rounds[0]),
            sum(s.run_s for s in traced), state,
            sum(sum(s.violations.values()) for s in traced))
        print(f"\n{'span':<36} {'calls/run':>10} {'self s/run':>11} "
              f"{'incl s/run':>11}")
        for name, st in sorted(tracer.span_stats().items()):
            print(f"{name:<36} {st['calls'] / len(traced):>10.1f} "
                  f"{st['self_s'] / len(traced):>11.4f} "
                  f"{st['incl_s'] / len(traced):>11.4f}")
        print()
        print_table([(n, u, v, len(traced), "") for n, (v, u) in metrics.items()])
    else:
        metrics = {n: (v, u) for n, (v, u, _) in end_to_end.items()}

    if args.record:
        record(workload.name, samples, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
