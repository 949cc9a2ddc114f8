"""Byte-identity gate: the first scenario of every benchmark workload at
seed 1 (scenario seed 1000) must reproduce both digests recorded in
``bench/expected.json``: the ``render_log()`` SHA-256 and the outcome
digest, which also covers the overhead ledger that the log does not show.
A change that alters simulated behaviour fails here; one that is meant to
must re-record the benchmark's expected outputs (``bench/run.py --record``)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from trustwatch import harness
from trustwatch.sim import Simulator

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload",
                         ["multihop", "congestion", "scale200", "adversarial"])
def test_log_digest_matches_benchmark_record(workload):
    checks = bench_module("checks")
    cfg = bench_module("workloads").WORKLOADS[workload].configs(SEED)[0]
    assert cfg.rng_seed == 1000
    want = json.loads((BENCH / "expected.json").read_text())[workload][
        str(cfg.rng_seed)]
    result = Simulator(cfg).run()
    assert checks.log_digest(result.render_log()) == want["log"]
    assert checks.outcome_digest(result, harness.compute_metrics(result)) \
        == want["outcome"]
