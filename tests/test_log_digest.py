"""Byte-identity gate: the first scenario of two benchmark workloads at
seed 1 (scenario seed 1000) must reproduce the ``render_log()`` SHA-256
recorded in ``bench/expected.json``. A change that alters simulated
behaviour fails here; one that is meant to must re-record the benchmark's
expected outputs (``bench/run.py --record``)."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from trustwatch.sim import Simulator

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1


def bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", ["multihop", "congestion"])
def test_log_digest_matches_benchmark_record(workload):
    cfg = bench_workloads()[workload].configs(SEED)[0]
    assert cfg.rng_seed == 1000
    expected = json.loads((BENCH / "expected.json").read_text())
    want = expected[workload][str(cfg.rng_seed)]["log"]
    log = Simulator(cfg).run().render_log()
    assert hashlib.sha256(log.encode()).hexdigest() == want
