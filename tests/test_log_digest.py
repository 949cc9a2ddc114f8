"""Benchmark gates.

Byte identity: the first scenario of every benchmark workload at seed 1
(scenario seed 1000) must reproduce both digests recorded in
``bench/expected.json``: the ``render_log()`` SHA-256 and the outcome
digest, which also covers the overhead ledger that the log does not show.
A change that alters simulated behaviour fails here; one that is meant to
must re-record the benchmark's expected outputs (``bench/run.py --record``).

Tracing: every function ``bench/tracing.py`` wraps must exist, because a
missing one is skipped silently and its metrics read 0."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from trustwatch import harness, messages
from trustwatch.node_protocol import Node
from trustwatch.sim import ScenarioConfig, Simulator

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


def test_every_traced_function_exists_and_wrappers_see_the_run(monkeypatch):
    tracer = bench_module("tracing").Tracer()
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracer._targets(messages.decode_rep_mess)
               if vars(owner).get(attr) is None]
    assert missing == []
    # the tracer wraps after the simulator is built: event dispatch, the
    # broadcast fan-out, message dispatch and the certificate memo's misses
    # must all reach a class- or module-level wrapper installed then
    cfg = ScenarioConfig(
        node_count=8, area_width_m=40.0, area_height_m=40.0, flow_count=2,
        malicious_count=1, adv_false_accuser=True, duration_s=40.0,
        rng_seed=1)
    simulator = Simulator(cfg)
    wrapped = ((Simulator, "_handle_tick"), (Node, "receive"),
               (Node, "_on_global_alarm"), (messages, "verify_group_certificate"))
    calls = Counter()
    for owner, attr in wrapped:
        def wrapper(*args, _fn=vars(owner)[attr], _attr=attr):
            calls[_attr] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, attr, wrapper)
    log = simulator.run().render_log()
    assert all(calls[attr] > 0 for _, attr in wrapped), calls
    monkeypatch.undo()
    # the tracer's own wrappers, installed as a traced benchmark run
    # installs them, change nothing in the run and see what they count
    simulator = Simulator(cfg)
    with tracer.installed():
        assert simulator.run().render_log() == log
    counted = ("receive.flooded", "topology.changed", "cert.accepted")
    assert all(tracer.counts[key] > 0 for key in counted), tracer.counts
    assert tracer.span_stats()["node_protocol.receive.global_alarm"]["calls"] > 0
