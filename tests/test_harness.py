"""Experiment harness: metrics, the LOC baseline, scenario and sweep
files, CSV output, and plots."""

import pytest

from trustwatch import harness
from trustwatch.harness import (
    MetricsReport,
    SweepRow,
    SweepSpec,
    aggregate,
    compute_metrics,
    loc_alarm_count_window,
    loc_baseline,
    parse_scenario_file,
    parse_sweep_file,
    run_sweep,
    scenario_from_mapping,
    svg_plot,
    sweep_csv,
    sweep_plots,
)
from trustwatch.sim import ConfigInvalid, ScenarioConfig, SimResult, run_scenario


def shim_result(log, config=None, node_count=4, malicious=frozenset()):
    return SimResult(config=config or ScenarioConfig(node_count=node_count),
                     log=log, ledger={}, malicious=set(malicious),
                     cert_issued={}, cert_holders={}, ever_neighbors={},
                     isolated_final={}, flow_counters={})


# --- scenario files -------------------------------------------------------

def test_scenario_file_round_trip():
    cfg = parse_scenario_file("""
        # comment
        node_count = 20
        max_speed_mps = 7.5
        adv_drops_certificates = yes
        mobility_model = static
    """)
    assert cfg.node_count == 20
    assert cfg.max_speed_mps == 7.5
    assert cfg.adv_drops_certificates is True
    assert cfg.mobility_model == "static"


def test_alarm_jitter_is_not_a_scenario_key():
    with pytest.raises(ConfigInvalid, match="unknown key 'alarm_jitter_ms'"):
        parse_scenario_file("alarm_jitter_ms = 1000\n")


def test_scenario_file_preset_base():
    cfg = parse_scenario_file("preset = congestion\nrng_seed = 9\n")
    assert cfg.malicious_count == 0
    assert cfg.service_slot_ms == 50
    assert cfg.rng_seed == 9


def test_scenario_file_unknown_key_is_hard_error():
    with pytest.raises(ConfigInvalid) as err:
        parse_scenario_file("node_count = 10\nnode_cuont = 12\n")
    assert "node_cuont" in str(err.value)


def test_scenario_file_key_given_twice_is_rejected():
    with pytest.raises(ConfigInvalid,
                       match="line 3: 'node_count' is already set on line 1"):
        parse_scenario_file("node_count = 10\n# a comment\nnode_count=12\n")


def test_sweep_file_key_given_twice_is_rejected():
    with pytest.raises(ConfigInvalid,
                       match="line 4: 'variable' is already set on line 1"):
        parse_sweep_file("variable = max_speed\nvalues = 5\nrepetitions = 1\n"
                         "variable = node_count\n")


def test_scenario_file_unknown_preset_rejected():
    with pytest.raises(ConfigInvalid):
        parse_scenario_file("preset = nonesuch\n")


def test_scenario_file_bad_syntax_rejected():
    with pytest.raises(ConfigInvalid):
        parse_scenario_file("just some words\n")


def test_scenario_file_bad_bool_rejected():
    with pytest.raises(ConfigInvalid):
        scenario_from_mapping({"adv_false_accuser": "maybe"})


def test_scenario_file_validates_result():
    with pytest.raises(ConfigInvalid):
        parse_scenario_file("node_count = 5\nmalicious_count = 7\n")


# --- sweep files ----------------------------------------------------------

SWEEP_TEXT = """
variable = max_speed
values = 5, 10
repetitions = 2
seed_base = 50
node_count = 10
flow_count = 3
malicious_count = 1
duration_s = 60
"""


def test_sweep_file_parsing():
    spec = parse_sweep_file(SWEEP_TEXT)
    assert spec.variable == "max_speed"
    assert spec.values == [5.0, 10.0]
    assert spec.repetitions == 2
    assert spec.base.node_count == 10


def test_sweep_common_random_numbers():
    spec = parse_sweep_file(SWEEP_TEXT)
    a = spec.config_for(5.0, rep=1)
    b = spec.config_for(10.0, rep=1)
    assert a.rng_seed == b.rng_seed == 51
    assert a.max_speed_mps == 5.0 and b.max_speed_mps == 10.0


def test_sweep_malicious_fraction_scales_with_node_count():
    spec = SweepSpec(variable="malicious_fraction", values=[0.2],
                     repetitions=1, base=ScenarioConfig(node_count=20))
    assert spec.config_for(0.2, 0).malicious_count == 4


def test_sweep_unknown_variable_rejected():
    with pytest.raises(ConfigInvalid):
        parse_sweep_file("variable = tx_power\nvalues = 1\n")


def test_sweep_missing_keys_rejected():
    with pytest.raises(ConfigInvalid):
        parse_sweep_file("values = 1, 2\n")


@pytest.mark.parametrize("values, problem", [
    ([10, 1], "node_count = 1: node_count must be >= 2"),
    ([10, float("nan")], "values must be finite"),
], ids=["node-count-1", "nan"])
def test_sweep_checks_every_run_before_the_first(monkeypatch, values, problem):
    def ran(cfg):
        raise AssertionError(f"a {cfg.node_count}-node scenario ran")
    monkeypatch.setattr(harness, "run_scenario", ran)
    spec = SweepSpec(variable="node_count", values=values, repetitions=2,
                     base=ScenarioConfig(node_count=10, flow_count=3,
                                         malicious_count=1, duration_s=10))
    with pytest.raises(ConfigInvalid) as err:
        run_sweep(spec)
    assert problem in str(err.value)


def test_run_sweep_and_csv_deterministic():
    spec = parse_sweep_file(SWEEP_TEXT)
    rows = run_sweep(spec)
    assert len(rows) == 4
    csv_a = sweep_csv(spec, rows)
    csv_b = sweep_csv(spec, run_sweep(spec))
    assert csv_a == csv_b
    lines = csv_a.splitlines()
    # header + 4 runs + (mean, stddev) per value
    assert len(lines) == 1 + 4 + 4
    assert lines[0].startswith("run_id,seed,independent_var,value,")
    assert any(line.startswith("mean@5,") for line in lines)
    assert any(line.startswith("stddev@10,") for line in lines)


def test_aggregate_skips_undefined():
    rows = [
        SweepRow("a", 1, 1.0, MetricsReport(0.0, 0, 1.0,
                                            mean_total_convergence_s=10.0)),
        SweepRow("b", 2, 1.0, MetricsReport(0.0, 0, 0.5,
                                            mean_total_convergence_s=None)),
    ]
    assert aggregate(rows, "mean_total_convergence_s") == {1.0: 10.0}
    assert aggregate(rows, "detection_rate") == {1.0: 0.75}


def test_sweep_plots_emit_svg():
    spec = parse_sweep_file(SWEEP_TEXT)
    rows = run_sweep(spec)
    plots = sweep_plots(spec, rows)
    assert "detection_rate" in plots
    for svg in plots.values():
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg


def test_svg_plot_handles_degenerate_input():
    for points in ({1.0: 2.0}, {}):
        svg = svg_plot(points, "t", "x", "y")
        assert "<svg" in svg


# --- metrics --------------------------------------------------------------

def test_metrics_from_shim_log():
    log = [
        (1000, "alarm_raised", 2, 3, ""),
        (2000, "isolated", 2, 3, ""),
        (3000, "alarm_raised", 4, 1, ""),
    ]
    res = shim_result(log, malicious={3})
    m = compute_metrics(res)
    assert m.detection_rate == 1.0
    assert m.false_alarm_count == 1
    assert m.false_positive_rate == pytest.approx(1 / 3)
    assert m.alarm_count_window == 2


def test_metrics_requires_log():
    res = shim_result([])
    res.log = None
    with pytest.raises(harness.IncompleteLog):
        compute_metrics(res)


# --- LOC baseline ---------------------------------------------------------

def test_loc_baseline_alarms_on_every_window_over_threshold():
    cfg = ScenarioConfig(min_samples=3, monitor_threshold=0.25,
                         monitor_window_s=30.0)
    log = []
    # 2 clean then 4 drops: from the 3rd observation on, the window holds
    # >= 3 samples with a bad fraction above 0.25
    for i, outcome in enumerate([0, 0, 1, 1, 1, 1]):
        log.append((1000 + i, "monitor_obs", 1, 2, outcome))
    alarms = loc_baseline(shim_result(log, config=cfg))
    assert [(t, o, s) for t, o, s in alarms] == [
        (1002, 1, 2), (1003, 1, 2), (1004, 1, 2), (1005, 1, 2)]


def test_loc_baseline_respects_window_expiry():
    cfg = ScenarioConfig(min_samples=3, monitor_threshold=0.25,
                         monitor_window_s=1.0)
    log = [(0, "monitor_obs", 1, 2, 1),
           (100, "monitor_obs", 1, 2, 1),
           (200, "monitor_obs", 1, 2, 1),
           # far in the future: the earlier samples have expired
           (10_000, "monitor_obs", 1, 2, 1)]
    alarms = loc_baseline(shim_result(log, config=cfg))
    assert [t for t, _, _ in alarms] == [200]


def test_loc_window_count_uses_first_alarm_of_either_side():
    cfg = ScenarioConfig(min_samples=1, monitor_threshold=0.25,
                         overhead_window_s=10.0)
    log = [(5_000, "alarm_raised", 3, 2, ""),
           (8_000, "monitor_obs", 1, 2, 1),
           (20_000, "monitor_obs", 1, 2, 1)]
    res = shim_result(log, config=cfg)
    # window starts at the protocol's alarm (5 s), so only the 8 s LOC
    # alarm falls inside 5-15 s
    assert loc_alarm_count_window(res) == 1


def test_loc_baseline_ordering_on_real_run():
    res = run_scenario(ScenarioConfig(duration_s=300.0, rng_seed=4))
    proposed = sum(1 for _, k, *_ in res.log if k == "alarm_raised")
    assert proposed < len(loc_baseline(res))
