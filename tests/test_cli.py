"""Command line entry points, exercised in-process."""

import json

import pytest

from trustwatch import harness, messages
from trustwatch.cli import main
from trustwatch.messages import RepMessType, ReputationHeader
from trustwatch.sim import run_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("node_count = 10\nflow_count = 3\nmalicious_count = 1\n"
                    "duration_s = 60\nrng_seed = 3\n")
    return path


def test_run_writes_log_and_metrics(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert rc == 0
    assert (out / "events.log").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert "detection_rate" in metrics
    assert "seed=3" in capsys.readouterr().out


def test_run_seed_flag_and_env_override(tmp_path, scenario_file, monkeypatch,
                                        capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--seed", "8",
          "--out", str(out)])
    assert "seed=8" in capsys.readouterr().out
    monkeypatch.setenv("TRUSTWATCH_SEED", "9")
    main(["run", "--scenario", str(scenario_file), "--seed", "8",
          "--out", str(out)])
    assert "seed=9" in capsys.readouterr().out


def test_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("node_count = -3\n")
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "{missing}"],
    ["replay", "--log", "{missing}"],
    ["sweep", "--spec", "{missing}"],
    ["run", "--scenario", "{scenario}", "--out", "{scenario}"],
    ["sweep", "--spec", "{spec}", "--out", "{scenario}"],
], ids=["run-scenario", "replay-log", "sweep-spec", "run-out-is-a-file",
        "sweep-out-is-a-file"])
def test_unreadable_input_or_unwritable_output_is_an_error(
        tmp_path, scenario_file, monkeypatch, capsys, argv):
    spec = tmp_path / "sweep.txt"
    spec.write_text("variable = max_speed\nvalues = 5\nrepetitions = 1\n")
    paths = {"missing": tmp_path / "missing.txt", "scenario": scenario_file,
             "spec": spec}
    argv = [arg.format(**paths) for arg in argv]
    # the error comes before any simulation
    monkeypatch.setattr("trustwatch.cli.run_scenario", None)
    monkeypatch.setattr("trustwatch.harness.run_sweep", None)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(paths["scenario" if "--out" in argv else "missing"]) in err


def test_sweep_writes_csv_and_plots(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("variable = max_speed\nvalues = 5, 10\nrepetitions = 1\n"
                    "node_count = 10\nflow_count = 3\nmalicious_count = 1\n"
                    "duration_s = 60\n")
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert (out / "sweep_max_speed.csv").exists()
    assert any(p.suffix == ".svg" for p in out.iterdir())


def test_codec_inspect_round_trip(capsys):
    header = ReputationHeader(mess_type=int(RepMessType.CHALLENGE), subject=7,
                              rep_val_raw=1234, timestamp_ms=5, nonce=9,
                              sender=3)
    frame = messages.encode_rep_mess(header, b"\x01\x02", b"k" * 16)
    assert main(["codec", "inspect", frame.hex()]) == 0
    out = capsys.readouterr().out
    assert "CHALLENGE" in out
    assert "subject:      7" in out
    assert "0.1234" in out


def test_codec_inspect_rejects_garbage(capsys):
    assert main(["codec", "inspect", "zz"]) == 2
    assert main(["codec", "inspect", "00ff"]) == 1


def test_replay_runs_loc_baseline(tmp_path, scenario_file, monkeypatch,
                                  capsys):
    """Replaying a run's log raises the LOC alarms of the run itself."""
    monkeypatch.delenv("TRUSTWATCH_SEED", raising=False)
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--seed", "4",
          "--out", str(out)])
    capsys.readouterr()
    rc = main(["replay", "--log", str(out / "events.log"),
               "--scenario", str(scenario_file)])
    assert rc == 0
    alarms = harness.loc_baseline(run_scenario(
        harness.parse_scenario_file(scenario_file.read_text()), seed=4))
    assert alarms
    assert capsys.readouterr().out.splitlines() == [
        f"LOC alarms: {len(alarms)}",
        *(f"{t} loc_alarm {observer} {subject}" for t, observer, subject in alarms)]


def test_replay_rejects_an_unknown_baseline_before_reading_the_log(
        tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--log", str(tmp_path / "missing.txt"),
              "--baseline", "lco"])
    assert exc.value.code == 2
    assert "invalid choice: 'lco'" in capsys.readouterr().err


def _with_defaults(lines, **defaults):
    """``lines``, then each default whose key they do not set: a file may
    set a key only once."""
    given = {line.split("=")[0].strip() for line in lines.splitlines()}
    return lines + "".join(f"{key} = {value}\n" for key, value in defaults.items()
                           if key not in given)


def _sweep(tmp_path, lines):
    spec = tmp_path / "sweep.txt"
    spec.write_text(_with_defaults(lines, variable="max_speed", node_count=10,
                                   flow_count=3, malicious_count=1, duration_s=10))
    return ["sweep", "--spec", str(spec), "--out", str(tmp_path / "out")]


def _replay(tmp_path, lines):
    log = tmp_path / "events.log"
    log.write_text("100 monitor_obs 1 2 0\n" + lines)
    return ["replay", "--log", str(log)]


def _seeded_run(tmp_path, lines):
    return ["run", "--out", str(tmp_path / "out")]


def _run(tmp_path, lines):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(_with_defaults(lines, duration_s=10, malicious_count=0))
    return ["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("argv,text,env", [
    (_sweep, "values = 5, ten\nrepetitions = 1\n", None),
    (_sweep, "values = 5\nrepetitions = two\n", None),
    (_replay, "1x0 monitor_obs 1 2 1\n", None),
    (_replay, "100 monitor_obs 1 2 x\n", None),
    (_replay, "100 monitor_obs 1\n", None),
    (_seeded_run, "", "abc"),
    (_run, "exchange_interval_s = 0.0004\n", None),
    (_run, "node_count = 1\nflow_count = 1\n", None),
    (_run, "duration_s = inf\n", None),
    (_run, "vote_window_s = -5\n", None),
    (_sweep, "values = 5, nan\nrepetitions = 1\n", None),
    (_run, "min_samples = -3\n", None),
    (_sweep, "variable = node_count\nvalues = 10.5\nrepetitions = 1\n", None),
], ids=["sweep-values", "sweep-repetitions", "replay-line", "replay-outcome",
        "replay-truncated",
        "seed-env", "run-exchange-under-1ms", "run-flow-on-one-node",
        "run-infinite-duration", "run-negative-window", "sweep-nan-value",
        "run-negative-min-samples", "sweep-fractional-node-count"])
def test_bad_input_is_a_config_error(tmp_path, monkeypatch, capsys, argv,
                                     text, env):
    if env is not None:
        monkeypatch.setenv("TRUSTWATCH_SEED", env)
    assert main(argv(tmp_path, text)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    if argv is _replay:
        assert f"{tmp_path / 'events.log'} line 2" in err


@pytest.mark.parametrize("argv, text, problem", [
    (_run, "node_count = 10\nflow_count = 2\nnode_count = 12\n",
     "line 3: 'node_count' is already set on line 1"),
    (_sweep, "values = 5\n\nvalues = 10\nrepetitions = 1\n",
     "line 3: 'values' is already set on line 1"),
], ids=["scenario", "sweep"])
def test_a_key_given_twice_is_a_config_error(tmp_path, capsys, argv, text,
                                             problem):
    assert main(argv(tmp_path, text)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert problem in err
