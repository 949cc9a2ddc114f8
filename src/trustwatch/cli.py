"""trustwatch command line: run scenarios, run sweeps, inspect frames,
replay logs against the local-detection baseline."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import harness, messages
from .sim import ConfigInvalid, ScenarioConfig, SimResult, run_scenario


def _read_text(path: str) -> str:
    """An input file as UTF-8 text, whatever the locale. A file that is
    not UTF-8 is unreadable like a missing one: an ``OSError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None


def _load_scenario(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    return harness.parse_scenario_file(_read_text(path))


def _effective_seed(args_seed: int | None) -> int | None:
    env = os.environ.get("TRUSTWATCH_SEED")
    if env is not None:
        return harness._coerce("TRUSTWATCH_SEED", env, int)
    return args_seed


def cmd_run(args) -> int:
    cfg = _load_scenario(args.scenario)
    seed = _effective_seed(args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_scenario(cfg, seed=seed)
    metrics = harness.compute_metrics(result)
    (out_dir / "events.log").write_text(result.render_log())
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics.to_row(), indent=2, sort_keys=True) + "\n")
    print(f"seed={result.config.rng_seed} nodes={result.config.node_count} "
          f"malicious={sorted(result.malicious)}")
    print(f"detection_rate={metrics.detection_rate:.3f} "
          f"false_positive_rate={metrics.false_positive_rate:.3f} "
          f"false_alarms={metrics.false_alarm_count}")
    print(f"certificates={metrics.certificates_issued} "
          f"alarms_in_window={metrics.alarm_count_window} "
          f"delivered={metrics.packets_delivered}/{metrics.packets_sent}")
    print(f"wrote {out_dir / 'events.log'} and {out_dir / 'metrics.json'}")
    return 0


def cmd_sweep(args) -> int:
    spec = harness.parse_sweep_file(_read_text(args.spec))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = harness.run_sweep(spec)
    csv_path = out_dir / f"sweep_{spec.variable}.csv"
    csv_path.write_text(harness.sweep_csv(spec, rows))
    for metric, svg in harness.sweep_plots(spec, rows).items():
        (out_dir / f"sweep_{spec.variable}_{metric}.svg").write_text(svg)
    print(f"{len(rows)} runs; wrote {csv_path}")
    return 0


def cmd_codec_inspect(args) -> int:
    try:
        data = bytes.fromhex(args.hex)
    except ValueError:
        print("error: argument is not valid hex", file=sys.stderr)
        return 2
    try:
        header, payload, tag = messages.decode_rep_mess(data)
    except messages.MessageError as exc:
        print(f"decode error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"version:      {header.version}")
    print(f"type:         {messages.RepMessType(header.mess_type).name}")
    print(f"subject:      {header.subject}")
    print(f"rep_val:      {messages.from_fixed(header.rep_val_raw):.4f} "
          f"(raw {header.rep_val_raw})")
    print(f"timestamp_ms: {header.timestamp_ms}")
    print(f"nonce:        {header.nonce:#018x}")
    print(f"sender:       {header.sender}")
    print(f"payload:      {len(payload)} bytes {payload.hex()}")
    print(f"tag:          {tag.hex()}")
    return 0


def cmd_replay(args) -> int:
    cfg = _load_scenario(args.scenario)
    records = []
    for lineno, line in enumerate(_read_text(args.log).splitlines(), 1):
        if not line.strip():
            continue
        try:
            t, kind, actor, subject, *rest = line.split(" ", 4)
            detail = rest[0] if rest else ""
            if kind == "monitor_obs":
                detail = int(detail)  # the outcome the LOC baseline replays
            record = (int(t), kind, int(actor), int(subject), detail)
        except ValueError:
            raise ConfigInvalid([f"{args.log} line {lineno}: a line needs a "
                                 f"time, kind, actor and subject, and time, "
                                 f"actor, subject and a monitor_obs outcome "
                                 f"must be integers: {line!r}"])
        # the monitor windows take their samples in time order
        if records and record[0] < records[-1][0]:
            raise ConfigInvalid([f"{args.log} line {lineno}: time {record[0]} "
                                 f"is before time {records[-1][0]} on an "
                                 f"earlier line"])
        records.append(record)
    shim = SimResult(config=cfg, log=records, ledger={}, malicious=set(),
                     cert_holders={}, ever_neighbors={},
                     isolated_final={}, flow_counters={})
    alarms = harness.loc_baseline(shim)
    print(f"LOC alarms: {len(alarms)}")
    for t, observer, subject in alarms:
        print(f"{t} loc_alarm {observer} {subject}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustwatch",
        description="Reputation-based packet-drop detection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", help="scenario file (key = value lines)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--spec", required=True, help="sweep spec file")
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_codec = sub.add_parser("codec", help="wire-format tools")
    codec_sub = p_codec.add_subparsers(dest="codec_command", required=True)
    p_inspect = codec_sub.add_parser("inspect", help="pretty-print a frame")
    p_inspect.add_argument("hex")
    p_inspect.set_defaults(fn=cmd_codec_inspect)

    p_replay = sub.add_parser("replay", help="replay a log against a baseline")
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--baseline", default="loc", choices=("loc",))
    p_replay.add_argument("--scenario", help="scenario file for monitor params")
    p_replay.set_defaults(fn=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigInvalid as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
