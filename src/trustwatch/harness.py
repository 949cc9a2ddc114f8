"""Metrics computation, the local-detection comparison baseline,
scenario/sweep file parsing, CSV emission, and static SVG plots."""

from __future__ import annotations

import csv
import io
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from functools import partial

from .node_protocol import MonitorWindow, ms
from .sim import ConfigInvalid, PRESETS, ScenarioConfig, SimResult, run_scenario


class IncompleteLog(ValueError):
    pass


@dataclass
class MetricsReport:
    false_positive_rate: float
    false_alarm_count: int
    detection_rate: float
    total_convergence_times_s: list[float] = field(default_factory=list)
    effective_convergence_times_s: list[float] = field(default_factory=list)
    mean_total_convergence_s: float | None = None
    mean_effective_convergence_s: float | None = None
    alarm_count_window: int = 0
    total_ctrl_bytes: int = 0
    piggyback_bytes: int = 0
    certificates_issued: int = 0
    packets_sent: int = 0
    packets_delivered: int = 0

    def to_row(self) -> dict:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return f"{v:.6f}"
            return str(v)
        return {name: fmt(getattr(self, name)) for name in CSV_FIELDS}


# every field but the two lists of times, in declaration order
CSV_FIELDS = tuple(f.name for f in fields(MetricsReport)
                   if not f.name.endswith("_times_s"))


def compute_metrics(result: SimResult) -> MetricsReport:
    """Derive the five evaluation metrics from a completed run."""
    if result.log is None:
        raise IncompleteLog("run produced no event log")
    honest = result.honest
    malicious = result.malicious

    alarm_events = [(t, actor, subject) for t, kind, actor, subject, _
                    in result.log if kind == "alarm_raised"]
    accused_honest = {s for _, _, s in alarm_events if s in honest}
    false_alarms = sum(1 for _, _, s in alarm_events if s in honest)
    fpr = len(accused_honest) / len(honest) if honest else 0.0

    isolated_subjects = {subject for _, kind, _, subject, _ in result.log
                         if kind == "isolated"}
    detection = (len(isolated_subjects & malicious) / len(malicious)
                 if malicious else 0.0)

    total_times: list[float] = []
    effective_times: list[float] = []
    for key, issued_at in sorted(result.cert_issued.items()):
        holders = result.cert_holders.get(key, {})
        subject = key[0]
        non_mal = honest
        if non_mal and non_mal <= set(holders):
            total_times.append(
                (max(holders[n] for n in non_mal) - issued_at) / 1000.0)
        targets = (result.ever_neighbors.get(subject, set()) & honest)
        if targets and targets <= set(holders):
            effective_times.append(
                (max(holders[n] for n in targets) - issued_at) / 1000.0)

    window_ms = ms(result.config.overhead_window_s)
    if alarm_events:
        start = min(t for t, _, _ in alarm_events)
        alarm_count_window = sum(1 for t, _, _ in alarm_events
                                 if start <= t <= start + window_ms)
    else:
        alarm_count_window = 0

    sent = sum(c["sent"] for c in result.flow_counters.values())
    delivered = sum(c["delivered"] for c in result.flow_counters.values())

    return MetricsReport(
        false_positive_rate=fpr,
        false_alarm_count=false_alarms,
        detection_rate=detection,
        total_convergence_times_s=total_times,
        effective_convergence_times_s=effective_times,
        mean_total_convergence_s=statistics.mean(total_times) if total_times else None,
        mean_effective_convergence_s=(statistics.mean(effective_times)
                                      if effective_times else None),
        alarm_count_window=alarm_count_window,
        total_ctrl_bytes=result.ledger.get("ctrl_bytes", 0),
        piggyback_bytes=result.ledger.get("pb_bytes", 0),
        certificates_issued=len(result.cert_issued),
        packets_sent=sent,
        packets_delivered=delivered,
    )


def loc_baseline(result: SimResult) -> list[tuple[int, int, int]]:
    """Replay monitor observations under a local-only detector that floods
    an alarm each time an observation leaves a neighbor's window over the
    maliciousness threshold -- no challenge, no consensus, no suppression
    of repeats. The window and the threshold rule are the node's own.
    Returns (time_ms, observer, subject) alarms."""
    params = result.config
    windows = defaultdict(partial(MonitorWindow, ms(params.monitor_window_s)))
    alarms: list[tuple[int, int, int]] = []
    for t, kind, actor, subject, detail in result.log:
        if kind != "monitor_obs":
            continue
        if params.suspects(*windows[actor, subject].add(t, detail)):
            alarms.append((t, actor, subject))
    return alarms


def loc_alarm_count_window(result: SimResult) -> int:
    """LOC alarms inside the overhead window, measured from the first
    alarm of either algorithm for comparability."""
    alarms = loc_baseline(result)
    if not alarms:
        return 0
    proto_alarms = [t for t, kind, _, _, _ in result.log if kind == "alarm_raised"]
    start_candidates = [alarms[0][0]] + proto_alarms[:1]
    start = min(start_candidates)
    window_ms = ms(result.config.overhead_window_s)
    return sum(1 for t, _, _ in alarms if start <= t <= start + window_ms)


# --- scenario and sweep files --------------------------------------------

_BOOL_TRUE = {"true", "yes", "1", "on"}
_BOOL_FALSE = {"false", "no", "0", "off"}


def _parse_kv_lines(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid([f"line {lineno}: expected 'key = value'"])
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigInvalid(
                [f"line {lineno}: {key!r} is already set on line {set_on[key]}"])
        set_on[key] = lineno
        out[key] = value
    return out


def _coerce(name: str, value: str, target_type) -> object:
    if target_type is bool:
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigInvalid([f"{name}: cannot parse {value!r} as bool"])
    try:
        return target_type(value)
    except ValueError:
        raise ConfigInvalid(
            [f"{name}: cannot parse {value!r} as {target_type.__name__}"])


def scenario_from_mapping(mapping: dict[str, str]) -> ScenarioConfig:
    mapping = dict(mapping)
    preset = mapping.pop("preset", None)
    if preset is None:
        base = ScenarioConfig()
    elif preset in PRESETS:
        base = PRESETS[preset]()
    else:
        raise ConfigInvalid([f"unknown preset {preset!r}"])
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = [k for k in mapping if k not in known]
    if unknown:
        raise ConfigInvalid([f"unknown key {k!r}" for k in sorted(unknown)])
    updates = {}
    for key, value in mapping.items():
        updates[key] = _coerce(key, value, type(getattr(base, key)))
    cfg = replace(base, **updates)
    cfg.validate()
    return cfg


def parse_scenario_file(text: str) -> ScenarioConfig:
    return scenario_from_mapping(_parse_kv_lines(text))


@dataclass
class SweepSpec:
    variable: str
    values: list[float]
    repetitions: int
    base: ScenarioConfig
    seed_base: int = 1

    VARIABLES = ("node_count", "f_fraction", "malicious_fraction", "max_speed")

    def validate(self) -> None:
        """Check the sweep and the config of each of its runs, so that a bad
        value stops the sweep before its first run."""
        problems = []
        if self.variable not in self.VARIABLES:
            problems.append(f"variable must be one of {self.VARIABLES}")
        if not self.values:
            problems.append("values must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            problems.append("values must be finite")
        elif self.variable == "node_count" and any(v != int(v) for v in self.values):
            problems.append("node_count values must be whole numbers")
        if self.repetitions < 1:
            problems.append("repetitions must be >= 1")
        if problems:
            raise ConfigInvalid(problems)
        for value in self.values:
            for rep in range(self.repetitions):
                try:
                    self.config_for(value, rep).validate()
                except ConfigInvalid as exc:
                    raise ConfigInvalid([f"{self.variable} = {value:g}: {p}"
                                         for p in exc.problems]) from None

    def config_for(self, value: float, rep: int) -> ScenarioConfig:
        cfg = self.base
        if self.variable == "node_count":
            cfg = replace(cfg, node_count=int(value))
            if cfg.malicious_count >= cfg.node_count:
                cfg = replace(cfg, malicious_count=max(0, cfg.node_count // 10))
        elif self.variable == "f_fraction":
            cfg = replace(cfg, f_fraction=float(value))
        elif self.variable == "malicious_fraction":
            cfg = replace(cfg, malicious_count=round(float(value) * cfg.node_count))
        elif self.variable == "max_speed":
            cfg = replace(cfg, max_speed_mps=float(value))
        # common random numbers: the same seed list across sweep values
        return replace(cfg, rng_seed=self.seed_base + rep)


def parse_sweep_file(text: str) -> SweepSpec:
    mapping = _parse_kv_lines(text)
    try:
        variable = mapping.pop("variable")
        values = [_coerce("values", v.strip(), float)
                  for v in mapping.pop("values").split(",") if v.strip()]
    except KeyError as exc:
        raise ConfigInvalid([f"missing required sweep key {exc.args[0]!r}"])
    repetitions = _coerce("repetitions", mapping.pop("repetitions", "3"), int)
    seed_base = _coerce("seed_base", mapping.pop("seed_base", "1"), int)
    base = scenario_from_mapping(mapping)
    spec = SweepSpec(variable=variable, values=values, repetitions=repetitions,
                     base=base, seed_base=seed_base)
    spec.validate()
    return spec


@dataclass
class SweepRow:
    run_id: str
    seed: int
    value: float
    metrics: MetricsReport


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    spec.validate()
    rows = []
    for value in spec.values:
        for rep in range(spec.repetitions):
            cfg = spec.config_for(value, rep)
            result = run_scenario(cfg)
            metrics = compute_metrics(result)
            rows.append(SweepRow(
                run_id=f"{spec.variable}={value:g}/rep{rep}",
                seed=cfg.rng_seed, value=value, metrics=metrics))
    return rows


def sweep_csv(spec: SweepSpec, rows: list[SweepRow]) -> str:
    """Per-run rows followed by mean/stddev aggregate rows per value."""
    buf = io.StringIO()
    header = ["run_id", "seed", "independent_var", "value",
              *CSV_FIELDS]
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({"run_id": row.run_id, "seed": row.seed,
                         "independent_var": spec.variable,
                         "value": f"{row.value:g}", **row.metrics.to_row()})
    for value in spec.values:
        group = [r.metrics for r in rows if r.value == value]
        for stat_name, fn in (("mean", statistics.mean),
                              ("stddev", lambda xs: statistics.pstdev(xs))):
            agg = {"run_id": f"{stat_name}@{value:g}", "seed": "",
                   "independent_var": spec.variable, "value": f"{value:g}"}
            for name in CSV_FIELDS:
                vals = [getattr(m, name) for m in group]
                vals = [v for v in vals if v is not None]
                agg[name] = f"{fn(vals):.6f}" if vals else ""
            writer.writerow(agg)
    return buf.getvalue()


def aggregate(rows: list[SweepRow], metric: str) -> dict[float, float]:
    """Mean of one metric per sweep value, skipping undefined entries."""
    out = {}
    values = sorted({r.value for r in rows})
    for value in values:
        vals = [getattr(r.metrics, metric) for r in rows if r.value == value]
        vals = [v for v in vals if v is not None]
        if vals:
            out[value] = statistics.mean(vals)
    return out


# --- plots ----------------------------------------------------------------

_PLOT_W, _PLOT_H, _MARGIN = 640, 420, 60
_COLOR = "#1f77b4"


def svg_plot(points: dict[float, float], title: str,
             xlabel: str, ylabel: str) -> str:
    """Self-contained SVG line plot of one series of (x, y) points."""
    xs, ys = sorted(points), list(points.values())
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_PLOT_W - 2 * _MARGIN)

    def py(y):
        return _PLOT_H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_PLOT_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_W}" '
        f'height="{_PLOT_H}" viewBox="0 0 {_PLOT_W} {_PLOT_H}">',
        f'<rect width="{_PLOT_W}" height="{_PLOT_H}" fill="white"/>',
        f'<text x="{_PLOT_W / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_PLOT_H - _MARGIN}" x2="{_PLOT_W - _MARGIN}" '
        f'y2="{_PLOT_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_PLOT_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_PLOT_W / 2}" y="{_PLOT_H - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{_PLOT_H / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_PLOT_H / 2})">{ylabel}</text>',
    ]
    for x in xs:
        parts.append(
            f'<text x="{px(x):.1f}" y="{_PLOT_H - _MARGIN + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f'{x:g}</text>')
    for tick in (y_lo, (y_lo + y_hi) / 2, y_hi):
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{py(tick):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{tick:.3g}</text>')
    pts = sorted(points.items())
    coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
    parts.append(f'<polyline points="{coords}" fill="none" '
                 f'stroke="{_COLOR}" stroke-width="2"/>')
    for x, y in pts:
        parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" '
                     f'fill="{_COLOR}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def sweep_plots(spec: SweepSpec, rows: list[SweepRow]) -> dict[str, str]:
    """One SVG per headline metric of the sweep."""
    plots = {}
    for metric, label in (
        ("mean_effective_convergence_s", "effective convergence time (s)"),
        ("mean_total_convergence_s", "total convergence time (s)"),
        ("detection_rate", "detection rate"),
        ("false_positive_rate", "false positive rate"),
    ):
        data = aggregate(rows, metric)
        if not data:
            continue
        plots[metric] = svg_plot(data, f"{metric} vs {spec.variable}",
                                 spec.variable, label)
    return plots
