"""Span tracing of the simulator, done from outside the program.

``Tracer.installed()`` replaces functions and methods of the trustwatch
modules with wrappers that record a span around each call, and puts the
originals back on exit. No file of the program changes. A function that a
later version of the program removes or renames is skipped, so its
metrics read 0 until this table follows the change.

Each span has a name, a start and an end (``perf_counter_ns``), the index
of the span open when it started (its parent, -1 at top level) and the
id of the scenario run it belongs to. Spans live in flat arrays while a
run is traced and are written out with ``save()`` when the run ends. A
span's self time is its duration minus the durations of its child spans;
children nest strictly inside their parent, so that is exactly the time
the children do not cover.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from trustwatch import harness, messages, node_protocol, sim, trust_math

RECEIVE = "node_protocol.receive"
MESSAGE_TYPES = [t.name.lower() for t in messages.RepMessType
                 if t not in (messages.RepMessType.REP_REQUEST,
                              messages.RepMessType.CERT_EXCHANGE)]

# spans reported as self time and calls per scenario run
SPANS = ("sim.loop", "sim.mobility", "sim.topology", "sim.route",
         "sim.hop_distance", "sim.emit", "sim.dataplane", RECEIVE,
         "node_protocol.monitor", "node_protocol.tick", "node_protocol.cert",
         "messages.decode", "messages.encode", "messages.verify",
         "messages.cert_decode", "messages.cert_verify", "trust_math")
# high-count spans that also get per-call latency percentiles
PERCENTILE_SPANS = ("sim.topology", "sim.emit", RECEIVE,
                    "node_protocol.monitor", "messages.decode",
                    "messages.encode", "messages.verify")
REPORT_SPANS = ("harness.compute_metrics", "harness.loc_baseline",
                "sim.render_log")
STATE_SETS = ("seen_nonces", "flood_seen", "processed_certs", "responded",
              "cache")
# one call of each of these is one event of the simulator's queue
EVENT_SPANS = ("sim.mobility", "sim.dataplane", RECEIVE, "sim.tick",
               "sim.exchange", "sim.accuse")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self.queue_hwm = 0
        self.verify_inputs: set[int] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, nid: int, fn, args, kwargs):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter_ns()
            self._stack.pop()

    # --- wrappers ---------------------------------------------------------

    def _timed(self, name: str):
        nid = self.name_id(name)

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(nid, fn, args, kwargs)
            return wrapper
        return wrap

    def _receive(self, peek):
        ids = {t: self.name_id(f"{RECEIVE}.{t.name.lower()}")
               for t in messages.RepMessType}
        malformed = self.name_id(f"{RECEIVE}.malformed")

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(node, data, *args, **kwargs):
                # peek with the unwrapped codec, outside any span
                try:
                    header = peek(data)[0]
                except messages.MessageError:
                    nid = malformed
                else:
                    nid = ids[messages.RepMessType(header.mess_type)]
                    if (header.sender, header.nonce) in node.seen_nonces:
                        self.counts["receive.replayed"] += 1
                return self.span(nid, fn, (node, data, *args), kwargs)
            return wrapper
        return wrap

    def _global_alarm(self, fn):
        @functools.wraps(fn)
        def wrapper(node, *args, **kwargs):
            before = len(node.flood_seen)
            out = fn(node, *args, **kwargs)
            if len(node.flood_seen) == before:
                self.counts["receive.flooded"] += 1
            return out
        return wrapper

    def _certificate(self, fn):
        nid = self.name_id("node_protocol.cert")

        @functools.wraps(fn)
        def wrapper(node, *args, **kwargs):
            before = len(node.processed_certs)
            out = self.span(nid, fn, (node, *args), kwargs)
            if len(node.processed_certs) > before:
                self.counts["cert.accepted"] += 1
            return out
        return wrapper

    def _topology(self, fn):
        nid = self.name_id("sim.topology")

        @functools.wraps(fn)
        def wrapper(simulator, *args, **kwargs):
            before = simulator.adj
            out = self.span(nid, fn, (simulator, *args), kwargs)
            self.counts["topology.recomputes"] += 1
            if simulator.adj is not before:
                self.counts["topology.changed"] += 1
            return out
        return wrapper

    def _counted(self, key: str):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    def _push(self, fn):
        @functools.wraps(fn)
        def wrapper(simulator, *args, **kwargs):
            out = fn(simulator, *args, **kwargs)
            self.queue_hwm = max(self.queue_hwm,
                                 len(getattr(simulator, "_queue", ())))
            return out
        return wrapper

    def _verify(self, fn):
        nid = self.name_id("messages.verify")

        @functools.wraps(fn)
        def wrapper(authority, *args, **kwargs):
            self.verify_inputs.add(hash((args, tuple(kwargs.items()))))
            return self.span(nid, fn, (authority, *args), kwargs)
        return wrapper

    def _targets(self, peek) -> list:
        S, N = sim.Simulator, node_protocol.Node
        t = self._timed
        targets = [
            (S, "run", t("sim.loop")),
            (S, "_step_mobility", t("sim.mobility")),
            (S, "_recompute_topology", self._topology),
            (N, "set_neighbors", self._counted("topology.rows_rebuilt")),
            (S, "compute_route", t("sim.route")),
            (S, "_hop_distance", t("sim.hop_distance")),
            (S, "_emit", t("sim.emit")),
            (S, "_push", self._push),
            (S, "_handle_flow", t("sim.dataplane")),
            (S, "_handle_arrive", t("sim.dataplane")),
            (S, "_handle_service", t("sim.dataplane")),
            (S, "_handle_tick", t("sim.tick")),
            (S, "_handle_exchange", t("sim.exchange")),
            (S, "_cert_bytes_valid", t("sim.cert_repair")),
            (S, "_handle_accuse", t("sim.accuse")),
            (N, "receive", self._receive(peek)),
            (N, "_on_global_alarm", self._global_alarm),
            (N, "monitor_observe", t("node_protocol.monitor")),
            (N, "tick", t("node_protocol.tick")),
            (N, "handle_certificate", self._certificate),
            (messages, "decode_rep_mess", t("messages.decode")),
            (messages, "encode_rep_mess", t("messages.encode")),
            (messages.Authority, "verify_tag", self._verify),
            (messages, "decode_certificate", t("messages.cert_decode")),
            (messages, "verify_group_certificate", t("messages.cert_verify")),
            (harness, "compute_metrics", t("harness.compute_metrics")),
            (harness, "loc_baseline", t("harness.loc_baseline")),
            (sim.SimResult, "render_log", t("sim.render_log")),
        ]
        for fname, fn in vars(trust_math).items():
            if inspect.isfunction(fn) and fn.__module__ == trust_math.__name__:
                targets.append((trust_math, fname, t("trust_math")))
        return targets

    @contextmanager
    def installed(self):
        """Wrap the program's functions for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrap in self._targets(messages.decode_rep_mess):
                original = vars(owner).get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def span_stats(self) -> dict[str, dict]:
        """Per span name: calls, total self time, total inclusive time
        (seconds) and the inclusive durations of single calls (ns)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end_ns"] - a["start_ns"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - covered, minlength=k) / 1e9
        incl_s = np.bincount(name, weights=dur, minlength=k) / 1e9
        order = np.argsort(name, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(calls)])
        return {n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                    "incl_s": float(incl_s[i]),
                    "durations_ns": dur[order[bounds[i]:bounds[i + 1]]]}
                for i, n in enumerate(self.names)}


def state_sizes(simulator) -> dict[str, int]:
    """Entries of each per-node protocol set, summed over nodes."""
    return {s: sum(len(getattr(node, s, ())) for node in simulator.nodes.values())
            for s in STATE_SETS}


def layer_metrics(tracer: Tracer, runs: int, untraced_run_s: float,
                  traced_run_s: float, state: dict[str, int],
                  violations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of ``runs`` traced scenario runs, as
    name -> (value, unit). Times and counts are per scenario run;
    ``untraced_run_s`` and ``traced_run_s`` are summed over the runs."""
    stats = tracer.span_stats()
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
             "durations_ns": np.zeros(0, dtype=np.int64)}

    def get(name):
        return stats.get(name, empty)

    receive_types = [n for n in stats if n.startswith(RECEIVE + ".")]
    stats[RECEIVE] = {
        key: sum(stats[n][key] for n in receive_types)
        for key in ("calls", "self_s", "incl_s")}
    stats[RECEIVE]["durations_ns"] = np.concatenate(
        [stats[n]["durations_ns"] for n in receive_types] or [empty["durations_ns"]])

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        m[f"{name}.s"] = (get(name)["self_s"] / runs, "s")
        m[f"{name}.calls"] = (get(name)["calls"] / runs, "count")
    for name in PERCENTILE_SPANS:
        d = get(name)["durations_ns"]
        p50, p99 = np.percentile(d, [50, 99]) / 1e3 if len(d) else (0.0, 0.0)
        m[f"{name}.p50_us"] = (float(p50), "us")
        m[f"{name}.p99_us"] = (float(p99), "us")
    for name in REPORT_SPANS:
        m[f"{name}.s"] = (get(name)["self_s"] / runs, "s")

    receive_incl = get(RECEIVE)["incl_s"]
    for t in MESSAGE_TYPES:
        s = get(f"{RECEIVE}.{t}")
        m[f"{RECEIVE}.{t}.calls"] = (s["calls"] / runs, "count")
        m[f"{RECEIVE}.{t}.share"] = (ratio(s["incl_s"], receive_incl), "share")
    # scale200 ends before the first exchange and only adversarial repairs
    # caches, so these two layers are given as shares, which may be 0
    m["sim.exchange.calls"] = (get("sim.exchange")["calls"] / runs, "count")
    m["sim.exchange.share"] = (
        ratio(get("sim.exchange")["incl_s"], get("sim.loop")["incl_s"]), "share")
    m["sim.cert_repair.calls"] = (get("sim.cert_repair")["calls"] / runs, "count")
    m["sim.cert_repair.share"] = (
        ratio(get("sim.cert_repair")["incl_s"], get("sim.exchange")["incl_s"]),
        "share")

    c = tracer.counts
    events = sum(get(n)["calls"] for n in EVENT_SPANS)
    m["sim.events"] = (events / runs, "count")
    m["sim.queue_hwm"] = (tracer.queue_hwm, "count")
    m["sim.host_us_per_event"] = (ratio(untraced_run_s * 1e6, events), "us")
    m["sim.topology.rows_rebuilt"] = (c["topology.rows_rebuilt"] / runs, "count")
    m["sim.topology.changed_frac"] = (
        ratio(c["topology.changed"], c["topology.recomputes"]), "share")
    m[f"{RECEIVE}.dup_frac"] = (
        ratio(c["receive.replayed"] + c["receive.flooded"],
              get(RECEIVE)["calls"]), "share")
    m["node_protocol.cert.accept_frac"] = (
        ratio(c["cert.accepted"], get("node_protocol.cert")["calls"]), "share")
    m["messages.verify.distinct_frac"] = (
        ratio(len(tracer.verify_inputs), get("messages.verify")["calls"]),
        "share")
    for s in STATE_SETS:
        m[f"node_protocol.state.{s}"] = (state[s] / runs, "count")
    m["trace.overhead_s"] = ((traced_run_s - untraced_run_s) / runs, "s")
    m["trace.overhead_frac"] = (ratio(traced_run_s - untraced_run_s,
                                      untraced_run_s), "share")
    m["check.invariant_violations"] = (violations / runs, "count")
    return m
