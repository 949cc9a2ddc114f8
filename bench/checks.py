"""Output and invariant checks applied to every simulated scenario.

Two digests identify a run's outputs:

* the outcome digest covers what a researcher reads off a run -- the
  MetricsReport row, the overhead ledger, the per-flow counters, the
  final isolated sets and the certificate issue times -- and does not
  depend on the event log's text format;
* the log digest is the SHA-256 of ``render_log()``, so a change can show
  that it left the log byte-identical.

A run whose outcome digest differs from the one recorded for its
scenario seed has failed. A log digest that differs is reported only.
"""

from __future__ import annotations

import hashlib
import json


def outcome_digest(result, report) -> str:
    outcome = {
        "metrics": report.to_row(),
        "ledger": dict(result.ledger),
        "flows": {str(fid): dict(c) for fid, c in result.flow_counters.items()},
        "isolated_final": {str(nid): sorted(s)
                           for nid, s in result.isolated_final.items()},
        "cert_issued": sorted([*key, t] for key, t in result.cert_issued.items()),
    }
    return hashlib.sha256(
        json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def log_digest(log_text: str) -> str:
    return hashlib.sha256(log_text.encode()).hexdigest()


def invariant_violations(sim, result) -> dict[str, int]:
    """End-of-run invariants, checked from outside the simulator.

    * conservation: every packet sent is delivered, dropped, buffered or
      in flight (``SimResult.conservation_ok``);
    * trust_range: every trust-table ``rep_val`` lies in [0, 1];
    * isolation: the subject of every ``isolated`` event is in the
      actor's final isolated set (isolation is never undone).
    """
    trust_range = sum(1 for node in sim.nodes.values()
                      for entry in node.table.values()
                      if not 0.0 <= entry.rep_val <= 1.0)
    isolation = sum(1 for _, kind, actor, subject, _ in result.log
                    if kind == "isolated"
                    and subject not in result.isolated_final[actor])
    return {"conservation": 0 if result.conservation_ok() else 1,
            "trust_range": trust_range, "isolation": isolation}
