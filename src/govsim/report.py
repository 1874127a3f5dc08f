"""Report building as a pure fold over sealed chain events.

Everything in a run report is reconstructed from event payloads alone. The
token position, the DID records, the incidents and the proposals, votes and
elections are the events folded through ``TokenLedger.apply``,
``DidRegistry.apply``, ``IncidentLog.apply`` and ``GovernanceState.apply``,
the same transitions the live simulator runs, into a chain-less ledger,
registry, log and governance state. Per-epoch risk scores are recomputed
from on-chain assessment/audit/incident data plus the config snapshot
embedded in the genesis event. The simulator itself reports via this fold,
and ``verify`` re-runs it against the emitted report file.

The fold is one pass over the events. The per-(system, epoch) lookups that
the score series needs read indexes that ``ChainFold`` builds during that
pass: failed audits by (DID, epoch) and incident ids by DID. The tests hold
them equal to the plain scans over ``ChainFold.audits`` and
``ChainFold.incidents``, which stay as the reference definition.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Sequence

from .encoding import as_fraction
from .errors import IoError, UnsupportedFormat
from .governance import GOVERNANCE_EVENT_KINDS, GovernanceState
from .identity import DID_EVENT_KINDS, DidRegistry
from .ledger import Block, EventKind
from .risk import INCIDENT_EVENT_KINDS, IncidentLog, RiskWeights, compute_risk_score
from .tokens import TOKEN_EVENT_KINDS, TokenLedger


class ChainFold:
    """Replays every event into queryable state."""

    def __init__(self, blocks: Sequence[Block]):
        self.blocks = blocks
        self.genesis_meta: dict = {}
        self.tokens = TokenLedger(0, {})
        self.registry = DidRegistry(None)
        self.did_events: dict[str, list[dict]] = defaultdict(list)
        self.assessments: dict[int, dict[str, dict]] = defaultdict(dict)
        self.audits: list[dict] = []
        self.incident_log = IncidentLog(None)
        # The log's own id -> incident dict, in raise order.
        self.incidents = self.incident_log.incidents
        # Indexes over audits and incidents, filled as events are applied.
        self._failed_audits: set[tuple[str, int]] = set()
        self._incident_ids: dict[str, set[str]] = defaultdict(set)
        self.governance = GovernanceState(None, None)
        self.elections: list[dict] = []
        self.collusion_flags: list[dict] = []
        self.weight_adjustments: list[dict] = []
        self.reclassifications: list[dict] = []
        self.access_logged = 0
        self.access_denied = 0
        # Events by kind per epoch; build_report writes each kind as its name.
        self.per_epoch: dict[int, dict[EventKind, int]] = defaultdict(dict)
        self.max_epoch = 0
        self._replay()

    def _replay(self) -> None:
        for block in self.blocks:
            for event in block.events:
                self._apply(event.kind, event.epoch, event.body())

    def _apply(self, kind: EventKind, epoch: int, body: dict) -> None:
        counts = self.per_epoch[epoch]
        counts[kind] = counts.get(kind, 0) + 1
        self.max_epoch = max(self.max_epoch, epoch)

        if kind in TOKEN_EVENT_KINDS:
            if body.get("op") == "mint_genesis":
                self.genesis_meta = body
            self.tokens.apply(kind, body)
        elif kind in GOVERNANCE_EVENT_KINDS:
            self.governance.apply(kind, body, epoch)
            if kind is EventKind.DELEGATE_ELECTED:
                self.elections.append({"epoch": epoch, "delegates": body["delegates"]})
        elif kind in DID_EVENT_KINDS:
            self.registry.apply(kind, body)
            self.did_events[body["did"]].append({"epoch": epoch, **body})
        elif kind == EventKind.ACCESS_LOGGED:
            self.access_logged += 1
            if not body.get("allowed", True):
                self.access_denied += 1
        elif kind == EventKind.ASSESSMENT_RECORDED:
            self.assessments[epoch][body["did"]] = {
                "score": body["score"],
                "tier": body["tier"],
                "compliant": body["compliant"],
            }
        elif kind == EventKind.AUDIT_RECORDED:
            audit = {"epoch": epoch, **body}
            self.audits.append(audit)
            if audit["outcome"] in ("FAIL", "INCONCLUSIVE"):
                self._failed_audits.add((audit["did"], audit["epoch"]))
        elif kind in INCIDENT_EVENT_KINDS:
            incident = self.incident_log.apply(kind, body, epoch)
            self._incident_ids[incident.system_did].add(incident.incident_id)
        elif kind == EventKind.RISK_RECLASSIFIED:
            self.reclassifications.append({"epoch": epoch, **body})
        elif kind == EventKind.COLLUSION_FLAGGED:
            self.collusion_flags.append({"epoch": epoch, **body})
        elif kind == EventKind.WEIGHTS_ADJUSTED:
            self.weight_adjustments.append({"epoch": epoch, **body})

    # --- derived views ---

    def proposal_entries(self) -> list[dict]:
        proposals = self.governance.proposals
        return [proposals[k].to_json() for k in sorted(proposals)]

    def incident_open_at(self, did: str, epoch: int) -> int:
        """Incidents of ``did`` raised or contained as of ``epoch``."""
        open_count = 0
        for incident_id in self._incident_ids.get(did, ()):
            incident = self.incidents[incident_id]
            if incident.system_did != did:
                continue  # the id was raised again for another system
            state = None
            for name, at_epoch in incident.transitions:
                if at_epoch <= epoch:
                    state = name
            if state in ("RAISED", "CONTAINED"):
                open_count += 1
        return open_count

    def audit_failed_at(self, did: str, epoch: int) -> bool:
        """Whether an audit of ``did`` at ``epoch`` was FAIL or INCONCLUSIVE."""
        return (did, epoch) in self._failed_audits

    def risk_weights(self) -> RiskWeights:
        config = self.genesis_meta.get("config", {})
        raw = config.get("risk_weights")
        return RiskWeights.from_json(raw) if raw else RiskWeights()

    def score_series(self) -> dict[str, list[list]]:
        """Recompute each system's per-epoch score from on-chain inputs."""
        weights = self.risk_weights()
        # Scores repeat: each distinct string is parsed once.
        fraction = cache(as_fraction)
        series: dict[str, list[list]] = defaultdict(list)
        for epoch in sorted(self.assessments):
            for did in sorted(self.assessments[epoch]):
                record = self.registry.records.get(did)
                if record is None:
                    continue
                entry = self.assessments[epoch][did]
                score = compute_risk_score(
                    fraction(entry["score"]),
                    self.audit_failed_at(did, epoch - 1),
                    self.incident_open_at(did, epoch),
                    record.exposure,
                    weights,
                )
                series[did].append([epoch, str(score)])
        return dict(series)


def build_report(blocks: Sequence[Block]) -> dict:
    """The full run report as a deterministic JSON-able dict."""
    fold = ChainFold(blocks)

    epochs = fold.genesis_meta.get("epochs", fold.max_epoch)
    per_epoch = []
    for epoch in range(0, fold.max_epoch + 1):
        counts = fold.per_epoch.get(epoch, {})
        per_epoch.append({
            "epoch": epoch,
            "events": sum(counts.values()),
            "by_kind": {kind.value: n for kind, n in sorted(counts.items())},
        })

    by_tier: dict[str, dict[str, int]] = defaultdict(lambda: {"assessments": 0, "compliant": 0})
    for epoch_map in fold.assessments.values():
        for entry in epoch_map.values():
            bucket = by_tier[entry["tier"]]
            bucket["assessments"] += 1
            bucket["compliant"] += 1 if entry["compliant"] else 0
    compliance_rates = {
        tier: {
            "assessments": bucket["assessments"],
            "compliant": bucket["compliant"],
            "rate": str(Fraction(bucket["compliant"], bucket["assessments"]))
            if bucket["assessments"] else "0",
        }
        for tier, bucket in sorted(by_tier.items())
    }

    audit_outcomes = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
    audits_by_trigger: dict[str, int] = defaultdict(int)
    for audit in fold.audits:
        audit_outcomes[audit["outcome"]] += 1
        audits_by_trigger[audit["trigger"]] += 1

    return {
        "root_hash": blocks[-1].block_hash.hex() if blocks else "",
        "blocks": len(blocks),
        "epochs": epochs,
        "events_total": sum(len(b.events) for b in blocks),
        "per_epoch": per_epoch,
        "compliance": {"by_tier": compliance_rates},
        "audits": {
            "total": len(fold.audits),
            "by_outcome": audit_outcomes,
            "by_trigger": dict(sorted(audits_by_trigger.items())),
        },
        "tokens": {
            "snapshot": fold.tokens.snapshot(),
            "conserved": fold.tokens.conserved(),
            "checksum": fold.tokens.conservation_checksum(),
        },
        "risk_metrics": {
            "scores": fold.score_series(),
            "reclassifications": fold.reclassifications,
            "incidents": [fold.incidents[k].to_json() for k in sorted(fold.incidents)],
        },
        "governance": {
            "proposals": fold.proposal_entries(),
            "elections": fold.elections,
            "collusion_flags": fold.collusion_flags,
            "weight_adjustments": fold.weight_adjustments,
        },
        "access": {"logged": fold.access_logged, "denied": fold.access_denied},
    }


# --- export ---

def report_json_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


def report_csv_bytes(report: dict) -> bytes:
    """Per-epoch series flattened; one row per simulated epoch (setup excluded)."""
    kinds = sorted(k.value for k in EventKind)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["epoch", "events", *kinds])
    for row in report["per_epoch"]:
        if row["epoch"] == 0:
            continue
        writer.writerow([
            row["epoch"], row["events"],
            *(row["by_kind"].get(kind, 0) for kind in kinds),
        ])
    return buffer.getvalue().encode("utf-8")


def export_report(report: dict, path: str | Path, fmt: str = "json") -> Path:
    path = Path(path)
    if fmt == "json":
        data = report_json_bytes(report)
    elif fmt == "csv":
        data = report_csv_bytes(report)
    else:
        raise UnsupportedFormat(f"unknown export format: {fmt!r}")
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise IoError(f"cannot write report: {exc}") from exc
    return path


def load_report(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read report: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"report is not valid JSON: {exc}") from exc
