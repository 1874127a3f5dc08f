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

``EVENT_SPECS`` declares each event kind once: the phases it may be
appended in, the store whose ``apply`` folds it, and the body fields that
the fold and the report read. The fold checks every body against it as it
decodes it, so a sealed body that is not what its kind says stops the fold
with ``EventInvalid`` naming the event and the field, never a traceback.

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
from enum import Enum
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .audit import AuditOutcome
from .encoding import from_canonical_json, read_json, unit_fraction, write_bytes
from .errors import EventInvalid, GovSimError, InvalidInput, UnsupportedFormat
from .governance import GovernanceState, ProposalKind, ProposalStatus, VoteDirection, VoteMode
from .identity import ComplianceStatus, DidRegistry, RiskTier
from .ledger import Block, Chain, ChainVerification, EventKind, Phase, verify_chain
from .risk import IncidentLog, IncidentState, RiskWeights, Severity, compute_risk_score
from .tokens import Pool, TokenLedger


class ChainFold:
    """Replays every event into queryable state, checking each body against
    its kind's declaration in ``EVENT_SPECS`` first."""

    def __init__(self, blocks: Sequence[Block]):
        self.blocks = blocks
        self.genesis_meta: dict = {}
        self.weights = RiskWeights()
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
        # (height, reason) of the first event stamped with no phase or one its
        # kind does not allow: not raised, as hand-built chains carry no stamps.
        self.phase_fault: Optional[tuple[int, str]] = None
        # Scores repeat: each distinct string is parsed once.
        self._score = cache(lambda text: unit_fraction(text, "score"))
        self._replay()

    def _replay(self) -> None:
        # Each kind's declaration, its store's apply bound once per fold.
        plan = {kind: (spec.phases, spec.fields,
                       spec.store and getattr(self, spec.store).apply, spec.fold)
                for kind, spec in EVENT_SPECS.items()}
        per_epoch = self.per_epoch
        for block in self.blocks:
            for event in block.events:
                kind, epoch = event.kind, event.epoch
                phases, fields, apply, fold = plan[kind]
                try:
                    body = from_canonical_json(event.payload)
                    fault = (_field_fault(body, fields) if type(body) is dict
                             else "body is not a JSON object")
                    if fault:
                        raise InvalidInput(fault)
                    if apply:
                        apply(kind, body, epoch)
                    if fold:
                        fold(self, body, epoch)
                except GovSimError as exc:
                    raise EventInvalid(
                        block.height, f"event {event.event_id} ({kind.value}): {exc}") from exc
                phase = body.get("phase")
                if (type(phase) is not int or phase not in phases) and self.phase_fault is None:
                    self.phase_fault = (block.height, f"event {event.event_id} ({kind.value}): "
                                        f"phase {phase}, allowed {sorted(map(int, phases))}")
                counts = per_epoch[epoch]
                counts[kind] = counts.get(kind, 0) + 1

    # --- the fold's own bookkeeping, named per kind in EVENT_SPECS ---

    def _genesis(self, body: dict, epoch: int) -> None:
        if body["op"] != "mint_genesis":
            return
        self.genesis_meta = body
        raw = body.get("config", {}).get("risk_weights")
        try:
            self.weights = RiskWeights.from_json(raw) if raw else RiskWeights()
        except GovSimError as exc:
            raise InvalidInput(f"field config.risk_weights: {exc}") from exc

    def _access(self, body: dict, epoch: int) -> None:
        self.access_logged += 1
        if not body.get("allowed", True):
            self.access_denied += 1

    def _assessment(self, body: dict, epoch: int) -> None:
        self._score(body["score"])  # refuses a score outside [0, 1] at its event
        self.assessments[epoch][body["did"]] = {
            "score": body["score"],
            "tier": body["tier"],
            "compliant": body["compliant"],
        }

    def _audit(self, body: dict, epoch: int) -> None:
        audit = {"epoch": epoch, **body}
        self.audits.append(audit)
        if audit["outcome"] in ("FAIL", "INCONCLUSIVE"):
            self._failed_audits.add((audit["did"], audit["epoch"]))

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

    def score_series(self) -> dict[str, list[list]]:
        """Recompute each system's per-epoch score from on-chain inputs.

        The inputs take few distinct values, so each distinct (score text,
        audit failed, open incidents, DID) is scored once per call; the DID
        stands for the exposure, which is read from its final record.
        """
        series: dict[str, list[list]] = defaultdict(list)
        scores: dict[tuple[str, bool, int, str], str] = {}
        records = self.registry.records
        for epoch in sorted(self.assessments):
            assessed = self.assessments[epoch]
            for did in sorted(assessed):
                record = records.get(did)
                if record is None:
                    continue
                key = (assessed[did]["score"], self.audit_failed_at(did, epoch - 1),
                       self.incident_open_at(did, epoch), did)
                score = scores.get(key)
                if score is None:
                    score = scores[key] = str(compute_risk_score(
                        self._score(key[0]), key[1], key[2], record.exposure, self.weights))
                series[did].append([epoch, score])
        return dict(series)

    def report(self) -> dict:
        """The full run report as a deterministic JSON-able dict."""
        blocks = self.blocks
        epochs = self.genesis_meta.get("epochs", max(self.per_epoch, default=0))
        # A row per epoch with events (each simulated epoch has a HEARTBEAT).
        per_epoch = [{
            "epoch": epoch,
            "events": sum(counts.values()),
            "by_kind": {kind.value: n for kind, n in sorted(counts.items())},
        } for epoch, counts in sorted(self.per_epoch.items())]

        by_tier: dict[str, dict[str, int]] = defaultdict(
            lambda: {"assessments": 0, "compliant": 0})
        for epoch_map in self.assessments.values():
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
        for audit in self.audits:
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
                "total": len(self.audits),
                "by_outcome": audit_outcomes,
                "by_trigger": dict(sorted(audits_by_trigger.items())),
            },
            "tokens": {
                "snapshot": self.tokens.snapshot(),
                "conserved": self.tokens.conserved(),
                "checksum": self.tokens.conservation_checksum(),
            },
            "risk_metrics": {
                "scores": self.score_series(),
                "reclassifications": self.reclassifications,
                "incidents": [self.incidents[k].to_json() for k in sorted(self.incidents)],
            },
            "governance": {
                "proposals": self.proposal_entries(),
                "elections": self.elections,
                "collusion_flags": self.collusion_flags,
                "weight_adjustments": self.weight_adjustments,
            },
            "access": {"logged": self.access_logged, "denied": self.access_denied},
        }


# --- the declaration of each event kind ---

_MISSING = object()  # how a left-out field reads


class _Variants(dict):
    """A string field whose value selects the fields that go with it."""


def _fields(spec: dict) -> tuple:
    """Compile a body declaration into one ``(name, types, extra)`` per field.

    A field is a JSON type, ``object`` (any value), an enum or tuple of the
    strings allowed, a dict of a nested object's fields, or ``_Variants``; a
    name ending in "?" may be left out. ``types`` is the one type allowed or
    a frozenset of them, with ``object`` standing for "left out". ``extra``
    is None, the strings allowed, the nested fields, or each variant's fields.
    """
    compiled = []
    for key, kind in spec.items():
        extra = None
        if isinstance(kind, _Variants):
            kind, extra = str, {value: _fields(sub) for value, sub in kind.items()}
        elif isinstance(kind, dict):
            kind, extra = dict, _fields(kind)
        elif isinstance(kind, tuple) or issubclass(kind, Enum):
            # _MISSING is allowed too, for a field that may be left out.
            kind, extra = str, frozenset(getattr(v, "value", v) for v in kind) | {_MISSING}
        types = {str, int, float, bool, list, dict, type(None)} if kind is object else {kind}
        if key.endswith("?"):
            types.add(object)
        compiled.append((key.rstrip("?"), kind if len(types) == 1 else frozenset(types), extra))
    return tuple(compiled)


def _field_fault(body: dict, fields: tuple, prefix: str = "") -> Optional[str]:
    """What is wrong with the first field of ``body`` that is not what
    ``fields`` declares, or None."""
    get = body.get
    for name, types, extra in fields:
        value = get(name, _MISSING)
        if (type(value) is types or type(types) is frozenset and type(value) in types) and (
                extra is None or type(extra) is frozenset and value in extra):
            continue  # the common case: a flat field as declared
        if type(value) is not types and (type(types) is type or type(value) not in types):
            wanted = (types.__name__ if type(types) is type
                      else "/".join(sorted(t.__name__ for t in types - {object})))
            return f"field {prefix}{name}: " + (
                "missing" if value is _MISSING else f"{value!r} is not {wanted}")
        if type(extra) is tuple:
            fault = value is not _MISSING and _field_fault(value, extra, f"{prefix}{name}.")
        elif value not in extra:
            return f"field {prefix}{name}: unknown value {value!r}"
        else:
            fault = _field_fault(body, extra[value], prefix)
        if fault:
            return fault
    return None


class EventSpec(NamedTuple):
    """One kind: the phases it may be appended in, the ChainFold store whose
    ``apply`` folds it, the fold's own bookkeeping, its compiled fields."""
    phases: frozenset[Phase]
    store: Optional[str]
    fold: Optional[Callable[[ChainFold, dict, int], None]]
    fields: tuple


def _spec(phases, store=None, fold=None, fields=None) -> EventSpec:
    return EventSpec(frozenset(phases), store, fold, _fields(fields or {}))


def _logged(name: str) -> Callable[[ChainFold, dict, int], None]:
    return lambda fold, body, epoch: getattr(fold, name).append({"epoch": epoch, **body})


def _did_history(fold: ChainFold, body: dict, epoch: int) -> None:
    fold.did_events[body["did"]].append({"epoch": epoch, **body})


# The phases in which a system's record is written during an epoch.
_RECORD_PHASES = {Phase.INGEST, Phase.COMPLIANCE, Phase.RISK, Phase.PENALTIES}

EVENT_SPECS: dict[EventKind, EventSpec] = {
    EventKind.DID_REGISTERED: _spec({Phase.SETUP}, "registry", _did_history, {
        "did": str, "owner": str, "purpose": str, "risk_tier": RiskTier, "version": int,
        "exposure?": str, "metadata_refs?": list}),
    EventKind.DID_UPDATED: _spec(_RECORD_PHASES, "registry", _did_history, {
        "did": str, "version": int, "change?": {
            "status?": ComplianceStatus, "risk_tier?": RiskTier, "purpose?": str,
            "metadata_ref?": str}}),
    EventKind.DELEGATE_ELECTED: _spec(
        {Phase.SETUP, Phase.ELECTIONS}, "governance",
        lambda fold, body, epoch: fold.elections.append(
            {"epoch": epoch, "delegates": body["delegates"]}),
        {"delegates": list}),
    EventKind.PROPOSAL_SUBMITTED: _spec({Phase.GOVERNANCE}, "governance", None, {
        "proposal_id": str, "kind": ProposalKind, "mode": VoteMode, "payload": object}),
    EventKind.VOTE_CAST: _spec({Phase.GOVERNANCE}, "governance", None, {
        "proposal_id": str, "voter": str, "direction": VoteDirection, "magnitude": int}),
    EventKind.PROPOSAL_RESOLVED: _spec({Phase.GOVERNANCE}, "governance", None, {
        "proposal_id": str, "status": ProposalStatus, "power_for": str,
        "power_against": str, "threshold": str}),
    EventKind.ASSESSMENT_RECORDED: _spec({Phase.COMPLIANCE}, None, ChainFold._assessment, {
        "did": str, "score": str, "tier": RiskTier, "compliant": bool}),
    EventKind.AUDIT_RECORDED: _spec({Phase.AUDIT}, None, ChainFold._audit, {
        "did": str, "outcome": AuditOutcome, "trigger": str, "epoch?": int}),
    EventKind.AUDITOR_ACCREDITED: _spec({Phase.SETUP}),
    EventKind.TOKENS_TRANSFERRED: _spec(
        {Phase.SETUP, Phase.GOVERNANCE, Phase.REWARDS}, "tokens", ChainFold._genesis,
        {"op": _Variants(
            mint_genesis={"total_supply": int, "emission": int,
                          "pools": {pool.value: int for pool in Pool},
                          "config?": {"risk_weights?": dict}},
            grant={"pool": Pool, "to": str, "amount": int},
            transfer={"from": str, "to": str, "amount": int},
            pool_charge={"from": str, "pool": Pool, "amount": int},
            reward={"to": str, "amount": int})}),
    EventKind.STAKE_CHANGED: _spec({Phase.SETUP}, "tokens", None, {
        "holder": str, "op": ("stake", "unstake"), "amount": int,
        "lock_start_epoch": int, "lock_epochs": int}),
    EventKind.SLASH_APPLIED: _spec({Phase.PENALTIES}, "tokens", None,
                                   {"holder": str, "burned": int}),
    EventKind.INCIDENT_RAISED: _spec(
        {Phase.INGEST}, "incident_log",
        lambda fold, body, epoch: fold._incident_ids[body["did"]].add(body["incident_id"]),
        {"incident_id": str, "did": str, "severity": Severity}),
    EventKind.INCIDENT_ADVANCED: _spec({Phase.RISK}, "incident_log", None,
                                       {"incident_id": str, "state": IncidentState}),
    EventKind.RISK_RECLASSIFIED: _spec({Phase.RISK}, None, _logged("reclassifications")),
    EventKind.ORACLE_UPDATE: _spec({Phase.INGEST}),
    EventKind.ACCESS_LOGGED: _spec(_RECORD_PHASES, None, ChainFold._access, {"allowed?": bool}),
    EventKind.WEIGHTS_ADJUSTED: _spec({Phase.GOVERNANCE}, None, _logged("weight_adjustments")),
    EventKind.HEARTBEAT: _spec({Phase.INGEST}),
    EventKind.COLLUSION_FLAGGED: _spec({Phase.GOVERNANCE}, None, _logged("collusion_flags")),
    EventKind.RULE_REGISTERED: _spec({Phase.SETUP, Phase.GOVERNANCE}),
}


def build_report(blocks: Sequence[Block]) -> dict:
    """The full run report as a deterministic JSON-able dict."""
    return ChainFold(blocks).report()


def verified_fold(chain: Chain) -> tuple[ChainVerification, Optional[ChainFold]]:
    """``verify_chain``, then the fold with its body and phase checks: the
    first fault as a failed verification naming the event, or the fold."""
    verification = verify_chain(
        chain.blocks, chain.authorities, chain.quorum, chain.scheme_name)
    if not verification.ok:
        return verification, None
    try:
        fold = ChainFold(chain.blocks)
    except EventInvalid as exc:
        return ChainVerification(False, exc.height, exc.reason), None
    if fold.phase_fault is not None:
        return ChainVerification(False, *fold.phase_fault), None
    return verification, fold


# --- export ---

def report_json_bytes(report: dict | list) -> bytes:
    """Indented JSON with sorted keys and a final newline: the report file's form."""
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
    render = {"json": report_json_bytes, "csv": report_csv_bytes}.get(fmt)
    if render is None:
        raise UnsupportedFormat(f"unknown export format: {fmt!r}")
    write_bytes(path, render(report), "report")
    return Path(path)


def load_report(path: str | Path) -> dict:
    return read_json(path, "report")
