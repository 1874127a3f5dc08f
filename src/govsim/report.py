"""The run report, and the pure fold over sealed chain events that proves it.

Everything in a run report can be reconstructed from event payloads alone:
``ChainFold`` folds the events through ``TokenLedger.apply``,
``DidRegistry.apply``, ``AuditRegistry.apply``, ``IncidentLog.apply`` and
``GovernanceState.apply``, the same transitions the live simulator runs,
into chain-less stores, and recomputes per-epoch risk scores from on-chain
assessment/audit/incident data plus the config snapshot embedded in the
genesis event. The simulator reports from its live stores
instead. Both lay the report out through ``layout``, whose one pass over the
chain counts the events and logs the few rare kinds, and ``verify`` proves
the report equals the fold.

``EVENT_SPECS`` declares each event kind once: the phases it may be
appended in, the store whose ``apply`` folds it, and its body fields. Each
kind's body writer in ``ledger._WRITERS`` is generated from those fields at
import. The fold checks every body against them as it decodes it, so a
sealed body that is not what its kind says stops the fold with
``EventInvalid`` naming the event and the field, never a traceback.

Epochs never decrease along the chain, or the fold refuses the event. The
score series reads failed audits and open incidents from the audit registry
and the incident log, as the run's risk phase does; the tests hold both to
the plain scans over ``ChainFold.audits`` and ``.incidents``.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .audit import AuditOutcome, AuditRegistry, AuditTrigger
from .compliance import RuleRegistry
from .encoding import body_writer, from_canonical_json, read_json, unit_fraction, write_bytes
from .errors import EventInvalid, GovSimError, InvalidInput, UnknownIdentity, UnsupportedFormat
from .governance import GovernanceState, ProposalKind, ProposalStatus, VoteDirection, VoteMode
from .identity import ComplianceStatus, DidRegistry, RiskTier
from .ledger import _WRITERS, Block, Chain, ChainVerification, EventKind, Phase, verify_chain
from .risk import (
    IncidentLog, IncidentState, RiskWeights, Severity, compute_risk_score, read_risk_weights)
from .tokens import Pool, TokenLedger

# Each kind's value, a plain str: the report's by_kind keys.
_KIND_VALUES = {kind: kind.value for kind in EventKind}

# The kinds whose bodies the report logs, few per run: each kind's log.
_LOGS = {EventKind.DELEGATE_ELECTED: "elections", EventKind.COLLUSION_FLAGGED: "collusion_flags",
         EventKind.WEIGHTS_ADJUSTED: "weight_adjustments",
         EventKind.RISK_RECLASSIFIED: "reclassifications", EventKind.ACCESS_LOGGED: "access"}


def layout(blocks: Sequence[Block], epochs: Optional[int], assessed: Iterable[tuple[str, bool]],
           audits: Iterable[dict], tokens: TokenLedger,
           scores: dict[str, list[list]], incidents: dict, proposals: dict) -> dict:
    """The full run report as a deterministic JSON-able dict, from the stores
    given and one pass over the chain: ``epochs`` is None for the last epoch
    with events, ``assessed`` is (tier, compliant) per (epoch, DID) and
    ``audits`` the audit registry's rows. The pass counts events by kind per epoch
    and decodes only the logged kinds, each stamped with its frame epoch."""
    counted: dict[int, dict[EventKind, int]] = defaultdict(dict)
    logs: dict[str, list[dict]] = {name: [] for name in _LOGS.values()}
    for block in blocks:
        for event in block.events:
            kind, epoch = event.kind, event.epoch
            counts = counted[epoch]
            counts[kind] = counts.get(kind, 0) + 1
            log = _LOGS.get(kind)
            if log:
                logs[log].append({**from_canonical_json(event.payload), "epoch": epoch})
    # A row per epoch with events (each simulated epoch has a HEARTBEAT).
    per_epoch = [{"epoch": epoch, "events": sum(counts.values()),
                  "by_kind": {_KIND_VALUES[kind]: n for kind, n in sorted(counts.items())}}
                 for epoch, counts in sorted(counted.items())]

    by_tier: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for tier, compliant in assessed:
        by_tier[tier][0] += 1
        by_tier[tier][1] += 1 if compliant else 0
    compliance_rates = {
        tier: {"assessments": total, "compliant": passed, "rate": str(Fraction(passed, total))}
        for tier, (total, passed) in sorted(by_tier.items())}

    audit_outcomes = {outcome.value: 0 for outcome in AuditOutcome}
    audits_by_trigger: dict[str, int] = defaultdict(int)
    for audit in audits:
        audit_outcomes[audit["outcome"]] += 1
        audits_by_trigger[audit["trigger"]] += 1

    access = logs["access"]
    return {
        "root_hash": blocks[-1].block_hash.hex() if blocks else "",
        "blocks": len(blocks),
        "epochs": max(counted, default=0) if epochs is None else epochs,
        "events_total": sum(len(b.events) for b in blocks),
        "per_epoch": per_epoch,
        "compliance": {"by_tier": compliance_rates},
        "audits": {"total": sum(audit_outcomes.values()), "by_outcome": audit_outcomes,
                   "by_trigger": dict(sorted(audits_by_trigger.items()))},
        "tokens": {"snapshot": tokens.snapshot(), "conserved": tokens.conserved(),
                   "checksum": tokens.conservation_checksum()},
        "risk_metrics": {
            "scores": scores, "reclassifications": logs["reclassifications"],
            "incidents": [incidents[k].to_json() for k in sorted(incidents)]},
        "governance": {
            "proposals": [proposals[k].to_json() for k in sorted(proposals)],
            "elections": [{"epoch": entry["epoch"], "delegates": entry["delegates"]}
                          for entry in logs["elections"]],
            "collusion_flags": logs["collusion_flags"],
            "weight_adjustments": logs["weight_adjustments"]},
        "access": {"logged": len(access),
                   "denied": sum(not entry.get("allowed", True) for entry in access)},
    }


class ChainFold:
    """Replays every event into queryable state, checking each body against
    its kind's declaration in ``EVENT_SPECS`` first."""

    def __init__(self, blocks: Sequence[Block]):
        self.blocks = blocks
        self.genesis_meta: dict = {}
        self.weights = RiskWeights()
        self.tokens = TokenLedger(0, {})
        self.registry = DidRegistry(None)
        self.assessments: dict[int, dict[str, dict]] = defaultdict(dict)
        self.audit_registry = AuditRegistry(None, RuleRegistry(), ())
        # The registry's own rows, and the log's own id -> incident dict.
        self.audits = self.audit_registry.records
        self.incident_log = IncidentLog(None)
        self.incidents = self.incident_log.incidents
        self.governance = GovernanceState(None, None)
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
        last = 0  # a frame's epoch is unsigned
        for block in self.blocks:
            for event in block.events:
                kind, epoch = event.kind, event.epoch
                phases, fields, apply, fold = plan[kind]
                try:
                    if epoch < last:
                        raise InvalidInput(
                            f"epoch {epoch} is before epoch {last} of the event before it")
                    last = epoch
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
                    raise EventInvalid(block.height, f"event {event.event_id} ({kind.value}): "
                                       f"{exc}", self.phase_fault) from exc
                phase = body.get("phase")
                if (type(phase) is not int or phase not in phases) and self.phase_fault is None:
                    self.phase_fault = (block.height, f"event {event.event_id} ({kind.value}): "
                                        f"phase {phase}, allowed {sorted(map(int, phases))}")

    # --- the fold's own bookkeeping, named per kind in EVENT_SPECS ---

    def _genesis(self, body: dict, epoch: int) -> None:
        if body["op"] != "mint_genesis":
            return
        self.genesis_meta = body
        raw = body.get("config", {}).get("risk_weights")
        try:
            self.weights = read_risk_weights(raw, "config.risk_weights") if raw else RiskWeights()
        except GovSimError as exc:
            raise InvalidInput(f"field {exc}") from exc

    def _assessment(self, body: dict, epoch: int) -> None:
        if body["did"] not in self.registry.records:
            raise UnknownIdentity(f"field did: {body['did']!r} was never registered")
        self._score(body["score"])  # refuses a score outside [0, 1] at its event
        self.assessments[epoch][body["did"]] = {
            "score": body["score"],
            "tier": body["tier"],
            "compliant": body["compliant"],
        }

    # --- derived views ---

    def incident_open_at(self, did: str, epoch: int) -> int:
        """Incidents of ``did`` raised or contained as of ``epoch``."""
        return self.incident_log.open_at(did, epoch)

    def audit_failed_at(self, did: str, epoch: int) -> bool:
        """Whether an audit of ``did`` at ``epoch`` had an outcome of
        ``audit.RISK_FAILED_OUTCOMES``."""
        return (did, epoch) in self.audit_registry.failed

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
                key = (assessed[did]["score"], self.audit_failed_at(did, epoch - 1),
                       self.incident_open_at(did, epoch), did)
                score = scores.get(key)
                if score is None:
                    score = scores[key] = str(compute_risk_score(
                        self._score(key[0]), key[1], key[2], records[did].exposure, self.weights))
                series[did].append([epoch, score])
        return dict(series)

    def report(self) -> dict:
        """The full run report as a deterministic JSON-able dict."""
        return layout(
            self.blocks, self.genesis_meta.get("epochs"),
            [(e["tier"], e["compliant"]) for m in self.assessments.values() for e in m.values()],
            self.audits,
            self.tokens, self.score_series(), self.incidents, self.governance.proposals)


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


# The phases in which a system's record is written during an epoch.
_RECORD_PHASES = {Phase.INGEST, Phase.COMPLIANCE, Phase.RISK, Phase.PENALTIES}

EVENT_SPECS: dict[EventKind, EventSpec] = {
    EventKind.DID_REGISTERED: _spec({Phase.SETUP}, "registry", None, {
        "did": str, "owner": str, "purpose": str, "risk_tier": RiskTier, "version": int,
        "exposure?": str, "metadata_refs?": list}),
    EventKind.DID_UPDATED: _spec(_RECORD_PHASES, "registry", None, {
        "did": str, "version": int, "change?": {
            "status?": ComplianceStatus, "risk_tier?": RiskTier, "purpose?": str,
            "metadata_ref?": str}}),
    EventKind.DELEGATE_ELECTED: _spec({Phase.SETUP, Phase.ELECTIONS}, "governance", None,
                                      {"delegates": list}),
    EventKind.PROPOSAL_SUBMITTED: _spec({Phase.GOVERNANCE}, "governance", None, {
        "proposal_id": str, "kind": ProposalKind, "mode": VoteMode, "payload": object}),
    EventKind.VOTE_CAST: _spec({Phase.GOVERNANCE}, "governance", None, {
        "proposal_id": str, "voter": str, "direction": VoteDirection, "magnitude": int,
        "mode": VoteMode, "cost": int}),
    EventKind.PROPOSAL_RESOLVED: _spec({Phase.GOVERNANCE}, "governance", None, {
        "proposal_id": str, "status": ProposalStatus, "power_for": str,
        "power_against": str, "threshold": str}),
    EventKind.ASSESSMENT_RECORDED: _spec({Phase.COMPLIANCE}, None, ChainFold._assessment, {
        "did": str, "epoch": int, "score": str, "tier": RiskTier, "compliant": bool,
        "results": dict, "commitment": str}),
    EventKind.AUDIT_RECORDED: _spec({Phase.AUDIT}, "audit_registry", None, {
        "did": str, "outcome": AuditOutcome, "trigger": AuditTrigger, "epoch?": int}),
    EventKind.AUDITOR_ACCREDITED: _spec({Phase.SETUP}),
    EventKind.TOKENS_TRANSFERRED: _spec(
        {Phase.SETUP, Phase.GOVERNANCE, Phase.REWARDS}, "tokens", ChainFold._genesis,
        {"op": _Variants(
            mint_genesis={"total_supply": int, "emission": int,
                          "pools": {pool.value: int for pool in Pool},
                          "config?": {"risk_weights?": dict}},
            grant={"pool": Pool, "to": str, "amount": int},
            transfer={"from": str, "to": str, "amount": int},
            pool_charge={"from": str, "pool": Pool, "amount": int, "reason?": str,
                         "ref?": str},
            reward={"to": str, "amount": int})}),
    EventKind.STAKE_CHANGED: _spec({Phase.SETUP}, "tokens", None, {
        "holder": str, "op": ("stake", "unstake"), "amount": int,
        "lock_start_epoch": int, "lock_epochs": int}),
    EventKind.SLASH_APPLIED: _spec({Phase.PENALTIES}, "tokens", None,
                                   {"holder": str, "burned": int}),
    EventKind.INCIDENT_RAISED: _spec({Phase.INGEST}, "incident_log", None, {
        "incident_id": str, "did": str, "severity": Severity}),
    EventKind.INCIDENT_ADVANCED: _spec({Phase.RISK}, "incident_log", None,
                                       {"incident_id": str, "state": IncidentState}),
    EventKind.RISK_RECLASSIFIED: _spec({Phase.RISK}),
    EventKind.ORACLE_UPDATE: _spec({Phase.INGEST}),
    EventKind.ACCESS_LOGGED: _spec(_RECORD_PHASES, None, None, {"allowed?": bool}),
    EventKind.WEIGHTS_ADJUSTED: _spec({Phase.GOVERNANCE}),
    EventKind.HEARTBEAT: _spec({Phase.INGEST}),
    EventKind.COLLUSION_FLAGGED: _spec({Phase.GOVERNANCE}),
    EventKind.RULE_REGISTERED: _spec({Phase.SETUP, Phase.GOVERNANCE}),
}


def _shapes(fields: tuple) -> list[dict]:
    """The shapes of a kind's compiled fields for ``encoding.body_writer``: one
    per ``_Variants`` value, each with every declared field. An enum or tuple
    field is a ``str``, ``int`` and ``bool`` are themselves, any other ``dict``."""
    shapes = [{}]
    for name, types, extra in fields:
        if type(extra) is dict:  # _Variants: the value, then that variant's fields
            shapes = [{**shape, name: value, **variant} for shape in shapes
                      for value, sub in extra.items() for variant in _shapes(sub)]
        else:
            declared = {types} if type(types) is type else types - {object}
            kind = next(iter(declared)) if len(declared) == 1 else dict
            for shape in shapes:
                shape[name] = kind if kind in (str, int, bool) else dict
    return shapes


# Chain.append writes each kind's bodies with the writer of its declared shapes.
_WRITERS.update((kind, body_writer(_shapes(spec.fields), "phase"))
                for kind, spec in EVENT_SPECS.items())


def build_report(blocks: Sequence[Block]) -> dict:
    """The full run report as a deterministic JSON-able dict."""
    return ChainFold(blocks).report()


def first_difference(a: Any, b: Any, path: str = "") -> Optional[str]:
    """The JSON path (``key.key[index]``) of the first place where ``a`` and
    ``b`` differ, or None if they are equal."""
    if type(a) is type(b) is dict:
        pairs = ((f"{path}.{key}" if path else key, a.get(key, _MISSING), b.get(key, _MISSING))
                 for key in sorted(a.keys() | b.keys()))
    elif type(a) is type(b) is list:
        pairs = ((f"{path}[{index}]", x, y)
                 for index, (x, y) in enumerate(zip_longest(a, b, fillvalue=_MISSING)))
    else:
        return None if a == b else path or "(top level)"
    return next(filter(None, (first_difference(x, y, at) for at, x, y in pairs)), None)


def verified_fold(chain: Chain) -> tuple[ChainVerification, Optional[ChainFold]]:
    """``verify_chain``, then the fold with its body and phase checks: the
    first fault as a failed verification naming the event, or the fold."""
    verification = verify_chain(
        chain.blocks, chain.authorities, chain.quorum, chain.scheme_name)
    if not verification.ok:
        return verification, None
    try:
        fold = ChainFold(chain.blocks)
    except EventInvalid as exc:  # the fault first along the chain
        return ChainVerification(False, *(exc.phase_fault or (exc.height, exc.reason))), None
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
