"""Auditor accreditation, risk-tiered scheduling, commitment-checked audits.

A system is due at epoch e when it carries a pending trigger or when e is a
multiple of its tier's interval (HIGH every 2 epochs, LIMITED 8, MINIMAL
32). ``AuditTrigger`` is the one statement of the triggers, their priority
and the slash that a failed audit under each takes. Auditors see the
disclosed metric vector; the ledger sees only the commitment.

``AuditRegistry.apply`` is the one AUDIT_RECORDED transition: ``perform_audit``
records through it, and the report fold applies the same bodies to a chain-less
registry, so the run and the fold read failed audits from one set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .compliance import RuleDomain, RuleRegistry, evaluate_rules, metrics_commitment
from .errors import (
    EvidenceForged,
    InvalidScope,
    ScopeViolation,
    UnassignableAudit,
    UnknownAccreditor,
)
from .identity import AISystemRecord, ComplianceStatus, RiskTier
from .ledger import Chain, EventKind, Store
from .rng import DeterministicStream
from .tokens import SlashReason

DEFAULT_AUDIT_INTERVALS: dict[RiskTier, int] = {
    RiskTier.HIGH: 2,
    RiskTier.LIMITED: 8,
    RiskTier.MINIMAL: 32,
}
DEFAULT_AUDITOR_CAPACITY = 4


class AuditOutcome(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


# The outcomes the next epoch's risk score counts as failed (slash and status read FAIL).
RISK_FAILED_OUTCOMES = frozenset({AuditOutcome.FAIL, AuditOutcome.INCONCLUSIVE})


class AuditTrigger(str, Enum):
    """Why a system is audited, in priority order: of the triggers pending for
    a system in an epoch, the first declared is the one audited. Each member
    carries the slash reason that a FAIL audit under it takes."""

    slash_reason: SlashReason

    def __new__(cls, value: str, slash_reason: SlashReason) -> AuditTrigger:
        member = str.__new__(cls, value)
        member._value_, member.slash_reason = value, slash_reason
        return member

    COLLUSION = "collusion", SlashReason.COLLUSION_CONFIRMED  # governance: a flagged pair
    MITIGATION = "mitigation", SlashReason.AUDIT_FAIL  # compliance: a failed assessment
    VIOLATION = "violation", SlashReason.AUDIT_FAIL  # ingest: an injected violation
    FORECAST = "forecast", SlashReason.AUDIT_FAIL  # risk: a forecast below the floor
    CADENCE = "cadence", SlashReason.AUDIT_FAIL  # audit: the tier's interval, nothing pending


# Each outcome and trigger, or its value, to its value: a plain str, looked up per audit.
_VALUES = {member: member.value for enum in (AuditOutcome, AuditTrigger) for member in enum}


@dataclass(frozen=True)
class AuditorCertification:
    auditor_id: str
    accrediting_body: str
    issued_epoch: int
    expiry_epoch: int
    scopes: frozenset[RuleDomain]

    def valid_at(self, epoch: int) -> bool:
        return self.issued_epoch <= epoch <= self.expiry_epoch


@dataclass(frozen=True)
class AuditRecord:
    audit_id: str
    system_did: str
    auditor_id: str
    epoch: int
    findings: dict[str, bool]
    outcome: AuditOutcome
    evidence_commitment: bytes
    trigger: AuditTrigger

    def to_body(self) -> dict:
        return {
            "audit_id": self.audit_id,
            "did": self.system_did,
            "auditor": self.auditor_id,
            "outcome": _VALUES[self.outcome],
            "findings": self.findings,
            "commitment": self.evidence_commitment.hex(),
            "trigger": _VALUES[self.trigger],
        }


@dataclass(frozen=True)
class AuditAssignment:
    system_did: str
    auditor_id: str
    trigger: AuditTrigger


class AuditRegistry(Store):
    def __init__(
        self,
        chain: Optional[Chain],
        rules: RuleRegistry,
        accreditors: Sequence[str],
        *,
        intervals: Optional[Mapping[RiskTier, int]] = None,
        auditor_capacity: int = DEFAULT_AUDITOR_CAPACITY,
    ):
        self.chain = chain
        self.rules = rules
        self.accreditors = set(accreditors)
        self.intervals = dict(intervals or DEFAULT_AUDIT_INTERVALS)
        self.auditor_capacity = auditor_capacity
        # By auditor id, kept in id order: the order eligible_auditors lists them in.
        self.certifications: dict[str, AuditorCertification] = {}
        # Each audit's body with its epoch, and the (DID, epoch) of each failed one.
        self.records: list[dict] = []
        self.failed: set[tuple[str, int]] = set()

    def apply(self, kind: EventKind, body: Mapping, epoch: int) -> None:
        """Apply one AUDIT_RECORDED event at ``epoch``, its ``body`` what the kind declares."""
        self.records.append({**body, "epoch": epoch})
        if body["outcome"] in RISK_FAILED_OUTCOMES:
            self.failed.add((body["did"], epoch))

    # --- accreditation ---

    def accredit_auditor(
        self,
        auditor_id: str,
        body: str,
        scopes: Sequence[RuleDomain],
        validity_epochs: int,
        *,
        epoch: int = 0,
    ) -> AuditorCertification:
        if body not in self.accreditors:
            raise UnknownAccreditor(f"unknown accrediting body: {body}")
        if not scopes:
            raise InvalidScope("scopes must be non-empty")
        if validity_epochs < 1:
            raise InvalidScope("validity must be at least one epoch")
        certification = AuditorCertification(
            auditor_id=auditor_id,
            accrediting_body=body,
            issued_epoch=epoch,
            expiry_epoch=epoch + validity_epochs,
            scopes=frozenset(scopes),
        )
        self.certifications = dict(sorted({**self.certifications,
                                           auditor_id: certification}.items()))
        self._append(
            EventKind.AUDITOR_ACCREDITED,
            {"auditor_id": auditor_id, "body": body,
             "scopes": sorted(s.value for s in certification.scopes),
             "issued_epoch": certification.issued_epoch,
             "expiry_epoch": certification.expiry_epoch},
            actor=body, epoch=epoch,
        )
        return certification

    # --- scheduling ---

    def eligible_auditors(self, system: AISystemRecord, epoch: int) -> list[str]:
        """Auditors, in id order, certified at ``epoch`` for every domain of the tier's rules."""
        domains = self.rules.domains(system.risk_tier)
        return [auditor_id for auditor_id, certification in self.certifications.items()
                if certification.valid_at(epoch) and domains <= certification.scopes]

    def due_by_cadence(self, system: AISystemRecord, epoch: int) -> bool:
        if epoch < 1:
            return False
        return epoch % self.intervals[system.risk_tier] == 0

    def schedule_audits(
        self,
        epoch: int,
        systems: Mapping[str, AISystemRecord],
        *,
        triggers: Optional[Mapping[str, str]] = None,
        stream: Optional[DeterministicStream] = None,
    ) -> list[AuditAssignment]:
        """Triggered systems first, then cadence-due, round-robin assigned.

        Suspended systems are skipped. Raises UnassignableAudit when a due
        system has no eligible auditor.
        """
        triggers = dict(triggers or {})
        stream = stream or DeterministicStream(0, "audit")
        active = {did for did, system in systems.items()
                  if system.compliance_status != ComplianceStatus.SUSPENDED}
        queue = [(did, triggers[did]) for did in sorted(triggers) if did in active]
        queue += [(did, AuditTrigger.CADENCE) for did in sorted(active - triggers.keys())
                  if self.due_by_cadence(systems[did], epoch)]
        if not queue:
            return []

        load: dict[str, int] = {a: 0 for a in self.certifications}
        assignments: list[AuditAssignment] = []
        offset = stream.randbelow(1 << 32)
        position = 0
        for did, trigger in queue:
            eligible = self.eligible_auditors(systems[did], epoch)
            if not eligible:
                raise UnassignableAudit(f"no eligible auditor for {did} at epoch {epoch}")
            chosen = None
            for step in range(len(eligible)):
                candidate = eligible[(offset + position + step) % len(eligible)]
                if load[candidate] < self.auditor_capacity:
                    chosen = candidate
                    break
            if chosen is None:
                # Capacity bound everywhere; triggered audits already sit at
                # the front of the queue, so cadence audits are what spill.
                continue
            load[chosen] += 1
            position += 1
            assignments.append(AuditAssignment(did, chosen, trigger))
        return assignments

    # --- execution ---

    def perform_audit(
        self,
        auditor_id: str,
        system: AISystemRecord,
        metrics: Mapping[str, float | bool],
        salt: bytes,
        commitment: bytes,
        *,
        epoch: int,
        trigger: AuditTrigger = AuditTrigger.CADENCE,
    ) -> AuditRecord:
        """Verify the disclosure against the commitment, then re-run the rules.

        A mismatching disclosure records an INCONCLUSIVE audit and raises
        EvidenceForged (the penalty trigger for the caller).
        """
        certification = self.certifications.get(auditor_id)
        if certification is None or not certification.valid_at(epoch):
            raise ScopeViolation(f"{auditor_id} holds no valid certification at {epoch}")
        if not self.rules.domains(system.risk_tier) <= certification.scopes:
            raise ScopeViolation(f"{auditor_id} lacks scope for {system.did}")

        audit_id = f"audit-{len(self.records) + 1:06d}"

        # A disclosure that does not match the commitment is not assessed.
        forged = metrics_commitment(metrics, salt) != commitment
        findings, outcome = {}, AuditOutcome.INCONCLUSIVE
        if not forged:
            findings, _score, compliant = evaluate_rules(system.risk_tier, metrics, self.rules)
            outcome = AuditOutcome.PASS if compliant else AuditOutcome.FAIL
        record = AuditRecord(
            audit_id=audit_id, system_did=system.did, auditor_id=auditor_id, epoch=epoch,
            findings=findings, outcome=outcome, evidence_commitment=commitment, trigger=trigger)
        self._record(EventKind.AUDIT_RECORDED, record.to_body(), actor=auditor_id, epoch=epoch)
        if forged:
            raise EvidenceForged(f"disclosure for {system.did} does not match commitment "
                                 f"(audit {audit_id} recorded INCONCLUSIVE)")
        return record
