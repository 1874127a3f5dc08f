"""Audits that never put sensitive numbers on the ledger.

The audited party publishes a hash commitment over its metric vector plus a
salt. Only the assigned auditor receives the disclosure; the ledger records
the commitment and the verdict. Any single altered bit makes the disclosure
unverifiable.
"""

from pathlib import Path

from govsim.audit import AuditRegistry
from govsim.compliance import (
    GENESIS_AUTHORIZATION,
    RuleDomain,
    RuleRegistry,
    metrics_commitment,
)
from govsim.encoding import read_json
from govsim.errors import EvidenceForged
from govsim.identity import AISystemRecord, ComplianceStatus, RiskTier
from govsim.rng import DeterministicStream
from govsim.simctl import load_scenario

RULES = Path(__file__).resolve().parent.parent / "scenarios" / "standard_rules.json"

rules = RuleRegistry()
for rule in load_scenario({"epochs": 1, "rules": read_json(RULES, "rules")}).rules:
    rules.register_rule(rule, GENESIS_AUTHORIZATION)

audits = AuditRegistry(None, rules, ["esma"])
audits.accredit_auditor("auditor-one", "esma", list(RuleDomain), 100, epoch=0)
print("auditor-one accredited for all four rule domains, epochs 0..100")

system = AISystemRecord(
    did="did:govsim:" + "c3" * 16,
    risk_tier=RiskTier.HIGH, compliance_status=ComplianceStatus.COMPLIANT,
    purpose="credit scoring", owner="bank-alpha",
)

metrics = {"capital_ratio": 0.102, "data_privacy_consent": True,
           "model_bias_metric": 0.14, "audit_trail_complete": True}
salt = DeterministicStream(99, "salt").bytes_(32)
commitment = metrics_commitment(metrics, salt)
print(f"published commitment: {commitment.hex()[:32]}… (metrics stay private)")

record = audits.perform_audit("auditor-one", system, metrics, salt, commitment,
                              epoch=2, trigger="cadence")
print(f"honest disclosure: outcome {record.outcome.value}, findings {record.findings}")

# A doctored disclosure cannot re-produce the committed digest.
doctored = dict(metrics, capital_ratio=0.15)
try:
    audits.perform_audit("auditor-one", system, doctored, salt, commitment, epoch=3)
except EvidenceForged as exc:
    print(f"doctored disclosure: {exc}")
print(f"the forged attempt is still on record: "
      f"{audits.records[-1]['audit_id']} -> {audits.records[-1]['outcome']}")

body = record.to_body()
assert "0.102" not in str(body)
print(f"ledger payload carries verdicts and the commitment only: {sorted(body)}")
