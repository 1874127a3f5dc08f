"""Machine-readable compliance rules: evaluation, versioning, arbitration.

Rules are condition trees over named metrics. Updating a rule creates a new
version and never rewrites history; a dispute panel can overturn an
assessment after the fact.
"""

from pathlib import Path

from govsim.compliance import (
    ComplianceRuleModule,
    DisputeCourt,
    GENESIS_AUTHORIZATION,
    RuleDomain,
    RuleRegistry,
    evaluate,
)
from govsim.encoding import read_json
from govsim.identity import AISystemRecord, ComplianceStatus, RiskTier
from govsim.rng import DeterministicStream
from govsim.simctl import load_scenario

RULES = Path(__file__).resolve().parent.parent / "scenarios" / "standard_rules.json"

registry = RuleRegistry()
for rule in load_scenario({"epochs": 1, "rules": read_json(RULES, "rules")}).rules:
    registry.register_rule(rule, GENESIS_AUTHORIZATION)
print("active rules:", [f"{r.rule_id} v{r.version}" for r in registry.active_rules()])

system = AISystemRecord(
    did="did:govsim:" + "5a" * 16,
    risk_tier=RiskTier.HIGH, compliance_status=ComplianceStatus.UNDER_REVIEW,
    purpose="derivatives pricing", owner="bank-alpha",
)

healthy = {"capital_ratio": 0.11, "data_privacy_consent": True,
           "model_bias_metric": 0.12, "audit_trail_complete": True}
assessment = evaluate(system, healthy, epoch=1, registry=registry)
print(f"healthy snapshot: compliant={assessment.compliant} "
      f"score={assessment.aggregate_score}")

stressed = dict(healthy, capital_ratio=0.06)
assessment = evaluate(system, stressed, epoch=2, registry=registry)
print(f"capital at 6%:    compliant={assessment.compliant} "
      f"score={assessment.aggregate_score} results={assessment.results}")

# Regulators raise the capital floor; version 1 stays queryable.
registry.register_rule(ComplianceRuleModule(
    rule_id="capital-adequacy-min",
    domain=RuleDomain.CAPITAL_ADEQUACY,
    predicate={"op": ">=", "metric": "capital_ratio", "value": 0.10},
    metrics=("capital_ratio",),
    applicable_tiers=frozenset({RiskTier.HIGH, RiskTier.LIMITED}),
), GENESIS_AUTHORIZATION)
print(f"capital floor raised: v1 threshold "
      f"{registry.get('capital-adequacy-min', version=1).predicate['value']}, "
      f"active v{registry.get('capital-adequacy-min').version} threshold "
      f"{registry.get('capital-adequacy-min').predicate['value']}")

borderline = evaluate(system, dict(healthy, capital_ratio=0.09), epoch=3,
                      registry=registry)
print(f"9% capital under v2: compliant={borderline.compliant}")

# The owner believes the data feed glitched; a neutral panel reviews.
court = DisputeCourt(DeterministicStream(1, "disputes"))
dispute = court.open_dispute(
    borderline, challenger="fintech-beta", system_owner="bank-alpha",
    eligible_auditors=["aud-1", "aud-2", "aud-3", "aud-4", "aud-5"],
)
print(f"dispute panel drawn deterministically: {dispute.panel}")
final = court.resolve_dispute(dispute, ["overturn", "overturn", "uphold"])
print(f"panel overturned 2-1 -> compliant={final.compliant}")
