import hashlib
import json
import random

import pytest

from govsim.audit import (
    AuditOutcome,
    AuditRegistry,
    AuditTrigger,
    DEFAULT_AUDIT_INTERVALS,
    AuditorCertification,
)
from govsim.compliance import (
    ComplianceRuleModule,
    GENESIS_AUTHORIZATION,
    RuleDomain,
    RuleRegistry,
    metrics_commitment,
)
from govsim.errors import (
    EvidenceForged,
    InvalidScope,
    ScopeViolation,
    UnassignableAudit,
    UnknownAccreditor,
)
from govsim.identity import AISystemRecord, ComplianceStatus, RiskTier
from govsim.ledger import EventKind
from govsim.rng import DeterministicStream
from govsim.simctl import run_scenario
from govsim.tokens import SlashReason
from tests.conftest import scenario_path

ALL_DOMAINS = list(RuleDomain)


def rules_with_capital():
    registry = RuleRegistry()
    registry.register_rule(ComplianceRuleModule(
        rule_id="capital-adequacy-min",
        domain=RuleDomain.CAPITAL_ADEQUACY,
        predicate={"op": ">=", "metric": "capital_ratio", "value": 0.08},
        metrics=("capital_ratio",),
        applicable_tiers=frozenset({RiskTier.HIGH, RiskTier.LIMITED, RiskTier.MINIMAL}),
    ), GENESIS_AUTHORIZATION)
    return registry


def system(did_suffix, tier):
    return AISystemRecord(
        did=f"did:govsim:{did_suffix:0>32}", risk_tier=tier,
        compliance_status=ComplianceStatus.UNDER_REVIEW, purpose="t", owner="bank-1",
    )


def registry_with_auditors(n=2, scopes=None, validity=100):
    audits = AuditRegistry(None, rules_with_capital(), ["accreditor-1"])
    for i in range(1, n + 1):
        audits.accredit_auditor(f"aud-{i}", "accreditor-1",
                                scopes or ALL_DOMAINS, validity, epoch=0)
    return audits


# --- accreditation ---

def test_accreditation_valid_through_expiry():
    audits = AuditRegistry(None, rules_with_capital(), ["accreditor-1"])
    cert = audits.accredit_auditor(
        "aud-1", "accreditor-1", [RuleDomain.CAPITAL_ADEQUACY], 50, epoch=0)
    assert cert.expiry_epoch == 50
    assert cert.valid_at(50)
    assert not cert.valid_at(51)


def test_expired_certification_blocks_audit():
    audits = registry_with_auditors(n=1, validity=50)
    target = system("a", RiskTier.HIGH)
    with pytest.raises(ScopeViolation):
        audits.perform_audit("aud-1", target, {"capital_ratio": 0.09},
                             b"\x00" * 32, b"\x00" * 32, epoch=51)


def test_empty_scopes_rejected():
    audits = AuditRegistry(None, rules_with_capital(), ["accreditor-1"])
    with pytest.raises(InvalidScope):
        audits.accredit_auditor("aud-1", "accreditor-1", [], 50)


def test_validity_below_one_epoch_rejected():
    audits = AuditRegistry(None, rules_with_capital(), ["accreditor-1"])
    with pytest.raises(InvalidScope, match="validity must be at least one epoch"):
        audits.accredit_auditor("aud-1", "accreditor-1", ALL_DOMAINS, 0)

def test_unknown_accreditor_rejected():
    audits = AuditRegistry(None, rules_with_capital(), ["accreditor-1"])
    with pytest.raises(UnknownAccreditor):
        audits.accredit_auditor("aud-1", "diploma-mill", ALL_DOMAINS, 50)


# --- cadence ---

def count_scheduled(tier, horizon=64):
    audits = registry_with_auditors()
    target = {f"sys-{tier.value}": system(tier.value[:4].lower(), tier)}
    stream = DeterministicStream(1, "audit")
    count = 0
    for epoch in range(1, horizon + 1):
        count += len(audits.schedule_audits(epoch, target, stream=stream))
    return count


def test_high_tier_scheduled_32_times_over_64_epochs():
    # Oracle: multiples of 2 in 1..64.
    assert count_scheduled(RiskTier.HIGH) == len([e for e in range(1, 65) if e % 2 == 0])
    assert count_scheduled(RiskTier.HIGH) == 32


def test_limited_tier_scheduled_8_times():
    assert count_scheduled(RiskTier.LIMITED) == 8


def test_minimal_tier_scheduled_twice():
    assert count_scheduled(RiskTier.MINIMAL) == 2


def test_cadence_ordering_high_gt_limited_gt_minimal():
    high = count_scheduled(RiskTier.HIGH)
    limited = count_scheduled(RiskTier.LIMITED)
    minimal = count_scheduled(RiskTier.MINIMAL)
    assert high > limited > minimal


@pytest.mark.parametrize("tier", [RiskTier.HIGH, RiskTier.LIMITED, RiskTier.MINIMAL])
def test_no_system_is_due_by_cadence_at_epoch_0(tier):
    # 0 is a multiple of every interval, yet the first cadence audit is at the interval.
    audits = registry_with_auditors()
    assert not audits.due_by_cadence(system("a", tier), 0)
    assert audits.due_by_cadence(system("a", tier), audits.intervals[tier])

def test_trigger_forces_off_cadence_audit():
    audits = registry_with_auditors()
    systems = {"s": system("a", RiskTier.MINIMAL)}
    stream = DeterministicStream(1, "audit")
    assignments = audits.schedule_audits(
        5, systems, triggers={"s": "mitigation"}, stream=stream)
    assert len(assignments) == 1
    assert assignments[0].trigger == "mitigation"
    assert not audits.due_by_cadence(systems["s"], 5)


def test_suspended_systems_not_scheduled():
    audits = registry_with_auditors()
    suspended = system("a", RiskTier.HIGH)
    suspended.compliance_status = ComplianceStatus.SUSPENDED
    assert audits.schedule_audits(2, {"s": suspended},
                                  stream=DeterministicStream(1, "a")) == []


def test_unassignable_when_no_auditor_in_scope():
    audits = AuditRegistry(None, rules_with_capital(), ["accreditor-1"])
    audits.accredit_auditor("aud-1", "accreditor-1",
                            [RuleDomain.DATA_PRIVACY], 100, epoch=0)
    with pytest.raises(UnassignableAudit):
        audits.schedule_audits(2, {"s": system("a", RiskTier.HIGH)},
                               stream=DeterministicStream(1, "a"))


def test_round_robin_is_seeded_deterministic():
    def run(seed):
        audits = registry_with_auditors(n=3)
        systems = {f"s{i}": system(f"{i}", RiskTier.HIGH) for i in range(6)}
        stream = DeterministicStream(seed, "audit")
        return [(a.system_did, a.auditor_id)
                for a in audits.schedule_audits(2, systems, stream=stream)]

    assert run(7) == run(7)
    assignments = run(7)
    assert len(assignments) == 6
    # Round robin spreads load across the three auditors.
    per_auditor = {aud: sum(1 for _, a in assignments if a == aud)
                   for aud in {a for _, a in assignments}}
    assert all(count == 2 for count in per_auditor.values())


def test_capacity_caps_cadence_audits():
    audits = registry_with_auditors(n=1)
    audits.auditor_capacity = 4
    systems = {f"s{i}": system(f"{i}", RiskTier.HIGH) for i in range(6)}
    assignments = audits.schedule_audits(
        2, systems, triggers={"s5": "mitigation"},
        stream=DeterministicStream(1, "audit"))
    assert len(assignments) == 4
    assert assignments[0].system_did == "s5"  # triggered audit gets priority


# --- execution ---

def disclosure(metrics, seed=0):
    salt = DeterministicStream(seed, "salt").bytes_(32)
    return metrics, salt, metrics_commitment(metrics, salt)


def test_honest_passing_disclosure_passes():
    audits = registry_with_auditors(n=1)
    metrics, salt, commitment = disclosure({"capital_ratio": 0.09})
    record = audits.perform_audit("aud-1", system("a", RiskTier.HIGH),
                                  metrics, salt, commitment, epoch=2)
    assert record.outcome == AuditOutcome.PASS
    assert record.findings == {"capital-adequacy-min": True}
    assert record.evidence_commitment == commitment


def test_failing_metrics_fail_the_audit():
    audits = registry_with_auditors(n=1)
    metrics, salt, commitment = disclosure({"capital_ratio": 0.05})
    record = audits.perform_audit("aud-1", system("a", RiskTier.HIGH),
                                  metrics, salt, commitment, epoch=2)
    assert record.outcome == AuditOutcome.FAIL


def test_tampered_metrics_raise_evidence_forged():
    audits = registry_with_auditors(n=1)
    metrics, salt, commitment = disclosure({"capital_ratio": 0.05})
    # Oracle: recompute the digest with hashlib over tampered bytes and
    # confirm it cannot match the original commitment.
    tampered = {"capital_ratio": 0.09}
    canonical = json.dumps(tampered, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical + salt).digest() != commitment
    with pytest.raises(EvidenceForged):
        audits.perform_audit("aud-1", system("a", RiskTier.HIGH),
                             tampered, salt, commitment, epoch=2)
    assert audits.records[-1].outcome == AuditOutcome.INCONCLUSIVE


def test_single_bit_salt_flip_forged():
    audits = registry_with_auditors(n=1)
    metrics, salt, commitment = disclosure({"capital_ratio": 0.09})
    bad_salt = bytes([salt[0] ^ 0x01]) + salt[1:]
    with pytest.raises(EvidenceForged):
        audits.perform_audit("aud-1", system("a", RiskTier.HIGH),
                             metrics, bad_salt, commitment, epoch=2)


def test_random_single_bit_corruptions_always_forged():
    rng = random.Random(55)
    audits = registry_with_auditors(n=1)
    target = system("a", RiskTier.HIGH)
    for _ in range(100):
        metrics = {"capital_ratio": round(rng.uniform(0, 0.2), 6)}
        salt = rng.randbytes(32)
        commitment = metrics_commitment(metrics, salt)
        if rng.random() < 0.5:
            bit = 1 << rng.randrange(8)
            pos = rng.randrange(32)
            bad_salt = salt[:pos] + bytes([salt[pos] ^ bit]) + salt[pos + 1:]
            with pytest.raises(EvidenceForged):
                audits.perform_audit("aud-1", target, metrics, bad_salt,
                                     commitment, epoch=2)
        else:
            bad_metrics = {"capital_ratio": metrics["capital_ratio"] + 1e-6}
            with pytest.raises(EvidenceForged):
                audits.perform_audit("aud-1", target, bad_metrics, salt,
                                     commitment, epoch=2)


def test_out_of_scope_auditor_rejected():
    audits = AuditRegistry(None, rules_with_capital(), ["accreditor-1"])
    audits.accredit_auditor("aud-1", "accreditor-1",
                            [RuleDomain.DATA_PRIVACY], 100, epoch=0)
    metrics, salt, commitment = disclosure({"capital_ratio": 0.09})
    with pytest.raises(ScopeViolation):
        audits.perform_audit("aud-1", system("a", RiskTier.HIGH),
                             metrics, salt, commitment, epoch=2)


def test_a_tier_without_rules_admits_every_valid_auditor():
    # No rule applies to MINIMAL, so any scope will do; only validity counts.
    rules = RuleRegistry()
    rules.register_rule(ComplianceRuleModule(
        rule_id="bias-ceiling", domain=RuleDomain.RISK_ASSESSMENT,
        predicate={"op": "<=", "metric": "model_bias_metric", "value": 0.2},
        metrics=("model_bias_metric",), applicable_tiers=frozenset({RiskTier.HIGH}),
    ), GENESIS_AUTHORIZATION)
    audits = AuditRegistry(None, rules, ["accreditor-1"])
    audits.accredit_auditor("aud-2", "accreditor-1", [RuleDomain.TRANSPARENCY], 100, epoch=0)
    audits.accredit_auditor("aud-1", "accreditor-1", [RuleDomain.DATA_PRIVACY], 100, epoch=0)
    audits.accredit_auditor("aud-3", "accreditor-1", ALL_DOMAINS, 1, epoch=0)
    target = system("a", RiskTier.MINIMAL)
    assert rules.domains(RiskTier.MINIMAL) == frozenset()
    assert audits.eligible_auditors(target, 1) == ["aud-1", "aud-2", "aud-3"]
    assert audits.eligible_auditors(target, 2) == ["aud-1", "aud-2"]
    assert audits.eligible_auditors(system("b", RiskTier.HIGH), 1) == ["aud-3"]
    metrics, salt, commitment = disclosure({"capital_ratio": 0.01})
    record = audits.perform_audit("aud-2", target, metrics, salt, commitment, epoch=2)
    assert record.outcome == AuditOutcome.PASS and record.findings == {}


def test_a_registered_domain_drops_the_auditors_without_it():
    audits = AuditRegistry(None, rules_with_capital(), ["accreditor-1"])
    audits.accredit_auditor("aud-1", "accreditor-1", [RuleDomain.CAPITAL_ADEQUACY], 100)
    audits.accredit_auditor("aud-2", "accreditor-1", ALL_DOMAINS, 100)
    target = system("a", RiskTier.HIGH)
    assert audits.eligible_auditors(target, 2) == ["aud-1", "aud-2"]
    audits.rules.register_rule(ComplianceRuleModule(
        rule_id="privacy-consent", domain=RuleDomain.DATA_PRIVACY,
        predicate={"op": "==", "metric": "data_privacy_consent", "value": True},
        metrics=("data_privacy_consent",),
    ), GENESIS_AUTHORIZATION, epoch=2)
    assert audits.eligible_auditors(target, 2) == ["aud-2"]
    metrics, salt, commitment = disclosure(
        {"capital_ratio": 0.09, "data_privacy_consent": True})
    with pytest.raises(ScopeViolation):
        audits.perform_audit("aud-1", target, metrics, salt, commitment, epoch=2)
    assert audits.perform_audit(
        "aud-2", target, metrics, salt, commitment, epoch=2).outcome == AuditOutcome.PASS


def test_audit_record_body_contains_commitment_not_metrics():
    audits = registry_with_auditors(n=1)
    metrics, salt, commitment = disclosure({"capital_ratio": 0.123456})
    record = audits.perform_audit("aud-1", system("a", RiskTier.HIGH),
                                  metrics, salt, commitment, epoch=2)
    body = json.dumps(record.to_body())
    assert "0.123456" not in body
    assert commitment.hex() in body


def test_the_trigger_table_states_priority_and_slash_reason():
    # The values are the chain's trigger strings; the order is the priority.
    assert [(t.value, t.slash_reason) for t in AuditTrigger] == [
        ("collusion", SlashReason.COLLUSION_CONFIRMED),
        ("mitigation", SlashReason.AUDIT_FAIL),
        ("violation", SlashReason.AUDIT_FAIL),
        ("forecast", SlashReason.AUDIT_FAIL),
        ("cadence", SlashReason.AUDIT_FAIL),
    ]
    audits = registry_with_auditors()
    systems = {"s": system("a", RiskTier.HIGH)}
    [assignment] = audits.schedule_audits(2, systems, stream=DeterministicStream(1, "audit"))
    assert assignment.trigger is AuditTrigger.CADENCE


@pytest.mark.parametrize("violation", [False, True], ids=["pass", "fail"])
def test_a_system_with_forecast_and_collusion_pending_is_audited_for_collusion(violation):
    # A forecast floor above every score flags the one system each epoch; its
    # owner is flagged for collusion at epoch 2, so epoch 3 has both pending.
    # With a violation at epoch 3, mitigation and violation are pending too,
    # and the FAIL audit slashes for confirmed collusion.
    scenario = json.loads(scenario_path("collusion_attack").read_text())
    scenario["config"]["forecast_floor"] = 2
    if violation:
        scenario["injected_events"].append({
            "epoch": 3, "kind": "VIOLATION", "system": "robo-advisor",
            "metrics": {"data_privacy_consent": False}})
    events = [e for b in run_scenario(scenario).chain.blocks for e in b.events]
    audits = [(e.epoch, e.body()["trigger"], e.body()["outcome"])
              for e in events if e.kind == EventKind.AUDIT_RECORDED]
    outcome = "FAIL" if violation else "PASS"
    assert audits == [(epoch, "forecast", "PASS") for epoch in (1, 2)] + [
        (3, "collusion", outcome)] + [(epoch, "forecast", "PASS") for epoch in (4, 5, 6)]
    slashes = [(e.epoch, e.body()["holder"], e.body()["reason"])
               for e in events if e.kind == EventKind.SLASH_APPLIED]
    assert slashes == ([(3, "fintech-a", "COLLUSION_CONFIRMED")] if violation else [])
