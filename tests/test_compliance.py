import hashlib
import json
import random
from fractions import Fraction

import pytest

from govsim.compliance import (
    Assessment,
    ComplianceRuleModule,
    DisputeCourt,
    GENESIS_AUTHORIZATION,
    OracleBook,
    OracleFeed,
    RuleDomain,
    RuleRegistry,
    evaluate,
    evaluate_predicate,
    evaluate_rules,
    metrics_commitment,
    standard_rule_pack,
    validate_predicate,
)
from govsim.errors import (
    AlreadyDisputed,
    DuplicateFeed,
    GovernanceRequired,
    InvalidInput,
    InvalidPanel,
    InvalidRule,
    MissingInput,
    UnknownOracle,
)
from govsim.governance import Proposal, ProposalKind, ProposalStatus
from govsim.identity import AISystemRecord, ComplianceStatus, RiskTier

HIGH_TIERS = frozenset({RiskTier.HIGH, RiskTier.LIMITED})


def capital_rule(threshold=0.08):
    return ComplianceRuleModule(
        rule_id="capital-adequacy-min",
        domain=RuleDomain.CAPITAL_ADEQUACY,
        predicate={"op": ">=", "metric": "capital_ratio", "value": threshold},
        metrics=("capital_ratio",),
        applicable_tiers=HIGH_TIERS,
    )


def system(tier=RiskTier.HIGH, did="did:govsim:" + "ab" * 16):
    return AISystemRecord(
        did=did, risk_tier=tier,
        compliance_status=ComplianceStatus.UNDER_REVIEW,
        purpose="test", owner="bank-1",
    )


def passed_rule_update():
    return Proposal("ru-1", ProposalKind.RULE_UPDATE, {}, status=ProposalStatus.PASSED)


# --- rule registration ---

def test_register_capital_rule_v1_active():
    registry = RuleRegistry()
    version = registry.register_rule(capital_rule(), passed_rule_update())
    assert version == 1
    assert registry.get("capital-adequacy-min").version == 1
    # Direct predicate oracle: the stand-in 8% floor.
    assert evaluate_predicate(registry.get("capital-adequacy-min").predicate,
                              {"capital_ratio": 0.09})
    assert not evaluate_predicate(registry.get("capital-adequacy-min").predicate,
                                  {"capital_ratio": 0.07})


def test_reregister_keeps_prior_version_queryable():
    registry = RuleRegistry()
    registry.register_rule(capital_rule(0.08), passed_rule_update())
    version = registry.register_rule(capital_rule(0.10), passed_rule_update())
    assert version == 2
    assert registry.get("capital-adequacy-min").predicate["value"] == 0.10
    assert registry.get("capital-adequacy-min", version=1).predicate["value"] == 0.08


def test_undeclared_metric_rejected():
    rule = ComplianceRuleModule(
        rule_id="bad", domain=RuleDomain.TRANSPARENCY,
        predicate={"op": ">=", "metric": "undeclared", "value": 1},
        metrics=("declared_only",),
    )
    with pytest.raises(InvalidRule):
        RuleRegistry().register_rule(rule, passed_rule_update())


def test_registration_requires_governance():
    registry = RuleRegistry()
    with pytest.raises(GovernanceRequired):
        registry.register_rule(capital_rule(), None)
    open_proposal = Proposal("ru-2", ProposalKind.RULE_UPDATE, {})
    with pytest.raises(GovernanceRequired):
        registry.register_rule(capital_rule(), open_proposal)
    routine = Proposal("r-1", ProposalKind.ROUTINE, {}, status=ProposalStatus.PASSED)
    with pytest.raises(GovernanceRequired):
        registry.register_rule(capital_rule(), routine)
    assert registry.register_rule(capital_rule(), GENESIS_AUTHORIZATION) == 1


def test_predicate_depth_limit():
    tree = {"op": ">=", "metric": "m", "value": 1}
    for _ in range(17):
        tree = {"op": "not", "arg": tree}
    with pytest.raises(InvalidRule):
        validate_predicate(tree, ["m"])


def test_predicate_combinators():
    tree = {"op": "and", "args": [
        {"op": ">=", "metric": "a", "value": 1},
        {"op": "or", "args": [
            {"op": "<", "metric": "b", "value": 0.5},
            {"op": "not", "arg": {"op": "==", "metric": "c", "value": True}},
        ]},
    ]}
    validate_predicate(tree, ["a", "b", "c"])
    assert evaluate_predicate(tree, {"a": 2, "b": 0.9, "c": False})
    assert not evaluate_predicate(tree, {"a": 0, "b": 0.1, "c": False})


@pytest.mark.parametrize("op,below,equal,above", [
    (">=", False, True, True), ("<=", True, True, False), (">", False, False, True),
    ("<", True, False, False), ("==", False, True, False), ("!=", True, False, True),
])
def test_every_comparison_operator(op, below, equal, above):
    tree = {"op": op, "metric": "m", "value": 2}
    validate_predicate(tree, ["m"])
    assert [evaluate_predicate(tree, {"m": m}) for m in (1, 2, 3)] == [below, equal, above]


# --- evaluation ---

def test_high_tier_system_passes_at_009():
    registry = RuleRegistry()
    registry.register_rule(capital_rule(), GENESIS_AUTHORIZATION)
    assessment = evaluate(system(), {"capital_ratio": 0.09}, 1, registry)
    assert assessment.results == {"capital-adequacy-min": True}
    assert assessment.compliant
    assert assessment.aggregate_score == 1


def test_fails_at_007_with_noncompliance():
    registry = RuleRegistry()
    registry.register_rule(capital_rule(), GENESIS_AUTHORIZATION)
    assessment = evaluate(system(), {"capital_ratio": 0.07}, 1, registry)
    assert assessment.results == {"capital-adequacy-min": False}
    assert not assessment.compliant
    assert assessment.aggregate_score == 0


def test_minimal_tier_vacuously_compliant():
    registry = RuleRegistry()
    registry.register_rule(capital_rule(), GENESIS_AUTHORIZATION)  # HIGH/LIMITED only
    assessment = evaluate(system(tier=RiskTier.MINIMAL), {"capital_ratio": 0.0}, 1, registry)
    assert assessment.results == {}
    assert assessment.compliant
    assert assessment.aggregate_score == 1


def test_missing_metric_names_the_metric():
    registry = RuleRegistry()
    registry.register_rule(capital_rule(), GENESIS_AUTHORIZATION)
    with pytest.raises(MissingInput, match="capital_ratio"):
        evaluate(system(), {"other": 1.0}, 1, registry)


def test_evaluation_deterministic_and_serializable():
    registry = RuleRegistry()
    for rule in standard_rule_pack():
        registry.register_rule(rule, GENESIS_AUTHORIZATION)
    metrics = {"capital_ratio": 0.09, "data_privacy_consent": True,
               "model_bias_metric": 0.1, "audit_trail_complete": False}
    a = evaluate(system(), metrics, 3, registry, salt=b"\x05" * 32)
    b = evaluate(system(), metrics, 3, registry, salt=b"\x05" * 32)
    assert json.dumps(a.to_body(), sort_keys=True) == json.dumps(b.to_body(), sort_keys=True)
    assert a.commitment == b.commitment


def test_version_isolation():
    registry = RuleRegistry()
    registry.register_rule(capital_rule(0.08), GENESIS_AUTHORIZATION)
    rule_v1 = registry.get("capital-adequacy-min", version=1)
    before = evaluate_predicate(rule_v1.predicate, {"capital_ratio": 0.09})
    registry.register_rule(capital_rule(0.10), GENESIS_AUTHORIZATION)
    after = evaluate_predicate(
        registry.get("capital-adequacy-min", version=1).predicate,
        {"capital_ratio": 0.09})
    assert before == after is True
    # The active version moved on.
    assert not evaluate_predicate(
        registry.get("capital-adequacy-min").predicate, {"capital_ratio": 0.09})


def test_applicable_rules_follow_each_registration():
    """applicable(tier) is computed once per tier and registration: a rule
    registered mid-run, as a passed RULE_UPDATE registers it, shows in the
    next call, and so does a new version of a rule already there."""
    registry = RuleRegistry()
    assert registry.domains(RiskTier.HIGH) == frozenset()
    registry.register_rule(capital_rule(0.08), GENESIS_AUTHORIZATION)
    assert registry.applicable(RiskTier.HIGH) == (registry.get("capital-adequacy-min"),)
    assert registry.applicable(RiskTier.MINIMAL) == ()
    assert registry.applicable(RiskTier.HIGH) is registry.applicable(RiskTier.HIGH)
    assert registry.domains(RiskTier.HIGH) == {RuleDomain.CAPITAL_ADEQUACY}
    assert registry.domains(RiskTier.MINIMAL) == frozenset()

    everywhere = ComplianceRuleModule(
        rule_id="a-transparency", domain=RuleDomain.TRANSPARENCY,
        predicate={"op": ">=", "metric": "t", "value": 1}, metrics=("t",))
    registry.register_rule(everywhere, passed_rule_update(), epoch=3)
    assert registry.domains(RiskTier.HIGH) == {
        RuleDomain.CAPITAL_ADEQUACY, RuleDomain.TRANSPARENCY}
    assert registry.domains(RiskTier.MINIMAL) == {RuleDomain.TRANSPARENCY}
    registry.register_rule(capital_rule(0.10), passed_rule_update(), epoch=3)
    latest = registry.get("capital-adequacy-min")
    assert latest.version == 2
    assert registry.applicable(RiskTier.HIGH) == (registry.get("a-transparency"), latest)
    assert registry.applicable(RiskTier.MINIMAL) == (registry.get("a-transparency"),)
    for tier in RiskTier:
        assert registry.applicable(tier) == tuple(
            rule for rule in registry.active_rules() if rule.applies_to(tier))
        assert registry.domains(tier) == {rule.domain for rule in registry.applicable(tier)}


def test_mandatory_semantics_match_brute_force():
    rng = random.Random(88)
    for _ in range(60):
        registry = RuleRegistry()
        n_rules = rng.randint(1, 6)
        for i in range(n_rules):
            registry.register_rule(ComplianceRuleModule(
                rule_id=f"r{i}",
                domain=rng.choice(list(RuleDomain)),
                predicate={"op": ">=", "metric": f"m{i}", "value": rng.random()},
                metrics=(f"m{i}",),
                mandatory=rng.random() < 0.6,
                weight=rng.randint(1, 3),
            ), GENESIS_AUTHORIZATION)
        metrics = {f"m{i}": rng.random() for i in range(n_rules)}
        results, score, compliant = evaluate_rules(RiskTier.HIGH, metrics, registry)

        # Brute force: re-AND mandatory outcomes straight from the metrics.
        expected_compliant = True
        passed_w = total_w = 0
        for rule in registry.active_rules():
            outcome = metrics[rule.metrics[0]] >= rule.predicate["value"]
            total_w += rule.weight
            passed_w += rule.weight if outcome else 0
            if rule.mandatory and not outcome:
                expected_compliant = False
        assert compliant == expected_compliant
        assert score == Fraction(passed_w, total_w)
        assert 0 <= score <= 1


def test_commitment_matches_external_hash():
    metrics = {"capital_ratio": 0.09, "flag": True}
    salt = b"\xaa" * 32
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":")).encode()
    assert metrics_commitment(metrics, salt) == hashlib.sha256(canonical + salt).digest()


# --- oracle feeds ---

def test_feed_stored_then_duplicate_rejected():
    book = OracleBook(None, ["oracle-1"])
    feed = OracleFeed("macro", 1, {"market_stress": 0.2}, "oracle-1")
    assert book.ingest(feed) is False
    with pytest.raises(DuplicateFeed):
        book.ingest(OracleFeed("macro", 1, {"market_stress": 0.3}, "oracle-1"))
    assert book.ingest(OracleFeed("macro", 2, {"market_stress": 0.3}, "oracle-1")) is False


def test_unknown_signer_rejected():
    book = OracleBook(None, ["oracle-1"])
    with pytest.raises(UnknownOracle):
        book.ingest(OracleFeed("macro", 1, {}, "impostor"))


def test_regulation_version_bump_flags_recheck():
    book = OracleBook(None, ["oracle-1"])
    assert book.ingest(OracleFeed("reg", 1, {"regulation_version": 1}, "oracle-1")) is True
    assert book.ingest(OracleFeed("reg", 2, {"regulation_version": 1}, "oracle-1")) is False
    assert book.ingest(OracleFeed("reg", 3, {"regulation_version": 2}, "oracle-1")) is True


def test_values_merge_in_feed_id_order():
    book = OracleBook(None, ["oracle-1"])
    book.ingest(OracleFeed("b-feed", 1, {"x": 2, "y": 9}, "oracle-1"))
    book.ingest(OracleFeed("a-feed", 1, {"x": 1}, "oracle-1"))
    assert book.values_for(1) == {"x": 2, "y": 9}  # b-feed merges after a-feed
    assert book.values_for(2) == {}


# --- disputes ---

def fresh_assessment(compliant=False):
    return Assessment(
        system_did="did:govsim:" + "cd" * 16, epoch=4,
        results={"r": compliant}, metric_values={"m": 1.0},
        aggregate_score=Fraction(1 if compliant else 0),
        compliant=compliant, commitment=b"\x00" * 32, salt=b"\x00" * 32,
        tier=RiskTier.HIGH,
    )


AUDITORS = ["aud-1", "aud-2", "aud-3", "aud-4", "aud-5"]


def test_majority_uphold_keeps_flag():
    court = DisputeCourt(None)
    assessment = fresh_assessment(compliant=False)
    dispute = court.open_dispute(assessment, "challenger-1",
                                 system_owner="bank-1", eligible_auditors=AUDITORS)
    final = court.resolve_dispute(dispute, ["uphold", "uphold", "overturn"])
    assert final.compliant is False


def test_majority_overturn_flips_flag():
    court = DisputeCourt(None)
    assessment = fresh_assessment(compliant=False)
    dispute = court.open_dispute(assessment, "challenger-1",
                                 system_owner="bank-1", eligible_auditors=AUDITORS)
    final = court.resolve_dispute(dispute, ["overturn", "overturn", "uphold"])
    assert final.compliant is True


def test_second_dispute_rejected():
    court = DisputeCourt(None)
    assessment = fresh_assessment()
    court.open_dispute(assessment, "challenger-1",
                       system_owner="bank-1", eligible_auditors=AUDITORS)
    with pytest.raises(AlreadyDisputed):
        court.open_dispute(assessment, "challenger-2",
                           system_owner="bank-1", eligible_auditors=AUDITORS)


def test_even_panel_rejected():
    court = DisputeCourt(None)
    with pytest.raises(InvalidPanel):
        court.open_dispute(fresh_assessment(), "challenger-1",
                           system_owner="bank-1", eligible_auditors=AUDITORS,
                           panel_size=4)


def test_owner_cannot_challenge_own_assessment():
    court = DisputeCourt(None)
    with pytest.raises(InvalidInput):
        court.open_dispute(fresh_assessment(), "bank-1",
                           system_owner="bank-1", eligible_auditors=AUDITORS)


def test_panel_selection_is_seeded_and_reproducible():
    from govsim.rng import DeterministicStream

    panel_a = DisputeCourt(None, DeterministicStream(5, "disputes")).open_dispute(
        fresh_assessment(), "c", system_owner="o", eligible_auditors=AUDITORS).panel
    panel_b = DisputeCourt(None, DeterministicStream(5, "disputes")).open_dispute(
        fresh_assessment(), "c", system_owner="o", eligible_auditors=AUDITORS).panel
    assert panel_a == panel_b
    assert len(set(panel_a)) == 3
