import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from govsim.compliance import (
    Assessment,
    ComplianceRuleModule,
    DisputeCourt,
    GENESIS_AUTHORIZATION,
    OracleBook,
    OracleFeed,
    RuleDomain,
    RuleRegistry,
    compile_predicate,
    evaluate,
    evaluate_predicate,
    evaluate_rules,
    metrics_commitment,
    validate_predicate,
)
from govsim.encoding import read_json
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
from govsim.keys import get_scheme
from govsim.ledger import Chain, EventKind
from govsim.simctl import load_scenario
from tests.conftest import scenario_path

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


def test_evaluate_records_through_its_registry(monkeypatch):
    scheme = get_scheme("seeded")
    chain = Chain({"a1": scheme.generate(b"a1").public}, quorum=1)
    registry = RuleRegistry(chain)
    registry.register_rule(capital_rule(), GENESIS_AUTHORIZATION)
    before = len(chain.pending)
    assessment = evaluate(system(), {"capital_ratio": 0.09}, 4, registry)
    [event] = chain.pending[before:]
    assert (event.kind, event.epoch, event.actor) == (
        EventKind.ASSESSMENT_RECORDED, 4, assessment.system_did)
    assert event.body() == json.loads(json.dumps(assessment.to_body()))

    monkeypatch.setattr(Chain, "append", lambda *args, **kwargs: pytest.fail("appended"))
    chainless = RuleRegistry()
    chainless.register_rule(capital_rule(), GENESIS_AUTHORIZATION)
    assert evaluate(system(), {"capital_ratio": 0.09}, 4, chainless).compliant


def test_evaluation_deterministic_and_serializable():
    registry = RuleRegistry()
    rules = read_json(scenario_path("standard_rules"), "rules")
    for rule in load_scenario({"epochs": 1, "rules": rules}).rules:
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
    court = DisputeCourt()
    assessment = fresh_assessment(compliant=False)
    dispute = court.open_dispute(assessment, "challenger-1",
                                 system_owner="bank-1", eligible_auditors=AUDITORS)
    final = court.resolve_dispute(dispute, ["uphold", "uphold", "overturn"])
    assert final.compliant is False


def test_majority_overturn_flips_flag():
    court = DisputeCourt()
    assessment = fresh_assessment(compliant=False)
    dispute = court.open_dispute(assessment, "challenger-1",
                                 system_owner="bank-1", eligible_auditors=AUDITORS)
    final = court.resolve_dispute(dispute, ["overturn", "overturn", "uphold"])
    assert final.compliant is True


def test_second_dispute_rejected():
    court = DisputeCourt()
    assessment = fresh_assessment()
    court.open_dispute(assessment, "challenger-1",
                       system_owner="bank-1", eligible_auditors=AUDITORS)
    with pytest.raises(AlreadyDisputed):
        court.open_dispute(assessment, "challenger-2",
                           system_owner="bank-1", eligible_auditors=AUDITORS)


def test_even_panel_rejected():
    court = DisputeCourt()
    with pytest.raises(InvalidPanel):
        court.open_dispute(fresh_assessment(), "challenger-1",
                           system_owner="bank-1", eligible_auditors=AUDITORS,
                           panel_size=4)


def test_owner_cannot_challenge_own_assessment():
    court = DisputeCourt()
    with pytest.raises(InvalidInput):
        court.open_dispute(fresh_assessment(), "bank-1",
                           system_owner="bank-1", eligible_auditors=AUDITORS)


def test_too_few_eligible_panelists_rejected():
    # The challenger and the owner are left out of the pool of five.
    with pytest.raises(InvalidPanel, match="only 2 eligible panelists for size 3"):
        DisputeCourt().open_dispute(fresh_assessment(), "aud-1", system_owner="aud-2",
                                    eligible_auditors=AUDITORS[:4])


def _open_dispute(court):
    return court.open_dispute(fresh_assessment(), "challenger-1",
                              system_owner="bank-1", eligible_auditors=AUDITORS)


@pytest.mark.parametrize("votes, error, message", [
    (["overturn", "overturn"], InvalidPanel, "votes must match the odd-sized panel"),
    (["overturn"] * 5, InvalidPanel, "votes must match the odd-sized panel"),
    (["overturn", "abstain", "uphold"], InvalidInput,
     "panel vote must be uphold/overturn, got 'abstain'"),
], ids=["too-few-votes", "too-many-votes", "unknown-vote"])
def test_a_resolution_with_bad_votes_is_refused_and_changes_nothing(votes, error, message):
    court = DisputeCourt()
    dispute = _open_dispute(court)
    with pytest.raises(error, match=message):
        court.resolve_dispute(dispute, votes)
    assert not dispute.resolved and dispute.assessment.compliant is False


def test_a_dispute_is_resolved_once():
    court = DisputeCourt()
    dispute = _open_dispute(court)
    assert court.resolve_dispute(dispute, ["overturn"] * 3).compliant is True
    with pytest.raises(AlreadyDisputed, match="dispute already resolved"):
        court.resolve_dispute(dispute, ["overturn"] * 3)
    assert dispute.assessment.compliant is True  # not flipped back

def test_panel_selection_is_seeded_and_reproducible():
    from govsim.rng import DeterministicStream

    panel_a = DisputeCourt(DeterministicStream(5, "disputes")).open_dispute(
        fresh_assessment(), "c", system_owner="o", eligible_auditors=AUDITORS).panel
    panel_b = DisputeCourt(DeterministicStream(5, "disputes")).open_dispute(
        fresh_assessment(), "c", system_owner="o", eligible_auditors=AUDITORS).panel
    assert panel_a == panel_b
    assert len(set(panel_a)) == 3


# --- the compiled evaluator against the tree walk ---

def reference_predicate(tree: dict, metrics) -> bool:
    """The tree walk that ``compile_predicate`` replaced, kept as the reference."""
    op = tree["op"]
    if op == "and":
        return all(reference_predicate(a, metrics) for a in tree["args"])
    if op == "or":
        return any(reference_predicate(a, metrics) for a in tree["args"])
    if op == "not":
        return not reference_predicate(tree["arg"], metrics)
    metric = tree["metric"]
    if metric not in metrics:
        raise MissingInput(f"metric not supplied: {metric}")
    left, right = metrics[metric], tree["value"]
    if op == ">=":
        return left >= right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == "<":
        return left < right
    if op == "==":
        return left == right
    return left != right


def reference_rules(rules, tier, metrics):
    """Verdicts, score and compliant flag of the latest version of each rule id."""
    latest = {rule.rule_id: rule for rule in rules}
    applicable = [latest[rule_id] for rule_id in sorted(latest)
                  if tier in latest[rule_id].applicable_tiers]
    if not applicable:
        return {}, Fraction(1), True
    results = {rule.rule_id: reference_predicate(rule.predicate, metrics)
               for rule in applicable}
    passed = sum(rule.weight for rule in applicable if results[rule.rule_id])
    total = sum(rule.weight for rule in applicable)
    compliant = all(results[rule.rule_id] for rule in applicable if rule.mandatory)
    return results, Fraction(passed, total), compliant


def _outcome(evaluate, *args):
    """What an evaluation returns, or the metric whose absence stopped it."""
    try:
        return evaluate(*args)
    except MissingInput as exc:
        return ("MissingInput", str(exc))


_METRIC_NAMES = ("m0", "m1", "m2", "m3")
# Ties at a bound (1 and 1.0, 0 and False), booleans against integers, and
# integers past 2**53 beside the float they round to.
_EDGES = [0, 1, 1.0, 0.0, -1, True, False, 0.5, 2**53, 2**53 + 1, float(2**53), -(2**53 + 1)]
_BOUNDS = st.one_of(st.sampled_from(_EDGES), st.integers(-3, 3), st.booleans(),
                    st.floats(allow_nan=False, allow_infinity=False, width=16))
_VALUES = st.one_of(_BOUNDS, st.integers(), st.floats(allow_nan=True))
_COMPARISON = st.builds(lambda op, metric, value: {"op": op, "metric": metric, "value": value},
                        st.sampled_from([">=", "<=", ">", "<", "==", "!="]),
                        st.sampled_from(_METRIC_NAMES), _BOUNDS)


def _trees(depth: int):
    """Predicate trees at most ``depth`` nodes deep."""
    if depth == 1:
        return _COMPARISON
    below = _trees(depth - 1)
    return st.one_of(
        _COMPARISON,
        st.builds(lambda op, args: {"op": op, "args": args},
                  st.sampled_from(["and", "or"]), st.lists(below, min_size=1, max_size=3)),
        st.builds(lambda arg: {"op": "not", "arg": arg}, below))


_TREES = _trees(4)
# Any metric may be left out, so that a missing one is met in every position.
_METRICS = st.dictionaries(st.sampled_from(_METRIC_NAMES), _VALUES)


@settings(max_examples=400, deadline=None)
@given(tree=_TREES, metrics=_METRICS)
@example(tree={"op": ">=", "metric": "m0", "value": 1}, metrics={"m0": 1.0})
@example(tree={"op": "==", "metric": "m0", "value": True}, metrics={"m0": 1})
@example(tree={"op": "!=", "metric": "m0", "value": False}, metrics={"m0": 0.0})
@example(tree={"op": ">", "metric": "m0", "value": float(2**53)}, metrics={"m0": 2**53 + 1})
@example(tree={"op": "or", "args": [{"op": "<", "metric": "m0", "value": 1},
                                    {"op": "==", "metric": "m1", "value": 1}]},
         metrics={"m0": 0})
@example(tree={"op": "and", "args": [{"op": "<", "metric": "m0", "value": 1},
                                     {"op": "==", "metric": "m1", "value": 1}]},
         metrics={"m0": 0})
def test_compiled_predicate_is_the_tree_walk(tree, metrics):
    validate_predicate(tree, _METRIC_NAMES)
    expected = _outcome(reference_predicate, tree, metrics)
    assert _outcome(compile_predicate(tree), metrics) == expected
    assert _outcome(evaluate_predicate, tree, metrics) == expected


_RULES = st.lists(st.builds(
    lambda rule_id, tree, mandatory, tiers, weight: ComplianceRuleModule(
        rule_id=rule_id, domain=RuleDomain.TRANSPARENCY, predicate=tree,
        metrics=_METRIC_NAMES, mandatory=mandatory, applicable_tiers=tiers, weight=weight),
    st.sampled_from(["r0", "r1", "r2", "r3", "r4"]), _TREES, st.booleans(),
    st.frozensets(st.sampled_from([RiskTier.HIGH, RiskTier.LIMITED, RiskTier.MINIMAL])),
    st.integers(1, 4)), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(rules=_RULES, metrics=st.lists(_METRICS, min_size=1, max_size=4))
def test_compiled_rules_are_the_reference_after_each_registration(rules, metrics):
    # The same rule id registered again is its next version; each
    # registration is followed by evaluations of every tier.
    registry = RuleRegistry()
    for count, rule in enumerate(rules, start=1):
        registry.register_rule(rule, GENESIS_AUTHORIZATION)
        for tier in RiskTier:
            for vector in metrics:
                expected = _outcome(reference_rules, rules[:count], tier, vector)
                got = _outcome(evaluate_rules, tier, vector, registry)
                assert got == expected
                if isinstance(got[0], dict):
                    assert list(got[0]) == sorted(got[0])  # rule-id order
