"""Acceptance gate: every release criterion at its stated tolerance.

Numbering follows the criteria list; the conftest terminal hook prints one
pass/fail line per test here.
"""

import dataclasses
import json
import random
import struct
from fractions import Fraction

import pytest

from govsim.audit import AuditRegistry
from govsim.compliance import (
    ComplianceRuleModule,
    GENESIS_AUTHORIZATION,
    RuleDomain,
    RuleRegistry,
    metrics_commitment,
)
from govsim.encoding import canonical_json_bytes
from govsim.errors import (
    EvidenceForged,
    InsufficientTokens,
    InvalidInput,
    StillLocked,
)
from govsim.governance import (
    GovernanceState,
    ProposalKind,
    ProposalStatus,
    Stakeholder,
    VoteDirection,
    VoteMode,
    default_weights,
    detect_collusion,
    effective_power,
    rank_delegates,
    total_raw_power,
)
from govsim.identity import (
    Action,
    AISystemRecord,
    ComplianceStatus,
    ContentStore,
    DEFAULT_POLICY,
    DidRegistry,
    RiskTier,
    Role,
    check_access,
)
from govsim.interop import (
    ColumnSpec,
    LegacyMapping,
    MsgType,
    convert_legacy,
    make_message,
    reverse_legacy,
    upgrade_message,
    validate_bytes,
    validate_message,
)
from govsim.keys import get_scheme
from govsim.ledger import Chain, EventKind, verify_chain
from govsim.risk import forecast_compliance
from govsim.rng import DeterministicStream
from govsim.simctl import run_scenario
from govsim.tokens import Pool, SlashReason, TokenLedger
from tests.conftest import REFERENCE_SCENARIOS, scenario_path

FOR, AGAINST = VoteDirection.FOR, VoteDirection.AGAINST


# ---------------------------------------------------------------------------
# 1. Determinism: same seed -> identical root hash and report; new seed -> new hash.

def test_c01_determinism_across_reference_scenarios(reference_results):
    for name in REFERENCE_SCENARIOS:
        first = reference_results[name]
        second = run_scenario(scenario_path(name))
        assert second.root_hash == first.root_hash, name
        assert json.dumps(second.report, sort_keys=True) \
            == json.dumps(first.report, sort_keys=True), name
        reseeded = run_scenario(scenario_path(name), seed=first.chain.quorum + 10_001)
        assert reseeded.root_hash != first.root_hash, name


# ---------------------------------------------------------------------------
# 2. Ledger integrity: 100 tampered variants of a 100-block chain, 100/100
#    detected at the correct height.

def _sealed_chain(n_blocks, events_per_block=3):
    scheme = get_scheme("seeded")
    keys = {f"auth-{i}": scheme.generate(f"auth-{i}".encode()) for i in range(3)}
    chain = Chain({a: k.public for a, k in keys.items()}, capacity=events_per_block)
    rng = random.Random(321)
    next_id = 1
    for _ in range(n_blocks):
        for _ in range(events_per_block):
            chain.append(EventKind.HEARTBEAT,
                         {"n": next_id, "r": rng.randint(0, 10 ** 9)},
                         actor=f"actor-{rng.randint(0, 3)}",
                         epoch=rng.randint(0, 20))
            next_id += 1
        chain.seal_all({a: k.private for a, k in keys.items()})
    return chain


def test_c02_tamper_detection_100_of_100():
    chain = _sealed_chain(100)
    assert verify_chain(chain.blocks, chain.authorities, chain.quorum).ok
    rng = random.Random(17)
    detected = 0
    for height in range(1, 101):
        blocks = list(chain.blocks)
        target = blocks[height - 1]
        event = target.events[rng.randrange(len(target.events))]
        position = rng.randrange(len(event.payload))
        mutated_payload = (event.payload[:position]
                           + bytes([event.payload[position] ^ (1 << rng.randrange(8))])
                           + event.payload[position + 1:])
        mutated = dataclasses.replace(event, payload=mutated_payload)
        new_events = tuple(mutated if e is event else e for e in target.events)
        blocks[height - 1] = dataclasses.replace(target, events=new_events)
        result = verify_chain(blocks, chain.authorities, chain.quorum)
        if not result.ok and result.failed_height == height:
            detected += 1
    assert detected == 100


# ---------------------------------------------------------------------------
# 3. Token conservation: 20 randomized 200-epoch scenarios, >=1000 operations
#    each, exact integer conservation throughout.

def test_c03_conservation_over_randomized_scenarios():
    for scenario_index in range(20):
        rng = random.Random(5000 + scenario_index)
        ledger = TokenLedger.mint_genesis(total_supply=100_000_000)
        holders = [f"h{i}" for i in range(8)]
        for holder in holders:
            ledger.grant(Pool.DEVELOPMENT, holder, 2_000_000)
        ledger.emission = 5_000
        executed = 0
        attempted = 0
        for epoch in range(200):
            for _ in range(10):
                op = rng.randrange(6)
                holder = rng.choice(holders)
                attempted += 1
                try:
                    if op == 0:
                        ledger.stake(holder, rng.randint(1, 100_000),
                                     rng.randint(1, 8), epoch=epoch)
                    elif op == 1:
                        entries = ledger.stakes.get(holder, [])
                        if not entries:
                            continue
                        ledger.unstake(holder, rng.randrange(len(entries)), epoch=epoch)
                    elif op == 2:
                        ledger.transfer(holder, rng.choice(holders),
                                        rng.randint(1, 50_000))
                    elif op == 3:
                        ledger.charge_to_pool(holder, Pool.GOVERNANCE,
                                              rng.randint(1, 20_000))
                    elif op == 4:
                        ledger.slash(holder, rng.choice(list(SlashReason)),
                                     epoch=epoch)
                    else:
                        factors = {h: Fraction(rng.randint(0, 3), 3) for h in holders}
                        ledger.distribute_rewards(epoch, factors)
                    executed += 1
                except (InsufficientTokens, StillLocked, InvalidInput):
                    continue
                assert ledger.allocated() == ledger.total_supply, (
                    f"scenario {scenario_index} epoch {epoch}")
        assert executed >= 1000, f"scenario {scenario_index} ran only {executed} ops"
        assert executed < attempted  # the mix genuinely attempted overdrafts
        assert ledger.allocated() == ledger.total_supply


# ---------------------------------------------------------------------------
# 4. Governance math: quadratic debits, oracle-checked LINEAR tallies, and the
#    strict 2/3 boundary.

def _state_with(stakeholders, balances=None):
    scheme = get_scheme("seeded")
    chain = Chain({"a1": scheme.generate(b"a1").public}, quorum=1)
    tokens = TokenLedger(10 ** 12, {Pool.REWARDS: 0}, chain=chain)
    state = GovernanceState(chain, tokens)
    for stakeholder in stakeholders:
        state.add_stakeholder(stakeholder)
        if stakeholder.stake:
            tokens.balances[stakeholder.id] = stakeholder.stake
            tokens.stake(stakeholder.id, stakeholder.stake, 4, epoch=0)
    for holder, amount in (balances or {}).items():
        tokens.balances[holder] = tokens.balances.get(holder, 0) + amount
    state.sync_stakes()
    return state


def test_c04a_quadratic_debit_is_square_for_m_1_to_100():
    state = _state_with([Stakeholder("q", Role.FINTECH, 0)],
                        balances={"q": 100 * 100 * 101})
    for m in range(1, 101):
        state.submit_proposal(f"p{m}", ProposalKind.ROUTINE, {},
                              mode=VoteMode.QUADRATIC)
        before = state.tokens.balances["q"]
        pool_before = state.tokens.pools[Pool.GOVERNANCE]
        state.cast_vote("q", f"p{m}", FOR, magnitude=m, mode=VoteMode.QUADRATIC)
        assert before - state.tokens.balances["q"] == m * m
        assert state.tokens.pools[Pool.GOVERNANCE] - pool_before == m * m


def test_c04b_linear_tallies_match_rational_oracle_500_proposals():
    rng = random.Random(9001)
    weights = default_weights()
    for _ in range(500):
        stakeholders = [
            Stakeholder(f"s{i}", rng.choice(list(Role)), rng.randint(0, 1000))
            for i in range(rng.randint(2, 9))
        ]
        if all(s.stake == 0 for s in stakeholders):
            continue
        state = _state_with(stakeholders)
        kind = rng.choice([ProposalKind.ROUTINE, ProposalKind.CRITICAL])
        state.submit_proposal("p", kind, {})
        votes = {}
        for stakeholder in stakeholders:
            if rng.random() < 0.75:
                votes[stakeholder.id] = rng.choice([FOR, AGAINST])
                state.cast_vote(stakeholder.id, "p", votes[stakeholder.id])
        got = state.tally("p")

        # Exact-rational brute force, recomputed from first principles.
        total = sum((Fraction(s.stake) * weights.multiplier(s.role)
                     for s in stakeholders), Fraction(0))
        powers = {
            s.id: min(Fraction(s.stake) * weights.multiplier(s.role),
                      weights.cap_fraction * total)
            for s in stakeholders
        }
        power_for = sum((powers[v] for v, d in votes.items() if d == FOR), Fraction(0))
        power_against = sum((powers[v] for v, d in votes.items() if d == AGAINST),
                            Fraction(0))
        threshold = Fraction(2, 3) if kind == ProposalKind.CRITICAL else Fraction(1, 2)
        turnout = power_for + power_against
        expected = (ProposalStatus.PASSED
                    if turnout > 0 and power_for / turnout > threshold
                    else ProposalStatus.REJECTED)
        assert got == expected


def test_c04c_exact_two_thirds_boundary_rejects():
    stakeholders = [
        Stakeholder("A", Role.BANK, 100),
        Stakeholder("B", Role.FINTECH, 50),
        Stakeholder("C", Role.REGULATOR, 50),
    ]
    state = _state_with(stakeholders)
    state.submit_proposal("edge", ProposalKind.CRITICAL, {})
    state.cast_vote("A", "edge", FOR)
    state.cast_vote("B", "edge", FOR)
    state.cast_vote("C", "edge", AGAINST)
    assert state.tally("edge") == ProposalStatus.REJECTED
    proposal = state.proposals["edge"]
    assert proposal.tally_for / (proposal.tally_for + proposal.tally_against) \
        == Fraction(2, 3)


# ---------------------------------------------------------------------------
# 5. Cap and scale invariance on 100 random stakeholder sets.

def test_c05_cap_and_scale_invariance():
    rng = random.Random(4321)
    weights = default_weights()
    for _ in range(100):
        stakeholders = [
            Stakeholder(f"s{i}", rng.choice(list(Role)), rng.randint(1, 5000))
            for i in range(rng.randint(3, 10))
        ]
        total = total_raw_power(stakeholders, weights)
        for stakeholder in stakeholders:
            assert effective_power(stakeholder, weights, total) \
                <= weights.cap_fraction * total

        seats = rng.randint(1, len(stakeholders))
        base_delegates = rank_delegates(stakeholders, weights, seats)

        votes = {s.id: rng.choice([FOR, AGAINST]) for s in stakeholders
                 if rng.random() < 0.8}
        kind = rng.choice([ProposalKind.ROUTINE, ProposalKind.CRITICAL])

        def outcome(scaled):
            state = _state_with(
                [Stakeholder(s.id, s.role, s.stake) for s in scaled])
            state.submit_proposal("p", kind, {})
            for voter, direction in votes.items():
                state.cast_vote(voter, "p", direction)
            return state.tally("p")

        base_outcome = outcome(stakeholders)
        for k in (2, 3, 10):
            scaled = [Stakeholder(s.id, s.role, s.stake * k) for s in stakeholders]
            assert rank_delegates(scaled, weights, seats) == base_delegates
            assert outcome(scaled) == base_outcome


# ---------------------------------------------------------------------------
# 6. Audit cadence: exactly 32/8/2 over 64 epochs; injected violations audit
#    off-cadence in their own epoch.

def test_c06_cadence_exact_counts_over_64_epochs():
    registry = RuleRegistry()
    registry.register_rule(ComplianceRuleModule(
        rule_id="r", domain=RuleDomain.TRANSPARENCY,
        predicate={"op": "==", "metric": "ok", "value": True},
        metrics=("ok",)), GENESIS_AUTHORIZATION)
    audits = AuditRegistry(None, registry, ["body"])
    for i in range(6):
        audits.accredit_auditor(f"aud-{i}", "body", list(RuleDomain), 100, epoch=0)
    systems = {}
    for tier in (RiskTier.HIGH, RiskTier.LIMITED, RiskTier.MINIMAL):
        systems[f"sys-{tier.value}"] = AISystemRecord(
            did=f"sys-{tier.value}", risk_tier=tier,
            compliance_status=ComplianceStatus.COMPLIANT, purpose="t", owner="o")
    stream = DeterministicStream(1, "audit")
    counts = {tier: 0 for tier in (RiskTier.HIGH, RiskTier.LIMITED, RiskTier.MINIMAL)}
    for epoch in range(1, 65):
        for assignment in audits.schedule_audits(epoch, systems, stream=stream):
            counts[systems[assignment.system_did].risk_tier] += 1
    assert counts[RiskTier.HIGH] == 32
    assert counts[RiskTier.LIMITED] == 8
    assert counts[RiskTier.MINIMAL] == 2


def test_c06_injected_violations_audited_same_epoch():
    base = json.loads(scenario_path("credit_scoring").read_text())
    base["epochs"] = 8
    base["injected_events"] = [
        {"epoch": e, "kind": "VIOLATION", "system": "credit-scorer",
         "metrics": {"data_privacy_consent": False}}
        for e in (3, 5, 7)
    ]
    result = run_scenario(base)
    audits = [
        (e.epoch, e.body()["trigger"])
        for b in result.chain.blocks for e in b.events
        if e.kind == EventKind.AUDIT_RECORDED
    ]
    for epoch in (3, 5, 7):
        triggers = [t for (e, t) in audits if e == epoch]
        assert triggers, f"no audit in violation epoch {epoch}"
        assert any(t in ("mitigation", "violation") for t in triggers)


# ---------------------------------------------------------------------------
# 7. Collusion detection == exhaustive oracle on 200 random vote matrices.

def _oracle_collusion(history, min_common, threshold):
    flagged = set()
    ids = sorted(history)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            shared = [p for p in history[a] if p in history[b]]
            if len(shared) < min_common:
                continue
            same = sum(1 for p in shared if history[a][p] == history[b][p])
            if same * threshold.denominator >= threshold.numerator * len(shared):
                flagged.add((a, b))
    return flagged


def test_c07_collusion_matches_oracle_200_samples():
    rng = random.Random(600)
    for _ in range(200):
        voters = rng.randint(2, 12)
        proposals = rng.randint(1, 20)
        history = {}
        for v in range(voters):
            history[f"v{v:02d}"] = {
                f"p{p}": rng.choice([FOR, AGAINST])
                for p in range(proposals) if rng.random() < 0.65
            }
        min_common = rng.randint(1, 15)
        threshold = Fraction(rng.randint(1, 10), 10)
        assert detect_collusion(history, min_common, threshold) \
            == _oracle_collusion(history, min_common, threshold)


# ---------------------------------------------------------------------------
# 8. Privacy: sealed payloads never contain metric-vector bytes; corrupted
#    disclosures always raise EvidenceForged.

def test_c08_no_sealed_payload_contains_metric_bytes(reference_results):
    scanned_vectors = 0
    for result in reference_results.values():
        payloads = [event.payload
                    for block in result.chain.blocks for event in block.events]
        assert result.assessments, "scan would be vacuous"
        for assessment in result.assessments:
            vector = canonical_json_bytes(assessment.metric_values)
            scanned_vectors += 1
            for payload in payloads:
                assert vector not in payload
    assert scanned_vectors > 20


def _flip_float_bit(value: float, bit: int) -> float:
    packed = struct.unpack("<Q", struct.pack("<d", value))[0]
    return struct.unpack("<d", struct.pack("<Q", packed ^ (1 << bit)))[0]


def test_c08_1000_single_bit_corruptions_all_forged():
    registry = RuleRegistry()
    registry.register_rule(ComplianceRuleModule(
        rule_id="capital-adequacy-min", domain=RuleDomain.CAPITAL_ADEQUACY,
        predicate={"op": ">=", "metric": "capital_ratio", "value": 0.08},
        metrics=("capital_ratio",)), GENESIS_AUTHORIZATION)
    audits = AuditRegistry(None, registry, ["body"])
    audits.accredit_auditor("aud-1", "body", list(RuleDomain), 10 ** 6, epoch=0)
    system = AISystemRecord(
        did="d", risk_tier=RiskTier.HIGH,
        compliance_status=ComplianceStatus.COMPLIANT, purpose="t", owner="o")
    rng = random.Random(808)
    for trial in range(1000):
        metrics = {"capital_ratio": rng.uniform(0.01, 0.2),
                   "extra_flag": rng.random() < 0.5}
        salt = rng.randbytes(32)
        commitment = metrics_commitment(metrics, salt)
        if trial % 2 == 0:
            position, bit = rng.randrange(32), rng.randrange(8)
            bad_salt = (salt[:position]
                        + bytes([salt[position] ^ (1 << bit)])
                        + salt[position + 1:])
            disclosure = (metrics, bad_salt)
        else:
            tampered = dict(metrics)
            if rng.random() < 0.5:
                tampered["capital_ratio"] = _flip_float_bit(
                    tampered["capital_ratio"], rng.randrange(52))
            else:
                tampered["extra_flag"] = not tampered["extra_flag"]
            disclosure = (tampered, salt)
        with pytest.raises(EvidenceForged):
            audits.perform_audit("aud-1", system, disclosure[0], disclosure[1],
                                 commitment, epoch=1)


# ---------------------------------------------------------------------------
# 9. EWMA forecasts match the closed form within 1e-12 relative error.

def test_c09_ewma_closed_form_100_series():
    rng = random.Random(99)
    for _ in range(100):
        length = rng.randint(1, 10_000)
        alpha = rng.uniform(0.01, 0.99)
        history = [rng.random() for _ in range(length)]
        forecast, flagged = forecast_compliance(history, alpha)
        expected = (1 - alpha) ** (length - 1) * history[0]
        for t in range(2, length + 1):
            expected += alpha * (1 - alpha) ** (length - t) * history[t - 1]
        assert abs(forecast - expected) <= 1e-12 * max(1.0, abs(expected))
        assert flagged == (forecast < 0.7)


# ---------------------------------------------------------------------------
# 10. RBAC totality and denial logging.

EXPECTED_MATRIX = {
    (Role.REGULATOR, Action.VIEW): True,
    (Role.REGULATOR, Action.MODIFY): True,
    (Role.REGULATOR, Action.AUDIT): True,
    (Role.REGULATOR, Action.RECLASSIFY): True,
    (Role.AUDITOR, Action.VIEW): True,
    (Role.AUDITOR, Action.MODIFY): False,
    (Role.AUDITOR, Action.AUDIT): True,
    (Role.AUDITOR, Action.RECLASSIFY): False,
    (Role.BANK, Action.VIEW): True,
    (Role.BANK, Action.MODIFY): True,
    (Role.BANK, Action.AUDIT): False,
    (Role.BANK, Action.RECLASSIFY): False,
    (Role.FINTECH, Action.VIEW): True,
    (Role.FINTECH, Action.MODIFY): True,
    (Role.FINTECH, Action.AUDIT): False,
    (Role.FINTECH, Action.RECLASSIFY): False,
    (Role.DEVELOPER, Action.VIEW): True,
    (Role.DEVELOPER, Action.MODIFY): False,
    (Role.DEVELOPER, Action.AUDIT): False,
    (Role.DEVELOPER, Action.RECLASSIFY): False,
}


def test_c10_rbac_matrix_total_and_denials_logged():
    assert set(DEFAULT_POLICY) == {(r, a) for r in Role for a in Action}
    for pair, allowed in EXPECTED_MATRIX.items():
        assert check_access(*pair) == allowed, pair

    scheme = get_scheme("seeded")
    chain = Chain({"a1": scheme.generate(b"a1").public}, quorum=1)
    roles = {f"actor-{role.value}": role for role in Role}
    roles["owner-bank"] = Role.BANK
    registry = DidRegistry(chain, ContentStore(), roles)
    did = registry.register_did(b"\x01" * 32, "t", RiskTier.HIGH, "owner-bank")

    denials = 0
    attempts = 0
    from govsim.errors import AccessDenied

    for role in Role:
        actor = f"actor-{role.value}"
        for action, call in [
            (Action.VIEW, lambda a: registry.view_record(did, a)),
            (Action.MODIFY, lambda a: registry.update_did(did, a, purpose="p")),
            (Action.RECLASSIFY, lambda a: registry.reclassify(did, RiskTier.LIMITED, a)),
        ]:
            attempts += 1
            try:
                call(actor)
            except AccessDenied:
                denials += 1
    logs = [e.body() for e in chain.pending if e.kind == EventKind.ACCESS_LOGGED]
    assert len(logs) == attempts
    assert sum(1 for entry in logs if not entry["allowed"]) == denials
    assert denials > 0


# ---------------------------------------------------------------------------
# 11. Interop: 1000-row lossless round-trip, v1 -> v2 upgrades validate,
#     fuzzed bytes never crash validation.

MAPPING = LegacyMapping(
    msg_type=MsgType.COMPLIANCE_REPORT,
    schema_version=1,
    delimiter=",",
    columns=(
        ColumnSpec("REPORT_ID", "report_id", "str"),
        ColumnSpec("DID", "system_did", "str"),
        ColumnSpec("EPOCH", "epoch", "int"),
        ColumnSpec("SCORE", "aggregate_score", "float"),
        ColumnSpec("OK", "compliant", "bool"),
    ),
)


def test_c11_interop_round_trip_upgrade_and_fuzz():
    rng = random.Random(1111)
    rows = []
    for i in range(1000):
        rows.append(",".join([
            f"rep-{i:05d}",
            "did:govsim:" + "".join(rng.choice("0123456789abcdef") for _ in range(32)),
            str(rng.randint(0, 10 ** 6)),
            repr(rng.uniform(0, 1)),
            rng.choice(["true", "false"]),
        ]))
    for row in rows:
        message = convert_legacy(row, MAPPING)
        assert reverse_legacy(message, MAPPING) == row
        assert validate_message(message) == []
        upgraded = upgrade_message(message, 2)
        assert upgraded.schema_version == 2
        assert validate_message(upgraded) == []

    for _ in range(2000):
        blob = rng.randbytes(rng.randint(0, 200))
        assert isinstance(validate_bytes(blob), list)
    near_json = json.dumps(make_message(
        MsgType.AUDIT_REQUEST, 1,
        {"request_id": "r", "system_did": "d", "reason": "x", "priority": 1},
    ).to_json()).encode()
    for _ in range(500):
        position = rng.randrange(len(near_json))
        mangled = (near_json[:position]
                   + bytes([rng.randrange(256)])
                   + near_json[position + 1:])
        assert isinstance(validate_bytes(mangled), list)


# ---------------------------------------------------------------------------
# 12. Golden traces, frozen from a hand-reviewed replay.

# credit_scoring, epoch 5 (seed 42): the violated system fails assessment,
# is audited off-cadence, the owner is slashed, the DID goes NONCOMPLIANT.
CREDIT_EPOCH5_KINDS = [
    "HEARTBEAT",
    "ASSESSMENT_RECORDED",
    "RISK_RECLASSIFIED",
    "DID_UPDATED",
    "AUDIT_RECORDED",
    "SLASH_APPLIED",
    "DID_UPDATED",
    "TOKENS_TRANSFERRED",
    "TOKENS_TRANSFERRED",
    "TOKENS_TRANSFERRED",
    "TOKENS_TRANSFERRED",
    "TOKENS_TRANSFERRED",
]


def test_c12_credit_scoring_golden_epoch5(reference_results):
    result = reference_results["credit_scoring"]
    epoch5 = [e for b in result.chain.blocks for e in b.events if e.epoch == 5]
    assert [e.kind.value for e in epoch5] == CREDIT_EPOCH5_KINDS

    bodies = {e.event_id: e.body() for e in epoch5}
    ordered = sorted(bodies)
    assessment = bodies[ordered[1]]
    assert assessment["compliant"] is False
    assert assessment["score"] == "1/2"
    reclass = bodies[ordered[2]]
    assert (reclass["old_tier"], reclass["new_tier"]) == ("MINIMAL", "LIMITED")
    assert reclass["score"] == "31/100"
    audit = bodies[ordered[4]]
    assert audit["outcome"] == "FAIL"
    assert audit["trigger"] == "mitigation"
    slash = bodies[ordered[5]]
    assert slash == {"burned": 3000, "fraction": "1/20", "holder": "bank-alpha",
                     "phase": 5, "reason": "AUDIT_FAIL", "remaining_stake": 57000}
    status = bodies[ordered[6]]
    assert status["change"] == {"status": "NONCOMPLIANT"}

    # The mandated ordered subsequence: FAIL assessment -> triggered audit ->
    # slash -> DID NONCOMPLIANT, all in epoch 5.
    kinds = [e.kind.value for e in epoch5]
    a = kinds.index("ASSESSMENT_RECORDED")
    b = kinds.index("AUDIT_RECORDED")
    c = kinds.index("SLASH_APPLIED")
    d = len(kinds) - 1 - kinds[::-1].index("DID_UPDATED")
    assert a < b < c < d


def test_c12_collusion_attack_golden_sequence(reference_results):
    result = reference_results["collusion_attack"]
    events = [e for b in result.chain.blocks for e in b.events]

    flags = [e for e in events if e.kind == EventKind.COLLUSION_FLAGGED]
    assert len(flags) == 1
    flag = flags[0]
    assert flag.epoch == 2
    flag_body = flag.body()
    assert flag_body["pair"] == ["fintech-a", "fintech-b"]
    assert flag_body["shared"] == 12
    assert flag_body["penalty"] == "9/10"          # the weight reduction
    assert flag_body["expiry_epoch"] == 3

    audits = [e for e in events if e.kind == EventKind.AUDIT_RECORDED]
    collusion_audits = [e for e in audits if e.body()["trigger"] == "collusion"]
    assert len(collusion_audits) == 1
    audit = collusion_audits[0]
    assert audit.epoch == 3
    assert audit.event_id > flag.event_id  # flag -> reduction -> audit ordering
    owned = result.registry.records[audit.body()["did"]]
    assert owned.owner == "fintech-a"
