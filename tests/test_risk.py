import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from govsim.errors import InsufficientHistory, InvalidInput, TerminalState
from govsim.identity import (
    ComplianceStatus,
    ContentStore,
    DidRegistry,
    RiskTier,
    Role,
)
from govsim.keys import get_scheme
from govsim.ledger import Chain, EventKind
from govsim.risk import (
    IncidentLog,
    IncidentState,
    RiskEngine,
    Severity,
    compute_risk_score,
    forecast_compliance,
    tier_for_score,
)


def make_registry():
    chain = Chain({"a1": get_scheme("seeded").generate(b"a1").public}, quorum=1)
    registry = DidRegistry(chain, ContentStore(), {"bank-1": Role.BANK})
    return chain, registry


# --- scoring ---

def test_perfect_compliance_scores_zero():
    score = compute_risk_score(Fraction(1), False, 0, Fraction(0))
    assert score == 0
    assert tier_for_score(score) == RiskTier.MINIMAL


def test_worst_case_scores_one():
    score = compute_risk_score(Fraction(0), True, 3, Fraction(1))
    assert score == 1
    assert tier_for_score(score) == RiskTier.UNACCEPTABLE


def test_worked_example_scores_26_over_75():
    # Hand evaluation: 0.5*(1-0.5) + 0 + 0.2*(1/3) + 0.1*0.3
    #                = 1/4 + 1/15 + 3/100 = (75+20+9)/300 = 104/300 = 26/75.
    score = compute_risk_score(Fraction(1, 2), False, 1, Fraction(3, 10))
    assert score == Fraction(26, 75)
    assert float(score) == pytest.approx(0.346667, abs=1e-6)
    assert tier_for_score(score) == RiskTier.LIMITED


def test_incident_contribution_saturates_at_three():
    low = compute_risk_score(Fraction(1), False, 3, Fraction(0))
    high = compute_risk_score(Fraction(1), False, 30, Fraction(0))
    assert low == high == Fraction(1, 5)


def test_out_of_range_inputs_rejected():
    with pytest.raises(InvalidInput):
        compute_risk_score(Fraction(3, 2), False, 0, Fraction(0))
    with pytest.raises(InvalidInput):
        compute_risk_score(Fraction(1), False, 0, Fraction(2))
    with pytest.raises(InvalidInput):
        compute_risk_score(Fraction(1), False, -1, Fraction(0))


def test_tier_thresholds():
    assert tier_for_score(Fraction(9, 10)) == RiskTier.UNACCEPTABLE
    assert tier_for_score(Fraction(6, 10)) == RiskTier.HIGH
    assert tier_for_score(Fraction(3, 10)) == RiskTier.LIMITED
    assert tier_for_score(Fraction(29, 100)) == RiskTier.MINIMAL


def test_tier_monotone_in_score():
    order = [RiskTier.MINIMAL, RiskTier.LIMITED, RiskTier.HIGH, RiskTier.UNACCEPTABLE]
    rng = random.Random(13)
    for _ in range(200):
        a = Fraction(rng.randint(0, 100), 100)
        b = Fraction(rng.randint(0, 100), 100)
        if a > b:
            a, b = b, a
        assert order.index(tier_for_score(a)) <= order.index(tier_for_score(b))


# --- forecasting ---

def test_constant_history_is_fixed_point():
    forecast, flagged = forecast_compliance([0.9, 0.9, 0.9])
    assert forecast == pytest.approx(0.9, abs=1e-15)
    assert not flagged


def test_two_point_history_closed_form():
    # s2 = 0.3*0.5 + 0.7*1.0 = 0.85
    forecast, flagged = forecast_compliance([1.0, 0.5], 0.3)
    assert forecast == pytest.approx(0.85, abs=1e-15)
    assert not flagged


def test_low_history_flagged():
    forecast, flagged = forecast_compliance([0.6, 0.6, 0.6])
    assert forecast == pytest.approx(0.6, abs=1e-15)
    assert flagged


def test_empty_history_rejected():
    with pytest.raises(InsufficientHistory):
        forecast_compliance([])


def test_bad_alpha_rejected():
    with pytest.raises(InvalidInput):
        forecast_compliance([0.5], alpha=1.0)
    with pytest.raises(InvalidInput):
        forecast_compliance([0.5], alpha=0.0)


def closed_form_ewma(history, alpha):
    # Independent oracle: direct weighted sum instead of the recurrence.
    t_final = len(history)
    total = (1 - alpha) ** (t_final - 1) * history[0]
    for t in range(2, t_final + 1):
        total += alpha * (1 - alpha) ** (t_final - t) * history[t - 1]
    return total


def test_ewma_matches_closed_form_on_random_series():
    rng = random.Random(17)
    for _ in range(50):
        length = rng.randint(1, 2000)
        history = [rng.random() for _ in range(length)]
        alpha = rng.uniform(0.05, 0.95)
        forecast, _ = forecast_compliance(history, alpha)
        expected = closed_form_ewma(history, alpha)
        assert abs(forecast - expected) <= 1e-12 * max(1.0, abs(expected))


# --- incidents ---

def test_critical_incident_suspends_same_epoch():
    chain, registry = make_registry()
    did = registry.register_did(b"\x01" * 32, "x", RiskTier.HIGH, "bank-1")
    log = IncidentLog(chain, registry)
    log.raise_incident(did, Severity.CRITICAL, epoch=4)
    assert registry.get(did).compliance_status == ComplianceStatus.SUSPENDED
    raised = [e for e in chain.pending if e.kind == EventKind.INCIDENT_RAISED]
    assert raised[0].epoch == 4


def test_linear_state_machine():
    chain, registry = make_registry()
    did = registry.register_did(b"\x02" * 32, "x", RiskTier.HIGH, "bank-1")
    log = IncidentLog(chain, registry)
    incident = log.raise_incident(did, Severity.LOW, epoch=1)
    states = [incident.state]
    for epoch in (2, 3, 4):
        states.append(log.advance_incident(incident, epoch=epoch))
    assert states == [IncidentState.RAISED, IncidentState.CONTAINED,
                      IncidentState.RESOLVED, IncidentState.POSTMORTEM_FILED]
    pending = len(chain.pending)
    with pytest.raises(TerminalState):
        log.advance_incident(incident, epoch=5)
    assert len(chain.pending) == pending and incident.state == IncidentState.POSTMORTEM_FILED


def test_the_log_refuses_a_second_raise_and_a_step_out_of_order():
    log = IncidentLog(None)
    log.apply(EventKind.INCIDENT_RAISED, {"incident_id": "i1", "did": "d", "severity": "LOW"}, 1)
    with pytest.raises(InvalidInput, match="'i1' was raised already"):
        log.apply(EventKind.INCIDENT_RAISED,
                  {"incident_id": "i1", "did": "e", "severity": "CRITICAL"}, 1)
    for state in ("RAISED", "RESOLVED", "POSTMORTEM_FILED"):
        with pytest.raises(InvalidInput, match=f"'{state}' does not follow RAISED"):
            log.apply(EventKind.INCIDENT_ADVANCED, {"incident_id": "i1", "state": state}, 2)
    for epoch, state in enumerate(("CONTAINED", "RESOLVED", "POSTMORTEM_FILED"), start=2):
        log.apply(EventKind.INCIDENT_ADVANCED, {"incident_id": "i1", "state": state}, epoch)
    with pytest.raises(TerminalState, match="i1 already at POSTMORTEM_FILED"):
        log.apply(EventKind.INCIDENT_ADVANCED, {"incident_id": "i1", "state": "RAISED"}, 5)
    assert log.incidents["i1"].to_json() == {
        "incident_id": "i1", "did": "d", "severity": "LOW",
        "transitions": [["RAISED", 1], ["CONTAINED", 2], ["RESOLVED", 3],
                        ["POSTMORTEM_FILED", 4]]}
    assert not log.active and log.open_count("d") == 0


def test_resolution_restores_suspended_system():
    chain, registry = make_registry()
    did = registry.register_did(b"\x03" * 32, "x", RiskTier.HIGH, "bank-1")
    log = IncidentLog(chain, registry)
    incident = log.raise_incident(did, Severity.CRITICAL, epoch=1)
    log.advance_incident(incident, epoch=2)  # CONTAINED
    assert registry.get(did).compliance_status == ComplianceStatus.SUSPENDED
    log.advance_incident(incident, epoch=3)  # RESOLVED
    assert registry.get(did).compliance_status == ComplianceStatus.UNDER_REVIEW


def test_open_count_excludes_resolved():
    chain, registry = make_registry()
    did = registry.register_did(b"\x04" * 32, "x", RiskTier.HIGH, "bank-1")
    log = IncidentLog(chain, registry)
    a = log.raise_incident(did, Severity.LOW, epoch=1)
    log.raise_incident(did, Severity.MEDIUM, epoch=1)
    assert log.open_count(did) == 2
    log.advance_incident(a, epoch=2)  # CONTAINED, still open
    assert log.open_count(did) == 2
    log.advance_incident(a, epoch=3)  # RESOLVED
    assert log.open_count(did) == 1


# --- engine write-through ---

def test_tier_change_emits_one_event_and_one_did_update():
    chain, registry = make_registry()
    did = registry.register_did(b"\x05" * 32, "x", RiskTier.HIGH, "bank-1")
    engine = RiskEngine(chain, registry)
    before = len(chain.pending)
    # Perfectly compliant, no incidents: score 0.05 -> MINIMAL, tier change.
    score, tier, changed = engine.update(did, 1, Fraction(1), exposure=Fraction(1, 2))
    assert (score, tier, changed) == (Fraction(1, 20), RiskTier.MINIMAL, True)
    new_events = chain.pending[before:]
    reclass = [e for e in new_events if e.kind == EventKind.RISK_RECLASSIFIED]
    updates = [e for e in new_events if e.kind == EventKind.DID_UPDATED]
    assert len(reclass) == 1 and len(updates) == 1
    assert registry.get(did).risk_tier == RiskTier.MINIMAL


def test_no_event_when_tier_stable():
    chain, registry = make_registry()
    did = registry.register_did(b"\x06" * 32, "x", RiskTier.MINIMAL, "bank-1")
    engine = RiskEngine(chain, registry)
    engine.update(did, 1, Fraction(1), exposure=Fraction(0))
    before = len(chain.pending)
    engine.update(did, 2, Fraction(1), exposure=Fraction(0))
    assert [e for e in chain.pending[before:]
            if e.kind == EventKind.RISK_RECLASSIFIED] == []


def test_unacceptable_score_suspends():
    chain, registry = make_registry()
    did = registry.register_did(b"\x07" * 32, "x", RiskTier.HIGH, "bank-1")
    engine = RiskEngine(chain, registry)
    score, tier, changed = engine.update(
        did, 1, Fraction(0), audit_failed=True, incident_count=3,
        exposure=Fraction(1))
    assert tier == RiskTier.UNACCEPTABLE
    assert registry.get(did).compliance_status == ComplianceStatus.SUSPENDED


def test_profile_history_accumulates():
    chain, registry = make_registry()
    did = registry.register_did(b"\x08" * 32, "x", RiskTier.HIGH, "bank-1")
    engine = RiskEngine(chain, registry)
    for epoch in (1, 2, 3):
        engine.update(did, epoch, Fraction(1, 2), exposure=Fraction(1, 2))
    assert [h[0] for h in engine.profiles[did].history] == [1, 2, 3]


# --- each distinct input scored once ---

class _Unmemoized:
    """The engine's update as a reference that scores every input afresh."""

    def __init__(self):
        self.chain, self.registry = make_registry()
        self.history: dict[str, list] = {}

    def update(self, did, epoch, aggregate, *, audit_failed, incident_count, exposure):
        record = self.registry.get(did)
        score = compute_risk_score(aggregate, audit_failed, incident_count, exposure)
        tier = tier_for_score(score)
        self.history.setdefault(did, []).append((epoch, score, aggregate))
        changed = tier != record.risk_tier
        if changed:
            self.chain.append(EventKind.RISK_RECLASSIFIED,
                              {"did": did, "score": str(score),
                               "old_tier": record.risk_tier.value, "new_tier": tier.value},
                              actor="risk-engine", epoch=epoch)
            self.registry.system_reclassify(did, tier, epoch=epoch)
        return score, tier, changed


# Few values each, so that inputs repeat; some outside [0, 1], some negative.
_AGGREGATES = [Fraction(n, d) for n, d in [(0, 1), (1, 2), (1, 1), (-1, 2), (3, 2)]]
_EXPOSURES = [Fraction(n, d) for n, d in [(0, 1), (1, 2), (1, 1), (2, 1)]]
_STEPS = st.lists(st.tuples(st.integers(0, 1), st.sampled_from(_AGGREGATES), st.booleans(),
                            st.integers(-1, 4), st.sampled_from(_EXPOSURES)),
                  min_size=1, max_size=40)
_HALF = Fraction(1, 2)


def _outcome(side, did, epoch, inputs):
    aggregate, audit_failed, incident_count, exposure = inputs
    try:
        return side.update(did, epoch, aggregate, audit_failed=audit_failed,
                           incident_count=incident_count, exposure=exposure)
    except InvalidInput as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(_STEPS)
# Each term of the input in turn differs from the step before, the last two a
# refused input, twice.
@example([(0, _HALF, False, 1, _HALF), (1, _HALF, True, 1, _HALF),
          (0, _HALF, True, 2, _HALF), (1, _HALF, True, 2, Fraction(1)),
          (0, Fraction(1), True, 2, Fraction(1)), (1, Fraction(3, 2), True, 2, Fraction(1)),
          (0, Fraction(3, 2), True, 2, Fraction(1))])
def test_the_memoized_engine_agrees_with_scoring_every_input(steps):
    chain, registry = make_registry()
    engine = RiskEngine(chain, registry)
    reference = _Unmemoized()
    dids = [side.register_did(bytes([key]) * 32, "x", RiskTier.HIGH, "bank-1")
            for side in (registry, reference.registry) for key in (9, 10)]
    assert dids[:2] == dids[2:]
    refused = set()
    for epoch, (which, *inputs) in enumerate(steps, start=1):
        did = dids[which]
        outcome = _outcome(engine, did, epoch, inputs)
        assert outcome == _outcome(reference, did, epoch, inputs)
        if tuple(inputs) in refused:
            assert isinstance(outcome, str)  # refused again, never kept
        if isinstance(outcome, str):
            refused.add(tuple(inputs))
        assert {d: p.history for d, p in engine.profiles.items()} == reference.history
        assert ([(e.kind, e.epoch, e.body()) for e in chain.pending]
                == [(e.kind, e.epoch, e.body()) for e in reference.chain.pending])
        assert ([registry.get(d).risk_tier for d in dids]
                == [reference.registry.get(d).risk_tier for d in dids])
