"""Continuous risk scoring, tier reclassification, incidents, forecasting.

The score blends the latest compliance aggregate, last epoch's audit
failures, open incidents and a static exposure weight:

    score = clamp01(wa*(1-a) + wf*f + wi*min(i,3)/3 + ww*w)

with default weights 0.5/0.2/0.2/0.1. Tier cuts at 0.9/0.6/0.3 map scores
onto the four-tier taxonomy; the registry stores the authoritative tier,
written through on every change. ``RiskEngine``, like the report fold, scores
each distinct input once and keeps its score and tier; an input the scorer
refuses is never kept, and raises again each time it recurs.

``IncidentLog.apply`` is the one incident transition: ``raise_incident`` and
``advance_incident`` apply the body they append, and the report fold applies
the same bodies to a chain-less log. It raises each id once and steps it only
to the next state, so ``verify`` refuses a second raise or a step out of order.
It also keeps each system's open-incident count as a step function of the
epoch, which the run's risk phase and the fold's score series both read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Mapping, Optional, Sequence

from .encoding import _FRACTION, _REQUIRED, ONE, _key, _Keys
from .errors import InsufficientHistory, InvalidInput, TerminalState
from .identity import DEFAULT_EXPOSURE, DidRegistry, RiskTier
from .ledger import Chain, EventKind, Store


@dataclass(frozen=True)
class RiskWeights:
    noncompliance: Fraction = Fraction(1, 2)
    audit_failure: Fraction = Fraction(1, 5)
    incidents: Fraction = Fraction(1, 5)
    exposure: Fraction = Fraction(1, 10)


@dataclass(frozen=True)
class TierThresholds:
    unacceptable: Fraction = Fraction(9, 10)
    high: Fraction = Fraction(3, 5)
    limited: Fraction = Fraction(3, 10)


def _rationals(record: type) -> Callable[[Any, str], Any]:
    """The reader of ``record`` from an object that gives every field as a rational."""
    keys = _Keys((f.name, _key(_REQUIRED, _FRACTION)) for f in fields(record))
    return lambda raw, path: record(**keys(raw, path))


read_risk_weights, read_tier_thresholds = _rationals(RiskWeights), _rationals(TierThresholds)


_ZERO = Fraction(0)


def compute_risk_score(
    compliance_aggregate: Fraction,
    audit_failed: bool,
    incident_count: int,
    exposure: Fraction,
    weights: RiskWeights = RiskWeights(),
) -> Fraction:
    """Exact risk score in [0, 1]; 1 is maximal risk. Summed and clamped on
    integers, so at most one ``Fraction`` is built per call."""
    a_num, a_den = compliance_aggregate.numerator, compliance_aggregate.denominator
    e_num, e_den = exposure.numerator, exposure.denominator
    if not 0 <= a_num <= a_den:
        raise InvalidInput("compliance aggregate must be in [0, 1]")
    if not 0 <= e_num <= e_den:
        raise InvalidInput("exposure weight must be in [0, 1]")
    if incident_count < 0:
        raise InvalidInput("incident count must be non-negative")
    w_n, w_f, w_i, w_e = (weights.noncompliance, weights.audit_failure,
                          weights.incidents, weights.exposure)
    # score = n1/d1 + n2/d2 + n3/d3 + n4/d4, the four terms of the module docstring.
    n1, d1 = w_n.numerator * (a_den - a_num), w_n.denominator * a_den
    n2, d2 = (w_f.numerator if audit_failed else 0), w_f.denominator
    n3, d3 = w_i.numerator * min(incident_count, 3), w_i.denominator * 3
    n4, d4 = w_e.numerator * e_num, w_e.denominator * e_den
    d12, d34 = d1 * d2, d3 * d4
    num = (n1 * d2 + n2 * d1) * d34 + (n3 * d4 + n4 * d3) * d12
    den = d12 * d34
    if num <= 0:
        return _ZERO
    if num >= den:
        return ONE
    return Fraction(num, den)


def tier_for_score(score: Fraction, thresholds: TierThresholds = TierThresholds()) -> RiskTier:
    if score >= thresholds.unacceptable:
        return RiskTier.UNACCEPTABLE
    if score >= thresholds.high:
        return RiskTier.HIGH
    if score >= thresholds.limited:
        return RiskTier.LIMITED
    return RiskTier.MINIMAL


# --- forecasting ---

DEFAULT_EWMA_ALPHA = 0.3
DEFAULT_FORECAST_FLOOR = 0.7


def ewma_step(smoothed: Optional[float], value: float, alpha: float) -> float:
    """One EWMA update; ``smoothed`` is None before the first observation.

    Unchecked: callers validate alpha once, up front.
    """
    if smoothed is None:
        return float(value)
    return alpha * float(value) + (1 - alpha) * smoothed


def forecast_compliance(
    history: Sequence[float],
    alpha: float = DEFAULT_EWMA_ALPHA,
    *,
    floor: float = DEFAULT_FORECAST_FLOOR,
) -> tuple[float, bool]:
    """EWMA over the aggregate-score series; flags forecasts below the floor.

    The reference fold over a whole history. The simulator keeps one running
    value per system with ``ewma_step`` instead; both perform the same float
    operations in the same order, so they agree bit for bit.
    """
    if not history:
        raise InsufficientHistory("forecast needs at least one observation")
    if not 0 < alpha < 1:
        raise InvalidInput("alpha must be in (0, 1)")
    smoothed = None
    for value in history:
        smoothed = ewma_step(smoothed, value, alpha)
    return smoothed, smoothed < floor


# --- incidents ---

class Severity(str, Enum):
    LOW = "LOW"
    MEDIUM = "MEDIUM"
    CRITICAL = "CRITICAL"


class IncidentState(str, Enum):
    """An incident's states, in the one order it steps through them."""
    RAISED = "RAISED"
    CONTAINED = "CONTAINED"
    RESOLVED = "RESOLVED"
    POSTMORTEM_FILED = "POSTMORTEM_FILED"


_NEXT_STATE = dict(zip(IncidentState, list(IncidentState)[1:]))
# The open states: an incident in one counts toward the risk score.
OPEN_INCIDENT_STATES = (IncidentState.RAISED, IncidentState.CONTAINED)


@dataclass
class Incident:
    incident_id: str
    system_did: str
    severity: Severity
    state: IncidentState = IncidentState.RAISED
    transitions: list[tuple[str, int]] = field(default_factory=list)

    def open_(self) -> bool:
        """Counts toward the risk score until resolved."""
        return self.state in OPEN_INCIDENT_STATES

    def to_json(self) -> dict:
        return {"incident_id": self.incident_id, "did": self.system_did,
                "severity": self.severity.value,
                "transitions": [list(step) for step in self.transitions]}


class IncidentLog(Store):
    def __init__(self, chain: Optional[Chain], registry: Optional[DidRegistry] = None):
        self.chain = chain
        self.registry = registry
        # Every incident by id, in raise order.
        self.incidents: dict[str, Incident] = {}
        # Incidents not yet at POSTMORTEM_FILED, by id in raise order, and
        # per system the epochs at which its open count changed and the count
        # from each on: kept as incidents move, so that no reader walks the log.
        self.active: dict[str, Incident] = {}
        self._steps: dict[str, tuple[list[int], list[int]]] = {}
        self._seq = 0

    # --- the transition ---

    def apply(self, kind: EventKind, body: Mapping, epoch: int) -> Incident:
        """Apply one INCIDENT_RAISED or INCIDENT_ADVANCED event at ``epoch``,
        its ``body`` what the kind declares; returns the incident. Raising an
        id twice, advancing an incident that was never raised or is at its
        last state, or a step to any state but the next raises."""
        incident_id = body["incident_id"]
        if kind is EventKind.INCIDENT_RAISED:
            if incident_id in self.incidents:
                raise InvalidInput(f"field incident_id: {incident_id!r} was raised already")
            incident = Incident(incident_id, body["did"], Severity(body["severity"]))
            self.incidents[incident_id] = incident
            self.active[incident_id] = incident
            was_open = False
        else:
            incident = self.incidents.get(incident_id)
            if incident is None:
                raise InvalidInput(f"field incident_id: {incident_id!r} was never raised")
            state = _NEXT_STATE.get(incident.state)
            if state is None:
                raise TerminalState(f"{incident_id} already at {incident.state.value}")
            if body["state"] != state.value:
                raise InvalidInput(f"field state: {body['state']!r} does not follow "
                                   f"{incident.state.value}: the next state is {state.value}")
            was_open = incident.open_()
            incident.state = state
            if state not in _NEXT_STATE:
                del self.active[incident_id]
        incident.transitions.append((incident.state.value, epoch))
        change = incident.open_() - was_open
        if change:
            epochs, counts = self._steps.setdefault(incident.system_did, ([], []))
            epochs.append(epoch)
            counts.append((counts[-1] if counts else 0) + change)
        return incident

    def raise_incident(self, system_did: str, severity: Severity, *, epoch: int = 0) -> Incident:
        """Open an incident; CRITICAL suspends the system until resolved."""
        if self.registry is not None:
            self.registry.get(system_did)  # existence check
        body = {"incident_id": f"incident-{self._seq + 1:04d}", "did": system_did,
                "severity": severity.value, "state": IncidentState.RAISED.value}
        incident = self._record(EventKind.INCIDENT_RAISED, body,
                                actor="incident-response", epoch=epoch)
        self._seq += 1
        if severity == Severity.CRITICAL and self.registry is not None:
            self.registry.move_status(system_did, "critical-incident", epoch=epoch)
        return incident

    def advance_incident(self, incident: Incident, *, epoch: int = 0) -> IncidentState:
        """Step one state forward; restores a suspended system on RESOLVED."""
        body = {"incident_id": incident.incident_id, "did": incident.system_did,
                # At the last state the body names it again, and apply refuses it.
                "state": _NEXT_STATE.get(incident.state, incident.state).value}
        self._record(EventKind.INCIDENT_ADVANCED, body, actor="incident-response", epoch=epoch)
        if (incident.state == IncidentState.RESOLVED and incident.severity == Severity.CRITICAL
                and self.registry is not None):
            self.registry.move_status(incident.system_did, "critical-resolved", epoch=epoch)
        return incident.state

    def open_count(self, system_did: str) -> int:
        steps = self._steps.get(system_did)
        return steps[1][-1] if steps else 0

    def open_at(self, system_did: str, epoch: int) -> int:
        """Incidents raised or contained as of ``epoch``, if applied in epoch order."""
        epochs, counts = self._steps.get(system_did, ((), ()))
        at = bisect_right(epochs, epoch)
        return counts[at - 1] if at else 0


# --- profiles and write-through ---

@dataclass
class RiskProfile:
    system_did: str
    history: list[tuple[int, Fraction, Fraction]] = field(default_factory=list)


class RiskEngine(Store):
    def __init__(
        self,
        chain: Optional[Chain],
        registry: DidRegistry,
        *,
        weights: RiskWeights = RiskWeights(),
        thresholds: TierThresholds = TierThresholds(),
    ):
        self.chain = chain
        self.registry = registry
        self.weights = weights
        self.thresholds = thresholds
        # (score, tier) under these weights and thresholds, by the integer
        # terms of each input scored, which hash far faster than its Fractions.
        self._scored: dict[tuple, tuple[Fraction, RiskTier]] = {}
        self.profiles: dict[str, RiskProfile] = {}

    def update(
        self,
        system_did: str,
        epoch: int,
        compliance_aggregate: Fraction,
        *,
        audit_failed: bool = False,
        incident_count: int = 0,
        exposure: Fraction = DEFAULT_EXPOSURE,
    ) -> tuple[Fraction, RiskTier, bool]:
        """Score once per distinct input; reclassify (and write through) on tier change."""
        record = self.registry.get(system_did)
        key = (compliance_aggregate.numerator, compliance_aggregate.denominator,
               bool(audit_failed), incident_count, exposure.numerator, exposure.denominator)
        scored = self._scored.get(key)
        if scored is None:
            score = compute_risk_score(compliance_aggregate, audit_failed, incident_count,
                                       exposure, self.weights)
            scored = self._scored[key] = score, tier_for_score(score, self.thresholds)
        score, tier = scored
        profile = self.profiles.get(system_did)
        if profile is None:
            profile = self.profiles[system_did] = RiskProfile(system_did)
        profile.history.append((epoch, score, compliance_aggregate))
        changed = tier != record.risk_tier
        if changed:
            self._append(
                EventKind.RISK_RECLASSIFIED,
                {"did": system_did, "score": str(score),
                 "old_tier": record.risk_tier.value, "new_tier": tier.value},
                actor="risk-engine", epoch=epoch,
            )
            self.registry.system_reclassify(system_did, tier, epoch=epoch)
        return score, tier, changed
