"""Rule-engine compliance evaluation.

Rules are versioned condition trees over named metrics, authored directly
in a structured JSON form. Evaluation is deterministic; the on-ledger
assessment record carries per-rule verdicts, the aggregate score and a
commitment to the metric vector, never the metric values themselves.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .encoding import (
    _REQUIRED, ONE, _as_is, _at_least, _flag, _key, _list_of, _name, _one_of, _text,
    canonical_json_bytes, sha256)
from .errors import (
    AlreadyDisputed,
    DuplicateFeed,
    GovernanceRequired,
    InvalidInput,
    InvalidPanel,
    InvalidRule,
    MissingInput,
    UnknownOracle,
)
from .governance import Proposal, ProposalKind, ProposalStatus
from .identity import AISystemRecord, RiskTier
from .ledger import Chain, EventKind, Store
from .rng import DeterministicStream

logger = logging.getLogger(__name__)

MAX_PREDICATE_DEPTH = 16

_OPERATORS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt,
              "==": operator.eq, "!=": operator.ne}
_ORDERINGS = {">=", "<=", ">", "<"}
_COMBINATORS = {"and", "or"}


class RuleDomain(str, Enum):
    DATA_PRIVACY = "DATA_PRIVACY"
    RISK_ASSESSMENT = "RISK_ASSESSMENT"
    CAPITAL_ADEQUACY = "CAPITAL_ADEQUACY"
    TRANSPARENCY = "TRANSPARENCY"


# --- predicates ---

def compile_predicate(tree: dict, declared_metrics: Sequence[str], ordered: set[str],
                      _depth: int = 1) -> Callable[[Mapping[str, float | bool]], bool]:
    """Check a predicate and compile it to one closure over metric maps.

    The check refuses a tree deeper than ``MAX_PREDICATE_DEPTH``, an unknown
    op, an undeclared metric and a value that is neither a number nor a bool.
    Each metric compared with >=, <=, > or < is added to ``ordered``: only
    numbers may stand there, as a string, null or array fails the comparison
    with a TypeError when the rule is evaluated.

    Each comparison holds its metric, bound and ``operator`` function;
    ``and``/``or`` stop at the first argument that decides them, in
    argument order, so a metric that is never reached is never required.
    """
    if _depth > MAX_PREDICATE_DEPTH:
        raise InvalidRule(f"predicate deeper than {MAX_PREDICATE_DEPTH}")
    if not isinstance(tree, dict) or not isinstance(tree.get("op"), str):
        raise InvalidRule("predicate node must be an object with an 'op'")
    op = tree["op"]
    if op in _COMBINATORS:
        args = tree.get("args")
        if not isinstance(args, list) or not args:
            raise InvalidRule(f"'{op}' needs a non-empty 'args' list")
        parts = tuple(compile_predicate(arg, declared_metrics, ordered, _depth + 1)
                      for arg in args)
        decide = all if op == "and" else any
        return lambda metrics: decide(part(metrics) for part in parts)
    if op == "not":
        if "arg" not in tree:
            raise InvalidRule("'not' needs an 'arg'")
        inner = compile_predicate(tree["arg"], declared_metrics, ordered, _depth + 1)
        return lambda metrics: not inner(metrics)
    if op not in _OPERATORS:
        raise InvalidRule(f"unknown predicate op: {op!r}")
    metric, bound, compare = tree.get("metric"), tree.get("value"), _OPERATORS[op]
    if not isinstance(metric, str):
        raise InvalidRule(f"comparison '{op}' needs a 'metric' name")
    if metric not in declared_metrics:
        raise InvalidRule(f"undeclared metric: {metric}")
    if "value" not in tree:
        raise InvalidRule(f"comparison '{op}' needs a 'value'")
    if not isinstance(bound, (int, float, bool)):
        raise InvalidRule("comparison value must be numeric or boolean")
    if op in _ORDERINGS:
        ordered.add(metric)

    def comparison(metrics):
        try:
            value = metrics[metric]
        except KeyError:
            raise MissingInput(f"metric not supplied: {metric}") from None
        return compare(value, bound)
    return comparison


# --- rules ---

# A rule's metric names and tiers, each read from a JSON array.
_METRICS, _TIERS = _list_of(_text), _list_of(_one_of(RiskTier, "tier"))


@dataclass(frozen=True)
class ComplianceRuleModule:
    """One rule: each field but the version is one of its scenario keys."""
    rule_id: str = _key(_REQUIRED, _name)
    domain: RuleDomain = _key(_REQUIRED, _one_of(RuleDomain, "domain"))
    predicate: dict = _key(_REQUIRED, _as_is)  # compile_predicate reads it
    metrics: tuple[str, ...] = _key(
        _REQUIRED, lambda value, path: tuple(_METRICS(value, path)))
    mandatory: bool = _key(True, _flag)
    applicable_tiers: frozenset[RiskTier] = _key(
        frozenset({RiskTier.HIGH, RiskTier.LIMITED, RiskTier.MINIMAL}),
        lambda value, path: frozenset(_TIERS(value, path)))
    weight: int = _key(1, _at_least(1))
    version: int = 1

    def __post_init__(self) -> None:
        """Check and compile the predicate once: ``check`` is its closure and
        ``ordered`` the metrics it orders. Neither is a field, so equality and
        ``json_value`` read the fields alone."""
        ordered: set[str] = set()
        object.__setattr__(self, "check",
                           compile_predicate(self.predicate, self.metrics, ordered))
        object.__setattr__(self, "ordered", frozenset(ordered))

    def applies_to(self, tier: RiskTier) -> bool:
        return tier in self.applicable_tiers


GENESIS_AUTHORIZATION = "genesis"


class CompiledTier:
    """One tier's applicable rules, their domains and their evaluation, built
    once per registration.

    The rules stand in rule-id order, each as ``(rule_id, check, weight,
    mandatory)``, its check compiled when the rule was built. Scores are kept
    by passed weight, so each distinct score is one shared ``Fraction``.
    """

    __slots__ = ("tier", "rules", "domains", "_checks", "_total_weight", "_scores")

    def __init__(self, tier: RiskTier, rules: tuple[ComplianceRuleModule, ...]):
        self.tier = tier
        self.rules = rules
        self.domains = frozenset(rule.domain for rule in rules)
        self._checks = tuple((rule.rule_id, rule.check, rule.weight, rule.mandatory)
                             for rule in rules)
        self._total_weight = sum(rule.weight for rule in rules)
        self._scores: dict[int, Fraction] = {}

    def evaluate(self, metrics: Mapping[str, float | bool]
                 ) -> tuple[dict[str, bool], Fraction, bool]:
        """Per-rule verdicts, aggregate score, compliant flag."""
        if not self._checks:
            logger.warning("no applicable rules for tier %s: vacuously compliant",
                           self.tier.value)
            return {}, ONE, True
        results: dict[str, bool] = {}
        passed_weight = 0
        compliant = True
        for rule_id, predicate, weight, mandatory in self._checks:
            outcome = results[rule_id] = predicate(metrics)
            if outcome:
                passed_weight += weight
            elif mandatory:
                compliant = False
        score = self._scores.get(passed_weight)
        if score is None:
            score = self._scores[passed_weight] = Fraction(passed_weight, self._total_weight)
        return results, score, compliant


class RuleRegistry(Store):
    """Versioned rule store; updates never mutate prior versions."""

    def __init__(self, chain: Optional[Chain] = None):
        self.chain = chain
        self._versions: dict[str, list[ComplianceRuleModule]] = {}
        # Each tier's compiled rules, until the next registration.
        self._compiled: dict[RiskTier, CompiledTier] = {}

    def register_rule(
        self,
        rule: ComplianceRuleModule,
        authorization: Proposal | str | None,
        *,
        epoch: int = 0,
    ) -> int:
        """Store the rule at the next version; needs a passed RULE_UPDATE proposal.

        ``GENESIS_AUTHORIZATION`` is accepted only for scenario bootstrap,
        before governance exists to vote.
        """
        if isinstance(authorization, Proposal):
            if (authorization.kind != ProposalKind.RULE_UPDATE
                    or authorization.status != ProposalStatus.PASSED):
                raise GovernanceRequired("needs a PASSED RULE_UPDATE proposal")
            auth_label = authorization.proposal_id
        elif authorization == GENESIS_AUTHORIZATION:
            auth_label = GENESIS_AUTHORIZATION
        else:
            raise GovernanceRequired("rule registration requires governance approval")
        history = self._versions.setdefault(rule.rule_id, [])
        versioned = replace(rule, version=len(history) + 1)
        history.append(versioned)
        self._compiled.clear()
        self._append(
            EventKind.RULE_REGISTERED,
            {"rule_id": versioned.rule_id, "domain": versioned.domain.value,
             "version": versioned.version, "mandatory": versioned.mandatory,
             "applicable_tiers": sorted(t.value for t in versioned.applicable_tiers),
             "authorization": auth_label},
            actor="governance", epoch=epoch,
        )
        return versioned.version

    def get(self, rule_id: str, version: Optional[int] = None) -> ComplianceRuleModule:
        history = self._versions[rule_id]
        return history[-1] if version is None else history[version - 1]

    def active_rules(self) -> list[ComplianceRuleModule]:
        return [history[-1] for _, history in sorted(self._versions.items())]

    def compiled(self, tier: RiskTier) -> CompiledTier:
        """The tier's active rules, compiled once until the next registration."""
        entry = self._compiled.get(tier)
        if entry is None:
            entry = self._compiled[tier] = CompiledTier(tier, tuple(
                r for r in self.active_rules() if r.applies_to(tier)))
        return entry

    def applicable(self, tier: RiskTier) -> tuple[ComplianceRuleModule, ...]:
        return self.compiled(tier).rules

    def domains(self, tier: RiskTier) -> frozenset[RuleDomain]:
        """The domains of ``applicable(tier)``: an auditor of the tier holds every one."""
        return self.compiled(tier).domains


# --- assessment ---

@dataclass
class Assessment:
    system_did: str
    epoch: int
    results: dict[str, bool]
    metric_values: dict[str, float | bool]
    aggregate_score: Fraction
    compliant: bool
    commitment: bytes
    salt: bytes
    tier: RiskTier

    def to_body(self) -> dict:
        """Ledger payload: verdicts and commitment only, never metric values."""
        return {
            "did": self.system_did,
            "epoch": self.epoch,
            "tier": self.tier,
            "results": self.results,
            "score": str(self.aggregate_score),
            "compliant": self.compliant,
            "commitment": self.commitment.hex(),
        }


def metrics_commitment(metrics: Mapping[str, float | bool], salt: bytes) -> bytes:
    """Hash binding of the metric vector: sha256(canonical bytes || salt)."""
    return sha256(canonical_json_bytes(
        metrics if type(metrics) is dict else dict(metrics)) + salt)


def evaluate_rules(
    tier: RiskTier,
    metrics: Mapping[str, float | bool],
    registry: RuleRegistry,
) -> tuple[dict[str, bool], Fraction, bool]:
    """Pure core: per-rule verdicts, aggregate score, compliant flag."""
    return registry.compiled(tier).evaluate(metrics)


def evaluate(
    system: AISystemRecord,
    metrics: Mapping[str, float | bool],
    epoch: int,
    registry: RuleRegistry,
    *,
    salt: bytes = b"\x00" * 32,
) -> Assessment:
    """Assess one system snapshot and record the outcome through ``registry``."""
    results, score, compliant = evaluate_rules(system.risk_tier, metrics, registry)
    assessment = Assessment(
        system_did=system.did,
        epoch=epoch,
        results=results,
        metric_values=dict(metrics),
        aggregate_score=score,
        compliant=compliant,
        commitment=metrics_commitment(metrics, salt),
        salt=salt,
        tier=system.risk_tier,
    )
    registry._append(EventKind.ASSESSMENT_RECORDED, assessment.to_body(),
                     actor=system.did, epoch=epoch)
    return assessment


# --- oracle feeds ---

@dataclass(frozen=True)
class OracleFeed:
    feed_id: str
    epoch: int
    values: Mapping[str, float | bool | int]
    signer: str


REGULATION_VERSION_KEY = "regulation_version"


class OracleBook(Store):
    """Immutable per-(feed_id, epoch) feed store."""

    def __init__(self, chain: Optional[Chain], oracle_authorities: Sequence[str]):
        self.chain = chain
        self.authorities = set(oracle_authorities)
        # epoch -> feed_id -> feed, so that a lookup reads only its epoch.
        self._feeds: dict[int, dict[str, OracleFeed]] = {}
        self._regulation_version: Optional[float] = None

    def ingest(self, feed: OracleFeed) -> bool:
        """Store a feed; returns True when it bumps the regulation version."""
        if feed.signer not in self.authorities:
            raise UnknownOracle(f"unknown oracle signer: {feed.signer}")
        epoch_feeds = self._feeds.setdefault(feed.epoch, {})
        if feed.feed_id in epoch_feeds:
            raise DuplicateFeed(f"feed {feed.feed_id} already ingested for epoch {feed.epoch}")
        # Defensive copy: feed values are immutable once ingested.
        epoch_feeds[feed.feed_id] = OracleFeed(feed.feed_id, feed.epoch,
                                               dict(feed.values), feed.signer)
        self._append(
            EventKind.ORACLE_UPDATE,
            {"feed_id": feed.feed_id, "epoch": feed.epoch,
             "signer": feed.signer, "values": dict(sorted(feed.values.items()))},
            actor=feed.signer, epoch=feed.epoch,
        )
        new_version = feed.values.get(REGULATION_VERSION_KEY)
        if new_version is not None and new_version != self._regulation_version:
            self._regulation_version = new_version
            return True
        return False

    def values_for(self, epoch: int) -> dict[str, float | bool | int]:
        """Merged values across this epoch's feeds, in feed_id order."""
        merged: dict[str, float | bool | int] = {}
        feeds = self._feeds.get(epoch, {})
        for feed_id in sorted(feeds):
            merged.update(feeds[feed_id].values)
        return merged


# --- disputes ---

@dataclass
class Dispute:
    assessment: Assessment
    challenger: str
    panel: list[str]
    resolved: bool = False
    overturned: bool = False


class DisputeCourt:
    """Arbitration over recorded assessments by seeded panels of auditors."""

    def __init__(self, stream: Optional[DeterministicStream] = None):
        self.stream = stream or DeterministicStream(0, "disputes")
        self._by_assessment: dict[tuple[str, int], Dispute] = {}

    def open_dispute(
        self,
        assessment: Assessment,
        challenger: str,
        *,
        system_owner: str,
        eligible_auditors: Sequence[str],
        panel_size: int = 3,
    ) -> Dispute:
        if challenger == system_owner:
            raise InvalidInput("challenger must be distinct from the system owner")
        key = (assessment.system_did, assessment.epoch)
        if key in self._by_assessment:
            raise AlreadyDisputed(f"assessment {key} already disputed")
        if panel_size % 2 == 0 or panel_size < 3:
            raise InvalidPanel("panel must be odd and at least 3")
        pool = sorted(set(eligible_auditors) - {challenger, system_owner})
        if len(pool) < panel_size:
            raise InvalidPanel(f"only {len(pool)} eligible panelists for size {panel_size}")
        panel = sorted(self.stream.sample(pool, panel_size))
        dispute = Dispute(assessment=assessment, challenger=challenger, panel=panel)
        self._by_assessment[key] = dispute
        return dispute

    def resolve_dispute(self, dispute: Dispute, panel_votes: Sequence[str]) -> Assessment:
        """Majority decides; 'overturn' flips the compliant flag."""
        if dispute.resolved:
            raise AlreadyDisputed("dispute already resolved")
        if len(panel_votes) != len(dispute.panel) or len(panel_votes) % 2 == 0:
            raise InvalidPanel("votes must match the odd-sized panel")
        for vote in panel_votes:
            if vote not in ("uphold", "overturn"):
                raise InvalidInput(f"panel vote must be uphold/overturn, got {vote!r}")
        overturns = sum(1 for v in panel_votes if v == "overturn")
        dispute.resolved = True
        dispute.overturned = overturns * 2 > len(panel_votes)
        if dispute.overturned:
            dispute.assessment.compliant = not dispute.assessment.compliant
        return dispute.assessment

