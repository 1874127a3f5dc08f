"""Deterministic discrete-event scenario runner.

Each epoch runs the members of ``govsim.ledger.Phase`` after SETUP in order,
one ``Simulator._phase_<name>`` each: ingest, compliance, risk, audit,
penalties, governance, elections, rewards, sealing. Setup (registries,
genesis mint, funding, accreditation, registration, initial election) runs
as phase SETUP of epoch 0 and seals together with the first epoch. All
randomness flows from counter-based streams derived from the scenario seed,
one stream per consumer.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from . import audit as audit_mod
from . import compliance as compliance_mod
from . import governance as governance_mod
from . import risk as risk_mod
from .encoding import (
    _FRACTION, _REQUIRED, _array, _as_is, _at_least, _checked, _declared, _fail, _integer,
    _json_fault, _key, _Keys, _list_of, _name, _object, _one_of, _or_null, _plain, _table, _text,
    as_fraction, canonical_json_bytes, json_value, read_json, sha256, sum_terms)
from .errors import (
    EncodingError,
    GovSimError,
    InvalidWeights,
    IoError,
    ScenarioError,
)
from .identity import (
    DEFAULT_EXPOSURE,
    ComplianceStatus,
    ContentStore,
    DidRegistry,
    RiskTier,
    Role,
)
from .keys import SeededScheme, get_scheme
from .ledger import DEFAULT_BLOCK_CAPACITY, Chain, EventKind, Phase, load_chain
from .report import layout, load_report, verified_fold
from .rng import DeterministicStream
from .tokens import (
    DEFAULT_EMISSION_DIVISOR,
    DEFAULT_POOL_FRACTIONS,
    DEFAULT_SLASH_FRACTIONS,
    DEFAULT_TOTAL_SUPPLY,
    Pool,
    SlashReason,
    TokenLedger,
    genesis_pools,
    validate_pool_fractions,
)

def _float_where(test: Callable[[float], bool], bound: str) -> Callable[[Any, str], float]:
    """A JSON number (not a bool) that passes ``test``, which refuses NaN and infinities."""
    check = _checked(lambda value: type(value) in (int, float) and test(value), bound)
    return lambda value, path: float(check(value, path))


def _fraction_in(test: Callable[[Fraction], bool], bound: str) -> Callable[[Any, str], Fraction]:
    check = _checked(test, f"in {bound}")
    return lambda value, path: check(as_fraction(value), path)


# The genesis snapshot leaves out quorum, the vote multipliers and the token
# tables, so that the genesis bytes of existing runs stay as they are.
@dataclass
class SimConfig:
    """The run's settings: each field is one scenario config key."""
    block_capacity: int = _key(DEFAULT_BLOCK_CAPACITY, _at_least(1))
    signature_scheme: str = _key(
        SeededScheme.name, _plain(lambda value: get_scheme(value).name))
    quorum: Optional[int] = _key(None, _or_null(_at_least(1)), snapshot=None)
    n_seats: int = _key(3, _at_least(1))
    election_period: int = _key(4, _at_least(1))
    cap_fraction: Fraction = _key(governance_mod.VoteWeights.cap_fraction, _FRACTION)
    regulator_multiplier: Fraction = _key(
        governance_mod.DEFAULT_REGULATOR_MULTIPLIER, _FRACTION, snapshot=None)
    role_multiplier: dict[Role, Fraction] = _key({}, _table(Role, _FRACTION), snapshot=None)
    threshold_routine: Fraction = _key(governance_mod.VoteWeights.threshold_routine, _FRACTION)
    threshold_critical: Fraction = _key(governance_mod.VoteWeights.threshold_critical, _FRACTION)
    collusion_min_common: int = _key(10, _at_least(1), snapshot="collusion.min_common")
    collusion_agreement: Fraction = _key(Fraction(9, 10), _fraction_in(
        lambda f: 0 < f <= 1, "(0, 1]"), snapshot="collusion.agreement")
    collusion_penalty: Fraction = _key(governance_mod.DEFAULT_COLLUSION_PENALTY, _fraction_in(
        lambda f: 0 <= f <= 1, "[0, 1]"), snapshot="collusion.penalty")
    audit_intervals: dict[RiskTier, int] = _key(
        audit_mod.DEFAULT_AUDIT_INTERVALS,
        _table(RiskTier, _at_least(1), audit_mod.DEFAULT_AUDIT_INTERVALS))
    auditor_capacity: int = _key(audit_mod.DEFAULT_AUDITOR_CAPACITY, _at_least(1))
    risk_weights: risk_mod.RiskWeights = _key(risk_mod.RiskWeights(), risk_mod.read_risk_weights)
    tier_thresholds: risk_mod.TierThresholds = _key(
        risk_mod.TierThresholds(), risk_mod.read_tier_thresholds)
    ewma_alpha: float = _key(risk_mod.DEFAULT_EWMA_ALPHA, _float_where(
        lambda number: 0 < number < 1, "a number in (0, 1)"))
    forecast_floor: float = _key(
        risk_mod.DEFAULT_FORECAST_FLOOR, _float_where(math.isfinite, "a finite number"))
    total_supply: int = _key(DEFAULT_TOTAL_SUPPLY, _at_least(0), snapshot=None)
    pool_fractions: dict[Pool, Fraction] = _key(
        DEFAULT_POOL_FRACTIONS, lambda value, path: validate_pool_fractions(
            _table(Pool, _FRACTION)(value, path)), snapshot=None)
    emission_divisor: int = _key(DEFAULT_EMISSION_DIVISOR, _at_least(1))
    slash_fractions: dict[SlashReason, Fraction] = _key(DEFAULT_SLASH_FRACTIONS, _table(
        SlashReason, _fraction_in(lambda f: 0 < f <= 1, "(0, 1]"), DEFAULT_SLASH_FRACTIONS),
        snapshot=None)
    funding_pool: Pool = _key(Pool.DEVELOPMENT, _plain(Pool))

    def __post_init__(self) -> None:
        self.vote_weights()  # refuses weights that do not validate

    def vote_weights(self) -> governance_mod.VoteWeights:
        return governance_mod.VoteWeights(
            role_multiplier={Role.REGULATOR: self.regulator_multiplier,
                             **self.role_multiplier},
            cap_fraction=self.cap_fraction,
            threshold_routine=self.threshold_routine,
            threshold_critical=self.threshold_critical,
        ).validate()

    def to_snapshot(self) -> dict:
        """JSON-able effective config, embedded in the genesis event."""
        snapshot: dict = {}
        for f in fields(self):
            where = f.metadata["snapshot"]
            if where is not None:
                group, _, name = (where or f.name).rpartition(".")
                target = snapshot.setdefault(group, {}) if group else snapshot
                target[name] = json_value(getattr(self, f.name))
        return snapshot


_CONFIG = _declared(SimConfig)
_STAKE = _Keys(amount=_key(_REQUIRED, _at_least(1)), lock_epochs=_key(_REQUIRED, _at_least(1)))
_AUDITOR = _Keys(body=_key(_REQUIRED, _text),
                 scopes=_key(_REQUIRED, _list_of(_one_of(compliance_mod.RuleDomain, "domain"))),
                 validity_epochs=_key(None, _at_least(1)))  # None: epochs + 1


# A spec holds what the run reads of one object; load_scenario finishes its
# stakes, auditor, purpose and public key once its cross-object checks pass.
@dataclass(kw_only=True)
class StakeholderSpec:
    """One stakeholder: each field is one of its scenario keys."""
    id: str = _key(_REQUIRED, _name)
    role: Role = _key(_REQUIRED, _one_of(Role, "role"))
    balance: int = _key(0, _at_least(0))
    stakes: list[tuple[int, int]] = _key([], _list_of(_STAKE))  # (amount, lock_epochs)
    # (accrediting body, scopes, validity_epochs), as accredit_auditor takes them.
    auditor: Optional[tuple[str, list[compliance_mod.RuleDomain], int]] = _key(
        None, _or_null(_AUDITOR))

    def funding(self) -> int:
        """What set-up grants from the funding pool: the balance plus every stake."""
        return self.balance + sum(amount for amount, _ in self.stakes)


@dataclass(kw_only=True)
class SystemSpec:
    """One AI system: each field is one of its scenario keys."""
    id: str = _key(_REQUIRED, _name)
    owner: str = _key(_REQUIRED, _text)  # a stakeholder id
    purpose: str = _key(None, _text)  # None: the id
    risk_tier: RiskTier = _key(_REQUIRED, _one_of(RiskTier, "tier"))
    exposure: Fraction = _key(DEFAULT_EXPOSURE, _fraction_in(lambda f: 0 <= f <= 1, "[0, 1]"))
    base_metrics: dict[str, Any] = _key({}, _object)
    metadata: Optional[dict] = _key(None, _as_is)
    public_key: bytes = _key(b"", _plain(bytes.fromhex))  # empty: the key derived from the id


@dataclass(slots=True)
class ProposalSpec:
    """One proposal: each field but the rule is one of its scenario keys."""
    kind: governance_mod.ProposalKind = _key(
        _REQUIRED, _one_of(governance_mod.ProposalKind, "kind"))
    id: Optional[str] = _key(None, _or_null(_name))  # as given, or the one load_scenario generates
    mode: governance_mod.VoteMode = _key(
        governance_mod.VoteMode.LINEAR, _one_of(governance_mod.VoteMode, "mode"))
    payload: Any = _key({}, _as_is)  # ROUTINE and CRITICAL payloads are free-form
    # voter -> (direction, magnitude), as _proposal reads the votes
    votes: dict[str, tuple[governance_mod.VoteDirection, int]] = _key([], _array)
    rule: Optional[compliance_mod.ComplianceRuleModule] = None  # a RULE_UPDATE's rule


_PROPOSAL = _declared(ProposalSpec)
# _proposal checks each vote inline against these keys, bounds and members, for its speed.
_DIRECTION = _one_of(governance_mod.VoteDirection, "direction")
_VOTE = _Keys(voter=_key(_REQUIRED, _text), direction=_key(_REQUIRED, _DIRECTION),
              magnitude=_key(1, _at_least(1)))
_RULE = _declared(compliance_mod.ComplianceRuleModule)


def _parse_rule(raw: Any, path: str) -> compliance_mod.ComplianceRuleModule:
    rule = compliance_mod.ComplianceRuleModule(**_RULE(raw, path))
    try:
        compliance_mod.validate_predicate(rule.predicate, rule.metrics)
    except GovSimError as exc:
        _fail(f"{path}.predicate", str(exc))
    return rule


_RULE_UPDATE = _Keys(rule=_key(_REQUIRED, _parse_rule))
_THE_EPOCH = object()  # a REGULATION_CHANGE's default version: its epoch
_INJECTIONS = {
    kind: _Keys(epoch=_key(_REQUIRED, _at_least(1)), kind=_key(_REQUIRED, _as_is), **keys)
    for kind, keys in {
        "VIOLATION": dict(system=_key(_REQUIRED, _text), metrics=_key(_REQUIRED, _object)),
        "INCIDENT": dict(system=_key(_REQUIRED, _text),
                         severity=_key(_REQUIRED, _one_of(risk_mod.Severity, "severity"))),
        "REGULATION_CHANGE": dict(version=_key(_THE_EPOCH, _as_is)),
        "COLLUSION": dict(pair=_key(_REQUIRED, _array), proposals=_key(_REQUIRED, _at_least(1))),
        "PROPOSAL": dict(proposal=_key(_REQUIRED, _PROPOSAL)),
    }.items()}


_FEED = _Keys(feed_id=_key(_REQUIRED, _name), signer=_key(_REQUIRED, _text),
              epoch=_key(_REQUIRED, _at_least(1)), values=_key(_REQUIRED, _object))
_STAKEHOLDER, _SYSTEM, _IDS = _declared(StakeholderSpec), _declared(SystemSpec), _list_of(_name)


@dataclass(kw_only=True)
class SimScenario:
    """Every input parsed into the value the run uses: the document's keys but two, and
    the scripted inputs keyed by the epoch they fire in, each list in scenario order."""
    seed: int = _key(0, _integer)
    epochs: int = _key(_REQUIRED, _at_least(1))
    # None: every default
    config: SimConfig = _key(None, lambda raw, path: SimConfig(**_CONFIG(raw, path)))
    authorities: list[str] = _key(["authority-1", "authority-2", "authority-3"], _IDS)
    oracle_authorities: list[str] = _key([], _IDS)
    accreditors: list[str] = _key([], _IDS)
    stakeholders: list[StakeholderSpec] = _key([], _array)
    ai_systems: list[SystemSpec] = _key([], _array)
    rules: list[compliance_mod.ComplianceRuleModule] = _key([], _list_of(_parse_rule))
    digest: str  # hex sha256 of the scenario's canonical JSON
    feeds: dict[int, list[tuple[str, Mapping[str, Any], str]]]  # (feed_id, values, signer)
    violations: dict[int, list[tuple[str, Mapping[str, Any]]]]  # (system, metric overrides)
    incidents: dict[int, list[tuple[str, risk_mod.Severity]]]  # (system, severity)
    regulation_versions: dict[int, Any]
    collusions: dict[int, list[tuple[tuple[str, str], list[str]]]]  # (pair, proposal ids)
    proposals: dict[int, list[ProposalSpec]]


# load_scenario reads each entry of stakeholders, ai_systems, oracle_feeds and
# injected_events in the loop that checks it.
_SCENARIO = _Keys(_declared(SimScenario), oracle_feeds=_key([], _array),
                  injected_events=_key([], _array))

# Each object of the scenario format, under the name of its definition in
# scenarios/scenario.schema.json ("scenario" is the document itself).
SCENARIO_OBJECTS: dict[str, _Keys] = {
    "scenario": _SCENARIO, "config": _CONFIG, "stakeholder": _STAKEHOLDER, "stake": _STAKE,
    "auditor": _AUDITOR, "rule": _RULE, "ai_system": _SYSTEM, "oracle_feed": _FEED,
    **_INJECTIONS, "proposal": _PROPOSAL, "rule_update_payload": _RULE_UPDATE, "vote": _VOTE}


def _digest(raw: Mapping[str, Any]) -> str:
    """The scenario digest. Only if the encoding fails is the document walked, to
    name the non-string key, NaN, infinity, non-JSON value or circular value at fault."""
    try:
        return sha256(canonical_json_bytes(raw)).hex()
    except EncodingError as exc:
        if fault := _json_fault(raw):
            _fail(*fault)
        raise ScenarioError(f"scenario: {exc}") from None  # e.g. nested past the recursion limit


def _proposal(proposal: Mapping[str, Any], path: str, holders: set[str], ids: dict[str, str],
              weights: governance_mod.VoteWeights) -> ProposalSpec:
    """The read proposal, its payload checked for its kind and its votes read;
    ``ids`` maps each explicit id to its field path."""
    if (explicit_id := proposal["id"]) is not None:
        if explicit_id in ids:
            _fail(f"{path}.id", f"duplicate id {explicit_id!r}")
        ids[explicit_id] = f"{path}.id"
    rule = None
    if proposal["kind"] is governance_mod.ProposalKind.RULE_UPDATE:
        rule = _RULE_UPDATE(proposal["payload"], f"{path}.payload")["rule"]
    elif proposal["kind"] is governance_mod.ProposalKind.WEIGHT_ADJUSTMENT:
        try:
            weights.adjusted(proposal["payload"])
        except InvalidWeights as exc:
            _fail(f"{path}.payload", str(exc))
    # Every stakeholder may vote on every proposal, so these checks run per
    # vote and build a field path only to report a failure.
    votes: dict[str, tuple[governance_mod.VoteDirection, int]] = {}
    linear, directions = proposal["mode"] is governance_mod.VoteMode.LINEAR, _DIRECTION.members
    for j, vote in enumerate(proposal["votes"]):
        if type(vote) is not dict and not isinstance(vote, Mapping):
            _fail(f"{path}.votes[{j}]", "must be an object")
        voter, magnitude = vote.get("voter"), vote.get("magnitude", 1)
        if type(voter) is not str or voter not in holders:
            _fail(f"{path}.votes[{j}].voter", f"unknown stakeholder {voter!r}")
        if voter in votes:
            _fail(f"{path}.votes[{j}].voter", f"{voter!r} already voted on this proposal")
        try:
            direction = directions[vote.get("direction")]
        except (KeyError, TypeError):
            _fail(f"{path}.votes[{j}].direction",
                  f"unknown direction {vote.get('direction')!r}")
        # voter and direction are given, so a key beyond them and magnitude is undeclared.
        if len(vote) > 2 + ("magnitude" in vote):
            _fail(f"{path}.votes[{j}].{next(key for key in vote if key not in _VOTE)}",
                  "unknown key")
        if type(magnitude) is not int or magnitude < 1 or (linear and magnitude != 1):
            _fail(f"{path}.votes[{j}].magnitude",
                  "must be an integer >= 1, and 1 on a LINEAR proposal")
        votes[voter] = (direction, magnitude)
    return ProposalSpec(
        proposal["kind"], explicit_id, proposal["mode"], proposal["payload"], votes, rule)


def load_scenario(source: str | Path | Mapping[str, Any]) -> SimScenario:
    """Read a scenario through the declaration of each of its objects, check what ties one
    object to another, and return all the run reads; errors carry the field path at fault."""
    if isinstance(source, (str, Path)):
        try:
            source = read_json(source, "scenario")
        except IoError as exc:
            raise ScenarioError(str(exc)) from exc
    if not isinstance(source, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    raw = dict(source)
    doc = _SCENARIO(raw, "")
    epochs, authorities, config = doc["epochs"], doc["authorities"], doc["config"] or SimConfig()
    if not authorities:
        _fail("authorities", "at least one sealing authority required")
    for i, authority in enumerate(authorities):
        if authority in authorities[:i]:
            _fail(f"authorities[{i}]", f"duplicate id {authority!r}")
    if config.quorum is not None and config.quorum > len(authorities):
        _fail("config.quorum", f"exceeds the {len(authorities)} sealing authorities")

    stakeholders: dict[str, StakeholderSpec] = {}
    # Set-up grants each stakeholder's balance and stakes from the funding pool.
    pool_share = genesis_pools(config.pool_fractions, config.total_supply)[config.funding_pool]
    granted = 0
    for i, entry in enumerate(doc["stakeholders"]):
        entry = _STAKEHOLDER(entry, path := f"stakeholders[{i}]")
        if entry["id"] in stakeholders:
            _fail(f"{path}.id", f"duplicate id {entry['id']!r}")
        if (auditor := entry["auditor"]) is not None:
            if entry["role"] is not Role.AUDITOR:
                _fail(f"{path}.auditor", "auditor block on a non-AUDITOR stakeholder")
            if auditor["body"] not in doc["accreditors"]:
                _fail(f"{path}.auditor.body", f"unknown accreditor {auditor['body']!r}")
            if not auditor["scopes"]:
                _fail(f"{path}.auditor.scopes", "needs at least one domain")
            auditor = (auditor["body"], auditor["scopes"], auditor["validity_epochs"] or epochs + 1)
        spec = stakeholders[entry["id"]] = StakeholderSpec(**{
            **entry, "auditor": auditor,
            "stakes": [(stake["amount"], stake["lock_epochs"]) for stake in entry["stakes"]]})
        granted += spec.funding()
        if granted > pool_share:
            _fail(path, f"grants total {granted}, above the {config.funding_pool.value} "
                        f"pool's genesis share of {pool_share}")

    systems: dict[str, SystemSpec] = {}
    system_keys: dict[bytes, str] = {}  # effective public key -> its system's path
    # (values, path, field) to check once every rule, RULE_UPDATE too, is parsed.
    metric_maps: list[tuple[Mapping[str, Any], str, str]] = []
    for i, entry in enumerate(doc["ai_systems"]):
        entry = _SYSTEM(entry, path := f"ai_systems[{i}]")
        if (sid := entry["id"]) in systems:
            _fail(f"{path}.id", f"duplicate id {sid!r}")
        if entry["owner"] not in stakeholders:
            _fail(f"{path}.owner", f"unknown stakeholder {entry['owner']!r}")
        if entry["risk_tier"] is RiskTier.UNACCEPTABLE:
            _fail(f"{path}.risk_tier", "unacceptable systems may not be registered")
        public_key = entry["public_key"] or sha256(b"system-key" + sid.encode("utf-8"))
        if (first := system_keys.setdefault(public_key, path)) != path:
            _fail(f"{path}.public_key", f"same key as {first}")
        systems[sid] = SystemSpec(**{
            **entry, "public_key": public_key, "base_metrics": dict(entry["base_metrics"]),
            "purpose": sid if entry["purpose"] is None else entry["purpose"]})
        metric_maps.append((systems[sid].base_metrics, path, "base_metrics"))

    feeds: dict[int, list[tuple[str, Mapping[str, Any], str]]] = {}
    feed_keys: set[tuple[int, str]] = set()
    for i, feed in enumerate(doc.pop("oracle_feeds")):
        feed = _FEED(feed, path := f"oracle_feeds[{i}]")
        epoch, feed_id = feed["epoch"], feed["feed_id"]
        if feed["signer"] not in doc["oracle_authorities"]:
            _fail(f"{path}.signer", f"unknown oracle authority {feed['signer']!r}")
        if epoch > epochs:
            _fail(f"{path}.epoch", "must be within 1..epochs")
        if (epoch, feed_id) in feed_keys:
            _fail(f"{path}.feed_id", f"duplicate feed {feed_id!r} in epoch {epoch}")
        feed_keys.add((epoch, feed_id))
        metric_maps.append((feed["values"], path, "values"))
        feeds.setdefault(epoch, []).append((feed_id, feed["values"], feed["signer"]))

    violations, incidents, regulation_versions, collusions, proposals = {}, {}, {}, {}, {}
    version_paths: list[str] = []
    proposal_ids: dict[str, str] = {}
    weights = config.vote_weights()
    for i, event in enumerate(doc.pop("injected_events")):
        path = f"injected_events[{i}]"
        # An injected event is read through the declaration of its kind.
        kind = (event if type(event) is dict else _object(event, path)).get("kind")
        if type(kind) is not str or kind not in _INJECTIONS:
            _fail(f"{path}.kind", f"unknown injection kind {kind!r}")
        event = _INJECTIONS[kind](event, path)
        if (epoch := event["epoch"]) > epochs:
            _fail(f"{path}.epoch", "must be within 1..epochs")
        if kind in ("VIOLATION", "INCIDENT") and event["system"] not in systems:
            _fail(f"{path}.system", f"unknown system {event['system']!r}")
        if kind == "PROPOSAL":
            proposals.setdefault(epoch, []).append(_proposal(
                event["proposal"], f"{path}.proposal", stakeholders.keys(), proposal_ids,
                weights))
        elif kind == "VIOLATION":
            metric_maps.append((event["metrics"], path, "metrics"))
            violations.setdefault(epoch, []).append((event["system"], event["metrics"]))
        elif kind == "INCIDENT":
            incidents.setdefault(epoch, []).append((event["system"], event["severity"]))
        elif kind == "REGULATION_CHANGE":
            if epoch in regulation_versions:
                _fail(f"{path}.epoch", "one REGULATION_CHANGE per epoch")
            if (epoch, "regulation") in feed_keys:
                _fail(f"{path}.epoch", "an oracle feed of this epoch is named 'regulation'")
            version = event["version"]
            regulation_versions[epoch] = epoch if version is _THE_EPOCH else version
            version_paths.append(f"{path}.version")
        else:  # COLLUSION
            pair = event["pair"]
            if (any(type(p) is not str or p not in stakeholders for p in pair)
                    or len(set(pair)) != 2):
                _fail(f"{path}.pair", "needs two distinct known stakeholder ids")
            collusions.setdefault(epoch, []).append((tuple(pair), event["proposals"]))

    # The ids of proposals the scenario leaves unnamed and of collusion
    # proposals: one counter over the epochs in order, each epoch's scripted
    # proposals first, then its collusions'.
    sequence = itertools.count(1)

    def generated(prefix: str, epoch: int) -> str:
        proposal_id = f"{prefix}-{epoch}-{next(sequence):03d}"
        if proposal_id in proposal_ids:
            _fail(proposal_ids[proposal_id], f"{proposal_id!r} clashes with a generated id")
        return proposal_id

    for epoch in sorted(proposals.keys() | collusions.keys()):
        for spec in proposals.get(epoch, ()):
            if spec.id is None:
                spec.id = generated("prop", epoch)
        collusions[epoch] = [(pair, [generated("collusion", epoch) for _ in range(count)])
                             for pair, count in collusions.get(epoch, ())]

    every_rule = doc["rules"] + [spec.rule for specs in proposals.values() for spec in specs
                                 if spec.rule is not None]
    rule_metrics = {m for rule in every_rule for m in rule.metrics}
    # Sorted, so that of two bad values the loader always names the same one.
    ordered = tuple(sorted(set().union(
        *(compliance_mod.ordered_metrics(r.predicate) for r in every_rule))))
    for i, system in enumerate(systems.values()):
        if missing := sorted(rule_metrics - system.base_metrics.keys()):
            _fail(f"ai_systems[{i}].base_metrics", f"missing rule metrics: {', '.join(missing)}")
    # A value that a rule orders must be a JSON number (a bool is not one).
    for values, path, field_name in metric_maps:
        for metric in ordered:
            if metric in values and type(values[metric]) not in (int, float):
                _fail(f"{path}.{field_name}.{metric}",
                      "must be a number, as a rule compares it with >=, <=, > or <")
    # The version reaches the rules as the regulation_version metric.
    if compliance_mod.REGULATION_VERSION_KEY in ordered:
        for version, path in zip(regulation_versions.values(), version_paths):
            if type(version) not in (int, float):
                _fail(path, "must be a number, as a rule compares "
                      f"{compliance_mod.REGULATION_VERSION_KEY} with >=, <=, > or <")

    return SimScenario(**{**doc, "config": config, "stakeholders": list(stakeholders.values()),
                          "ai_systems": list(systems.values())}, digest=_digest(raw),
                       feeds=feeds, violations=violations, incidents=incidents,
                       regulation_versions=regulation_versions, collusions=collusions,
                       proposals=proposals)


@dataclass
class SimResult:
    chain: Chain
    report: dict
    registry: DidRegistry
    tokens: TokenLedger
    governance: governance_mod.GovernanceState
    # Off-chain assessment store: full metric vectors live here, never on
    # the ledger (auditors receive them through disclosure).
    assessments: list[compliance_mod.Assessment]
    risk_profiles: dict[str, risk_mod.RiskProfile]

    @property
    def root_hash(self) -> str:
        return self.chain.head_hash.hex()


class Simulator:
    def __init__(self, scenario: SimScenario, *, seed: Optional[int] = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.config = scenario.config

    # --- streams ---

    def _stream(self, label: str) -> DeterministicStream:
        return DeterministicStream(self.seed, label)

    # --- setup ---

    def _setup(self) -> None:
        config = self.config
        scheme = get_scheme(config.signature_scheme)
        self._authority_keys = {
            authority_id: scheme.generate(
                sha256(b"authority" + authority_id.encode("utf-8")))
            for authority_id in self.scenario.authorities
        }
        self.chain = Chain(
            {aid: kp.public for aid, kp in self._authority_keys.items()},
            quorum=config.quorum,
            capacity=config.block_capacity,
            scheme=config.signature_scheme,
        )
        self.chain.phase = Phase.SETUP

        self.tokens = TokenLedger.mint_genesis(
            config.pool_fractions,
            total_supply=config.total_supply,
            emission_divisor=config.emission_divisor,
            chain=self.chain,
            slash_fractions=config.slash_fractions,
            genesis_meta={
                "seed": self.seed,
                "epochs": self.scenario.epochs,
                "scenario_digest": self.scenario.digest,
                "config": config.to_snapshot(),
            },
        )

        self.rules = compliance_mod.RuleRegistry(self.chain)
        for rule in self.scenario.rules:
            self.rules.register_rule(rule, compliance_mod.GENESIS_AUTHORIZATION, epoch=0)

        self.governance = governance_mod.GovernanceState(
            self.chain, self.tokens, config.vote_weights())
        for spec in self.scenario.stakeholders:
            self.governance.add_stakeholder(
                governance_mod.Stakeholder(id=spec.id, role=spec.role))
            funding = spec.funding()
            if funding:
                self.tokens.grant(config.funding_pool, spec.id, funding, epoch=0)
            for amount, lock_epochs in spec.stakes:
                self.tokens.stake(spec.id, amount, lock_epochs, epoch=0)
        self.governance.sync_stakes()

        roles = {s.id: s.role for s in self.scenario.stakeholders}
        self.registry = DidRegistry(self.chain, ContentStore(), roles)

        self.audits = audit_mod.AuditRegistry(
            self.chain, self.rules, self.scenario.accreditors,
            intervals=config.audit_intervals,
            auditor_capacity=config.auditor_capacity,
        )
        for spec in self.scenario.stakeholders:
            if spec.auditor is not None:
                self.audits.accredit_auditor(spec.id, *spec.auditor, epoch=0)

        self.oracles = compliance_mod.OracleBook(self.chain, self.scenario.oracle_authorities)
        self.risk = risk_mod.RiskEngine(
            self.chain, self.registry,
            weights=config.risk_weights, thresholds=config.tier_thresholds)
        self.incidents = risk_mod.IncidentLog(self.chain, self.registry)

        self._system_ids: dict[str, str] = {}  # scenario id -> did
        self._system_specs: dict[str, SystemSpec] = {}
        for spec in self.scenario.ai_systems:
            metadata_blobs = None
            if spec.metadata is not None:
                metadata_blobs = [canonical_json_bytes(spec.metadata)]
            did = self.registry.register_did(
                spec.public_key, spec.purpose, spec.risk_tier, spec.owner,
                epoch=0, exposure=spec.exposure,
                metadata_blobs=metadata_blobs,
            )
            self._system_ids[spec.id] = did
            self._system_specs[did] = spec

        self._phase_elections(0)

        # Mutable run state.
        self._latest_assessment: dict[str, compliance_mod.Assessment] = {}
        self.assessment_log: list[compliance_mod.Assessment] = []
        # Running EWMA of each system's aggregate compliance score.
        self._forecast: dict[str, float] = {}
        # Hand-offs within an epoch: ingest's metric overrides for compliance,
        # and the audit phase's records for penalties.
        self._overrides: dict[str, dict] = {}
        self._audit_records: list[audit_mod.AuditRecord] = []
        # Audit triggers since the last audit phase, which consumes them.
        self._pending_triggers: dict[str, set[audit_mod.AuditTrigger]] = {}
        self._salt_stream = self._stream("assessment-salt")
        self._audit_stream = self._stream("audit-assign")
        self._vote_stream = self._stream("collusion-votes")

    # --- phase bodies: one per member of Phase after SETUP, in its order ---

    def _add_trigger(self, did: str, trigger: audit_mod.AuditTrigger) -> None:
        self._pending_triggers.setdefault(did, set()).add(trigger)

    def _phase_ingest(self, epoch: int) -> None:
        """Heartbeat, oracle feeds, injected events; keeps the metric overrides."""
        self.chain.append(EventKind.HEARTBEAT, {"epoch": epoch},
                          actor="simulator", epoch=epoch)

        scenario = self.scenario
        regulation_changed = False
        for feed_id, values, signer in scenario.feeds.get(epoch, ()):
            feed = compliance_mod.OracleFeed(feed_id, epoch, dict(values), signer)
            regulation_changed |= self.oracles.ingest(feed)
        if epoch in scenario.regulation_versions:
            signer = (scenario.oracle_authorities[0]
                      if scenario.oracle_authorities else "regulator-oracle")
            self.oracles.authorities.add(signer)
            version = {compliance_mod.REGULATION_VERSION_KEY: scenario.regulation_versions[epoch]}
            feed = compliance_mod.OracleFeed("regulation", epoch, version, signer)
            regulation_changed |= self.oracles.ingest(feed)
        if regulation_changed:
            for did in sorted(self.registry.records):
                self.registry.move_status(did, "regulation-change", epoch=epoch)

        for system, severity in scenario.incidents.get(epoch, ()):
            self.incidents.raise_incident(self._system_ids[system], severity, epoch=epoch)

        self._overrides = {}
        for system, metrics in scenario.violations.get(epoch, ()):
            did = self._system_ids[system]
            self._overrides.setdefault(did, {}).update(metrics)
            self._add_trigger(did, audit_mod.AuditTrigger.VIOLATION)

    def _active_systems(self) -> list[str]:
        return [did for did in sorted(self.registry.records)
                if self.registry.records[did].compliance_status
                != ComplianceStatus.SUSPENDED]

    def _phase_compliance(self, epoch: int) -> None:
        oracle_values = self.oracles.values_for(epoch)
        for did in self._active_systems():
            record = self.registry.records[did]
            override = self._overrides.get(did, {})
            # Each base metric: the override, else the oracle's value, else
            # the base. Oracle feeds may carry market values outside the rule
            # metric set; assessments commit to the rule-relevant vector only.
            metrics = {k: override.get(k, oracle_values.get(k, v))
                       for k, v in self._system_specs[did].base_metrics.items()}
            salt = self._salt_stream.bytes_(32)
            assessment = compliance_mod.evaluate(
                record, metrics, epoch, self.rules, salt=salt)
            self._latest_assessment[did] = assessment
            self.assessment_log.append(assessment)
            self._forecast[did] = risk_mod.ewma_step(
                self._forecast.get(did), assessment.aggregate_score,
                self.config.ewma_alpha)
            if not assessment.compliant:
                self._add_trigger(did, audit_mod.AuditTrigger.MITIGATION)
            else:
                self.registry.move_status(did, "clean-assessment", epoch=epoch)

    def _phase_risk(self, epoch: int) -> None:
        for incident in list(self.incidents.active.values()):
            last_epoch = incident.transitions[-1][1]
            if last_epoch < epoch:
                self.incidents.advance_incident(incident, epoch=epoch)
        for did in self._active_systems():
            assessment = self._latest_assessment.get(did)
            if assessment is None or assessment.epoch != epoch:
                continue
            self.risk.update(
                did, epoch, assessment.aggregate_score,
                audit_failed=(did, epoch - 1) in self.audits.failed,
                incident_count=self.incidents.open_count(did),
                exposure=self.registry.records[did].exposure,
            )
            if self._forecast[did] < self.config.forecast_floor:
                self._add_trigger(did, audit_mod.AuditTrigger.FORECAST)

    def _phase_audit(self, epoch: int) -> None:
        # Each system is audited under the first of its triggers in declaration order.
        triggers = {did: next(t for t in audit_mod.AuditTrigger if t in pending)
                    for did, pending in self._pending_triggers.items()}
        self._pending_triggers = {}

        assignments = self.audits.schedule_audits(
            epoch, self.registry.records,
            triggers=triggers, stream=self._audit_stream)
        self._audit_records = []
        for assignment in assignments:
            assessment = self._latest_assessment.get(assignment.system_did)
            if assessment is None:
                continue
            self._audit_records.append(self.audits.perform_audit(
                assignment.auditor_id,
                self.registry.records[assignment.system_did],
                assessment.metric_values,
                assessment.salt,
                assessment.commitment,
                epoch=epoch,
                trigger=assignment.trigger,
            ))

    def _phase_penalties(self, epoch: int) -> None:
        for record in self._audit_records:
            did = record.system_did
            if record.outcome == audit_mod.AuditOutcome.FAIL:
                self.tokens.slash(self.registry.records[did].owner,
                                  record.trigger.slash_reason, epoch=epoch)
                self.registry.move_status(did, "failed-audit", epoch=epoch)
            else:
                self.registry.move_status(did, "passed-audit", epoch=epoch)
        self.governance.sync_stakes()

    def _phase_governance(self, epoch: int) -> None:
        tallied = []  # (proposal id, the rule it registers if it passes)

        for spec in self.scenario.proposals.get(epoch, ()):
            self.governance.submit_proposal(
                spec.id, spec.kind, spec.payload, mode=spec.mode, epoch=epoch)
            for voter, (direction, magnitude) in spec.votes.items():
                self.governance.cast_vote(
                    voter, spec.id, direction, magnitude=magnitude, epoch=epoch)
            tallied.append((spec.id, spec.rule))

        for pair, proposal_ids in self.scenario.collusions.get(epoch, ()):
            for proposal_id in proposal_ids:
                self.governance.submit_proposal(
                    proposal_id, governance_mod.ProposalKind.ROUTINE,
                    {"scripted": "coordinated-voting"}, epoch=epoch)
                direction = (governance_mod.VoteDirection.FOR
                             if self._vote_stream.randbelow(2) == 0
                             else governance_mod.VoteDirection.AGAINST)
                for voter in pair:
                    self.governance.cast_vote(voter, proposal_id, direction, epoch=epoch)
                tallied.append((proposal_id, None))

        for proposal_id, rule in tallied:
            status = self.governance.tally(proposal_id, epoch=epoch)
            proposal = self.governance.proposals[proposal_id]
            if status != governance_mod.ProposalStatus.PASSED:
                continue
            if proposal.kind == governance_mod.ProposalKind.WEIGHT_ADJUSTMENT:
                self.governance.adjust_weights(proposal, epoch=epoch)
            elif proposal.kind == governance_mod.ProposalKind.RULE_UPDATE:
                self.rules.register_rule(rule, proposal, epoch=epoch)

        for pair in self.governance.flag_collusion(
                self.config.collusion_min_common, self.config.collusion_agreement,
                self.config.collusion_penalty, epoch=epoch):
            for did, spec in self._system_specs.items():
                if spec.owner in pair:
                    self._add_trigger(did, audit_mod.AuditTrigger.COLLUSION)

    def _phase_elections(self, epoch: int) -> None:
        """Every election_period epochs, and once at set-up (epoch 0)."""
        if epoch % self.config.election_period:
            return
        seats = min(self.config.n_seats, self.governance.powered_count())
        if seats >= 1:
            self.governance.run_election(seats, epoch=epoch)

    def _phase_rewards(self, epoch: int) -> None:
        owned: dict[str, list[Fraction]] = {}
        for did, assessment in self._latest_assessment.items():
            owner = self.registry.records[did].owner
            owned.setdefault(owner, []).append(assessment.aggregate_score)
        # Each owner's factor is the mean of its scores, summed on integers.
        factors = {owner: sum_terms((s.numerator, s.denominator * len(scores)) for s in scores)
                   for owner, scores in owned.items()}
        self.tokens.distribute_rewards(epoch, factors)

    def _phase_sealing(self, epoch: int) -> None:
        """Seal the epoch's events, then lift the collusion penalties that expire."""
        self.chain.seal_all({aid: kp.private for aid, kp in self._authority_keys.items()})
        self.governance.expire_penalties(epoch)

    # --- main loop ---

    def run(self) -> SimResult:
        self._setup()
        # Phase is the one statement of the epoch order.
        phases = [(phase, getattr(self, f"_phase_{phase.name.lower()}"))
                  for phase in Phase if phase is not Phase.SETUP]
        for epoch in range(1, self.scenario.epochs + 1):
            self.governance.apply_staged_weights()
            for phase, run_phase in phases:
                self.chain.phase = phase
                run_phase(epoch)

        # The report from the live stores; verify_run proves it equals the fold.
        # A tier is a report key: a plain str, looked up per member.
        value = {member: member.value for member in RiskTier}
        report = layout(
            self.chain.blocks, self.scenario.epochs,
            [(value[a.tier], a.compliant) for a in self.assessment_log], self.audits.records,
            self.tokens,
            {did: [[epoch, str(score)] for epoch, score, _ in profile.history]
             for did, profile in self.risk.profiles.items()},
            self.incidents.incidents, self.governance.proposals)
        return SimResult(
            chain=self.chain, report=report, registry=self.registry,
            tokens=self.tokens, governance=self.governance,
            assessments=self.assessment_log,
            risk_profiles=self.risk.profiles)


def run_scenario(
    source: str | Path | Mapping[str, Any],
    *,
    seed: Optional[int] = None,
) -> SimResult:
    scenario = load_scenario(source)
    return Simulator(scenario, seed=seed).run()


def fold_run(chain_path: str | Path, report_path: Optional[str | Path] = None):
    """(verification, fold report, stored report) of a chain file: the report of its
    ``verified_fold``, and the report at ``report_path``, else beside the chain; both None if
    the chain fails or there is none. The fold, and with it the chain, is dropped once its
    report is built, before the stored report is read, so the two are never held at once."""
    verification, fold = verified_fold(load_chain(chain_path))
    if report_path is None:
        sibling = Path(chain_path).parent / "report.json"
        report_path = sibling if sibling.exists() else None
    if report_path is None or fold is None:
        return verification, None, None
    built = fold.report()
    del fold
    return verification, built, load_report(report_path)


def verify_run(chain_path: str | Path, report_path: Optional[str | Path] = None):
    """Chain integrity, every body and phase stamp against its kind's
    declaration, and report/chain consistency, all from one fold.

    Returns (verification, report_matches) where report_matches is None when
    the chain fails or no report was supplied or found next to the chain file.
    """
    verification, built, stored = fold_run(chain_path, report_path)
    return verification, None if stored is None else stored == built
