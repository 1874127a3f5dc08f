"""Deterministic discrete-event scenario runner.

Each epoch executes a fixed phase order:

    1 oracle ingest + injected events     6 proposals, votes, tallies,
    2 compliance evaluation                 weight staging, collusion scan
    3 incident advance, risk scoring,     7 delegate elections (period epochs)
      reclassification, forecasting       8 reward distribution
    4 audit scheduling + execution        9 block sealing
    5 penalties and slashes

Setup (registries, genesis mint, funding, accreditation, registration,
initial election) runs as phase 0 of epoch 0 and seals together with the
first epoch. All randomness flows from counter-based streams derived from
the scenario seed, one stream per consumer.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from . import audit as audit_mod
from . import compliance as compliance_mod
from . import governance as governance_mod
from . import risk as risk_mod
from .encoding import as_fraction, canonical_json_bytes, json_value, read_json, sha256
from .errors import (
    EncodingError,
    GovSimError,
    InvalidInput,
    InvalidWeights,
    IoError,
    ScenarioError,
)
from .identity import (
    ComplianceStatus,
    ContentStore,
    DidRegistry,
    RiskTier,
    Role,
)
from .keys import SeededScheme, get_scheme
from .ledger import DEFAULT_BLOCK_CAPACITY, Chain, EventKind, Phase, load_chain
from .report import load_report, tally_events, verified_fold
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

# Value -> member: the loader reads each enum field once per event, proposal
# or vote, and a dict lookup is far cheaper than calling the enum.
_ROLES, _TIERS, _SEVERITIES, _DOMAINS, _PROPOSAL_KINDS, _VOTE_MODES, _VOTE_DIRECTIONS = (
    {member.value: member for member in enum} for enum in (
        Role, RiskTier, risk_mod.Severity, compliance_mod.RuleDomain, governance_mod.ProposalKind,
        governance_mod.VoteMode, governance_mod.VoteDirection))

# Priority order when one system accrues several audit triggers in an epoch.
_TRIGGER_PRIORITY = ["collusion", "mitigation", "violation", "forecast"]


def _at_least(low: int) -> Callable[[Any], int]:
    """The one integer reader of config keys and scenario fields: a JSON
    integer (not a bool, not a float) of at least ``low``."""
    def parse(value: Any) -> int:
        if type(value) is not int or value < low:
            raise InvalidInput(f"must be an integer >= {low}")
        return value
    return parse


def _float_where(test: Callable[[float], bool], bound: str) -> Callable[[Any], float]:
    """A JSON number (not a bool, not a string) that passes ``test``, which
    refuses NaN and the infinities."""
    def parse(value: Any) -> float:
        if type(value) not in (int, float) or not test(value):
            raise InvalidInput(f"must be {bound}")
        return float(value)
    return parse


def _slash_fraction(value: Any) -> Fraction:
    fraction = as_fraction(value)
    if not 0 < fraction <= 1:
        raise InvalidInput("slash fractions must be in (0, 1]")
    return fraction


def _table(key: Callable[[Any], Any], value: Callable[[Any], Any],
           defaults: Optional[Mapping] = None) -> Callable[[Any], dict]:
    """A table whose left-out entries keep their ``defaults``."""
    def parse(raw: Any) -> dict:
        if not isinstance(raw, Mapping):
            raise InvalidInput("must be an object")
        return {**(defaults or {}), **{key(k): value(v) for k, v in raw.items()}}
    return parse


def _key(default: Any, parse: Callable[[Any], Any], snapshot: Optional[str] = "") -> Any:
    """Declare a config key: its default (a dict is copied per config), the
    parser of its JSON value, with the bounds the run relies on, and where
    the genesis snapshot records it: under the field's name (""), at a
    dotted path, or not at all (None)."""
    metadata = {"parse": parse, "snapshot": snapshot}
    if isinstance(default, dict):
        return field(default_factory=lambda: dict(default), metadata=metadata)
    return field(default=default, metadata=metadata)


# The genesis snapshot leaves out quorum, the vote multipliers and the token
# tables, so that the genesis bytes of existing runs stay as they are.
@dataclass
class SimConfig:
    """The run's settings: each field is one scenario config key."""
    block_capacity: int = _key(DEFAULT_BLOCK_CAPACITY, _at_least(1))
    signature_scheme: str = _key(SeededScheme.name, lambda value: get_scheme(value).name)
    quorum: Optional[int] = _key(
        None, lambda value: None if value is None else _at_least(1)(value), snapshot=None)
    n_seats: int = _key(3, _at_least(1))
    election_period: int = _key(4, _at_least(1))
    cap_fraction: Fraction = _key(governance_mod.VoteWeights.cap_fraction, as_fraction)
    regulator_multiplier: Fraction = _key(
        governance_mod.DEFAULT_REGULATOR_MULTIPLIER, as_fraction, snapshot=None)
    role_multiplier: dict[Role, Fraction] = _key(
        {}, _table(Role, as_fraction), snapshot=None)
    threshold_routine: Fraction = _key(
        governance_mod.VoteWeights.threshold_routine, as_fraction)
    threshold_critical: Fraction = _key(
        governance_mod.VoteWeights.threshold_critical, as_fraction)
    collusion_min_common: int = _key(10, _at_least(1), snapshot="collusion.min_common")
    collusion_agreement: Fraction = _key(
        Fraction(9, 10), as_fraction, snapshot="collusion.agreement")
    collusion_penalty: Fraction = _key(
        governance_mod.DEFAULT_COLLUSION_PENALTY, as_fraction, snapshot="collusion.penalty")
    audit_intervals: dict[RiskTier, int] = _key(
        audit_mod.DEFAULT_AUDIT_INTERVALS,
        _table(RiskTier, _at_least(1), audit_mod.DEFAULT_AUDIT_INTERVALS))
    auditor_capacity: int = _key(audit_mod.DEFAULT_AUDITOR_CAPACITY, _at_least(1))
    risk_weights: risk_mod.RiskWeights = _key(
        risk_mod.RiskWeights(), risk_mod.RiskWeights.from_json)
    tier_thresholds: risk_mod.TierThresholds = _key(
        risk_mod.TierThresholds(), risk_mod.TierThresholds.from_json)
    ewma_alpha: float = _key(risk_mod.DEFAULT_EWMA_ALPHA, _float_where(
        lambda number: 0 < number < 1, "a number in (0, 1)"))
    forecast_floor: float = _key(
        risk_mod.DEFAULT_FORECAST_FLOOR, _float_where(math.isfinite, "a finite number"))
    total_supply: int = _key(DEFAULT_TOTAL_SUPPLY, _at_least(0), snapshot=None)
    pool_fractions: dict[Pool, Fraction] = _key(
        DEFAULT_POOL_FRACTIONS,
        lambda value: validate_pool_fractions(_table(Pool, as_fraction)(value)), snapshot=None)
    emission_divisor: int = _key(DEFAULT_EMISSION_DIVISOR, _at_least(1))
    slash_fractions: dict[SlashReason, Fraction] = _key(
        DEFAULT_SLASH_FRACTIONS,
        _table(SlashReason, _slash_fraction, DEFAULT_SLASH_FRACTIONS), snapshot=None)
    funding_pool: Pool = _key(Pool.DEVELOPMENT, Pool)

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


# Config key -> parser of its JSON value into the SimConfig field.
_CONFIG_PARSERS: dict[str, Callable[[Any], Any]] = {
    f.name: f.metadata["parse"] for f in fields(SimConfig)}


@dataclass
class StakeholderSpec:
    id: str
    role: Role
    balance: int = 0
    stakes: list[tuple[int, int]] = field(default_factory=list)  # (amount, lock_epochs)
    # (accrediting body, scopes, validity_epochs), as accredit_auditor takes them.
    auditor: Optional[tuple[str, list[compliance_mod.RuleDomain], int]] = None

    def funding(self) -> int:
        """What set-up grants from the funding pool: the balance plus every stake."""
        return self.balance + sum(amount for amount, _ in self.stakes)


@dataclass
class SystemSpec:
    id: str
    owner: str
    purpose: str
    risk_tier: RiskTier
    public_key: bytes  # as given, or derived from the id
    exposure: Fraction = Fraction(1, 2)
    base_metrics: dict[str, Any] = field(default_factory=dict)
    metadata: Optional[dict] = None


@dataclass(slots=True)
class ProposalSpec:
    id: str  # as given, or the one load_scenario generates
    kind: governance_mod.ProposalKind
    mode: governance_mod.VoteMode
    payload: Any
    votes: dict[str, tuple[governance_mod.VoteDirection, int]]  # voter -> (direction, magnitude)
    rule: Optional[compliance_mod.ComplianceRuleModule]  # a RULE_UPDATE's rule


@dataclass
class SimScenario:
    """Every input parsed into the value the run uses; the scripted inputs
    keyed by the epoch they fire in, each list in scenario order."""
    seed: int
    epochs: int
    config: SimConfig
    authorities: list[str]
    oracle_authorities: list[str]
    accreditors: list[str]
    stakeholders: list[StakeholderSpec]
    ai_systems: list[SystemSpec]
    rules: list[compliance_mod.ComplianceRuleModule]
    digest: str  # hex sha256 of the scenario's canonical JSON
    feeds: dict[int, list[tuple[str, Mapping[str, Any], str]]]  # (feed_id, values, signer)
    violations: dict[int, list[tuple[str, Mapping[str, Any]]]]  # (system, metric overrides)
    incidents: dict[int, list[tuple[str, risk_mod.Severity]]]  # (system, severity)
    regulation_versions: dict[int, Any]
    collusions: dict[int, list[tuple[tuple[str, str], list[str]]]]  # (pair, proposal ids)
    proposals: dict[int, list[ProposalSpec]]


def _fail(path: str, message: str) -> None:
    raise ScenarioError(f"{path}: {message}")


def _object(value: Any, path: str) -> Mapping[str, Any]:
    # The dict test first: it is the common case, and the Mapping check is slow.
    if type(value) is not dict and not isinstance(value, Mapping):
        _fail(path, "must be an object")
    return value


def _array(value: Any, path: str) -> Sequence[Any]:
    if not isinstance(value, (list, tuple)):
        _fail(path, "must be an array")
    return value


def _name(value: Any, path: str) -> str:
    """A scenario id: a non-empty string that encodes as UTF-8 (no lone
    surrogate), as the run sorts, hashes and encodes it."""
    if type(value) is not str or not value:
        _fail(path, "must be a non-empty string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        _fail(path, "must encode as UTF-8 (it holds a lone surrogate)")
    return value


def _integer(value: Any, path: str, low: int) -> int:
    """A scenario count or amount, read as a config integer is."""
    try:
        return _at_least(low)(value)
    except InvalidInput as exc:
        _fail(path, str(exc))


def _epoch(value: Any, epochs: int, path: str) -> int:
    if type(value) is not int or not 1 <= value <= epochs:
        _fail(path, "must be within 1..epochs")
    return value


def _member(members: Mapping[str, Any], value: Any, path: str, what: str) -> Any:
    try:
        return members[value]
    except (KeyError, TypeError):
        _fail(path, f"unknown {what} {value!r}")


def _digest(raw: Mapping[str, Any]) -> str:
    """The scenario digest. Only if the encoding fails is the document walked
    (breadth first), to name the NaN or infinity at fault."""
    try:
        return sha256(canonical_json_bytes(raw)).hex()
    except EncodingError as exc:
        todo = [(str(key), value) for key, value in raw.items()]
        for path, value in todo:  # extended while it is walked
            if isinstance(value, float) and not math.isfinite(value):
                _fail(path, "must be a finite number")
            if isinstance(value, Mapping):
                todo += [(f"{path}.{key}", item) for key, item in value.items()]
            elif isinstance(value, (list, tuple)):
                todo += [(f"{path}[{i}]", item) for i, item in enumerate(value)]
        raise ScenarioError(f"scenario: {exc}") from None


def _numbers(values: Mapping[str, Any], ordered: tuple[str, ...], path: str,
             field: str) -> None:
    """Refuse a metric value that a rule orders with >=, <=, > or < unless it
    is a JSON number (a bool is not one); ``path.field.metric`` is built only
    to report a failure."""
    if values.keys().isdisjoint(ordered):
        return
    for metric in ordered:
        if metric in values and type(values[metric]) not in (int, float):
            _fail(f"{path}.{field}.{metric}",
                  "must be a number, as a rule compares it with >=, <=, > or <")


def _parse_config(raw: Any) -> SimConfig:
    if not isinstance(raw, Mapping):
        _fail("config", "must be an object")
    config = SimConfig()
    for key, value in raw.items():
        parse = _CONFIG_PARSERS.get(key)
        if parse is None:
            _fail(f"config.{key}", "unknown config key")
        try:
            setattr(config, key, parse(value))
        except KeyError as exc:
            _fail(f"config.{key}", f"missing key {exc}")
        except (GovSimError, ArithmeticError, TypeError, ValueError) as exc:
            _fail(f"config.{key}", str(exc))
    try:
        config.vote_weights()
    except InvalidWeights as exc:
        _fail("config", str(exc))
    return config


def _parse_rule(raw: Mapping[str, Any], path: str) -> compliance_mod.ComplianceRuleModule:
    mandatory = raw.get("mandatory", True)
    if type(mandatory) is not bool:
        _fail(f"{path}.mandatory", "must be true or false")
    try:
        rule = compliance_mod.ComplianceRuleModule(
            rule_id=_name(raw.get("rule_id"), f"{path}.rule_id"),
            domain=_DOMAINS[raw["domain"]],
            predicate=raw["predicate"],
            metrics=tuple(raw["metrics"]),
            mandatory=mandatory,
            applicable_tiers=frozenset(
                _TIERS[t] for t in raw.get("applicable_tiers", ["HIGH", "LIMITED", "MINIMAL"])),
            weight=_integer(raw.get("weight", 1), f"{path}.weight", 1),
        )
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        _fail(path, f"bad rule: {exc}")
    if not all(type(metric) is str for metric in rule.metrics):
        _fail(path, "bad rule: needs metric names")
    try:
        compliance_mod.validate_predicate(rule.predicate, rule.metrics)
    except GovSimError as exc:
        _fail(f"{path}.predicate", str(exc))
    return rule


def _parse_proposal(raw: Any, path: str, holders: set[str], ids: dict[str, str],
                    weights: governance_mod.VoteWeights) -> ProposalSpec:
    """The proposal, its id None if the scenario gives none; ``ids`` maps
    each explicit id to its field path."""
    proposal = _object(raw, path)
    kind = _member(_PROPOSAL_KINDS, proposal.get("kind"), f"{path}.kind", "kind")
    mode = _member(_VOTE_MODES, proposal.get("mode", "LINEAR"), f"{path}.mode", "mode")
    explicit_id = proposal.get("id")
    if explicit_id is not None:
        if _name(explicit_id, f"{path}.id") in ids:
            _fail(f"{path}.id", f"duplicate id {explicit_id!r}")
        ids[explicit_id] = f"{path}.id"
    payload = proposal.get("payload", {})
    rule = None
    if kind is governance_mod.ProposalKind.RULE_UPDATE:
        rule_path = f"{path}.payload.rule"
        rule = _parse_rule(_object(_object(payload, f"{path}.payload").get("rule"), rule_path),
                           rule_path)
    elif kind is governance_mod.ProposalKind.WEIGHT_ADJUSTMENT:
        try:
            weights.adjusted(payload)
        except InvalidWeights as exc:
            _fail(f"{path}.payload", str(exc))
    # Every stakeholder may vote on every proposal, so these checks run per
    # vote and build a field path only to report a failure.
    votes: dict[str, tuple[governance_mod.VoteDirection, int]] = {}
    linear = mode is governance_mod.VoteMode.LINEAR
    for j, vote in enumerate(_array(proposal.get("votes", []), f"{path}.votes")):
        if type(vote) is not dict and not isinstance(vote, Mapping):
            _fail(f"{path}.votes[{j}]", "must be an object")
        voter, magnitude = vote.get("voter"), vote.get("magnitude", 1)
        if type(voter) is not str or voter not in holders:
            _fail(f"{path}.votes[{j}].voter", f"unknown stakeholder {voter!r}")
        if voter in votes:
            _fail(f"{path}.votes[{j}].voter", f"{voter!r} already voted on this proposal")
        try:
            direction = _VOTE_DIRECTIONS[vote.get("direction")]
        except (KeyError, TypeError):
            _fail(f"{path}.votes[{j}].direction",
                  f"unknown direction {vote.get('direction')!r}")
        if type(magnitude) is not int or magnitude < 1 or (linear and magnitude != 1):
            _fail(f"{path}.votes[{j}].magnitude",
                  "must be an integer >= 1, and 1 on a LINEAR proposal")
        votes[voter] = (direction, magnitude)
    return ProposalSpec(explicit_id, kind, mode, payload, votes, rule)


def load_scenario(source: str | Path | Mapping[str, Any]) -> SimScenario:
    """Parse and validate a scenario into all the run reads; errors carry the
    offending field path."""
    if isinstance(source, (str, Path)):
        try:
            source = read_json(source, "scenario")
        except IoError as exc:
            raise ScenarioError(str(exc)) from exc
    if not isinstance(source, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    raw = dict(source)

    seed = raw.get("seed", 0)
    if type(seed) is not int:
        _fail("seed", "must be an integer")
    epochs = _integer(raw.get("epochs"), "epochs", 1)
    config = _parse_config(raw.get("config", {}))

    authorities = [_name(authority, f"authorities[{i}]") for i, authority in enumerate(_array(
        raw.get("authorities", ["authority-1", "authority-2", "authority-3"]), "authorities"))]
    if not authorities:
        _fail("authorities", "at least one sealing authority required")
    for i, authority in enumerate(authorities):
        if authority in authorities[:i]:
            _fail(f"authorities[{i}]", f"duplicate id {authority!r}")
    if config.quorum is not None and config.quorum > len(authorities):
        _fail("config.quorum", f"exceeds the {len(authorities)} sealing authorities")
    oracle_authorities = list(_array(raw.get("oracle_authorities", []), "oracle_authorities"))
    accreditors = list(_array(raw.get("accreditors", []), "accreditors"))

    stakeholders: list[StakeholderSpec] = []
    seen_ids: set[str] = set()
    # Set-up grants each stakeholder's balance and stakes from the funding pool.
    pool_share = genesis_pools(
        config.pool_fractions, config.total_supply)[config.funding_pool]
    granted = 0
    for i, entry in enumerate(_array(raw.get("stakeholders", []), "stakeholders")):
        path = f"stakeholders[{i}]"
        sid = _name(_object(entry, path).get("id"), f"{path}.id")
        if sid in seen_ids:
            _fail(f"{path}.id", f"duplicate id {sid!r}")
        seen_ids.add(sid)
        role = _member(_ROLES, entry.get("role"), f"{path}.role", "role")
        stakes = []
        for j, stake in enumerate(_array(entry.get("stakes", []), f"{path}.stakes")):
            stake_path = f"{path}.stakes[{j}]"
            _object(stake, stake_path)
            stakes.append((_integer(stake.get("amount"), f"{stake_path}.amount", 1),
                           _integer(stake.get("lock_epochs"), f"{stake_path}.lock_epochs", 1)))
        auditor = entry.get("auditor")
        if auditor is not None:
            _object(auditor, f"{path}.auditor")
            if role is not Role.AUDITOR:
                _fail(f"{path}.auditor", "auditor block on a non-AUDITOR stakeholder")
            body = auditor.get("body")
            scopes = _array(auditor.get("scopes"), f"{path}.auditor.scopes")
            if body not in accreditors:
                _fail(f"{path}.auditor.body", f"unknown accreditor {body!r}")
            if not scopes:
                _fail(f"{path}.auditor.scopes", "needs at least one domain")
            auditor = (body, [_member(_DOMAINS, scope, f"{path}.auditor.scopes[{k}]", "domain")
                              for k, scope in enumerate(scopes)], _integer(auditor.get(
                "validity_epochs", epochs + 1), f"{path}.auditor.validity_epochs", 1))
        stakeholders.append(StakeholderSpec(
            id=sid, role=role,
            balance=_integer(entry.get("balance", 0), f"{path}.balance", 0),
            stakes=stakes, auditor=auditor,
        ))
        granted += stakeholders[-1].funding()
        if granted > pool_share:
            _fail(path, f"grants total {granted}, above the {config.funding_pool.value} "
                        f"pool's genesis share of {pool_share}")

    rules = [_parse_rule(_object(r, f"rules[{i}]"), f"rules[{i}]")
             for i, r in enumerate(_array(raw.get("rules", []), "rules"))]

    systems: list[SystemSpec] = []
    system_ids: set[str] = set()
    system_keys: dict[bytes, str] = {}  # effective public key -> its system's path
    for i, entry in enumerate(_array(raw.get("ai_systems", []), "ai_systems")):
        path = f"ai_systems[{i}]"
        sid = _name(_object(entry, path).get("id"), f"{path}.id")
        if sid in system_ids:
            _fail(f"{path}.id", f"duplicate id {sid!r}")
        system_ids.add(sid)
        if type(entry.get("owner")) is not str or entry["owner"] not in seen_ids:
            _fail(f"{path}.owner", f"unknown stakeholder {entry.get('owner')!r}")
        tier = _member(_TIERS, entry.get("risk_tier"), f"{path}.risk_tier", "tier")
        if tier is RiskTier.UNACCEPTABLE:
            _fail(f"{path}.risk_tier", "unacceptable systems may not be registered")
        try:
            public_key = bytes.fromhex(entry.get("public_key", ""))
        except (TypeError, ValueError):
            _fail(f"{path}.public_key", "must be hex")
        # No key, or an empty one, stands for the key derived from the id.
        public_key = public_key or sha256(b"system-key" + sid.encode("utf-8"))
        if (first := system_keys.setdefault(public_key, path)) != path:
            _fail(f"{path}.public_key", f"same key as {first}")
        try:
            exposure = as_fraction(entry.get("exposure", "1/2"))
        except (GovSimError, ValueError) as exc:
            _fail(f"{path}.exposure", str(exc))
        if not 0 <= exposure <= 1:
            _fail(f"{path}.exposure", "must be in [0, 1]")
        systems.append(SystemSpec(
            id=sid, owner=entry["owner"], purpose=entry.get("purpose", sid),
            risk_tier=tier, exposure=exposure,
            base_metrics=dict(_object(entry.get("base_metrics", {}), f"{path}.base_metrics")),
            metadata=entry.get("metadata"), public_key=public_key,
        ))

    # (values, path, field) to check once every rule, RULE_UPDATE too, is parsed.
    metric_maps: list[tuple[Mapping[str, Any], str, str]] = []
    feeds: dict[int, list[tuple[str, Mapping[str, Any], str]]] = {}
    feed_keys: set[tuple[int, str]] = set()
    for i, feed in enumerate(_array(raw.get("oracle_feeds", []), "oracle_feeds")):
        path = f"oracle_feeds[{i}]"
        if _object(feed, path).get("signer") not in oracle_authorities:
            _fail(f"{path}.signer", f"unknown oracle authority {feed.get('signer')!r}")
        epoch = _epoch(feed.get("epoch"), epochs, f"{path}.epoch")
        feed_id = _name(feed.get("feed_id"), f"{path}.feed_id")
        if (epoch, feed_id) in feed_keys:
            _fail(f"{path}.feed_id", f"duplicate feed {feed_id!r} in epoch {epoch}")
        feed_keys.add((epoch, feed_id))
        values = feed.get("values")
        if type(values) is not dict:
            _object(values, f"{path}.values")
        metric_maps.append((values, path, "values"))
        feeds.setdefault(epoch, []).append((feed_id, values, feed["signer"]))

    violations, incidents, regulation_versions, collusions, proposals = {}, {}, {}, {}, {}
    version_paths: list[str] = []
    proposal_ids: dict[str, str] = {}
    weights = config.vote_weights()
    for i, event in enumerate(_array(raw.get("injected_events", []), "injected_events")):
        path = f"injected_events[{i}]"
        kind = _object(event, path).get("kind")
        epoch = _epoch(event.get("epoch"), epochs, f"{path}.epoch")
        if kind in ("VIOLATION", "INCIDENT") and (
                type(event.get("system")) is not str or event["system"] not in system_ids):
            _fail(f"{path}.system", f"unknown system {event.get('system')!r}")
        if kind == "PROPOSAL":
            proposals.setdefault(epoch, []).append(_parse_proposal(
                event.get("proposal", {}), f"{path}.proposal", seen_ids, proposal_ids, weights))
        elif kind == "VIOLATION":
            if not isinstance(event.get("metrics"), dict):
                _fail(f"{path}.metrics", "VIOLATION needs a metrics override map")
            metric_maps.append((event["metrics"], path, "metrics"))
            violations.setdefault(epoch, []).append((event["system"], event["metrics"]))
        elif kind == "INCIDENT":
            incidents.setdefault(epoch, []).append((event["system"], _member(
                _SEVERITIES, event.get("severity"), f"{path}.severity", "severity")))
        elif kind == "REGULATION_CHANGE":
            if epoch in regulation_versions:
                _fail(f"{path}.epoch", "one REGULATION_CHANGE per epoch")
            if (epoch, "regulation") in feed_keys:
                _fail(f"{path}.epoch", "an oracle feed of this epoch is named 'regulation'")
            regulation_versions[epoch] = event.get("version", epoch)
            version_paths.append(f"{path}.version")
        elif kind == "COLLUSION":
            pair = _array(event.get("pair", []), f"{path}.pair")
            if (any(type(p) is not str or p not in seen_ids for p in pair)
                    or len(set(pair)) != 2):
                _fail(f"{path}.pair", "needs two distinct known stakeholder ids")
            collusions.setdefault(epoch, []).append(
                (tuple(pair), _integer(event.get("proposals"), f"{path}.proposals", 1)))
        else:
            _fail(f"{path}.kind", f"unknown injection kind {kind!r}")

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

    every_rule = rules + [spec.rule for specs in proposals.values() for spec in specs
                          if spec.rule is not None]
    rule_metrics = {m for rule in every_rule for m in rule.metrics}
    # Sorted, so that of two bad values the loader always names the same one.
    ordered = tuple(sorted(set().union(
        *(compliance_mod.ordered_metrics(r.predicate) for r in every_rule))))
    for i, system in enumerate(systems):
        missing = sorted(rule_metrics - system.base_metrics.keys())
        if missing:
            _fail(f"ai_systems[{i}].base_metrics", f"missing rule metrics: {', '.join(missing)}")
        _numbers(system.base_metrics, ordered, f"ai_systems[{i}]", "base_metrics")
    for values, path, field_name in metric_maps:
        _numbers(values, ordered, path, field_name)
    # The version reaches the rules as the regulation_version metric.
    if compliance_mod.REGULATION_VERSION_KEY in ordered:
        for version, path in zip(regulation_versions.values(), version_paths):
            if type(version) not in (int, float):
                _fail(path, "must be a number, as a rule compares "
                      f"{compliance_mod.REGULATION_VERSION_KEY} with >=, <=, > or <")

    return SimScenario(
        seed=seed, epochs=epochs, config=config,
        authorities=authorities, oracle_authorities=oracle_authorities,
        accreditors=accreditors, stakeholders=stakeholders, ai_systems=systems,
        rules=rules, digest=_digest(raw), feeds=feeds, violations=violations,
        incidents=incidents, regulation_versions=regulation_versions,
        collusions=collusions, proposals=proposals)


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

        self._run_election(epoch=0)

        # Mutable run state.
        self._latest_assessment: dict[str, compliance_mod.Assessment] = {}
        self.assessment_log: list[compliance_mod.Assessment] = []
        # Running EWMA of each system's aggregate compliance score.
        self._forecast: dict[str, float] = {}
        self._audit_failed_prev: dict[str, bool] = {}
        # Audit triggers since the last audit phase, which consumes them.
        self._pending_triggers: dict[str, set[str]] = {}
        self._collusion_expiry: dict[str, int] = {}
        self._flagged_pairs: set[tuple[str, str]] = set()
        self._salt_stream = self._stream("assessment-salt")
        self._audit_stream = self._stream("audit-assign")
        self._vote_stream = self._stream("collusion-votes")

    def _run_election(self, *, epoch: int) -> None:
        eligible = [
            s for s in self.governance.stakeholders.values()
            if governance_mod.raw_power(s, self.governance.weights) > 0
        ]
        seats = min(self.config.n_seats, len(eligible))
        if seats >= 1:
            self.governance.run_election(seats, epoch=epoch)

    # --- phase bodies ---

    def _add_trigger(self, did: str, reason: str) -> None:
        self._pending_triggers.setdefault(did, set()).add(reason)

    def _phase_ingest(self, epoch: int) -> dict[str, dict]:
        """Heartbeat, oracle feeds, injected events. Returns metric overrides."""
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
                record = self.registry.records[did]
                if record.compliance_status in (
                        ComplianceStatus.COMPLIANT, ComplianceStatus.NONCOMPLIANT):
                    self.registry.system_set_status(
                        did, ComplianceStatus.UNDER_REVIEW,
                        epoch=epoch, actor="compliance-engine")

        for system, severity in scenario.incidents.get(epoch, ()):
            self.incidents.raise_incident(self._system_ids[system], severity, epoch=epoch)

        overrides: dict[str, dict] = {}
        for system, metrics in scenario.violations.get(epoch, ()):
            did = self._system_ids[system]
            overrides.setdefault(did, {}).update(metrics)
            self._add_trigger(did, "violation")
        return overrides

    def _active_systems(self) -> list[str]:
        return [did for did in sorted(self.registry.records)
                if self.registry.records[did].compliance_status
                != ComplianceStatus.SUSPENDED]

    def _phase_compliance(self, epoch: int, overrides: Mapping[str, dict]) -> None:
        oracle_values = self.oracles.values_for(epoch)
        for did in self._active_systems():
            record = self.registry.records[did]
            spec = self._system_specs[did]
            metrics = dict(spec.base_metrics)
            metrics.update(oracle_values)
            metrics.update(overrides.get(did, {}))
            # Oracle feeds may carry market values outside the rule metric
            # set; assessments commit to the rule-relevant vector only.
            metrics = {k: v for k, v in metrics.items() if k in spec.base_metrics}
            salt = self._salt_stream.bytes_(32)
            assessment = compliance_mod.evaluate(
                record, metrics, epoch, self.rules, self.chain, salt=salt)
            self._latest_assessment[did] = assessment
            self.assessment_log.append(assessment)
            self._forecast[did] = risk_mod.ewma_step(
                self._forecast.get(did), assessment.aggregate_score,
                self.config.ewma_alpha)
            if not assessment.compliant:
                self._add_trigger(did, "mitigation")
            elif record.compliance_status == ComplianceStatus.UNDER_REVIEW:
                # A clean conformity assessment clears the review state;
                # NONCOMPLIANT needs a passing audit, not just a self-check.
                self.registry.system_set_status(
                    did, ComplianceStatus.COMPLIANT,
                    epoch=epoch, actor="compliance-engine")

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
                audit_failed=self._audit_failed_prev.get(did, False),
                incident_count=self.incidents.open_count(did),
                exposure=self.registry.records[did].exposure,
            )
            if self._forecast[did] < self.config.forecast_floor:
                self._add_trigger(did, "forecast")

    def _phase_audit(self, epoch: int) -> list[audit_mod.AuditRecord]:
        triggers = {did: min(reasons, key=_TRIGGER_PRIORITY.index)
                    for did, reasons in self._pending_triggers.items()}
        self._pending_triggers = {}

        assignments = self.audits.schedule_audits(
            epoch, self.registry.records,
            triggers=triggers, stream=self._audit_stream)
        records = []
        for assignment in assignments:
            assessment = self._latest_assessment.get(assignment.system_did)
            if assessment is None:
                continue
            record = self.audits.perform_audit(
                assignment.auditor_id,
                self.registry.records[assignment.system_did],
                assessment.metric_values,
                assessment.salt,
                assessment.commitment,
                epoch=epoch,
                trigger=assignment.trigger,
            )
            records.append(record)
        return records

    def _phase_penalties(self, epoch: int, audit_records: list[audit_mod.AuditRecord]) -> None:
        failed_now: dict[str, bool] = {}
        for record in audit_records:
            did = record.system_did
            owner = self.registry.records[did].owner
            if record.outcome == audit_mod.AuditOutcome.FAIL:
                reason = (SlashReason.COLLUSION_CONFIRMED
                          if record.trigger == "collusion" else SlashReason.AUDIT_FAIL)
                self.tokens.slash(owner, reason, epoch=epoch)
                if (self.registry.records[did].compliance_status
                        != ComplianceStatus.SUSPENDED):
                    self.registry.system_set_status(
                        did, ComplianceStatus.NONCOMPLIANT,
                        epoch=epoch, actor="audit-engine")
                failed_now[did] = True
            elif record.outcome == audit_mod.AuditOutcome.INCONCLUSIVE:
                self.tokens.slash(owner, SlashReason.EVIDENCE_FORGED, epoch=epoch)
                failed_now[did] = True
            else:
                if self.registry.records[did].compliance_status in (
                        ComplianceStatus.UNDER_REVIEW, ComplianceStatus.NONCOMPLIANT):
                    self.registry.system_set_status(
                        did, ComplianceStatus.COMPLIANT,
                        epoch=epoch, actor="audit-engine")
        self.governance.sync_stakes()
        self._audit_failed_prev = failed_now

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

        flagged = self.governance.colluding_pairs(
            self.config.collusion_min_common, self.config.collusion_agreement)
        for pair in sorted(flagged - self._flagged_pairs):
            self._flagged_pairs.add(pair)
            a, b = pair
            shared, _ = self.governance.pair_votes[pair]
            self.chain.append(
                EventKind.COLLUSION_FLAGGED,
                {"pair": [a, b], "shared": shared,
                 "penalty": str(self.config.collusion_penalty),
                 "expiry_epoch": epoch + 1},
                actor="governance", epoch=epoch)
            for member in pair:
                self.governance.apply_collusion_penalty(
                    member, self.config.collusion_penalty)
                self._collusion_expiry[member] = epoch + 1
                for did, spec in sorted(self._system_specs.items()):
                    if spec.owner == member:
                        self._add_trigger(did, "collusion")

    def _phase_rewards(self, epoch: int) -> None:
        factors: dict[str, Fraction] = {}
        owned: dict[str, list[Fraction]] = {}
        for did, assessment in self._latest_assessment.items():
            owner = self.registry.records[did].owner
            owned.setdefault(owner, []).append(assessment.aggregate_score)
        for owner, scores in owned.items():
            factors[owner] = sum(scores, Fraction(0)) / len(scores)
        self.tokens.distribute_rewards(epoch, factors)

    # --- main loop ---

    def run(self) -> SimResult:
        self._setup()

        for epoch in range(1, self.scenario.epochs + 1):
            self.governance.apply_staged_weights()

            self.chain.phase = Phase.INGEST
            overrides = self._phase_ingest(epoch)

            self.chain.phase = Phase.COMPLIANCE
            self._phase_compliance(epoch, overrides)

            self.chain.phase = Phase.RISK
            self._phase_risk(epoch)

            self.chain.phase = Phase.AUDIT
            audit_records = self._phase_audit(epoch)

            self.chain.phase = Phase.PENALTIES
            self._phase_penalties(epoch, audit_records)

            self.chain.phase = Phase.GOVERNANCE
            self._phase_governance(epoch)

            self.chain.phase = Phase.ELECTIONS
            if epoch % self.config.election_period == 0:
                self._run_election(epoch=epoch)

            self.chain.phase = Phase.REWARDS
            self._phase_rewards(epoch)

            self.chain.phase = Phase.SEALING
            self.chain.seal_all(
                {aid: kp.private for aid, kp in self._authority_keys.items()})

            for member, expiry in list(self._collusion_expiry.items()):
                if expiry <= epoch:
                    self.governance.clear_collusion_penalty(member)
                    del self._collusion_expiry[member]

        # The report from the live stores; verify_run proves it equals the fold.
        report = tally_events(self.chain.blocks).layout(
            self.scenario.epochs, [(a.tier.value, a.compliant) for a in self.assessment_log],
            [(record.outcome.value, record.trigger) for record in self.audits.records], self.tokens,
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


def verify_run(chain_path: str | Path, report_path: Optional[str | Path] = None):
    """Chain integrity, every body and phase stamp against its kind's
    declaration, and report/chain consistency, all from one fold.

    Returns (verification, report_matches) where report_matches is None when
    the chain fails or no report was supplied or found next to the chain file.
    """
    verification, fold = verified_fold(load_chain(chain_path))
    report_matches: Optional[bool] = None
    if report_path is None:
        sibling = Path(chain_path).parent / "report.json"
        report_path = sibling if sibling.exists() else None
    if report_path is not None and fold is not None:
        report_matches = load_report(report_path) == fold.report()
    return verification, report_matches
