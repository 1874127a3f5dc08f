"""DPoS stakeholder governance.

All power arithmetic is exact: each power is an integer numerator over a
positive denominator, and sums and rankings scale the numerators to a common
denominator, so threshold decisions at boundaries like 2/3 are
deterministic. Threshold comparisons are STRICT: a proposal at exactly the
threshold fails. Election ties break by ascending stakeholder id.
Zero-participation proposals are rejected.

``GovernanceState`` keeps each stakeholder's raw power and the cap in one
table. Only the methods that change stake, weights or a penalty rebuild it,
and tallies and elections read it.

``GovernanceState.apply`` is the one transition of proposals, votes and
elections. It takes a PROPOSAL_SUBMITTED, VOTE_CAST, PROPOSAL_RESOLVED or
DELEGATE_ELECTED event as it stands on the chain.
``submit_proposal``, ``cast_vote``, ``tally`` and ``run_election`` validate,
build the event body, apply it and append it; the report fold applies the
same bodies to a chain-less state, so this module alone knows their format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .encoding import _FRACTION, ONE, _key, _Keys, _table, json_value, sum_terms
from .errors import (
    AlreadyResolved,
    AlreadyVoted,
    InsufficientCandidates,
    InvalidInput,
    InvalidWeights,
    NoVotingPower,
    ProposalClosed,
    ScenarioError,
)
from .identity import Role
from .ledger import Chain, EventKind, Store
from .tokens import Pool, TokenLedger


class ProposalKind(str, Enum):
    ROUTINE = "ROUTINE"
    CRITICAL = "CRITICAL"
    WEIGHT_ADJUSTMENT = "WEIGHT_ADJUSTMENT"
    RULE_UPDATE = "RULE_UPDATE"


class ProposalStatus(str, Enum):
    OPEN = "OPEN"
    PASSED = "PASSED"
    REJECTED = "REJECTED"


class VoteDirection(str, Enum):
    FOR = "FOR"
    AGAINST = "AGAINST"


class VoteMode(str, Enum):
    LINEAR = "LINEAR"
    QUADRATIC = "QUADRATIC"


# A WEIGHT_ADJUSTMENT payload: each key optional (None: unchanged), read as config reads it.
_WEIGHT_CHANGES = _Keys(role_multiplier=_key(None, _table(Role, _FRACTION)), **{
    name: _key(None, _FRACTION)
    for name in ("cap_fraction", "threshold_routine", "threshold_critical")})


@dataclass
class VoteWeights:
    role_multiplier: dict[Role, Fraction]
    cap_fraction: Fraction = Fraction(1, 5)
    threshold_routine: Fraction = Fraction(1, 2)
    threshold_critical: Fraction = Fraction(2, 3)

    def validate(self) -> "VoteWeights":
        if not 0 < self.cap_fraction <= 1:
            raise InvalidWeights("cap_fraction must be in (0, 1]")
        for name in ("threshold_routine", "threshold_critical"):
            if not 0 < getattr(self, name) <= 1:
                raise InvalidWeights(f"{name} must be in (0, 1]")
        for role, multiplier in self.role_multiplier.items():
            if multiplier <= 0:
                raise InvalidWeights(f"multiplier for {role.value} must be positive")
        return self

    def adjusted(self, changes: Mapping) -> "VoteWeights":
        """These weights with a WEIGHT_ADJUSTMENT payload applied: a non-empty
        ``role_multiplier`` replaces the table, each fraction its own field,
        and a key that names no field is refused. Each field is checked on its
        own, so a payload that one set of weights accepts, every set accepts."""
        try:
            given = _WEIGHT_CHANGES(changes, "")
        except ScenarioError as exc:
            raise InvalidWeights(str(exc)) from None
        return replace(self, **{key: value for key, value in given.items()
                                if value not in (None, {})}).validate()

    def multiplier(self, role: Role) -> Fraction:
        return self.role_multiplier.get(role, ONE)

    def threshold(self, kind: ProposalKind) -> Fraction:
        # Anything that rewrites the rules of the game takes the critical bar.
        if kind == ProposalKind.ROUTINE:
            return self.threshold_routine
        return self.threshold_critical

    def to_json(self) -> dict:
        return json_value(self)


DEFAULT_REGULATOR_MULTIPLIER = Fraction(3, 2)
# The weight multiplier of a stakeholder under collusion scrutiny.
DEFAULT_COLLUSION_PENALTY = Fraction(9, 10)


def default_weights() -> VoteWeights:
    return VoteWeights(role_multiplier={Role.REGULATOR: DEFAULT_REGULATOR_MULTIPLIER})


@dataclass
class Stakeholder:
    id: str
    role: Role
    stake: int = 0
    # Temporary multiplicative reduction while under collusion scrutiny.
    weight_penalty: Fraction = ONE


@dataclass
class Vote:
    direction: VoteDirection
    magnitude: int
    epoch: int = 0


@dataclass
class Proposal:
    proposal_id: str
    kind: ProposalKind
    payload: dict
    # One voting mode per proposal; mixing stake-weighted power with
    # quadratic magnitudes in a single tally would compare unlike units.
    mode: VoteMode = VoteMode.LINEAR
    status: ProposalStatus = ProposalStatus.OPEN
    votes: dict[str, Vote] = field(default_factory=dict)
    epoch: int = 0
    # The PROPOSAL_RESOLVED strings as the event gives them; empty while open.
    power_for: str = ""
    power_against: str = ""
    threshold: str = ""

    @property
    def tally_for(self) -> Fraction:
        return Fraction(self.power_for or 0)

    @property
    def tally_against(self) -> Fraction:
        return Fraction(self.power_against or 0)

    def to_json(self) -> dict:
        """The report entry, also printed by ``inspect --proposals``."""
        entry = {
            "proposal_id": self.proposal_id, "kind": self.kind,
            "mode": self.mode, "epoch": self.epoch,
            "status": self.status, "votes": len(self.votes),
        }
        if self.votes:
            entry["vote_events"] = [
                {"voter": voter, "direction": vote.direction,
                 "magnitude": vote.magnitude, "epoch": vote.epoch}
                for voter, vote in self.votes.items()]
        if self.power_for:
            entry["power_for"] = self.power_for
            entry["power_against"] = self.power_against
            entry["threshold"] = self.threshold
        return entry


# Every vote looks its direction up: a dict lookup is far cheaper than
# ``VoteDirection(value)``.
_DIRECTIONS = {direction.value: direction for direction in VoteDirection}


# --- pure power math ---

def _raw_power_terms(stakeholder: Stakeholder, weights: VoteWeights) -> tuple[int, int]:
    """stake * role multiplier * penalty as (numerator, positive denominator)."""
    multiplier = weights.multiplier(stakeholder.role)
    penalty = stakeholder.weight_penalty
    return (stakeholder.stake * multiplier.numerator * penalty.numerator,
            multiplier.denominator * penalty.denominator)


def raw_power(stakeholder: Stakeholder, weights: VoteWeights) -> Fraction:
    return Fraction(*_raw_power_terms(stakeholder, weights))


def total_raw_power(stakeholders: Sequence[Stakeholder], weights: VoteWeights) -> Fraction:
    return sum_terms(_raw_power_terms(s, weights) for s in stakeholders)


def effective_power(
    stakeholder: Stakeholder, weights: VoteWeights, total_raw: Fraction
) -> Fraction:
    """min(raw weighted power, cap_fraction * total raw power)."""
    if total_raw <= 0:
        raise NoVotingPower("total raw weighted power is zero")
    return min(raw_power(stakeholder, weights), weights.cap_fraction * total_raw)


def _rank(power: Sequence[tuple[str, tuple[int, int]]], total: Fraction,
          cap: tuple[int, int], n_seats: int) -> list[str]:
    """Top n_seats ids by min(raw power, cap), ties by ascending id: each
    (id, raw power terms) is ranked on its numerator scaled to one common
    denominator."""
    if n_seats < 1:
        raise InvalidInput("n_seats must be positive")
    if total <= 0:
        raise InsufficientCandidates("no stakeholder has positive power")
    cap_num, cap_den = cap
    common = lcm(cap_den, *(den for _, (_, den) in power))
    cap_key = cap_num * (common // cap_den)
    eligible = []
    for sid, (num, den) in power:
        key = min(num * (common // den), cap_key)
        if key > 0:
            eligible.append((-key, sid))
    if len(eligible) < n_seats:
        raise InsufficientCandidates(
            f"{len(eligible)} eligible stakeholders < {n_seats} seats"
        )
    eligible.sort()
    return [sid for _, sid in eligible[:n_seats]]


def rank_delegates(
    stakeholders: Sequence[Stakeholder], weights: VoteWeights, n_seats: int
) -> list[str]:
    """Top n_seats ids by effective power, ties by ascending id. Pure."""
    power = [(s.id, _raw_power_terms(s, weights)) for s in stakeholders]
    total = sum_terms(terms for _, terms in power)
    cap = weights.cap_fraction * total
    return _rank(power, total, (cap.numerator, cap.denominator), n_seats)


def detect_collusion(
    vote_history: Mapping[str, Mapping[str, VoteDirection]],
    min_common: int,
    agreement_threshold: Fraction,
) -> set[tuple[str, str]]:
    """Pairs voting identically on >= threshold of >= min_common shared proposals.

    Pure over the supplied history; returns lexicographically ordered pairs.
    This full rescan is the reference definition: the simulator reads the
    same set from ``GovernanceState.colluding_pairs``, which keeps running
    per-pair counters instead, and the tests hold the two equal.
    """
    flagged: set[tuple[str, str]] = set()
    for a, b in combinations(sorted(vote_history), 2):
        history_a, history_b = vote_history[a], vote_history[b]
        shared = history_a.keys() & history_b.keys()
        if len(shared) < min_common:
            continue
        identical = sum(1 for p in shared if history_a[p] == history_b[p])
        if Fraction(identical, len(shared)) >= agreement_threshold:
            flagged.add((a, b))
    return flagged


# --- stateful governance ---

class GovernanceState(Store):
    def __init__(
        self,
        chain: Optional[Chain],
        tokens: Optional[TokenLedger],
        weights: Optional[VoteWeights] = None,
    ):
        self.chain = chain
        self.tokens = tokens
        self.weights = (weights or default_weights()).validate()
        self.stakeholders: dict[str, Stakeholder] = {}
        self.proposals: dict[str, Proposal] = {}
        self.delegates: list[str] = []
        self._staged_weights: Optional[VoteWeights] = None
        # Lexicographically ordered pair -> [shared proposals, identical votes].
        self.pair_votes: dict[tuple[str, str], list[int]] = {}
        # The power table: each stakeholder's raw power terms, their total,
        # and the cap on one voter's power as (numerator, denominator).
        self._power: dict[str, tuple[int, int]] = {}
        self._total = Fraction(0)
        self._cap = (0, 1)
        # Every pair flagged so far, and each penalized member's expiry epoch.
        self._flagged: set[tuple[str, str]] = set()
        self._penalty_expiry: dict[str, int] = {}

    def _repower(self, ids: Iterable[str]) -> None:
        """Recompute the raw power of ``ids``, then the total and the cap.

        Stake, weights and penalties change only through the methods that
        call this, so between calls the table is exact.
        """
        for sid in ids:
            self._power[sid] = _raw_power_terms(self.stakeholders[sid], self.weights)
        self._total = sum_terms(self._power.values())
        cap = self.weights.cap_fraction * self._total
        self._cap = (cap.numerator, cap.denominator)

    def add_stakeholder(self, stakeholder: Stakeholder) -> None:
        self.stakeholders[stakeholder.id] = stakeholder
        self._repower((stakeholder.id,))

    def sync_stakes(self) -> None:
        """Mirror staked totals from the token ledger (single source of truth)."""
        moved = []
        for stakeholder in self.stakeholders.values():
            stake = self.tokens.staked_total(stakeholder.id)
            if stake != stakeholder.stake:
                stakeholder.stake = stake
                moved.append(stakeholder.id)
        if moved:
            self._repower(moved)

    def powered_count(self) -> int:
        """How many stakeholders hold positive raw power: the election's
        candidates."""
        return sum(1 for num, _ in self._power.values() if num > 0)

    # --- the transition ---

    def apply(self, kind: EventKind, body: Mapping, epoch: int) -> None:
        """Apply one proposal, vote or election event; the live writers and
        the chain fold share it.

        ``body`` is what its kind declares: the writers build it so, and the
        fold checks it first. A second submission of a proposal id raises, and
        so does a vote on, or a resolution of, a proposal that was never
        submitted or is resolved already. A second vote by the same voter is
        ignored.
        """
        if kind is EventKind.VOTE_CAST:
            proposal = self._open(body["proposal_id"])
            if body["voter"] not in proposal.votes:
                proposal.votes[body["voter"]] = Vote(
                    _DIRECTIONS[body["direction"]], body["magnitude"], epoch)
        elif kind is EventKind.PROPOSAL_SUBMITTED:
            if (proposal_id := body["proposal_id"]) in self.proposals:
                raise InvalidInput(f"field proposal_id: duplicate proposal id {proposal_id}")
            self.proposals[proposal_id] = Proposal(
                proposal_id=proposal_id, kind=ProposalKind(body["kind"]),
                payload=body["payload"], mode=VoteMode(body["mode"]), epoch=epoch)
        elif kind is EventKind.PROPOSAL_RESOLVED:
            proposal = self._open(body["proposal_id"])
            proposal.status = ProposalStatus(body["status"])
            proposal.power_for = body["power_for"]
            proposal.power_against = body["power_against"]
            proposal.threshold = body["threshold"]
        else:  # DELEGATE_ELECTED
            self.delegates = body["delegates"]

    def _open(self, proposal_id: str) -> Proposal:
        """The open proposal ``proposal_id``; raises if there is none."""
        proposal = self.proposals.get(proposal_id)
        if proposal is None:
            raise InvalidInput(f"field proposal_id: {proposal_id!r} was never submitted")
        if proposal.status != ProposalStatus.OPEN:
            raise InvalidInput(f"field proposal_id: {proposal_id!r} is "
                               f"{proposal.status.value} already")
        return proposal

    # --- proposals and votes ---

    def submit_proposal(self, proposal_id: str, kind: ProposalKind, payload: dict,
                        *, mode: VoteMode = VoteMode.LINEAR,
                        actor: str = "governance", epoch: int = 0) -> Proposal:
        self._record(
            EventKind.PROPOSAL_SUBMITTED,
            {"proposal_id": proposal_id, "kind": kind,
             "mode": mode, "payload": payload},
            actor=actor, epoch=epoch,
        )
        return self.proposals[proposal_id]

    def cast_vote(
        self,
        stakeholder_id: str,
        proposal_id: str,
        direction: VoteDirection,
        *,
        magnitude: int = 1,
        mode: Optional[VoteMode] = None,
        epoch: int = 0,
    ) -> Vote:
        proposal = self.proposals[proposal_id]
        if proposal.status != ProposalStatus.OPEN:
            raise ProposalClosed(f"{proposal_id} is {proposal.status.value}")
        if stakeholder_id in proposal.votes:
            raise AlreadyVoted(f"{stakeholder_id} already voted on {proposal_id}")
        if mode is None:
            mode = proposal.mode
        elif mode != proposal.mode:
            raise InvalidInput(
                f"{proposal_id} tallies in {proposal.mode.value} mode")
        stakeholder = self.stakeholders[stakeholder_id]
        if magnitude < 1:
            raise InvalidInput("magnitude must be positive")
        cost = 0
        if mode == VoteMode.LINEAR:
            if magnitude != 1:
                raise InvalidInput("LINEAR votes carry magnitude 1; weight comes from stake")
        else:
            cost = magnitude * magnitude
            self.tokens.charge_to_pool(
                stakeholder_id, Pool.GOVERNANCE, cost,
                epoch=epoch, reason="quadratic_vote", ref=proposal_id,
            )
        # Live indexes for collusion scrutiny; they are not chain state.
        for other_id, other in proposal.votes.items():
            pair = ((other_id, stakeholder_id) if other_id < stakeholder_id
                    else (stakeholder_id, other_id))
            counts = self.pair_votes.setdefault(pair, [0, 0])
            counts[0] += 1
            if other.direction == direction:
                counts[1] += 1
        self._record(
            EventKind.VOTE_CAST,
            {"proposal_id": proposal_id, "voter": stakeholder_id,
             "direction": direction, "magnitude": magnitude,
             "mode": mode, "cost": cost},
            actor=stakeholder_id, epoch=epoch,
        )
        return proposal.votes[stakeholder_id]

    def tally(self, proposal_id: str, *, epoch: int = 0) -> ProposalStatus:
        """Resolve once; strict-majority comparison against the kind's threshold."""
        proposal = self.proposals[proposal_id]
        if proposal.status != ProposalStatus.OPEN:
            raise AlreadyResolved(f"{proposal_id} already {proposal.status.value}")
        # Each side's powers as (numerator, denominator) terms.
        sides: dict[VoteDirection, list[tuple[int, int]]] = {d: [] for d in VoteDirection}
        if proposal.mode == VoteMode.QUADRATIC:
            for vote in proposal.votes.values():
                sides[vote.direction].append((vote.magnitude, 1))
        else:
            # effective_power per voter, read from the power table. With no
            # power at all every vote weighs 0 under a cap of 0, and the
            # proposal is rejected at zero turnout.
            cap_num, cap_den = self._cap
            for voter_id, vote in proposal.votes.items():
                num, den = self._power[voter_id]
                if num * cap_den > cap_num * den:
                    num, den = cap_num, cap_den
                sides[vote.direction].append((num, den))
        power_for = sum_terms(sides[VoteDirection.FOR])
        power_against = sum_terms(sides[VoteDirection.AGAINST])
        turnout = power_for + power_against
        threshold = self.weights.threshold(proposal.kind)
        if turnout == 0:
            status = ProposalStatus.REJECTED
        elif power_for / turnout > threshold:
            status = ProposalStatus.PASSED
        else:
            status = ProposalStatus.REJECTED
        self._record(
            EventKind.PROPOSAL_RESOLVED,
            {"proposal_id": proposal_id, "status": status,
             "power_for": str(power_for), "power_against": str(power_against),
             "threshold": str(threshold), "kind": proposal.kind,
             "mode": proposal.mode},
            actor="governance", epoch=epoch,
        )
        return status

    # --- elections ---

    def run_election(self, n_seats: int, *, epoch: int = 0) -> list[str]:
        elected = _rank(list(self._power.items()), self._total, self._cap, n_seats)
        self._record(
            EventKind.DELEGATE_ELECTED,
            {"delegates": elected, "n_seats": n_seats},
            actor="governance", epoch=epoch,
        )
        return elected

    # --- adaptive weights ---

    def adjust_weights(self, proposal: Proposal, *, epoch: int = 0) -> VoteWeights:
        """Stage new weights from a passed WEIGHT_ADJUSTMENT proposal.

        The replacement happens atomically at the next epoch boundary via
        apply_staged_weights().
        """
        if proposal.kind != ProposalKind.WEIGHT_ADJUSTMENT:
            raise InvalidInput("not a WEIGHT_ADJUSTMENT proposal")
        if proposal.status != ProposalStatus.PASSED:
            raise InvalidInput("weights change only on a PASSED proposal")
        new = self.weights.adjusted(proposal.payload)
        self._staged_weights = new
        self._append(EventKind.WEIGHTS_ADJUSTED, {
            "proposal_id": proposal.proposal_id, "weights": new.to_json(),
            "effective_epoch": epoch + 1}, actor="governance", epoch=epoch)
        return new

    def apply_staged_weights(self) -> bool:
        if self._staged_weights is None:
            return False
        self.weights = self._staged_weights
        self._staged_weights = None
        self._repower(self.stakeholders)
        return True

    # --- collusion scrutiny ---

    def vote_histories(self) -> dict[str, dict[str, VoteDirection]]:
        """Each stakeholder's proposal id -> direction, read from the proposals."""
        histories: dict[str, dict[str, VoteDirection]] = {sid: {} for sid in self.stakeholders}
        for proposal_id, proposal in self.proposals.items():
            for voter, vote in proposal.votes.items():
                histories.setdefault(voter, {})[proposal_id] = vote.direction
        return histories

    def colluding_pairs(self, min_common: int,
                        agreement_threshold: Fraction) -> set[tuple[str, str]]:
        """``detect_collusion(self.vote_histories(), ...)`` from the pair counters.

        Costs one step per pair that has voted together, however long the
        vote history has grown.
        """
        if min_common < 1:
            raise InvalidInput("min_common must be positive")
        threshold = Fraction(agreement_threshold)
        numerator, denominator = threshold.numerator, threshold.denominator
        return {
            pair for pair, (shared, identical) in self.pair_votes.items()
            if shared >= min_common and identical * denominator >= numerator * shared
        }

    def apply_collusion_penalty(self, stakeholder_id: str,
                                penalty: Fraction = DEFAULT_COLLUSION_PENALTY) -> None:
        self.stakeholders[stakeholder_id].weight_penalty = penalty
        self._repower((stakeholder_id,))

    def clear_collusion_penalty(self, stakeholder_id: str) -> None:
        self.stakeholders[stakeholder_id].weight_penalty = ONE
        self._repower((stakeholder_id,))

    def flag_collusion(self, min_common: int, agreement: Fraction, penalty: Fraction,
                       *, epoch: int) -> list[tuple[str, str]]:
        """Flag each colluding pair not flagged before, in sorted order: write its
        COLLUSION_FLAGGED and penalize both members until ``epoch + 1``.
        Returns the newly flagged pairs."""
        pairs = sorted(self.colluding_pairs(min_common, agreement) - self._flagged)
        for pair in pairs:
            self._flagged.add(pair)
            self._append(
                EventKind.COLLUSION_FLAGGED,
                {"pair": list(pair), "shared": self.pair_votes[pair][0],
                 "penalty": str(penalty), "expiry_epoch": epoch + 1},
                actor="governance", epoch=epoch)
            for member in pair:
                self.apply_collusion_penalty(member, penalty)
                self._penalty_expiry[member] = epoch + 1
        return pairs

    def expire_penalties(self, epoch: int) -> None:
        """Lift each collusion penalty whose expiry epoch ``epoch`` has reached."""
        for member, expiry in list(self._penalty_expiry.items()):
            if expiry <= epoch:
                self.clear_collusion_penalty(member)
                del self._penalty_expiry[member]
