"""Integer fast paths equal the plain Fraction expressions they replace.

``compute_risk_score``, ``total_raw_power``, ``GovernanceState.tally`` and
``TokenLedger.distribute_rewards`` sum on integer numerators and build one
``Fraction`` per result. The references below are the straightforward
``Fraction`` expressions of the same definitions; each property holds the
package to them on generated inputs, errors included. Equal values give
equal ``str()`` forms, which is what reaches the chain.

``GovernanceState`` tallies and elects from a power table that only the
methods changing stake, weights or a penalty rebuild; one property drives
those methods in any order and checks every tally and election against a
recomputation from the stakeholders as they stand.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from govsim.errors import InsufficientCandidates, InvalidInput, NoVotingPower
from govsim.governance import (
    GovernanceState,
    Proposal,
    ProposalKind,
    ProposalStatus,
    Stakeholder,
    Vote,
    VoteDirection,
    VoteMode,
    VoteWeights,
    rank_delegates,
    total_raw_power,
)
from govsim.identity import Role
from govsim.keys import get_scheme
from govsim.ledger import Chain
from govsim.risk import RiskWeights, compute_risk_score
from govsim.tokens import Pool, SlashReason, StakeEntry, TokenLedger

ROLES = list(Role)
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=30)
# Around [0, 1], so that range checks and both clamps are reached.
NEAR_UNIT = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2),
                         max_denominator=30)
POSITIVE = st.fractions(min_value=Fraction(1, 20), max_value=4, max_denominator=20)
OPEN_UNIT = st.fractions(min_value=Fraction(1, 50), max_value=1, max_denominator=50)


def _outcome(call):
    """The value of ``call()``, or the type and message of what it raised."""
    try:
        return call()
    except (InsufficientCandidates, InvalidInput, NoVotingPower) as exc:
        return type(exc), str(exc)


# --- risk score ---

def reference_risk_score(aggregate, audit_failed, incident_count, exposure, weights):
    if not 0 <= aggregate <= 1:
        raise InvalidInput("compliance aggregate must be in [0, 1]")
    if not 0 <= exposure <= 1:
        raise InvalidInput("exposure weight must be in [0, 1]")
    if incident_count < 0:
        raise InvalidInput("incident count must be non-negative")
    score = (
        weights.noncompliance * (1 - aggregate)
        + weights.audit_failure * (1 if audit_failed else 0)
        + weights.incidents * Fraction(min(incident_count, 3), 3)
        + weights.exposure * exposure
    )
    return max(Fraction(0), min(Fraction(1), score))


RISK_WEIGHTS = st.builds(
    RiskWeights,
    *[st.fractions(min_value=-1, max_value=2, max_denominator=20)] * 4,
)


@settings(max_examples=250, deadline=None)
@given(NEAR_UNIT, st.booleans(), st.integers(-2, 6), NEAR_UNIT,
       st.one_of(st.just(RiskWeights()), RISK_WEIGHTS))
@example(Fraction(0), True, 3, Fraction(1), RiskWeights())  # exactly 1
@example(Fraction(0), True, 5, Fraction(1), RiskWeights(1, 1, 1, 1))  # clamps at 1
@example(Fraction(1), False, 0, Fraction(1),
         RiskWeights(Fraction(1, 2), 0, 0, Fraction(-1, 3)))  # clamps at 0
@example(Fraction(3, 2), False, 0, Fraction(0), RiskWeights())
@example(Fraction(1), False, 0, Fraction(-1, 5), RiskWeights())
@example(Fraction(1), False, -1, Fraction(0), RiskWeights())
def test_risk_score_matches_reference(aggregate, failed, incidents, exposure, weights):
    expected = _outcome(lambda: reference_risk_score(
        aggregate, failed, incidents, exposure, weights))
    actual = _outcome(lambda: compute_risk_score(
        aggregate, failed, incidents, exposure, weights))
    assert actual == expected
    if isinstance(expected, Fraction):
        assert isinstance(actual, Fraction)
        assert str(actual) == str(expected)


# --- voting power and tallies ---

def reference_raw_power(stakeholder, weights):
    return (Fraction(stakeholder.stake) * weights.multiplier(stakeholder.role)
            * stakeholder.weight_penalty)


def reference_tally(state, proposal):
    """(power_for, power_against, status) as the plain per-voter loop gives them."""
    stakeholders = list(state.stakeholders.values())
    total = sum((reference_raw_power(s, state.weights) for s in stakeholders), Fraction(0))
    power_for = power_against = Fraction(0)
    for voter_id, vote in proposal.votes.items():
        if proposal.mode == VoteMode.QUADRATIC:
            power = Fraction(vote.magnitude)
        else:
            # With no power at all (total 0) every vote weighs 0.
            power = min(reference_raw_power(state.stakeholders[voter_id], state.weights),
                        state.weights.cap_fraction * total)
        if vote.direction == VoteDirection.FOR:
            power_for += power
        else:
            power_against += power
    turnout = power_for + power_against
    passed = turnout != 0 and power_for / turnout > state.weights.threshold(proposal.kind)
    status = ProposalStatus.PASSED if passed else ProposalStatus.REJECTED
    return power_for, power_against, status


PENALTIES = st.sampled_from([Fraction(1), Fraction(9, 10), Fraction(1, 2),
                             Fraction(2, 3), Fraction(0)])
STAKEHOLDERS = st.lists(
    st.tuples(st.sampled_from(ROLES), st.integers(0, 10 ** 6), PENALTIES),
    min_size=1, max_size=8,
)
VOTE_WEIGHTS = st.builds(
    VoteWeights,
    role_multiplier=st.dictionaries(st.sampled_from(ROLES), POSITIVE, max_size=4),
    cap_fraction=OPEN_UNIT,
    threshold_routine=OPEN_UNIT,
    threshold_critical=OPEN_UNIT,
)


def _stakeholders(specs):
    return [Stakeholder(id=f"s{i}", role=role, stake=stake, weight_penalty=penalty)
            for i, (role, stake, penalty) in enumerate(specs)]


@settings(max_examples=200, deadline=None)
@given(STAKEHOLDERS, VOTE_WEIGHTS)
def test_total_raw_power_matches_reference(specs, weights):
    stakeholders = _stakeholders(specs)
    expected = sum((reference_raw_power(s, weights) for s in stakeholders), Fraction(0))
    actual = total_raw_power(stakeholders, weights)
    assert isinstance(actual, Fraction)
    assert actual == expected


def _governance(stakeholders, weights) -> GovernanceState:
    scheme = get_scheme("seeded")
    chain = Chain({"a1": scheme.generate(b"a1").public}, quorum=1)
    state = GovernanceState(chain, TokenLedger(0, {}), weights)
    for stakeholder in stakeholders:
        state.add_stakeholder(stakeholder)
    return state


VOTES = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from(list(VoteDirection)), st.integers(1, 50)),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(STAKEHOLDERS, VOTE_WEIGHTS, st.sampled_from(list(VoteMode)),
       st.sampled_from(list(ProposalKind)), VOTES)
@example([(Role.BANK, 0, Fraction(1)), (Role.FINTECH, 5, Fraction(0))],
         VoteWeights(role_multiplier={}), VoteMode.LINEAR, ProposalKind.ROUTINE,
         [(0, VoteDirection.FOR, 1)])  # no power at all: REJECTED at zero turnout
def test_tally_matches_reference(specs, weights, mode, kind, votes):
    stakeholders = _stakeholders(specs)
    state = _governance(stakeholders, weights)
    proposal = Proposal(proposal_id="p1", kind=kind, payload={}, mode=mode)
    for index, direction, magnitude in votes:
        voter = stakeholders[index % len(stakeholders)].id
        if mode == VoteMode.LINEAR:
            magnitude = 1
        proposal.votes.setdefault(voter, Vote(direction, magnitude))
    state.proposals[proposal.proposal_id] = proposal

    power_for, power_against, status = reference_tally(state, proposal)
    assert state.tally(proposal.proposal_id) == status
    assert (proposal.tally_for, proposal.tally_against) == (power_for, power_against)
    assert isinstance(proposal.tally_for, Fraction)
    assert isinstance(proposal.tally_against, Fraction)


# Steps over a state; an index picks a stakeholder modulo how many there are.
POWER_STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(ROLES), st.integers(0, 10 ** 6), PENALTIES),
    st.tuples(st.just("stake"), st.integers(0, 7), st.integers(1, 10 ** 6)),
    st.tuples(st.just("slash"), st.integers(0, 7),
              st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(1)])),
    st.tuples(st.just("penalty"), st.integers(0, 7), PENALTIES),
    st.tuples(st.just("clear"), st.integers(0, 7)),
    st.tuples(st.just("weights"), VOTE_WEIGHTS),
    st.tuples(st.just("tally"), st.sampled_from(list(VoteMode)),
              st.sampled_from(list(ProposalKind)), VOTES),
    st.tuples(st.just("elect"), st.integers(1, 4)),
), min_size=1, max_size=24)


@settings(max_examples=200, deadline=None)
@given(STAKEHOLDERS, POWER_STEPS)
@example([(Role.BANK, 10, Fraction(1))],
         [("tally", VoteMode.LINEAR, ProposalKind.ROUTINE, [(0, VoteDirection.FOR, 1)]),
          ("slash", 0, Fraction(1)), ("elect", 1)])  # power falls to none at all
# Each change moves the next tally or election: a method that left the table
# as it was fails here at once.
@example([(Role.BANK, 10, Fraction(1)), (Role.FINTECH, 10, Fraction(1))], [
    ("penalty", 0, Fraction(1, 2)),
    ("tally", VoteMode.LINEAR, ProposalKind.ROUTINE, [(0, VoteDirection.FOR, 1)]),
    ("clear", 0),
    ("tally", VoteMode.LINEAR, ProposalKind.ROUTINE, [(0, VoteDirection.FOR, 1)]),
    ("weights", VoteWeights({Role.BANK: Fraction(3)}, cap_fraction=Fraction(1))),
    ("tally", VoteMode.LINEAR, ProposalKind.ROUTINE,
     [(0, VoteDirection.FOR, 1), (1, VoteDirection.AGAINST, 1)]),
    ("add", Role.DEVELOPER, 5, Fraction(1)),
    ("elect", 3),
])
def test_power_table_follows_every_change(specs, steps):
    scheme = get_scheme("seeded")
    chain = Chain({"a1": scheme.generate(b"a1").public}, quorum=1)
    tokens = TokenLedger(10 ** 12, {Pool.REWARDS: 0}, chain=chain)
    state = GovernanceState(chain, tokens)
    ids: list[str] = []
    # The starting stakeholders hold their stake in the ledger.
    steps = [("add", role, 0, penalty) for role, _, penalty in specs] + [
        ("stake", index, stake) for index, (_, stake, _) in enumerate(specs) if stake
    ] + steps
    for step in steps:
        op, args = step[0], step[1:]
        if op == "add":
            role, stake, penalty = args
            ids.append(f"s{len(ids)}")
            state.add_stakeholder(Stakeholder(ids[-1], role, stake, penalty))
        elif op == "tally":
            mode, kind, votes = args
            proposal = Proposal(proposal_id=f"p{len(state.proposals)}", kind=kind,
                                payload={}, mode=mode)
            for index, direction, magnitude in votes if ids else ():
                magnitude = 1 if mode == VoteMode.LINEAR else magnitude
                proposal.votes.setdefault(ids[index % len(ids)], Vote(direction, magnitude))
            state.proposals[proposal.proposal_id] = proposal
            power_for, power_against, status = reference_tally(state, proposal)
            assert state.tally(proposal.proposal_id) == status
            assert (proposal.tally_for, proposal.tally_against) == (power_for, power_against)
        elif op == "elect":
            fresh = [Stakeholder(s.id, s.role, s.stake, s.weight_penalty)
                     for s in state.stakeholders.values()]
            expected = _outcome(lambda: rank_delegates(fresh, state.weights, args[0]))
            assert _outcome(lambda: state.run_election(args[0])) == expected
        elif op == "weights":
            proposal = Proposal(proposal_id="w", kind=ProposalKind.WEIGHT_ADJUSTMENT,
                                payload=args[0].to_json(), status=ProposalStatus.PASSED)
            state.adjust_weights(proposal)
            assert state.apply_staged_weights()
        elif ids:
            holder = ids[args[0] % len(ids)]
            if op == "stake":
                tokens.balances[holder] = tokens.balances.get(holder, 0) + args[1]
                tokens.stake(holder, args[1], 4)
                state.sync_stakes()
            elif op == "slash":
                tokens.slash(holder, SlashReason.AUDIT_FAIL, fraction=args[1])
                state.sync_stakes()
            elif op == "penalty":
                state.apply_collusion_penalty(holder, args[1])
            else:
                state.clear_collusion_penalty(holder)


# --- rewards ---

def reference_payouts(ledger, epoch, factors):
    if ledger.pools[Pool.REWARDS] < ledger.emission or ledger.emission == 0:
        return {}
    weights = {}
    for holder in sorted(ledger.stakes):
        c = factors.get(holder, Fraction(1))
        if not 0 <= c <= 1:
            raise InvalidInput(f"compliance factor out of [0,1] for {holder}")
        sd = sum(e.amount * e.elapsed(epoch) for e in ledger.stakes[holder])
        w = Fraction(sd) * c
        if w > 0:
            weights[holder] = w
    total = sum(weights.values(), Fraction(0))
    if total == 0:
        return {}
    payouts = {}
    for holder, w in weights.items():
        share = int(ledger.emission * w / total)
        if share:
            payouts[holder] = share
    return payouts


HOLDERS = [f"h{i}" for i in range(5)]
FACTOR = st.one_of(
    UNIT, st.just(Fraction(0)), st.just(Fraction(1)),
    st.sampled_from([Fraction(-1, 3), Fraction(4, 3)]),  # out of range
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from(HOLDERS),
                    st.lists(st.tuples(st.integers(1, 10 ** 6), st.integers(0, 6)),
                             min_size=1, max_size=3)),
    st.dictionaries(st.sampled_from(HOLDERS), FACTOR),
    st.integers(0, 10 ** 7),
    st.integers(1, 12),
)
@example({"h0": [(1, 0)], "h1": [(2, 0)]}, {"h0": Fraction(0)}, 1_000, 1)
@example({"h0": [(5, 0)]}, {"h0": Fraction(4, 3)}, 1_000, 1)
def test_rewards_match_reference(stakes, factors, emission, epoch):
    ledger = TokenLedger(10 ** 8, {Pool.REWARDS: 10 ** 7}, emission=emission)
    for holder, entries in stakes.items():
        ledger.stakes[holder] = [StakeEntry(amount, start, 20) for amount, start in entries]
    pool_before = ledger.pools[Pool.REWARDS]

    expected = _outcome(lambda: reference_payouts(ledger, epoch, factors))
    actual = _outcome(lambda: ledger.distribute_rewards(epoch, factors))
    assert actual == expected
    paid = sum(actual.values()) if isinstance(actual, dict) else 0
    assert ledger.pools[Pool.REWARDS] == pool_before - paid

