"""The chain fold rebuilds the live proposals, votes and delegates exactly.

``GovernanceState.apply`` is the only transition of proposals, votes and
elections: the live writers apply the body they append, and ``ChainFold``
applies the same bodies read back from the chain to a chain-less state. This
property drives a chain-backed state with random steps and, after each one,
checks the live submissions and votes against the steps that were accepted,
then folds the chain into a fresh state and compares the two.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.encoding import ZERO_DIGEST
from govsim.errors import GovSimError
from govsim.governance import (
    GovernanceState,
    ProposalKind,
    Stakeholder,
    VoteDirection,
    VoteMode,
)
from govsim.identity import Role
from govsim.keys import get_scheme
from govsim.ledger import Block, Chain, EventKind
from govsim.report import ChainFold, build_report
from govsim.tokens import Pool, TokenLedger
from tests.conftest import REFERENCE_SCENARIOS

# Holder "h3" has no stake (no power) and "h4" no balance (no quadratic votes).
HOLDERS = {"h0": (Role.REGULATOR, 40, 5_000), "h1": (Role.BANK, 90, 5_000),
           "h2": (Role.FINTECH, 30, 50), "h3": (Role.DEVELOPER, 0, 5_000),
           "h4": (Role.BANK, 60, 0)}
_PROPOSAL = st.integers(0, 5)

_STEP = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(list(ProposalKind)),
              st.sampled_from(list(VoteMode))),
    st.tuples(st.just("vote"), st.sampled_from(sorted(HOLDERS)), _PROPOSAL,
              st.sampled_from(list(VoteDirection)),
              st.sampled_from([1, 1, 1, 2, 8, 0])),  # magnitude
    st.tuples(st.just("tally"), _PROPOSAL),
    st.tuples(st.just("elect"), st.integers(1, 5)),
    st.tuples(st.just("tick")),
)


def _governance() -> GovernanceState:
    chain = Chain({"a1": get_scheme("seeded").generate(b"a1").public}, quorum=1)
    tokens = TokenLedger.mint_genesis(total_supply=1_000_000, chain=chain)
    state = GovernanceState(chain, tokens)
    for holder, (role, stake, balance) in HOLDERS.items():
        state.add_stakeholder(Stakeholder(id=holder, role=role))
        if stake + balance:
            tokens.grant(Pool.DEVELOPMENT, holder, stake + balance)
        if stake:
            tokens.stake(holder, stake, 10)
    state.sync_stakes()
    return state


def _run_step(state: GovernanceState, step: tuple, epoch: int, expected: dict) -> int:
    """Take one step; record each accepted submission and vote in ``expected``."""
    op, *args = step
    ids = list(state.proposals)
    if op == "submit":
        kind, mode = args
        state.submit_proposal(f"p{len(ids)}", kind, {"n": len(ids)}, mode=mode,
                              epoch=epoch)
        expected[f"p{len(ids)}"] = (epoch, {})
    elif op == "elect":
        state.run_election(args[0], epoch=epoch)
    elif op == "tick":
        epoch += 1
    elif ids:
        proposal_id = ids[(args[0] if op == "tally" else args[1]) % len(ids)]
        if op == "tally":
            state.tally(proposal_id, epoch=epoch)
        else:
            voter, _, direction, magnitude = args
            state.cast_vote(voter, proposal_id, direction, magnitude=magnitude,
                            epoch=epoch)
            expected[proposal_id][1][voter] = (direction, magnitude, epoch)
    return epoch


def _submissions_and_votes(state: GovernanceState) -> dict:
    return {proposal_id: (proposal.epoch, {
        voter: (vote.direction, vote.magnitude, vote.epoch)
        for voter, vote in proposal.votes.items()})
        for proposal_id, proposal in state.proposals.items()}


def _fold(chain: Chain) -> ChainFold:
    """The report fold of the events not yet sealed."""
    return ChainFold([Block(height=1, prev_hash=ZERO_DIGEST, events=tuple(chain.pending),
                            sealer_signatures=(), block_hash=ZERO_DIGEST)])


@settings(max_examples=200, deadline=None)
@given(st.lists(_STEP, min_size=10, max_size=60))
def test_fold_of_chain_equals_live_governance(steps):
    state = _governance()
    epoch = 0
    expected: dict = {}
    for step in steps:
        try:
            epoch = _run_step(state, step, epoch, expected)
        except GovSimError:
            pass  # refused: closed, repeated, unaffordable, powerless, too few candidates
        assert _submissions_and_votes(state) == expected
        fold = _fold(state.chain).governance
        assert fold.proposals == state.proposals
        assert fold.delegates == state.delegates


@pytest.mark.parametrize("name", REFERENCE_SCENARIOS)
def test_fold_equals_live_governance_of_reference_runs(reference_results, name):
    result = reference_results[name]
    fold = ChainFold(result.chain.blocks).governance
    assert fold.proposals == result.governance.proposals
    assert fold.delegates == result.governance.delegates


def test_votes_and_resolutions_of_unknown_proposals_are_ignored():
    chain = Chain({"a1": get_scheme("seeded").generate(b"a1").public}, quorum=1)
    chain.append(EventKind.VOTE_CAST,
                 {"proposal_id": "ghost", "voter": "h0", "direction": "FOR",
                  "magnitude": 1, "mode": "LINEAR", "cost": 0},
                 actor="h0", epoch=1)
    chain.append(EventKind.PROPOSAL_RESOLVED,
                 {"proposal_id": "ghost", "status": "PASSED", "power_for": "1",
                  "power_against": "0", "threshold": "1/2", "kind": "ROUTINE",
                  "mode": "LINEAR"},
                 actor="governance", epoch=1)
    chain.seal_all({"a1": get_scheme("seeded").generate(b"a1").private})
    assert ChainFold(chain.blocks).governance.proposals == {}
    assert build_report(chain.blocks)["governance"]["proposals"] == []


def test_a_repeated_voter_counts_once():
    state = GovernanceState(None, None)
    state.apply(EventKind.PROPOSAL_SUBMITTED,
                {"proposal_id": "p", "kind": "ROUTINE", "mode": "LINEAR",
                 "payload": {}}, 1)
    for direction in ("FOR", "AGAINST"):
        state.apply(EventKind.VOTE_CAST,
                    {"proposal_id": "p", "voter": "h0", "direction": direction,
                     "magnitude": 1, "mode": "LINEAR", "cost": 0}, 2)
    entry = state.proposals["p"].to_json()
    assert entry["votes"] == 1
    assert entry["vote_events"] == [
        {"voter": "h0", "direction": "FOR", "magnitude": 1, "epoch": 2}]
