import random
from fractions import Fraction

import pytest

from govsim.errors import (
    AlreadyResolved,
    AlreadyVoted,
    InsufficientCandidates,
    InsufficientTokens,
    InvalidInput,
    InvalidWeights,
    NoVotingPower,
    ProposalClosed,
)
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
    default_weights,
    detect_collusion,
    effective_power,
    rank_delegates,
    raw_power,
    total_raw_power,
)
from govsim.identity import Role
from govsim.keys import get_scheme
from govsim.ledger import Chain, EventKind
from govsim.tokens import Pool, TokenLedger

FOR, AGAINST = VoteDirection.FOR, VoteDirection.AGAINST


def sh(sid, role, stake):
    return Stakeholder(id=sid, role=role, stake=stake)


def abc_stakeholders():
    return [
        sh("A", Role.BANK, 100),
        sh("B", Role.FINTECH, 50),
        sh("C", Role.REGULATOR, 50),
    ]


def make_state(stakeholders, balances=None):
    scheme = get_scheme("seeded")
    chain = Chain({"a1": scheme.generate(b"a1").public}, quorum=1)
    total = sum(s.stake for s in stakeholders) + sum((balances or {}).values())
    tokens = TokenLedger(total or 1, {Pool.REWARDS: 0})
    tokens.chain = chain
    state = GovernanceState(chain, tokens)
    for stakeholder in stakeholders:
        state.add_stakeholder(stakeholder)
        if stakeholder.stake:
            tokens.balances[stakeholder.id] = stakeholder.stake
            tokens.stake(stakeholder.id, stakeholder.stake, 8, epoch=0)
    for holder, amount in (balances or {}).items():
        tokens.balances[holder] = tokens.balances.get(holder, 0) + amount
        tokens.total_supply += 0  # balances pre-counted in total above
    state.sync_stakes()
    return state


# --- effective power ---

def test_worked_example_all_capped_at_45():
    # raw: A=100*1, B=50*1, C=50*1.5=75; total 225; cap 0.2*225=45.
    stakeholders = abc_stakeholders()
    weights = default_weights()
    total = total_raw_power(stakeholders, weights)
    assert total == 225
    powers = [effective_power(s, weights, total) for s in stakeholders]
    assert powers == [Fraction(45), Fraction(45), Fraction(45)]


def test_single_stakeholder_cap_binds():
    voter = sh("solo", Role.REGULATOR, 80)
    weights = default_weights()
    total = total_raw_power([voter], weights)
    assert effective_power(voter, weights, total) == Fraction(1, 5) * total
    assert total == Fraction(120)


def test_zero_stake_zero_power():
    stakeholders = [sh("z", Role.BANK, 0), sh("a", Role.BANK, 10)]
    weights = default_weights()
    total = total_raw_power(stakeholders, weights)
    assert effective_power(stakeholders[0], weights, total) == 0


def test_no_voting_power_when_total_zero():
    with pytest.raises(NoVotingPower):
        effective_power(sh("z", Role.BANK, 0), default_weights(), Fraction(0))


def test_cap_invariant_on_random_sets():
    rng = random.Random(11)
    roles = list(Role)
    weights = default_weights()
    for _ in range(100):
        stakeholders = [
            sh(f"s{i}", rng.choice(roles), rng.randint(0, 10_000))
            for i in range(rng.randint(2, 12))
        ]
        total = total_raw_power(stakeholders, weights)
        if total == 0:
            continue
        for stakeholder in stakeholders:
            assert effective_power(stakeholder, weights, total) \
                <= weights.cap_fraction * total


# --- elections ---

def test_two_seats_tie_broken_lexicographically():
    ranked = rank_delegates(abc_stakeholders(), default_weights(), 2)
    assert ranked == ["A", "B"]


def test_all_seats_elects_everyone():
    ranked = rank_delegates(abc_stakeholders(), default_weights(), 3)
    assert set(ranked) == {"A", "B", "C"}


def test_scaling_stakes_by_seven_preserves_delegates():
    # Re-run oracle: the cap is a fraction of the total so ordering is
    # scale invariant.
    base = abc_stakeholders()
    scaled = [sh(s.id, s.role, s.stake * 7) for s in base]
    assert rank_delegates(base, default_weights(), 2) \
        == rank_delegates(scaled, default_weights(), 2)


def test_scale_invariance_randomized():
    rng = random.Random(23)
    weights = default_weights()
    for _ in range(40):
        stakeholders = [
            sh(f"s{i}", rng.choice(list(Role)), rng.randint(1, 5_000))
            for i in range(rng.randint(3, 10))
        ]
        seats = rng.randint(1, len(stakeholders))
        base = rank_delegates(stakeholders, weights, seats)
        for k in (2, 3, 10):
            scaled = [sh(s.id, s.role, s.stake * k) for s in stakeholders]
            assert rank_delegates(scaled, weights, seats) == base


def test_insufficient_candidates():
    with pytest.raises(InsufficientCandidates):
        rank_delegates([sh("a", Role.BANK, 5), sh("b", Role.BANK, 0)],
                       default_weights(), 2)


def test_zero_seats_rejected():
    with pytest.raises(InvalidInput, match="n_seats must be positive"):
        rank_delegates(abc_stakeholders(), default_weights(), 0)

def test_run_election_sets_flags_and_appends_event():
    state = make_state(abc_stakeholders())
    state.run_election(2, epoch=0)
    assert state.delegates == ["A", "B"]
    state.run_election(1, epoch=4)
    assert state.delegates == ["A"]  # the previous seats are replaced
    events = [e for e in state.chain.pending if e.kind == EventKind.DELEGATE_ELECTED]
    assert len(events) == 2


# --- voting ---

def test_quadratic_vote_costs_magnitude_squared():
    state = make_state(abc_stakeholders(), balances={"A": 100})
    state.submit_proposal("p1", ProposalKind.ROUTINE, {}, mode=VoteMode.QUADRATIC)
    before = state.tokens.balances["A"]
    pool_before = state.tokens.pools[Pool.GOVERNANCE]
    state.cast_vote("A", "p1", FOR, magnitude=3, mode=VoteMode.QUADRATIC)
    assert before - state.tokens.balances["A"] == 9
    assert state.tokens.pools[Pool.GOVERNANCE] - pool_before == 9


def test_quadratic_magnitude_zero_rejected():
    state = make_state(abc_stakeholders(), balances={"A": 100})
    state.submit_proposal("p1", ProposalKind.ROUTINE, {}, mode=VoteMode.QUADRATIC)
    with pytest.raises(InvalidInput):
        state.cast_vote("A", "p1", FOR, magnitude=0, mode=VoteMode.QUADRATIC)


def test_quadratic_insufficient_balance():
    state = make_state(abc_stakeholders(), balances={"A": 8})
    state.submit_proposal("p1", ProposalKind.ROUTINE, {}, mode=VoteMode.QUADRATIC)
    with pytest.raises(InsufficientTokens):
        state.cast_vote("A", "p1", FOR, magnitude=3, mode=VoteMode.QUADRATIC)


def test_linear_magnitude_must_be_one():
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.ROUTINE, {})
    with pytest.raises(InvalidInput):
        state.cast_vote("A", "p1", FOR, magnitude=2, mode=VoteMode.LINEAR)


def test_vote_mode_must_match_proposal_mode():
    state = make_state(abc_stakeholders(), balances={"A": 100})
    state.submit_proposal("lin", ProposalKind.ROUTINE, {})
    with pytest.raises(InvalidInput):
        state.cast_vote("A", "lin", FOR, magnitude=2, mode=VoteMode.QUADRATIC)
    state.submit_proposal("quad", ProposalKind.ROUTINE, {}, mode=VoteMode.QUADRATIC)
    with pytest.raises(InvalidInput):
        state.cast_vote("A", "quad", FOR, mode=VoteMode.LINEAR)


def test_duplicate_proposal_id_rejected():
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.ROUTINE, {}, mode=VoteMode.LINEAR)
    submitted = len(state.chain.pending)
    with pytest.raises(InvalidInput, match="duplicate proposal id p1"):
        state.submit_proposal("p1", ProposalKind.CRITICAL, {}, mode=VoteMode.LINEAR)
    assert state.proposals["p1"].kind is ProposalKind.ROUTINE
    assert len(state.chain.pending) == submitted

def test_double_vote_rejected():
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.ROUTINE, {})
    state.cast_vote("A", "p1", FOR)
    with pytest.raises(AlreadyVoted):
        state.cast_vote("A", "p1", AGAINST)


def test_vote_on_resolved_proposal_rejected():
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.ROUTINE, {})
    state.cast_vote("A", "p1", FOR)
    state.tally("p1")
    with pytest.raises(ProposalClosed):
        state.cast_vote("B", "p1", FOR)


# --- tally ---

def test_critical_at_exact_two_thirds_rejected():
    # Three equal effective powers of 45: for=90, against=45.
    # 90/135 == 2/3 exactly, strict comparison -> REJECTED.
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.CRITICAL, {})
    state.cast_vote("A", "p1", FOR)
    state.cast_vote("B", "p1", FOR)
    state.cast_vote("C", "p1", AGAINST)
    assert state.tally("p1") == ProposalStatus.REJECTED
    proposal = state.proposals["p1"]
    assert (proposal.tally_for, proposal.tally_against) == (90, 45)


def test_routine_same_votes_passes():
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.ROUTINE, {})
    state.cast_vote("A", "p1", FOR)
    state.cast_vote("B", "p1", FOR)
    state.cast_vote("C", "p1", AGAINST)
    assert state.tally("p1") == ProposalStatus.PASSED  # 2/3 > 1/2


def test_zero_votes_rejected():
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.ROUTINE, {})
    assert state.tally("p1") == ProposalStatus.REJECTED


def test_double_tally_rejected():
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.ROUTINE, {})
    state.tally("p1")
    with pytest.raises(AlreadyResolved):
        state.tally("p1")


def test_capped_linear_vote_contributes_45():
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.ROUTINE, {})
    state.cast_vote("A", "p1", FOR)
    state.tally("p1")
    assert state.proposals["p1"].tally_for == Fraction(45)


def test_quadratic_tally_sums_magnitudes():
    state = make_state(abc_stakeholders(), balances={"A": 100, "B": 100, "C": 100})
    state.submit_proposal("p1", ProposalKind.ROUTINE, {}, mode=VoteMode.QUADRATIC)
    state.cast_vote("A", "p1", FOR, magnitude=5, mode=VoteMode.QUADRATIC)
    state.cast_vote("B", "p1", AGAINST, magnitude=4, mode=VoteMode.QUADRATIC)
    state.tally("p1")
    proposal = state.proposals["p1"]
    assert (proposal.tally_for, proposal.tally_against) == (5, 4)
    assert proposal.status == ProposalStatus.PASSED  # 5/9 > 1/2


def test_linear_tally_matches_rational_oracle_randomized():
    rng = random.Random(77)
    for _ in range(50):
        stakeholders = [
            sh(f"s{i}", rng.choice(list(Role)), rng.randint(0, 400))
            for i in range(rng.randint(2, 8))
        ]
        if all(s.stake == 0 for s in stakeholders):
            continue
        state = make_state(stakeholders)
        kind = rng.choice([ProposalKind.ROUTINE, ProposalKind.CRITICAL])
        state.submit_proposal("p", kind, {})
        voters = [s for s in stakeholders if rng.random() < 0.8]
        directions = {}
        for voter in voters:
            directions[voter.id] = rng.choice([FOR, AGAINST])
            state.cast_vote(voter.id, "p", directions[voter.id])
        got = state.tally("p")

        # Independent oracle: recompute from first principles with Fractions.
        weights = state.weights
        total = sum(
            Fraction(s.stake) * weights.multiplier(s.role) for s in stakeholders)
        power = {
            s.id: min(Fraction(s.stake) * weights.multiplier(s.role),
                      weights.cap_fraction * total)
            for s in stakeholders
        }
        for_power = sum((power[v] for v in directions if directions[v] == FOR), Fraction(0))
        against_power = sum((power[v] for v in directions if directions[v] == AGAINST), Fraction(0))
        threshold = (Fraction(2, 3) if kind == ProposalKind.CRITICAL else Fraction(1, 2))
        turnout = for_power + against_power
        expected = (ProposalStatus.PASSED
                    if turnout > 0 and for_power / turnout > threshold
                    else ProposalStatus.REJECTED)
        assert got == expected


# --- collusion detection ---

def test_identical_on_ten_of_ten_flagged():
    history = {
        "x": {f"p{i}": FOR for i in range(10)},
        "y": {f"p{i}": FOR for i in range(10)},
    }
    assert detect_collusion(history, 10, Fraction(9, 10)) == {("x", "y")}


def test_identical_on_eight_of_ten_not_flagged():
    history = {
        "x": {f"p{i}": FOR for i in range(10)},
        "y": {f"p{i}": (FOR if i < 8 else AGAINST) for i in range(10)},
    }
    assert detect_collusion(history, 10, Fraction(9, 10)) == set()


def test_below_min_common_not_flagged():
    history = {
        "x": {f"p{i}": FOR for i in range(9)},
        "y": {f"p{i}": FOR for i in range(9)},
    }
    assert detect_collusion(history, 10, Fraction(9, 10)) == set()


def brute_force_collusion(history, min_common, threshold):
    # Independent oracle: explicit nested loops over every unordered pair
    # and every proposal id.
    flagged = set()
    ids = sorted(history)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            shared = 0
            same = 0
            for proposal_id in history[a]:
                if proposal_id in history[b]:
                    shared += 1
                    if history[a][proposal_id] == history[b][proposal_id]:
                        same += 1
            if shared >= min_common and same * (threshold.denominator) >= threshold.numerator * shared:
                flagged.add((a, b))
    return flagged


def test_detector_equals_brute_force_on_random_matrices():
    rng = random.Random(31)
    for _ in range(60):
        n_voters = rng.randint(2, 12)
        n_proposals = rng.randint(1, 20)
        history = {}
        for v in range(n_voters):
            votes = {}
            for p in range(n_proposals):
                if rng.random() < 0.7:
                    votes[f"p{p}"] = rng.choice([FOR, AGAINST])
            history[f"v{v:02d}"] = votes
        min_common = rng.randint(1, 12)
        threshold = Fraction(rng.randint(1, 10), 10)
        assert detect_collusion(history, min_common, threshold) \
            == brute_force_collusion(history, min_common, threshold)


def test_penalty_reduces_raw_power():
    state = make_state(abc_stakeholders())
    base = raw_power(state.stakeholders["A"], state.weights)
    state.apply_collusion_penalty("A", Fraction(9, 10))
    assert raw_power(state.stakeholders["A"], state.weights) == base * Fraction(9, 10)
    state.clear_collusion_penalty("A")
    assert raw_power(state.stakeholders["A"], state.weights) == base


def vote_together(state, voters, proposal_ids, *, epoch):
    for proposal_id in proposal_ids:
        state.submit_proposal(proposal_id, ProposalKind.ROUTINE, {}, epoch=epoch)
        for voter in voters:
            state.cast_vote(voter, proposal_id, FOR, epoch=epoch)


def flagged_bodies(state):
    return [event.body() for event in state.chain.pending
            if event.kind is EventKind.COLLUSION_FLAGGED]


def test_flag_collusion_flags_each_pair_once_in_sorted_order():
    state = make_state([*abc_stakeholders(), sh("D", Role.BANK, 50)])
    vote_together(state, ["C", "B", "A"], ["p0", "p1"], epoch=1)
    new = state.flag_collusion(2, Fraction(9, 10), Fraction(4, 5), epoch=1)
    assert new == [("A", "B"), ("A", "C"), ("B", "C")]
    assert [(b["pair"], b["shared"], b["penalty"], b["expiry_epoch"])
            for b in flagged_bodies(state)] == [
        (["A", "B"], 2, "4/5", 2), (["A", "C"], 2, "4/5", 2), (["B", "C"], 2, "4/5", 2)]
    assert [s.weight_penalty for s in state.stakeholders.values()] == [
        Fraction(4, 5), Fraction(4, 5), Fraction(4, 5), 1]

    # At a later epoch only the pair not flagged before is written.
    vote_together(state, ["D", "A"], ["p2", "p3"], epoch=2)
    assert state.flag_collusion(2, Fraction(9, 10), Fraction(4, 5), epoch=2) == [("A", "D")]
    assert [b["pair"] for b in flagged_bodies(state)][3:] == [["A", "D"]]
    assert state.stakeholders["D"].weight_penalty == Fraction(4, 5)
    assert state.flag_collusion(2, Fraction(9, 10), Fraction(4, 5), epoch=3) == []
    assert len(flagged_bodies(state)) == 4


def test_expire_penalties_lifts_each_penalty_at_its_expiry():
    state = make_state([*abc_stakeholders(), sh("D", Role.BANK, 50)])
    vote_together(state, ["A", "B"], ["p0", "p1"], epoch=1)
    state.flag_collusion(2, Fraction(9, 10), Fraction(9, 10), epoch=1)
    state.expire_penalties(1)
    assert state.stakeholders["B"].weight_penalty == Fraction(9, 10)
    # A is flagged again with D, which moves its expiry on to epoch 3.
    vote_together(state, ["A", "D"], ["p2", "p3"], epoch=2)
    state.flag_collusion(2, Fraction(9, 10), Fraction(9, 10), epoch=2)
    state.expire_penalties(2)
    assert {sid: s.weight_penalty for sid, s in state.stakeholders.items()} == {
        "A": Fraction(9, 10), "B": 1, "C": 1, "D": Fraction(9, 10)}
    state.expire_penalties(3)
    assert all(s.weight_penalty == 1 for s in state.stakeholders.values())


def test_chainless_state_flags_and_penalizes_without_writing(monkeypatch):
    monkeypatch.setattr(Chain, "append", lambda *args, **kwargs: pytest.fail("appended"))
    state = GovernanceState(None, None)
    for stakeholder in abc_stakeholders():
        state.add_stakeholder(stakeholder)
    vote_together(state, ["A", "B"], ["p0", "p1"], epoch=1)
    assert state.flag_collusion(2, Fraction(9, 10), Fraction(9, 10), epoch=1) == [("A", "B")]
    assert state.stakeholders["A"].weight_penalty == Fraction(9, 10)
    state.expire_penalties(2)
    assert state.stakeholders["A"].weight_penalty == 1


# --- adaptive weights ---

def passed_weight_proposal(payload):
    return Proposal("w1", ProposalKind.WEIGHT_ADJUSTMENT, payload,
                    status=ProposalStatus.PASSED)


def test_staged_weights_apply_at_next_boundary():
    state = make_state(abc_stakeholders())
    state.adjust_weights(passed_weight_proposal(
        {"role_multiplier": {"REGULATOR": "2"}}), epoch=3)
    assert state.weights.multiplier(Role.REGULATOR) == Fraction(3, 2)  # unchanged yet
    assert state.apply_staged_weights()
    assert state.weights.multiplier(Role.REGULATOR) == Fraction(2)


def test_a_chainless_state_adjusts_weights():
    tokens = TokenLedger(100, {})
    tokens.balances["A"] = 100
    tokens.stake("A", 100, 8, epoch=0)
    state = GovernanceState(None, tokens)
    state.add_stakeholder(sh("A", Role.BANK, 0))
    state.sync_stakes()
    state.submit_proposal("w1", ProposalKind.WEIGHT_ADJUSTMENT, {"cap_fraction": "1/4"},
                          mode=VoteMode.LINEAR)
    state.cast_vote("A", "w1", FOR)
    assert state.tally("w1") == ProposalStatus.PASSED
    state.adjust_weights(state.proposals["w1"], epoch=2)
    assert state.apply_staged_weights()
    assert state.weights.cap_fraction == Fraction(1, 4)


def test_zero_cap_fraction_rejected():
    state = make_state(abc_stakeholders())
    with pytest.raises(InvalidWeights):
        state.adjust_weights(passed_weight_proposal({"cap_fraction": "0"}))


def test_rejected_proposal_leaves_weights_unchanged():
    state = make_state(abc_stakeholders())
    proposal = Proposal("w2", ProposalKind.WEIGHT_ADJUSTMENT,
                        {"cap_fraction": "1/4"}, status=ProposalStatus.REJECTED)
    before = state.weights
    with pytest.raises(InvalidInput):
        state.adjust_weights(proposal)
    assert state.weights == before
    assert not state.apply_staged_weights()


def test_weights_change_only_on_a_weight_adjustment():
    state = make_state(abc_stakeholders())
    proposal = Proposal("r1", ProposalKind.ROUTINE, {"cap_fraction": "1/4"},
                        status=ProposalStatus.PASSED)
    with pytest.raises(InvalidInput, match="not a WEIGHT_ADJUSTMENT proposal"):
        state.adjust_weights(proposal)
    assert not state.apply_staged_weights()

def test_vote_weights_validation():
    with pytest.raises(InvalidWeights):
        VoteWeights(role_multiplier={}, cap_fraction=Fraction(0)).validate()
    with pytest.raises(InvalidWeights):
        VoteWeights(role_multiplier={Role.BANK: Fraction(-1)}).validate()
    with pytest.raises(InvalidWeights):
        VoteWeights(role_multiplier={}, threshold_critical=Fraction(3, 2)).validate()


# --- event bookkeeping ---

def test_one_vote_cast_event_per_vote():
    state = make_state(abc_stakeholders())
    state.submit_proposal("p1", ProposalKind.ROUTINE, {})
    state.cast_vote("A", "p1", FOR)
    state.cast_vote("B", "p1", AGAINST)
    votes = [e for e in state.chain.pending if e.kind == EventKind.VOTE_CAST]
    assert len(votes) == 2
    pairs = [(e.body()["voter"], e.body()["proposal_id"]) for e in votes]
    assert len(set(pairs)) == 2
