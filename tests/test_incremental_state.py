"""Incremental state equals the rescans it replaces.

The simulator and the report fold keep running state (pair vote counters,
a running EWMA, indexes by DID and epoch, open incident counts) instead of
rescanning history.
Each property here drives that state with generated inputs and compares it
with the plain scan over the full history, which stays the reference
definition.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.compliance import OracleBook, OracleFeed
from govsim.encoding import ZERO_DIGEST, canonical_json_bytes
from govsim.errors import DuplicateFeed, EventInvalid, GovSimError, InvalidInput, TerminalState
from govsim.governance import (
    GovernanceState,
    ProposalKind,
    Stakeholder,
    VoteDirection,
    VoteMode,
    detect_collusion,
)
from govsim.identity import Role
from govsim.keys import get_scheme
from govsim.ledger import Block, Chain, EventKind, GovernanceEvent
from govsim.report import ChainFold
from govsim.risk import IncidentLog, IncidentState, Severity, ewma_step, forecast_compliance
from govsim.tokens import Pool, TokenLedger

VOTERS = [f"v{i}" for i in range(6)]
DIRECTIONS = [VoteDirection.FOR, VoteDirection.AGAINST]
THRESHOLDS = st.fractions(min_value=0, max_value=1, max_denominator=12)


# --- governance: pair counters vs detect_collusion ---

def _governance() -> GovernanceState:
    scheme = get_scheme("seeded")
    chain = Chain({"a1": scheme.generate(b"a1").public}, quorum=1)
    tokens = TokenLedger(1_000, {Pool.REWARDS: 1_000}, chain)
    state = GovernanceState(chain, tokens)
    for i, voter in enumerate(VOTERS):
        state.add_stakeholder(Stakeholder(id=voter, role=Role.BANK))
        # Every third voter holds nothing and the others run short after a
        # few quadratic votes, so cast_vote fails part-way through and must
        # leave the counters as they were.
        if i % 3:
            tokens.grant(Pool.REWARDS, voter, 10, epoch=0)
            tokens.stake(voter, 5, 4, epoch=0)
    state.sync_stakes()
    return state


VOTE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["vote", "vote", "vote", "tally"]),
        st.sampled_from(VOTERS),
        st.integers(0, 7),           # proposal
        st.sampled_from(DIRECTIONS),
        st.integers(1, 2),           # magnitude
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(ops=VOTE_OPS, min_common=st.integers(1, 6), threshold=THRESHOLDS)
def test_pair_counters_equal_detect_collusion(ops, min_common, threshold):
    state = _governance()
    for action, voter, number, direction, magnitude in ops:
        proposal_id = f"p{number}"
        if proposal_id not in state.proposals:
            mode = VoteMode.QUADRATIC if number % 4 == 3 else VoteMode.LINEAR
            state.submit_proposal(proposal_id, ProposalKind.ROUTINE, {}, mode=mode)
        mode = state.proposals[proposal_id].mode
        try:
            if action == "tally":
                state.tally(proposal_id)
            else:
                state.cast_vote(voter, proposal_id, direction,
                                magnitude=magnitude if mode == VoteMode.QUADRATIC else 1)
        except GovSimError:
            pass  # closed, repeated, unaffordable or powerless: no state change
        histories = state.vote_histories()
        assert state.colluding_pairs(min_common, threshold) \
            == detect_collusion(histories, min_common, threshold)
    histories = state.vote_histories()
    for (a, b), (shared, identical) in state.pair_votes.items():
        common = histories[a].keys() & histories[b].keys()
        assert shared == len(common)
        assert identical == sum(1 for p in common if histories[a][p] == histories[b][p])


# --- report: fold indexes vs linear scans ---

def _audit_failed_scan(fold: ChainFold, did: str, epoch: int) -> bool:
    return any(
        a["did"] == did and a["epoch"] == epoch and a["outcome"] in ("FAIL", "INCONCLUSIVE")
        for a in fold.audits
    )


def _incident_open_scan(fold: ChainFold, did: str, epoch: int) -> int:
    open_count = 0
    for incident in fold.incidents.values():
        if incident.system_did != did:
            continue
        state = None
        for name, at_epoch in incident.transitions:
            if at_epoch <= epoch:
                state = name
        if state in ("RAISED", "CONTAINED"):
            open_count += 1
    return open_count


DIDS = ["did:a", "did:b", "did:c"]
FOLD_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just(EventKind.AUDIT_RECORDED), st.integers(0, 6),
                  st.fixed_dictionaries(
                      {"did": st.sampled_from(DIDS),
                       "outcome": st.sampled_from(["PASS", "FAIL", "INCONCLUSIVE"]),
                       "trigger": st.sampled_from(["cadence", "violation"])},
                      # A body's own epoch key is ignored: the fold keys
                      # each audit by its event's epoch.
                      optional={"epoch": st.integers(0, 6)})),
        st.tuples(st.just(EventKind.INCIDENT_RAISED), st.integers(0, 6),
                  st.fixed_dictionaries(
                      {"did": st.sampled_from(DIDS),
                       # Few ids, so that each is advanced through most states.
                       "incident_id": st.sampled_from(["i1", "i2", "i3", "i4"]),
                       "severity": st.just("LOW")})),
        # The test fills in the state: the next one of the incident.
        st.tuples(st.just(EventKind.INCIDENT_ADVANCED), st.integers(0, 6),
                  st.fixed_dictionaries(
                      {"incident_id": st.sampled_from(["i1", "i2", "i3", "i4"])})),
    ),
    max_size=60,
)


def _fold_block(events) -> Block:
    """The events as one block. The fold raises each id once and steps a
    raised incident only to its next state: each id's position in
    IncidentState order, taken in the order given."""
    order = list(IncidentState)
    reached: dict[str, int] = {}
    built = []
    for kind, epoch, body in events:
        incident_id = body.get("incident_id")
        if kind == EventKind.INCIDENT_RAISED:
            if incident_id in reached:
                continue
            reached[incident_id] = 0
        elif kind == EventKind.INCIDENT_ADVANCED:
            if reached.get(incident_id, len(order) - 1) == len(order) - 1:
                continue
            reached[incident_id] += 1
            body = {**body, "state": order[reached[incident_id]].value}
        built.append(GovernanceEvent(event_id=len(built) + 1, kind=kind, epoch=epoch,
                                     payload=canonical_json_bytes(body), actor="t"))
    return Block(height=1, prev_hash=ZERO_DIGEST, events=tuple(built),
                 sealer_signatures=(), block_hash=ZERO_DIGEST)


@settings(max_examples=200, deadline=None)
@given(events=FOLD_EVENTS)
def test_fold_indexes_equal_linear_scans(events):
    block = _fold_block(events)
    epochs = [event.epoch for event in block.events]
    if any(a > b for a, b in zip(epochs, epochs[1:])):
        # The fold stops at the first epoch before the one of the event before it.
        with pytest.raises(EventInvalid, match=" is before epoch "):
            ChainFold([block])
    # Every run writes its events in epoch order: the draw sorted by epoch,
    # in draw order within an epoch.
    fold = ChainFold([_fold_block(sorted(events, key=lambda event: event[1]))])
    for did in [*DIDS, "did:unknown"]:
        for epoch in range(-1, 8):
            assert fold.audit_failed_at(did, epoch) == _audit_failed_scan(fold, did, epoch)
            assert fold.incident_open_at(did, epoch) == _incident_open_scan(fold, did, epoch)


# --- risk: running EWMA vs forecast_compliance ---

def _ewma_scan(history, alpha) -> float:
    smoothed = float(history[0])
    for value in history[1:]:
        smoothed = alpha * float(value) + (1 - alpha) * smoothed
    return smoothed


@settings(max_examples=300, deadline=None)
@given(history=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                        min_size=1, max_size=200),
       alpha=st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_running_ewma_is_bit_identical_to_forecast(history, alpha):
    smoothed = None
    for length, value in enumerate(history, start=1):
        smoothed = ewma_step(smoothed, value, alpha)
        forecast, _ = forecast_compliance(history[:length], alpha)
        assert smoothed.hex() == forecast.hex() == _ewma_scan(history[:length], alpha).hex()


# --- risk: open incident counts vs a scan of every incident ---

INCIDENT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("raise"), st.sampled_from(DIDS), st.sampled_from(list(Severity))),
        st.tuples(st.just("advance"), st.integers(0, 30)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=INCIDENT_OPS)
def test_incident_counts_equal_full_scan(ops):
    log = IncidentLog(None)
    for epoch, op in enumerate(ops, start=1):
        if op[0] == "raise":
            log.raise_incident(op[1], op[2], epoch=epoch)
        elif log.incidents:
            incident = list(log.incidents.values())[op[1] % len(log.incidents)]
            if incident.state == IncidentState.POSTMORTEM_FILED:
                with pytest.raises(TerminalState):
                    log.advance_incident(incident, epoch=epoch)
            else:
                log.advance_incident(incident, epoch=epoch)
        for did in [*DIDS, "did:unknown"]:
            assert log.open_count(did) == sum(
                1 for i in log.incidents.values() if i.system_did == did and i.open_())
        # Raise order, which the risk phase advances them in.
        assert list(log.active.values()) == [
            i for i in log.incidents.values() if i.state != IncidentState.POSTMORTEM_FILED]


# --- compliance: per-epoch feed index vs sorted full scan ---

FEEDS = st.lists(
    st.tuples(st.sampled_from(["fx", "macro", "regulation", "zz"]), st.integers(1, 5),
              st.dictionaries(st.sampled_from(["x", "y", "market_stress"]),
                              st.integers(0, 9), max_size=3)),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(feeds=FEEDS)
def test_values_for_equals_sorted_scan(feeds):
    book = OracleBook(None, ["oracle-1"])
    stored: dict[tuple[str, int], dict] = {}
    for feed_id, epoch, values in feeds:
        try:
            book.ingest(OracleFeed(feed_id, epoch, values, "oracle-1"))
        except DuplicateFeed:
            continue
        stored[(feed_id, epoch)] = dict(values)
    for epoch in range(0, 7):
        expected: dict = {}
        for (feed_id, feed_epoch), values in sorted(stored.items()):
            if feed_epoch == epoch:
                expected.update(values)
        assert list(book.values_for(epoch).items()) == list(expected.items())


def test_colluding_pairs_needs_positive_min_common():
    with pytest.raises(InvalidInput):
        _governance().colluding_pairs(0, Fraction(1, 2))
