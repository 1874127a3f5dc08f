"""The chain fold rebuilds the live DID records and incidents exactly.

``DidRegistry.apply`` and ``IncidentLog.apply`` are the only transitions of
those two stores: the live writers apply the body they append, and
``ChainFold`` applies the same bodies read back from the chain. This
property drives a chain-backed registry and log with random steps and, after
each one, folds the chain into fresh ones and compares the full state. A
refused step must leave both stores and the chain as they were.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.encoding import ZERO_DIGEST
from govsim.errors import (
    AccessDenied,
    DuplicateIdentity,
    NotFound,
    ProhibitedSystem,
    TerminalState,
    UnknownStakeholder,
)
from govsim.identity import ComplianceStatus, ContentStore, DidRegistry, RiskTier, Role
from govsim.keys import get_scheme
from govsim.ledger import Block, Chain, EventKind
from govsim.report import ChainFold
from govsim.risk import IncidentLog, Severity

ROLES = {"reg-1": Role.REGULATOR, "bank-1": Role.BANK, "dev-1": Role.DEVELOPER}
_ACTOR = st.sampled_from([*ROLES, "nobody"])
_INDEX = st.integers(0, 7)

_STEP = st.one_of(
    st.tuples(st.just("register"), st.integers(0, 5), st.sampled_from(list(RiskTier)),
              _ACTOR, st.fractions(0, 1, max_denominator=10), st.integers(0, 2)),
    st.tuples(st.just("status"), _INDEX, _ACTOR, st.sampled_from(list(ComplianceStatus))),
    st.tuples(st.just("purpose"), _INDEX, _ACTOR, st.sampled_from(["a", "b"])),
    # A stored blob's address, or one that the store never saw.
    st.tuples(st.just("metadata"), _INDEX, _ACTOR, st.booleans()),
    st.tuples(st.just("reclassify"), _INDEX, _ACTOR, st.sampled_from(list(RiskTier))),
    st.tuples(st.just("system_reclassify"), _INDEX, st.sampled_from(list(RiskTier))),
    st.tuples(st.just("set_status"), _INDEX, st.sampled_from(list(ComplianceStatus))),
    st.tuples(st.just("raise"), _INDEX, st.sampled_from(list(Severity))),
    # Up to three steps forward, so that incidents reach every state.
    st.tuples(st.just("advance"), st.integers(0, 30), st.integers(1, 3)),
    st.tuples(st.just("tick")),
)


REFUSALS = (AccessDenied, DuplicateIdentity, NotFound, ProhibitedSystem, TerminalState,
            UnknownStakeholder)


def _call(registry: DidRegistry, log: IncidentLog, method, *args, **kwargs) -> None:
    """Call a writer of the registry or the log; a refused call leaves both
    as they were and appends no event but the access log of its attempt."""
    chain = registry.chain
    before, pending = _state(registry, log), len(chain.pending)
    try:
        method(*args, **kwargs)
    except REFUSALS:
        assert _state(registry, log) == before, method.__name__
        assert all(event.kind is EventKind.ACCESS_LOGGED
                   for event in chain.pending[pending:]), method.__name__
        raise


def _run_step(registry: DidRegistry, log: IncidentLog, step: tuple, epoch: int) -> int:
    op, *args = step
    dids = list(registry.records)
    if op == "register":
        key, tier, owner, exposure, blobs = args
        _call(registry, log, registry.register_did,
              bytes([key]) * 32, f"system {key}", tier, owner, epoch=epoch,
              exposure=exposure, metadata_blobs=[bytes([key, i]) for i in range(blobs)])
    elif op == "tick":
        epoch += 1
    elif op == "advance":
        if log.incidents:
            incident = list(log.incidents.values())[args[0] % len(log.incidents)]
            for _ in range(args[1]):
                _call(registry, log, log.advance_incident, incident, epoch=epoch)
    elif dids:
        did = dids[args[0] % len(dids)]
        if op == "status":
            _call(registry, log, registry.update_did, did, args[1], status=args[2], epoch=epoch)
        elif op == "purpose":
            _call(registry, log, registry.update_did, did, args[1], purpose=args[2], epoch=epoch)
        elif op == "metadata":
            ref = registry.store.store(did.encode()) if args[2] else bytes(32)
            _call(registry, log, registry.update_did, did, args[1], metadata_ref=ref,
                  epoch=epoch)
        elif op == "reclassify":
            _call(registry, log, registry.reclassify, did, args[2], args[1], epoch=epoch)
        elif op == "system_reclassify":
            _call(registry, log, registry.system_reclassify, did, args[1], epoch=epoch)
        elif op == "set_status":
            _call(registry, log, registry.system_set_status, did, args[1], epoch=epoch)
        else:  # raise
            _call(registry, log, log.raise_incident, did, args[1], epoch=epoch)
    return epoch


def _fold(chain: Chain) -> ChainFold:
    """The report fold of the events not yet sealed."""
    return ChainFold([Block(height=1, prev_hash=ZERO_DIGEST, events=tuple(chain.pending),
                            sealer_signatures=(), block_hash=ZERO_DIGEST)])


def _state(registry: DidRegistry, log: IncidentLog) -> tuple:
    return (
        list(registry.records.items()),
        list(log.incidents.items()),
        list(log.active),
        {did: log.open_count(did) for did in registry.records},
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(_STEP, min_size=10, max_size=60))
def test_fold_of_chain_equals_live_registry_and_log(steps):
    chain = Chain({"a1": get_scheme("seeded").generate(b"a1").public}, quorum=1)
    registry = DidRegistry(chain, ContentStore(), ROLES)
    log = IncidentLog(chain, registry)
    for key in (101, 102):
        registry.register_did(bytes([key]) * 32, "seeded", RiskTier.HIGH, "bank-1")
    epoch = 0
    for step in steps:
        try:
            epoch = _run_step(registry, log, step, epoch)
        except REFUSALS:
            pass
        fold = _fold(chain)
        assert _state(fold.registry, fold.incident_log) == _state(registry, log)
        assert [r.to_json() for r in fold.registry.records.values()] \
            == [r.to_json() for r in registry.records.values()]


def test_critical_incident_suspends_and_resolution_restores_in_both():
    chain = Chain({"a1": get_scheme("seeded").generate(b"a1").public}, quorum=1)
    registry = DidRegistry(chain, ContentStore(), ROLES)
    log = IncidentLog(chain, registry)
    did = registry.register_did(b"\x01" * 32, "x", RiskTier.HIGH, "bank-1",
                                exposure=Fraction(3, 10))
    incident = log.raise_incident(did, Severity.CRITICAL, epoch=1)
    assert registry.get(did).compliance_status == ComplianceStatus.SUSPENDED
    log.advance_incident(incident, epoch=2)
    log.advance_incident(incident, epoch=3)
    assert registry.get(did).compliance_status == ComplianceStatus.UNDER_REVIEW
    fold = _fold(chain)
    assert _state(fold.registry, fold.incident_log) == _state(registry, log)
    assert fold.incidents[incident.incident_id].to_json() == {
        "incident_id": incident.incident_id, "did": did, "severity": "CRITICAL",
        "transitions": [["RAISED", 1], ["CONTAINED", 2], ["RESOLVED", 3]],
    }
    assert fold.registry.get(did).to_json()["exposure"] == "3/10"
