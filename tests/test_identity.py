import hashlib
import random

import pytest

from govsim.errors import (
    AccessDenied,
    DuplicateIdentity,
    InvalidBlob,
    NotFound,
    ProhibitedSystem,
    TooLarge,
    UnknownIdentity,
    UnknownStakeholder,
)
from govsim.identity import (
    Action,
    AISystemRecord,
    ComplianceStatus,
    ContentStore,
    DEFAULT_POLICY,
    DidRegistry,
    RiskTier,
    Role,
    check_access,
    derive_did,
)
from govsim.keys import get_scheme
from govsim.ledger import Chain, EventKind
from govsim.report import build_report

ROLES = {
    "regulator-1": Role.REGULATOR,
    "bank-1": Role.BANK,
    "fintech-1": Role.FINTECH,
    "auditor-1": Role.AUDITOR,
    "dev-1": Role.DEVELOPER,
}


@pytest.fixture
def chain():
    scheme = get_scheme("seeded")
    kp = scheme.generate(b"a1")
    return Chain({"a1": kp.public}, quorum=1)


@pytest.fixture
def registry(chain):
    return DidRegistry(chain, ContentStore(), ROLES)


# --- DID derivation ---

def test_did_for_zero_key_matches_external_hash():
    # Oracle: derive via hashlib directly, independent of govsim.encoding.
    key = b"\x00" * 32
    expected = "did:govsim:" + hashlib.sha256(key).hexdigest()[:32]
    assert derive_did(key) == expected


def test_did_derivation_is_stable():
    key = b"\x37" * 32
    derivations = {derive_did(key) for _ in range(1000)}
    assert len(derivations) == 1


def test_did_no_collisions_over_random_keys():
    rng = random.Random(4242)
    keys = {rng.randbytes(32) for _ in range(10_000)}
    dids = {derive_did(k) for k in keys}
    assert len(dids) == len(keys)


# --- registration ---

def test_register_fresh_high_tier_system(registry):
    did = registry.register_did(b"\x01" * 32, "credit scoring", RiskTier.HIGH, "bank-1")
    record = registry.get(did)
    assert record.version == 1
    assert record.compliance_status == ComplianceStatus.UNDER_REVIEW
    assert record.risk_tier == RiskTier.HIGH
    events = [e for e in registry.chain.pending if e.kind == EventKind.DID_REGISTERED]
    assert len(events) == 1


def test_same_key_twice_rejected(registry):
    registry.register_did(b"\x02" * 32, "x", RiskTier.LIMITED, "bank-1")
    with pytest.raises(DuplicateIdentity):
        registry.register_did(b"\x02" * 32, "y", RiskTier.LIMITED, "bank-1")


def test_a_did_collision_is_refused_and_marks_no_key_seen(registry):
    # A record of the key's DID that no register_did call made, as a fold may hold one.
    key = b"\x07" * 32
    did = derive_did(key)
    registry.apply(EventKind.DID_REGISTERED, {"did": did, "owner": "bank-1", "purpose": "x",
                                              "risk_tier": "HIGH", "version": 1}, 0)
    with pytest.raises(DuplicateIdentity, match=f"^did collision: {did}$"):
        registry.register_did(key, "y", RiskTier.LIMITED, "bank-1")
    assert key not in registry._keys_seen
    assert not registry.chain.pending
    assert registry.records[did].purpose == "x"


def test_an_update_of_a_did_never_registered_is_refused(registry):
    with pytest.raises(UnknownIdentity, match="'did:govsim:none' was never registered"):
        registry.apply(EventKind.DID_UPDATED, {"did": "did:govsim:none", "version": 2}, 0)
    assert not registry.records


def test_unacceptable_tier_rejected(registry):
    with pytest.raises(ProhibitedSystem):
        registry.register_did(b"\x03" * 32, "x", RiskTier.UNACCEPTABLE, "bank-1")


def test_unknown_owner_rejected(registry):
    with pytest.raises(UnknownStakeholder):
        registry.register_did(b"\x04" * 32, "x", RiskTier.HIGH, "nobody")


# --- RBAC matrix ---

# The documented default policy table, written out in full as the oracle.
EXPECTED_MATRIX = {
    (Role.REGULATOR, Action.VIEW): True,
    (Role.REGULATOR, Action.MODIFY): True,
    (Role.REGULATOR, Action.AUDIT): True,
    (Role.REGULATOR, Action.RECLASSIFY): True,
    (Role.AUDITOR, Action.VIEW): True,
    (Role.AUDITOR, Action.MODIFY): False,
    (Role.AUDITOR, Action.AUDIT): True,
    (Role.AUDITOR, Action.RECLASSIFY): False,
    (Role.BANK, Action.VIEW): True,
    (Role.BANK, Action.MODIFY): True,
    (Role.BANK, Action.AUDIT): False,
    (Role.BANK, Action.RECLASSIFY): False,
    (Role.FINTECH, Action.VIEW): True,
    (Role.FINTECH, Action.MODIFY): True,
    (Role.FINTECH, Action.AUDIT): False,
    (Role.FINTECH, Action.RECLASSIFY): False,
    (Role.DEVELOPER, Action.VIEW): True,
    (Role.DEVELOPER, Action.MODIFY): False,
    (Role.DEVELOPER, Action.AUDIT): False,
    (Role.DEVELOPER, Action.RECLASSIFY): False,
}


def test_policy_table_is_total():
    assert set(DEFAULT_POLICY) == {(r, a) for r in Role for a in Action}


def test_full_matrix_matches_documented_table():
    for (role, action), allowed in EXPECTED_MATRIX.items():
        assert check_access(role, action) == allowed, (role, action)


def test_regulator_views_everything():
    assert check_access(Role.REGULATOR, Action.VIEW)


def test_developer_cannot_audit():
    assert not check_access(Role.DEVELOPER, Action.AUDIT)


# --- guarded updates ---

def test_regulator_sets_status_increments_version(registry):
    did = registry.register_did(b"\x05" * 32, "x", RiskTier.HIGH, "bank-1")
    registry.update_did(did, "regulator-1", purpose="retail scoring")
    registry.update_did(did, "regulator-1", purpose="scoring v2")
    assert registry.get(did).version == 3
    version = registry.update_did(
        did, "regulator-1", status=ComplianceStatus.NONCOMPLIANT)
    assert version == 4
    assert registry.get(did).compliance_status == ComplianceStatus.NONCOMPLIANT


def test_fintech_reclassify_denied_and_logged(registry, chain):
    did = registry.register_did(b"\x06" * 32, "x", RiskTier.HIGH, "fintech-1")
    before = len(chain.pending)
    with pytest.raises(AccessDenied):
        registry.reclassify(did, RiskTier.LIMITED, "fintech-1")
    logged = [e for e in chain.pending[before:] if e.kind == EventKind.ACCESS_LOGGED]
    assert len(logged) == 1
    assert logged[0].body()["allowed"] is False
    assert registry.get(did).risk_tier == RiskTier.HIGH


def test_owner_scoped_modify(registry):
    did = registry.register_did(b"\x07" * 32, "x", RiskTier.HIGH, "bank-1")
    with pytest.raises(AccessDenied):
        registry.update_did(did, "fintech-1", purpose="hijack")
    registry.update_did(did, "bank-1", purpose="own update")
    assert registry.get(did).purpose == "own update"


def test_developer_view_own_record_only(registry):
    own = registry.register_did(b"\x08" * 32, "x", RiskTier.MINIMAL, "dev-1")
    other = registry.register_did(b"\x09" * 32, "y", RiskTier.MINIMAL, "bank-1")
    assert registry.view_record(own, "dev-1").did == own
    with pytest.raises(AccessDenied):
        registry.view_record(other, "dev-1")


def test_a_chain_without_genesis_reports_its_access_log(registry, chain):
    # With no genesis, the report's epochs is the last epoch that has events.
    did = registry.register_did(b"\x0b" * 32, "x", RiskTier.MINIMAL, "bank-1", epoch=0)
    registry.view_record(did, "bank-1", epoch=1)
    with pytest.raises(AccessDenied):
        registry.view_record(did, "dev-1", epoch=3)
    chain.seal_all({"a1": get_scheme("seeded").generate(b"a1").private})
    report = build_report(chain.blocks)
    assert (report["epochs"], report["access"]) == (3, {"logged": 2, "denied": 1})


def test_metadata_ref_update_resolves_in_store(registry):
    did = registry.register_did(b"\x0a" * 32, "x", RiskTier.HIGH, "bank-1")
    blob = b"model card contents"
    address = registry.store.store(blob)
    registry.update_did(did, "bank-1", metadata_ref=address)
    record = registry.get(did)
    assert address in record.metadata_refs
    assert registry.store.resolve(address) == blob


@pytest.mark.parametrize("changes", [{}, {"purpose": "p", "status": ComplianceStatus.COMPLIANT}],
                         ids=["no-change", "two-changes"])
def test_an_update_needs_exactly_one_change(registry, chain, changes):
    did = registry.register_did(b"\x0d" * 32, "x", RiskTier.HIGH, "bank-1")
    before = len(chain.pending)
    with pytest.raises(InvalidBlob, match="exactly one of status/metadata_ref/purpose"):
        registry.update_did(did, "bank-1", **changes)
    assert registry.get(did).version == 1
    assert len(chain.pending) == before  # refused before any access is logged

def test_unknown_did_rejected(registry):
    with pytest.raises(UnknownIdentity):
        registry.update_did("did:govsim:" + "0" * 32, "regulator-1", purpose="x")


def test_unknown_actor_rejected(registry):
    did = registry.register_did(b"\x0b" * 32, "x", RiskTier.HIGH, "bank-1")
    with pytest.raises(UnknownStakeholder):
        registry.update_did(did, "ghost", purpose="x")


def test_every_update_logs_exactly_one_access(registry, chain):
    did = registry.register_did(b"\x0c" * 32, "x", RiskTier.HIGH, "bank-1")
    attempts = 0
    for actor in ("regulator-1", "bank-1", "fintech-1", "auditor-1", "dev-1"):
        attempts += 1
        try:
            registry.update_did(did, actor, purpose=f"p-{actor}")
        except AccessDenied:
            pass
    logs = [e for e in chain.pending if e.kind == EventKind.ACCESS_LOGGED]
    assert len(logs) == attempts


# --- metadata minimization ---

def test_did_event_payloads_never_embed_blobs(registry, chain):
    blob = b"Z" * 4096
    did = registry.register_did(
        b"\x0d" * 32, "x", RiskTier.HIGH, "bank-1", metadata_blobs=[blob])
    address = registry.get(did).metadata_refs[0]
    registry.update_did(did, "bank-1", metadata_ref=registry.store.store(b"Y" * 2048))
    for event in chain.pending:
        if event.kind in (EventKind.DID_REGISTERED, EventKind.DID_UPDATED):
            assert blob not in event.payload
            assert b"Y" * 2048 not in event.payload
            # References only: hex digests, 64 chars each.
            assert address.hex().encode() in event.payload or b"metadata_refs" not in event.payload


# --- content store ---

def test_store_round_trip_bit_exact():
    store = ContentStore()
    blob = bytes(range(256)) * 3
    address = store.resolve(store.store(blob))
    assert address == blob


def test_store_idempotent():
    store = ContentStore()
    a = store.store(b"same bytes")
    b = store.store(b"same bytes")
    assert a == b
    assert len(store) == 1


def test_resolve_unknown_address():
    with pytest.raises(NotFound):
        ContentStore().resolve(b"\xab" * 32)


def test_oversize_blob_rejected():
    store = ContentStore(max_bytes=10)
    with pytest.raises(TooLarge):
        store.store(b"x" * 11)


def test_empty_blob_rejected():
    with pytest.raises(InvalidBlob):
        ContentStore().store(b"")


# --- system write paths ---

def test_system_reclassify_to_unacceptable_suspends(registry):
    did = registry.register_did(b"\x0e" * 32, "x", RiskTier.HIGH, "bank-1")
    registry.system_reclassify(did, RiskTier.UNACCEPTABLE)
    record = registry.get(did)
    assert record.risk_tier == RiskTier.UNACCEPTABLE
    assert record.compliance_status == ComplianceStatus.SUSPENDED


def test_version_bumps_exactly_once_per_update(registry):
    did = registry.register_did(b"\x0f" * 32, "x", RiskTier.HIGH, "bank-1")
    versions = [registry.get(did).version]
    registry.update_did(did, "bank-1", purpose="a")
    versions.append(registry.get(did).version)
    registry.system_set_status(did, ComplianceStatus.COMPLIANT)
    versions.append(registry.get(did).version)
    registry.system_reclassify(did, RiskTier.LIMITED)
    versions.append(registry.get(did).version)
    assert versions == [1, 2, 3, 4]
