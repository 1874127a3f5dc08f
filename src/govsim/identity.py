"""Decentralized-identity registry for AI systems.

DIDs are derived from public keys (same key, same DID), records hold only
content-addressed references to off-chain metadata, and every read or write
through the RBAC-guarded paths leaves an ACCESS_LOGGED event. The content
store exposes the store/resolve-by-hash interface an IPFS-like backend
would, so it can be swapped without touching the registry.

``DidRegistry.apply`` is the one record transition: every writer validates,
builds the DID_REGISTERED or DID_UPDATED body, applies it and appends it, and
the report fold applies the same bodies to a chain-less registry. It refuses
a second registration of a DID, a registration at a version other than 1,
an update of one never registered and an update that skips or repeats a
version.
``ACCESS_POLICY`` is the role/action table that ``_authorize`` reads.
``STATUS_RULES`` is the compliance-status lifecycle; ``move_status`` applies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from .encoding import json_value, sha256, unit_fraction
from .errors import (
    AccessDenied,
    DuplicateIdentity,
    InvalidBlob,
    InvalidInput,
    NotFound,
    ProhibitedSystem,
    TooLarge,
    UnknownIdentity,
    UnknownStakeholder,
)
from .ledger import Chain, EventKind, Store

DID_PREFIX = "did:govsim:"
DID_HEX_CHARS = 32
MAX_BLOB_BYTES = 1 << 20  # 1 MiB
# A system's exposure weight in its risk score, unless its scenario states one.
DEFAULT_EXPOSURE = Fraction(1, 2)


class Role(str, Enum):
    REGULATOR = "REGULATOR"
    BANK = "BANK"
    FINTECH = "FINTECH"
    AUDITOR = "AUDITOR"
    DEVELOPER = "DEVELOPER"


class RiskTier(str, Enum):
    UNACCEPTABLE = "UNACCEPTABLE"
    HIGH = "HIGH"
    LIMITED = "LIMITED"
    MINIMAL = "MINIMAL"


class ComplianceStatus(str, Enum):
    COMPLIANT = "COMPLIANT"
    NONCOMPLIANT = "NONCOMPLIANT"
    UNDER_REVIEW = "UNDER_REVIEW"
    SUSPENDED = "SUSPENDED"


class Action(str, Enum):
    VIEW = "VIEW"
    MODIFY = "MODIFY"
    AUDIT = "AUDIT"
    RECLASSIFY = "RECLASSIFY"


# The access policy: per role, a grant for each action in ``Action`` order
# (VIEW, MODIFY, AUDIT, RECLASSIFY). "own" allows the action only on records
# the actor owns.
ACCESS_POLICY: dict[tuple[Role, Action], str] = {
    (role, action): grant for role, row in {
        Role.REGULATOR: ("yes", "yes", "yes", "yes"),
        Role.AUDITOR: ("yes", "no", "yes", "no"),
        Role.BANK: ("yes", "own", "no", "no"),
        Role.FINTECH: ("yes", "own", "no", "no"),
        Role.DEVELOPER: ("own", "no", "no", "no"),
    }.items() for action, grant in zip(Action, row, strict=True)}
# The policy as a total boolean table, before the ownership check.
DEFAULT_POLICY = {pair: grant != "no" for pair, grant in ACCESS_POLICY.items()}

# The compliance-status lifecycle: cause -> (the statuses it moves a system out
# of, the status it sets, its actor). NONCOMPLIANT clears only on a passing audit
# (any outcome but FAIL). Reclassified UNACCEPTABLE, any status is SUSPENDED in
# the tier's own DID_UPDATED: that rule stays in DidRegistry._apply_tier.
_COMPLIANT, _NONCOMPLIANT, _UNDER_REVIEW, _SUSPENDED = ComplianceStatus
STATUS_RULES: dict[str, tuple[tuple[ComplianceStatus, ...], ComplianceStatus, str]] = {
    "regulation-change": ((_COMPLIANT, _NONCOMPLIANT), _UNDER_REVIEW, "compliance-engine"),
    "clean-assessment": ((_UNDER_REVIEW,), _COMPLIANT, "compliance-engine"),
    "failed-audit": ((_COMPLIANT, _NONCOMPLIANT, _UNDER_REVIEW), _NONCOMPLIANT, "audit-engine"),
    "passed-audit": ((_UNDER_REVIEW, _NONCOMPLIANT), _COMPLIANT, "audit-engine"),
    "critical-incident": (tuple(ComplianceStatus), _SUSPENDED, "incident-response"),
    "critical-resolved": ((_SUSPENDED,), _UNDER_REVIEW, "incident-response"),
}


def check_access(role: Role, action: Action) -> bool:
    """Pure lookup in the total (role, action) policy table."""
    return DEFAULT_POLICY[(role, action)]


def derive_did(public_key: bytes) -> str:
    """Deterministic DID: prefix plus the truncated key digest."""
    return DID_PREFIX + sha256(public_key).hex()[:DID_HEX_CHARS]


class ContentStore:
    """In-process content-addressed blob store (address = SHA-256 of blob)."""

    def __init__(self, max_bytes: int = MAX_BLOB_BYTES):
        self.max_bytes = max_bytes
        self._blobs: dict[bytes, bytes] = {}

    def store(self, blob: bytes) -> bytes:
        if not blob:
            raise InvalidBlob("empty blob")
        if len(blob) > self.max_bytes:
            raise TooLarge(f"blob of {len(blob)} bytes exceeds {self.max_bytes}")
        address = sha256(blob)
        self._blobs[address] = blob
        return address

    def resolve(self, address: bytes) -> bytes:
        try:
            return self._blobs[address]
        except KeyError:
            raise NotFound(f"no blob at {address.hex()}") from None

    def __len__(self) -> int:
        return len(self._blobs)

    def __contains__(self, address: bytes) -> bool:
        return address in self._blobs


@dataclass
class AISystemRecord:
    did: str
    risk_tier: RiskTier
    compliance_status: ComplianceStatus
    purpose: str
    owner: str
    version: int = 1
    exposure: Fraction = DEFAULT_EXPOSURE
    metadata_refs: list[bytes] = field(default_factory=list)

    def to_json(self) -> dict:
        return json_value(self)


def _ref(value: str, name: str) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise InvalidInput(f"field {name}: {value!r} is not hex") from None


class DidRegistry(Store):
    """Registry of AI-system records keyed by DID.

    ``roles`` is a live view mapping stakeholder id to role, used both for
    owner existence checks and to resolve an actor's role on guarded paths.
    """

    def __init__(
        self,
        chain: Optional[Chain],
        store: Optional[ContentStore] = None,
        roles: Optional[Mapping[str, Role]] = None,
    ):
        self.chain = chain
        self.store = ContentStore() if store is None else store
        self.roles = {} if roles is None else roles
        self.records: dict[str, AISystemRecord] = {}
        self._keys_seen: set[bytes] = set()

    # --- the transition ---

    def apply(self, kind: EventKind, body: Mapping, epoch: int) -> None:
        """Apply one DID_REGISTERED or DID_UPDATED event, its ``body`` what
        the kind declares. A bad exposure or metadata ref, a second
        registration of a DID, a version out of sequence, or an update of
        one never registered raises."""
        if kind is EventKind.DID_REGISTERED:
            if body["did"] in self.records:
                raise DuplicateIdentity(f"did collision: {body['did']}")
            if body["version"] != 1:
                raise InvalidInput(
                    f"field version: {body['version']}, but a registration is version 1")
            self.records[body["did"]] = AISystemRecord(
                did=body["did"], risk_tier=RiskTier(body["risk_tier"]),
                compliance_status=ComplianceStatus.UNDER_REVIEW, purpose=body["purpose"],
                owner=body["owner"],
                exposure=unit_fraction(body.get("exposure", DEFAULT_EXPOSURE), "exposure"),
                metadata_refs=[_ref(ref, "metadata_refs")
                               for ref in body.get("metadata_refs", [])])
            return
        record = self.records.get(body["did"])
        if record is None:
            raise UnknownIdentity(f"field did: {body['did']!r} was never registered")
        if body["version"] != record.version + 1:
            raise InvalidInput(f"field version: {body['version']} does not follow version "
                               f"{record.version}: the next version is {record.version + 1}")
        record.version = body["version"]
        change = body.get("change", {})
        if "status" in change:
            record.compliance_status = ComplianceStatus(change["status"])
        if "risk_tier" in change:
            record.risk_tier = RiskTier(change["risk_tier"])
        if "purpose" in change:
            record.purpose = change["purpose"]
        if "metadata_ref" in change:
            record.metadata_refs.append(_ref(change["metadata_ref"], "change.metadata_ref"))

    def _update(self, record: AISystemRecord, change: dict, actor: str, epoch: int) -> int:
        body = {"did": record.did, "version": record.version + 1, "change": change}
        self._record(EventKind.DID_UPDATED, body, actor=actor, epoch=epoch)
        return record.version

    # --- registration ---

    def register_did(
        self,
        public_key: bytes,
        purpose: str,
        risk_tier: RiskTier,
        owner: str,
        *,
        epoch: int = 0,
        exposure: Fraction = DEFAULT_EXPOSURE,
        metadata_blobs: Optional[list[bytes]] = None,
    ) -> str:
        if public_key in self._keys_seen:
            raise DuplicateIdentity("public key already registered")
        if risk_tier == RiskTier.UNACCEPTABLE:
            raise ProhibitedSystem("unacceptable-tier systems may not be registered")
        if owner not in self.roles:
            raise UnknownStakeholder(f"unknown owner: {owner}")
        did = derive_did(public_key)
        refs = [self.store.store(blob) for blob in metadata_blobs or []]
        self._record(EventKind.DID_REGISTERED, {
            "did": did, "owner": owner, "purpose": purpose, "risk_tier": risk_tier.value,
            "version": 1, "exposure": str(exposure),
            "metadata_refs": [ref.hex() for ref in refs],
        }, actor=owner, epoch=epoch)
        self._keys_seen.add(public_key)  # once registered: a refused key stays free
        return did

    # --- guarded access ---

    def _actor_role(self, actor: str) -> Role:
        try:
            return self.roles[actor]
        except KeyError:
            raise UnknownStakeholder(f"unknown actor: {actor}") from None

    def _authorize(self, record: AISystemRecord, actor: str, action: Action,
                   epoch: int) -> Role:
        """Policy check plus ownership rule; logs the attempt either way."""
        role = self._actor_role(actor)
        grant = ACCESS_POLICY[(role, action)]
        allowed = grant == "yes" or grant == "own" and record.owner == actor
        self._append(EventKind.ACCESS_LOGGED, {
            "did": record.did, "actor": actor, "role": role.value, "action": action.value,
            "allowed": allowed}, actor=actor, epoch=epoch)
        if not allowed:
            raise AccessDenied(f"{role.value} may not {action.value} {record.did}")
        return role

    def get(self, did: str) -> AISystemRecord:
        """Unlogged internal lookup (module plumbing, not an RBAC path)."""
        try:
            return self.records[did]
        except KeyError:
            raise UnknownIdentity(f"unknown did: {did}") from None

    def view_record(self, did: str, actor: str, *, epoch: int = 0) -> AISystemRecord:
        record = self.get(did)
        self._authorize(record, actor, Action.VIEW, epoch)
        return record

    def update_did(
        self,
        did: str,
        actor: str,
        *,
        status: Optional[ComplianceStatus] = None,
        metadata_ref: Optional[bytes] = None,
        purpose: Optional[str] = None,
        epoch: int = 0,
    ) -> int:
        """Apply exactly one change; returns the new version."""
        record = self.get(did)
        changes = [c for c in (status, metadata_ref, purpose) if c is not None]
        if len(changes) != 1:
            raise InvalidBlob("exactly one of status/metadata_ref/purpose required")
        self._authorize(record, actor, Action.MODIFY, epoch)
        if status is not None:
            change = {"status": status.value}
        elif metadata_ref is not None:
            if metadata_ref not in self.store:
                raise NotFound("metadata_ref does not resolve in the store")
            change = {"metadata_ref": metadata_ref.hex()}
        else:
            change = {"purpose": purpose}
        return self._update(record, change, actor, epoch)

    def reclassify(self, did: str, new_tier: RiskTier, actor: str, *, epoch: int = 0) -> int:
        """RBAC-guarded tier change (requires RECLASSIFY)."""
        record = self.get(did)
        self._authorize(record, actor, Action.RECLASSIFY, epoch)
        return self._apply_tier(record, new_tier, actor, epoch)

    def system_reclassify(self, did: str, new_tier: RiskTier, *, epoch: int = 0,
                          actor: str = "risk-engine") -> int:
        """Automated write-through from the risk module (no RBAC path)."""
        record = self.get(did)
        return self._apply_tier(record, new_tier, actor, epoch)

    def _apply_tier(self, record: AISystemRecord, new_tier: RiskTier,
                    actor: str, epoch: int) -> int:
        change: dict = {"risk_tier": new_tier.value}
        if new_tier == RiskTier.UNACCEPTABLE:  # the one rule outside STATUS_RULES
            change["status"] = ComplianceStatus.SUSPENDED.value
        return self._update(record, change, actor, epoch)

    def move_status(self, did: str, cause: str, *, epoch: int) -> None:
        """Write the ``STATUS_RULES`` row of ``cause`` if it moves the record's status."""
        sources, status, actor = STATUS_RULES[cause]
        if self.get(did).compliance_status in sources:
            self.system_set_status(did, status, epoch=epoch, actor=actor)

    def system_set_status(self, did: str, status: ComplianceStatus, *, epoch: int = 0,
                          actor: str = "compliance-engine") -> int:
        """Automated status write, unchecked: the run writes through ``move_status``."""
        return self._update(self.get(did), {"status": status.value}, actor, epoch)
