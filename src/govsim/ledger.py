"""Append-only, hash-chained, multi-signature-sealed event log.

Single source of truth for every state transition. Events queue into
fixed-capacity pending blocks; sealing requires a quorum of distinct
authority signatures over the candidate block hash. Verification is total:
any single-byte mutation of a sealed chain is reported at (or before) the
mutated height.

Where each guarantee is established on the write path, so that each piece
of work is done once:

* canonical payloads: ``Chain.append``, the one way an event is queued,
  encodes each body once with its kind's writer, generated from the fields
  that ``report.EVENT_SPECS`` declares, which writes what
  ``canonical_json_bytes`` writes, canonical by construction, numbers it one
  past the last id, builds the event once through ``_new_event`` and pushes
  it onto ``pending``. Neither the bytes nor the id are rechecked.
* signer validity: ``seal_all``, the one way a block is sealed, checks once
  per call that every private key derives its authority's registered public
  key, then hashes and signs each block once without verifying its own
  signatures. ``verify_chain`` verifies every sealed block's quorum.
* event frames: ``_event_frames`` frames events with one ``struct`` pack per
  event for all that precedes the payload. ``seal_all`` frames each block's
  events once, hashes those parts and keeps them on the block
  (``Block.frames``), and ``save_chain`` writes them as they are. They cost
  a head and an actor part per event plus the tuple, since each payload part
  is the event's own bytes. Only a block without them (loaded, built by hand
  or by ``replace()``) is framed on save.

Where frame exactness is established on the read path: ``load_chain``
reads the file into one buffer and decodes each block and event frame
where it lies, in one loop per block, touching each frame once. Every read
is checked against the end of its own frame, not of the buffer, so a
length that overshoots its frame is truncation even where the file goes
on; bytes left over inside an event frame, a block frame or after the final
block are refused; strings are strict UTF-8 and event kinds must be known.
An accepted frame has then exactly one encoding of each field (fixed-width
integers, exact lengths, UTF-8 that Python's strict codec round-trips), so
decode-then-encode is the identity on it, and ``save_chain`` writes the
bytes back unchanged. A loaded block also carries the hash of the bytes it
was decoded from (``Block.read_hash``, taken from the buffer without a
copy), and ``verify_chain`` checks it against that hash; only a block built
in memory, which has none, is re-encoded and hashed from its events. By
exactness the two hashes are equal.

Concurrency: one writer (append/seal) at a time; reads against sealed
blocks are safe concurrently with each other.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from .encoding import (
    _REQUIRED, DIGEST_SIZE, U32, U64, ZERO_DIGEST, ByteReader, _integer, _key, _Keys, _plain,
    _table, _text, body_writer, canonical_json_bytes, from_canonical_json, pack_bytes, pack_str,
    read_bytes, sha256, strict_utf8, truncated, write_bytes)
from .errors import GovSimError, IoError, QuorumNotMet, SignatureInvalid, UnknownAuthority
from .keys import get_scheme

# 16-byte magic header (the GOVCHAIN tag, zero padded), then a version byte.
CHAIN_MAGIC = b"GOVCHAIN".ljust(16, b"\x00")
CHAIN_FORMAT_VERSION = 1
DEFAULT_BLOCK_CAPACITY = 100


class EventKind(str, Enum):
    DID_REGISTERED = "DID_REGISTERED"
    DID_UPDATED = "DID_UPDATED"
    DELEGATE_ELECTED = "DELEGATE_ELECTED"
    PROPOSAL_SUBMITTED = "PROPOSAL_SUBMITTED"
    VOTE_CAST = "VOTE_CAST"
    PROPOSAL_RESOLVED = "PROPOSAL_RESOLVED"
    ASSESSMENT_RECORDED = "ASSESSMENT_RECORDED"
    AUDIT_RECORDED = "AUDIT_RECORDED"
    AUDITOR_ACCREDITED = "AUDITOR_ACCREDITED"
    TOKENS_TRANSFERRED = "TOKENS_TRANSFERRED"
    STAKE_CHANGED = "STAKE_CHANGED"
    SLASH_APPLIED = "SLASH_APPLIED"
    INCIDENT_RAISED = "INCIDENT_RAISED"
    INCIDENT_ADVANCED = "INCIDENT_ADVANCED"
    RISK_RECLASSIFIED = "RISK_RECLASSIFIED"
    ORACLE_UPDATE = "ORACLE_UPDATE"
    ACCESS_LOGGED = "ACCESS_LOGGED"
    WEIGHTS_ADJUSTED = "WEIGHTS_ADJUSTED"
    # Additions beyond the core transition kinds: a liveness tick so epochs
    # with no activity still seal a block, a carrier for coordinated-voting
    # flags, and rule-registry updates.
    HEARTBEAT = "HEARTBEAT"
    COLLUSION_FLAGGED = "COLLUSION_FLAGGED"
    RULE_REGISTERED = "RULE_REGISTERED"


# The epoch phases in run order, set-up first; each event carries its index.
Phase = IntEnum("Phase", ["SETUP", "INGEST", "COMPLIANCE", "RISK", "AUDIT", "PENALTIES",
                          "GOVERNANCE", "ELECTIONS", "REWARDS", "SEALING"], start=0)


@dataclass(frozen=True, slots=True)
class GovernanceEvent:
    """One state transition. Payload bytes must be canonical JSON."""

    event_id: int
    kind: EventKind
    epoch: int
    payload: bytes
    actor: str

    def body(self) -> dict:
        """Decode the payload back into its JSON body."""
        return from_canonical_json(self.payload)


# The five slot setters, which the frozen __init__ reaches through one
# object.__setattr__ call per field.
_SET_EVENT_ID, _SET_KIND, _SET_EPOCH, _SET_PAYLOAD, _SET_ACTOR = (
    getattr(GovernanceEvent, name).__set__ for name in GovernanceEvent.__slots__)


def _new_event(event_id: int, kind: EventKind, epoch: int, payload: bytes,
               actor: str) -> GovernanceEvent:
    """``GovernanceEvent(...)``, filled slot by slot: how the chain builds
    every event it appends or loads."""
    event = object.__new__(GovernanceEvent)
    _SET_EVENT_ID(event, event_id)
    _SET_KIND(event, kind)
    _SET_EPOCH(event, epoch)
    _SET_PAYLOAD(event, payload)
    _SET_ACTOR(event, actor)
    return event


# An event frame: u64 event id | u32 kind length | kind | u64 epoch |
# u32 payload length | payload | u32 actor length | actor. A frame is written
# behind its u32 length with one pack of its kind's head, all that precedes
# the payload: (pack, the head's size less the length, name length, name).
# It is read by name (_KIND_BY_NAME) and two "<QI" records: id and kind
# length, epoch and payload length.
_KIND_BY_NAME = {kind.value.encode("ascii"): kind for kind in EventKind}
_HEADS = {kind: (struct.Struct(f"<IQI{len(name)}sQI").pack, 24 + len(name), len(name), name)
          for name, kind in _KIND_BY_NAME.items()}
_U64_U32 = struct.Struct("<QI")


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    events: tuple[GovernanceEvent, ...]
    sealer_signatures: tuple[tuple[str, bytes], ...]
    block_hash: bytes
    # The hash of the bytes this block was loaded from; set only by
    # load_chain, so a block built in memory or by replace() has none.
    read_hash: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)
    # The event frames this block was hashed from, as _event_frames returned
    # them; set only by seal_all, so a block loaded, built by hand or by
    # replace() has none. Each payload part is its event's own payload object.
    frames: Optional[tuple[bytes, ...]] = field(default=None, init=False, compare=False, repr=False)


def _event_frames(events: Sequence[GovernanceEvent]) -> tuple[bytes, ...]:
    """Each event's frame behind its u32 length prefix, as parts to join."""
    parts: list[bytes] = []
    actors: dict[str, bytes] = {}
    for event in events:
        pack, size, name_len, name = _HEADS[event.kind]
        payload = event.payload
        actor = actors.get(event.actor)
        if actor is None:
            actor = actors[event.actor] = pack_str(event.actor)
        parts += (pack(size + len(payload) + len(actor), event.event_id, name_len, name,
                       event.epoch, len(payload)), payload, actor)
    return tuple(parts)


def compute_block_hash(height: int, prev_hash: bytes, events: Sequence[GovernanceEvent],
                       frames: Optional[Sequence[bytes]] = None) -> bytes:
    """The block hash; ``frames``, when given, are the events' ``_event_frames``."""
    return sha256(b"".join([U64.pack(height), prev_hash, *(frames or _event_frames(events))]))


@dataclass(frozen=True)
class ChainVerification:
    ok: bool
    failed_height: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


# Each kind's body writer: the whole-body encode here, which report replaces
# at import with the writer of the shapes that EVENT_SPECS declares.
_WRITERS = dict.fromkeys(EventKind, body_writer((), "phase"))


def default_quorum(n_authorities: int) -> int:
    return math.ceil(2 * n_authorities / 3)


class Chain:
    """Pending queue plus sealed blocks, bound to an authority set."""

    def __init__(
        self,
        authorities: Mapping[str, bytes],
        *,
        quorum: Optional[int] = None,
        capacity: int = DEFAULT_BLOCK_CAPACITY,
        scheme: str = "seeded",
    ):
        if capacity < 1:
            raise ValueError("block capacity must be >= 1")
        if not authorities:
            raise ValueError("at least one sealing authority required")
        self.authorities = dict(authorities)
        self.quorum = default_quorum(len(self.authorities)) if quorum is None else quorum
        if self.quorum < 1:
            raise ValueError("sealing quorum must be >= 1")
        if self.quorum > len(self.authorities):
            raise ValueError(f"sealing quorum {self.quorum} exceeds the "
                             f"{len(self.authorities)} sealing authorities")
        self.capacity = capacity
        self.scheme_name = scheme
        self.scheme = get_scheme(scheme)
        self.blocks: list[Block] = []
        self.pending: list[GovernanceEvent] = []
        # When set (by the simulator), stamped as "phase" into every body
        # built through append().
        self.phase: Optional[Phase] = None

    # --- append ---

    @property
    def last_event_id(self) -> int:
        if self.pending:
            return self.pending[-1].event_id
        for block in reversed(self.blocks):
            if block.events:
                return block.events[-1].event_id
        return 0

    def append(self, kind: EventKind, body: dict, *, actor: str, epoch: int) -> GovernanceEvent:
        """Build the next event from a JSON body and queue it.

        The payload is the canonical bytes of the body, with ``"phase"`` when
        the chain has one, from the kind's writer: canonical by construction
        (non-string keys are refused). The id is the next one, so neither is
        rechecked.
        """
        event = _new_event(self.last_event_id + 1, kind, epoch,
                           _WRITERS[kind](body, self.phase), actor)
        self.pending.append(event)
        return event

    # --- seal ---

    @property
    def head_hash(self) -> bytes:
        return self.blocks[-1].block_hash if self.blocks else ZERO_DIGEST

    def seal_all(self, private_keys: Mapping[str, bytes]) -> list[Block]:
        """Seal every pending block, signing with the given authority keys.

        Signer validity is established once per call, before anything is
        signed: each authority must be registered, its private key must
        derive its registered public key, and at least ``quorum`` of them
        must sign. The signatures made here are then not verified again:
        a matching key pair signs verifiably, exactly so for ``seeded`` and
        for ``ed25519`` by RFC 8032's deterministic signing. ``verify_chain``
        still checks every block's quorum. Each candidate is framed and
        hashed once, and keeps its frames for ``save_chain``.
        """
        keys = sorted(private_keys.items())
        for authority_id, private in keys:
            public = self.authorities.get(authority_id)
            if public is None:
                raise UnknownAuthority(f"unregistered sealer: {authority_id}")
            if self.scheme.public_key(private) != public:
                raise SignatureInvalid(f"private key does not match {authority_id}")
        if len(keys) < self.quorum:
            raise QuorumNotMet(f"{len(keys)} distinct signers < quorum {self.quorum}")
        sealed = []
        while self.pending:
            height, prev_hash = len(self.blocks) + 1, self.head_hash
            candidate = tuple(self.pending[: self.capacity])
            frames = _event_frames(candidate)
            digest = compute_block_hash(height, prev_hash, candidate, frames)
            signatures = tuple(
                (authority_id, self.scheme.sign(private, digest))
                for authority_id, private in keys
            )
            block = Block(height, prev_hash, candidate, signatures, digest)
            object.__setattr__(block, "frames", frames)
            self.blocks.append(block)
            del self.pending[: len(candidate)]
            sealed.append(block)
        return sealed


class Store:
    """A state that writes its own events: the one place that decides whether an
    event reaches a chain. A store whose one transition is ``apply(kind, body,
    epoch)`` records through ``_record``, and the report fold applies the same
    sealed bodies; a store without one appends through ``_append``."""
    chain: Optional[Chain]

    def _append(self, kind: EventKind, body: dict, *, actor: str, epoch: int) -> None:
        """Append the event when the store has a chain."""
        if self.chain is not None:
            self.chain.append(kind, body, actor=actor, epoch=epoch)

    def _record(self, kind: EventKind, body: dict, *, actor: str, epoch: int):
        """Apply the event, then append it when the store has a chain."""
        applied = self.apply(kind, body, epoch)
        # The append is inline, not through _append: this is the run's hot path.
        if self.chain is not None:
            self.chain.append(kind, body, actor=actor, epoch=epoch)
        return applied


def verify_chain(
    blocks: Sequence[Block],
    authorities: Mapping[str, bytes],
    quorum: int,
    scheme: str = "seeded",
) -> ChainVerification:
    """Check hashes, linkage, quorum signatures and event-id continuity.

    Read-only; reports the first failing height instead of raising.
    """
    sig = get_scheme(scheme)
    prev_hash = ZERO_DIGEST
    next_event_id = 1
    for position, block in enumerate(blocks, start=1):
        if block.height != position:
            return ChainVerification(False, position, "height mismatch")
        recomputed = block.read_hash or compute_block_hash(
            block.height, block.prev_hash, block.events)
        if recomputed != block.block_hash:
            return ChainVerification(False, position, "block hash mismatch")
        if block.prev_hash != prev_hash:
            return ChainVerification(False, position, "broken prev_hash linkage")
        valid_signers = set()
        for authority_id, signature in block.sealer_signatures:
            if len(valid_signers) >= quorum:
                break  # further signatures cannot change the outcome
            public = authorities.get(authority_id)
            if public is not None and sig.verify(public, block.block_hash, signature):
                valid_signers.add(authority_id)
        if len(valid_signers) < quorum:
            return ChainVerification(False, position, "sealer quorum not met")
        for event in block.events:
            if event.event_id != next_event_id:
                return ChainVerification(False, position, "event id discontinuity")
            next_event_id += 1
        prev_hash = block.block_hash
    return ChainVerification(True)


def query_events(
    blocks: Sequence[Block],
    *,
    kind: Optional[EventKind] = None,
    epoch: Optional[int] = None,
    actor: Optional[str] = None,
    predicate: Optional[Callable[[GovernanceEvent], bool]] = None,
) -> list[GovernanceEvent]:
    """All sealed events matching the filters, in event_id order."""
    out = []
    for block in blocks:
        for event in block.events:
            if kind is not None and event.kind != kind:
                continue
            if epoch is not None and event.epoch != epoch:
                continue
            if actor is not None and event.actor != actor:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
    out.sort(key=lambda e: e.event_id)
    return out


# --- chain file format ---
# magic(16) | version(1) | header json (len-prefixed) | u64 block count |
# blocks (len-prefixed): u64 height | prev hash | u32 event count |
# events (len-prefixed) | u32 signature count | (authority, signature)
# pairs (each len-prefixed) | block hash

def _block_bytes(block: Block, signers: dict[tuple[str, int], bytes]) -> bytes:
    """The block's frame, from the frames it was sealed with when it has
    them; ``signers`` maps each (authority id, signature length) to the
    framed id and length prefix, shared across the blocks of one save."""
    parts = [U64.pack(block.height), block.prev_hash, U32.pack(len(block.events)),
             *(block.frames or _event_frames(block.events)),
             U32.pack(len(block.sealer_signatures))]
    for authority_id, signature in block.sealer_signatures:
        key = authority_id, len(signature)
        signer = signers.get(key)
        if signer is None:
            signer = signers[key] = pack_str(authority_id) + U32.pack(key[1])
        parts += (signer, signature)
    parts.append(block.block_hash)
    return b"".join(parts)


def _decode_block(data: bytes, view: memoryview, start: int, end: int,
                  actors: dict[bytes, str]) -> Block:
    """The block whose frame is exactly ``view[start:end]``, carrying the hash
    of the bytes it was decoded from; IoError otherwise. ``actors`` maps each
    actor's bytes to its string, shared across the blocks of one file."""
    reader = ByteReader(data, start, end)
    height = reader.u64()
    prev_hash = reader.raw(DIGEST_SIZE)
    n_events = reader.u32()
    frames_at = pos = reader.pos
    events = []
    for _ in range(n_events):
        # The frame's length prefix, checked as ByteReader.window checks it.
        at = pos + 4
        if at > end:
            raise truncated(4, end - pos)
        pos = at + U32.unpack_from(data, pos)[0]
        if pos > end:
            raise truncated(pos - at, end - at)
        # The event frame data[at:pos], field by field.
        kind_at = at + 12
        if kind_at > pos:
            raise truncated(12, pos - at)
        event_id, kind_len = _U64_U32.unpack_from(data, at)
        epoch_at = kind_at + kind_len
        if epoch_at + 12 > pos:
            raise truncated(kind_len + 12, pos - kind_at)
        kind = _KIND_BY_NAME.get(data[kind_at:epoch_at])
        if kind is None:
            raise IoError(f"unknown event kind {strict_utf8(data[kind_at:epoch_at])!r}")
        epoch, payload_len = _U64_U32.unpack_from(data, epoch_at)
        payload_at = epoch_at + 12
        actor_len_at = payload_at + payload_len
        if actor_len_at + 4 > pos:
            raise truncated(payload_len + 4, pos - payload_at)
        actor_at = actor_len_at + 4
        actor_end = actor_at + U32.unpack_from(data, actor_len_at)[0]
        if actor_end != pos:
            if actor_end > pos:
                raise truncated(actor_end - actor_at, pos - actor_at)
            raise IoError("trailing bytes inside event frame")
        raw_actor = data[actor_at:pos]
        actor = actors.get(raw_actor)
        if actor is None:
            actor = actors[raw_actor] = strict_utf8(raw_actor)
        events.append(_new_event(event_id, kind, epoch, data[payload_at:actor_len_at], actor))
    reader.pos = pos
    signatures = tuple(
        (reader.str_(), reader.bytes_()) for _ in range(reader.u32())
    )
    block_hash = reader.raw(DIGEST_SIZE)
    if not reader.exhausted():
        raise IoError("trailing bytes inside block frame")
    block = Block(height, prev_hash, tuple(events), signatures, block_hash)
    # u64 height | prev hash | the event frames, as compute_block_hash frames
    # them: the bytes read, less the event count between them.
    digest = hashlib.sha256(view[start:frames_at - 4])
    digest.update(view[frames_at:pos])
    object.__setattr__(block, "read_hash", digest.digest())
    return block


def save_chain(chain: Chain, path: str | Path) -> None:
    """Write the sealed blocks; IoError, before anything is written, if any
    event is still pending, since the file would silently drop it."""
    if n := len(chain.pending):
        raise IoError(f"cannot save a chain with {n} pending event{'s' * (n > 1)}: seal it first")
    header = {
        "authorities": {aid: pub.hex() for aid, pub in sorted(chain.authorities.items())},
        "quorum": chain.quorum,
        "capacity": chain.capacity,
        "scheme": chain.scheme_name,
    }
    parts = [
        CHAIN_MAGIC, bytes([CHAIN_FORMAT_VERSION]),
        pack_bytes(canonical_json_bytes(header)), U64.pack(len(chain.blocks)),
    ]
    signers: dict[tuple[str, int], bytes] = {}
    for block in chain.blocks:
        frame = _block_bytes(block, signers)
        parts += (U32.pack(len(frame)), frame)
    write_bytes(path, b"".join(parts), "chain file")


# A chain file's header: Chain's arguments as save_chain writes them; Chain checks their ranges.
_HEADER = _Keys(authorities=_key(_REQUIRED, _table(str, _plain(bytes.fromhex))),
                quorum=_key(_REQUIRED, _integer), capacity=_key(_REQUIRED, _integer),
                scheme=_key(_REQUIRED, _text))


def _header_chain(raw: bytes) -> Chain:
    """The empty chain that a file header describes; IoError if it is malformed."""
    try:
        return Chain(**_HEADER(from_canonical_json(raw), ""))
    except (TypeError, ValueError, GovSimError) as exc:
        raise IoError(f"bad chain header: {exc}") from exc


def load_chain(path: str | Path) -> Chain:
    data = read_bytes(path, "chain file")
    reader = ByteReader(data)
    if reader.raw(len(CHAIN_MAGIC)) != CHAIN_MAGIC:
        raise IoError("not a chain file (bad magic)")
    version = reader.raw(1)[0]
    if version != CHAIN_FORMAT_VERSION:
        raise IoError(f"unsupported chain format version {version}")
    chain = _header_chain(reader.bytes_())
    n_blocks = reader.u64()
    view, actors = memoryview(data), {}
    for _ in range(n_blocks):
        chain.blocks.append(_decode_block(data, view, *reader.window(), actors))
    if not reader.exhausted():
        raise IoError("trailing bytes after final block")
    return chain
