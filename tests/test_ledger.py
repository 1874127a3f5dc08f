import dataclasses
import hashlib
import json
import random
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from govsim.cli import main as cli_main
from govsim.encoding import ZERO_DIGEST, canonical_json_bytes, is_canonical_json
from govsim.errors import (
    EncodingError,
    GovSimError,
    IoError,
    QuorumNotMet,
    SignatureInvalid,
    UnknownAuthority,
)
from govsim.keys import SeededScheme, get_scheme
from govsim.ledger import (
    Block,
    Chain,
    ChainVerification,
    EventKind,
    GovernanceEvent,
    _event_frames,
    _new_event,
    compute_block_hash,
    default_quorum,
    load_chain,
    query_events,
    save_chain,
    verify_chain,
)

SCHEME = get_scheme("seeded")
AUTH_KEYS = {f"auth-{i}": SCHEME.generate(f"auth-{i}".encode()) for i in range(1, 5)}
AUTHORITIES = {aid: kp.public for aid, kp in AUTH_KEYS.items()}
PRIVATE = {aid: kp.private for aid, kp in AUTH_KEYS.items()}


def make_chain(capacity=100, quorum=None):
    return Chain(AUTHORITIES, quorum=quorum, capacity=capacity)


def make_event(event_id, kind=EventKind.HEARTBEAT, epoch=1, body=None, actor="sim"):
    payload = canonical_json_bytes(body if body is not None else {"n": event_id})
    return GovernanceEvent(event_id=event_id, kind=kind, epoch=epoch,
                           payload=payload, actor=actor)


def append_events(chain, count):
    """Append ``count`` heartbeats, each body naming its own event id."""
    return [chain.append(EventKind.HEARTBEAT, {"n": chain.last_event_id + 1},
                         actor="sim", epoch=1) for _ in range(count)]


def build_sealed_chain(n_blocks, events_per_block=3, capacity=None):
    chain = make_chain(capacity=capacity or events_per_block)
    rng = random.Random(99)
    kinds = list(EventKind)
    for _ in range(n_blocks):
        for _ in range(events_per_block):
            # Drawn kind, epoch, body, actor: the order the pinned head hashes need.
            kind, epoch = rng.choice(kinds), rng.randint(0, 9)
            body = {"n": chain.last_event_id + 1, "r": rng.randint(0, 10 ** 6)}
            chain.append(kind, body, actor=f"actor-{rng.randint(0, 4)}", epoch=epoch)
        chain.seal_all(PRIVATE)
    return chain


# --- append ---

def test_first_event_lands_at_height_1_index_0():
    chain = make_chain()
    (event,) = append_events(chain, 1)
    assert event.event_id == 1
    chain.seal_all(PRIVATE)
    assert chain.blocks[0].height == 1
    assert chain.blocks[0].events[0] is event


def test_payload_sorted_as_numbers_rejected():
    # json.dumps sorts int keys as numbers, so these bytes are not canonical,
    # and append refuses the body that would give them.
    payload = json.dumps({2: "x", 10: "y"}, sort_keys=True, separators=(",", ":")).encode()
    assert payload == b'{"2":"x","10":"y"}'
    assert not is_canonical_json(payload)
    chain = make_chain()
    with pytest.raises(EncodingError):
        chain.append(EventKind.HEARTBEAT, {2: "x", 10: "y"}, actor="sim", epoch=1)
    assert chain.pending == []


@pytest.mark.parametrize("body", [{2: "x", 10: "y"}, {"n": {2: 1, 10: 2}}])
def test_append_refuses_a_body_with_non_string_keys(body):
    # append does not recheck its payload: canonical_json_bytes refuses the body.
    chain = make_chain()
    with pytest.raises(EncodingError):
        chain.append(EventKind.HEARTBEAT, body, actor="sim", epoch=1)
    assert chain.pending == []
    assert chain.append(EventKind.HEARTBEAT, {"n": 1}, actor="sim", epoch=1).event_id == 1


def test_thousand_events_span_ten_pending_blocks():
    # Oracle: where each event seals, from capacity arithmetic alone.
    capacity = 100
    chain = make_chain(capacity=capacity)
    appended = append_events(chain, 1000)
    assert [event.event_id for event in appended] == list(range(1, 1001))
    chain.seal_all(PRIVATE)
    got = [(block.height, index) for block in chain.blocks for index in range(len(block.events))]
    assert got == [(1 + k // capacity, k % capacity) for k in range(1000)]
    assert [event for block in chain.blocks for event in block.events] == appended


# --- seal_all ---

def test_seal_takes_only_capacity_events():
    chain = make_chain(capacity=2)
    append_events(chain, 3)
    block = chain.seal_all(PRIVATE)[0]
    assert [e.event_id for e in block.events] == [1, 2]
    assert chain.blocks[1].events[0].event_id == 3
    # With nothing pending, there is nothing to seal.
    assert chain.seal_all(PRIVATE) == [] and len(chain.blocks) == 2


@pytest.fixture(params=["seeded", "ed25519"])
def scheme_name(request):
    try:
        get_scheme(request.param)
    except GovSimError:
        pytest.skip(f"{request.param} backend unavailable")
    return request.param


def keyed_chain(scheme_name, n_events=5, capacity=2, quorum=3):
    """A chain with pending events, and the private keys of its 4 authorities."""
    scheme = get_scheme(scheme_name)
    keys = {f"auth-{i}": scheme.generate(f"auth-{i}".encode()) for i in range(1, 5)}
    chain = Chain({aid: kp.public for aid, kp in keys.items()},
                  quorum=quorum, capacity=capacity, scheme=scheme_name)
    append_events(chain, n_events)
    return chain, {aid: kp.private for aid, kp in keys.items()}


def test_seal_all_seals_capacity_slices_as_hashed_and_signed_by_hand(scheme_name):
    chain, private = keyed_chain(scheme_name)
    events, expected, prev = tuple(chain.pending), [], ZERO_DIGEST
    for height, at in enumerate(range(0, len(events), chain.capacity), start=1):
        block_events = events[at:at + chain.capacity]
        digest = compute_block_hash(height, prev, block_events)
        signatures = tuple((aid, chain.scheme.sign(private[aid], digest))
                           for aid in sorted(private))
        expected.append(Block(height, prev, block_events, signatures, digest))
        prev = digest
    sealed = chain.seal_all(private)
    assert sealed == chain.blocks == expected
    assert len(sealed) == 3 and chain.pending == []
    assert verify_chain(chain.blocks, chain.authorities, chain.quorum, scheme_name).ok


def _swap_keys(private):
    return {**private, "auth-1": private["auth-2"], "auth-2": private["auth-1"]}


@pytest.mark.parametrize("keys_for,error", [
    (_swap_keys, SignatureInvalid),
    (lambda private: {**private, "ghost": private["auth-1"]}, UnknownAuthority),
    (lambda private: {aid: private[aid] for aid in ("auth-3", "auth-4")}, QuorumNotMet),
], ids=["swapped-private-key", "unknown-authority", "below-quorum"])
def test_seal_all_checks_key_pairs_before_signing(scheme_name, keys_for, error):
    chain, private = keyed_chain(scheme_name)
    chain.seal_all(private)
    append_events(chain, 2)
    blocks, pending = list(chain.blocks), list(chain.pending)
    with pytest.raises(error):
        chain.seal_all(keys_for(private))
    assert chain.blocks == blocks
    assert chain.pending == pending


def test_default_quorum_is_two_thirds_ceiling():
    assert default_quorum(3) == 2
    assert default_quorum(4) == 3
    assert default_quorum(6) == 4
    assert default_quorum(1) == 1


# --- verify_chain ---

def sigs_from(authority_ids, digest):
    return [(aid, SCHEME.sign(PRIVATE[aid], digest)) for aid in authority_ids]


def verify_signed(quorum, sign):
    """Verify a one-block chain whose hash is taken here and whose
    signatures are ``sign(block_hash)``."""
    events = (make_event(1),)
    digest = compute_block_hash(1, ZERO_DIGEST, events)
    return verify_chain([Block(1, ZERO_DIGEST, events, tuple(sign(digest)), digest)],
                        AUTHORITIES, quorum)


QUORUM_NOT_MET = ChainVerification(False, 1, "sealer quorum not met")


def test_exact_quorum_verifies():
    assert verify_signed(3, lambda digest: sigs_from(["auth-1", "auth-2", "auth-3"], digest)).ok


def test_below_quorum_rejected():
    assert verify_signed(
        3, lambda digest: sigs_from(["auth-1", "auth-2"], digest)) == QUORUM_NOT_MET


def test_duplicate_signer_counts_once():
    # Four signatures, one authority duplicated before quorum is reached:
    # 3 distinct ({auth-1, auth-2, auth-3}), which meets quorum 3.
    signers = ["auth-1", "auth-1", "auth-2", "auth-3"]
    assert len(set(signers)) == 3
    assert verify_signed(3, lambda digest: sigs_from(signers, digest)).ok


def test_duplicate_signers_below_quorum_rejected():
    # Four valid signatures, but only 2 distinct signers.
    assert verify_signed(3, lambda digest: sigs_from(
        ["auth-1", "auth-2", "auth-1", "auth-2"], digest)) == QUORUM_NOT_MET


def test_unknown_signer_rejected():
    # A valid signature under an unregistered id counts for nothing, whoever's key made it.
    ghost = SCHEME.generate(b"ghost")
    assert verify_signed(1, lambda digest: [
        ("ghost", SCHEME.sign(ghost.private, digest))]) == QUORUM_NOT_MET
    assert verify_signed(3, lambda digest: [
        *sigs_from(["auth-1", "auth-2"], digest),
        ("ghost", SCHEME.sign(PRIVATE["auth-3"], digest))]) == QUORUM_NOT_MET


def test_invalid_signature_rejected():
    assert verify_signed(1, lambda digest: [("auth-1", b"\x00" * 32)]) == QUORUM_NOT_MET
    assert verify_signed(3, lambda digest: [
        *sigs_from(["auth-1", "auth-2"], digest), ("auth-3", b"\x00" * 32)]) == QUORUM_NOT_MET


def test_valid_chain_verifies_ok():
    chain = build_sealed_chain(100)
    result = verify_chain(chain.blocks, AUTHORITIES, chain.quorum)
    assert result.ok


def test_payload_flip_detected_at_height_3():
    chain = build_sealed_chain(10)
    target = chain.blocks[2]
    event = target.events[0]
    tampered_payload = bytes([event.payload[0] ^ 0xFF]) + event.payload[1:]
    tampered_event = dataclasses.replace(event, payload=tampered_payload)
    tampered_block = dataclasses.replace(
        target, events=(tampered_event,) + target.events[1:])
    # Independent oracle: recompute block 3's hash with hashlib over the
    # framing and confirm it no longer matches the stored hash.
    recomputed = compute_block_hash(
        tampered_block.height, tampered_block.prev_hash, tampered_block.events)
    assert hashlib.sha256(recomputed).digest() != hashlib.sha256(target.block_hash).digest()

    blocks = list(chain.blocks)
    blocks[2] = tampered_block
    result = verify_chain(blocks, AUTHORITIES, chain.quorum)
    assert not result.ok
    assert result.failed_height == 3


def test_zeroed_prev_hash_detected_at_height_7():
    chain = build_sealed_chain(10)
    target = chain.blocks[6]
    forged = dataclasses.replace(target, prev_hash=ZERO_DIGEST)
    # Keep the stored hash consistent with the forged contents so the
    # failure is attributed to linkage, not the hash check.
    forged = dataclasses.replace(
        forged, block_hash=compute_block_hash(forged.height, forged.prev_hash, forged.events))
    blocks = list(chain.blocks)
    blocks[6] = forged
    result = verify_chain(blocks, AUTHORITIES, chain.quorum)
    assert not result.ok
    assert result.failed_height == 7
    assert result.reason == "broken prev_hash linkage"


def test_missing_block_detected_as_height_mismatch():
    chain = build_sealed_chain(5)
    blocks = [block for block in chain.blocks if block.height != 3]
    assert verify_chain(blocks, AUTHORITIES, chain.quorum) == ChainVerification(
        False, 3, "height mismatch")


def test_skipped_event_id_detected_in_a_resealed_block():
    chain = build_sealed_chain(5)
    last = chain.blocks[-1]
    # The last block's events renumbered one past where they belong, then
    # hashed and signed again: every check before the event ids passes.
    events = tuple(dataclasses.replace(event, event_id=event.event_id + 1)
                   for event in last.events)
    digest = compute_block_hash(last.height, last.prev_hash, events)
    blocks = [*chain.blocks[:-1], dataclasses.replace(
        last, events=events, block_hash=digest, sealer_signatures=sigs_from(PRIVATE, digest))]
    assert verify_chain(blocks, AUTHORITIES, chain.quorum) == ChainVerification(
        False, 5, "event id discontinuity")


def test_dropped_signatures_detected_as_quorum_failure():
    chain = build_sealed_chain(5)
    stripped = dataclasses.replace(chain.blocks[3], sealer_signatures=())
    blocks = list(chain.blocks)
    blocks[3] = stripped
    result = verify_chain(blocks, AUTHORITIES, chain.quorum)
    assert (result.failed_height, result.reason) == (4, "sealer quorum not met")


def test_single_byte_mutations_all_detected_at_or_before_height():
    # Totality: flip one payload byte per block across the whole chain.
    chain = build_sealed_chain(12)
    for height in range(1, 13):
        blocks = list(chain.blocks)
        target = blocks[height - 1]
        event = target.events[1]
        mutated = dataclasses.replace(
            event,
            payload=event.payload[:2] + bytes([event.payload[2] ^ 0x40]) + event.payload[3:],
        )
        blocks[height - 1] = dataclasses.replace(
            target, events=(target.events[0], mutated) + target.events[2:])
        result = verify_chain(blocks, AUTHORITIES, chain.quorum)
        assert not result.ok
        assert result.failed_height == height


def test_exhaustive_payload_byte_flips_on_small_chain():
    # Every single-byte payload mutation anywhere in a small chain is caught
    # at or before the mutated height.
    chain = build_sealed_chain(3, events_per_block=2)
    for height in range(1, 4):
        original = chain.blocks[height - 1]
        for event_index, event in enumerate(original.events):
            for position in range(len(event.payload)):
                for bit in (0x01, 0x80):
                    flipped = (event.payload[:position]
                               + bytes([event.payload[position] ^ bit])
                               + event.payload[position + 1:])
                    mutated = dataclasses.replace(event, payload=flipped)
                    events = tuple(
                        mutated if i == event_index else e
                        for i, e in enumerate(original.events))
                    blocks = list(chain.blocks)
                    blocks[height - 1] = dataclasses.replace(original, events=events)
                    result = verify_chain(blocks, AUTHORITIES, chain.quorum)
                    assert not result.ok
                    assert result.failed_height <= height


@pytest.mark.parametrize("args, head", [
    ((100,), "bab55f37676e8945aa64b8d6ab8e430f582c9d08c9cbd9ebbae743452f15581e"),
    ((12,), "6a0defdfa08aa49ab55d6744a3bf1270100b643eeb8a8a38733516711c04e100"),
    ((3, 2), "4a21649a77847ac6de07a10bb896a044a614bee4f26f24b2dc121c0af056a279"),
    ((20, 5), "b9dd44481dc18fc9ccccf421d819022107071aa5a65e81803d0e159bdc0c0a05"),
])
def test_sealed_chain_head_hashes_pinned(args, head):
    # Pins the bytes that append and seal_all write: canonical payloads,
    # event and block framing, and signatures in sorted authority order.
    assert build_sealed_chain(*args).head_hash.hex() == head


def test_replay_determinism_identical_chain_bytes():
    a = build_sealed_chain(8)
    b = build_sealed_chain(8)
    assert a.head_hash == b.head_hash
    assert [blk.block_hash for blk in a.blocks] == [blk.block_hash for blk in b.blocks]


# --- query_events ---

def test_query_no_matches_is_empty():
    chain = make_chain(capacity=5)
    append_events(chain, 1)
    chain.seal_all(PRIVATE)
    assert query_events(chain.blocks, kind=EventKind.VOTE_CAST) == []


def test_query_epoch_matches_linear_scan():
    chain = build_sealed_chain(20, events_per_block=5)
    all_events = [e for b in chain.blocks for e in b.events]
    for epoch in range(0, 10):
        expected = [e for e in all_events if e.epoch == epoch]
        assert query_events(chain.blocks, epoch=epoch) == expected


def test_query_actor_matches_linear_scan_multiset():
    chain = build_sealed_chain(20, events_per_block=5)
    all_events = [e for b in chain.blocks for e in b.events]
    for actor in {e.actor for e in all_events}:
        got = query_events(chain.blocks, actor=actor)
        expected = [e for e in all_events if e.actor == actor]
        assert got == expected
        assert [e.event_id for e in got] == sorted(e.event_id for e in got)


def test_query_predicate():
    chain = build_sealed_chain(5, events_per_block=4)
    got = query_events(chain.blocks, predicate=lambda e: e.event_id % 2 == 0)
    assert all(e.event_id % 2 == 0 for e in got)
    assert len(got) == 10


# --- persistence ---

def test_chain_file_round_trip(tmp_path):
    chain = build_sealed_chain(6)
    path = tmp_path / "chain.db"
    save_chain(chain, path)
    loaded = load_chain(path)
    assert loaded.head_hash == chain.head_hash
    assert loaded.quorum == chain.quorum
    assert loaded.authorities == chain.authorities
    assert [b.block_hash for b in loaded.blocks] == [b.block_hash for b in chain.blocks]
    assert verify_chain(loaded.blocks, loaded.authorities, loaded.quorum).ok


def test_chain_built_events_are_plain_events(tmp_path):
    """Events built slot by slot, on append and on load, are the dataclass's
    own: equal, hashed and shown alike, frozen, without a __dict__."""
    fields = (7, EventKind.VOTE_CAST, 3, b'{"a":1}', "régulateur")
    built, plain = _new_event(*fields), GovernanceEvent(*fields)
    assert built == plain
    assert hash(built) == hash(plain)
    assert repr(built) == repr(plain)
    assert not hasattr(built, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.epoch = 4
    assert dataclasses.replace(built, epoch=4) == GovernanceEvent(
        7, EventKind.VOTE_CAST, 4, b'{"a":1}', "régulateur")

    chain = make_chain(capacity=3)
    appended = [chain.append(kind, {"n": n}, actor=f"actor-{n % 2}", epoch=n // 3)
                for n, kind in enumerate(EventKind)]
    chain.seal_all(PRIVATE)
    save_chain(chain, tmp_path / "chain.db")
    loaded = load_chain(tmp_path / "chain.db")
    assert [event for block in loaded.blocks for event in block.events] == appended


def test_truncated_chain_file_fails(tmp_path):
    chain = build_sealed_chain(6)
    path = tmp_path / "chain.db"
    save_chain(chain, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])
    with pytest.raises(IoError):
        load_chain(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "chain.db"
    path.write_bytes(b"NOTCHAIN" + b"\x01" + b"\x00" * 40)
    with pytest.raises(IoError):
        load_chain(path)


def _first_event_frame(data: bytes) -> tuple[int, int]:
    """Offsets of block 1's length prefix and of its first event's length
    prefix in a chain file: magic, version, header, block count, then
    length-prefixed blocks of height, prev hash, event count and events."""
    offset = 16 + 1
    offset += 4 + struct.unpack_from("<I", data, offset)[0] + 8
    return offset, offset + 4 + 8 + 32 + 4


def test_bytes_appended_inside_event_frame_rejected(reference_results, tmp_path):
    path = tmp_path / "chain.db"
    save_chain(reference_results["credit_scoring"].chain, path)
    data = bytearray(path.read_bytes())
    block_at, event_at = _first_event_frame(data)
    (event_len,) = struct.unpack_from("<I", data, event_at)
    data[event_at + 4 + event_len:event_at + 4 + event_len] = b"\x00\x01\x02"
    for at in (block_at, event_at):
        struct.pack_into("<I", data, at, struct.unpack_from("<I", data, at)[0] + 3)
    path.write_bytes(bytes(data))
    with pytest.raises(IoError, match="trailing bytes inside event frame"):
        load_chain(path)


def _with_header(data: bytes, header: bytes) -> bytes:
    """The chain file with its header JSON replaced by ``header``."""
    at = 16 + 1  # magic, then the version byte
    (length,) = struct.unpack_from("<I", data, at)
    return data[:at] + struct.pack("<I", len(header)) + header + data[at + 4 + length:]


def _first_authority(header: dict, value) -> dict:
    first = sorted(header["authorities"])[0]
    return {**header, "authorities": {**header["authorities"], first: value}}


@pytest.mark.parametrize("mutate", [
    lambda h: _first_authority(h, "not hex"),
    lambda h: _first_authority(h, 7),
    lambda h: {k: v for k, v in h.items() if k != "quorum"},
    lambda h: {**h, "quorum": 0},
    lambda h: {**h, "capacity": 0},
    lambda h: [h],
    lambda h: {**h, "authorities": list(h["authorities"].values())},
    lambda h: {**h, "quorum": "2"},
    lambda h: {**h, "quorum": True},
    lambda h: {**h, "authorities": {}},
    lambda h: {**h, "scheme": "rsa"},
    lambda h: {**h, "scheme": ["seeded"]},
    lambda h: None,
], ids=["key-not-hex", "key-not-string", "no-quorum", "quorum-0", "capacity-0",
        "header-list", "authorities-list", "quorum-string", "quorum-bool",
        "authorities-empty", "scheme-unknown", "scheme-list", "not-json"])
def test_malformed_chain_header_rejected(reference_results, tmp_path, mutate):
    chain = reference_results["credit_scoring"].chain
    header = {"authorities": {aid: key.hex() for aid, key in chain.authorities.items()},
              "quorum": chain.quorum, "capacity": chain.capacity,
              "scheme": chain.scheme_name}
    path = tmp_path / "chain.db"
    save_chain(chain, path)
    data = path.read_bytes()
    # The header rebuilt here is the one on file, so only ``mutate`` breaks it.
    assert _with_header(data, canonical_json_bytes(header)) == data
    bad = mutate(header)
    path.write_bytes(_with_header(data, b"{" if bad is None else canonical_json_bytes(bad)))
    with pytest.raises(IoError, match="bad chain header"):
        load_chain(path)


def test_chain_header_names_the_authority_whose_key_is_bad(reference_results, tmp_path):
    # The key's entry is named, not only its table.
    chain = reference_results["credit_scoring"].chain
    path = tmp_path / "chain.db"
    save_chain(chain, path)
    data = path.read_bytes()
    header = {"authorities": {aid: key.hex() for aid, key in chain.authorities.items()},
              "quorum": chain.quorum, "capacity": chain.capacity,
              "scheme": chain.scheme_name}
    first = sorted(header["authorities"])[0]
    path.write_bytes(_with_header(data, canonical_json_bytes(_first_authority(header, "zz"))))
    with pytest.raises(IoError) as refused:
        load_chain(path)
    assert str(refused.value) == (f"bad chain header: authorities.{first}: "
                                  "non-hexadecimal number found in fromhex() arg at position 0")


def test_chain_header_refuses_an_undeclared_key(reference_results, tmp_path):
    # A misspelt key used to load: the header was read key by key.
    chain = reference_results["credit_scoring"].chain
    path = tmp_path / "chain.db"
    save_chain(chain, path)
    header = {"authorities": {aid: key.hex() for aid, key in chain.authorities.items()},
              "quorum": chain.quorum, "capacity": chain.capacity,
              "scheme": chain.scheme_name, "quorom": 9}
    path.write_bytes(_with_header(path.read_bytes(), canonical_json_bytes(header)))
    with pytest.raises(IoError, match="^bad chain header: quorom: unknown key$"):
        load_chain(path)


@pytest.mark.parametrize("empty, quorum", [(False, 4), (True, 5)],
                         ids=["credit-scoring", "no-blocks"])
def test_verify_refuses_a_header_quorum_above_its_authorities(
        reference_results, tmp_path, capsys, empty, quorum):
    # The header is refused, not block 1 for a quorum no block could meet; a
    # chain with no blocks to fail used to verify OK.
    chain = reference_results["credit_scoring"].chain
    assert len(chain.authorities) == 3
    if empty:
        chain = Chain(chain.authorities, quorum=chain.quorum, capacity=chain.capacity,
                      scheme=chain.scheme_name)
    path = tmp_path / "chain.db"
    save_chain(chain, path)
    header = {"authorities": {aid: key.hex() for aid, key in chain.authorities.items()},
              "quorum": quorum, "capacity": chain.capacity,
              "scheme": chain.scheme_name}
    path.write_bytes(_with_header(path.read_bytes(), canonical_json_bytes(header)))
    capsys.readouterr()
    assert cli_main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: bad chain header: sealing quorum {quorum} "
                   "exceeds the 3 sealing authorities\n")


@pytest.mark.parametrize("kind_bytes, message", [
    (b"HEARTBEAX", "unknown event kind 'HEARTBEAX'"),
    (b"HEARTBEA\xff", "invalid UTF-8"),
])
def test_bad_event_kind_in_frame_rejected(tmp_path, kind_bytes, message):
    chain = make_chain(capacity=2)
    append_events(chain, 2)
    chain.seal_all(PRIVATE)
    path = tmp_path / "chain.db"
    save_chain(chain, path)
    data = path.read_bytes()
    assert data.count(b"HEARTBEAT") == 2
    path.write_bytes(data.replace(b"HEARTBEAT", kind_bytes, 1))
    with pytest.raises(IoError, match=message):
        load_chain(path)


def test_save_chain_to_a_missing_directory_raises_io_error(tmp_path):
    with pytest.raises(IoError, match="cannot write chain file"):
        save_chain(build_sealed_chain(1), tmp_path / "missing" / "chain.db")


def test_save_chain_refuses_pending_events_before_writing(tmp_path):
    """The file holds sealed blocks only, so a pending event would be dropped."""
    path = tmp_path / "chain.db"
    chain = build_sealed_chain(1)
    append_events(chain, 1)
    with pytest.raises(IoError, match="^cannot save a chain with 1 pending event: seal it first$"):
        save_chain(chain, path)
    unsealed = make_chain()
    append_events(unsealed, 2)
    with pytest.raises(IoError, match="^cannot save a chain with 2 pending events: seal it first$"):
        save_chain(unsealed, path)
    assert not path.exists()
    chain.seal_all(PRIVATE)
    save_chain(chain, path)
    assert [event.event_id for block in load_chain(path).blocks for event in block.events] == [
        1, 2, 3, 4]


# --- load_chain over arbitrary bytes ---

def _saved(chain) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.db"
        save_chain(chain, path)
        return path.read_bytes()


def _loaded(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.db"
        path.write_bytes(data)
        return load_chain(path)


def _block_count_at(data: bytes) -> int:
    """Offset of the u64 block count: after the magic, version and header."""
    return 16 + 1 + 4 + struct.unpack_from("<I", data, 16 + 1)[0]


def _small_chain():
    """Three blocks of two events, a HEARTBEAT and a non-ASCII actor among them."""
    chain = make_chain(capacity=2)
    kinds = [EventKind.HEARTBEAT, EventKind.VOTE_CAST, EventKind.DID_REGISTERED,
             EventKind.SLASH_APPLIED, EventKind.RULE_REGISTERED, EventKind.ORACLE_UPDATE]
    for event_id, kind in enumerate(kinds, start=1):
        chain.append(kind, {"n": event_id}, epoch=event_id // 2,
                     actor="régulateur" if event_id % 2 else "sim")
    chain.seal_all(PRIVATE)
    return chain


SMALL = _saved(_small_chain())


def _add_to_u32(data: bytes, at: int, delta: int) -> list:
    """Byte flips that add ``delta`` to the u32 at ``at``."""
    (old,) = struct.unpack_from("<I", data, at)
    mask = old ^ (old + delta)
    return [("flip", at + k, (mask >> 8 * k) & 0xFF) for k in range(4) if (mask >> 8 * k) & 0xFF]


def _mutated(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for op, at, arg in mutations:
        if op == "flip" and out:
            out[at % len(out)] ^= arg
        elif op == "insert":
            at %= len(out) + 1
            out[at:at] = arg
        elif op == "delete" and out:
            at %= len(out)
            del out[at:at + arg]
        elif op == "truncate":
            del out[at % (len(out) + 1):]
    return bytes(out)


_BLOCK_AT, _EVENT_AT = _first_event_frame(SMALL)
(_EVENT_LEN,) = struct.unpack_from("<I", SMALL, _EVENT_AT)
_SECOND_EVENT_AT = _EVENT_AT + 4 + _EVENT_LEN
_BLOCK_END = _BLOCK_AT + 4 + struct.unpack_from("<I", SMALL, _BLOCK_AT)[0]

# The HEARTBEAT kind spelled with an invalid UTF-8 byte.
BAD_UTF8_KIND = [("flip", SMALL.index(b"HEARTBEAT") + 8, ord("T") ^ 0xFF)]
# Three bytes after block 1's first event, both length prefixes grown to match.
TRAILING_IN_FRAME = [
    ("insert", _SECOND_EVENT_AT, b"\x00\x01\x02"),
    *_add_to_u32(SMALL, _EVENT_AT, 3), *_add_to_u32(SMALL, _BLOCK_AT, 3),
]
# Block 1's last event claims a length that ends 10 bytes into block 2's frame.
OVERSHOOT_INTO_NEXT_BLOCK = _add_to_u32(
    SMALL, _SECOND_EVENT_AT,
    _BLOCK_END + 10 - (_SECOND_EVENT_AT + 4) - struct.unpack_from("<I", SMALL, _SECOND_EVENT_AT)[0])

# Block 1's frame ends two bytes into its first event's length prefix.
CUT_IN_EVENT_PREFIX = _add_to_u32(SMALL, _BLOCK_AT, _EVENT_AT + 2 - _BLOCK_END)
# Two bytes after block 1's hash, its length prefix grown to match.
TRAILING_IN_BLOCK = [("insert", _BLOCK_END, b"\x00\x01"), *_add_to_u32(SMALL, _BLOCK_AT, 2)]
# The format version byte, after the 16-byte magic, set to 3.
VERSION_3 = [("flip", 16, SMALL[16] ^ 3)]

# Half the positions fall in the frames, past the magic and header JSON.
_AT = st.one_of(st.integers(0, len(SMALL)), st.integers(_block_count_at(SMALL), len(SMALL)))
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), _AT, st.integers(1, 255)),
    st.tuples(st.just("insert"), _AT, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), _AT, st.integers(1, 8)),
    st.tuples(st.just("truncate"), _AT, st.none()),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=4))
@example(BAD_UTF8_KIND)
@example(TRAILING_IN_FRAME)
@example(OVERSHOOT_INTO_NEXT_BLOCK)
def test_load_chain_is_total_and_exact_over_mutated_bytes(mutations):
    """Any bytes load as IoError or as a chain that saves back to them.

    From the block count on the file is frames only, so an accepted chain
    re-encodes to exactly the bytes read: hashing a decoded event is
    hashing what was on disk. (The header is parsed JSON and is rebuilt.)
    """
    data = _mutated(SMALL, mutations)
    try:
        chain = _loaded(data)
    except IoError:
        return
    resaved = _saved(chain)
    assert resaved[_block_count_at(resaved):] == data[_block_count_at(data):]
    # Each loaded block is checked against the hash of the bytes read; a copy
    # made by replace() has none and is re-hashed from its events. Alike.
    copies = [dataclasses.replace(block) for block in chain.blocks]
    assert all(block.read_hash for block in chain.blocks)
    assert not any(copy.read_hash for copy in copies)
    args = chain.authorities, chain.quorum, chain.scheme_name
    assert verify_chain(chain.blocks, *args) == verify_chain(copies, *args)


@pytest.mark.parametrize("mutations,message", [
    (BAD_UTF8_KIND, "invalid UTF-8"),
    (TRAILING_IN_FRAME, "trailing bytes inside event frame"),
    (OVERSHOOT_INTO_NEXT_BLOCK, "truncated input"),
    (CUT_IN_EVENT_PREFIX, "truncated input: wanted 4 bytes, got 2"),
    (TRAILING_IN_BLOCK, "trailing bytes inside block frame"),
    (VERSION_3, "unsupported chain format version 3"),
], ids=["bad-utf8-kind", "trailing-in-frame", "overshoot-into-next-block",
        "cut-in-event-prefix", "trailing-in-block", "version-3"])
def test_small_chain_reproductions_rejected(mutations, message):
    assert _loaded(SMALL).head_hash == _small_chain().head_hash
    with pytest.raises(IoError, match=message):
        _loaded(_mutated(SMALL, mutations))


def _reference_frame(event) -> bytes:
    """An event's frame behind its u32 length prefix, field by field: u64
    event id | u32 kind length | kind | u64 epoch | u32 payload length |
    payload | u32 actor length | actor."""
    kind, actor = event.kind.value.encode("ascii"), event.actor.encode("utf-8")
    frame = b"".join((
        struct.pack("<Q", event.event_id), struct.pack("<I", len(kind)), kind,
        struct.pack("<Q", event.epoch), struct.pack("<I", len(event.payload)), event.payload,
        struct.pack("<I", len(actor)), actor))
    return struct.pack("<I", len(frame)) + frame


_U64_MAX = 2**64 - 1
# Short payloads, empty among them, and long ones whose length needs three bytes.
_PAYLOAD = st.one_of(st.binary(max_size=24),
                     st.integers(2**16, 2**16 + 300).map(lambda n: b"p" * n))
# Any string that encodes as UTF-8: no lone surrogates.
_ACTOR = st.text(st.characters(codec="utf-8"), max_size=12)
_EVENT = st.builds(GovernanceEvent, st.integers(0, _U64_MAX), st.sampled_from(EventKind),
                   st.integers(0, _U64_MAX), _PAYLOAD, st.one_of(_ACTOR, st.sampled_from(
                       ["sim", "régulateur", "監査", ""])))


@settings(max_examples=150, deadline=None)
@given(st.lists(_EVENT, max_size=12), st.integers(1, 4),
       st.lists(st.tuples(st.sampled_from(list(AUTHORITIES) + ["réviseur"]),
                          st.binary(max_size=70)), max_size=3))
@example([GovernanceEvent(_U64_MAX, kind, _U64_MAX, b"", "监管") for kind in EventKind], 5, [])
def test_event_frames_are_the_reference_layout(events, capacity, signatures):
    """The seal and the save frame every event in the one layout, and a saved
    chain loads and saves back to the same bytes."""
    assert b"".join(_event_frames(events)) == b"".join(map(_reference_frame, events))
    assert compute_block_hash(9, ZERO_DIGEST, events) == hashlib.sha256(
        struct.pack("<Q", 9) + ZERO_DIGEST + b"".join(map(_reference_frame, events))).digest()

    chain, prev = make_chain(), ZERO_DIGEST
    for height, at in enumerate(range(0, len(events), capacity), start=1):
        block_events = tuple(events[at:at + capacity])
        block_hash = compute_block_hash(height, prev, block_events)
        chain.blocks.append(Block(height, prev, block_events, tuple(signatures), block_hash))
        prev = block_hash
    data = _saved(chain)
    loaded = _loaded(data)
    assert _saved(loaded) == data
    assert [block.events for block in loaded.blocks] == [block.events for block in chain.blocks]
    assert [block.read_hash for block in loaded.blocks] == [
        block.block_hash for block in chain.blocks]


def test_a_loaded_block_carries_the_hash_of_its_bytes():
    chain = _loaded(SMALL)
    assert verify_chain(chain.blocks, chain.authorities, chain.quorum).ok
    for block in chain.blocks:
        assert block.read_hash == compute_block_hash(block.height, block.prev_hash, block.events)
    # The hash read is no field of the block as compared, shown or copied.
    built = _small_chain().blocks
    assert chain.blocks == built
    assert [repr(block) for block in chain.blocks] == [repr(block) for block in built]
    assert all(block.read_hash is None for block in built)


def test_a_loaded_block_replaced_with_new_contents_fails_its_hash():
    chain = _loaded(SMALL)
    block = chain.blocks[1]
    event = block.events[0]
    tampered = (dataclasses.replace(event, payload=b'{"n":0}'), *block.events[1:])
    for forged in (dataclasses.replace(block, events=tampered),
                   dataclasses.replace(block, prev_hash=ZERO_DIGEST)):
        blocks = list(chain.blocks)
        blocks[1] = forged
        assert verify_chain(blocks, chain.authorities, chain.quorum) == ChainVerification(
            False, 2, "block hash mismatch")


def test_ed25519_builds_one_public_key_per_authority(monkeypatch):
    try:
        scheme = get_scheme("ed25519")
    except GovSimError:
        pytest.skip("ed25519 backend unavailable")
    chain, private = keyed_chain("ed25519", n_events=12, capacity=2, quorum=4)
    chain.seal_all(private)
    public_key_class = scheme._mod.Ed25519PublicKey
    real = public_key_class.from_public_bytes
    built = []

    def counting(public):
        built.append(public)
        return real(public)

    monkeypatch.setattr(public_key_class, "from_public_bytes", counting)
    assert len(chain.blocks) == 6
    assert verify_chain(chain.blocks, chain.authorities, chain.quorum, "ed25519").ok
    assert sorted(built) == sorted(chain.authorities.values())
    # A malformed key is refused, not kept.
    assert not scheme.verify(b"\x01" * 5, b"m", b"\x00" * 64)


def test_verify_stops_checking_signatures_at_quorum(monkeypatch):
    chain = build_sealed_chain(5)
    calls = []
    real_verify = SeededScheme.verify

    def counting_verify(self, public, message, signature):
        calls.append(public)
        return real_verify(self, public, message, signature)

    monkeypatch.setattr(SeededScheme, "verify", counting_verify)
    assert len(chain.blocks[0].sealer_signatures) == 4
    assert verify_chain(chain.blocks, AUTHORITIES, 3).ok
    assert len(calls) == 3 * 5
    # Below quorum, every signature is still checked before the verdict.
    calls.clear()
    assert not verify_chain(chain.blocks, AUTHORITIES, 5)
    assert len(calls) == 4


def test_saved_file_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.db", tmp_path / "b.db"
    save_chain(build_sealed_chain(4), a)
    save_chain(build_sealed_chain(4), b)
    assert a.read_bytes() == b.read_bytes()


def test_empty_authority_set_rejected():
    with pytest.raises(ValueError):
        Chain({})
    with pytest.raises(ValueError):
        Chain(AUTHORITIES, quorum=0)


def test_quorum_above_the_authority_count_rejected():
    assert Chain(AUTHORITIES, quorum=len(AUTHORITIES)).quorum == 4
    with pytest.raises(ValueError, match="sealing quorum 5 exceeds the 4 sealing authorities"):
        Chain(AUTHORITIES, quorum=5)
