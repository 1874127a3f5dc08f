import json
import os
import subprocess
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.encoding import (
    U32,
    U64,
    ByteReader,
    _json_fault,
    as_fraction,
    canonical_json_bytes,
    from_canonical_json,
    is_canonical_json,
    json_value,
    pack_bytes,
    pack_str,
)
from govsim.errors import EncodingError, IoError
from govsim.ledger import _WRITERS, EventKind, Phase
from tests.conftest import REPO_ROOT


def test_canonical_json_sorts_keys_and_strips_spaces():
    data = canonical_json_bytes({"b": 1, "a": [True, None, "x"]})
    assert data == b'{"a":[true,null,"x"],"b":1}'


class _Color(str, Enum):
    RED = "RED"
    BLUE = "BLUE"


@dataclass
class _Inner:
    share: Fraction
    key: bytes


@dataclass(frozen=True)
class _Record:
    color: _Color
    inners: tuple[_Inner, ...]
    tags: frozenset[_Color]
    table: dict[_Color, Fraction]
    count: int = 3
    label: str = "x"
    ratio: float = 0.25
    flag: bool = True
    note: None = None


def test_json_value_writes_each_kind_and_records_at_any_depth():
    record = _Record(_Color.BLUE, (_Inner(Fraction(3, 2), b"\x00\xff"), _Inner(Fraction(2), b"")),
                     frozenset({_Color.RED, _Color.BLUE}), {_Color.RED: Fraction(1, 5)})
    assert json_value(record) == {
        "color": "BLUE",
        "inners": [{"share": "3/2", "key": "00ff"}, {"share": "2", "key": ""}],
        "tags": ["BLUE", "RED"], "table": {"RED": "1/5"},
        "count": 3, "label": "x", "ratio": 0.25, "flag": True, "note": None,
    }
    assert json.loads(canonical_json_bytes(json_value(record))) == json_value(record)


def test_same_logical_value_same_bytes():
    left = canonical_json_bytes({"x": 1, "y": {"b": 2, "a": 3}})
    right = canonical_json_bytes(json.loads('{"y": {"a": 3, "b": 2}, "x": 1}'))
    assert left == right


def test_nan_rejected():
    with pytest.raises(EncodingError):
        canonical_json_bytes({"x": float("nan")})


def test_non_serializable_rejected():
    with pytest.raises(EncodingError):
        canonical_json_bytes({"x": object()})


def test_is_canonical_json():
    assert is_canonical_json(b'{"a":1}')
    assert not is_canonical_json(b'{"a": 1}')   # spacing
    assert not is_canonical_json(b'{"b":1,"a":2}')  # key order
    assert not is_canonical_json(b"not json")


def test_round_trip():
    value = {"k": [1, 2, {"deep": False}]}
    assert from_canonical_json(canonical_json_bytes(value)) == value


# canonical_json_bytes is canonical by construction, which is what lets
# Chain.append skip the is_canonical_json recheck.

@pytest.mark.parametrize("value", [
    {2: "x", 10: "y"},          # sorted as numbers: "2" before "10"
    {1: "x"},                   # a single int key would round-trip, but is refused too
    {"n": {2: 1, 10: 2}},
    [{"ok": [{"deep": {None: 1}}]}],
    ({"t": ({1.5: 0},)},),
    {True: 1},
])
def test_non_string_keys_refused_at_any_depth(value):
    with pytest.raises(EncodingError, match="not a string"):
        canonical_json_bytes(value)


def test_circular_value_refused():
    value = {"a": []}
    value["a"].append(value)
    with pytest.raises(EncodingError):
        canonical_json_bytes(value)


@pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: {"k": v}], ids=["list", "object"])
def test_value_nested_past_the_recursion_limit_refused(wrap):
    """Nesting too deep to encode is an EncodingError, not a RecursionError;
    the next encode is unaffected."""
    value = 1
    for _ in range(5000):
        value = wrap(value)
    with pytest.raises(EncodingError, match="recursion"):
        canonical_json_bytes(value)
    assert canonical_json_bytes({"x": [True]}) == b'{"x":[true]}'


_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=False, allow_infinity=False))
# String keys that read like numbers or literals, beside keys of other types.
_STR_KEYS = st.text() | st.sampled_from(["1", "10", "-2", "true", "false", "null", "1.5"])
_ANY_KEYS = _STR_KEYS | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)


def _json(keys):
    return st.recursive(
        _SCALARS,
        lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner)
                       | st.dictionaries(keys, inner, max_size=4)),
        max_leaves=20,
    )


def _has_non_str_key(value):
    if isinstance(value, dict):
        return (any(not isinstance(key, str) for key in value)
                or any(_has_non_str_key(item) for item in value.values()))
    if isinstance(value, (list, tuple)):
        return any(_has_non_str_key(item) for item in value)
    return False


@settings(max_examples=300, deadline=None)
@given(_json(_STR_KEYS))
def test_output_is_always_canonical(value):
    assert is_canonical_json(canonical_json_bytes(value))


@settings(max_examples=500, deadline=None)
@given(_json(_ANY_KEYS))
def test_refused_exactly_when_a_key_is_not_a_string(value):
    try:
        data = canonical_json_bytes(value)
    except EncodingError:
        assert _has_non_str_key(value)
    else:
        assert not _has_non_str_key(value)
        assert is_canonical_json(data)


# Beside JSON: NaN and the infinities, objects and sets, which no JSON type holds.
_NOT_JSON = (_SCALARS | st.sampled_from([float("nan"), float("inf"), float("-inf")])
             | st.builds(object) | st.sets(st.integers(), max_size=2))


@st.composite
def _maybe_json(draw):
    """A depth-bounded value, now and then not JSON: a scalar of ``_NOT_JSON``,
    a tuple, a key of another type, or a list or dict that holds itself.
    Shared values are drawn too, which are JSON."""
    value = draw(st.recursive(_NOT_JSON, lambda inner: (
        st.lists(inner, max_size=3) | st.tuples(inner)
        | st.dictionaries(_ANY_KEYS | st.just(float("nan")), inner, max_size=3)),
        max_leaves=12))
    how = draw(st.sampled_from(["as-is", "shared", "list-loop", "dict-loop", "deep-loop"]))
    if how == "as-is":
        return value
    if how == "shared":
        return {"a": value, "b": [value, {"c": value}]}
    if how == "list-loop":
        loop = [value]
        loop.append(loop)
    elif how == "dict-loop":
        loop = {"v": value}
        loop["self"] = loop
    else:  # held by a list inside it
        loop = {"v": value}
        loop["down"] = [{"up": loop}]
    return {"x": [loop]}


@settings(max_examples=500, deadline=None)
@given(_maybe_json())
def test_the_walker_finds_a_fault_exactly_when_the_encoder_refuses(value):
    fault = _json_fault(value)
    try:
        canonical_json_bytes(value)
    except EncodingError:
        assert fault is not None
    else:
        assert fault is None


@settings(max_examples=300, deadline=None)
@given(_json(_STR_KEYS))
def test_bytes_are_those_of_json_dumps(value):
    """The encoder built once at import writes what json.dumps writes."""
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True, allow_nan=False).encode()
    assert canonical_json_bytes(value) == expected


# Values of each declared type, with the awkward ones drawn often: strings
# that need escapes or hold a "%", str-enum members, ints past 2**64 and past
# the digit limit, and nested values with a key that is not a string.
_TEXT = (st.text(max_size=6) | st.sampled_from(list(_Color))
         | st.sampled_from(['"', "\\", " ", "é", "\ud800", "\u2028", "\x00", "%s", "%%"]))
_DECLARED = {str: _TEXT, bool: st.booleans(), dict: _json(_ANY_KEYS),
             int: st.integers() | st.sampled_from([2**64, -2**64 - 1, 10**4300])}
_OFF_TYPE = (st.booleans() | st.integers() | st.floats() | st.none() | st.text(max_size=3)
             | st.lists(st.integers(), max_size=2))
_PHASES = st.sampled_from([None, True, 0, *Phase]) | st.integers()
# Every shape that report.EVENT_SPECS declares, a kind without fields giving {}.
_SHAPES = [(kind, shape) for kind in EventKind for shape in _WRITERS[kind].shapes]
_SHAPE_IDS = ["-".join([kind.value, *(v for v in shape.values() if isinstance(v, str))])
              for kind, shape in _SHAPES]


# The hot shapes as their templates were first written, by (kind, op): 13,600
# of vote-storm's 16,366 events at seed 23. Their derived shapes must not drift.
_HOT_SHAPES = {
    (EventKind.VOTE_CAST, None): {"proposal_id": str, "voter": str, "direction": str,
                                  "magnitude": int, "mode": str, "cost": int},
    (EventKind.TOKENS_TRANSFERRED, "reward"): {"op": "reward", "to": str, "amount": int},
    (EventKind.TOKENS_TRANSFERRED, "pool_charge"): {
        "op": "pool_charge", "from": str, "pool": str, "amount": int, "reason": str, "ref": str},
    (EventKind.ASSESSMENT_RECORDED, None): {"did": str, "epoch": int, "tier": str, "results": dict,
                                            "score": str, "compliant": bool, "commitment": str},
}


def test_the_hot_shapes_are_derived_unchanged():
    derived = {(kind, shape.get("op")): shape for kind, shape in _SHAPES}
    assert {key: derived.get(key) for key in _HOT_SHAPES} == _HOT_SHAPES
    assert [kind for kind, _ in _SHAPES].count(EventKind.VOTE_CAST) == 1
    assert [kind for kind, _ in _SHAPES].count(EventKind.ASSESSMENT_RECORDED) == 1


def test_importing_the_ledger_alone_derives_every_writer():
    """The package imports report, which replaces each whole-body writer."""
    check = ("import sys, govsim.ledger as ledger\n"
             "report = sys.modules['govsim.report']\n"
             "print(sorted(kind.value for kind in ledger.EventKind if ledger._WRITERS[kind].shapes\n"
             "             != report._shapes(report.EVENT_SPECS[kind].fields)))")
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}, check=True)
    assert done.stdout == "[]\n"


def _outcome(write):
    try:
        return write()
    except EncodingError:
        return EncodingError


@pytest.mark.parametrize("kind, shape", _SHAPES, ids=_SHAPE_IDS)
@settings(max_examples=250, deadline=None)
@given(_PHASES, _OFF_TYPE, st.text(max_size=3), st.data())
def test_body_writers_write_what_canonical_json_bytes_writes(kind, shape, phase, off, extra, data):
    """Each kind's generated writer gives the bytes, or the EncodingError, of
    the general encode of its body with "phase" set: for a body of each shape,
    and for that body with a key of another type, a key missing, a key more or
    a "phase" of its own."""
    body = {key: declared if isinstance(declared, str) else data.draw(_DECLARED[declared])
            for key, declared in shape.items()}
    for variant in [body, {**body, "phase": off}, {extra: 1, **body},
                    *({**body, key: off} for key in shape),
                    *({k: v for k, v in body.items() if k != key} for key in shape)]:
        expected = _outcome(lambda: canonical_json_bytes(
            variant if phase is None else {**variant, "phase": phase}))
        assert _outcome(lambda: _WRITERS[kind](variant, phase)) == expected


def _cyclic():
    value = {"a": [1, {"b": 2}]}
    value["a"].append(value)
    return value, lambda: value["a"].pop()


def _with_object():
    value = {"a": [1, {"b": object()}]}
    return value, lambda: value["a"][1].update(b=2)


def _with_nan():
    value = {"a": [1, {"b": float("nan")}]}
    return value, lambda: value["a"][1].update(b=2)


@pytest.mark.parametrize("make", [_cyclic, _with_object, _with_nan],
                         ids=["circular", "object", "nan"])
def test_a_failed_encode_leaves_no_stale_markers(make):
    """A failure deep inside a value leaves its open containers marked in
    the shared cycle check; the next encode, also of the same containers,
    must not see them."""
    value, repair = make()
    with pytest.raises(EncodingError):
        canonical_json_bytes(value)
    assert canonical_json_bytes({"x": [True]}) == b'{"x":[true]}'
    repair()
    assert canonical_json_bytes(value) == b'{"a":[1,{"b":2}]}'


@pytest.mark.parametrize("data", [
    b'{"a":1}{"b":2}', b'{"a":1}x', b"[1]]", b"1 2",
    b' {"a":1}', b'{"a":1} ', b'\n{"a":1}', b'{"a":1}\n', b"\t1",
    b'{"a":"\xff"}', b'"\xc3"', b'{"a":"\xed\xa0\x80"}',
    b'{"a":NaN}', b"Infinity", b"-Infinity",
], ids=["two-documents", "trailing-junk", "extra-bracket", "two-numbers",
        "leading-space", "trailing-space", "leading-newline", "trailing-newline",
        "leading-tab", "invalid-byte", "cut-sequence", "encoded-surrogate",
        "nan", "infinity", "minus-infinity"])
def test_decoding_refuses_anything_but_one_document(data):
    with pytest.raises(EncodingError):
        from_canonical_json(data)


def test_byte_reader_round_trip():
    blob = U64.pack(7) + U32.pack(9) + pack_bytes(b"abc") + pack_str("hej")
    reader = ByteReader(blob)
    assert reader.u64() == 7
    assert reader.u32() == 9
    assert reader.bytes_() == b"abc"
    assert reader.str_() == "hej"
    assert reader.exhausted()


def test_byte_reader_truncation():
    reader = ByteReader(U32.pack(100) + b"short")
    with pytest.raises(IoError):
        reader.bytes_()


def test_byte_reader_window_ends_where_its_frame_ends():
    # A frame of 6 bytes inside a longer buffer: its fields are read in
    # place, and nothing past its end, although the buffer goes on.
    blob = b"xx" + pack_bytes(U32.pack(7) + b"ab") + U64.pack(9)
    outer = ByteReader(blob, 2)
    start, end = outer.window()
    assert (start, end) == (6, 12)
    inner = ByteReader(blob, start, end)
    assert inner.u32() == 7
    assert inner.raw(2) == b"ab"
    assert inner.exhausted()
    with pytest.raises(IoError, match="truncated"):
        inner.u32()
    assert outer.u64() == 9 and outer.exhausted()
    with pytest.raises(IoError, match="truncated"):
        ByteReader(U32.pack(5) + b"abcd" + b"more", 0, 8).window()


@pytest.mark.parametrize("value,expected", [
    (2, Fraction(2)),
    ("2/3", Fraction(2, 3)),
    ("0.2", Fraction(1, 5)),
    (0.2, Fraction(1, 5)),      # decimal literal reading, not binary float
    (0.25, Fraction(1, 4)),
    (Fraction(7, 9), Fraction(7, 9)),
])
def test_as_fraction(value, expected):
    assert as_fraction(value) == expected


def test_as_fraction_rejects_junk():
    with pytest.raises(EncodingError):
        as_fraction("not-a-number")
    # Fraction would expand the exponent into an integer of a billion digits.
    with pytest.raises(EncodingError):
        as_fraction("1e999999999")
    with pytest.raises(EncodingError):
        as_fraction(True)


def test_as_fraction_bounds_the_decimal_exponent():
    assert as_fraction("1e400") == 10**400
    assert as_fraction("25E-400") == Fraction(1, 4 * 10**398)
    assert as_fraction("1e0_400") == 10**400
    for text in ("1e401", "1E-401", "2.5e+1_000", "1e" + "9" * 5000):
        with pytest.raises(EncodingError):
            as_fraction(text)
