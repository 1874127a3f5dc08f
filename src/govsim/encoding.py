"""Canonical byte encodings.

Two encodings live here and nothing else may hash or serialize differently:

* canonical JSON: UTF-8/ASCII, string keys only, keys sorted, compact
  separators, NaN/Inf rejected. Used for event payload bodies, content
  addressing, commitments and message checksums. Same logical value always
  yields identical bytes.
* binary framing: little-endian fixed-width integers and length-prefixed
  byte strings. Used for event/block hashing and the chain file, where a
  fixed field order is required for cross-implementation hash agreement.

Files are read and written here too, so that every failure is named alike.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Any, Iterable, Optional

from .errors import EncodingError, IoError

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE

# The rational 1, built once: a Fraction is immutable, so one object serves
# every default multiplier, factor and score that is exactly 1.
ONE = Fraction(1)


def sum_terms(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of n/d over ``terms``, (n, d) pairs with d > 0, built as one
    Fraction: the numerators are summed per denominator on integers."""
    sums: dict[int, int] = {}
    for num, den in terms:
        sums[den] = sums.get(den, 0) + num
    common = lcm(*sums)
    return Fraction(sum(num * (common // den) for den, num in sums.items()), common)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# Where a non-string key can show in canonical output. Sorting refuses an
# object that mixes string and other keys, so such a key sits in an object
# whose keys are all numbers, true, false or null; its first key is then
# written as one of these, right after the opening brace.
_SUSPECT_KEY = re.compile(r'\{"(?:[-0-9]|true"|false"|null")')


def _refuse_non_str_keys(value: Any) -> None:
    """EncodingError if any object key in this container is not a ``str``.

    ``json.dumps`` writes an int key as a string but sorts it as a number
    ({2: .., 10: ..} gives "2" before "10"), so such output need not parse
    back to the same bytes. With only str keys it always does.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"object key {key!r} is not a string")
            if isinstance(item, (dict, list, tuple)):
                _refuse_non_str_keys(item)
    else:
        for item in value:
            if isinstance(item, (dict, list, tuple)):
                _refuse_non_str_keys(item)


# The encoder that json.dumps(value, sort_keys=True, separators=(",", ":"),
# ensure_ascii=True, allow_nan=False) builds on every call, built once and
# without its cycle check (markers None, as check_circular=False gives): a
# circular value recurses until RecursionError, which is refused like nesting
# too deep to encode. The encoder holds no state between calls.
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, False)  # indent, separators, sort_keys, skipkeys, allow_nan
_DECODER = json.JSONDecoder()


def canonical_json_bytes(value: Any) -> bytes:
    """Serialize to the unique canonical JSON byte form.

    The bytes are those of ``json.dumps`` with sorted keys, compact
    separators, ASCII output and NaN refused, from one encoder built at
    import. Canonical by construction: every object key must be a ``str``,
    at any depth, so the output is always the canonical form of the value it
    parses back to and needs no ``is_canonical_json`` recheck. The keys are
    walked only when the output shows an object whose first key could be
    another type. A circular value, or one nested past the recursion limit,
    is refused like any other that cannot be encoded.
    """
    try:
        text = "".join(_ENCODE(value, 0))
    except (TypeError, ValueError, RecursionError) as exc:
        raise EncodingError(f"value is not canonically serializable: {exc}") from exc
    if _SUSPECT_KEY.search(text):
        _refuse_non_str_keys(value)
    return text.encode("ascii")


def from_canonical_json(data: bytes) -> Any:
    """The value of one JSON document, with nothing before or after it."""
    try:
        text = data.decode("utf-8")
        value, end = _DECODER.raw_decode(text)
    except (ValueError, RecursionError) as exc:
        # Bad UTF-8 or JSON, an integer past the interpreter's digit limit, or
        # nesting past its recursion limit: an error, never a traceback.
        raise EncodingError(f"payload is not valid JSON: {exc}") from exc
    if end != len(text):
        raise EncodingError(f"payload is not valid JSON: extra data at {end}")
    return value


def read_bytes(path: str | Path, what: str) -> bytes:
    """The bytes of the file at ``path``; IoError naming ``what`` if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {what}: {exc}") from exc


def read_json(path: str | Path, what: str) -> Any:
    """The JSON value of a strict UTF-8 file; IoError naming ``what`` otherwise,
    also for JSON nested past the recursion limit or an integer past the digit limit."""
    try:
        return json.loads(read_bytes(path, what).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise IoError(f"{what} is not valid JSON: {exc}") from exc


def write_bytes(path: str | Path, data: bytes, what: str) -> None:
    """Write ``data`` to ``path``; IoError naming ``what`` if it cannot be written."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoError(f"cannot write {what}: {exc}") from exc


def is_canonical_json(data: bytes) -> bool:
    """True iff data is the canonical serialization of the value it encodes."""
    try:
        return canonical_json_bytes(from_canonical_json(data)) == data
    except EncodingError:
        return False


# The size of a decimal string's exponent. Fraction expands the exponent into
# an integer, so it is bounded first: every float's lies within 324.
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)")


def as_fraction(value: Any) -> Fraction:
    """Exact rational from config scalars.

    Floats are read through their decimal literal (0.2 -> 1/5), never their
    binary expansion; strings accept both "a/b" and decimal forms, the latter
    with an exponent of at most 400 in size.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise EncodingError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            if (exponent := _EXPONENT.search(value)) and int(exponent[1]) > 400:
                raise ValueError("exponent out of range")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise EncodingError(f"not a rational: {value!r}") from exc
    raise EncodingError(f"cannot read a rational from {type(value).__name__}")


def unit_fraction(value: Any, name: str) -> Fraction:
    """``as_fraction(value)`` if it lies in [0, 1]; else EncodingError naming ``name``."""
    try:
        if 0 <= (fraction := as_fraction(value)) <= 1:
            return fraction
    except EncodingError:
        pass
    raise EncodingError(f"field {name}: {value!r} is not a rational in [0, 1]")


def json_value(value: Any) -> Any:
    """The JSON form of a record: an enum as its value, a Fraction as "a/b",
    bytes as hex, a tuple as a list, a set as a sorted list, a dict key by
    key and a dataclass as an object of its fields, at any depth; other
    values as they are."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [json_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json_value(item) for item in value)
    if isinstance(value, dict):
        return {json_value(key): json_value(item) for key, item in value.items()}
    if is_dataclass(value):
        return {f.name: json_value(getattr(value, f.name)) for f in fields(value)}
    return value


# --- binary framing ---

U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")


def pack_bytes(data: bytes) -> bytes:
    return U32.pack(len(data)) + data


def pack_str(text: str) -> bytes:
    return pack_bytes(text.encode("utf-8"))


def truncated(wanted: int, got: int) -> IoError:
    return IoError(f"truncated input: wanted {wanted} bytes, got {got}")


def strict_utf8(data: bytes) -> str:
    """Decode a string field; IoError unless it is valid UTF-8.

    Python's strict decoder refuses overlong forms and surrogates, so every
    string it accepts encodes back to exactly the bytes it was read from.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IoError(f"invalid UTF-8 in string field: {exc}") from exc


class ByteReader:
    """Bounds-checked cursor over the window ``[start, end)`` of one buffer.

    Fields are unpacked where they lie; nothing is copied but the byte
    strings a caller asks for. Reading past ``end`` raises IoError, also
    when the buffer itself goes on.
    """

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int = 0, end: Optional[int] = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

    def _advance(self, n: int) -> int:
        """Step over the next ``n`` bytes; return where they start."""
        at = self.pos
        if at + n > self.end:
            raise truncated(n, self.end - at)
        self.pos = at + n
        return at

    def u32(self) -> int:
        return U32.unpack_from(self.data, self._advance(4))[0]

    def u64(self) -> int:
        return U64.unpack_from(self.data, self._advance(8))[0]

    def raw(self, n: int) -> bytes:
        at = self._advance(n)
        return self.data[at:at + n]

    def bytes_(self) -> bytes:
        return self.raw(self.u32())

    def str_(self) -> str:
        return strict_utf8(self.bytes_())

    def window(self) -> tuple[int, int]:
        """Step over a length-prefixed field; return its ``(start, end)``."""
        n = self.u32()
        at = self._advance(n)
        return at, at + n

    def exhausted(self) -> bool:
        return self.pos == self.end
