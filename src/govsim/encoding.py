"""Canonical byte encodings.

Two encodings live here and nothing else may hash or serialize differently:

* canonical JSON: UTF-8/ASCII, string keys only, keys sorted, compact
  separators, NaN/Inf rejected. Used for event payload bodies, content
  addressing, commitments and message checksums. Same logical value always
  yields identical bytes.
* binary framing: little-endian fixed-width integers and length-prefixed
  byte strings. Used for event/block hashing and the chain file, where a
  fixed field order is required for cross-implementation hash agreement.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import struct
from fractions import Fraction
from typing import Any

from .errors import EncodingError, IoError

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE

# The rational 1, built once: a Fraction is immutable, so one object serves
# every default multiplier, factor and score that is exactly 1.
ONE = Fraction(1)


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


def canonical_json_bytes(value: Any) -> bytes:
    """Serialize to the unique canonical JSON byte form.

    Canonical by construction: every object key must be a ``str``, at any
    depth, so the output is always the canonical form of the value it parses
    back to and needs no ``is_canonical_json`` recheck. The keys are walked
    only when the output shows an object whose first key could be another
    type.
    """
    try:
        text = json.dumps(
            value,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise EncodingError(f"value is not canonically serializable: {exc}") from exc
    if _SUSPECT_KEY.search(text):
        _refuse_non_str_keys(value)
    return text.encode("ascii")


def from_canonical_json(data: bytes) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EncodingError(f"payload is not valid JSON: {exc}") from exc


def is_canonical_json(data: bytes) -> bool:
    """True iff data is the canonical serialization of the value it encodes."""
    try:
        return canonical_json_bytes(from_canonical_json(data)) == data
    except EncodingError:
        return False


def as_fraction(value: Any) -> Fraction:
    """Exact rational from config scalars.

    Floats are read through their decimal literal (0.2 -> 1/5), never their
    binary expansion; strings accept both "a/b" and decimal forms.
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
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise EncodingError(f"not a rational: {value!r}") from exc
    raise EncodingError(f"cannot read a rational from {type(value).__name__}")


# --- binary framing ---

def pack_u32(value: int) -> bytes:
    return struct.pack("<I", value)


def pack_u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def pack_bytes(data: bytes) -> bytes:
    return pack_u32(len(data)) + data


def pack_str(text: str) -> bytes:
    return pack_bytes(text.encode("utf-8"))


class ByteReader:
    """Cursor over a byte buffer; raises IoError on truncation."""

    def __init__(self, data: bytes):
        self._buf = io.BytesIO(data)
        self._size = len(data)

    def _take(self, n: int) -> bytes:
        chunk = self._buf.read(n)
        if len(chunk) != n:
            raise IoError(f"truncated input: wanted {n} bytes, got {len(chunk)}")
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def bytes_(self) -> bytes:
        return self._take(self.u32())

    def str_(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IoError(f"invalid UTF-8 in string field: {exc}") from exc

    def exhausted(self) -> bool:
        return self._buf.tell() == self._size
