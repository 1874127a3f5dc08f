"""Canonical byte encodings.

Two encodings live here and nothing else may hash or serialize differently:

* canonical JSON: UTF-8/ASCII, keys sorted, compact separators, NaN/Inf
  rejected. Used for event payload bodies, content addressing, commitments
  and message checksums. Same logical value always yields identical bytes.
* binary framing: little-endian fixed-width integers and length-prefixed
  byte strings. Used for event/block hashing and the chain file, where a
  fixed field order is required for cross-implementation hash agreement.
"""

from __future__ import annotations

import hashlib
import io
import json
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


def canonical_json_bytes(value: Any) -> bytes:
    """Serialize to the unique canonical JSON byte form."""
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
