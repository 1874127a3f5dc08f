"""Canonical byte encodings.

Two encodings live here and nothing else may hash or serialize differently:

* canonical JSON: UTF-8/ASCII, string keys only, keys sorted, compact
  separators, NaN/Inf rejected. Used for event payload bodies, content
  addressing, commitments and message checksums. Same logical value always
  yields identical bytes.
* binary framing: little-endian fixed-width integers and length-prefixed
  byte strings. Used for event/block hashing and the chain file, where a
  fixed field order is required for cross-implementation hash agreement.

Files are read and written here too, so that every failure is named alike,
and so is every JSON object read by its declared keys: ``_Keys`` is the one
reader of scenarios, rules, weight payloads, legacy mappings and chain headers.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from collections.abc import Mapping
from dataclasses import MISSING, Field, field, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from math import isfinite, lcm
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import EncodingError, GovSimError, IoError, ScenarioError

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


def _json_fault(value: Any) -> Optional[tuple[str, str]]:
    """``(path, problem)`` at the first place, depth first in document order,
    where ``value`` stops being JSON, or None; the path names a field as a
    scenario does. An int key is refused too: ``json.dumps`` writes it as a
    string but sorts it as a number ({2: .., 10: ..} gives "2" before "10")."""
    # id -> True while its items are being walked (meeting it then means it
    # holds itself), False after: each container is walked once, so a shared
    # value is not called circular.
    todo, seen = [("", value)], {}
    while todo:
        path, value = todo.pop()
        if path is None:  # every item of ``value`` is walked
            seen[id(value)] = False
        elif seen.get(id(value)):
            return path, "value is circular: it holds itself"
        elif id(value) in seen:
            pass  # a shared value, checked already
        elif isinstance(value, (dict, list, tuple)):
            seen[id(value)] = True
            if isinstance(value, dict):
                if bad := [key for key in value if not isinstance(key, str)]:
                    return path, f"object key {bad[0]!r} is not a string"
                items = [(f"{path}.{key}" if path else key, item) for key, item in value.items()]
            else:
                items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
            todo += [(None, value), *reversed(items)]
        elif isinstance(value, float) and not isfinite(value):
            return path, "must be a finite number"
        elif value is not None and not isinstance(value, (str, int, float)):
            return path, f"a {type(value).__name__} is not a JSON value"
    return None


# The encoder that json.dumps(value, sort_keys=True, separators=(",", ":"),
# ensure_ascii=True, allow_nan=False) builds on every call, built once and
# without its cycle check (markers None, as check_circular=False gives): a
# circular value recurses until RecursionError, which is refused like nesting
# too deep to encode. The encoder holds no state between calls.
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, False)  # indent, separators, sort_keys, skipkeys, allow_nan


def _refuse_constant(name: str) -> None:  # NaN, Infinity, -Infinity: the encoder refuses them
    raise ValueError(f"{name} is not JSON")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


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
    if _SUSPECT_KEY.search(text) and (fault := _json_fault(value)):
        raise EncodingError(fault[1])  # encoded, so only a key that is not a str
    return text.encode("ascii")


# A declared JSON type -> (the exact test its value must pass, the expression
# that fills its %s). The escaper refuses all but a str (a str-enum member as its
# value); an exact int is written as int.__repr__ writes it, never a bool as 1,
# and an exact finite float as float.__repr__ writes it, as json does.
_WRITES = {str: ("", "_esc({})"), int: ("type({}) is int", "{}"),
           float: ("type({0}) is float and isfinite({0})", "{}"),
           bool: ("type({}) is bool", '("true" if {} else "false")'),
           dict: ("", "canonical_json_bytes({}).decode()")}
_esc, _int = json.encoder.encode_basestring_ascii, int.__repr__


def body_writer(shapes: Sequence[Mapping[str, Any]],
                stamp: Optional[str] = None) -> Callable[..., Optional[bytes]]:
    """``write(body, value)``: the ``canonical_json_bytes`` of ``body`` with
    ``stamp`` set to ``value`` (left out if None), from one ``%`` template per
    shape, generated here once. A shape maps each key to its JSON type
    (``str``, ``int``, ``float``, ``bool``, or ``dict`` for any nested value)
    or to the one string it holds, which tells a kind's shapes apart; it may
    have no key. A body that fits a shape exactly, with an int ``value``, is
    written by its template; any other, or one a template cannot write, is
    encoded whole. So the bytes and the errors are always those of
    ``canonical_json_bytes``. With no ``stamp``, ``write(body)`` writes only a
    body that fits a shape and returns None for any other, which its caller
    encodes and checks. ``write.shapes`` are the shapes given."""
    lines = ["def write(body, value=None):"]
    for shape in shapes:
        names = {key: f"v{i}" for i, key in enumerate(sorted(shape))}
        tests = [] if stamp is None else ["type(value) is not bool"]  # _int refuses None
        slots, args = [], []
        for key in sorted(shape if stamp is None else [*shape, stamp]):
            declared, name = shape.get(key), names.get(key)
            label = _esc(key).replace("%", "%%") + ":"
            if key == stamp:  # an int, or an IntEnum member as its value
                slots.append(label + "%s")
                args.append("_int(value)")
            elif isinstance(declared, str):
                tests.append(f"type({name}) is str and {name} == {declared!r}")
                slots.append(label + _esc(declared).replace("%", "%%"))
            else:
                test, write = _WRITES[declared]
                tests += [test.format(name)] if test else []
                slots.append(label + "%s")
                args.append(write.format(name))
        reads = f"({', '.join(names.values())}) = ({', '.join(map('body[{!r}]'.format, names))})"
        template = "{" + ",".join(slots) + "}"
        lines += ["    try:", f"        if len(body) == {len(shape)}:", f"            {reads}",
                  f"            if {' and '.join(tests) or True}:",
                  f"                return ({template!r} % ({', '.join(args)},)).encode()",
                  "    except (KeyError, TypeError, ValueError, EncodingError):",
                  "        pass  # off the shape, or past what a template writes"]
    if stamp is not None:
        stamped = f"{{**body, {stamp!r}: value}}"
        lines.append(f"    return canonical_json_bytes(body if value is None else {stamped})")
    exec("\n".join(lines), globals(), namespace := {})
    namespace["write"].shapes = shapes
    return namespace["write"]


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


# --- the one reader of JSON objects by their declared keys, and its parsers:
# (JSON value, its field path) -> the value the program uses ---

def _fail(path: str, message: str) -> None:
    raise ScenarioError(f"{path}: {message}" if path else message)


def _checked(test: Callable[[Any], bool], must: str) -> Callable[[Any, str], Any]:
    """A value as given, refused unless it passes ``test``."""
    return lambda value, path: value if test(value) else _fail(path, f"must be {must}")


# What a parser's converter may raise: the reader names the field at fault.
_PARSE_ERRORS = (GovSimError, ArithmeticError, KeyError, TypeError, ValueError)


def _plain(convert: Callable[[Any], Any]) -> Callable[[Any, str], Any]:
    """A parser that needs no path: if ``convert`` raises, it names the field,
    also when that field is an entry of a table."""
    def parse(value: Any, path: str) -> Any:
        try:
            return convert(value)
        except _PARSE_ERRORS as exc:
            _fail(path, str(exc))
    return parse


_FRACTION = _plain(as_fraction)
# The dict test first: it is the common case, and the Mapping check is slow.
_object = _checked(lambda value: type(value) is dict or isinstance(value, Mapping), "an object")
_array = _checked(lambda value: isinstance(value, (list, tuple)), "an array")
_integer = _checked(lambda value: type(value) is int, "an integer")
_text = _checked(lambda value: type(value) is str, "a string")
_flag = _checked(lambda value: type(value) is bool, "true or false")
# A value of the type a parser maps to here passes it as it is: the reader makes no call.
_PASSES = ((_object, dict), (_array, list), (_integer, int), (_text, str), (_flag, bool))


def _at_least(low: int) -> Callable[[Any, str], int]:
    """The one integer reader, config keys included: a JSON integer >= ``low``."""
    return lambda value, path: (value if type(value) is int and value >= low
                                else _fail(path, f"must be an integer >= {low}"))


def _or_null(parse: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    return lambda value, path: None if value is None else parse(value, path)


def _name(value: Any, path: str) -> str:
    """An id: a non-empty string that encodes as UTF-8 (no lone surrogate),
    as the run sorts, hashes and encodes it."""
    if type(value) is not str or not value:
        _fail(path, "must be a non-empty string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        _fail(path, "must encode as UTF-8 (it holds a lone surrogate)")
    return value


def _as_is(value: Any, path: str) -> Any:  # free-form, or read by its object's own checks
    return value


def _one_of(enum: type[Enum], what: str) -> Callable[[Any, str], Any]:
    """The parser of an enum's values; ``.members`` is its value -> member table."""
    members = {member.value: member for member in enum}
    def parse(value: Any, path: str) -> Any:
        return (members[value] if type(value) is str and value in members
                else _fail(path, f"unknown {what} {value!r}"))
    parse.members = members
    return parse


def _list_of(item: Callable[[Any, str], Any]) -> Callable[[Any, str], list]:
    return lambda value, path: [
        item(entry, f"{path}[{i}]") for i, entry in enumerate(_array(value, path))]


def _table(key: Callable[[Any], Any], value: Callable[[Any, str], Any],
           defaults: Optional[Mapping] = None) -> Callable[[Any, str], dict]:
    """A table, each value read at its entry's path; left-out entries keep their ``defaults``."""
    return lambda raw, path: {**(defaults or {}), **{
        key(k): value(v, f"{path}.{k}") for k, v in _object(raw, path).items()}}


_REQUIRED = MISSING  # the default of a key that its object must give


def _key(default: Any, parse: Callable[[Any, str], Any], snapshot: Optional[str] = "") -> Any:
    """Declare a key of a JSON object: its default (a dict or list is copied
    per read), the parser of its JSON value, called with the field's path,
    and for a scenario config key where the genesis snapshot records it:
    under the field's name (""), at a dotted path, or not at all (None)."""
    metadata = {"parse": parse, "snapshot": snapshot}
    if isinstance(default, (dict, list)):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


class _Keys(dict):
    """One object's declaration, key -> its _key field in declaration order, and
    the one reader of such objects: ``read`` (or a call) refuses all but an object of
    declared keys, parses each value with its field's path, and defaults each key left
    out. It raises ScenarioError; a reader of another document re-raises its text."""

    __slots__ = ("table",)

    def __init__(self, keys: Any = (), **more: Field):
        super().__init__(keys, **more)
        # key -> (its parser, None if free-form; the type of values that pass it unread)
        self.table = {key: (None if (parse := f.metadata["parse"]) is _as_is else parse,
                            next((kind for p, kind in _PASSES if p is parse), None))
                      for key, f in self.items()}

    def read(self, raw: Any, path: str) -> dict[str, Any]:
        obj = raw if type(raw) is dict else _object(raw, path)
        prefix = path + "." if path else ""
        table, out = self.table, {}
        for key, value in obj.items():
            parse, passes = table.get(key) or _fail(f"{prefix}{key}", "unknown key")
            if parse is None or type(value) is passes:
                out[key] = value
                continue
            try:
                out[key] = parse(value, prefix + key)
            except ScenarioError:
                raise
            except _PARSE_ERRORS as exc:
                _fail(prefix + key, str(exc))
        if len(out) < len(table):
            for key, declared in self.items():
                if key not in out:
                    if declared.default is _REQUIRED and declared.default_factory is MISSING:
                        _fail(prefix + key, "required")
                    out[key] = (declared.default if declared.default_factory is MISSING
                                else declared.default_factory())
        return out

    __call__ = read  # a declaration is the parser of a nested object


def _declared(spec: type) -> _Keys:
    """The keys of a dataclass, from its fields declared with _key."""
    return _Keys((f.name, f) for f in fields(spec) if "parse" in f.metadata)


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
