"""Canonical message layer.

Wire form is canonical JSON (sorted keys, UTF-8) with a SHA-256 checksum
over the payload bytes. Two schema versions ship per message type, declared
once as v1's fields and v2's change to them; upgrades apply one step at a
time, filling added fields with declared defaults and dropping removed ones.
validate() is total: it returns violation lists and never raises, whatever
bytes it is fed.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from math import isfinite
from typing import Any, Callable, NoReturn, Optional

from .encoding import (
    _REQUIRED, _as_is, _declared, _key, _list_of, _plain, body_writer, canonical_json_bytes,
    json_value, sha256)
from .errors import (
    ConversionError,
    MalformedRecord,
    ScenarioError,
    UnsupportedDowngrade,
)

logger = logging.getLogger(__name__)


class MsgType(str, Enum):
    COMPLIANCE_REPORT = "COMPLIANCE_REPORT"
    RISK_ASSESSMENT = "RISK_ASSESSMENT"
    TRANSACTION_DATA = "TRANSACTION_DATA"
    AUDIT_REQUEST = "AUDIT_REQUEST"


@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: type  # str, int, float or bool
    default: Any = None  # present => field was added with this default


# Per message type: its v1 fields, then v2's change, the v1 fields it drops
# and the field it adds at the end with its default.
_VERSIONS = {
    MsgType.COMPLIANCE_REPORT: (
        (("report_id", str), ("system_did", str), ("epoch", int), ("aggregate_score", float),
         ("compliant", bool)),
        (), FieldSpec("auditor_id", str, default="")),
    MsgType.RISK_ASSESSMENT: (
        (("assessment_id", str), ("system_did", str), ("epoch", int), ("score", float),
         ("tier", str)),
        (), FieldSpec("forecast", float, default=0.0)),
    MsgType.TRANSACTION_DATA: (
        (("tx_id", str), ("sender", str), ("receiver", str), ("amount", int), ("memo", str)),
        ("memo",), FieldSpec("currency", str, default="EUR")),
    MsgType.AUDIT_REQUEST: (
        (("request_id", str), ("system_did", str), ("reason", str), ("priority", int)),
        (), FieldSpec("requested_epoch", int, default=0)),
}


def _v1_and_v2(v1: tuple, dropped: tuple, added: FieldSpec) -> tuple[tuple[FieldSpec, ...], ...]:
    """A type's v1 field set, and its v2 one: v1 less ``dropped``, then ``added``."""
    fields = tuple(FieldSpec(name, kind) for name, kind in v1)
    return fields, (*(f for f in fields if f.name not in dropped), added)


# The field set per (type, version).
SCHEMAS: dict[tuple[MsgType, int], tuple[FieldSpec, ...]] = {
    (msg_type, version): fields for msg_type, change in _VERSIONS.items()
    for version, fields in enumerate(_v1_and_v2(*change), start=1)}

CURRENT_VERSION = 2

_MSG_TYPES = {msg_type.value: msg_type for msg_type in MsgType}
# Per (type, version): each field's (name, kind) in schema order, and the declared names.
_FIELDS = {
    key: (tuple((f.name, f.kind) for f in schema), frozenset(f.name for f in schema))
    for key, schema in SCHEMAS.items()
}
# Per (type, version): the writer of a payload that fits its fields exactly.
_PAYLOADS = {key: body_writer([dict(kinds)]) for key, (kinds, _) in _FIELDS.items()}


def _msg_type(raw: Any) -> Any:
    """The MsgType whose value is ``raw``, else ``raw`` itself."""
    try:
        return _MSG_TYPES.get(raw, raw)
    except TypeError:  # unhashable
        return raw


def schema_for(msg_type: MsgType, version: int) -> Optional[tuple[FieldSpec, ...]]:
    return SCHEMAS.get((msg_type, version))


@dataclass(frozen=True)
class CanonicalMessage:
    msg_type: MsgType
    schema_version: int
    payload: dict
    checksum: bytes

    def to_json(self) -> dict:
        return {
            "msg_type": self.msg_type.value,
            "schema_version": self.schema_version,
            "payload": self.payload,
            "checksum": self.checksum.hex(),
        }


def payload_checksum(payload: Mapping[str, Any]) -> bytes:
    return sha256(canonical_json_bytes(payload if type(payload) is dict else dict(payload)))


def _fitted(msg_type: Any, version: Any, payload: Any) -> Optional[bytes]:
    """The canonical bytes of a payload dict that fits its schema exactly (its
    keys, and each value of the exact type declared), from the schema's
    template; None for any other, which _check and canonical_json_bytes read."""
    if type(msg_type) is MsgType and type(version) is int and type(payload) is dict:
        write = _PAYLOADS.get((msg_type, version))
        return write(payload) if write else None
    return None


def make_message(msg_type: MsgType, schema_version: int, payload: Mapping[str, Any]) -> CanonicalMessage:
    payload = dict(payload)
    if (data := _fitted(msg_type, schema_version, payload)) is not None:
        return CanonicalMessage(msg_type, schema_version, payload, sha256(data))
    # Hashed first, so that an EncodingError wins over a ConversionError.
    checksum = payload_checksum(payload)
    problems: list[Violation] = []
    _check(msg_type, schema_version, payload, problems)
    if problems:
        raise ConversionError("; ".join(v.detail for v in problems))
    return CanonicalMessage(msg_type, schema_version, payload, checksum)


# --- validation ---

@dataclass(frozen=True)
class Violation:
    code: str  # not_json / bad_envelope / unknown_type / unknown_version /
    #            missing_field / unexpected_field / type_mismatch / checksum_mismatch
    detail: str
    field: str = ""


def _type_ok(value: Any, kind: type) -> bool:
    if type(value) is kind:
        return True
    if kind is bool or isinstance(value, bool):  # a bool is never an int or a float
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check(msg_type: Any, version: Any, payload: Any, out: list[Violation]) -> bool:
    """Append the violations of the envelope, then of the fields, to ``out``;
    False, after one violation and without reading fields, on a bad envelope."""
    if type(msg_type) is not MsgType:  # an Enum with members has no subclasses
        out.append(Violation("unknown_type", f"unknown msg_type: {msg_type!r}"))
        return False
    if type(version) is not int and (not isinstance(version, int) or isinstance(version, bool)):
        out.append(Violation("unknown_version", f"schema_version must be an integer, got {version!r}"))
        return False
    fields = _FIELDS.get((msg_type, version))
    if fields is None:
        out.append(Violation("unknown_version", f"no schema for {msg_type.value} v{version}"))
        return False
    if type(payload) is not dict and not isinstance(payload, Mapping):
        out.append(Violation("bad_envelope", "payload must be an object"))
        return False
    kinds, declared = fields
    for name, kind in kinds:
        if name not in payload:
            out.append(Violation("missing_field", f"missing field: {name}", name))
        elif type(value := payload[name]) is not kind and not _type_ok(value, kind):
            out.append(Violation(
                "type_mismatch",
                f"field {name} expects {kind.__name__}, got {type(value).__name__}",
                name,
            ))
    for name in payload:
        if name not in declared:
            out.append(Violation("unexpected_field", f"undeclared field: {name}", name))
    return True


def validate_message(message: CanonicalMessage | Mapping[str, Any]) -> list[Violation]:
    """All violations found; empty list means the message is valid."""
    if isinstance(message, CanonicalMessage):
        msg_type, version, payload = message.msg_type, message.schema_version, message.payload
        checksum = message.checksum
    elif isinstance(message, Mapping):
        msg_type, version = _msg_type(message.get("msg_type")), message.get("schema_version")
        payload, checksum = message.get("payload"), message.get("checksum")
        try:
            checksum = bytes.fromhex(checksum) if isinstance(checksum, str) else None
        except ValueError:
            checksum = None
    else:
        return [Violation("bad_envelope", f"not a message object: {type(message).__name__}")]

    out: list[Violation] = []
    # A payload that fits its schema has no field to fault.
    data = _fitted(msg_type, version, payload)
    if data is None and not _check(msg_type, version, payload, out):
        return out
    if not isinstance(checksum, (bytes, bytearray)):
        out.append(Violation("checksum_mismatch", "checksum missing or not hex"))
    else:
        try:  # recomputed on every call: the payload is a mutable dict
            if checksum != (payload_checksum(payload) if data is None else sha256(data)):
                out.append(Violation("checksum_mismatch", "checksum does not match payload"))
        except Exception:
            out.append(Violation("checksum_mismatch", "payload not canonically hashable"))
    return out


def validate_bytes(raw: bytes) -> list[Violation]:
    """Total entry point for untrusted input; never raises."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except Exception as exc:
        return [Violation("not_json", f"undecodable input: {exc}")]
    if not isinstance(data, dict):
        return [Violation("bad_envelope", "top level must be an object")]
    try:
        return validate_message(data)
    except Exception as exc:  # defensive: validation itself must be total
        return [Violation("bad_envelope", f"unvalidatable message: {exc}")]


# --- legacy conversion ---

def _parse_bool(text: str) -> bool:
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"bool cell must be true/false, got {text!r}")


def _parse_float(text: str) -> float:
    if isfinite(value := float(text)):
        return value
    raise ValueError(f"float cell must be finite, got {text!r}")


def _float_cell(value: Any, field: str) -> str:
    try:
        return repr(float(value))
    except OverflowError as exc:
        raise ConversionError(f"field {field}: {exc}") from exc


# Each legacy cell kind: the type of value it holds, the function (by a name
# this module defines) that reads a cell's text, and the expression that a
# mapping's compiled writer writes a field's value back with.
_CELL_KINDS: dict[str, tuple[type, Callable[[str], Any], str]] = {
    "str": (str, str, "{}"),
    "int": (int, int, "{}"),
    "float": (float, _parse_float, "_float_cell({}, {!r})"),
    "bool": (bool, _parse_bool, '("true" if {} else "false")'),
}


def _parse_cell(text: str, spec: ColumnSpec) -> Any:
    try:
        return _CELL_KINDS[spec.kind][1](text)
    except ValueError as exc:
        raise ConversionError(f"column {spec.column}: {exc}") from exc


# A mapping file's keys are declared on the records below; __post_init__
# checks their values, so that a mapping built in code is held to the same rules.
@dataclass(frozen=True)
class ColumnSpec:
    column: str = _key(_REQUIRED, _as_is)  # legacy column name (documentation only)
    field: str = _key(_REQUIRED, _as_is)  # canonical payload field
    kind: str = _key(_REQUIRED, _as_is)  # a key of _CELL_KINDS


_COLUMN = _declared(ColumnSpec)
_COLUMNS = _list_of(lambda raw, path: ColumnSpec(**_COLUMN(raw, path)))


@dataclass(frozen=True, kw_only=True)
class LegacyMapping:
    msg_type: MsgType = _key(_REQUIRED, _plain(_msg_type))
    schema_version: int = _key(_REQUIRED, _as_is)
    delimiter: str = _key(",", _as_is)
    columns: tuple[ColumnSpec, ...] = _key(
        _REQUIRED, lambda value, path: tuple(_COLUMNS(value, path)))

    def __post_init__(self) -> None:
        """ConversionError naming the first key that no schema allows."""
        def refuse(key: str, problem: str) -> NoReturn:
            raise ConversionError(f"legacy mapping: {key}: {problem}")

        msg_type, version = self.msg_type, self.schema_version
        if not isinstance(msg_type, MsgType):
            refuse("msg_type", f"unknown message type {msg_type!r}")
        if type(version) is not int:
            refuse("schema_version", f"must be an integer, got {version!r}")
        if (msg_type, version) not in _FIELDS:
            refuse("schema_version", f"no schema for {msg_type.value} v{version}")
        if type(self.delimiter) is not str or not self.delimiter:
            refuse("delimiter", f"must be a non-empty string, got {self.delimiter!r}")
        kinds, seen = dict(_FIELDS[msg_type, version][0]), set()
        for i, spec in enumerate(self.columns):
            for key in ("column", "field"):
                if type(getattr(spec, key)) is not str:
                    refuse(f"columns[{i}].{key}", f"must be a string, got {getattr(spec, key)!r}")
            if type(spec.kind) is not str or spec.kind not in _CELL_KINDS:
                *others, last = _CELL_KINDS
                refuse(f"columns[{i}].kind",
                       f"must be {', '.join(others)} or {last}, got {spec.kind!r}")
            if spec.field not in kinds or spec.field in seen:
                refuse(f"columns[{i}].field", f"{spec.field!r} appears twice" if spec.field in seen
                       else f"{spec.field!r} is not declared by {msg_type.value} v{version}")
            seen.add(spec.field)
            holds, kind = _CELL_KINDS[spec.kind][0], kinds[spec.field]
            if not _type_ok(holds(), kind):  # its every value fails the schema's type check
                refuse(f"columns[{i}].kind", f"{spec.kind!r} cannot fill {spec.field}, "
                       f"which holds {kind.__name__}")
        for name in kinds:
            if name not in seen:  # every row would miss it
                refuse("columns", f"{name} is not mapped")
        # The compiled cells: the payload of a row's cells, and the cells of a payload.
        reads = (f"{spec.field!r}: {_CELL_KINDS[spec.kind][1].__name__}(cells[{i}])"
                 for i, spec in enumerate(self.columns))
        writes = (_CELL_KINDS[spec.kind][2].format(f"payload[{spec.field!r}]", spec.field)
                  for spec in self.columns)
        row = self.delimiter.replace("%", "%%").join(["%s"] * len(self.columns))
        object.__setattr__(self, "_read", eval(f"lambda cells: {{{', '.join(reads)}}}"))
        object.__setattr__(self, "_write", eval(f"lambda payload: {row!r} % ({', '.join(writes)},)"))

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "LegacyMapping":
        try:
            return cls(**_MAPPING(data, ""))
        except ScenarioError as exc:
            raise ConversionError(f"legacy mapping: {exc}") from None

    def to_json(self) -> dict:
        return json_value(self)


_MAPPING = _declared(LegacyMapping)


def convert_legacy(row: str, mapping: LegacyMapping) -> CanonicalMessage:
    """One delimited legacy row into a checksummed canonical message."""
    cells = row.split(mapping.delimiter)
    if len(cells) != len(mapping.columns):
        raise MalformedRecord(
            f"expected {len(mapping.columns)} columns, got {len(cells)}"
        )
    try:
        payload = mapping._read(cells)
    except ValueError:  # the first cell at fault, named as _parse_cell names it
        for spec, cell in zip(mapping.columns, cells):
            _parse_cell(cell, spec)
        raise
    return make_message(mapping.msg_type, mapping.schema_version, payload)


def reverse_legacy(message: CanonicalMessage, mapping: LegacyMapping) -> str:
    """Render the covered columns back into the legacy row form."""
    try:
        return mapping._write(message.payload)
    except KeyError as exc:
        raise ConversionError(f"message lacks mapped field {exc.args[0]!r}") from exc


# --- versioning ---

def upgrade_message(message: CanonicalMessage, to_version: int) -> CanonicalMessage:
    """Step-wise upgrade; idempotent at the same version, downgrades refused.

    Fields added along the path take their declared defaults; removed fields
    are dropped with a logged note.
    """
    if to_version < message.schema_version:
        raise UnsupportedDowngrade(
            f"cannot downgrade v{message.schema_version} -> v{to_version}"
        )
    current = message
    while current.schema_version < to_version:
        next_version = current.schema_version + 1
        target = schema_for(current.msg_type, next_version)
        if target is None:
            raise UnsupportedDowngrade(
                f"no upgrade path: {current.msg_type.value} has no v{next_version}"
            )
        target_names = {f.name for f in target}
        payload = {k: v for k, v in current.payload.items() if k in target_names}
        dropped = sorted(set(current.payload) - target_names)
        if dropped:
            logger.info("upgrade %s v%d->v%d drops fields: %s",
                        current.msg_type.value, current.schema_version,
                        next_version, ", ".join(dropped))
        for spec in target:
            if spec.name not in payload:
                if spec.default is None:
                    raise ConversionError(
                        f"field {spec.name} added in v{next_version} without a default"
                    )
                payload[spec.name] = spec.default
        current = make_message(current.msg_type, next_version, payload)
    return current
