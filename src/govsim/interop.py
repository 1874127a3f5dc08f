"""Canonical message layer.

Wire form is canonical JSON (sorted keys, UTF-8) with a SHA-256 checksum
over the payload bytes. Two schema versions ship per message type; upgrades
apply one step at a time, filling added fields with declared defaults and
dropping removed ones. validate() is total: it returns violation lists and
never raises, whatever bytes it is fed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Optional

from .encoding import canonical_json_bytes, json_value, sha256
from .errors import (
    ConversionError,
    MalformedRecord,
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


# Field sets per (type, version). v2 deltas: COMPLIANCE_REPORT gains
# auditor_id, RISK_ASSESSMENT gains forecast, TRANSACTION_DATA drops the
# free-text memo and gains currency, AUDIT_REQUEST gains requested_epoch.
SCHEMAS: dict[tuple[MsgType, int], tuple[FieldSpec, ...]] = {
    (MsgType.COMPLIANCE_REPORT, 1): (
        FieldSpec("report_id", str),
        FieldSpec("system_did", str),
        FieldSpec("epoch", int),
        FieldSpec("aggregate_score", float),
        FieldSpec("compliant", bool),
    ),
    (MsgType.COMPLIANCE_REPORT, 2): (
        FieldSpec("report_id", str),
        FieldSpec("system_did", str),
        FieldSpec("epoch", int),
        FieldSpec("aggregate_score", float),
        FieldSpec("compliant", bool),
        FieldSpec("auditor_id", str, default=""),
    ),
    (MsgType.RISK_ASSESSMENT, 1): (
        FieldSpec("assessment_id", str),
        FieldSpec("system_did", str),
        FieldSpec("epoch", int),
        FieldSpec("score", float),
        FieldSpec("tier", str),
    ),
    (MsgType.RISK_ASSESSMENT, 2): (
        FieldSpec("assessment_id", str),
        FieldSpec("system_did", str),
        FieldSpec("epoch", int),
        FieldSpec("score", float),
        FieldSpec("tier", str),
        FieldSpec("forecast", float, default=0.0),
    ),
    (MsgType.TRANSACTION_DATA, 1): (
        FieldSpec("tx_id", str),
        FieldSpec("sender", str),
        FieldSpec("receiver", str),
        FieldSpec("amount", int),
        FieldSpec("memo", str),
    ),
    (MsgType.TRANSACTION_DATA, 2): (
        FieldSpec("tx_id", str),
        FieldSpec("sender", str),
        FieldSpec("receiver", str),
        FieldSpec("amount", int),
        FieldSpec("currency", str, default="EUR"),
    ),
    (MsgType.AUDIT_REQUEST, 1): (
        FieldSpec("request_id", str),
        FieldSpec("system_did", str),
        FieldSpec("reason", str),
        FieldSpec("priority", int),
    ),
    (MsgType.AUDIT_REQUEST, 2): (
        FieldSpec("request_id", str),
        FieldSpec("system_did", str),
        FieldSpec("reason", str),
        FieldSpec("priority", int),
        FieldSpec("requested_epoch", int, default=0),
    ),
}

CURRENT_VERSION = 2


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
    return sha256(canonical_json_bytes(dict(payload)))


def make_message(msg_type: MsgType, schema_version: int, payload: Mapping[str, Any]) -> CanonicalMessage:
    message = CanonicalMessage(
        msg_type=msg_type,
        schema_version=schema_version,
        payload=dict(payload),
        checksum=payload_checksum(payload),
    )
    problems = validate_message(message)
    if problems:
        raise ConversionError("; ".join(v.detail for v in problems))
    return message


# --- validation ---

@dataclass(frozen=True)
class Violation:
    code: str  # not_json / bad_envelope / unknown_type / unknown_version /
    #            missing_field / unexpected_field / type_mismatch / checksum_mismatch
    detail: str
    field: str = ""


def _type_ok(value: Any, kind: type) -> bool:
    if kind is bool:
        return isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, kind)


def validate_message(message: CanonicalMessage | Mapping[str, Any]) -> list[Violation]:
    """All violations found; empty list means the message is valid."""
    if isinstance(message, CanonicalMessage):
        data: dict[str, Any] = message.to_json()
    elif isinstance(message, Mapping):
        data = dict(message)
    else:
        return [Violation("bad_envelope", f"not a message object: {type(message).__name__}")]

    out: list[Violation] = []
    raw_type = data.get("msg_type")
    try:
        msg_type = MsgType(raw_type)
    except (ValueError, TypeError):
        return [Violation("unknown_type", f"unknown msg_type: {raw_type!r}")]
    version = data.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        return [Violation("unknown_version", f"schema_version must be an integer, got {version!r}")]
    schema = schema_for(msg_type, version)
    if schema is None:
        return [Violation("unknown_version", f"no schema for {msg_type.value} v{version}")]
    payload = data.get("payload")
    if not isinstance(payload, Mapping):
        return [Violation("bad_envelope", "payload must be an object")]

    declared = {f.name: f for f in schema}
    for spec in schema:
        if spec.name not in payload:
            out.append(Violation("missing_field", f"missing field: {spec.name}", spec.name))
        elif not _type_ok(payload[spec.name], spec.kind):
            out.append(Violation(
                "type_mismatch",
                f"field {spec.name} expects {spec.kind.__name__}, "
                f"got {type(payload[spec.name]).__name__}",
                spec.name,
            ))
    for name in payload:
        if name not in declared:
            out.append(Violation("unexpected_field", f"undeclared field: {name}", name))

    checksum = data.get("checksum")
    try:
        checksum_bytes = bytes.fromhex(checksum) if isinstance(checksum, str) else None
    except ValueError:
        checksum_bytes = None
    if checksum_bytes is None:
        out.append(Violation("checksum_mismatch", "checksum missing or not hex"))
    else:
        try:
            expected = payload_checksum(payload)
        except Exception:
            out.append(Violation("checksum_mismatch", "payload not canonically hashable"))
        else:
            if checksum_bytes != expected:
                out.append(Violation("checksum_mismatch", "checksum does not match payload"))
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

@dataclass(frozen=True)
class ColumnSpec:
    column: str  # legacy column name (documentation only)
    field: str   # canonical payload field
    kind: str    # "str" | "int" | "float" | "bool"


@dataclass(frozen=True)
class LegacyMapping:
    msg_type: MsgType
    schema_version: int
    delimiter: str
    columns: tuple[ColumnSpec, ...]

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "LegacyMapping":
        try:
            return cls(
                msg_type=MsgType(data["msg_type"]),
                schema_version=int(data["schema_version"]),
                delimiter=data.get("delimiter", ","),
                columns=tuple(
                    ColumnSpec(c["column"], c["field"], c["kind"]) for c in data["columns"]
                ),
            )
        except KeyError as exc:
            raise ConversionError(f"legacy mapping: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConversionError(f"legacy mapping: {exc}") from exc

    def to_json(self) -> dict:
        return json_value(self)


def _parse_cell(text: str, kind: str, column: str) -> Any:
    try:
        if kind == "str":
            return text
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            if text in ("true", "false"):
                return text == "true"
            raise ValueError(f"bool cell must be true/false, got {text!r}")
    except ValueError as exc:
        raise ConversionError(f"column {column}: {exc}") from exc
    raise ConversionError(f"column {column}: unknown kind {kind!r}")


def _render_cell(value: Any, kind: str) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    return str(value)


def convert_legacy(row: str, mapping: LegacyMapping) -> CanonicalMessage:
    """One delimited legacy row into a checksummed canonical message."""
    cells = row.split(mapping.delimiter)
    if len(cells) != len(mapping.columns):
        raise MalformedRecord(
            f"expected {len(mapping.columns)} columns, got {len(cells)}"
        )
    payload = {
        spec.field: _parse_cell(cell, spec.kind, spec.column)
        for spec, cell in zip(mapping.columns, cells)
    }
    return make_message(mapping.msg_type, mapping.schema_version, payload)


def reverse_legacy(message: CanonicalMessage, mapping: LegacyMapping) -> str:
    """Render the covered columns back into the legacy row form."""
    try:
        return mapping.delimiter.join(
            _render_cell(message.payload[spec.field], spec.kind)
            for spec in mapping.columns
        )
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
