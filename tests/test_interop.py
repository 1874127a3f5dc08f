import hashlib
import json
import math
import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.cli import main as cli_main
from govsim.encoding import canonical_json_bytes, sha256
from govsim.errors import (
    ConversionError, EncodingError, GovSimError, MalformedRecord, UnsupportedDowngrade)
from govsim.interop import (
    _PAYLOADS,
    _check,
    _parse_cell,
    SCHEMAS,
    CanonicalMessage,
    ColumnSpec,
    LegacyMapping,
    MsgType,
    Violation,
    convert_legacy,
    make_message,
    payload_checksum,
    reverse_legacy,
    schema_for,
    upgrade_message,
    validate_bytes,
    validate_message,
)
from tests.conftest import SCENARIO_DIR

V1_REPORT_PAYLOAD = {
    "report_id": "rep-001",
    "system_did": "did:govsim:" + "ab" * 16,
    "epoch": 5,
    "aggregate_score": 0.75,
    "compliant": True,
}

COMPLIANCE_MAPPING = LegacyMapping(
    msg_type=MsgType.COMPLIANCE_REPORT,
    schema_version=1,
    delimiter=",",
    columns=(
        ColumnSpec("REPORT_ID", "report_id", "str"),
        ColumnSpec("DID", "system_did", "str"),
        ColumnSpec("EPOCH", "epoch", "int"),
        ColumnSpec("SCORE", "aggregate_score", "float"),
        ColumnSpec("OK", "compliant", "bool"),
    ),
)


def make_v1_report(**overrides):
    payload = {**V1_REPORT_PAYLOAD, **overrides}
    return make_message(MsgType.COMPLIANCE_REPORT, 1, payload)


# --- validation ---

def test_well_formed_v1_report_is_valid():
    assert validate_message(make_v1_report()) == []


def test_missing_field_is_exactly_one_violation():
    message = make_v1_report().to_json()
    del message["payload"]["epoch"]
    message["checksum"] = payload_checksum(message["payload"]).hex()
    violations = validate_message(message)
    assert len(violations) == 1
    assert violations[0].code == "missing_field"
    assert violations[0].field == "epoch"


def test_type_mismatch_detected():
    message = make_v1_report().to_json()
    message["payload"]["epoch"] = "five"
    message["checksum"] = payload_checksum(message["payload"]).hex()
    codes = {v.code for v in validate_message(message)}
    assert codes == {"type_mismatch"}


def test_payload_mutation_breaks_checksum():
    message = make_v1_report().to_json()
    message["payload"]["epoch"] = 6  # checksum not recomputed
    violations = validate_message(message)
    assert [v.code for v in violations] == ["checksum_mismatch"]
    # Independent digest oracle.
    canonical = json.dumps(message["payload"], sort_keys=True,
                           separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() != message["checksum"]


def test_unknown_version_and_type():
    assert validate_message({"msg_type": "COMPLIANCE_REPORT", "schema_version": 9,
                             "payload": {}, "checksum": ""})[0].code == "unknown_version"
    assert validate_message({"msg_type": "TELEGRAM", "schema_version": 1,
                             "payload": {}, "checksum": ""})[0].code == "unknown_type"


def test_a_value_that_is_not_a_message_is_one_bad_envelope():
    assert validate_message(42) == [Violation("bad_envelope", "not a message object: int")]

def test_undeclared_field_flagged():
    message = make_v1_report().to_json()
    message["payload"]["stray"] = 1
    message["checksum"] = payload_checksum(message["payload"]).hex()
    assert {v.code for v in validate_message(message)} == {"unexpected_field"}


def test_bool_is_not_an_int():
    message = make_v1_report().to_json()
    message["payload"]["epoch"] = True
    message["checksum"] = payload_checksum(message["payload"]).hex()
    assert {v.code for v in validate_message(message)} == {"type_mismatch"}


# --- legacy conversion ---

def test_five_column_row_round_trips_byte_exact():
    row = "rep-042,did:govsim:ffff,12,0.8125,true"
    message = convert_legacy(row, COMPLIANCE_MAPPING)
    assert validate_message(message) == []
    assert message.payload["epoch"] == 12
    assert message.payload["aggregate_score"] == 0.8125
    assert reverse_legacy(message, COMPLIANCE_MAPPING) == row


def test_four_of_five_columns_rejected():
    with pytest.raises(MalformedRecord):
        convert_legacy("rep-042,did:x,12,0.8", COMPLIANCE_MAPPING)


def test_non_numeric_in_numeric_column_names_it():
    with pytest.raises(ConversionError, match="EPOCH"):
        convert_legacy("rep-042,did:x,twelve,0.8,true", COMPLIANCE_MAPPING)


def generated_corpus(n, seed=1234):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(",".join([
            f"rep-{i:05d}",
            "did:govsim:" + "".join(rng.choice("0123456789abcdef") for _ in range(32)),
            str(rng.randint(0, 500)),
            repr(round(rng.uniform(0, 1), 6)),
            rng.choice(["true", "false"]),
        ]))
    return rows


def test_generated_corpus_round_trips():
    for row in generated_corpus(200):
        message = convert_legacy(row, COMPLIANCE_MAPPING)
        assert reverse_legacy(message, COMPLIANCE_MAPPING) == row
        assert validate_message(message) == []


def test_mapping_json_round_trip():
    data = COMPLIANCE_MAPPING.to_json()
    assert LegacyMapping.from_json(data) == COMPLIANCE_MAPPING


# --- versioning ---

# Each field set written out in full, (type, version) -> (name, kind, default)
# per field in order: the reference for the SCHEMAS built from each v1 and its
# v2 change.
_SCHEMA_TABLE = {
    (MsgType.COMPLIANCE_REPORT, 1): [
        ("report_id", str, None), ("system_did", str, None), ("epoch", int, None),
        ("aggregate_score", float, None), ("compliant", bool, None)],
    (MsgType.COMPLIANCE_REPORT, 2): [
        ("report_id", str, None), ("system_did", str, None), ("epoch", int, None),
        ("aggregate_score", float, None), ("compliant", bool, None), ("auditor_id", str, "")],
    (MsgType.RISK_ASSESSMENT, 1): [
        ("assessment_id", str, None), ("system_did", str, None), ("epoch", int, None),
        ("score", float, None), ("tier", str, None)],
    (MsgType.RISK_ASSESSMENT, 2): [
        ("assessment_id", str, None), ("system_did", str, None), ("epoch", int, None),
        ("score", float, None), ("tier", str, None), ("forecast", float, 0.0)],
    (MsgType.TRANSACTION_DATA, 1): [
        ("tx_id", str, None), ("sender", str, None), ("receiver", str, None),
        ("amount", int, None), ("memo", str, None)],
    (MsgType.TRANSACTION_DATA, 2): [
        ("tx_id", str, None), ("sender", str, None), ("receiver", str, None),
        ("amount", int, None), ("currency", str, "EUR")],
    (MsgType.AUDIT_REQUEST, 1): [
        ("request_id", str, None), ("system_did", str, None), ("reason", str, None),
        ("priority", int, None)],
    (MsgType.AUDIT_REQUEST, 2): [
        ("request_id", str, None), ("system_did", str, None), ("reason", str, None),
        ("priority", int, None), ("requested_epoch", int, 0)],
}


def test_schemas_are_the_table_written_out():
    derived = {key: [(spec.name, spec.kind, spec.default) for spec in fields]
               for key, fields in SCHEMAS.items()}
    assert derived == _SCHEMA_TABLE
    # The defaults are of the same types too, as 0.0 == 0 == False.
    assert ({key: [type(default) for *_, default in fields] for key, fields in derived.items()}
            == {key: [type(default) for *_, default in fields]
                for key, fields in _SCHEMA_TABLE.items()})


def test_upgrade_v1_to_v2_adds_default():
    upgraded = upgrade_message(make_v1_report(), 2)
    assert upgraded.schema_version == 2
    assert upgraded.payload["auditor_id"] == ""
    assert validate_message(upgraded) == []


def test_upgrade_same_version_is_identity():
    message = make_v1_report()
    assert upgrade_message(message, 1) == message
    v2 = upgrade_message(message, 2)
    assert upgrade_message(v2, 2) == v2


def test_downgrade_rejected():
    v2 = upgrade_message(make_v1_report(), 2)
    with pytest.raises(UnsupportedDowngrade):
        upgrade_message(v2, 1)


def test_an_upgrade_past_the_last_version_is_refused():
    with pytest.raises(UnsupportedDowngrade, match="no upgrade path: COMPLIANCE_REPORT has no v3"):
        upgrade_message(make_v1_report(), 3)

def test_transaction_upgrade_drops_memo_adds_currency():
    v1 = make_message(MsgType.TRANSACTION_DATA, 1, {
        "tx_id": "t1", "sender": "a", "receiver": "b",
        "amount": 100, "memo": "legacy free text",
    })
    v2 = upgrade_message(v1, 2)
    assert "memo" not in v2.payload
    assert v2.payload["currency"] == "EUR"
    assert validate_message(v2) == []


def test_every_msg_type_upgrades_v1_to_v2():
    rng = random.Random(9)
    samples = {
        MsgType.COMPLIANCE_REPORT: lambda: dict(V1_REPORT_PAYLOAD),
        MsgType.RISK_ASSESSMENT: lambda: {
            "assessment_id": "a1", "system_did": "d", "epoch": rng.randint(0, 9),
            "score": rng.random(), "tier": "HIGH"},
        MsgType.TRANSACTION_DATA: lambda: {
            "tx_id": "t", "sender": "s", "receiver": "r",
            "amount": rng.randint(1, 100), "memo": "m"},
        MsgType.AUDIT_REQUEST: lambda: {
            "request_id": "q", "system_did": "d", "reason": "cadence",
            "priority": rng.randint(0, 3)},
    }
    for msg_type, build in samples.items():
        for _ in range(10):
            v1 = make_message(msg_type, 1, build())
            assert validate_message(v1) == []
            v2 = upgrade_message(v1, 2)
            assert validate_message(v2) == []
            assert v2.checksum == payload_checksum(v2.payload)


# --- totality ---

@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=400))
def test_validate_bytes_never_raises_on_binary(raw):
    violations = validate_bytes(raw)
    assert isinstance(violations, list)


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
))
def test_validate_bytes_never_raises_on_arbitrary_json(value):
    raw = json.dumps(value).encode()
    violations = validate_bytes(raw)
    assert isinstance(violations, list)


def test_valid_message_bytes_validate_clean():
    raw = json.dumps(make_v1_report().to_json()).encode()
    assert validate_bytes(raw) == []


def test_reverse_legacy_missing_field_is_conversion_error():
    message = make_message(MsgType.AUDIT_REQUEST, 1, {
        "request_id": "r", "system_did": "d", "reason": "x", "priority": 1})
    with pytest.raises(ConversionError):
        reverse_legacy(message, COMPLIANCE_MAPPING)


# --- validation is total on CanonicalMessage ---

def test_message_with_a_plain_string_type_is_unknown_type():
    message = CanonicalMessage("AUDIT_REQUEST", 1, {}, b"")
    assert [v.code for v in validate_message(message)] == ["unknown_type"]


@pytest.mark.parametrize("checksum", [payload_checksum(V1_REPORT_PAYLOAD).hex(), None],
                         ids=["hex-string", "none"])
def test_message_whose_checksum_is_not_bytes_is_a_checksum_mismatch(checksum):
    message = CanonicalMessage(MsgType.COMPLIANCE_REPORT, 1, dict(V1_REPORT_PAYLOAD), checksum)
    assert validate_message(message) == [
        Violation("checksum_mismatch", "checksum missing or not hex")]


# --- strict legacy mapping ---

def _legacy_mapping(**changes):
    data = json.loads((SCENARIO_DIR / "legacy_mapping.json").read_text("utf-8"))
    for key, value in changes.items():
        if key.startswith("columns."):
            index, name = key.split(".")[1:]
            data["columns"][int(index)][name] = value
        else:
            data[key] = value
    return data


@pytest.mark.parametrize("changes, key", [
    ({"delimiter": ""}, "delimiter"),
    ({"delimiter": 5}, "delimiter"),
    ({"schema_version": "1"}, "schema_version"),
    ({"schema_version": 1.9}, "schema_version"),
    ({"schema_version": True}, "schema_version"),
    ({"schema_version": 9}, "schema_version"),
    ({"msg_type": "TELEGRAM"}, "msg_type"),
    ({"columns.0.column": 5}, "columns[0].column"),
    ({"columns.1.field": None}, "columns[1].field"),
    ({"columns.2.kind": "decimal"}, "columns[2].kind"),
    ({"columns.3.field": "stray"}, "columns[3].field"),
    ({"columns.4.field": "epoch"}, "columns[4].field"),
    ({"columns": [5]}, "columns[0]"),
    ({"columns": [{"column": "rep", "field": "report_id"}]}, "columns[0].kind"),
    ({"columns": "abc"}, "columns"),
    # Each key below used to be read and ignored: a misspelt delimiter
    # converted with ",".
    ({"delimeter": ";"}, "delimeter"),
    ({"columns.0.width": 8}, "columns[0].width"),
    # Each mapping below used to load, then fail every row alike.
    ({"columns.2.kind": "str"}, "columns[2].kind"),
    ({"columns.3.kind": "bool"}, "columns[3].kind"),
    ({"columns": [{"column": "REPORT_ID", "field": "report_id", "kind": "str"},
                  {"column": "SYSTEM_DID", "field": "system_did", "kind": "str"},
                  {"column": "EPOCH", "field": "epoch", "kind": "int"},
                  {"column": "SCORE", "field": "aggregate_score", "kind": "float"}]}, "columns"),
])
def test_convert_refuses_a_malformed_mapping_naming_the_key(tmp_path, capsys, changes, key):
    mapping_path = tmp_path / "mapping.json"
    mapping_path.write_text(json.dumps(_legacy_mapping(**changes)), "utf-8")
    code = cli_main(["convert", "--in", str(SCENARIO_DIR / "legacy_compliance.csv"),
                     "--map", str(mapping_path), "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: legacy mapping: {key}: ")
    assert not (tmp_path / "out.json").exists()


def test_a_mapping_must_map_every_field():
    with pytest.raises(ConversionError, match="^legacy mapping: columns: compliant is not mapped$"):
        LegacyMapping(msg_type=MsgType.COMPLIANCE_REPORT, schema_version=1,
                      columns=COMPLIANCE_MAPPING.columns[:4])


def test_an_int_cell_may_fill_a_float_field():
    columns = (*COMPLIANCE_MAPPING.columns[:3], ColumnSpec("SCORE", "aggregate_score", "int"),
               COMPLIANCE_MAPPING.columns[4])
    mapping = LegacyMapping(msg_type=MsgType.COMPLIANCE_REPORT, schema_version=1,
                            columns=columns)
    message = convert_legacy("r,d,1,3,true", mapping)
    assert message.payload["aggregate_score"] == 3 and validate_message(message) == []
    assert reverse_legacy(message, COMPLIANCE_MAPPING) == "r,d,1,3.0,true"


def test_convert_names_the_line_of_a_bad_row(tmp_path, capsys):
    rows = (SCENARIO_DIR / "legacy_compliance.csv").read_text("utf-8").splitlines()
    legacy = tmp_path / "legacy.csv"
    legacy.write_text("\n".join([rows[0], "", rows[1].rsplit(",", 1)[0], *rows[2:]]), "utf-8")
    code = cli_main(["convert", "--in", str(legacy), "--map",
                     str(SCENARIO_DIR / "legacy_mapping.json"), "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: line 3: expected 5 columns, got 4\n"
    assert not (tmp_path / "out.json").exists()


def test_convert_refuses_a_legacy_file_that_is_not_utf8(tmp_path, capsys):
    legacy = tmp_path / "legacy.csv"
    rows = (SCENARIO_DIR / "legacy_compliance.csv").read_bytes()
    legacy.write_bytes(rows + b"r,\xff,1,0.5,true\n")
    code = cli_main(["convert", "--in", str(legacy), "--map",
                     str(SCENARIO_DIR / "legacy_mapping.json"), "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot read legacy file: 'utf-8' codec ")
    assert not (tmp_path / "out.json").exists()

@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-Infinity", "1e309"])
def test_a_non_finite_float_cell_is_refused_naming_its_column(cell):
    with pytest.raises(ConversionError,
                       match=f"^column SCORE: float cell must be finite, got '{cell}'$"):
        convert_legacy(f"r,d,1,{cell},true", COMPLIANCE_MAPPING)
    with pytest.raises(EncodingError):  # the message itself still cannot encode it
        make_v1_report(aggregate_score=float(cell))


def test_reverse_refuses_a_float_field_past_the_float_range():
    message = make_v1_report(aggregate_score=10**400)
    assert validate_message(message) == []
    with pytest.raises(ConversionError, match="^field aggregate_score: int too large"):
        reverse_legacy(message, COMPLIANCE_MAPPING)


def test_round_trip_is_byte_exact_only_for_canonical_numerals():
    canonical = "rep-042,did:govsim:ffff,12,1.5,false"
    assert reverse_legacy(convert_legacy(canonical, COMPLIANCE_MAPPING),
                          COMPLIANCE_MAPPING) == canonical
    # +12, 1.50 and 1e2 convert, but render back as str(int) and repr(float).
    loose = "rep-042,did:govsim:ffff,+12,1.50,false"
    assert reverse_legacy(convert_legacy(loose, COMPLIANCE_MAPPING),
                          COMPLIANCE_MAPPING) == canonical
    assert convert_legacy("rep-042,did:govsim:ffff,+12,1e2,false",
                          COMPLIANCE_MAPPING).payload["aggregate_score"] == 100.0


# --- differential: the validator against the one it replaced ---
#
# _ref_* are validate_message, make_message and payload_checksum as they
# stood before the shared checker: validate_message went through to_json()
# and bytes.fromhex, and make_message validated (and hashed) its own message
# a second time.

def _ref_payload_checksum(payload):
    return sha256(canonical_json_bytes(dict(payload)))


def _ref_type_ok(value, kind):
    if kind is bool:
        return isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, kind)


def _ref_validate_message(message):
    if isinstance(message, CanonicalMessage):
        data = message.to_json()
    elif isinstance(message, typing.Mapping):
        data = dict(message)
    else:
        return [Violation("bad_envelope", f"not a message object: {type(message).__name__}")]

    out = []
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
    if not isinstance(payload, typing.Mapping):
        return [Violation("bad_envelope", "payload must be an object")]

    declared = {f.name: f for f in schema}
    for spec in schema:
        if spec.name not in payload:
            out.append(Violation("missing_field", f"missing field: {spec.name}", spec.name))
        elif not _ref_type_ok(payload[spec.name], spec.kind):
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
            expected = _ref_payload_checksum(payload)
        except Exception:
            out.append(Violation("checksum_mismatch", "payload not canonically hashable"))
        else:
            if checksum_bytes != expected:
                out.append(Violation("checksum_mismatch", "checksum does not match payload"))
    return out


def _ref_make_message(msg_type, schema_version, payload):
    message = CanonicalMessage(
        msg_type=msg_type,
        schema_version=schema_version,
        payload=dict(payload),
        checksum=_ref_payload_checksum(payload),
    )
    problems = _ref_validate_message(message)
    if problems:
        raise ConversionError("; ".join(v.detail for v in problems))
    return message


_VALUES = {
    str: st.text(max_size=6),
    int: st.integers(-10**6, 10**6),
    float: st.floats(allow_nan=False, allow_infinity=False) | st.integers(-9, 9),
    bool: st.booleans(),
}
# A bool for an int, an int for a float, NaN, a dict with an int key, and more.
_RETYPED = st.sampled_from([True, False, 7, 2.5, float("nan"), {1: "x"}, "s", None, [1]])
_NOT_A_MAPPING = st.sampled_from([None, 3, "payload", ["x"], [("report_id", "r")]])


@st.composite
def _envelopes(draw):
    """(envelope, (msg_type, version, payload)): a dict or a CanonicalMessage
    of any schema, valid or broken at any of the places validation reads."""
    msg_type, version = draw(st.sampled_from(sorted(SCHEMAS, key=lambda k: (k[0].value, k[1]))))
    fields = SCHEMAS[msg_type, version]
    payload = {spec.name: draw(_VALUES[spec.kind]) for spec in fields}
    for spec in draw(st.lists(st.sampled_from(fields), max_size=3, unique=True)):
        if draw(st.booleans()):
            del payload[spec.name]
        else:
            payload[spec.name] = draw(_RETYPED)
    payload.update(draw(st.dictionaries(st.text(max_size=4), _RETYPED | st.integers(),
                                        max_size=2)))
    payload = draw(st.just(payload) | _NOT_A_MAPPING)
    raw_type = draw(st.sampled_from([msg_type, msg_type, msg_type.value,
                                     "TELEGRAM", None, 5, ["x"]]))
    raw_version = draw(st.sampled_from([version, version, 0, 3, -1, True, False, 1.0, "1"]))
    try:
        right = _ref_payload_checksum(payload)
    except Exception:
        right = b"\0" * 32
    checksum = draw(st.sampled_from([right, right, sha256(b"other"), "zz", "", None]))

    if draw(st.booleans()):
        envelope = CanonicalMessage(raw_type, raw_version, payload, checksum)
    else:
        envelope = {
            "msg_type": raw_type,
            "schema_version": raw_version,
            "payload": payload,
            "checksum": checksum.hex() if isinstance(checksum, bytes) else checksum,
        }
        for key in draw(st.lists(st.sampled_from(sorted(envelope)), max_size=1)):
            del envelope[key]
    return envelope, (raw_type, raw_version, payload)


@settings(max_examples=1500, deadline=None)
@given(_envelopes())
def test_validate_and_make_message_match_the_reference(case):
    envelope, (msg_type, version, payload) = case
    violations = validate_message(envelope)  # never raises
    try:
        expected = _ref_validate_message(envelope)
    except Exception:  # the reference was not total; nothing to compare
        pass
    else:
        assert violations == expected

    try:
        reference = _ref_make_message(msg_type, version, payload)
    except AttributeError:  # the reference read .value of a type that is no MsgType
        with pytest.raises(ConversionError, match="unknown msg_type"):
            make_message(msg_type, version, payload)
    except (GovSimError, TypeError, ValueError) as exc:  # TypeError, ValueError: dict(payload)
        with pytest.raises(type(exc)) as raised:
            make_message(msg_type, version, payload)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    else:
        assert make_message(msg_type, version, payload) == reference


# --- differential: the compiled payload writers, row reader and row writer
# against the generic path they skip ---

_SCHEMA_KEYS = sorted(SCHEMAS, key=lambda k: (k[0].value, k[1]))
_SCHEMA_IDS = [f"{msg_type.value}-v{version}" for msg_type, version in _SCHEMA_KEYS]
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Values of each declared type, with the awkward ones drawn often.
_FITTING = {
    str: st.text(max_size=6) | st.sampled_from(['"', "\\", "é", "%s", "\u2028", MsgType.AUDIT_REQUEST]),
    int: st.integers() | st.sampled_from([2**64, -2**64 - 1, 0]),
    float: (st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1])),
    bool: st.booleans(),
}
# An int for a float, a bool for an int, a non-finite float, an int past the
# digit limit, and values of no declared type.
_OFF_FIELD = (st.sampled_from([True, False, 7, 0, 2.5, "s", None, [1], {"a": 1}, 10**4300])
              | _NON_FINITE)


@pytest.mark.parametrize("key", _SCHEMA_KEYS, ids=_SCHEMA_IDS)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_payload_writers_write_what_canonical_json_bytes_writes(key, data):
    """A payload that fits its schema is written by its template, byte for byte
    as the general encode writes it, and has no field for _check to fault; any
    other is left to the general path, NaN and infinities included."""
    fields, write = SCHEMAS[key], _PAYLOADS[key]
    payload = {spec.name: data.draw(_FITTING[spec.kind]) for spec in fields}
    assert write(payload) == canonical_json_bytes(payload)
    for variant in [payload, *({**payload, spec.name: data.draw(_OFF_FIELD)} for spec in fields),
                    *({k: v for k, v in payload.items() if k != spec.name} for spec in fields),
                    {**payload, data.draw(st.text(max_size=3)): 1}]:
        if (written := write(variant)) is not None:
            assert written == canonical_json_bytes(variant)
            violations = []
            assert _check(*key, variant, violations) and violations == []
    for spec in fields:
        if spec.kind is float:
            assert write({**payload, spec.name: data.draw(_NON_FINITE)}) is None


def _result(compute):
    """A call's value, or the type and text of the error it raised."""
    try:
        return compute()
    except (GovSimError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _ref_convert(row, mapping):
    """convert_legacy through the generic cell parser."""
    cells = row.split(mapping.delimiter)
    if len(cells) != len(mapping.columns):
        raise MalformedRecord(f"expected {len(mapping.columns)} columns, got {len(cells)}")
    payload = {spec.field: _parse_cell(cell, spec) for spec, cell in zip(mapping.columns, cells)}
    return _ref_make_message(mapping.msg_type, mapping.schema_version, payload)


_REF_WRITES = {"str": str, "int": str, "float": lambda value: repr(float(value)),
               "bool": lambda value: "true" if value else "false"}


def _ref_reverse(message, mapping):
    """reverse_legacy cell by cell."""
    cells = []
    for spec in mapping.columns:
        if spec.field not in message.payload:
            raise ConversionError(f"message lacks mapped field {spec.field!r}")
        try:
            cells.append(_REF_WRITES[spec.kind](message.payload[spec.field]))
        except OverflowError as exc:
            raise ConversionError(f"field {spec.field}: {exc}") from exc
    return mapping.delimiter.join(cells)


# Cell texts per kind: canonical ones, loose numerals, and ones no kind reads.
_CELLS = {
    "str": st.text(max_size=5),
    "int": (st.integers(-10**6, 10**6).map(str)
            | st.sampled_from(["+12", " 7 ", "1_000", "-0", "1e2", "", "x", "\u0661\u0662", "9" * 4301])),
    "float": (st.floats().map(repr)
              | st.sampled_from(["1.50", "1e2", "+12", " 7 ", "1_000.5", ".5", "5.", "nan", "inf",
                                 "-Infinity", "1e309", "", "x"])),
    "bool": st.sampled_from(["true", "false", "True", "1", "", " true"]),
}


@st.composite
def _mappings(draw):
    """A mapping of any schema: its fields in any order, each of the kind of its
    type (an int or a float cell for a float), and a delimiter of any length."""
    msg_type, version = draw(st.sampled_from(_SCHEMA_KEYS))
    columns = tuple(
        ColumnSpec(f"C{i}", spec.name, draw(st.sampled_from(["int", "float"]))
                   if spec.kind is float else spec.kind.__name__)
        for i, spec in enumerate(draw(st.permutations(SCHEMAS[msg_type, version]))))
    delimiter = draw(st.sampled_from([",", ";", "\t", "||", "%", "%s", "ab"]))
    return LegacyMapping(msg_type=msg_type, schema_version=version, delimiter=delimiter,
                         columns=columns)


@settings(max_examples=600, deadline=None)
@given(_mappings(), st.sampled_from([0, 0, 0, -1, 1]), st.data())
def test_compiled_rows_match_the_generic_path(mapping, extra, data):
    """The compiled reader gives the message, or the error, of the generic
    parse; the compiled writer gives the row, or the error, of the cell-by-cell
    write: also for a payload that lacks a field or holds an int past the float range."""
    cells = [data.draw(_CELLS[spec.kind]) for spec in mapping.columns]
    cells = cells[:extra] if extra < 0 else cells + ["x"] * extra
    row = mapping.delimiter.join(cells)
    message = _result(lambda: convert_legacy(row, mapping))
    assert message == _result(lambda: _ref_convert(row, mapping))
    if not isinstance(message, CanonicalMessage):
        return
    for spec in mapping.columns:
        for payload in [message.payload, {**message.payload, spec.field: 10**400},
                        {k: v for k, v in message.payload.items() if k != spec.field}]:
            changed = CanonicalMessage(message.msg_type, message.schema_version, payload, b"")
            assert (_result(lambda: reverse_legacy(changed, mapping))
                    == _result(lambda: _ref_reverse(changed, mapping)))
