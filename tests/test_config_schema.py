"""scenarios/scenario.schema.json states the loader's declaration of every
scenario object (govsim.simctl.SCENARIO_OBJECTS), config included.

Checked with the standard library alone: for each declared object, the
schema names exactly the declared keys, in order, refuses any other key,
and requires exactly the keys that have no default; each integer key's
``minimum`` is the bound its parser holds a scenario to, and each ``enum``
lists the members of the Python enum (or the scheme names) that the loader
reads it into. What ties one
object to another is checked by load_scenario, not by the schema: owners,
voters, signers, systems and auditor bodies that exist, unique ids and
keys, epochs within 1..epochs, the funding pool's share, generated
proposal ids, and rule metrics against every system's base_metrics.
"""

import dataclasses
import json
import re

import pytest

from govsim import keys
from govsim.compliance import RuleDomain
from govsim.errors import ScenarioError
from govsim.governance import ProposalKind, VoteDirection, VoteMode
from govsim.identity import RiskTier, Role
from govsim.risk import Severity
from govsim.simctl import SCENARIO_OBJECTS, SimConfig, load_scenario
from govsim.tokens import Pool, SlashReason
from tests.conftest import SCENARIO_DIR

SCHEMA = json.loads((SCENARIO_DIR / "scenario.schema.json").read_text())


def _schema_of(name: str) -> dict:
    return SCHEMA if name == "scenario" else SCHEMA["definitions"][name]


# (object, key) for each integer key; a config key keeps its bare name as its id.
INTEGER_KEYS = [
    pytest.param(name, key, id=key if name == "config" else f"{name}.{key}")
    for name in SCENARIO_OBJECTS
    for key, spec in _schema_of(name)["properties"].items()
    if spec.get("type") in ("integer", ["integer", "null"])]


def test_schema_names_exactly_the_simconfig_fields():
    assert list(SCHEMA["definitions"]["config"]["properties"]) \
        == [f.name for f in dataclasses.fields(SimConfig)]


def test_schema_defines_exactly_the_declared_objects():
    assert ["scenario", *SCHEMA["definitions"]] == list(SCENARIO_OBJECTS)


@pytest.mark.parametrize("name", list(SCENARIO_OBJECTS))
def test_schema_states_each_declared_object(name):
    schema, keys = _schema_of(name), SCENARIO_OBJECTS[name]
    assert list(schema["properties"]) == list(keys)
    assert schema["additionalProperties"] is False
    assert schema.get("required", []) == [
        key for key, f in keys.items()
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]


def _reader(name: str, key: str):
    """(read, path): ``read`` of a JSON value gives what the loader makes of
    it at ``path``. A top-level or config key goes through load_scenario; a
    key of a nested object through its declared parser, which the reader
    calls with the same path."""
    if name == "scenario":
        return (lambda value: getattr(load_scenario({"epochs": 1, key: value}), key)), key
    if name == "config":
        return (lambda value: getattr(load_scenario(
            {"epochs": 1, "config": {key: value}}).config, key)), f"config.{key}"
    parse, path = SCENARIO_OBJECTS[name][key].metadata["parse"], f"{name}.{key}"
    return (lambda value: parse(value, path)), path


@pytest.mark.parametrize("name,key", INTEGER_KEYS)
def test_integer_keys_are_held_to_the_schema_minimum(name, key):
    low = _schema_of(name)["properties"][key].get("minimum")
    read, path = _reader(name, key)
    if low is None:  # the seed: any integer
        assert read(-2**70) == -2**70
        low = 0
    else:
        assert type(low) is int, f"{path} has no integer minimum in the schema"
        assert read(low) == low
        with pytest.raises(ScenarioError, match="^" + re.escape(f"{path}:")):
            read(low - 1)
    for bad in (float(low), low + 0.5, True, str(low)):
        with pytest.raises(ScenarioError, match="^" + re.escape(f"{path}:")):
            read(bad)


def _enums(value, pointer=""):
    """(JSON pointer, list) for each ``enum`` in a schema value."""
    if isinstance(value, dict):
        if "enum" in value:
            yield pointer, value["enum"]
        for key, item in value.items():
            yield from _enums(item, f"{pointer}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _enums(item, f"{pointer}/{i}")


def _values(enum) -> list[str]:
    return [member.value for member in enum]


_CONFIG, _DEFS = "/definitions/config/properties", "/definitions"
# Every enum in the schema, under its pointer, as the loader's source lists it.
ENUM_SOURCES = {
    f"{_CONFIG}/signature_scheme": list(keys._SCHEMES),
    f"{_CONFIG}/role_multiplier/propertyNames": _values(Role),
    f"{_CONFIG}/audit_intervals/propertyNames": _values(RiskTier),
    f"{_CONFIG}/pool_fractions/propertyNames": _values(Pool),
    f"{_CONFIG}/slash_fractions/propertyNames": _values(SlashReason),
    f"{_CONFIG}/funding_pool": _values(Pool),
    f"{_DEFS}/stakeholder/properties/role": _values(Role),
    f"{_DEFS}/auditor/properties/scopes/items": _values(RuleDomain),
    f"{_DEFS}/rule/properties/domain": _values(RuleDomain),
    f"{_DEFS}/rule/properties/applicable_tiers/items": _values(RiskTier),
    # The loader refuses to register an UNACCEPTABLE system.
    f"{_DEFS}/ai_system/properties/risk_tier":
        [tier for tier in _values(RiskTier) if tier != RiskTier.UNACCEPTABLE],
    f"{_DEFS}/INCIDENT/properties/severity": _values(Severity),
    f"{_DEFS}/proposal/allOf/1/then/properties/payload/properties/role_multiplier"
    "/propertyNames": _values(Role),
    f"{_DEFS}/proposal/properties/kind": _values(ProposalKind),
    f"{_DEFS}/proposal/properties/mode": _values(VoteMode),
    f"{_DEFS}/vote/properties/direction": _values(VoteDirection),
}


def test_every_schema_enum_lists_its_python_source():
    assert dict(_enums(SCHEMA)) == ENUM_SOURCES
