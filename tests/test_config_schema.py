"""scenarios/scenario.schema.json states the loader's declaration of every
scenario object (govsim.simctl.SCENARIO_OBJECTS), config included.

Checked with the standard library alone: for each declared object, the
schema names exactly the declared keys, in order, refuses any other key,
and requires exactly the keys that have no default; each integer key's
``minimum`` is the bound its parser holds a scenario to. What ties one
object to another is checked by load_scenario, not by the schema: owners,
voters, signers, systems and auditor bodies that exist, unique ids and
keys, epochs within 1..epochs, the funding pool's share, generated
proposal ids, and rule metrics against every system's base_metrics.
"""

import dataclasses
import json
import re

import pytest

from govsim.errors import ScenarioError
from govsim.simctl import SCENARIO_OBJECTS, SimConfig, load_scenario
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
