"""The config part of scenarios/scenario.schema.json mirrors SimConfig.

Checked with the standard library alone: the schema names each config key
that SimConfig declares, and each integer key's ``minimum`` is the bound the
loader holds a scenario to.
"""

import dataclasses
import json
import re

import pytest

from govsim.errors import ScenarioError
from govsim.simctl import SimConfig, load_scenario
from tests.conftest import SCENARIO_DIR

CONFIG_SCHEMA = json.loads(
    (SCENARIO_DIR / "scenario.schema.json").read_text())["properties"]["config"]["properties"]
INTEGER_KEYS = [key for key, spec in CONFIG_SCHEMA.items()
                if spec.get("type") in ("integer", ["integer", "null"])]


def _config(key: str, value) -> SimConfig:
    return load_scenario({"epochs": 1, "config": {key: value}}).config


def test_schema_names_exactly_the_simconfig_fields():
    assert list(CONFIG_SCHEMA) == [f.name for f in dataclasses.fields(SimConfig)]


@pytest.mark.parametrize("key", INTEGER_KEYS)
def test_integer_keys_are_held_to_the_schema_minimum(key):
    low = CONFIG_SCHEMA[key].get("minimum")
    assert type(low) is int, f"{key} has no minimum in the schema"
    assert getattr(_config(key, low), key) == low
    for bad in (low - 1, float(low), low + 0.5, True):
        with pytest.raises(ScenarioError, match="^" + re.escape(f"config.{key}:")):
            _config(key, bad)
