"""Every compliance-status change a run writes follows one row of
``identity.STATUS_RULES``, checked by folding its chain in event order.

A DID_UPDATED that sets a status matches a row when the status before it is
among the row's sources, the new status is the row's and the event's actor
is the row's. The one exception is a reclassification to UNACCEPTABLE, which
suspends the system inside the tier's own DID_UPDATED.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.identity import STATUS_RULES, ComplianceStatus, RiskTier
from govsim.ledger import EventKind
from govsim.simctl import run_scenario
from tests.conftest import REFERENCE_SCENARIOS, scenario_path
from tests.test_fuzz_scenarios import random_scenario
from tests.test_pinned_outputs import synthetic_scenario, weighted_scenario


def status_causes(blocks) -> list[str]:
    """The cause of each status change in the chain, in event order;
    AssertionError at the first change that no rule allows."""
    status: dict[str, ComplianceStatus] = {}
    causes = []
    for event in (event for block in blocks for event in block.events):
        if event.kind is EventKind.DID_REGISTERED:
            status[event.body()["did"]] = ComplianceStatus.UNDER_REVIEW
        if event.kind is not EventKind.DID_UPDATED:
            continue
        did, change = event.body()["did"], event.body()["change"]
        if "status" not in change:
            continue
        before, after = status[did], ComplianceStatus(change["status"])
        if change.get("risk_tier") == RiskTier.UNACCEPTABLE.value:
            assert after is ComplianceStatus.SUSPENDED, event
            causes.append("unacceptable-tier")
        else:
            matches = [cause for cause, (sources, new, actor) in STATUS_RULES.items()
                       if before in sources and after is new and event.actor == actor]
            assert len(matches) == 1, (
                f"event {event.event_id} at epoch {event.epoch}: {event.actor} set "
                f"{did} from {before.value} to {after.value}, which no rule allows")
            causes.append(matches[0])
        status[did] = after
    return causes


def _critical_credit_scoring() -> dict:
    """credit_scoring with a CRITICAL incident at epoch 2 (no reference
    scenario or benchmark workload raises one)."""
    scenario = json.loads(scenario_path("credit_scoring").read_text())
    scenario["injected_events"].append(
        {"epoch": 2, "kind": "INCIDENT", "system": "credit-scorer", "severity": "CRITICAL"})
    return scenario


def test_the_pinned_worlds_follow_the_status_rules(reference_results):
    causes = set()
    for name in REFERENCE_SCENARIOS:
        causes.update(status_causes(reference_results[name].chain.blocks))
    for scenario in (synthetic_scenario(), weighted_scenario(), _critical_credit_scoring()):
        causes.update(status_causes(run_scenario(scenario).chain.blocks))
    # These runs move a status by every rule of the table.
    assert causes >= STATUS_RULES.keys()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_worlds_follow_the_status_rules(seed):
    status_causes(run_scenario(random_scenario(random.Random(seed))).chain.blocks)
