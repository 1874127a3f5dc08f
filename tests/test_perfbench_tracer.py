"""The benchmark's tracer still fits the package.

``perfbench/tracer.py`` patches govsim functions and methods by name and
reads some of their attributes in its count hooks. A rename in the package
would otherwise only show when the benchmark runs with tracing on. Here each
reference scenario runs under a full ``Tracer`` (imported as the benchmark
imports it, from its own directory), and the chain must keep its pinned root
hash: tracing observes a run and never changes it. The run reports from its
live stores, so the fold's spans come from folding its chain afterwards,
inside the same tracer, as ``verify`` does.
"""

import importlib

import pytest

import govsim.report
from govsim.simctl import run_scenario
from tests.conftest import REFERENCE_SCENARIOS, REPO_ROOT, scenario_path
from tests.test_pinned_outputs import PINNED_ROOT_HASHES


@pytest.mark.parametrize("name", REFERENCE_SCENARIOS)
def test_traced_run_keeps_pinned_root_hash(monkeypatch, name):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    tracer_module = importlib.import_module("tracer")
    with tracer_module.Tracer() as tracer:
        tracer.run_started()
        result = run_scenario(scenario_path(name))
        tracer.run_finished()
        # Through the module, whose binding the tracer patches.
        assert govsim.report.build_report(result.chain.blocks) == result.report
    assert result.root_hash == PINNED_ROOT_HASHES[name]
    spanned = {span[0] for span in tracer.spans}
    assert {"simctl.run", "identity.register", "identity.status_write", "risk.update",
            "report.build", "report.replay", "report.score_series"} <= spanned
    # The count hook on ChainFold.incident_open_at ran, reading fold.incidents.
    assert "report.incident_scan_rows" in tracer.counts
    assert len(tracer.epochs()) == result.report["epochs"]
