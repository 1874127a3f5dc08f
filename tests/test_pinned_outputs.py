"""Pinned outputs: the sealed chain and the report of fixed inputs, byte for byte.

Run-to-run determinism (c01) and the structural goldens (c12) do not notice
a change that moves every run to new, equally deterministic bytes. These
pins do: any change to the chain bytes or to the report fold of the
reference scenarios, of a small synthetic world that exercises every
epoch phase, or of a second one that exercises the weighted, quadratic and
re-weighted paths of the rational arithmetic, fails here. A change that
moves them on purpose must say why and re-pin.
"""

import importlib
import json
import random
from collections import defaultdict
from functools import cache

import pytest

from govsim.cli import main as cli_main
from govsim.encoding import as_fraction, is_canonical_json, sha256
from govsim.ledger import EventKind, save_chain
from govsim.report import ChainFold, export_report, report_json_bytes
from govsim.risk import compute_risk_score
from govsim.simctl import Simulator, load_scenario, run_scenario, verify_run
from tests.conftest import REFERENCE_SCENARIOS, REPO_ROOT, scenario_path
from tests.test_incremental_state import _incident_open_scan

PINNED_ROOT_HASHES = {
    "collusion_attack": "98ec7633d4ef0e855622daf029489719add266c15484193074fc1bdf1024c0f8",
    "credit_scoring": "fd8a96a4bc07b43b8b275f22728ea264acd096307a0a11b4bac909eb9398b32c",
    "regulation_shift": "8faf9294c8cd398f1ef91a4bdf157b1b5e0e348a99a505b9cd4e67df69c84170",
}

# sha256 of report_json_bytes(report): pins the report fold as well.
PINNED_REPORT_DIGESTS = {
    "collusion_attack": "71afa7c5d171a768b79370f1ad321754ebd824f3f6ef507c4c3a8ead2af46240",
    "credit_scoring": "e03bdad46231d8e7bd0a109b909d9545a9b73b2b74d0b1f52a17e9966ba27311",
    "regulation_shift": "bdf4bf7c5073b4c01a0e26016034ff6912c417a7c44ece6d20f2e11b3334de1d",
}

# sha256 of the stdout of `govsim inspect <chain> --did <did>`, per DID: pins
# the record and history that the fold rebuilds for each system.
PINNED_INSPECT_DID_DIGESTS = {
    "collusion_attack": {
        "did:govsim:64a4d485693f418bfff5b95672f38bd9":
            "95a471d1246091f9ccc047244ebdca389671eb10ea4a55b08d6a0c91ccc85705",
    },
    "credit_scoring": {
        "did:govsim:618ff7cd5ec536e24ac31b4b9f5cd6eb":
            "91ef80a50d5c03f5f4f8b676fa9e2bca85675f043ef680d0d9f10998c91c4418",
    },
    "regulation_shift": {
        "did:govsim:2ba77b70b001b4dd1b9d8dcee660d8b7":
            "70513a227631732197468915745a1685b3590ceae8217352a287c36175c5bacd",
        "did:govsim:3871bc867dbd036277284f10c4b5f347":
            "06541d151e6b8bb70b5e23a588bb31f60d1da04f6a21b102d3e51edb6778b974",
    },
}

# The benchmark's traffic: the root hash of each shape of
# perfbench/workloads.py at seed 23, so a change that moves what the benchmark
# measures fails here before it reaches a benchmark run.
PINNED_WORKLOAD_ROOTS = {
    "vote-storm": "a3054d05d88041848eb578e21ecc737692238583d6d2c780c75384f48e775d2a",
    "audit-sweep": "7cc71125fcac361d16038c5c8a69c79972c443b8b0f833ffed5968df21e39749",
    "sealed-replay": "613d6a51260270135e88acacd93d92c964d5d665f4e1e63833693d45fa79fe32",
}

SYNTHETIC_ROOT_HASH = "e82545f112583fa699d2fc4fdf20155dd35393d1720e56ee17f830af46810d08"
SYNTHETIC_REPORT_DIGEST = "5d222697c72fa643572a1a66a8ecad528847f6a3fcdd8befca4a2c1aa76a0425"

WEIGHTED_ROOT_HASH = "ae52fb58a496e3d59b9bf9281ae036236f78d1ff3c34bc1878c1c3b84c99245a"
WEIGHTED_REPORT_DIGEST = "cdb2931c3b5dcab88ccbf9c74a356f19e66e912c5bff70df54f967841c4ba34d"

# credit_scoring with no oracle authority and a REGULATION_CHANGE of the default
# version at epoch 3, whose feed the fallback signer regulator-oracle signs.
REGULATOR_ORACLE_ROOT_HASH = "e9b8af050e6b7c3fad055da86952207e4d56e2cf5b5083b770b97ba8ff402a5a"

ALL_SCOPES = ["DATA_PRIVACY", "RISK_ASSESSMENT", "CAPITAL_ADEQUACY", "TRANSPARENCY"]
TIERS = ["HIGH", "LIMITED", "MINIMAL"]
RULES = [
    {"rule_id": "capital-adequacy-min", "domain": "CAPITAL_ADEQUACY",
     "applicable_tiers": ["HIGH", "LIMITED"], "metrics": ["capital_ratio"],
     "predicate": {"op": ">=", "metric": "capital_ratio", "value": 0.08}},
    {"rule_id": "privacy-consent", "domain": "DATA_PRIVACY",
     "applicable_tiers": TIERS, "metrics": ["data_privacy_consent"],
     "predicate": {"op": "==", "metric": "data_privacy_consent", "value": True}},
    {"rule_id": "bias-ceiling", "domain": "RISK_ASSESSMENT",
     "applicable_tiers": ["HIGH"], "metrics": ["model_bias_metric"],
     "predicate": {"op": "<=", "metric": "model_bias_metric", "value": 0.2}},
]


def synthetic_scenario() -> dict:
    """A small world with every kind of activity: per-epoch votes by every
    stakeholder, a colluding pair, violations, incidents of each severity,
    market and regulation oracle feeds, and blocks split inside epochs."""
    rng = random.Random(20_250_117)
    epochs = 24
    roles = ["REGULATOR", "BANK", "FINTECH", "DEVELOPER"]
    stakeholders = [{
        "id": f"holder-{i}", "role": roles[i % len(roles)],
        "balance": 40_000 + rng.randrange(10_000),
        "stakes": [{"amount": 10_000 + rng.randrange(30_000), "lock_epochs": 40}],
    } for i in range(6)]
    stakeholders += [{
        "id": f"aud-{i}", "role": "AUDITOR", "balance": 5_000,
        "stakes": [{"amount": 3_000, "lock_epochs": 40}],
        "auditor": {"body": "body-1", "scopes": ALL_SCOPES, "validity_epochs": 40},
    } for i in range(3)]
    systems = [{
        "id": f"sys-{i}", "owner": f"holder-{i % 6}", "purpose": f"system {i}",
        "risk_tier": TIERS[i % 3], "exposure": str(round(rng.uniform(0, 1), 2)),
        "base_metrics": {"capital_ratio": 0.12, "data_privacy_consent": True,
                         "model_bias_metric": 0.05},
    } for i in range(5)]

    injected = []
    for epoch in range(1, epochs + 1):
        injected.append({"epoch": epoch, "kind": "PROPOSAL", "proposal": {
            "kind": rng.choice(["ROUTINE", "CRITICAL"]),
            "payload": {"n": epoch},
            "votes": [{"voter": s["id"], "direction": rng.choice(["FOR", "AGAINST"])}
                      for s in stakeholders if rng.random() < 0.8],
        }})
        if epoch % 5 == 2:
            injected.append({"epoch": epoch, "kind": "VIOLATION",
                             "system": f"sys-{rng.randrange(5)}",
                             # Privacy applies to every tier, so this fails
                             # an audit even after a system drops to MINIMAL.
                             "metrics": {"data_privacy_consent": False}})
        if epoch % 7 == 3:
            injected.append({"epoch": epoch, "kind": "INCIDENT",
                             "system": f"sys-{rng.randrange(5)}",
                             "severity": ["LOW", "MEDIUM", "CRITICAL"][epoch % 3]})
    injected.append({"epoch": 4, "kind": "COLLUSION",
                     "pair": ["holder-1", "holder-2"], "proposals": 11})
    injected.append({"epoch": 15, "kind": "COLLUSION",
                     "pair": ["holder-3", "holder-5"], "proposals": 6})
    injected.append({"epoch": 10, "kind": "REGULATION_CHANGE", "version": 2})

    return {
        "seed": 4242,
        "epochs": epochs,
        "config": {"block_capacity": 16, "n_seats": 3, "election_period": 4,
                   "collusion_min_common": 8, "collusion_agreement": "4/5",
                   "auditor_capacity": 3},
        "authorities": ["sealer-1", "sealer-2", "sealer-3"],
        "oracle_authorities": ["oracle-1"],
        "accreditors": ["body-1"],
        "stakeholders": stakeholders,
        "ai_systems": systems,
        "rules": RULES,
        "oracle_feeds": [{"feed_id": feed, "signer": "oracle-1", "epoch": epoch,
                          "values": {"market_stress": round(rng.random(), 3)}}
                         for epoch in range(3, epochs + 1, 3)
                         for feed in ("macro", "fx")],
        "injected_events": injected,
    }


def weighted_scenario() -> dict:
    """A small world for the rational arithmetic the first one leaves at its
    defaults: QUADRATIC tallies, two passed WEIGHT_ADJUSTMENT proposals (new
    role multipliers, then a new cap and routine threshold) that take effect
    mid-run, non-default risk weights (one negative, so scores clamp at 0 and
    at 1) and tier thresholds, and owners of several systems whose reward
    factors fall below 1."""
    rng = random.Random(20_260_301)
    epochs = 20
    roles = ["REGULATOR", "BANK", "FINTECH", "DEVELOPER", "BANK"]
    stakeholders = [{
        "id": f"holder-{i}", "role": roles[i], "balance": 60_000,
        "stakes": [{"amount": 5_000 + rng.randrange(40_000), "lock_epochs": 30},
                   {"amount": 1_000 + rng.randrange(5_000), "lock_epochs": 30}],
    } for i in range(5)]
    stakeholders += [{
        "id": f"aud-{i}", "role": "AUDITOR", "balance": 5_000,
        "stakes": [{"amount": 2_000, "lock_epochs": 30}],
        "auditor": {"body": "body-1", "scopes": ALL_SCOPES, "validity_epochs": 30},
    } for i in range(2)]
    # Owners holder-0..2 hold two systems each; the odd ones fail rules.
    systems = [{
        "id": f"sys-{i}", "owner": f"holder-{i % 3}", "purpose": f"system {i}",
        "risk_tier": TIERS[i % 3], "exposure": ["0", "1", "1/3", "9/10", "1/2", "3/4"][i],
        "base_metrics": {"capital_ratio": [0.12, 0.05][i % 2], "data_privacy_consent": True,
                         "model_bias_metric": [0.05, 0.3][i % 2]},
    } for i in range(6)]
    voters = [s["id"] for s in stakeholders]

    injected = []
    for epoch in range(1, epochs + 1):
        quadratic = epoch % 2 == 0
        injected.append({"epoch": epoch, "kind": "PROPOSAL", "proposal": {
            "kind": rng.choice(["ROUTINE", "CRITICAL"]),
            "mode": "QUADRATIC" if quadratic else "LINEAR",
            "payload": {"n": epoch},
            "votes": [{"voter": v, "direction": rng.choice(["FOR", "AGAINST"]),
                       **({"magnitude": 1 + rng.randrange(5)} if quadratic else {})}
                      for v in voters if rng.random() < 0.7],
        }})
        if epoch % 4 == 1:
            injected.append({"epoch": epoch, "kind": "VIOLATION",
                             "system": f"sys-{rng.randrange(6)}",
                             "metrics": {"data_privacy_consent": False,
                                         "capital_ratio": 0.01}})
        if epoch % 5 == 2:
            injected.append({"epoch": epoch, "kind": "INCIDENT",
                             "system": f"sys-{rng.randrange(6)}",
                             "severity": ["LOW", "MEDIUM", "CRITICAL"][epoch % 3]})
    for epoch, payload in ((6, {"role_multiplier": {"BANK": "5/2", "REGULATOR": "2/3"}}),
                           (13, {"cap_fraction": "1/3", "threshold_routine": "3/5"})):
        injected.append({"epoch": epoch, "kind": "PROPOSAL", "proposal": {
            "kind": "WEIGHT_ADJUSTMENT", "payload": payload,
            "votes": [{"voter": v, "direction": "FOR"} for v in voters]}})
    injected.append({"epoch": 3, "kind": "COLLUSION",
                     "pair": ["holder-1", "holder-4"], "proposals": 9})

    return {
        "seed": 777,
        "epochs": epochs,
        "config": {"block_capacity": 24, "collusion_min_common": 8,
                   "auditor_capacity": 4, "cap_fraction": "1/4",
                   "risk_weights": {"noncompliance": "3/4", "audit_failure": "3/5",
                                    "incidents": "1/2", "exposure": "-1/4"},
                   "tier_thresholds": {"unacceptable": "99/100", "high": "1/2",
                                       "limited": "1/5"}},
        "authorities": ["sealer-1", "sealer-2"],
        "accreditors": ["body-1"],
        "stakeholders": stakeholders,
        "ai_systems": systems,
        "rules": RULES,
        "injected_events": injected,
    }


def _report_digest(report: dict) -> str:
    return sha256(report_json_bytes(report)).hex()


def _assert_fold_equals_live_governance(result) -> None:
    fold = ChainFold(result.chain.blocks).governance
    assert fold.proposals == result.governance.proposals
    assert fold.delegates == result.governance.delegates


@pytest.mark.parametrize("name", REFERENCE_SCENARIOS)
def test_reference_root_hash_pinned(reference_results, name):
    assert reference_results[name].root_hash == PINNED_ROOT_HASHES[name]


@pytest.mark.parametrize("name", REFERENCE_SCENARIOS)
def test_reference_report_pinned(reference_results, name):
    assert _report_digest(reference_results[name].report) == PINNED_REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", REFERENCE_SCENARIOS)
def test_inspect_did_output_pinned(reference_results, tmp_path, capsys, name):
    result = reference_results[name]
    save_chain(result.chain, tmp_path / "chain.db")
    digests = {}
    for did in sorted(result.registry.records):
        capsys.readouterr()
        assert cli_main(["inspect", str(tmp_path / "chain.db"), "--did", did]) == 0
        digests[did] = sha256(capsys.readouterr().out.encode("utf-8")).hex()
    assert digests == PINNED_INSPECT_DID_DIGESTS[name]


def test_synthetic_world_pinned():
    result = run_scenario(synthetic_scenario())
    report = result.report
    # The world must keep exercising what the pins are meant to cover.
    assert report["governance"]["collusion_flags"]
    assert report["audits"]["by_outcome"]["FAIL"] > 0
    assert report["risk_metrics"]["incidents"]
    assert report["blocks"] > report["epochs"]
    assert result.root_hash == SYNTHETIC_ROOT_HASH
    assert _report_digest(report) == SYNTHETIC_REPORT_DIGEST
    _assert_fold_equals_live_governance(result)


def test_weighted_world_pinned():
    scenario = weighted_scenario()
    result = run_scenario(scenario)
    report = result.report
    governance = report["governance"]
    assert {p["mode"] for p in governance["proposals"]} == {"LINEAR", "QUADRATIC"}
    assert [a["weights"]["cap_fraction"] for a in governance["weight_adjustments"]] \
        == ["1/4", "1/3"]
    assert governance["collusion_flags"]
    scores = {score for series in report["risk_metrics"]["scores"].values()
              for _, score in series}
    assert {"0", "1"} <= scores
    owners = [system["owner"] for system in scenario["ai_systems"]]
    assert max(owners.count(owner) for owner in owners) > 1
    assert result.root_hash == WEIGHTED_ROOT_HASH
    assert _report_digest(report) == WEIGHTED_REPORT_DIGEST
    _assert_fold_equals_live_governance(result)


def test_regulation_change_without_an_oracle_authority_pinned():
    scenario = json.loads(scenario_path("credit_scoring").read_text())
    scenario.update(oracle_authorities=[], oracle_feeds=[])
    scenario["injected_events"].append({"epoch": 3, "kind": "REGULATION_CHANGE"})
    result = run_scenario(scenario)
    [update] = [(event.epoch, event.actor, event.body()) for block in result.chain.blocks
                for event in block.events if event.kind is EventKind.ORACLE_UPDATE]
    assert update == (3, "regulator-oracle", {
        "epoch": 3, "feed_id": "regulation", "phase": 1, "signer": "regulator-oracle",
        "values": {"regulation_version": 3}})
    assert result.root_hash == REGULATOR_ORACLE_ROOT_HASH


@pytest.mark.parametrize("shape", PINNED_WORKLOAD_ROOTS)
def test_benchmark_workload_root_pinned(monkeypatch, shape):
    # Imported from the benchmark's own directory, as the benchmark imports it.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert tuple(PINNED_WORKLOAD_ROOTS) == workloads.SHAPES
    assert run_scenario(workloads.synthetic(shape, 23)).root_hash == PINNED_WORKLOAD_ROOTS[shape]


def test_every_pinned_payload_is_canonical(reference_results):
    # Chain.append does not recheck the payloads it builds; this does, for
    # every event of every pinned world.
    results = [*reference_results.values(),
               run_scenario(synthetic_scenario()), run_scenario(weighted_scenario())]
    payloads = [event.payload for result in results
                for block in result.chain.blocks for event in block.events]
    assert len(payloads) > 1000
    assert all(is_canonical_json(payload) for payload in payloads)


@pytest.mark.parametrize("world", [*REFERENCE_SCENARIOS, "synthetic", "weighted"])
def test_every_pinned_world_verifies(reference_results, tmp_path, world):
    # verify checks every body and phase stamp against its kind's
    # declaration, and the stored report against the same fold.
    worlds = {"synthetic": synthetic_scenario, "weighted": weighted_scenario}
    result = reference_results.get(world) or run_scenario(worlds[world]())
    save_chain(result.chain, tmp_path / "chain.db")
    export_report(result.report, tmp_path / "report.json")
    verification, report_matches = verify_run(tmp_path / "chain.db")
    assert verification.ok, verification
    assert report_matches is True


def _score_series_loop(fold: ChainFold) -> dict:
    """The score of every (system, epoch), computed afresh each time: the
    reference that ``ChainFold.score_series`` memoizes."""
    series = defaultdict(list)
    for epoch in sorted(fold.assessments):
        for did in sorted(fold.assessments[epoch]):
            record = fold.registry.records.get(did)
            if record is None:
                continue
            score = compute_risk_score(
                as_fraction(fold.assessments[epoch][did]["score"]),
                fold.audit_failed_at(did, epoch - 1), fold.incident_open_at(did, epoch),
                record.exposure, fold.weights)
            series[did].append([epoch, str(score)])
    return dict(series)


@pytest.mark.parametrize("world", [*REFERENCE_SCENARIOS, "synthetic", "weighted"])
def test_score_series_equals_the_unmemoized_loop(reference_results, world):
    worlds = {"synthetic": synthetic_scenario, "weighted": weighted_scenario}
    result = reference_results.get(world) or run_scenario(worlds[world]())
    fold = ChainFold(result.chain.blocks)
    expected = _score_series_loop(fold)
    assert sum(map(len, expected.values())) >= result.report["epochs"]
    assert fold.score_series() == expected


@cache
def _simulator(world: str) -> Simulator:
    """A simulator of ``world`` that has run: its stores, not only its result."""
    worlds = {"synthetic": synthetic_scenario, "weighted": weighted_scenario}
    simulator = Simulator(load_scenario(worlds[world]() if world in worlds
                                        else scenario_path(world)))
    simulator.run()
    return simulator


@pytest.mark.parametrize("world", [*REFERENCE_SCENARIOS, "synthetic", "weighted"])
def test_incident_open_at_equals_the_walk_of_every_transition(world):
    # The fold's incident_open_at and the run's own IncidentLog.open_at
    # answer from per-DID steps kept as incidents move; the walk over every
    # transition of every incident is the reference.
    simulator = _simulator(world)
    fold = ChainFold(simulator.chain.blocks)
    for open_at, store in ((fold.incident_open_at, fold),
                           (simulator.incidents.open_at, simulator.incidents)):
        answers = [(open_at(did, epoch), _incident_open_scan(store, did, epoch))
                   for did in [*fold.registry.records, "did:unknown"]
                   for epoch in range(-1, simulator.scenario.epochs + 2)]
        assert [fast for fast, _ in answers] == [walk for _, walk in answers]
        if fold.incidents:
            assert any(fast for fast, _ in answers)


@pytest.mark.parametrize("world", [*REFERENCE_SCENARIOS, "synthetic", "weighted"])
def test_failed_audits_are_those_the_chain_records(world):
    # The run's risk phase and the fold read the same AuditRegistry.failed.
    simulator = _simulator(world)
    recorded = [(event.body(), event.epoch) for block in simulator.chain.blocks
                for event in block.events if event.kind is EventKind.AUDIT_RECORDED]
    failed = {(body["did"], epoch) for body, epoch in recorded
              if body["outcome"] in ("FAIL", "INCONCLUSIVE")}
    assert simulator.audits.failed == failed
    assert ChainFold(simulator.chain.blocks).audit_registry.failed == failed
    assert len(simulator.audits.records) == len(recorded)
