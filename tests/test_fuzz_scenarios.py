"""Randomized scenario fuzzing: determinism and invariants must survive
arbitrary (valid) worlds, not just the hand-written reference ones."""

import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from govsim.report import ChainFold, build_report, report_json_bytes
from govsim.simctl import run_scenario
from govsim.ledger import verify_chain

ROLES = ["REGULATOR", "BANK", "FINTECH", "DEVELOPER"]
TIERS = ["HIGH", "LIMITED", "MINIMAL"]
ALL_SCOPES = ["DATA_PRIVACY", "RISK_ASSESSMENT", "CAPITAL_ADEQUACY", "TRANSPARENCY"]

RULE_PACK = [
    {"rule_id": "capital-adequacy-min", "domain": "CAPITAL_ADEQUACY",
     "mandatory": True, "applicable_tiers": ["HIGH", "LIMITED"],
     "metrics": ["capital_ratio"],
     "predicate": {"op": ">=", "metric": "capital_ratio", "value": 0.08}},
    {"rule_id": "privacy-consent", "domain": "DATA_PRIVACY",
     "mandatory": True, "applicable_tiers": TIERS,
     "metrics": ["data_privacy_consent"],
     "predicate": {"op": "==", "metric": "data_privacy_consent", "value": True}},
    {"rule_id": "bias-ceiling", "domain": "RISK_ASSESSMENT",
     "mandatory": True, "applicable_tiers": ["HIGH"],
     "metrics": ["model_bias_metric"],
     "predicate": {"op": "<=", "metric": "model_bias_metric", "value": 0.2}},
]


def random_scenario(rng: random.Random) -> dict:
    epochs = rng.randint(5, 10)
    n_holders = rng.randint(3, 6)
    stakeholders = []
    for i in range(n_holders):
        stakeholders.append({
            "id": f"holder-{i}",
            "role": rng.choice(ROLES),
            "balance": rng.randint(0, 50_000),
            "stakes": [{"amount": rng.randint(1_000, 40_000),
                        "lock_epochs": rng.randint(1, 12)}]
            if rng.random() < 0.8 else [],
        })
    for i in range(2):
        stakeholders.append({
            "id": f"aud-{i}", "role": "AUDITOR",
            "balance": rng.randint(0, 5_000),
            "stakes": [{"amount": rng.randint(500, 4_000), "lock_epochs": 6}],
            "auditor": {"body": "body-1", "scopes": ALL_SCOPES,
                        "validity_epochs": 100},
        })

    systems = []
    owners = [s["id"] for s in stakeholders if s["role"] != "AUDITOR"]
    for i in range(rng.randint(1, 3)):
        systems.append({
            "id": f"sys-{i}",
            "owner": rng.choice(owners),
            "purpose": f"random system {i}",
            "risk_tier": rng.choice(TIERS),
            "exposure": str(round(rng.uniform(0, 1), 2)),
            "base_metrics": {
                "capital_ratio": round(rng.uniform(0.05, 0.2), 4),
                "data_privacy_consent": rng.random() < 0.9,
                "model_bias_metric": round(rng.uniform(0.0, 0.3), 4),
            },
            "metadata": {"origin": f"fuzz-{i}"},
        })

    injected = []
    regulation_epochs = set()
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(["VIOLATION", "INCIDENT", "PROPOSAL",
                           "REGULATION_CHANGE", "COLLUSION"])
        epoch = rng.randint(1, epochs)
        if kind == "VIOLATION":
            injected.append({
                "epoch": epoch, "kind": kind,
                "system": rng.choice(systems)["id"],
                "metrics": rng.choice([
                    {"capital_ratio": 0.01},
                    {"data_privacy_consent": False},
                    {"model_bias_metric": 0.9},
                ]),
            })
        elif kind == "INCIDENT":
            injected.append({
                "epoch": epoch, "kind": kind,
                "system": rng.choice(systems)["id"],
                "severity": rng.choice(["LOW", "MEDIUM", "CRITICAL"]),
            })
        elif kind == "PROPOSAL":
            voters = [s["id"] for s in stakeholders if rng.random() < 0.6]
            injected.append({
                "epoch": epoch, "kind": kind,
                "proposal": {
                    "kind": rng.choice(["ROUTINE", "CRITICAL"]),
                    "payload": {"note": "fuzz"},
                    "votes": [{"voter": v,
                               "direction": rng.choice(["FOR", "AGAINST"])}
                              for v in voters],
                },
            })
        elif kind == "REGULATION_CHANGE":
            if epoch in regulation_epochs:
                continue
            regulation_epochs.add(epoch)
            injected.append({"epoch": epoch, "kind": kind,
                             "version": rng.randint(2, 9)})
        else:
            pair = rng.sample([s["id"] for s in stakeholders], 2)
            injected.append({"epoch": epoch, "kind": kind, "pair": pair,
                             "proposals": rng.randint(10, 14)})

    return {
        "seed": rng.randrange(1 << 32),
        "epochs": epochs,
        "config": {
            # Small capacities force several blocks per epoch.
            "block_capacity": rng.choice([3, 7, 100]),
            "n_seats": rng.randint(1, 4),
            "election_period": rng.choice([2, 4]),
        },
        "authorities": [f"sealer-{i}" for i in range(rng.randint(1, 4))],
        "oracle_authorities": ["oracle-1"],
        "accreditors": ["body-1"],
        "stakeholders": stakeholders,
        "ai_systems": systems,
        "rules": RULE_PACK,
        "oracle_feeds": [{"feed_id": "macro", "signer": "oracle-1",
                          "epoch": rng.randint(1, epochs),
                          "values": {"market_stress": round(rng.random(), 3)}}]
        if rng.random() < 0.5 else [],
        "injected_events": injected,
    }


def test_random_worlds_are_deterministic_and_sound():
    multi_block_epochs = 0
    for sample in range(25):
        rng = random.Random(7_000 + sample)
        scenario = random_scenario(rng)
        first = run_scenario(scenario)
        second = run_scenario(json.loads(json.dumps(scenario)))
        assert first.root_hash == second.root_hash, f"sample {sample}"
        assert first.report == second.report, f"sample {sample}"

        chain = first.chain
        if len(chain.blocks) > scenario["epochs"]:
            multi_block_epochs += 1
        assert verify_chain(chain.blocks, chain.authorities, chain.quorum,
                            chain.scheme_name).ok, f"sample {sample}"
        # Every phase stamp is one its kind's declaration allows.
        assert ChainFold(chain.blocks).phase_fault is None, f"sample {sample}"
        assert first.report["tokens"]["conserved"] is True, f"sample {sample}"
        assert report_json_bytes(build_report(chain.blocks)) == report_json_bytes(
            first.report), f"sample {sample}"
    assert multi_block_epochs > 0  # small capacities actually split blocks


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=8)  # a world whose chain flags two colluding pairs
def test_live_report_is_the_fold_of_the_chain(seed):
    # The run reports from its live stores; the fold of its chain, which
    # verify recomputes, must give the same bytes.
    result = run_scenario(random_scenario(random.Random(seed)))
    assert report_json_bytes(result.report) == report_json_bytes(
        build_report(result.chain.blocks))


def test_fold_scores_match_engine_profiles_exactly():
    # The fold's recomputed score series must equal, epoch by epoch, what
    # the live risk engine produced during the run.
    for sample in range(5):
        rng = random.Random(9_500 + sample)
        result = run_scenario(random_scenario(rng))
        folded = build_report(result.chain.blocks)["risk_metrics"]["scores"]
        for did, profile in result.risk_profiles.items():
            live = [[epoch, str(score)] for epoch, score, _ in profile.history]
            assert folded.get(did, []) == live, (sample, did)
