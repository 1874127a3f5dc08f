"""Synthetic govsim scenarios for the benchmark.

``synthetic(shape, seed)`` returns a plain scenario dict that
``govsim.load_scenario`` accepts. The shape fixes the sizes and the cadence
of every injection; the seed only picks values (metrics, vote directions,
which system a violation hits, which pair colludes), so the cost of a run
barely depends on the seed while its chain bytes do. The only source of
randomness is ``random.Random`` seeded from ``(shape, seed)``.

The generator never emits the inputs that crash a run part-way through:
every voter appears once per proposal, every direction is FOR or AGAINST,
every auditor holds every rule scope for longer than the run, quadratic
voters hold far more balance than their votes can cost, and every
stakeholder has stake, so tallies never meet zero total power.
"""

from __future__ import annotations

import random

SHAPES = ("vote-storm", "audit-sweep", "sealed-replay")
DEFAULT_EPOCHS = 200

TIERS = ("HIGH", "LIMITED", "MINIMAL")
OWNER_ROLES = ("REGULATOR", "BANK", "FINTECH", "DEVELOPER")
ALL_SCOPES = ["DATA_PRIVACY", "RISK_ASSESSMENT", "CAPITAL_ADEQUACY", "TRANSPARENCY"]

RULE_PACK = [
    {"rule_id": "capital-adequacy-min", "domain": "CAPITAL_ADEQUACY",
     "mandatory": True, "applicable_tiers": ["HIGH", "LIMITED"],
     "metrics": ["capital_ratio"],
     "predicate": {"op": ">=", "metric": "capital_ratio", "value": 0.08}},
    {"rule_id": "privacy-consent", "domain": "DATA_PRIVACY",
     "mandatory": True, "applicable_tiers": list(TIERS),
     "metrics": ["data_privacy_consent"],
     "predicate": {"op": "==", "metric": "data_privacy_consent", "value": True}},
    {"rule_id": "bias-ceiling", "domain": "RISK_ASSESSMENT",
     "mandatory": True, "applicable_tiers": ["HIGH"],
     "metrics": ["model_bias_metric"],
     "predicate": {"op": "<=", "metric": "model_bias_metric", "value": 0.2}},
    {"rule_id": "audit-trail-complete", "domain": "TRANSPARENCY",
     "mandatory": False, "applicable_tiers": list(TIERS),
     "metrics": ["audit_trail_complete"],
     "predicate": {"op": "==", "metric": "audit_trail_complete", "value": True}},
]

# Each override fails exactly one rule; privacy applies to every tier.
VIOLATIONS = (
    {"data_privacy_consent": False},
    {"capital_ratio": 0.01},
    {"model_bias_metric": 0.9},
)


def _holders(rng: random.Random, prefix: str, count: int, epochs: int) -> list[dict]:
    return [{
        "id": f"{prefix}-{i:02d}",
        "role": OWNER_ROLES[i % len(OWNER_ROLES)],
        "balance": 50_000 + rng.randrange(10_000),
        "stakes": [{"amount": 10_000 + rng.randrange(40_000),
                    "lock_epochs": epochs + 10}],
    } for i in range(count)]


def _auditors(rng: random.Random, count: int, epochs: int) -> list[dict]:
    return [{
        "id": f"auditor-{i:02d}",
        "role": "AUDITOR",
        "balance": 5_000,
        "stakes": [{"amount": 2_000 + rng.randrange(4_000),
                    "lock_epochs": epochs + 10}],
        "auditor": {"body": "accreditor-1", "scopes": ALL_SCOPES,
                    "validity_epochs": epochs + 10},
    } for i in range(count)]


# Every base metric passes, so a system's baseline risk score is
# exposure / 10. With these exposures and TIER_THRESHOLDS that score lands in
# the system's declared tier: tiers move only on injected violations and
# incidents, never flap on seeded values.
EXPOSURES = {"HIGH": (9,), "LIMITED": (5, 6), "MINIMAL": (1, 2)}
TIER_THRESHOLDS = {"unacceptable": "9/10", "high": "2/25", "limited": "1/25"}


def _systems(rng: random.Random, count: int, owners: list[str]) -> list[dict]:
    tiers = [TIERS[i % len(TIERS)] for i in range(count)]
    return [{
        "id": f"sys-{i:03d}",
        "owner": owners[i % len(owners)],
        "purpose": f"synthetic system {i}",
        "risk_tier": tier,
        "exposure": f"{rng.choice(EXPOSURES[tier])}/10",
        "base_metrics": {
            "capital_ratio": round(rng.uniform(0.09, 0.2), 4),
            "data_privacy_consent": True,
            "model_bias_metric": round(rng.uniform(0.0, 0.18), 4),
            "audit_trail_complete": True,
        },
    } for i, tier in enumerate(tiers)]


def _feed(rng: random.Random, epoch: int) -> dict:
    return {"feed_id": "macro", "signer": "oracle-1", "epoch": epoch,
            "values": {"market_stress": round(rng.random(), 4)}}


def _proposal(rng: random.Random, epoch: int, voters: list[str], *,
              quadratic: bool = False) -> dict:
    votes = []
    for voter in voters:
        vote = {"voter": voter, "direction": rng.choice(("FOR", "AGAINST"))}
        if quadratic:
            vote["magnitude"] = 1 + rng.randrange(3)
        votes.append(vote)
    return {"epoch": epoch, "kind": "PROPOSAL", "proposal": {
        "kind": rng.choice(("ROUTINE", "CRITICAL")),
        "mode": "QUADRATIC" if quadratic else "LINEAR",
        "payload": {"note": f"synthetic {epoch}"},
        "votes": votes,
    }}


def _background(rng: random.Random, epoch: int, systems: list[dict]) -> list[dict]:
    """Rare violations and incidents, so that every layer runs at least a little."""
    out = []
    if epoch % 50 == 0:
        out.append({"epoch": epoch, "kind": "VIOLATION",
                    "system": rng.choice(systems)["id"],
                    "metrics": dict(VIOLATIONS[0])})
    if epoch % 50 == 25:
        out.append({"epoch": epoch, "kind": "INCIDENT",
                    "system": rng.choice(systems)["id"], "severity": "LOW"})
    return out


def _vote_storm(rng: random.Random, epochs: int) -> dict:
    holders = _holders(rng, "holder", 12, epochs)
    voters = [h["id"] for h in holders]
    # Colluders vote only on their scripted proposals, so their pairs agree
    # fully and get flagged; random voters agree about half the time.
    colluders = _holders(rng, "colluder", 4, epochs)
    colluder_ids = [c["id"] for c in colluders]
    systems = _systems(rng, 8, voters)
    injected, feeds = [], []
    for epoch in range(1, epochs + 1):
        injected.append(_proposal(rng, epoch, voters))
        injected.append(_proposal(rng, epoch, voters, quadratic=True))
        injected.append({"epoch": epoch, "kind": "COLLUSION",
                         "pair": rng.sample(colluder_ids, 2), "proposals": 3})
        injected.extend(_background(rng, epoch, systems))
        if epoch % 10 == 0:
            feeds.append(_feed(rng, epoch))
    return {
        "stakeholders": holders + colluders + _auditors(rng, 2, epochs),
        "ai_systems": systems,
        "oracle_feeds": feeds,
        "injected_events": injected,
        "config": {"tier_thresholds": TIER_THRESHOLDS},
    }


def _audit_sweep(rng: random.Random, epochs: int) -> dict:
    owners = _holders(rng, "owner", 8, epochs)
    owner_ids = [o["id"] for o in owners]
    systems = _systems(rng, 24, owner_ids)
    injected, feeds = [], []
    for epoch in range(1, epochs + 1):
        feeds.append(_feed(rng, epoch))
        if epoch % 3 == 0:
            injected.append({"epoch": epoch, "kind": "VIOLATION",
                             "system": rng.choice(systems)["id"],
                             "metrics": dict(rng.choice(VIOLATIONS))})
        if epoch % 5 == 0:
            injected.append({"epoch": epoch, "kind": "INCIDENT",
                             "system": rng.choice(systems)["id"],
                             "severity": rng.choice(("LOW", "MEDIUM"))})
        if epoch % 50 == 0:
            injected.append({"epoch": epoch, "kind": "REGULATION_CHANGE",
                             "version": epoch})
            # One small vote every 50 epochs keeps governance near idle
            # while its spans still record a non-zero time.
            injected.append(_proposal(rng, epoch, owner_ids))
    return {
        "stakeholders": owners + _auditors(rng, 6, epochs),
        "ai_systems": systems,
        "oracle_feeds": feeds,
        "injected_events": injected,
        # Short cadences keep every tier under audit, not only triggered systems.
        "config": {"tier_thresholds": TIER_THRESHOLDS, "auditor_capacity": 1000,
                   "audit_intervals": {"HIGH": 2, "LIMITED": 4, "MINIMAL": 8}},
    }


def _sealed_replay(rng: random.Random, epochs: int) -> dict:
    holders = _holders(rng, "holder", 8, epochs)
    voters = [h["id"] for h in holders]
    systems = _systems(rng, 10, voters)
    injected, feeds = [], []
    for epoch in range(1, epochs + 1):
        injected.append(_proposal(rng, epoch, voters))
        injected.extend(_background(rng, epoch, systems))
        if epoch % 10 == 0:
            feeds.append(_feed(rng, epoch))
    return {
        "stakeholders": holders + _auditors(rng, 2, epochs),
        "ai_systems": systems,
        "oracle_feeds": feeds,
        "injected_events": injected,
        "authorities": [f"sealer-{i}" for i in range(1, 5)],
        "config": {"tier_thresholds": TIER_THRESHOLDS,
                   "signature_scheme": "ed25519", "block_capacity": 8},
    }


_BUILDERS = {
    "vote-storm": _vote_storm,
    "audit-sweep": _audit_sweep,
    "sealed-replay": _sealed_replay,
}


def synthetic(shape: str, seed: int, *, epochs: int = DEFAULT_EPOCHS) -> dict:
    """The scenario dict for one workload shape; same arguments, same dict."""
    if shape not in _BUILDERS:
        raise ValueError(f"unknown workload shape {shape!r}; expected one of {SHAPES}")
    rng = random.Random(f"govsim-bench:{shape}:{seed}")
    body = _BUILDERS[shape](rng, epochs)
    return {
        "seed": rng.randrange(1 << 32),
        "epochs": epochs,
        "authorities": ["sealer-1", "sealer-2", "sealer-3"],
        "oracle_authorities": ["oracle-1"],
        "accreditors": ["accreditor-1"],
        "rules": RULE_PACK,
        **body,
    }
