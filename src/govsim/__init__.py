"""govsim: deterministic simulator of a permissioned AI-governance ledger.

Submodules map one-to-one onto the framework's subsystems:

    ledger      hash-chained, quorum-sealed event log
    identity    DID registry, RBAC, content-addressed metadata store
    governance  DPoS elections, weighted/quadratic voting, collusion scan
    compliance  versioned rule engine, oracle feeds, dispute arbitration
    audit       accreditation, risk-tiered scheduling, commitment audits
    tokens      finite-supply accounting: pools, staking, rewards, slashing
    risk        risk scoring, tier reclassification, incidents, EWMA forecast
    interop     canonical messages, legacy conversion, schema versioning
    simctl      scenario runner (the writer loop) and CLI entry points
    report      run reports from the live stores, and the fold that proves them
"""

from . import (  # noqa: F401
    audit,
    compliance,
    encoding,
    errors,
    governance,
    identity,
    interop,
    keys,
    ledger,
    report,
    risk,
    rng,
    simctl,
    tokens,
)
from .simctl import load_scenario, run_scenario  # noqa: F401

__version__ = "0.1.0"
