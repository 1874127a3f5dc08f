"""Work counts that must not grow with the number of operations: a guard for
linear scaling that times nothing.

Voting power changes only when a stake, the weights or a penalty changes, so
a run computes each stakeholder's raw power once at set-up and again only in
an epoch where one of those moved, however many tallies and elections it
holds. The risk phase scores each distinct (aggregate, audit failed, open
incidents, exposure) input once, however many assessments it reads.

Likewise each predicate is checked and compiled once, when its rule is built,
each tier's rules are gathered once per registration, and each distinct score
is built once, however many assessments and audits read them.
And a body of a shape that its kind declares is written by that kind's
template, never by the general encode. Every event but the heartbeat is
appended by the store that owns its state. A well-formed legacy row makes its
round trip without the general encode or the field check.
"""

import importlib
import sys

from govsim import compliance, encoding, governance, interop, risk
from govsim.ledger import _WRITERS, Chain, EventKind
from govsim.simctl import Simulator, load_scenario, run_scenario
from tests.conftest import REFERENCE_SCENARIOS, REPO_ROOT, SCENARIO_DIR, scenario_path
from tests.test_pinned_outputs import synthetic_scenario, weighted_scenario


def _power_epochs(result) -> set[int]:
    """The epochs in which a stake, the weights or a penalty changed, read
    from the chain: stakes move with STAKE_CHANGED and SLASH_APPLIED, staged
    weights take effect at their ``effective_epoch``, and a collusion penalty
    is set at its flag's epoch and lifted at its ``expiry_epoch``."""
    epochs = set()
    for block in result.chain.blocks:
        for event in block.events:
            if event.kind in (EventKind.STAKE_CHANGED, EventKind.SLASH_APPLIED):
                epochs.add(event.epoch)
            elif event.kind is EventKind.WEIGHTS_ADJUSTED:
                epochs.add(event.body()["effective_epoch"])
            elif event.kind is EventKind.COLLUSION_FLAGGED:
                epochs.update((event.epoch, event.body()["expiry_epoch"]))
    return epochs


def test_raw_power_is_computed_per_change_not_per_tally(monkeypatch):
    # Imported from the benchmark's own directory, as the benchmark imports it.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    scenario = importlib.import_module("workloads").synthetic("vote-storm", 23)
    calls = 0
    raw_power_terms = governance._raw_power_terms

    def counted(stakeholder, weights):
        nonlocal calls
        calls += 1
        return raw_power_terms(stakeholder, weights)

    monkeypatch.setattr(governance, "_raw_power_terms", counted)
    result = run_scenario(scenario)
    tallies = sum(1 for block in result.chain.blocks for event in block.events
                  if event.kind is EventKind.PROPOSAL_RESOLVED)
    assert tallies >= 1000  # the workload is the storm of votes it claims to be
    bound = len(result.governance.stakeholders) * (1 + len(_power_epochs(result)))
    assert calls <= bound


def test_each_distinct_risk_input_is_scored_once(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    scenario = importlib.import_module("workloads").synthetic("audit-sweep", 23)
    inputs = []
    compute_risk_score = risk.compute_risk_score

    def counted(aggregate, audit_failed, incident_count, exposure, weights):
        inputs.append((aggregate, audit_failed, incident_count, exposure))
        return compute_risk_score(aggregate, audit_failed, incident_count, exposure, weights)

    monkeypatch.setattr(risk, "compute_risk_score", counted)
    result = run_scenario(scenario)
    updates = sum(len(profile.history) for profile in result.risk_profiles.values())
    assert updates == 4800  # one update per assessment: the workload the benchmark runs
    assert len(inputs) == len(set(inputs)) == 20


def _has_writer(event) -> bool:
    """Whether the event's body, less its phase, is of a shape its kind's writer
    was derived from."""
    body = event.body()
    body.pop("phase")
    return any(body.keys() == shape.keys() and all(
        body[key] == declared for key, declared in shape.items() if isinstance(declared, str))
        for shape in _WRITERS[event.kind].shapes)


def test_hot_bodies_skip_the_general_encode(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    calls = 0
    canonical_json_bytes = encoding.canonical_json_bytes

    def counted(value):
        nonlocal calls
        calls += isinstance(value, dict) and "phase" in value  # a whole body
        return canonical_json_bytes(value)

    # The writers that Chain.append calls reach it through encoding.
    monkeypatch.setattr(encoding, "canonical_json_bytes", counted)
    for workload in ("vote-storm", "audit-sweep"):
        scenario = importlib.import_module("workloads").synthetic(workload, 23)
        calls = 0
        events = [event for block in run_scenario(scenario).chain.blocks for event in block.events]
        without_writer = sum(1 for event in events if not _has_writer(event))
        if workload == "vote-storm":  # votes, rewards, charges and assessments dominate
            assert without_writer * 5 < len(events)
        assert 0 < calls <= without_writer, workload


def test_a_well_formed_row_skips_the_general_encode_and_the_check(monkeypatch):
    calls = {"canonical_json_bytes": 0, "_check": 0}

    def counting(module, name):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        original = getattr(module, name)
        monkeypatch.setattr(module, name, counted)

    # interop calls canonical_json_bytes directly, and the writers through encoding.
    for module, name in [(encoding, "canonical_json_bytes"), (interop, "canonical_json_bytes"),
                         (interop, "_check")]:
        counting(module, name)
    mapping = interop.LegacyMapping.from_json(
        encoding.read_json(SCENARIO_DIR / "legacy_mapping.json", "mapping"))
    rows = (SCENARIO_DIR / "legacy_compliance.csv").read_text("utf-8").splitlines()
    assert len(rows) >= 20
    for row in rows:
        message = interop.convert_legacy(row, mapping)
        assert interop.validate_message(message) == []
        assert interop.reverse_legacy(message, mapping) == row
        assert interop.validate_message(message.to_json()) == []
    assert calls == {"canonical_json_bytes": 0, "_check": 0}
    # The counters do count: a payload off its schema takes the general path.
    interop.validate_message({**message.to_json(), "payload": {"stray": 1}})
    assert calls == {"canonical_json_bytes": 1, "_check": 1}


def test_rules_compile_once_per_tier_and_registration(monkeypatch):
    registrations = 0
    compiled = []  # (tier, registrations before it) of each compilation
    scores = set()  # (compilation, score) of each evaluation
    evaluations = fractions = 0
    register_rule, fraction = compliance.RuleRegistry.register_rule, compliance.Fraction

    def counted_registration(*args, **kwargs):
        nonlocal registrations
        registrations += 1
        return register_rule(*args, **kwargs)

    class CountedTier(compliance.CompiledTier):
        __slots__ = ()

        def __init__(self, tier, rules):
            super().__init__(tier, rules)
            compiled.append((tier, registrations))

        def evaluate(self, metrics):
            nonlocal evaluations
            evaluations += 1
            verdicts = super().evaluate(metrics)
            if self.rules:  # a tier without rules scores the shared ONE
                scores.add((self, verdicts[1]))
            return verdicts

    def counted_fraction(*args):
        nonlocal fractions
        fractions += 1
        return fraction(*args)

    monkeypatch.setattr(compliance.RuleRegistry, "register_rule", counted_registration)
    monkeypatch.setattr(compliance, "CompiledTier", CountedTier)
    monkeypatch.setattr(compliance, "Fraction", counted_fraction)
    result = run_scenario(scenario_path("regulation_shift"))
    registered = [event.epoch for block in result.chain.blocks for event in block.events
                  if event.kind is EventKind.RULE_REGISTERED]
    assert registered[-1] > 0  # a RULE_UPDATE passed mid-run
    assert len(compiled) == len(set(compiled))
    assert max(seen for _, seen in compiled) == registrations == len(registered)
    assert fractions <= len(scores) < evaluations


def test_each_predicate_is_walked_once_per_rule_built(monkeypatch):
    walks = []  # per walk of a whole predicate: whether a CompiledTier was being built
    building = False
    compile_predicate = compliance.compile_predicate

    def counted(tree, declared, ordered, *depth):
        if not depth:  # the walk's root, not a node below it
            walks.append(building)
        return compile_predicate(tree, declared, ordered, *depth)

    class CountedTier(compliance.CompiledTier):
        __slots__ = ()

        def __init__(self, tier, rules):
            nonlocal building
            building = True
            try:
                super().__init__(tier, rules)
            finally:
                building = False

    monkeypatch.setattr(compliance, "compile_predicate", counted)
    monkeypatch.setattr(compliance, "CompiledTier", CountedTier)
    scenario = load_scenario(scenario_path("regulation_shift"))
    parsed = len(scenario.rules) + sum(
        spec.rule is not None for specs in scenario.proposals.values() for spec in specs)
    assert len(walks) == parsed
    result = Simulator(scenario).run()
    registered = [event.epoch for block in result.chain.blocks for event in block.events
                  if event.kind is EventKind.RULE_REGISTERED]
    assert registered[-1] > 0  # a RULE_UPDATE passed mid-run
    # Each registration builds the rule at its version: one walk, and none by a tier.
    assert walks == [False] * (parsed + len(registered))


# The only callers of Chain.append: a store, and the simulator's HEARTBEAT.
APPEND_CALLERS = {"Store._append", "Store._record", "Simulator._phase_ingest"}


def test_every_append_goes_through_a_store(monkeypatch):
    append = Chain.append
    callers = set()

    def traced(self, *args, **kwargs):
        callers.add(sys._getframe(1).f_code.co_qualname)
        return append(self, *args, **kwargs)

    monkeypatch.setattr(Chain, "append", traced)
    worlds = {name: scenario_path(name) for name in REFERENCE_SCENARIOS}
    worlds.update(synthetic=synthetic_scenario(), weighted=weighted_scenario())
    for name, world in worlds.items():
        callers.clear()
        run_scenario(world)
        assert "Store._record" in callers and callers <= APPEND_CALLERS, name
