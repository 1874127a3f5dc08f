"""``verify`` vouches for what sealed events say, not only for their hashes.

``report.EVENT_SPECS`` declares each event kind once, and the one fold pass
checks every body and phase stamp against it. A chain sealed by anyone who
holds the keys (under the ``seeded`` scheme, anyone: the keys derive from
the public authority ids) either verifies or fails naming the height, the
event, its kind and the field; ``inspect`` then refuses it the same way and
never shows a traceback.
"""

import json
from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from govsim.cli import main as cli_main
from govsim.encoding import ZERO_DIGEST, canonical_json_bytes, sha256
from govsim.keys import get_scheme
from govsim.ledger import (
    Block, Chain, EventKind, GovernanceEvent, Phase, _new_event, compute_block_hash, load_chain,
    save_chain)
from govsim.report import _MISSING, EVENT_SPECS, build_report, export_report, verified_fold
from govsim.simctl import Simulator, load_scenario, verify_run
from tests.conftest import scenario_path

SCHEME = get_scheme("seeded")
AUTHORITY = SCHEME.generate(sha256(b"authority" + b"a1"))
INSPECT_FLAGS = ([], ["--audits"], ["--balances"], ["--proposals"], ["--did", "did:x"],
                 ["--audits", "--did", "did:x"])


def _walk(fields):
    """Every name and allowed string that ``fields`` declares, at any depth."""
    for name, _, extra in fields:
        yield name
        if isinstance(extra, tuple):
            yield from _walk(extra)
        elif extra is not None:
            yield from (value for value in extra if value is not _MISSING)
            if isinstance(extra, dict):
                for variant in extra.values():
                    yield from _walk(variant)


DECLARED = sorted({word for spec in EVENT_SPECS.values() for word in _walk(spec.fields)})
SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
           | st.sampled_from(DECLARED) | st.sampled_from(["1/2", "2", "zz", "00ff"]))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.sampled_from(DECLARED) | st.text(max_size=2),
                                      inner, max_size=5), max_leaves=12)
STRINGS = st.sampled_from(["a", "b", "1/2", "0", "00ff", "zz"])
BY_TYPE = {str: STRINGS, int: st.integers(-1, 3), bool: st.booleans(),
           list: st.lists(STRINGS, max_size=2), dict: st.dictionaries(STRINGS, JSON, max_size=2)}


def _mostly(shaped, odd):
    return st.integers(0, 9).flatmap(lambda n: odd if n == 0 else shaped)


def _declared_value(types, extra):
    """A value of the declared shape (the fields of a nested object, one of
    the strings allowed), or now and then any JSON value."""
    if isinstance(extra, tuple):
        shaped = _declared_object(extra)
    elif extra is not None:
        shaped = st.sampled_from(sorted(value for value in extra if value is not _MISSING))
    else:
        shaped = st.one_of([BY_TYPE.get(t, JSON) for t in
                            (types - {object} if isinstance(types, frozenset) else [types])])
    return _mostly(shaped, JSON)


@st.composite
def _declared_object(draw, fields):
    """A body close to what ``fields`` declares: a field may be left out,
    any value may be off, and a variant's own fields follow its value."""
    body = {}
    for name, types, extra in fields:
        if draw(st.integers(0, 9)) == 0:
            continue
        value = body[name] = draw(_declared_value(types, extra))
        if isinstance(extra, dict) and isinstance(value, str) and value in extra:
            body.update(draw(_declared_object(extra[value])))
    return body


def _event(kind):
    phases = sorted(map(int, EVENT_SPECS[kind].phases))
    body = _declared_object(EVENT_SPECS[kind].fields).flatmap(
        lambda body: st.fixed_dictionaries({}, optional={"phase": st.sampled_from(phases)})
        .map(lambda stamp: {**body, **stamp}))
    # Mostly small epochs, so that events share them; a sealed epoch may be any u64.
    epoch = _mostly(st.integers(0, 4), st.integers(0, 2**64 - 1))
    return st.tuples(st.just(kind), epoch, _mostly(body, JSON))


# In epoch order, as every run writes them: the fold refuses an epoch before
# the last one, which would stop half of the unsorted draws at that check.
EVENTS = st.lists(st.sampled_from(list(EventKind)).flatmap(_event), min_size=1,
                  max_size=8).map(lambda events: sorted(events, key=lambda event: event[1]))


def _seal(events, path) -> None:
    chain = Chain({"a1": AUTHORITY.public}, quorum=1)
    for kind, epoch, body in events:
        chain.append(kind, body, actor="anyone", epoch=epoch)
    chain.seal_all({"a1": AUTHORITY.private})
    save_chain(chain, path)


def _refused(verification) -> bool:
    """A failed verification that names a height, an event and its kind."""
    return (not verification.ok and verification.failed_height >= 1
            and verification.reason.startswith("event ") and " (" in verification.reason)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(events=EVENTS)
@example(events=[(EventKind.AUDIT_RECORDED, 1, {"x": 1})])
@example(events=[(EventKind.HEARTBEAT, 2**63, {"epoch": 2**63, "phase": 1})])
@example(events=[(EventKind.VOTE_CAST, 1, {"x": 1})])
@example(events=[(EventKind.TOKENS_TRANSFERRED, 1, {"op": "grant"})])
@example(events=[(EventKind.INCIDENT_ADVANCED, 1, {"incident_id": "nope"})])
@example(events=[(EventKind.INCIDENT_ADVANCED, 1,
                  {"incident_id": "nope", "state": "CONTAINED"})])
@example(events=[(EventKind.STAKE_CHANGED, 1,
                  {"holder": "h", "op": "unstake", "amount": 5,
                   "lock_start_epoch": 0, "lock_epochs": 1})])
@example(events=[(EventKind.TOKENS_TRANSFERRED, 1,
                  {"op": "transfer", "from": "h", "to": "g", "amount": 5})])
@example(events=[(EventKind.ASSESSMENT_RECORDED, 1,
                  {"did": "d", "score": "zz", "tier": "HIGH", "compliant": True})])
@example(events=[(EventKind.TOKENS_TRANSFERRED, 0,
                  {"op": "mint_genesis", "total_supply": 1, "emission": 0,
                   "pools": {"REWARDS": 1, "GOVERNANCE": 0, "DEVELOPMENT": 0},
                   "config": {"risk_weights": {"noncompliance": "x"}}})])
@example(events=[(EventKind.AUDIT_RECORDED, 1,
                  {"did": "d", "outcome": "MAYBE", "trigger": "cadence"})])
@example(events=[(EventKind.HEARTBEAT, 3, {"epoch": 3, "phase": 1}),
                 (EventKind.HEARTBEAT, 1, {"epoch": 1, "phase": 1})])
def test_any_sealed_chain_verifies_or_names_its_fault(tmp_path_factory, events):
    tmp = tmp_path_factory.mktemp("chain")
    _seal(events, tmp / "chain.db")
    verification, report_matches = verify_run(tmp / "chain.db")
    assert verification.ok or _refused(verification), verification
    assert report_matches is None
    for flags in INSPECT_FLAGS:
        # A traceback would escape cli_main as an exception and fail here.
        assert cli_main(["inspect", str(tmp / "chain.db"), *flags]) in (0, 1)
    assert cli_main(["verify", str(tmp / "chain.db")]) == (0 if verification.ok else 1)
    if verification.ok:
        # The report has a row per epoch with events, whatever the epochs.
        export_report(build_report(load_chain(tmp / "chain.db").blocks), tmp / "report.json")
        assert verify_run(tmp / "chain.db") == (verification, True)


def _genesis(total_supply=100, **pools):
    """A phase-stamped mint_genesis body: 100 in REWARDS unless ``pools`` says otherwise."""
    return (EventKind.TOKENS_TRANSFERRED, 0, {
        "op": "mint_genesis", "total_supply": total_supply, "emission": 0, "phase": 0,
        "pools": {"REWARDS": 100, "GOVERNANCE": 0, "DEVELOPMENT": 0, **pools}})


# A holder granted 40 from the genesis, all of it staked.
_STAKED = [_genesis(), (EventKind.TOKENS_TRANSFERRED, 0, {
    "op": "grant", "pool": "REWARDS", "to": "h", "amount": 40, "phase": 0}),
    (EventKind.STAKE_CHANGED, 0, {"holder": "h", "op": "stake", "amount": 40,
                                  "lock_start_epoch": 0, "lock_epochs": 4, "phase": 0})]


def test_the_reproductions_are_refused_naming_the_field(tmp_path, capsys):
    # Each chain is refused at its last event.
    cases = [
        ([(EventKind.AUDIT_RECORDED, 1, {"x": 1})], "field did: missing"),
        ([(EventKind.VOTE_CAST, 1, {"x": 1})], "field proposal_id: missing"),
        ([(EventKind.TOKENS_TRANSFERRED, 1, {"op": "grant"})], "field pool: missing"),
        ([(EventKind.INCIDENT_ADVANCED, 1, {"incident_id": "nope", "state": "RESOLVED"})],
         "field incident_id: 'nope' was never raised"),
        ([(EventKind.SLASH_APPLIED, 1, {"holder": "h", "burned": -1})],
         "burned amount must not be negative"),
        # Each below verified before the fold held epochs to the order every run
        # writes them in, and TokenLedger.apply held the supply equation.
        ([(EventKind.HEARTBEAT, 3, {"epoch": 3, "phase": 1}),
          (EventKind.HEARTBEAT, 1, {"epoch": 1, "phase": 1})],
         "epoch 1 is before epoch 3 of the event before it"),
        ([*_STAKED, (EventKind.SLASH_APPLIED, 1, {"holder": "h", "burned": 1000, "phase": 5})],
         "field burned: 1000 exceeds the 40 that 'h' has staked"),
        ([_genesis(REWARDS=1)], "field pools: they hold 1 of a total_supply of 100"),
        ([*_STAKED, _genesis()], "field op: mint_genesis, but the supply of 100 was minted already"),
        ([_genesis(total_supply=-5, REWARDS=-5)], "field total_supply: -5 is negative"),
        ([_genesis(REWARDS=101, DEVELOPMENT=-1)], "field pools.DEVELOPMENT: -1 is negative"),
    ]
    for events, fault in cases:
        _seal(events, tmp_path / "chain.db")
        kind = events[-1][0]
        expected = f"FAIL at height 1: event {len(events)} ({kind.value}): {fault}"
        capsys.readouterr()
        assert cli_main(["verify", str(tmp_path / "chain.db")]) == 1
        assert capsys.readouterr().out.strip() == expected
        assert cli_main(["inspect", str(tmp_path / "chain.db"), "--audits"]) == 1
        assert capsys.readouterr().err.strip() == expected


@pytest.mark.parametrize("payload, fault", [
    (b"[" * 1000 + b"]" * 1000, "maximum recursion depth exceeded"),
    (b'{"x":1' + b"0" * 5000 + b"}", "Exceeds the limit"),
    (b"\xff", "invalid start byte"),
], ids=["deep", "long-int", "not-utf8"])
def test_a_payload_json_cannot_read_is_refused_naming_the_event(tmp_path, payload, fault):
    # Chain.append only writes canonical JSON, so such a payload is sealed by hand.
    chain = Chain({"a1": AUTHORITY.public}, quorum=1)
    chain.pending.append(GovernanceEvent(1, EventKind.HEARTBEAT, 1, payload, "anyone"))
    chain.seal_all({"a1": AUTHORITY.private})
    save_chain(chain, tmp_path / "chain.db")
    verification, _ = verify_run(tmp_path / "chain.db")
    assert verification.reason.startswith("event 1 (HEARTBEAT): payload is not valid JSON: ")
    assert fault in verification.reason
    assert cli_main(["inspect", str(tmp_path / "chain.db")]) == 1
    # A stored report that JSON cannot read is an error too, not a traceback.
    _reseal("credit_scoring", tmp_path / "good.db")
    (tmp_path / "report.json").write_bytes(payload)
    assert cli_main(["verify", str(tmp_path / "good.db"),
                     "--report", str(tmp_path / "report.json")]) == 1


@pytest.mark.parametrize("constant", [b"NaN", b"Infinity", b"-Infinity"])
def test_a_payload_with_a_constant_json_lacks_is_refused(tmp_path, capsys, constant):
    # The decoder refuses what the encoder refuses: a free-form field (a
    # proposal's payload) used to carry NaN past the field checks, and the
    # chain verified. Chain.append cannot write it, so it is sealed by hand.
    body = {"proposal_id": "p", "kind": "ROUTINE", "mode": "LINEAR", "payload": {"x": 0},
            "phase": int(Phase.GOVERNANCE)}
    payload = canonical_json_bytes(body).replace(b'"x":0', b'"x":' + constant)
    event = _new_event(1, EventKind.PROPOSAL_SUBMITTED, 1, payload, "anyone")
    block_hash = compute_block_hash(1, ZERO_DIGEST, (event,))
    chain = Chain({"a1": AUTHORITY.public}, quorum=1)
    chain.blocks.append(Block(1, ZERO_DIGEST, (event,),
                              (("a1", SCHEME.sign(AUTHORITY.private, block_hash)),), block_hash))
    save_chain(chain, tmp_path / "chain.db")
    expected = ("FAIL at height 1: event 1 (PROPOSAL_SUBMITTED): payload is not valid JSON: "
                f"{constant.decode()} is not JSON")
    capsys.readouterr()
    assert cli_main(["verify", str(tmp_path / "chain.db")]) == 1
    assert capsys.readouterr().out.strip() == expected
    assert cli_main(["inspect", str(tmp_path / "chain.db"), "--proposals"]) == 1
    assert capsys.readouterr().err.strip() == expected


# --- real runs, resealed after one change ---

@cache
def _run(name: str):
    simulator = Simulator(load_scenario(scenario_path(name)))
    result = simulator.run()
    keys = {aid: pair.private for aid, pair in simulator._authority_keys.items()}
    events = [(event.kind, event.epoch, event.body(), event.actor, block.height)
              for block in result.chain.blocks for event in block.events]
    return result.chain, keys, events


def _reseal(name: str, path, bodies=None) -> None:
    """Seal the run's events again into the same blocks, each event whose
    index ``bodies`` holds given the body it maps that index to."""
    original, keys, events = _run(name)
    chain = Chain(original.authorities, quorum=original.quorum,
                  capacity=original.capacity, scheme=original.scheme_name)
    for i, (kind, epoch, old_body, actor, height) in enumerate(events):
        if height > len(chain.blocks) + 1:
            chain.seal_all(keys)
        chain.append(kind, (bodies or {}).get(i, old_body), actor=actor, epoch=epoch)
    chain.seal_all(keys)
    save_chain(chain, path)


def test_resealing_unchanged_reproduces_the_chain(tmp_path):
    _reseal("credit_scoring", tmp_path / "chain.db")
    assert load_chain(tmp_path / "chain.db").head_hash == _run("credit_scoring")[0].head_hash
    assert verify_run(tmp_path / "chain.db")[0].ok


def _mutations():
    """(event index, field, mutation) for every required declared field of
    every event of the credit_scoring run, and each way it can be broken."""
    out = []
    for index, (kind, _, body, *_) in enumerate(_run("credit_scoring")[2]):
        fields = EVENT_SPECS[kind].fields
        for name, types, extra in fields:
            out += _field_mutations(index, name, types, extra)
            if isinstance(extra, dict):  # the fields of this body's variant
                for sub in extra[body[name]]:
                    out += _field_mutations(index, *sub)
    return out


def _field_mutations(index, name, types, extra):
    if isinstance(types, frozenset) and object in types:
        return []  # may be left out
    kinds = ["drop"] + (["retype"] if isinstance(types, type) else [])
    if isinstance(extra, (frozenset, dict)):
        kinds.append("unknown")
    return [(index, name, kind) for kind in kinds]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutating_a_declared_field_of_a_real_run_fails_verify(tmp_path_factory, data):
    index, name, mutation = data.draw(st.sampled_from(_mutations()))
    kind, _, body, *_ = _run("credit_scoring")[2][index]
    body = json.loads(json.dumps(body))
    if mutation == "drop":
        del body[name]
    elif mutation == "retype":
        body[name] = "text" if type(body[name]) is not str else 12345
    else:
        body[name] = "NOT-A-VALUE"
    tmp = tmp_path_factory.mktemp("reseal")
    _reseal("credit_scoring", tmp / "chain.db", {index: body})
    verification, _ = verify_run(tmp / "chain.db")
    assert not verification.ok
    assert verification.reason.startswith(f"event {index + 1} ({kind.value}): field {name}: ")


def test_a_vote_stamped_outside_governance_fails_verify(tmp_path):
    _, _, events = _run("collusion_attack")
    index = next(i for i, event in enumerate(events) if event[0] is EventKind.VOTE_CAST)
    _reseal("collusion_attack", tmp_path / "chain.db", {index: {**events[index][2], "phase": 2}})
    verification, report_matches = verify_run(tmp_path / "chain.db")
    assert not verification.ok and report_matches is None
    assert verification.reason == f"event {index + 1} (VOTE_CAST): phase 2, allowed [6]"


def test_an_undeclared_audit_trigger_fails_verify(tmp_path, capsys):
    _, _, events = _run("credit_scoring")
    index = next(i for i, event in enumerate(events) if event[0] is EventKind.AUDIT_RECORDED)
    _reseal("credit_scoring", tmp_path / "chain.db",
            {index: {**events[index][2], "trigger": "BOGUS"}})
    capsys.readouterr()
    assert cli_main(["verify", str(tmp_path / "chain.db")]) == 1
    assert capsys.readouterr().out == (
        f"FAIL at height {events[index][4]}: event {index + 1} (AUDIT_RECORDED): "
        "field trigger: unknown value 'BOGUS'\n")


# Each store's apply holds its rules, so the fold refuses a body that breaks one.
_NO_DID = "did:govsim:" + "0" * 32
_FIRST_DID, _SECOND_DID = ("did:govsim:2ba77b70b001b4dd1b9d8dcee660d8b7",
                           "did:govsim:3871bc867dbd036277284f10c4b5f347")


@pytest.mark.parametrize("name, kind, match, change, fault", [
    ("credit_scoring", EventKind.TOKENS_TRANSFERRED, {"op": "grant"}, {"amount": 10**12},
     "DEVELOPMENT pool below 1000000000000"),
    ("credit_scoring", EventKind.STAKE_CHANGED, {"op": "stake"}, {"amount": 10**12},
     "regulator-eu balance below 1000000000000"),
    ("regulation_shift", EventKind.INCIDENT_ADVANCED, {}, {"state": "POSTMORTEM_FILED"},
     "field state: 'POSTMORTEM_FILED' does not follow RAISED: the next state is CONTAINED"),
    ("regulation_shift", EventKind.INCIDENT_ADVANCED, {}, {"state": "RAISED"},
     "field state: 'RAISED' does not follow RAISED: the next state is CONTAINED"),
    ("credit_scoring", EventKind.DID_UPDATED, {}, {"did": _NO_DID},
     f"field did: {_NO_DID!r} was never registered"),
    ("regulation_shift", EventKind.DID_REGISTERED, {"did": _SECOND_DID}, {"did": _FIRST_DID},
     f"did collision: {_FIRST_DID}"),
    # Each below used to verify: the writers refused a negative amount, apply did not.
    ("credit_scoring", EventKind.TOKENS_TRANSFERRED, {"op": "reward"}, {"amount": -10**12},
     "reward amount must be positive"),
    ("credit_scoring", EventKind.STAKE_CHANGED, {"op": "stake"}, {"amount": -5},
     "stake amount must be positive"),
    # Each below used to verify: stake() refused a lock it could not make, apply did not.
    ("credit_scoring", EventKind.STAKE_CHANGED, {"op": "stake"}, {"lock_epochs": 0},
     "field lock_epochs: lock must be at least one epoch"),
    ("credit_scoring", EventKind.STAKE_CHANGED, {"op": "stake"},
     {"lock_epochs": -3, "lock_start_epoch": -100},
     "field lock_epochs: lock must be at least one epoch"),
    ("credit_scoring", EventKind.STAKE_CHANGED, {"op": "stake"}, {"lock_start_epoch": -100},
     "field lock_start_epoch: must not be negative"),
    # Each below used to verify, and no writer writes it: the fold kept the
    # last of two proposals of one id, took any DID version, and counted an
    # assessment of a DID never registered.
    ("regulation_shift", EventKind.PROPOSAL_SUBMITTED,
     {"proposal_id": "boost-regulator-weight"}, {"proposal_id": "raise-capital-floor"},
     "field proposal_id: duplicate proposal id raise-capital-floor"),
    ("credit_scoring", EventKind.DID_REGISTERED, {}, {"version": 5},
     "field version: 5, but a registration is version 1"),
    ("credit_scoring", EventKind.DID_UPDATED, {}, {"version": 7},
     "field version: 7 does not follow version 1: the next version is 2"),
    ("credit_scoring", EventKind.ASSESSMENT_RECORDED, {}, {"did": _NO_DID},
     f"field did: {_NO_DID!r} was never registered"),
    # A rational or a content address that does not parse.
    ("credit_scoring", EventKind.ASSESSMENT_RECORDED, {}, {"score": "3/2"},
     "field score: '3/2' is not a rational in [0, 1]"),
    ("credit_scoring", EventKind.DID_REGISTERED, {}, {"exposure": "2"},
     "field exposure: '2' is not a rational in [0, 1]"),
    ("credit_scoring", EventKind.DID_REGISTERED, {}, {"metadata_refs": ["zz"]},
     "field metadata_refs: 'zz' is not hex"),
    # Each below used to verify, and no writer writes it: the fold ignored a
    # vote on, or a resolution of, a proposal never submitted or resolved already.
    ("regulation_shift", EventKind.VOTE_CAST, {}, {"proposal_id": "nope"},
     "field proposal_id: 'nope' was never submitted"),
    ("regulation_shift", EventKind.PROPOSAL_RESOLVED, {}, {"proposal_id": "nope"},
     "field proposal_id: 'nope' was never submitted"),
    ("regulation_shift", EventKind.VOTE_CAST, {"proposal_id": "boost-regulator-weight"},
     {"proposal_id": "raise-capital-floor"},
     "field proposal_id: 'raise-capital-floor' is PASSED already"),
    ("regulation_shift", EventKind.PROPOSAL_RESOLVED, {"proposal_id": "boost-regulator-weight"},
     {"proposal_id": "raise-capital-floor"},
     "field proposal_id: 'raise-capital-floor' is PASSED already"),
], ids=["pool-overdraft", "balance-overdraft", "incident-step-skipped",
        "incident-step-in-place", "update-of-no-did", "second-registration",
        "negative-reward", "negative-stake", "stake-locked-for-no-epoch",
        "stake-locked-for-negative-epochs", "stake-locked-before-genesis",
        "second-submission-of-an-id", "registration-at-version-5", "update-skipping-versions",
        "assessment-of-no-did", "score-above-one", "exposure-above-one", "metadata-ref-not-hex",
        "vote-on-no-proposal", "resolution-of-no-proposal", "vote-on-a-resolved-proposal",
        "second-resolution"])
def test_a_broken_store_rule_fails_verify(tmp_path, capsys, name, kind, match, change, fault):
    _, _, events = _run(name)
    index = next(i for i, event in enumerate(events)
                 if event[0] is kind and match.items() <= event[2].items())
    _reseal(name, tmp_path / "chain.db", {index: {**events[index][2], **change}})
    capsys.readouterr()
    assert cli_main(["verify", str(tmp_path / "chain.db")]) == 1
    assert capsys.readouterr().out == (
        f"FAIL at height {events[index][4]}: event {index + 1} ({kind.value}): {fault}\n")


def test_verify_names_the_first_fault_along_the_chain(tmp_path, capsys):
    # A bad phase stamp at event 2 and a bad body at event 18: the fold keeps
    # going past a phase fault, but verify names it, as it comes first.
    _, _, events = _run("credit_scoring")
    stamp = {1: {**events[1][2], "phase": 9}}
    body = {17: {**events[17][2], "version": "one"}}
    assert [events[i][0] for i in (1, 17)] == [EventKind.RULE_REGISTERED,
                                               EventKind.DID_REGISTERED]
    for faults, expected in [
            ({**stamp, **body}, "event 2 (RULE_REGISTERED): phase 9, allowed [0, 6]"),
            (stamp, "event 2 (RULE_REGISTERED): phase 9, allowed [0, 6]"),
            (body, "event 18 (DID_REGISTERED): field version: 'one' is not int")]:
        _reseal("credit_scoring", tmp_path / "chain.db", faults)
        capsys.readouterr()
        assert cli_main(["verify", str(tmp_path / "chain.db")]) == 1
        assert capsys.readouterr().out == f"FAIL at height 1: {expected}\n"


def test_the_fold_takes_each_epoch_from_the_event_frame(tmp_path, capsys):
    # A body key named epoch, which no writer emits, does not move the event,
    # in the fold or in the history that ``inspect --did`` prints.
    _, _, events = _run("collusion_attack")
    kinds = (EventKind.AUDIT_RECORDED, EventKind.RISK_RECLASSIFIED, EventKind.DID_UPDATED)
    picked = [next(i for i, event in enumerate(events) if event[0] is kind) for kind in kinds]
    _reseal("collusion_attack", tmp_path / "chain.db",
            {i: {**events[i][2], "epoch": 99} for i in picked})
    verification, fold = verified_fold(load_chain(tmp_path / "chain.db"))
    assert verification.ok
    audit = fold.audits[0]
    reclassification = fold.report()["risk_metrics"]["reclassifications"][0]
    update = events[picked[2]][2]
    capsys.readouterr()
    assert cli_main(["inspect", str(tmp_path / "chain.db"), "--did", update["did"]]) == 0
    did_update = next(e for e in json.loads(capsys.readouterr().out)["history"]
                      if e["version"] == update["version"])
    frames = [events[i][1] for i in picked]
    assert [audit["epoch"], reclassification["epoch"], did_update["epoch"]] == frames
    assert 99 not in frames
