"""Cross-cutting invariants scanned over the sealed reference traces."""

from collections import Counter

from govsim.ledger import EventKind
from govsim.report import ChainFold

INCIDENT_ORDER = ["RAISED", "CONTAINED", "RESOLVED", "POSTMORTEM_FILED"]


def all_events(result):
    return [e for b in result.chain.blocks for e in b.events]


def test_no_duplicate_votes_anywhere(reference_results):
    for name, result in reference_results.items():
        seen = Counter(
            (e.body()["voter"], e.body()["proposal_id"])
            for e in all_events(result) if e.kind == EventKind.VOTE_CAST
        )
        assert all(count == 1 for count in seen.values()), name


def test_every_failed_assessment_is_audited_same_epoch(reference_results):
    for name, result in reference_results.items():
        events = all_events(result)
        audited = {(e.epoch, e.body()["did"])
                   for e in events if e.kind == EventKind.AUDIT_RECORDED}
        failures = [(e.epoch, e.body()["did"]) for e in events
                    if e.kind == EventKind.ASSESSMENT_RECORDED
                    and not e.body()["compliant"]]
        for key in failures:
            assert key in audited, (name, key)


def test_every_fail_audit_is_penalized_same_epoch(reference_results):
    for name, result in reference_results.items():
        events = all_events(result)
        slashes = {(e.epoch, e.body()["holder"])
                   for e in events if e.kind == EventKind.SLASH_APPLIED}
        fold_owner = {did: record.owner
                      for did, record in ChainFold(result.chain.blocks).registry.records.items()}
        for e in events:
            if e.kind == EventKind.AUDIT_RECORDED and e.body()["outcome"] == "FAIL":
                owner = fold_owner[e.body()["did"]]
                assert (e.epoch, owner) in slashes, (name, e.epoch, owner)


def test_tier_changes_pair_reclass_with_did_update(reference_results):
    for name, result in reference_results.items():
        events = all_events(result)
        reclasses = [(e.epoch, e.body()["did"], e.body()["new_tier"])
                     for e in events if e.kind == EventKind.RISK_RECLASSIFIED]
        tier_updates = [(e.epoch, e.body()["did"], e.body()["change"]["risk_tier"])
                        for e in events if e.kind == EventKind.DID_UPDATED
                        and "risk_tier" in e.body().get("change", {})]
        assert reclasses == tier_updates, name


def test_incident_sequences_are_prefixes_of_canonical_order(reference_results):
    for name, result in reference_results.items():
        states: dict[str, list[str]] = {}
        for e in all_events(result):
            if e.kind in (EventKind.INCIDENT_RAISED, EventKind.INCIDENT_ADVANCED):
                states.setdefault(e.body()["incident_id"], []).append(e.body()["state"])
        for incident_id, sequence in states.items():
            assert sequence == INCIDENT_ORDER[:len(sequence)], (name, incident_id)


def test_event_ids_are_gapless_and_monotone(reference_results):
    for name, result in reference_results.items():
        ids = [e.event_id for e in all_events(result)]
        assert ids == list(range(1, len(ids) + 1)), name


def test_epochs_never_decrease_along_the_chain(reference_results):
    for name, result in reference_results.items():
        epochs = [e.epoch for e in all_events(result)]
        assert epochs == sorted(epochs), name


def test_did_payloads_are_reference_sized(reference_results, reference_scenarios):
    # Metadata minimization: DID_* payloads carry 64-hex content addresses,
    # never blob bodies.
    from govsim.encoding import canonical_json_bytes

    for name, result in reference_results.items():
        blobs = [canonical_json_bytes(spec.metadata)
                 for spec in reference_scenarios[name].ai_systems
                 if spec.metadata is not None]
        for e in all_events(result):
            if e.kind in (EventKind.DID_REGISTERED, EventKind.DID_UPDATED):
                for blob in blobs:
                    assert blob not in e.payload, name
