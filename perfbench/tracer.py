"""Outside-in tracing of govsim: spans and counts recorded around the public
entry points of each ``src/govsim`` module, patched in from the benchmark.

A ``Tracer`` is used as a context manager. On entry it replaces each target
in ``TARGETS`` with a wrapper; on exit it restores the originals. A module
function is replaced under every name that any govsim module binds it to
(``simctl`` imports ``build_report`` and ``verify_chain`` by name, so the
in-run fold and ``verify_run`` only show up when those aliases are patched
too). Class methods are patched on the class, so every instance sees them.

Every tracer keeps an epoch clock: the simulator calls
``GovernanceState.apply_staged_weights`` once at the start of each epoch and
``Chain.seal_all`` once at its end, which gives the end of set-up and the
per-epoch times without touching the package. With ``spans=False`` only
those two hooks are installed, which is how the untraced end-to-end run is
measured.

Every time stamp is ``probe.clock()``, the CPU time of the benchmark's one
thread less any host-speed probes (none fire in a traced run). The
benchmark is CPU-bound work on files in the page cache, so this is its wall
time minus the time the host ran something else on its CPU.

A span is ``(name, start, end, parent, epoch)``; ``parent`` is the index of
the enclosing span and ``epoch`` is the shared id of every span recorded in
one epoch (0 is set-up; spans outside ``Simulator.run`` have no epoch).
Spans stay in memory until ``write_jsonl``. A span's self time is its
duration minus that of its direct children, which are strictly nested
because the simulator is single-threaded.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from collections import defaultdict
from contextlib import contextmanager
from itertools import combinations
from typing import Callable, Optional

from probe import clock


# --- count hooks: (tracer, args, kwargs, result) -> None ---

def _count_blocks(tracer, args, kwargs, result):
    tracer.counts["ledger.blocks"] += len(result)


def _count_collusion(tracer, args, kwargs, result):
    # Shared-history sizes cost as much to count as the scan itself, so the
    # counting gets its own span and stays out of its caller's self time.
    with tracer.span("bench.count"):
        histories = args[0]
        pairs = shared = 0
        for a, b in combinations(sorted(histories), 2):
            pairs += 1
            shared += len(histories[a].keys() & histories[b].keys())
    tracer.counts["governance.collusion_pairs"] += pairs
    tracer.counts["governance.collusion_shared_votes"] += shared
    tracer.counts["governance.flagged_pairs"] += len(result)


def _count_assignments(tracer, args, kwargs, result):
    tracer.counts["audit.assignments"] += len(result)


def _count_forecast_points(tracer, args, kwargs, result):
    tracer.counts["risk.forecast_points"] += len(args[0])


def _count_audit_scan(tracer, args, kwargs, result):
    tracer.counts["report.audit_scan_rows"] += len(args[0].audits)


def _count_incident_scan(tracer, args, kwargs, result):
    tracer.counts["report.incident_scan_rows"] += len(args[0].incidents)


def _count_interop_row(tracer, args, kwargs, result):
    tracer.counts["interop.rows"] += 1


# (module, attribute path, span name or None for count-only, count hook).
# Several targets may share a span name; their spans aggregate together.
TARGETS: list[tuple[str, str, Optional[str], Optional[Callable]]] = [
    ("govsim.ledger", "Chain.append", "ledger.append", None),
    ("govsim.ledger", "Chain.seal_all", "ledger.seal", _count_blocks),
    ("govsim.keys", "SeededScheme.sign", "ledger.sign", None),
    ("govsim.keys", "Ed25519Scheme.sign", "ledger.sign", None),
    ("govsim.keys", "SeededScheme.verify", "ledger.sigverify", None),
    ("govsim.keys", "Ed25519Scheme.verify", "ledger.sigverify", None),
    ("govsim.ledger", "save_chain", "ledger.save", None),
    ("govsim.ledger", "load_chain", "ledger.load", None),
    ("govsim.ledger", "verify_chain", "ledger.verify_chain", None),
    ("govsim.governance", "detect_collusion", "governance.collusion", _count_collusion),
    ("govsim.governance", "GovernanceState.vote_histories", "governance.history_copy", None),
    ("govsim.governance", "GovernanceState.cast_vote", "governance.vote", None),
    ("govsim.governance", "GovernanceState.tally", "governance.tally", None),
    ("govsim.governance", "GovernanceState.run_election", "governance.election", None),
    ("govsim.compliance", "evaluate", "compliance.evaluate", None),
    ("govsim.compliance", "OracleBook.values_for", "compliance.oracle_values", None),
    ("govsim.compliance", "OracleBook.ingest", "compliance.ingest", None),
    ("govsim.audit", "AuditRegistry.schedule_audits", "audit.schedule", _count_assignments),
    ("govsim.audit", "AuditRegistry.eligible_auditors", "audit.eligible", None),
    ("govsim.audit", "AuditRegistry.perform_audit", "audit.perform", None),
    ("govsim.risk", "RiskEngine.update", "risk.update", None),
    ("govsim.risk", "forecast_compliance", "risk.forecast", _count_forecast_points),
    ("govsim.risk", "IncidentLog.open_count", "risk.open_count", None),
    ("govsim.risk", "IncidentLog.advance_incident", "risk.advance", None),
    ("govsim.tokens", "TokenLedger.distribute_rewards", "tokens.rewards", None),
    ("govsim.tokens", "TokenLedger.charge_to_pool", "tokens.charge", None),
    ("govsim.tokens", "TokenLedger.slash", "tokens.slash", None),
    ("govsim.identity", "DidRegistry.system_set_status", "identity.status_write", None),
    ("govsim.identity", "DidRegistry.system_reclassify", "identity.status_write", None),
    ("govsim.identity", "DidRegistry.register_did", "identity.register", None),
    ("govsim.report", "build_report", "report.build", None),
    ("govsim.report", "ChainFold.__init__", "report.replay", None),
    ("govsim.report", "ChainFold.score_series", "report.score_series", None),
    # Called once per (system, epoch) inside score_series: counted, not
    # spanned, so that score_series keeps their time as its own.
    ("govsim.report", "ChainFold.audit_failed_at", None, _count_audit_scan),
    ("govsim.report", "ChainFold.incident_open_at", None, _count_incident_scan),
    ("govsim.interop", "convert_legacy", "interop.convert", _count_interop_row),
    ("govsim.interop", "validate_message", "interop.validate", None),
    ("govsim.interop", "reverse_legacy", "interop.reverse", None),
    ("govsim.simctl", "Simulator.run", "simctl.run", None),
    ("govsim.simctl", "verify_run", "simctl.verify_run", None),
]

_EPOCH_START = ("govsim.governance", "GovernanceState.apply_staged_weights")
_EPOCH_END = ("govsim.ledger", "Chain.seal_all")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _aliases(function) -> list[tuple[object, str]]:
    """Every (govsim module, name) that binds this module-level function."""
    import govsim

    found = []
    for info in pkgutil.iter_modules(govsim.__path__, "govsim."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if value is function:
                found.append((module, name))
    return found


class Tracer:
    def __init__(self, *, spans: bool = True):
        self.spans_on = spans
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.epoch: Optional[int] = None
        self.epoch_starts: list[float] = []
        self.seal_returns: list[float] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- span bookkeeping ---

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append((clock(), self.epoch))
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str) -> None:
        end = clock()
        self._stack.pop()
        start, epoch = self.spans[index]
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, start, end, parent, epoch)

    @contextmanager
    def span(self, name: str):
        index = self._open()
        try:
            yield
        finally:
            self._close(index, name)

    # --- patching ---

    def _wrap(self, original, name: Optional[str], hook: Optional[Callable]):
        tracer = self

        if name is None:
            def counted(*args, **kwargs):
                hook(tracer, args, kwargs, None)
                return original(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            index = tracer._open()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index, name)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return spanned

    def _epoch_start_hook(self, original):
        tracer = self

        def apply_staged_weights(*args, **kwargs):
            tracer.epoch_starts.append(clock())
            tracer.epoch = len(tracer.epoch_starts)
            return original(*args, **kwargs)
        return apply_staged_weights

    def _epoch_end_hook(self, original):
        tracer = self

        def seal_all(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.seal_returns.append(clock())
            return result
        return seal_all

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _install(self, module_name: str, path: str, replacement_for) -> None:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        replacement = replacement_for(original)
        if isinstance(owner, type):
            self._patch(owner, attr, replacement)
        else:
            for module, name in _aliases(original):
                self._patch(module, name, replacement)

    def __enter__(self) -> "Tracer":
        if self.spans_on:
            for module_name, path, name, hook in TARGETS:
                self._install(module_name, path,
                              lambda original, n=name, h=hook: self._wrap(original, n, h))
        # The clock hooks wrap outermost, so the seal span closes before the
        # seal return is stamped.
        self._install(*_EPOCH_START, self._epoch_start_hook)
        self._install(*_EPOCH_END, self._epoch_end_hook)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def run_started(self) -> None:
        """Mark the start of set-up; spans from here on carry an epoch id."""
        self.epoch = 0

    def run_finished(self) -> None:
        self.epoch = None

    # --- derived figures ---

    def setup_end(self) -> float:
        return self.epoch_starts[0]

    def epochs(self) -> list[tuple[float, float]]:
        """(start, end) of each epoch: epoch 1 from its start, later ones
        between seal returns."""
        marks = [self.epoch_starts[0], *self.seal_returns]
        return list(zip(marks, marks[1:]))

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time in seconds, and the number of spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
            calls[name] += 1
        return dict(totals), dict(calls)

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per span (times in seconds from ``origin``), then the counts."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, epoch) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "epoch": epoch,
                    "start": round(start - origin, 7), "end": round(end - origin, 7),
                }) + "\n")
            out.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")
