"""govsim benchmark: one workload through the same pipeline as the CLI.

    python3 perfbench/run.py --workload vote-storm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # each workload in its own process

The scenario dict is built once from ``--seed``. It then runs back to back
(one process, one thread, closed loop) through ``load_scenario`` ->
``Simulator.run`` -> ``save_chain`` -> ``verify_run`` -> a legacy round trip
of every sealed assessment, until ``--seconds`` have passed, and every
iteration's outputs are checked. With ``--trace 0`` the end-to-end metrics
are printed: every time is CPU time rescaled to a reference host speed by
the probes of ``probe.py``, and each figure is the median over the
iterations after the first. With ``--trace 1`` two untraced iterations are
followed by traced ones and the per-layer metrics are printed, in plain
CPU time. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import probe
from probe import clock
from tracer import Tracer
from workloads import SHAPES, synthetic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MAPPING_PATH = ROOT / "scenarios" / "legacy_mapping.json"
OUT = BENCH_DIR / "out"

MIN_ITERATIONS = 2
# An untraced iteration repeats the save (to the same file) and the
# verification, the shortest stages, and each repeat is one sample of its
# metric. A traced iteration does each once, as a user's run does.
SAVE_REPEATS = 8
VERIFY_REPEATS = 2
# The legacy round trip repeats its rows until at least this many have been
# converted, so that a short stage is not timed on a few milliseconds.
ROUND_TRIP_ROWS = 10_000

END_TO_END = {
    "setup_s": "s",
    "run_events_per_s": "1/s",
    "epoch_ms_p50": "ms",
    "epoch_ms_p95": "ms",
    "save_s": "s",
    "verify_s": "s",
    "convert_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span self times (``_s``) and span counts (``_n``) come from the tracer under
# the same span name; the rest are counts or figures derived below.
PER_LAYER = {
    "ledger.append_s": "s", "ledger.append_n": "count",
    "ledger.seal_s": "s", "ledger.blocks": "count",
    "ledger.sign_s": "s", "ledger.sign_n": "count",
    "ledger.sigverify_s": "s", "ledger.sigverify_n": "count",
    "ledger.save_s": "s", "ledger.load_s": "s", "ledger.verify_chain_s": "s",
    "ledger.chain_bytes": "bytes",
    "governance.collusion_s": "s", "governance.collusion_pairs": "count",
    "governance.collusion_shared_votes": "count", "governance.flag_yield": "ratio",
    "governance.history_copy_s": "s",
    "governance.vote_s": "s", "governance.vote_n": "count",
    "governance.tally_s": "s", "governance.election_s": "s",
    "compliance.evaluate_s": "s", "compliance.evaluate_n": "count",
    "compliance.oracle_values_s": "s", "compliance.ingest_s": "s",
    "audit.schedule_s": "s", "audit.eligible_s": "s", "audit.assignments": "count",
    "audit.perform_s": "s", "audit.perform_n": "count",
    "risk.update_s": "s", "risk.update_n": "count",
    "risk.forecast_s": "s", "risk.forecast_points": "count",
    "risk.open_count_s": "s", "risk.advance_s": "s",
    "tokens.rewards_s": "s", "tokens.charge_n": "count",
    "tokens.slash_s": "s", "tokens.slash_n": "count",
    "identity.status_write_s": "s", "identity.status_write_n": "count",
    "identity.register_s": "s",
    "report.build_s": "s", "report.replay_s": "s", "report.score_series_s": "s",
    "report.audit_scan_rows": "count", "report.incident_scan_rows": "count",
    "interop.convert_s": "s", "interop.validate_s": "s", "interop.reverse_s": "s",
    "interop.rows": "count",
    "simctl.self_s": "s", "simctl.epoch_growth": "ratio",
    "bench.trace_overhead": "ratio",
}


class Checks:
    """Correctness checks: each check, and each legacy row, is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.add(what, 1, 0 if ok else 1)

    def add(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{what} ({failed} of {attempted})")


def legacy_rows(blocks) -> list[str]:
    """Every sealed assessment as a COMPLIANCE_REPORT legacy row."""
    from govsim.ledger import EventKind

    rows = []
    for block in blocks:
        for event in block.events:
            if event.kind is EventKind.ASSESSMENT_RECORDED:
                body = event.body()
                compliant = "true" if body["compliant"] else "false"
                score = float(Fraction(body["score"]))
                rows.append(f"rpt-{event.event_id},{body['did']},{body['epoch']},"
                            f"{score!r},{compliant}")
    return rows


def run_once(govsim, raw: dict, mapping, tracer, checks: Checks, tmp: Path,
             repeat: bool) -> dict:
    """One pass of the pipeline, with the save and the verification repeated
    if ``repeat``; returns its timings and outputs."""
    simctl, ledger, report, interop = (
        govsim.simctl, govsim.ledger, govsim.report, govsim.interop)
    chain_path, report_path = tmp / "chain.db", tmp / "report.json"
    with tracer:
        tracer.run_started()
        start = clock()
        result = simctl.Simulator(simctl.load_scenario(raw)).run()
        run_end = clock()
        tracer.run_finished()

        saves = []
        for _ in range(SAVE_REPEATS if repeat else 1):
            save_start = clock()
            ledger.save_chain(result.chain, chain_path)
            saves.append((save_start, clock()))
        report.export_report(result.report, report_path)

        verifies = []
        for _ in range(VERIFY_REPEATS if repeat else 1):
            verify_start = clock()
            verification, report_matches = simctl.verify_run(chain_path, report_path)
            verifies.append((verify_start, clock()))
            checks.check(verification.ok, f"verify_chain failed: {verification.reason}")
            checks.check(report_matches is True,
                         "stored report differs from the fold of the saved chain")

        rows = legacy_rows(result.chain.blocks)
        rows *= math.ceil(ROUND_TRIP_ROWS / max(1, len(rows)))
        convert_start = clock()
        bad_rows = 0
        for row in rows:
            message = interop.convert_legacy(row, mapping)
            if (interop.validate_message(message)
                    or interop.reverse_legacy(message, mapping) != row):
                bad_rows += 1
        convert_end = clock()

    # verify_run compared the stored report with a fold of the loaded chain;
    # the stored report reading back as the run's own report closes the loop
    # to build_report(loaded.blocks) == result.report.
    checks.check(report.load_report(report_path) == result.report,
                 "stored report differs from the run's report")
    checks.check(result.report["tokens"]["conserved"], "tokens not conserved")
    checks.add("legacy rows failed their round trip", len(rows), bad_rows)

    # Every interval is rescaled by the host speed measured while it ran
    # (probe.speed); without probes the speed is 1.
    def scaled(start: float, end: float) -> float:
        return (end - start) / (probe.speed(start, end) or 1.0)

    setup_end = tracer.setup_end()
    return {
        "root": result.root_hash,
        "events": result.report["events_total"],
        "blocks": result.report["blocks"],
        "chain_bytes": chain_path.stat().st_size,
        "speed": probe.speed(start, run_end) or 1.0,
        "setup_s": scaled(start, setup_end),
        "run_s": scaled(setup_end, run_end),
        "epoch_s": [scaled(*epoch) for epoch in tracer.epochs()],
        "save_s": [scaled(*save) for save in saves],
        "verify_s": [scaled(*verify) for verify in verifies],
        "rows": len(rows),
        "convert_s": scaled(convert_start, convert_end),
        "total_s": convert_end - start,
    }


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def epoch_growth(epoch_s: list[float]) -> float:
    tenth = max(1, len(epoch_s) // 10)
    return statistics.fmean(epoch_s[-tenth:]) / statistics.fmean(epoch_s[:tenth])


def end_to_end(samples: list[dict]) -> dict:
    """The end-to-end metrics of one run: medians over its iterations."""
    median = statistics.median
    # Epoch percentiles are taken over the epochs of every iteration (200
    # per iteration, so well over ten samples lie beyond p95).
    epochs = [seconds for s in samples for seconds in s["epoch_s"]]
    return {
        "setup_s": median(s["setup_s"] for s in samples),
        "run_events_per_s": median(s["events"] / s["run_s"] for s in samples),
        "epoch_ms_p50": 1000 * nearest_rank(epochs, 0.50),
        "epoch_ms_p95": 1000 * nearest_rank(epochs, 0.95),
        "save_s": median(seconds for s in samples for seconds in s["save_s"]),
        "verify_s": median(seconds for s in samples for seconds in s["verify_s"]),
        "convert_rows_per_s": median(s["rows"] / s["convert_s"] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_figures(tracer, sample: dict, untraced_total: float) -> dict:
    self_s, calls = tracer.self_times()
    figures = {f"{name}_s": value for name, value in self_s.items()}
    figures.update({f"{name}_n": value for name, value in calls.items()})
    figures.update(tracer.counts)
    pairs = tracer.counts["governance.collusion_pairs"]
    figures.update({
        "ledger.chain_bytes": sample["chain_bytes"],
        "governance.flag_yield":
            tracer.counts["governance.flagged_pairs"] / pairs if pairs else 0.0,
        "simctl.self_s": self_s["simctl.run"],
        "simctl.epoch_growth": epoch_growth(sample["epoch_s"]),
        "bench.trace_overhead": sample["total_s"] / untraced_total - 1,
    })
    return {name: figures.get(name, 0) for name in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Checks, dict, dict]:
    import govsim

    raw = synthetic(workload, seed)
    mapping = govsim.interop.LegacyMapping.from_json(
        json.loads(MAPPING_PATH.read_text("utf-8")))
    checks = Checks()
    OUT.mkdir(exist_ok=True)
    # Freeing one 30 MB buffer raises glibc malloc's mmap threshold to 30 MB,
    # so every later buffer below that comes from its heap, not fresh pages.
    # Otherwise whether save_chain's growing buffers page-faulted depended on
    # each process's allocation history, and save_s fell on one of two
    # values 20% apart from run to run. Elsewhere this is a no-op.
    settle = bytes(30 << 20)
    del settle

    def once(tracer, repeat: bool = False) -> dict:
        gc.collect()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            sample = run_once(govsim, raw, mapping, tracer, checks, Path(tmp), repeat)
        if samples:
            checks.check(sample["root"] == samples[0]["root"],
                         "root hash differs between repeats of one seed")
        return sample

    samples: list[dict] = []
    deadline = perf_counter() + seconds
    if not trace:
        # The first iteration warms up lazy imports, allocator pools and the
        # page cache; it is checked but not timed.
        with probe.running():
            while perf_counter() < deadline or len(samples) < MIN_ITERATIONS:
                samples.append(once(Tracer(spans=False), repeat=True))
        metrics = end_to_end(samples[1:])
        units = END_TO_END
    else:
        # The first iteration warms up lazy imports and allocator pools; the
        # overhead is taken against the second.
        for _ in range(MIN_ITERATIONS):
            samples.append(once(Tracer(spans=False)))
        untraced_total = samples[-1]["total_s"]
        deadline = perf_counter() + seconds
        per_iteration = []
        while perf_counter() < deadline or not per_iteration:
            tracer = Tracer()
            sample = once(tracer)
            samples.append(sample)
            per_iteration.append(layer_figures(tracer, sample, untraced_total))
        tracer.write_jsonl(OUT / f"trace-{workload}.jsonl", origin=tracer.spans[0][1])
        metrics = {name: statistics.median(fig[name] for fig in per_iteration)
                   for name in PER_LAYER}
        units = PER_LAYER

    first, timed = samples[0], samples[1:]
    print(f"{workload}: seed {seed}, root_hash {first['root']}, {first['events']} events, "
          f"{first['blocks']} blocks, {len(timed)} timed iterations, "
          f"{sum(len(s['epoch_s']) for s in timed)} epoch samples, trace {int(trace)}, "
          f"host speed {statistics.median(s['speed'] for s in timed):.3f}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    for message in checks.messages:
        print(f"  FAILED: {message}")
    return checks, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*SHAPES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "govsim" / "__init__.py").is_file() or not MAPPING_PATH.is_file():
        print(f"error: run from a govsim checkout; {SRC / 'govsim'} or "
              f"{MAPPING_PATH} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    checks, values, units = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own, so that each peak RSS is its own."""
    attempted, failed, metrics = 0, 0, {}
    for workload in SHAPES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = child.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{name}": value
                        for name, value in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
