"""Command-line interface.

    govsim run <scenario.json> [--seed N] --out <dir>
    govsim verify <chain.db> [--report report.json]
    govsim inspect <chain.db> [--proposals | --balances | --audits [--did X] | --did X]
    govsim convert --in legacy.csv --map mapping.json --out messages.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .encoding import _array, _object, read_bytes, read_json, write_bytes
from .errors import ConversionError, GovSimError, IoError, MalformedRecord
from .interop import LegacyMapping, convert_legacy
from .ledger import EventKind, load_chain, query_events, save_chain
from .report import export_report, first_difference, report_json_bytes, verified_fold
from .simctl import fold_run, run_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    raw = read_json(args.scenario, "scenario")
    if args.rules:
        pack = _array(read_json(args.rules, "rule pack"), "rule pack")
        rules = _array(_object(raw, "scenario").get("rules", []), "rules")
        raw = {**raw, "rules": [*rules, *pack]}
    result = run_scenario(raw, seed=args.seed)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory: {exc}") from exc
    save_chain(result.chain, out_dir / "chain.db")
    export_report(result.report, out_dir / "report.json", "json")
    if args.csv:
        export_report(result.report, out_dir / "report.csv", "csv")
    print(f"sealed {len(result.chain.blocks)} blocks, root {result.root_hash}")
    print(f"wrote {out_dir / 'chain.db'} and {out_dir / 'report.json'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    verification, built, stored = fold_run(args.chain, args.report)
    if not verification.ok:
        print(f"FAIL at height {verification.failed_height}: {verification.reason}")
        return 1
    if stored is not None and (at := first_difference(stored, built)):
        print(f"FAIL: report does not match the chain fold at {at}")
        return 1
    extra = "" if stored is None else " (report consistent)"
    print(f"OK{extra}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    # --did filters --audits; with --proposals or --balances it would be ignored.
    if args.did and (args.proposals or args.balances):
        other = "--proposals" if args.proposals else "--balances"
        args.parser.error(f"argument --did: not allowed with argument {other}")
    chain = load_chain(args.chain)
    verification, fold = verified_fold(chain)
    if fold is None:
        print(f"FAIL at height {verification.failed_height}: {verification.reason}",
              file=sys.stderr)
        return 1
    record = fold.registry.records.get(args.did) if args.did else None
    if args.did and record is None:
        print(f"unknown did: {args.did}", file=sys.stderr)
        return 1
    if args.audits:
        out = [a for a in fold.audits if a["did"] == args.did] if args.did else fold.audits
    elif args.did:
        history = query_events(chain.blocks, predicate=lambda event: event.kind in (
            EventKind.DID_REGISTERED, EventKind.DID_UPDATED) and event.body()["did"] == args.did)
        out = {"record": record.to_json(),
               "history": [{**event.body(), "epoch": event.epoch} for event in history]}
    elif args.proposals:
        out = [proposal.to_json() for _, proposal in sorted(fold.governance.proposals.items())]
    elif args.balances:
        out = {
            "snapshot": fold.tokens.snapshot(),
            "conserved": fold.tokens.conserved(),
            "conservation_checksum": fold.tokens.conservation_checksum(),
        }
    else:
        out = {
            "blocks": len(chain.blocks),
            "events": sum(len(b.events) for b in chain.blocks),
            "root_hash": chain.head_hash.hex(),
        }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    mapping = LegacyMapping.from_json(read_json(args.map, "mapping"))
    try:
        rows = read_bytes(args.infile, "legacy file").decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise IoError(f"cannot read legacy file: {exc}") from exc
    messages = []
    for number, row in enumerate(rows, start=1):
        if row:  # an empty line is counted, not converted
            try:
                messages.append(convert_legacy(row, mapping).to_json())
            except (ConversionError, MalformedRecord) as exc:
                raise type(exc)(f"line {number}: {exc}") from exc
    write_bytes(args.out, report_json_bytes(messages), "messages")
    print(f"converted {len(messages)} rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="govsim",
        description="Deterministic AI-governance ledger simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write chain + report")
    run_p.add_argument("scenario")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--rules", default=None,
                       help="rule-pack JSON (array of rule modules) appended "
                            "to the scenario's rules")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--csv", action="store_true", help="also export report.csv")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="verify a chain file (exit 0/1)")
    verify_p.add_argument("chain")
    verify_p.add_argument("--report", default=None,
                          help="report.json to check against the fold")
    verify_p.set_defaults(func=_cmd_verify)

    inspect_p = sub.add_parser("inspect", help="query a chain file as JSON")
    inspect_p.add_argument("chain")
    inspect_p.add_argument("--did",
                           help="one system record and its history; with "
                                "--audits, filters the audit list")
    query = inspect_p.add_mutually_exclusive_group()
    query.add_argument("--proposals", action="store_true")
    query.add_argument("--audits", action="store_true")
    query.add_argument("--balances", action="store_true")
    inspect_p.set_defaults(func=_cmd_inspect, parser=inspect_p)

    convert_p = sub.add_parser("convert", help="legacy CSV -> canonical messages")
    convert_p.add_argument("--in", dest="infile", required=True)
    convert_p.add_argument("--map", required=True)
    convert_p.add_argument("--out", required=True)
    convert_p.set_defaults(func=_cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone shows here, not in the interpreter's last flush
        return code
    except GovSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Closing stdout here too (its flush fails again) leaves the last flush nothing to write.
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return 1


if __name__ == "__main__":
    sys.exit(main())
