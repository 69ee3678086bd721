"""CLI front ends: ``python -m repro lint`` / ``modelcheck`` / ``codecsym``."""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from .lint import DEFAULT_RULES, lint_paths

__all__ = ["codecsym_main", "lint_main", "modelcheck_main"]


def lint_main(argv: Optional[List[str]] = None) -> int:
    """Run the repo linter; exit code 0 = clean, 1 = findings."""
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Repo-specific determinism / hot-path / protocol linter.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the installed repro "
        "package tree)",
    )
    parser.add_argument(
        "--package-root", metavar="DIR", default=None,
        help="directory that counts as the repro package root for rule "
        "scoping (default: the repro package directory, or the single "
        "PATH when it is a directory)",
    )
    parser.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule ids and descriptions, then exit",
    )
    args = parser.parse_args(argv)

    rules = DEFAULT_RULES()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id:20s} {rule.description}")
        return 0
    if args.select:
        wanted = {r.strip() for r in args.select.split(",") if r.strip()}
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            parser.error(f"unknown rule ids: {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.rule_id in wanted]

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [Path(__file__).resolve().parent.parent]
    package_root = Path(args.package_root) if args.package_root else None
    if package_root is None and len(paths) == 1 and paths[0].is_dir():
        package_root = paths[0]

    findings = lint_paths(paths, package_root=package_root, rules=rules)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "rule": f.rule,
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "message": f.message,
                    }
                    for f in findings
                ],
                indent=2,
            )
        )
    else:
        for f in findings:
            print(f.render())
        n_files = sum(1 for _ in _iter_py(paths))
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"repro-lint: {n_files} file(s) checked, {status}")
    return 1 if findings else 0


def _iter_py(paths):
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def modelcheck_main(argv: Optional[List[str]] = None) -> int:
    """Run a protocol model checker; 0 = no violations.

    ``--protocol checkpoint`` (default) explores the 2-phase checkpoint
    protocol; ``--protocol handoff`` explores the shard tombstone/
    transfer handoff.  A violation prints the counterexample schedule
    and exits 1.
    """
    from .explore import ModelCheckViolation
    from .handoffcheck import HANDOFF_MUTANTS, check_handoff
    from .modelcheck import MUTANTS, check_protocol

    parser = argparse.ArgumentParser(
        prog="python -m repro modelcheck",
        description="Exhaustively enumerate delivery interleavings of a "
        "cluster protocol (2-phase checkpoint, or shard handoff) and "
        "verify its safety invariants on every schedule.",
    )
    parser.add_argument(
        "--protocol", choices=("checkpoint", "handoff"), default="checkpoint",
        help="which protocol to explore (default checkpoint)",
    )
    parser.add_argument("--sites", type=int, default=2,
                        help="[checkpoint] mirror sites (2-3)")
    parser.add_argument(
        "--events", type=int, default=3,
        help="[checkpoint] in-flight events / [handoff] scripted updates",
    )
    parser.add_argument(
        "--losses", type=int, default=1, metavar="N",
        help="[checkpoint] also explore schedules dropping up to N "
        "round-1 control messages (0 disables the loss phase; default 1)",
    )
    parser.add_argument("--shards", type=int, default=2,
                        help="[handoff] shard count (default 2)")
    parser.add_argument(
        "--dups", type=int, default=1, metavar="N",
        help="[handoff] up to N duplicated transfer replies (default 1)",
    )
    parser.add_argument(
        "--crashes", type=int, default=1, metavar="N",
        help="[handoff] up to N mid-transfer crash re-sends (default 1)",
    )
    parser.add_argument(
        "--mutant",
        choices=sorted(MUTANTS) + sorted(HANDOFF_MUTANTS),
        default=None,
        help="run against a deliberately broken protocol variant "
        "(expected to be caught; exit code 1)",
    )
    args = parser.parse_args(argv)
    if args.protocol == "checkpoint":
        if args.mutant is not None and args.mutant not in MUTANTS:
            parser.error(
                f"--mutant {args.mutant} belongs to --protocol handoff"
            )
        if not (1 <= args.sites <= 4):
            parser.error("--sites must be in 1..4")
        if not (1 <= args.events <= 5):
            parser.error("--events must be in 1..5")
        if args.losses < 0:
            parser.error("--losses must be >= 0")
    else:
        if args.mutant is not None and args.mutant not in HANDOFF_MUTANTS:
            parser.error(
                f"--mutant {args.mutant} belongs to --protocol checkpoint"
            )
        if not (2 <= args.shards <= 4):
            parser.error("--shards must be in 2..4")
        if not (2 <= args.events <= 4):
            parser.error("--events must be in 2..4 for --protocol handoff")
        if args.dups < 0 or args.crashes < 0:
            parser.error("--dups/--crashes must be >= 0")

    try:
        if args.protocol == "checkpoint":
            report = check_protocol(
                sites=args.sites,
                events=args.events,
                max_losses=args.losses,
                mutant=args.mutant,
            )
        else:
            report = check_handoff(
                shards=args.shards,
                events=args.events,
                dups=args.dups,
                crashes=args.crashes,
                mutant=args.mutant,
            )
    except ModelCheckViolation as violation:
        print(f"VIOLATION: {violation}")
        if violation.trace:
            print("schedule prefix:")
            for step in violation.trace:
                print(f"  - {step}")
        return 1
    print(report.render())
    return 0


def codecsym_main(argv: Optional[List[str]] = None) -> int:
    """Audit wire-codec encode/decode symmetry; 0 = symmetric."""
    from .codecsym import audit_codec

    parser = argparse.ArgumentParser(
        prog="python -m repro codecsym",
        description="Statically verify that every encode path in the wire "
        "codec has a matching decode path (and vice versa), that every "
        "flags bit set on encode is tested on decode, and that the C "
        "accel lane's frame tags and dispatch table agree with the "
        "Python codec.",
    )
    parser.add_argument(
        "--codec", metavar="FILE", default=None,
        help="audit this codec source instead of the installed "
        "repro/wire/codec.py",
    )
    parser.add_argument(
        "--accel", metavar="FILE", default=None,
        help="audit this C source instead of the installed "
        "repro/wire/_accel.c",
    )
    args = parser.parse_args(argv)

    codec_source = (
        Path(args.codec).read_text(encoding="utf-8") if args.codec else None
    )
    accel_source = (
        Path(args.accel).read_text(encoding="utf-8") if args.accel else None
    )
    report = audit_codec(codec_source=codec_source, accel_source=accel_source)
    print(report.render())
    return 0 if report.ok else 1
