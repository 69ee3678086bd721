"""Command-line runner: regenerate the paper's figures and ablations.

Usage::

    python -m repro figures            # all figures, quick mode
    python -m repro figures --full     # all figures, paper scale
    python -m repro figure7            # one figure
    python -m repro ablations          # all ablations
    python -m repro ablation hysteresis
    python -m repro all --save results/figures.txt   # everything + report
    python -m repro bench --out benchmarks/BENCH_PR1.json  # op/s record
    python -m repro lint                   # repo-specific static analysis
    python -m repro modelcheck --sites 2 --events 3  # protocol checker
    python -m repro modelcheck --protocol handoff    # shard handoff checker
    python -m repro codecsym               # wire-codec symmetry audit
    python -m repro chaos                  # seeded failure drills
    python -m repro rt                     # live server over real sockets
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .experiments import ALL_FIGURES
from .experiments.ablations import ALL_ABLATIONS
from .experiments.runner import run_all, write_report


def _run_one(name: str, runner, quick: bool) -> bool:
    t0 = time.time()  # lint: allow-wallclock
    result = runner(quick=quick)
    print(result.render())
    print(f"\n({name} regenerated in {time.time() - t0:.1f}s, "  # lint: allow-wallclock
          f"{'quick' if quick else 'full'} mode)\n")
    return result.all_passed


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code (0 = all checks pass)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # the bench runner owns its own argparse options (--out, --scale…)
        from .bench import main as bench_main

        return bench_main(list(argv[1:]))
    if argv and argv[0] == "lint":
        from .analysis.cli import lint_main

        return lint_main(list(argv[1:]))
    if argv and argv[0] == "modelcheck":
        from .analysis.cli import modelcheck_main

        return modelcheck_main(list(argv[1:]))
    if argv and argv[0] == "codecsym":
        from .analysis.cli import codecsym_main

        return codecsym_main(list(argv[1:]))
    if argv and argv[0] == "chaos":
        from .faults.chaos import chaos_main

        return chaos_main(list(argv[1:]))
    if argv and argv[0] == "rt":
        from .rt.cli import main as rt_main

        return rt_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the evaluation of 'Adaptable Mirroring in "
        "Cluster Servers' (HPDC 2001).",
    )
    parser.add_argument(
        "target",
        help="'figures', 'ablations', 'all', 'bench', a figure name "
        "(figure4..figure9), or 'ablation <name>'",
    )
    parser.add_argument("extra", nargs="?", help="ablation name")
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale workloads (slower; default is quick mode)",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="with 'all': also write the rendered report to PATH",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent sweeps in N worker processes (default 1; "
        "result order is identical to a serial run)",
    )
    args = parser.parse_args(argv)
    quick = not args.full
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    progress = lambda r: print(  # noqa: E731
        f"== {r.name}: {'PASS' if r.passed else 'FAIL'} "
        f"({r.wall_seconds:.0f}s)"
    )

    def _run_parallel(figures: bool, ablations: bool, only=None) -> bool:
        records = run_all(
            quick=quick, figures=figures, ablations=ablations,
            progress=progress, jobs=args.jobs, only=only,
        )
        for record in records:
            print()
            print(record.result.render())
        return all(r.passed for r in records)

    ok = True
    if args.target == "all":
        records = run_all(quick=quick, progress=progress, jobs=args.jobs)
        for record in records:
            print()
            print(record.result.render())
        if args.save:
            path = write_report(records, args.save)
            print(f"\nreport written to {path}")
        ok = all(r.passed for r in records)
    elif args.target == "figures":
        if args.jobs > 1:
            ok = _run_parallel(figures=True, ablations=False)
        else:
            for name, mod in ALL_FIGURES.items():
                ok &= _run_one(name, mod.run, quick)
    elif args.target == "ablations":
        if args.jobs > 1:
            ok = _run_parallel(figures=False, ablations=True)
        else:
            for name, fn in ALL_ABLATIONS.items():
                ok &= _run_one(name, fn, quick)
    elif args.target in ALL_FIGURES:
        if args.jobs > 1:
            ok = _run_parallel(figures=True, ablations=False, only=[args.target])
        else:
            ok = _run_one(args.target, ALL_FIGURES[args.target].run, quick)
    elif args.target == "ablation":
        if args.extra not in ALL_ABLATIONS:
            parser.error(
                f"unknown ablation {args.extra!r}; choose from "
                f"{sorted(ALL_ABLATIONS)}"
            )
        ok = _run_one(args.extra, ALL_ABLATIONS[args.extra], quick)
    else:
        parser.error(
            f"unknown target {args.target!r}; choose 'figures', "
            f"'ablations', one of {sorted(ALL_FIGURES)}, or 'ablation <name>'"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # downstream pipe (head, grep -q) closed early — not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
