"""End-to-end benchmark of the live mirroring cluster.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--aa SETS RUNS]

One server process pinned to the first usable CPU, one single-threaded
load generator (this process) pinned to the second, loopback TCP
between them.  Every workload runs set-up, a paced open-loop phase and
a burst phase, checks what came back against an offline reference, and
prints every metric by name with its unit; the last line of output is
the machine-readable result.  README.md in this directory defines the
metrics and workloads and says how to read a trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from estimators import median, relative_gap, relative_iqr

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_ROOT, "src")
_MANIFEST = os.path.join(_ROOT, "BENCHMARK.json")
_NOISE = os.path.join(_HERE, "NOISE.json")

#: (name, unit, better): what a client of the cluster sees.  The bound
#: of each lives in BENCHMARK.json alone, where the A/A tool keeps it.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("update_p50_ms", "ms", "lower"),
    ("update_p90_ms", "ms", "lower"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p90_ms", "ms", "lower"),
    ("burst_events_per_s", "1/s", "higher"),
    ("server_cpu_pct", "%", "lower"),
    ("server_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better): one layer each, from the traced run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("rt.loop.other_us_per_event", "us", "lower"),
    ("rt.flush.self_us_per_event", "us", "lower"),
    ("rt.flush.calls_per_kevent", "count", "lower"),
    ("rt.flush.deadline_ratio", "ratio", "lower"),
    ("rt.fanout.self_us_per_event", "us", "lower"),
    ("rt.channel.high_watermark", "count", "lower"),
    ("rt.channel.blocked_puts", "count", "lower"),
    ("rt.rss_paced_mb", "MiB", "lower"),
    ("rt.rss_burst_growth_mb", "MiB", "lower"),
    ("rt.burst_drain_s", "s", "lower"),
    ("rt.launch_s", "s", "lower"),
    ("wire.encode.self_us_per_event", "us", "lower"),
    ("wire.encode.calls_per_event", "count", "lower"),
    ("wire.decode.self_us_per_event", "us", "lower"),
    ("wire.split.self_us_per_event", "us", "lower"),
    ("wire.bytes_per_event", "B", "lower"),
    ("wire.shared_hit_ratio", "ratio", "higher"),
    ("core.stamp.self_us_per_event", "us", "lower"),
    ("core.rules.self_us_per_event", "us", "lower"),
    ("core.rules.pass_ratio", "ratio", "lower"),
    ("core.checkpoint.rounds_per_kevent", "count", "lower"),
    ("core.checkpoint.self_us_per_round", "us", "lower"),
    ("core.backup.max_len", "count", "lower"),
    ("ois.apply.self_us_per_event", "us", "lower"),
    ("ois.apply.calls_per_event", "count", "lower"),
    ("ois.snapshot.self_us_per_request", "us", "lower"),
    ("ois.snapshot.build_ratio", "ratio", "lower"),
    ("ois.delta.served_ratio", "ratio", "higher"),
    ("ois.preload_s", "s", "lower"),
    ("sub.match.self_us_per_event", "us", "lower"),
    ("sub.deliveries_per_event", "count", "lower"),
    ("sub.encode_saved_ratio", "ratio", "higher"),
    ("sub.register.us_per_subscription", "us", "lower"),
    ("sub.register_s", "s", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.late_max_ms", "ms", "lower"),
    ("loadgen.cpu_pct", "%", "lower"),
    ("e2e.update_p99w_ms", "ms", "lower"),
    ("e2e.request_p99w_ms", "ms", "lower"),
    ("host.speed_index", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

# ----------------------------------------------------------------- host
class SpeedMeter:
    """The spinner on the server's CPU, read as a host speed meter."""

    def __init__(self, proc: "subprocess.Popen[str]"):
        self._proc = proc

    def read(self) -> Tuple[int, int]:
        """Running totals: units of reference work completed, and the
        CPU nanoseconds they took.  Ask only while the server has idle
        time: the spinner answers when it next gets the CPU."""
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        units, cpu_ns = self._proc.stdout.readline().split()
        return int(units), int(cpu_ns)


def prepare_host() -> Tuple[Dict[str, Any], List["subprocess.Popen[str]"]]:
    """Untimed, before any clock: build the C lanes, pin, and keep both
    CPUs out of their idle states (:mod:`spinner`).

    Returns what a run needs to know about the host — the two CPUs (or
    ``pinned: False`` when fewer than two are usable), the speed meter
    on the server's CPU (``None`` when the spinners did not take), which
    lane the generator's own codec loaded — and the spinner processes,
    for :func:`release_host` to end.
    """
    sys.path.insert(0, _SRC)
    env = dict(os.environ, PYTHONPATH=_SRC)
    subprocess.run(
        [sys.executable, "-m", "repro.wire.accel_build"],
        env=env, stdout=subprocess.DEVNULL, check=False,
    )
    try:
        from repro.wire import accel
    except ImportError as exc:
        # no program to measure: say so before anything is started
        raise SystemExit(f"run.py: cannot import the program under {_SRC}: {exc}") from None

    cpus = sorted(os.sched_getaffinity(0))
    host: Dict[str, Any] = {
        "pinned": len(cpus) >= 2,
        "server_cpu": None,
        "meter": None,
        "loadgen_wire_lane": "C" if accel.AVAILABLE else "pure",
    }
    spinners: List["subprocess.Popen[str]"] = []
    if host["pinned"]:
        host["server_cpu"] = cpus[0]
        os.sched_setaffinity(0, {cpus[1]})
        for cpu in cpus[:2]:
            spinners.append(subprocess.Popen(
                [sys.executable, os.path.join(_HERE, "spinner.py"), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True,
            ))
        # a spinner that could not change its scheduling class says nothing
        if all(p.stdout is not None and p.stdout.readline().strip() == "spinning"
               for p in spinners):
            host["meter"] = SpeedMeter(spinners[0])
    # a cycle collection over the generator's tables of frames stalls it
    # for tens of milliseconds; it makes no cycles worth collecting
    gc.disable()
    return host, spinners


def release_host(spinners: List["subprocess.Popen[str]"]) -> None:
    for proc in spinners:
        proc.kill()
    for proc in spinners:
        proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                pipe.close()


# -------------------------------------------------------------- output
def report(result: Dict[str, Any], table: Sequence[Sequence[Any]]) -> None:
    """Print one run: every metric by name with its unit, the sample
    counts behind them, then the contract's one-line JSON result."""
    verdict = result["verdict"]
    host = result["host"]
    units = {row[0]: row[1] for row in table}
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"pinned={host['pinned']}  idle_spinners={host['meter'] is not None}  lanes: server wire={host['server_lanes']['wire']} "
          f"sim={host['server_lanes']['sim']}, loadgen wire={host['loadgen_wire_lane']}")
    for name, unit in units.items():
        print(f"  {name:36s} {result['metrics'][name]:14.4f} {unit}")
    for name, value in result.get("diagnostics", {}).items():
        print(f"  ({name:34s} {value:14.4f})")
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    for note in result["notes"]:
        print(f"  note: {note}")
    for problem in verdict.problems:
        print(f"  REFERENCE CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }), flush=True)


# ----------------------------------------------------------- A/A noise
def aa_tool(sets: int, runs: int, seconds: float) -> int:
    """Run the same code ``sets`` x ``runs`` times per workload (sets
    interleaved, a new seed every run, every run a fresh process) and
    hold BENCHMARK.json's bounds to what was seen.

    NOISE.json records per workload x metric the set medians, their gap
    and the spread (IQR / median) over all runs.  A bound must cover
    twice the worst gap and the worst spread (floor 0.05): one that
    would pass 0.25 is refused — the metric has to be redefined or
    moved to the per-layer list.  A bound is also raised, up to 0.25,
    towards three times the worst spread, and never lowered."""
    from workloads import WORKLOADS

    names = [row[0] for row in END_TO_END]
    values: Dict[str, Dict[str, List[List[float]]]] = {
        w.name: {name: [[] for _ in range(sets)] for name in names} for w in WORKLOADS
    }
    seed = 100
    for run in range(runs):
        for group in range(sets):
            seed += 1
            for workload in WORKLOADS:
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True, check=False,
                )
                if proc.returncode != 0:
                    print(proc.stdout)
                    print(f"aa: {workload.name} seed {seed} exited {proc.returncode}")
                    return 1
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                for name, cell in line["metrics"].items():
                    values[workload.name][name][group].append(cell["value"])
                print(f"aa: set {group} run {run} {workload.name} done", flush=True)

    noise: Dict[str, Any] = {"sets": sets, "runs": runs, "seconds": seconds, "workloads": {}}
    worst_gap = dict.fromkeys(names, 0.0)
    worst_spread = dict.fromkeys(names, 0.0)
    for workload_name, per_metric in values.items():
        rows = noise["workloads"][workload_name] = {}
        for name, groups in per_metric.items():
            medians = [median(g) for g in groups]
            gap = max((relative_gap(medians[0], m) for m in medians[1:]), default=0.0)
            pooled = [v for g in groups for v in g]
            spread = relative_iqr(pooled) if len(pooled) >= 2 else 0.0
            rows[name] = {"set_medians": medians, "gap": gap, "spread": spread}
            worst_gap[name] = max(worst_gap[name], gap)
            if name != "setup_s":  # its spread is not held to the bound, its gap is
                worst_spread[name] = max(worst_spread[name], spread)
    noise["worst_gap"] = worst_gap
    noise["worst_spread"] = worst_spread
    with open(_NOISE, "w", encoding="utf-8") as out:
        json.dump(noise, out, indent=1)
        out.write("\n")

    def percent_up(share: float) -> float:
        return round(-(-share // 0.01) * 0.01, 2)

    with open(_MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    status = 0
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        must = percent_up(max(0.05, 2.0 * worst_gap[name], worst_spread[name]))
        wish = min(0.25, percent_up(3.0 * worst_spread[name]))
        if must > 0.25:
            print(f"aa: {name} needs a bound of {must:.2f} > 0.25: "
                  "redefine it or move it to the per-layer list")
            status = 1
            continue
        bound = max(metric["bound"], must, wish)
        note = "holds" if bound == metric["bound"] else f"raised from {metric['bound']}"
        if 3.0 * worst_spread[name] > 0.25:
            note += f"; spread {worst_spread[name]:.3f} is more than a third of it"
        print(f"aa: {name} bound {bound:.2f} {note} "
              f"(gap {worst_gap[name]:.3f}, spread {worst_spread[name]:.3f})")
        metric["bound"] = bound
    with open(_MANIFEST, "w", encoding="utf-8") as out:
        json.dump(manifest, out, indent=2)
        out.write("\n")
    return status


# ---------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the paced phase (default 15; 2 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="short phases, untraced then traced: a harness check, not a measurement")
    parser.add_argument("--aa", type=int, nargs=2, metavar=("SETS", "RUNS"),
                        help="A/A noise tool: record NOISE.json, hold the bounds to it")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (2.0 if args.smoke else 15.0)
    if seconds <= 0:
        parser.error("--seconds must be positive")

    if args.aa:
        # the runs are child processes that pin themselves; pinning
        # this one would leave them a single usable CPU
        sys.path.insert(0, _SRC)
        return aa_tool(args.aa[0], args.aa[1], seconds)
    host, spinners = prepare_host()
    try:
        # only now: importing the codec before the build would pin this
        # process to the pure-Python lane
        from measure import measure, measure_traced
        from workloads import WORKLOADS

        chosen = [w for w in WORKLOADS if args.workload in (None, w.name)]
        if not chosen:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(w.name for w in WORKLOADS)}")
        status = 0
        for workload in chosen:
            if args.smoke or not args.trace:
                result = measure(workload, args.seed, seconds, host, smoke=args.smoke)
                report(result, END_TO_END)
                status |= not result["verdict"].correct
            if args.smoke or args.trace:
                result = measure_traced(workload, args.seed, seconds, host, smoke=args.smoke)
                report(result, PER_LAYER)
                status |= not result["verdict"].correct
        return int(status)
    finally:
        release_host(spinners)


if __name__ == "__main__":
    raise SystemExit(main())
