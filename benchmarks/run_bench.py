#!/usr/bin/env python
"""Standalone entry point for the substrate microbenchmark suite.

Same runner as ``python -m repro bench`` (see :mod:`repro.bench`), kept
next to the pytest benchmarks so both op/s record and pytest-benchmark
timings live under ``benchmarks/``::

    python benchmarks/run_bench.py --out benchmarks/BENCH_PR1.json --label PR1
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
