"""Build the optional C fast lane of the wire codec.

The accelerated lane is a single hand-written CPython extension with
no dependencies beyond a C compiler and the Python headers, so a build
is one compiler invocation — no setuptools, no build isolation, no
network::

    python -m repro.wire.accel_build             # build (no-op if fresh)
    python -m repro.wire.accel_build --force     # rebuild unconditionally
    python -m repro.wire.accel_build --sanitize  # rebuild under ASan + UBSan

The shared object lands next to ``wire/_accel.c`` inside the package,
so it is importable from a plain ``PYTHONPATH=src`` checkout
(:mod:`repro.wire.accel` loads it).  When a build is impossible (no
compiler, no headers) everything keeps working on the pure-Python lane.

A ``--sanitize`` build instruments the lane with AddressSanitizer and
UndefinedBehaviorSanitizer (undefined behaviour aborts instead of
printing and going on).  The interpreter is not instrumented, so the
ASan runtime must be loaded first, and its leak check is off because
the interpreter keeps what it allocates until exit::

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \
        PYTHONPATH=src python -m pytest tests/wire

It replaces the optimised build in place.  Importing :mod:`repro.wire`
loads the lane, so while the sanitized build is in place every
interpreter needs the preload — this script's too: put the optimised
build back with ``--force`` under the same ``LD_PRELOAD``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
from typing import List, Optional

__all__ = ["so_path", "build", "main"]

#: compiler flags of a ``--sanitize`` build
SANITIZE_FLAGS = [
    "-O1",
    "-g",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
    "-fno-omit-frame-pointer",
]

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_accel.c")


def so_path() -> str:
    """Target path of the built extension next to its source."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(_HERE, "_accel" + suffix)


def _compiler() -> Optional[str]:
    """A usable C compiler, or None."""
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not name:
            continue
        try:
            subprocess.run(
                [name, "--version"],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError):
            continue
        return name
    return None


def build(
    force: bool = False, quiet: bool = False, sanitize: bool = False
) -> Optional[str]:
    """Compile ``_accel.c`` in place; returns the .so path, or None when
    the toolchain is unavailable (callers fall back to pure Python).
    ``sanitize`` always rebuilds, with :data:`SANITIZE_FLAGS`."""
    target = so_path()
    if not (force or sanitize) and os.path.exists(target):
        if os.path.getmtime(target) >= os.path.getmtime(_SOURCE):
            return target
    include = sysconfig.get_paths()["include"]
    cc = _compiler()
    if cc is None:
        if not quiet:
            print("accel: no C compiler found; staying on the pure lane")
        return None
    cmd: List[str] = [
        cc,
        *(SANITIZE_FLAGS if sanitize else ["-O2"]),
        "-fPIC",
        "-shared",
        "-fno-strict-aliasing",
        f"-I{include}",
        _SOURCE,
        "-o",
        target,
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        if not quiet:
            print(f"accel: compiler failed to run ({exc}); pure lane only")
        return None
    if proc.returncode != 0:
        if not quiet:
            print("accel: build failed; staying on the pure lane")
            print(proc.stderr, file=sys.stderr)
        return None
    if not quiet:
        print(f"accel: built {target}")
    return target


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    built = build(force="--force" in args, sanitize="--sanitize" in args)
    return 0 if built else 1


if __name__ == "__main__":
    raise SystemExit(main())
