"""Check that the benchmark leaves a git work tree exactly as it found it.

Runs every workload once, untraced and traced, with a short measuring
time, and compares ``git status --porcelain --ignored`` before and after.
Run from the repository root::

    python3 perfbench/check_clean.py

Exits 0 when nothing changed, 1 (listing the difference) otherwise.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

from workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def status() -> set:
    out = subprocess.run(
        ["git", "status", "--porcelain", "--ignored", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    # Byte-code caches are the interpreter's, not the benchmark's.
    return {
        line for line in out.stdout.splitlines()
        if "__pycache__" not in line
    }


def main() -> int:
    before = status()
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", trace],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
    after = status()
    if before == after:
        print("work tree unchanged")
        return 0
    for line in sorted(after - before):
        print(f"added:   {line}")
    for line in sorted(before - after):
        print(f"removed: {line}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
