"""The repository's benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``figures``: Fig. 2-6 model comparisons and Fig. 11 through
  ``run_experiment`` on the fast grid, in a seeded order;
- ``broker-trace``: a seeded gwa-mixed trace through a ``GridBroker`` on
  ``reference_grid()``: min-completion, deadline-aware, and a faulted
  min-completion leg with migrate recovery;
- ``service-stream``: seeded ``generate_requests`` traffic through
  ``PredictionService.handle`` on a virtual clock, one closed-loop
  caller, with a ``metrics()`` read every 200 requests;
- ``lint-tree``: the full ``repro lint src/repro`` gate (rules, flow,
  effects, perf) cold, then warm on the caches the cold leg wrote.

With ``--trace 0`` the workload runs in a fresh interpreter for
``--seconds`` of timed passes, then is set up twice more in fresh
interpreters; the last line of output carries the end-to-end metrics.
Times are host-normalized seconds (see ``calibrate.py``): each measured
duration is scaled by the host-speed samples taken around it, so that
the swings of a shared machine's speed cancel and a change to the
program does not.  Raw seconds are in the ``timings`` block.

- ``setup_s``: interpreter start to the first timed operation, median of
  three fresh processes;
- ``wall_s``: median seconds of one timed pass;
- ``ops_per_s``: the main operation's throughput -- middleware
  executions per second over Fig. 2-6 (``runs_per_s``), jobs settled
  per second over the fault-free legs (``jobs_per_s``), requests per
  second (``req_per_s``), files per second of the cold lint leg;
- ``secondary_s``: median seconds of the secondary operation -- Fig. 11,
  the faulted leg, one ``metrics()`` read, the warm lint leg
  (``lint_warm_s``);
- ``peak_rss_mb``: peak resident memory of the workload process.

With ``--trace 1`` the workload runs half its seconds untraced and half
with spans around every layer's public entry points (``tracer.py``);
the last line carries the per-layer metrics, each per traced pass.
Span times are raw seconds and shares are of the raw traced wall;
``trace.overhead_s`` compares normalized pass medians.

Every operation's output is checked against a reference; a mismatch or
an exception counts in ``failed``, and any failure makes ``correct``
false.  Only the calls into ``repro`` are timed.  Every file the run
writes goes to a temporary directory inside the checkout, removed at
exit, so the working tree is left as it was.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import calibrate
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: A workload process that outlives this is killed and the run fails.
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload, seed, seconds, mode, tmp):
    """Run one worker; returns (seconds from spawn to ready, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--tmp", str(tmp),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    lines = []

    def pump():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S}s")
    finally:
        reader.join()
        proc.stdout.close()
    ready = result = None
    for at, line in lines:
        if line.startswith("@@ready"):
            ready = at - start
        elif line.startswith("@@result "):
            result = json.loads(line[len("@@result "):])
        else:
            sys.stdout.write(line)
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise BenchError(f"{workload} worker ({mode}) failed with exit {code}")
    return ready, result


def git_revision():
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def source_digest():
    """Content hash of ``src/repro``: the revision, git or not."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def stamp(args, result):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_passes": result["passes"],
        "setup_repeats": SETUP_REPEATS if not args.trace else 1,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "platform": platform.platform(),
    }


def measure(args, tmp):
    if not args.trace:
        # Each set-up is scaled by the host-speed samples around it; the
        # timed run's first sample is taken right after its set-up.
        before = calibrate.sample()
        ready, result = spawn(
            args.workload, args.seed, args.seconds, "run", tmp
        )
        after = result["timings"]["host_calibration_s"]["first"]
        raw = [(ready, before, after)]
        for _ in range(SETUP_REPEATS - 1):
            before = calibrate.sample()
            ready, _ = spawn(args.workload, args.seed, 0, "setup", tmp)
            raw.append((ready, before, calibrate.sample()))
        setups = [
            seconds * calibrate.REFERENCE_S / ((before + after) / 2)
            for seconds, before, after in raw
        ]
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["timings"]["setup_s"] = {
            "median": statistics.median(setups),
            "samples": len(setups),
            "raw": [seconds for seconds, _, _ in raw],
        }
        return result
    _, result = spawn(args.workload, args.seed, args.seconds, "trace", tmp)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: no src/repro package next to perfbench/; run from a "
            "checkout of the repository", file=sys.stderr,
        )
        return 2

    tmp = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = measure(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # BENCHMARK.json declares the metrics and their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if args.trace else "end_to_end"]
    }
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: result["metrics"][name] for name in units}
    attempted, failed = result["attempted"], result["failed"]
    for name, value in sorted(metrics.items()):
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for name, (value, unit) in sorted(result.get("named", {}).items()):
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':32s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "stamp": stamp(args, result),
        "timings": result["timings"],
        "checked": result["checked"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
