"""One workload in one fresh interpreter (spawned by ``run.py``).

Modes:

- ``setup``: build the workload's inputs, report ready, exit.  The
  parent times interpreter start to ready; that is one ``setup_s``
  sample.
- ``run``: setup, then timed passes for ``--seconds``; prints the
  end-to-end summary.
- ``trace``: setup, untraced passes for half of ``--seconds``, then the
  layer spans of :mod:`tracer` installed and traced passes for the other
  half; prints the per-layer numbers.

Protocol lines on stdout start with ``@@``; anything else is log text.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

perf_counter = time.perf_counter


def emit(tag: str, payload=None) -> None:
    line = f"@@{tag}" if payload is None else f"@@{tag} {json.dumps(payload)}"
    print(line, flush=True)


def result_payload(attempted, failed, passes, **fields):
    import numpy  # already loaded by repro; only its version is read

    return {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "numpy": numpy.__version__,
        **fields,
    }


def run_passes(workload, seconds: float):
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(workload.run_pass())
    workload.normalize(passes)
    return passes


def op_counts(passes):
    ops = [op for p in passes for op in p.ops]
    return len(ops), sum(1 for op in ops if not op.ok)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer, untraced, traced, setup_layer, imports):
    """The per-layer metrics, per traced pass (see BENCHMARK.json)."""
    from tracer import LAYERS

    n = len(traced)
    # Spans are raw host time, so shares are taken of the raw wall.
    wall = sum(p.raw_seconds for p in traced)
    keys = tracer.key_calls

    def per_pass(value):
        return value / n

    def counter(name):
        return per_pass(sum(p.counters.get(name, 0.0) for p in traced))

    def calls_with(prefix):
        return sum(v for k, v in keys.items() if k.startswith(prefix))

    def busy_with(prefix):
        return sum(
            v for k, v in tracer.key_busy.items() if k.startswith(prefix)
        )

    lookups = tracer.calls("broker.exec_lookup")
    misses = sum(p.counters.get("broker.exec_misses", 0.0) for p in traced)
    metrics = {
        **imports,
        "workloads.trace_build_s": setup_layer.get(
            "workloads.trace_build_s", 0.0
        ),
        "datagen.datasets": per_pass(tracer.calls("datagen.dataset")),
        "datagen.busy_s": per_pass(tracer.busy("datagen.dataset")),
        "apps.chunks": per_pass(calls_with("apps.chunk.")),
        "apps.busy_s": per_pass(tracer.layer_self.get("apps", 0.0)),
        **{
            f"apps.{app}.busy_s": per_pass(
                busy_with(f"apps.chunk.{app}") + busy_with(f"apps.call.{app}")
            )
            for app in ("kmeans", "em", "knn", "vortex", "defect")
        },
        "middleware.runs": per_pass(tracer.calls("middleware.run")),
        "middleware.passes": per_pass(tracer.calls("middleware.pass")),
        "middleware.self_s": per_pass(
            tracer.layer_self.get("middleware", 0.0)
        ),
        "simgrid.calls": per_pass(tracer.calls("simgrid.call")),
        "simgrid.busy_s": per_pass(tracer.layer_self.get("simgrid", 0.0)),
        "core.predicts": per_pass(tracer.calls("core.predict")),
        "core.predict_busy_s": per_pass(tracer.busy("core.predict")),
        "core.comm_fits": per_pass(tracer.calls("core.comm_fit")),
        "core.fingerprints": per_pass(tracer.calls("core.fingerprint")),
        "core.fingerprint_busy_s": per_pass(tracer.busy("core.fingerprint")),
        "service.requests": per_pass(tracer.calls("service.request")),
        "service.self_s": per_pass(tracer.layer_self.get("service", 0.0)),
        "service.shed": counter("service.shed"),
        "service.stale": counter("service.stale"),
        "service.scrapes": per_pass(tracer.calls("service.scrape")),
        "service.scrape_busy_s": per_pass(tracer.busy("service.scrape")),
        "broker.jobs": counter("broker.jobs"),
        "broker.self_s": per_pass(tracer.layer_self.get("broker", 0.0)),
        "broker.events": counter("broker.events"),
        "broker.peak_pending": max(
            p.counters.get("broker.peak_pending", 0.0) for p in traced
        ),
        "broker.executions": setup_layer.get("broker.executions", 0.0),
        "broker.exec_reuse_ratio": (
            1.0 - misses / lookups if lookups else 0.0
        ),
        "lint.files": counter("lint.files"),
        "lint.findings": counter("lint.findings"),
        "lint.rules_s": per_pass(tracer.busy("lint.rules")),
        "lint.flow_s": per_pass(tracer.busy("lint.flow")),
        "lint.effects_s": per_pass(tracer.busy("lint.effects")),
        "lint.perf_s": per_pass(tracer.busy("lint.perf")),
        "lint.cache_bytes": counter("lint.cache_bytes"),
        "trace.overhead_s": (
            statistics.median(p.seconds for p in traced)
            - statistics.median(p.seconds for p in untraced)
        ),
        "trace.unattributed_share": 1.0 - tracer.covered / wall,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            tracer.layer_self.get(layer, 0.0) / wall
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    imports = {}
    if args.mode == "trace":
        start = perf_counter()
        import repro.cli  # noqa: F401

        imports["import.cli_s"] = perf_counter() - start
        imports["import.repro_modules"] = float(sum(
            1 for name in sys.modules
            if name == "repro" or name.startswith("repro.")
        ))
        imports["import.heavy_modules"] = float(sum(
            1 for name in ("networkx", "scipy", "repro.lint")
            if name in sys.modules
        ))

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    setup_layer = workload.setup(args.seed, pathlib.Path(args.tmp))
    emit("ready")
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        passes = run_passes(workload, args.seconds)
        attempted, failed = op_counts(passes)
        summary = workload.summarize(passes)
        summary["metrics"]["peak_rss_mb"] = peak_rss_mb()
        summary["timings"]["host_calibration_s"] = {
            "median": statistics.median(workload.host.samples),
            "samples": len(workload.host.samples),
            "first": workload.host.samples[0],
        }
        summary["timings"]["raw_pass_s"] = [p.raw_seconds for p in passes]
        emit("result", result_payload(
            attempted, failed, len(passes), **summary
        ))
        return 0

    from tracer import Tracer, install_layer_spans

    untraced = run_passes(workload, args.seconds / 2)
    tracer = Tracer()
    install_layer_spans(tracer)
    try:
        traced = run_passes(workload, args.seconds / 2)
    finally:
        tracer.uninstall()
    attempted, failed = op_counts(untraced + traced)
    metrics = per_layer(tracer, untraced, traced, setup_layer, imports)
    emit("result", result_payload(
        attempted, failed, len(traced),
        untraced_passes=len(untraced),
        metrics=metrics,
        timings={
            "untraced_pass_s": [p.seconds for p in untraced],
            "traced_pass_s": [p.seconds for p in traced],
            "traced_raw_pass_s": [p.raw_seconds for p in traced],
        },
        checked=workload.summarize(traced)["checked"],
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
