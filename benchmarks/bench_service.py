"""Prediction-as-a-service under load: baseline vs. faulted vs. overload.

Drives the :mod:`repro.service` pipeline with seeded request workloads
across three scenarios — a clean baseline, the standard chaos fault mix
(slow/crashing/corrupt backends + tight deadlines), and a deliberate
overload at ~8x the admission rate — and checks the tentpole
guarantees for every one:

- every accepted request settles exactly once (chaos never loses work);
- shed requests are answered 429 + Retry-After, never silently dropped;
- every settled latency respects the declared deadline (+ epsilon);
- replaying an identical (seed, spec) pair yields a byte-identical
  request log — determinism survives adversity.

Per-scenario throughput, latency percentiles, shed rate, and
stale-serve rate land in ``BENCH_service.json`` at the repository root
(canonical JSON), the service-layer companion to
``BENCH_resilience.json``.  They are *priced*, not measured: every
latency is charged by the service cost model on the virtual clock.

``REPRO_SERVICE_BENCH_COUNT`` caps the request count for CI smoke
runs; the full 400-request workload is the default.
"""

from __future__ import annotations

import os

from repro.analysis import format_service_chaos, format_service_metrics
from repro.core.durable import atomic_write_json, atomic_write_text
from repro.faults.chaos import ServiceChaosSpec, run_service_campaign
from repro.service import (
    PredictionService,
    ServiceBackend,
    ServiceFaultInjector,
    BackendFaultSpec,
    demo_profiles,
    generate_requests,
    serve_sequence,
)

from benchmarks.bench_broker import REPO_ROOT
from benchmarks.conftest import RESULTS_DIR, run_once

SERVICE_COUNT = int(os.environ.get("REPRO_SERVICE_BENCH_COUNT", "400"))

SEEDS = [11, 23, 47]

SCENARIOS = {
    "baseline": ServiceChaosSpec(
        requests=SERVICE_COUNT,
        rate_hz=300.0,
        slow_probability=0.0,
        crash_probability=0.0,
        corrupt_probability=0.0,
        tight_deadline_fraction=0.0,
    ),
    "faulted": ServiceChaosSpec(requests=SERVICE_COUNT, rate_hz=300.0),
    "overload": ServiceChaosSpec(
        requests=SERVICE_COUNT,
        rate_hz=4000.0,
        slow_probability=0.15,
        crash_probability=0.10,
        corrupt_probability=0.05,
    ),
}


def serve_scenario(seed: int, spec: ServiceChaosSpec):
    """One fresh service driven through one seeded (seed, spec) workload."""
    profiles = demo_profiles()
    injector = ServiceFaultInjector(
        seed + 1,
        BackendFaultSpec(
            slow_probability=spec.slow_probability,
            crash_probability=spec.crash_probability,
            corrupt_probability=spec.corrupt_probability,
        ),
    )
    service = PredictionService(
        profiles,
        backend=ServiceBackend(injector=injector),
        campaign_journals={"demo": "service-chaos-demo.journal"},
    )
    requests = generate_requests(
        seed,
        spec.requests,
        spec.rate_hz,
        sorted(profiles),
        tight_deadline_fraction=spec.tight_deadline_fraction,
    )
    responses = serve_sequence(service, requests)
    return service, responses


def price(seed: int, spec: ServiceChaosSpec) -> dict:
    """Priced throughput and latency rollup of one representative run."""
    service, responses = serve_scenario(seed, spec)
    summary = service.log.summary()
    span_s = max(r.settled_s for r in responses) - min(
        r.arrival_s for r in responses
    )
    return {
        "seed": seed,
        "offered_rate_hz": spec.rate_hz,
        "achieved_req_per_s": (
            summary["served"] / span_s if span_s > 0 else 0.0
        ),
        "served": summary["served"],
        "shed": summary["shed"],
        "stale_served": summary["stale_served"],
        "shed_rate": summary["shed_rate"],
        "stale_rate": summary["stale_rate"],
        "p50_latency_s": summary["p50_latency_s"],
        "p99_latency_s": summary["p99_latency_s"],
        "max_latency_s": summary["max_latency_s"],
    }


def run_service_study():
    return {
        name: {
            "campaign": run_service_campaign(SEEDS, spec),
            "priced": price(SEEDS[0], spec),
        }
        for name, spec in SCENARIOS.items()
    }


def test_service_resilience_invariants_hold(benchmark):
    study = run_once(benchmark, run_service_study)

    lines = []
    for name, entry in study.items():
        lines.append(f"=== {name} ===")
        lines.append(format_service_chaos(entry["campaign"]))
        priced = entry["priced"]
        lines.append(
            f"  priced (seed {priced['seed']}): "
            f"{priced['achieved_req_per_s']:.0f} req/s  "
            f"p99 {1000 * priced['p99_latency_s']:.3f}ms  "
            f"shed {100 * priced['shed_rate']:.1f}%  "
            f"stale {100 * priced['stale_rate']:.1f}%"
        )
        lines.append("")
    text = "\n".join(lines)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(RESULTS_DIR / "service.txt", text)
    atomic_write_json(
        REPO_ROOT / "BENCH_service.json",
        {
            "kind": "bench-service",
            "requests": SERVICE_COUNT,
            "seeds": SEEDS,
            "scenarios": {
                name: {
                    "campaign": entry["campaign"].to_dict(),
                    "priced": entry["priced"],
                }
                for name, entry in study.items()
            },
        },
    )

    # Tentpole invariants: no scenario loses a request, diverges on
    # replay, or violates a latency/settlement contract.
    for name, entry in study.items():
        report = entry["campaign"]
        assert report.ok, f"{name}: " + "; ".join(report.violations)

    # The chaos path must actually have fired, and the overload path
    # must actually have shed — otherwise the scenarios prove nothing.
    faulted = study["faulted"]["campaign"]
    assert any(
        count > 0 for case in faulted.cases for _, count in case.injected
    )
    overload = study["overload"]["campaign"]
    assert all(case.shed > 0 for case in overload.cases)
    baseline = study["baseline"]["campaign"]
    assert all(case.shed == 0 for case in baseline.cases)
