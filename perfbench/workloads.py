"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` (untimed
but counted in ``setup_s``) and then runs timed passes.  A pass is a
fixed list of operations; only the calls into ``repro`` are timed, and
each operation's output is reduced to a digest and checked against the
workload's reference.  Calibration samples (:mod:`calibrate`) bracket
the operations, and every timing below is in host-normalized seconds.  Priced and simulated numbers (service cost-model
latencies, makespans, ``t_disk``/``t_network``/``t_compute``) only ever
enter those digests or the ``checked`` block, never a metric.

``repro`` entry points are looked up through their modules at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import random
import statistics
import time
from typing import Any, Dict, List, Optional

from calibrate import HostSpeed

perf_counter = time.perf_counter

HERE = pathlib.Path(__file__).resolve().parent


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class Op:
    """One timed operation of a pass."""

    kind: str
    raw_s: float
    ok: bool
    units: int = 1
    #: Index of the host-speed sample taken right before the op.
    mark: int = 0
    #: Host-speed scale from the samples around ``mark``.
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        """Host-normalized seconds."""
        return self.raw_s * self.scale


@dataclasses.dataclass
class Pass:
    ops: List[Op]
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def raw_seconds(self) -> float:
        return sum(op.raw_s for op in self.ops)


def median_of(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else [0.0, 0.0]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


def rate(passes: List[Pass], kinds) -> float:
    """Units one pass settles in ``kinds`` over the summed per-kind median
    seconds: a throughput that one slow (e.g. first) pass cannot skew."""
    seconds = sum(
        median_of([op.seconds for p in passes for op in p.ops if op.kind == k])
        for k in kinds
    )
    return sum(op.units for op in passes[0].ops if op.kind in kinds) / seconds


def timing(values: List[float], scale: float = 1.0) -> Dict[str, Any]:
    """Median and quartiles of a timing, with its sample count."""
    scaled = [v * scale for v in values]
    return {
        "median": median_of(scaled),
        "quartiles": quartiles(scaled),
        "samples": len(scaled),
    }


class Workload:
    """Interface shared by the four workloads."""

    name = ""

    def __init__(self) -> None:
        self.host = HostSpeed()

    def calibrated(self, ops: List[Op]) -> None:
        """Sample host speed after ``ops``, timed since the last sample.

        Called with no ops right before a pass, it takes the sample that
        opens the next interval.
        """
        before = self.host.mark() - 1
        for op in ops:
            op.mark = before

    def normalize(self, passes: List[Pass]) -> None:
        """Scale every op by the host-speed samples around it."""
        for p in passes:
            for op in p.ops:
                op.scale = self.host.scale_at(op.mark)

    def setup(self, seed: int, tmp: pathlib.Path) -> Dict[str, float]:
        """Build inputs; returns per-layer numbers measured during setup."""
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def summarize(self, passes: List[Pass]) -> Dict[str, Any]:
        """``metrics`` (end-to-end), ``timings`` and ``checked`` blocks."""
        raise NotImplementedError


def _timed(call):
    start = perf_counter()
    result = call()
    return result, perf_counter() - start


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

MODEL_FIGURES = ("fig02", "fig03", "fig04", "fig05", "fig06")
CROSS_FIGURE = "fig11"


def _figure_executions(result) -> int:
    """Middleware executions one figure's protocol performs.

    One base-profile run plus one run per grid configuration; the
    cross-cluster protocol adds a run on each cluster per representative
    application.  The traced run checks this against ``middleware.runs``.
    """
    configs = {(row.data_nodes, row.compute_nodes) for row in result.rows}
    extra = 2 * len(result.metadata.get("representatives", ()))
    return 1 + len(configs) + extra


def _figure_rows(result) -> List[List[Any]]:
    return [
        [r.data_nodes, r.compute_nodes, r.model, r.actual, r.predicted]
        for r in result.rows
    ]


class Figures(Workload):
    """Fig. 2-6 model comparisons plus Fig. 11 on the fast grid."""

    name = "figures"

    def setup(self, seed, tmp):
        import repro.workloads.experiments

        self.experiments = repro.workloads.experiments
        self.order = list(MODEL_FIGURES) + [CROSS_FIGURE]
        random.Random(seed).shuffle(self.order)
        reference = json.loads((HERE / "reference.json").read_text())
        self.reference = reference["figures"]
        self.error_max = 0.0
        self.digests: Dict[str, str] = {}
        return {}

    def run_pass(self):
        ops = []
        self.calibrated([])
        for fid in self.order:
            try:
                result, seconds = _timed(
                    lambda: self.experiments.run_experiment(fid, fast=True)
                )
            except Exception as exc:  # a failed figure is a counted failure
                print(f"figure {fid} raised {exc!r}")
                ops.append(Op(fid, 0.0, False, 0))
                continue
            got = digest(_figure_rows(result))
            self.digests[fid] = got
            ok = got == self.reference.get(fid)
            if not ok:
                print(f"figure {fid}: digest {got} != reference")
            for row in result.rows:
                if row.model == "global reduction":
                    self.error_max = max(self.error_max, row.error)
            ops.append(Op(fid, seconds, ok, _figure_executions(result)))
            self.calibrated(ops[-1:])
        return Pass(ops)

    def summarize(self, passes):
        cross = [
            op.seconds for p in passes for op in p.ops
            if op.kind == CROSS_FIGURE
        ]
        runs_per_s = rate(passes, MODEL_FIGURES)
        walls = [p.seconds for p in passes]
        return {
            "metrics": {
                "wall_s": median_of(walls),
                "ops_per_s": runs_per_s,
                "secondary_s": median_of(cross),
            },
            "named": {
                "runs_per_s": (runs_per_s, "1/s"),
                "fig11_s": (median_of(cross), "s"),
            },
            "timings": {
                "pass_s": timing(walls),
                "fig11_s": timing(cross),
                **{
                    f"{fid}_s": timing([
                        op.seconds for p in passes for op in p.ops
                        if op.kind == fid
                    ])
                    for fid in MODEL_FIGURES
                },
            },
            "checked": {
                "pred_error_max (simulated)": self.error_max,
                "figure_digests": dict(sorted(self.digests.items())),
            },
        }


# ---------------------------------------------------------------------------
# broker-trace
# ---------------------------------------------------------------------------

BROKER_JOBS = 4000

#: The gwa-mixed VO shapes, drawing jobs from the smallest dataset of
#: each application so the untimed memo fill stays a few seconds.  EM is
#: left out: each of the ~16 EM executions the legs need costs ~0.3 s,
#: which would more than double set-up.
SMALL_MIXES = {
    "atlas": (("kmeans", "350 MB", 3.0), ("knn", "350 MB", 2.0)),
    "cms": (
        ("knn", "350 MB", 1.5), ("defect", "130 MB", 1.0),
        ("vortex", "710 MB", 1.0),
    ),
    "biomed": (("vortex", "710 MB", 1.0), ("kmeans", "350 MB", 1.0)),
}


class BrokerTrace(Workload):
    """A seeded gwa-mixed trace through min-completion, deadline-aware
    and a faulted min-completion leg with migrate recovery."""

    name = "broker-trace"

    def setup(self, seed, tmp):
        import repro.broker
        import repro.broker.report
        import repro.faults.chaos
        import repro.workloads.streams
        import repro.workloads.traces as traces

        self.report_cls = repro.broker.report.BrokerReport
        self.verify_run = repro.faults.chaos.verify_run
        self.broker = repro.broker.GridBroker(
            traces.reference_grid(), traces.REFERENCE_ALLOCATIONS
        )
        spec = traces.make_preset("gwa-mixed", BROKER_JOBS, seed=seed)
        spec = dataclasses.replace(
            spec,
            vos=tuple(
                dataclasses.replace(vo, mix=SMALL_MIXES[vo.name])
                for vo in spec.vos
            ),
        )
        trace, build_s = _timed(
            lambda: traces.TraceWorkload.from_spec(
                spec, baselines=self.broker.baseline_estimate
            )
        )
        self.jobs = list(trace.jobs)
        self.job_ids = [job.job_id for job in self.jobs]
        schedule = repro.faults.chaos.chaos_timeline(
            seed,
            repro.faults.chaos.ChaosSpec(
                horizon=repro.workloads.streams.stream_horizon(self.jobs)
            ),
            self.broker.topology,
            self.job_ids,
        )
        self.legs = [
            ("min-completion", "min-completion", None),
            ("deadline-aware", "deadline-aware", None),
            ("faulted-migrate", "min-completion", schedule),
        ]
        # The fill pass: memoizes every middleware execution the legs
        # need and records the reference report of each leg.
        self.reference: Dict[str, str] = {}
        self.checked: Dict[str, Any] = {"faults (simulated)": len(schedule)}
        for label, policy, faults in self.legs:
            run = self._run(policy, faults)
            self.reference[label] = self._report(label, run)
            self.checked[f"{label} makespan_s (simulated)"] = run.makespan
        self.executions = len(self.broker._exec_cache)
        return {
            "workloads.trace_build_s": build_s,
            "broker.executions": float(self.executions),
        }

    def _run(self, policy, faults):
        return self.broker.run(
            self.jobs, policy, faults=faults, recovery="migrate"
        )

    def _report(self, label, run):
        return digest(self.report_cls(label, (run,)).to_dict())

    def run_pass(self):
        ops = []
        counters = {"broker.jobs": 0.0, "broker.events": 0.0,
                    "broker.peak_pending": 0.0}
        self.calibrated([])
        for label, policy, faults in self.legs:
            try:
                run, seconds = _timed(lambda: self._run(policy, faults))
            except Exception as exc:
                print(f"leg {label} raised {exc!r}")
                ops.append(Op(label, 0.0, False, 0))
                continue
            stats = self.broker.last_queue_stats
            violations = self.verify_run(
                run, self.job_ids, self.broker.last_ledger
            )
            ok = (
                self._report(label, run) == self.reference[label]
                and not violations
            )
            if not ok:
                print(f"leg {label}: report differs or {violations[:3]}")
            counters["broker.jobs"] += run.jobs
            counters["broker.events"] += stats.get("events", 0)
            counters["broker.peak_pending"] = max(
                counters["broker.peak_pending"],
                stats.get("peak_pending_depth", 0),
            )
            ops.append(Op(label, seconds, ok, run.jobs))
            self.calibrated(ops[-1:])
        counters["broker.exec_misses"] = float(
            len(self.broker._exec_cache) - self.executions
        )
        self.executions = len(self.broker._exec_cache)
        return Pass(ops, counters)

    def summarize(self, passes):
        faulted = [
            op.seconds for p in passes for op in p.ops
            if op.kind == "faulted-migrate"
        ]
        jobs_per_s = rate(passes, ("min-completion", "deadline-aware"))
        walls = [p.seconds for p in passes]
        return {
            "metrics": {
                "wall_s": median_of(walls),
                "ops_per_s": jobs_per_s,
                "secondary_s": median_of(faulted),
            },
            "named": {
                "jobs_per_s": (jobs_per_s, "1/s"),
                "faulted_leg_s": (median_of(faulted), "s"),
            },
            "timings": {
                "pass_s": timing(walls),
                **{
                    f"{label}_s": timing([
                        op.seconds for p in passes for op in p.ops
                        if op.kind == label
                    ])
                    for label, _, _ in self.legs
                },
            },
            "checked": {
                "jobs": len(self.jobs),
                "memoized_executions": self.executions,
                "report_digests": self.reference,
                **self.checked,
            },
        }


# ---------------------------------------------------------------------------
# service-stream
# ---------------------------------------------------------------------------

SERVICE_REQUESTS = 8000
#: Offered rate just above the default 500 req/s admission rate, so the
#: token bucket sheds a deterministic few percent as 429s.
SERVICE_RATE_HZ = 520.0
SCRAPE_EVERY = 200
#: Requests between host-speed samples (about half a second of work).
CALIBRATE_EVERY = 1000


class ServiceStream(Workload):
    """One closed-loop caller: seeded requests, a metrics read every
    ``SCRAPE_EVERY`` requests, on a virtual clock."""

    name = "service-stream"

    def setup(self, seed, tmp):
        import repro.faults.chaos
        import repro.service
        import repro.service.workload

        self.service_mod = repro.service
        self.verify = repro.faults.chaos.verify_service_log
        self.profiles = repro.service.demo_profiles()
        # broker-submit answers 501 without a broker attached, so the mix
        # sends only what the configured service can serve.
        mix = repro.service.workload.RequestMix(broker=0.0)
        self.requests = repro.service.generate_requests(
            seed, SERVICE_REQUESTS, SERVICE_RATE_HZ, sorted(self.profiles),
            mix=mix,
        )
        self.journal = str(tmp / "service-demo.journal")
        self.reference: Optional[str] = None
        self.summary: Dict[str, Any] = {}
        return {}

    def run_pass(self):
        service = self.service_mod.PredictionService(
            self.profiles, campaign_journals={"demo": self.journal}
        )
        clock = service.clock
        handle = service.handle
        ops: List[Op] = []
        snapshots = []
        block = 0
        self.calibrated([])
        for index, request in enumerate(self.requests, 1):
            start = perf_counter()
            try:
                clock.advance_to(request.arrival_s)
                ok = handle(request).status < 500
            except Exception as exc:
                print(f"request {request.request_id} raised {exc!r}")
                ok = False
            ops.append(Op("request", perf_counter() - start, ok))
            if index % SCRAPE_EVERY == 0:
                snapshot, seconds = _timed(service.metrics)
                snapshots.append(snapshot)
                ops.append(Op("scrape", seconds, True))
            if index % CALIBRATE_EVERY == 0 or index == len(self.requests):
                self.calibrated(ops[block:])
                block = len(ops)
        log = service.log.to_dict()
        got = digest([log, snapshots])
        violations = self.verify(service, self.requests)
        if self.reference is None:
            self.reference = got
        if got != self.reference or violations:
            print(f"service pass differs from reference or {violations[:3]}")
            for op in ops:
                op.ok = False
        summary = service.log.summary()
        self.summary = {
            "by_status": summary["by_status"],
            "priced p50_latency_s": summary["p50_latency_s"],
            "priced p99_latency_s": summary["p99_latency_s"],
            "log_digest": got,
        }
        return Pass(ops, {
            "service.shed": float(summary["shed"]),
            "service.stale": float(summary["stale_served"]),
        })

    def summarize(self, passes):
        requests = [
            op.seconds for p in passes for op in p.ops if op.kind == "request"
        ]
        scrapes = [
            op.seconds for p in passes for op in p.ops if op.kind == "scrape"
        ]
        req_per_s = len(requests) / sum(requests)
        walls = [p.seconds for p in passes]
        return {
            "metrics": {
                "wall_s": median_of(walls),
                "ops_per_s": req_per_s,
                "secondary_s": median_of(scrapes),
            },
            "named": {
                "req_per_s": (req_per_s, "1/s"),
                "req_p50_us": (median_of(requests) * 1e6, "us"),
                "req_p99_us": (percentile(requests, 0.99) * 1e6, "us"),
                "scrape_p50_ms": (median_of(scrapes) * 1e3, "ms"),
            },
            "timings": {
                "pass_s": timing(walls),
                "request_us": timing(requests, 1e6),
                "scrape_ms": timing(scrapes, 1e3),
            },
            "checked": self.summary,
        }


# ---------------------------------------------------------------------------
# lint-tree
# ---------------------------------------------------------------------------


class LintTree(Workload):
    """The full ``repro lint src/repro`` gate, cold then warm."""

    name = "lint-tree"

    def setup(self, seed, tmp):
        import repro.lint.cli
        import repro.lint.effects  # noqa: F401  (imported, not timed)
        import repro.lint.flow  # noqa: F401
        import repro.lint.perf  # noqa: F401

        self.cli = repro.lint.cli
        self.tmp = tmp
        self.count = 0
        self.reference: Optional[str] = None
        self.checked: Dict[str, Any] = {}
        return {}

    def _lint(self, cache: pathlib.Path):
        args = [
            "src/repro", "--flow", "--effects", "--perf",
            "--baseline", "lint-baseline.json", "--format", "json",
            "--flow-cache", str(cache / "flow.json"),
            "--effects-cache", str(cache / "effects.json"),
            "--perf-cache", str(cache / "perf.json"),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, seconds = _timed(lambda: self.cli.main(args))
        return code, json.loads(out.getvalue()), seconds

    def run_pass(self):
        self.count += 1
        cache = self.tmp / f"lint-cache-{self.count}"
        cache.mkdir()
        ops = []
        counters: Dict[str, float] = {}
        self.calibrated([])
        for leg in ("cold", "warm"):
            try:
                code, report, seconds = self._lint(cache)
            except Exception as exc:
                print(f"lint {leg} raised {exc!r}")
                ops.append(Op(leg, 0.0, False, 0))
                continue
            got = digest(report)
            if self.reference is None:
                self.reference = got
            # Reference: clean modulo the committed lint-baseline.json,
            # and every pass, cold or warm, reports the same findings.
            ok = code == 0 and got == self.reference
            if not ok:
                print(f"lint {leg}: exit {code}, digest {got}")
            files = report["summary"]["files_scanned"]
            ops.append(Op(leg, seconds, ok, files))
            self.calibrated(ops[-1:])
            if leg == "cold":
                counters["lint.cache_bytes"] = float(
                    sum(f.stat().st_size for f in cache.iterdir())
                )
            counters["lint.files"] = float(files)
            counters["lint.findings"] = float(
                len(report["findings"]) + len(report["suppressed"])
            )
            self.checked = {"summary": report["summary"], "digest": got}
        return Pass(ops, counters)

    def summarize(self, passes):
        cold = [op for p in passes for op in p.ops if op.kind == "cold"]
        warm = [
            op.seconds for p in passes for op in p.ops if op.kind == "warm"
        ]
        files_per_s = rate(passes, ("cold",))
        walls = [p.seconds for p in passes]
        return {
            "metrics": {
                "wall_s": median_of(walls),
                "ops_per_s": files_per_s,
                "secondary_s": median_of(warm),
            },
            "named": {
                "lint_cold_s": (median_of([op.seconds for op in cold]), "s"),
                "lint_warm_s": (median_of(warm), "s"),
            },
            "timings": {
                "pass_s": timing(walls),
                "cold_s": timing([op.seconds for op in cold]),
                "warm_s": timing(warm),
            },
            "checked": self.checked,
        }


WORKLOADS = {
    cls.name: cls for cls in (Figures, BrokerTrace, ServiceStream, LintTree)
}
