"""Layer spans for the traced benchmark run.

The tracer wraps the public entry points of each ``repro`` layer from
outside the package: it replaces a function or method with a wrapper
that records a span (layer, key, start, end) on an in-memory stack and
restores the original on :meth:`Tracer.uninstall`.  Nothing under
``src/`` is edited, so the untraced run executes exactly the shipped
code.

A span's *self* time is its duration minus the time covered by the
spans it caused (its children on the stack).  Self time is summed per
layer; inclusive time per key; calls per key.  Time inside a timed
operation that no span covers is the unattributed remainder.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

perf_counter = time.perf_counter


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.key_busy: Dict[str, float] = defaultdict(float)
        self.key_calls: Dict[str, int] = defaultdict(int)
        self.covered = 0.0
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span recording --------------------------------------------------

    def _wrap(
        self, fn: Callable, layer: str, key: str, tally=None
    ) -> Callable:
        stack = self._stack
        layer_self = self.layer_self
        key_busy = self.key_busy
        key_calls = self.key_calls
        tracer = self

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    key_calls[tally[0]] += tally[1](result)
                return result
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                layer_self[layer] += duration - frame[1]
                key_busy[key] += duration
                key_calls[key] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.covered += duration

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn: Callable, key: str) -> Callable:
        key_calls = self.key_calls

        def counted(*args, **kwargs):
            key_calls[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, name: str, layer: str, key: str) -> None:
        """Span every module-level binding of ``module.name``.

        ``from x import f`` copies the function object into the importing
        module, so every loaded ``repro`` module holding the same object
        is patched too.
        """
        original = getattr(sys.modules[module], name)
        wrapped = self._wrap(original, layer, key)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def method(
        self, cls: type, name: str, layer: str, key: str, *,
        count_only=False, tally=None,
    ) -> None:
        """Span (or only count) calls of ``cls.name`` as defined on ``cls``.

        ``tally`` is ``(counter key, result -> int)``: a count read off
        each call's return value.
        """
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            inner = raw.__func__
            wrapped = (
                self._count(inner, key) if count_only
                else self._wrap(inner, layer, key)
            )
            self._set(cls, name, type(raw)(wrapped))
        else:
            wrapped = (
                self._count(raw, key) if count_only
                else self._wrap(raw, layer, key, tally)
            )
            self._set(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.key_calls.get(key, 0)

    def busy(self, key: str) -> float:
        return self.key_busy.get(key, 0.0)


def _methods(cls: type, names) -> List[str]:
    return [name for name in names if name in cls.__dict__]


#: Every layer whose self time the traced run reports as a share.
LAYERS = (
    "workloads", "datagen", "apps", "middleware", "simgrid", "core",
    "service", "broker", "lint",
)

_APP_METHODS = (
    "begin", "make_local_object", "process_chunk", "object_nbytes",
    "combine", "merge_local", "update", "result", "broadcast_nbytes",
)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads touch."""
    import repro.apps  # noqa: F401  (loads every kernel class)
    import repro.broker.engine
    import repro.core
    import repro.core.fingerprint
    import repro.core.heterogeneous
    import repro.core.models
    import repro.core.profile
    import repro.datagen
    import repro.lint.cli
    import repro.lint.effects
    import repro.lint.engine
    import repro.lint.flow
    import repro.lint.perf
    import repro.middleware.runtime
    import repro.service.app
    import repro.simgrid.disk
    import repro.simgrid.engine
    import repro.simgrid.hardware
    import repro.simgrid.network
    import repro.workloads.experiments
    import repro.workloads.traces
    from repro.middleware.api import GeneralizedReduction

    tracer.function(
        "repro.workloads.experiments", "run_experiment", "workloads",
        "workloads.run_experiment",
    )
    tracer.method(
        repro.workloads.traces.TraceWorkload, "from_spec", "workloads",
        "workloads.trace_build",
    )

    for module, name in (
        ("repro.datagen.points", "make_point_dataset"),
        ("repro.datagen.points", "make_training_dataset"),
        ("repro.datagen.cfd", "make_field_dataset"),
        ("repro.datagen.lattice", "make_lattice_dataset"),
        ("repro.datagen.transactions", "make_transaction_dataset"),
    ):
        tracer.function(module, name, "datagen", "datagen.dataset")

    for cls in GeneralizedReduction.__subclasses__():
        for name in _methods(cls, _APP_METHODS):
            key = "apps.chunk" if name == "process_chunk" else "apps.call"
            tracer.method(cls, name, "apps", f"{key}.{cls.name}")
    for name in _methods(GeneralizedReduction, _APP_METHODS):
        tracer.method(GeneralizedReduction, name, "apps", "apps.call.base")

    tracer.method(
        repro.middleware.runtime.FreerideGRuntime, "execute", "middleware",
        "middleware.run",
        tally=("middleware.pass", lambda run: run.breakdown.num_passes),
    )

    hardware = repro.simgrid.hardware
    network = repro.simgrid.network
    for cls, names in (
        (hardware.CPUSpec, ("compute_time",)),
        (hardware.DiskSpec, ("read_time",)),
        (hardware.NICSpec, ("send_time",)),
        (hardware.ClusterSpec, ("gather_message_time",)),
        (network.LinkModel, ("message_time", "stream_time")),
        (network.CommCostModel, ("gather_time", "tree_gather_time")),
        (repro.simgrid.disk.RepositoryDiskSystem, ("retrieval_time",)),
        (repro.simgrid.engine.Simulator, ("run",)),
    ):
        for name in _methods(cls, names):
            tracer.method(cls, name, "simgrid", "simgrid.call")
    tracer.method(
        network.CommCostModel, "fit_for_cluster", "simgrid", "core.comm_fit"
    )

    models = repro.core.models
    pending, seen = [models.PredictionModel], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "predict" in cls.__dict__ and not getattr(
            cls.__dict__["predict"], "__isabstractmethod__", False
        ):
            tracer.method(cls, "predict", "core", "core.predict")
    tracer.function(
        "repro.core.fingerprint", "prediction_fingerprint", "core",
        "core.fingerprint",
    )
    tracer.method(repro.core.profile.Profile, "from_run", "core", "core.other")
    tracer.function(
        "repro.core.heterogeneous", "measure_scaling_factors", "core",
        "core.other",
    )

    service = repro.service.app.PredictionService
    tracer.method(service, "handle", "service", "service.request")
    tracer.method(service, "metrics", "service", "service.scrape")

    broker = repro.broker.engine.GridBroker
    tracer.method(broker, "run", "broker", "broker.run")
    tracer.method(
        broker, "_execute", "broker", "broker.exec_lookup", count_only=True
    )

    tracer.function("repro.lint.engine", "lint_paths", "lint", "lint.rules")
    tracer.function("repro.lint.flow", "analyze_paths", "lint", "lint.flow")
    tracer.function(
        "repro.lint.effects", "analyze_effects", "lint", "lint.effects"
    )
    tracer.function("repro.lint.perf", "analyze_perf", "lint", "lint.perf")
    tracer.function(
        "repro.lint.cli", "run_lint_command", "lint", "lint.command"
    )
