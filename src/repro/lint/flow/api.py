"""The flow layer's entry point: files in, REP101-REP104 findings out.

``analyze_paths`` is to the flow layer what ``lint_paths`` is to the
intraprocedural engine.  It expands paths the same way, anchors finding
paths on the same ``root``, and returns plain :class:`Finding` objects,
so the CLI can concatenate both result lists and hand them to the same
baseline partition and reporters.

Per file: hash the source, hit the summary cache or parse + extract
(:func:`repro.lint.cache.cached_extracts`), then build the call graph
over *all* summaries and run propagation.  REP104's unit check reuses
the same parse of each prediction-core module.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import List, Optional, Sequence

from repro.lint.cache import SummaryCache, cached_extracts
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, build_callgraph
from repro.lint.flow.extract import (
    ANALYSIS_VERSION,
    ModuleExtract,
    extract_module,
)
from repro.lint.flow.propagate import FlowAnalysis, flow_findings, propagate
from repro.lint.flow.units import applies_to_units, check_units

__all__ = ["FlowResult", "analyze_paths"]


@dataclasses.dataclass
class FlowResult:
    """Findings plus the analysis artifacts tests and tooling inspect."""

    findings: List[Finding]
    analysis: FlowAnalysis
    files_analyzed: int
    cache_hits: int
    cache_misses: int

    @property
    def callgraph(self) -> CallGraph:
        return self.analysis.graph


def analyze_paths(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    cache_path: Optional[str | pathlib.Path] = None,
) -> FlowResult:
    """Run the whole-program analysis over files and directories."""
    cache = SummaryCache(ModuleExtract, "flow", ANALYSIS_VERSION, cache_path)
    extracts, sources, _, trees = cached_extracts(
        paths, root, cache, extract_module, keep_tree=applies_to_units
    )

    graph = build_callgraph(extracts)
    analysis = propagate(extracts, graph)
    findings = flow_findings(analysis, sources)
    findings.extend(check_units(list(trees.items()), sources))
    findings.sort(key=Finding.sort_key)

    return FlowResult(
        findings=findings,
        analysis=analysis,
        files_analyzed=len(extracts),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
