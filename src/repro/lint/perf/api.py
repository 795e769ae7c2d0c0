"""The perf layer's entry point: files in, REP301-REP305 findings out.

``analyze_perf`` mirrors ``analyze_effects``: expand paths the same
way, anchor finding paths on the same ``root``, and return plain
:class:`Finding` objects the CLI concatenates with the other layers'
and hands to the same baseline partition and reporters.

Per file: hash the source, hit the perf cache or parse + extract
(:func:`repro.lint.cache.cached_extracts`), then build the call graph
over all summaries (the flow layer's builder, unchanged — perf
summaries carry identically-shaped ``calls`` and ``arg_flows``), close
the declared hot set over it, and generate REP301-REP304.  When a
committed call profile is present, REP305 fires for every measured-hot
function outside the static hot region.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Dict, List, Optional, Sequence

from repro.lint.cache import SummaryCache, cached_extracts
from repro.lint.effects.certificate import load_certificate
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, build_callgraph
from repro.lint.perf.extract import ANALYSIS_VERSION, PerfExtract, extract_perf
from repro.lint.perf.hotset import (
    PerfAnalysis,
    build_analysis,
    perf_findings,
)
from repro.lint.perf.profile import cross_validate, load_profile

__all__ = ["PerfResult", "analyze_perf", "DEFAULT_PERF_CACHE_NAME"]

DEFAULT_PERF_CACHE_NAME = ".repro-perf-cache.json"


@dataclasses.dataclass
class PerfResult:
    """Findings plus the analysis artifacts tests and tooling inspect."""

    findings: List[Finding]
    analysis: PerfAnalysis
    files_analyzed: int
    cache_hits: int
    cache_misses: int
    #: relpath -> sha256 of the analyzed source
    module_digests: Dict[str, str]

    @property
    def callgraph(self) -> CallGraph:
        return self.analysis.graph


def analyze_perf(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    cache_path: Optional[str | pathlib.Path] = None,
    certificate_path: Optional[str | pathlib.Path] = None,
    profile_path: Optional[str | pathlib.Path] = None,
) -> PerfResult:
    """Run the whole-program perf analysis over files and directories."""
    cache = SummaryCache(PerfExtract, "perf", ANALYSIS_VERSION, cache_path)
    extracts, sources, module_digests, _ = cached_extracts(
        paths, root, cache, extract_perf
    )

    graph = build_callgraph(extracts)
    analysis = build_analysis(extracts, graph)

    certificate_tiers: Optional[Dict[str, str]] = None
    if certificate_path is not None:
        certificate = load_certificate(certificate_path)
        if certificate is not None:
            functions = certificate.get("functions")
            if isinstance(functions, dict):
                certificate_tiers = {
                    str(k): str(v) for k, v in functions.items()
                }

    findings = perf_findings(analysis, sources, certificate_tiers)

    if profile_path is not None:
        profile = load_profile(profile_path)
        if profile is not None:
            findings.extend(
                _rep305_findings(profile, analysis, sources)
            )
    findings.sort(key=Finding.sort_key)

    return PerfResult(
        findings=findings,
        analysis=analysis,
        files_analyzed=len(extracts),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        module_digests=module_digests,
    )


def _rep305_findings(
    profile: Dict[str, object],
    analysis: PerfAnalysis,
    sources: Dict[str, Sequence[str]],
) -> List[Finding]:
    agreement = cross_validate(
        profile,
        hot_region=analysis.hot_region,
        declared=analysis.hot_entries,
        known=frozenset(analysis.locations),
    )
    findings: List[Finding] = []
    for qualname, share in agreement.undeclared_hot:
        relpath, line = analysis.locations.get(qualname, ("(profile)", 1))
        lines = sources.get(relpath, ())
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        findings.append(
            Finding(
                code="REP305",
                message=(
                    f"'{qualname}' holds {share:.2%} of profiled calls "
                    f"(threshold {agreement.threshold:.2%}) but is not "
                    f"in the declared hot region — declare it @hot or "
                    f"shrink the workload's reliance on it"
                ),
                path=relpath,
                line=line,
                col=1,
                snippet=snippet,
            )
        )
    return findings
