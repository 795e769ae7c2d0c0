"""The effect layer's entry point: files in, REP201-REP205 findings out.

``analyze_effects`` is to the effect layer what ``analyze_paths`` is to
the flow layer: it expands paths the same way, anchors finding paths on
the same ``root``, and returns plain :class:`Finding` objects the CLI
concatenates with the other layers' and hands to the same baseline
partition and reporters.

Per file: hash the source, hit the effect cache or parse + extract
(:func:`repro.lint.cache.cached_extracts`), then build the call graph
over all summaries (the flow layer's builder, unchanged — effect
summaries carry identically-shaped ``calls`` and ``arg_flows``),
propagate, and generate findings.  When a committed determinism
certificate is present, tier regressions against it are reported as
REP205 findings anchored on the demoted function's definition line.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Dict, List, Optional, Sequence

from repro.lint.cache import SummaryCache, cached_extracts
from repro.lint.findings import Finding
from repro.lint.effects.certificate import (
    certificate_demotions,
    load_certificate,
)
from repro.lint.effects.extract import (
    ANALYSIS_VERSION,
    EffectExtract,
    extract_effects,
)
from repro.lint.effects.propagate import (
    EffectAnalysis,
    effect_findings,
    propagate_effects,
)
from repro.lint.flow.callgraph import CallGraph, build_callgraph

__all__ = ["EffectResult", "analyze_effects", "DEFAULT_EFFECT_CACHE_NAME"]

DEFAULT_EFFECT_CACHE_NAME = ".repro-effects-cache.json"


@dataclasses.dataclass
class EffectResult:
    """Findings plus the analysis artifacts tests and tooling inspect."""

    findings: List[Finding]
    analysis: EffectAnalysis
    files_analyzed: int
    cache_hits: int
    cache_misses: int
    #: relpath -> sha256 of the analyzed source (certificate input)
    module_digests: Dict[str, str]

    @property
    def callgraph(self) -> CallGraph:
        return self.analysis.graph


def analyze_effects(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    cache_path: Optional[str | pathlib.Path] = None,
    certificate_path: Optional[str | pathlib.Path] = None,
) -> EffectResult:
    """Run the whole-program effect analysis over files and directories."""
    cache = SummaryCache(EffectExtract, "effect", ANALYSIS_VERSION, cache_path)
    extracts, sources, module_digests, _ = cached_extracts(
        paths, root, cache, extract_effects
    )

    graph = build_callgraph(extracts)
    analysis = propagate_effects(extracts, graph)
    findings = effect_findings(analysis, sources)

    if certificate_path is not None:
        certificate = load_certificate(certificate_path)
        if certificate is not None:
            findings.extend(
                _demotion_findings(certificate, analysis, sources)
            )
    findings.sort(key=Finding.sort_key)

    return EffectResult(
        findings=findings,
        analysis=analysis,
        files_analyzed=len(extracts),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        module_digests=module_digests,
    )


def _demotion_findings(
    certificate: Dict[str, object],
    analysis: EffectAnalysis,
    sources: Dict[str, Sequence[str]],
) -> List[Finding]:
    findings: List[Finding] = []
    for qualname, certified, current in certificate_demotions(
        certificate, analysis
    ):
        summary = analysis.summary_of(qualname)
        relpath, line = "", 1
        for extract in analysis.extracts:
            if qualname in extract.functions:
                relpath = extract.relpath
                break
        if summary is not None:
            line = summary.lineno
        lines = sources.get(relpath, ())
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        findings.append(
            Finding(
                code="REP205",
                message=(
                    f"'{qualname}' is certified '{certified}' in the "
                    f"determinism certificate but now analyzes as "
                    f"'{current}' "
                    f"(effects: {analysis.effect_words(qualname)})"
                ),
                path=relpath or "(deleted)",
                line=line,
                col=1,
                snippet=snippet,
            )
        )
    return findings
