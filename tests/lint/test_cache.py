"""The summary cache the flow, effect and perf layers share.

One parametrized contract per layer: cold runs miss and warm runs hit
with identical findings; a corrupt file or an analyzer-version skew
degrades to a full re-extract; and the file is rewritten only when an
entry changed.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil

import pytest

from repro.lint.effects import analyze_effects
from repro.lint.flow import analyze_paths
from repro.lint.perf import analyze_perf

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: layer -> (analyze function, fixture dir, two module relpaths in it,
#: the codes their findings carry)
LAYERS = {
    "flow": (
        analyze_paths,
        "flow/rep101_bad",
        ["src/repro/broker/timeutil.py", "src/repro/broker/writer.py"],
        ["REP101"],
    ),
    "effects": (
        analyze_effects,
        "effects",
        ["rep202_bad.py", "rep202_good.py"],
        ["REP202"],
    ),
    "perf": (
        analyze_perf,
        "perf",
        ["rep301_bad.py", "rep301_good.py"],
        ["REP301"],
    ),
}


@pytest.fixture(params=sorted(LAYERS))
def layer(request, tmp_path):
    """(run, cache file, relpaths, expected codes) over a two-module root."""
    analyze, fixture_dir, relpaths, codes = LAYERS[request.param]
    for relpath in relpaths:
        dest = tmp_path / relpath
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(FIXTURES / fixture_dir / relpath, dest)
    cache = tmp_path / "cache.json"

    def run():
        return analyze(
            [tmp_path / r for r in relpaths], root=tmp_path, cache_path=cache
        )

    return run, cache, relpaths, codes


def counts(result):
    return result.cache_hits, result.cache_misses


def test_summary_cache_contract(layer):
    run, cache, _, codes = layer
    cold = run()
    assert counts(cold) == (0, 2)
    assert sorted({f.code for f in cold.findings}) == codes

    warm = run()
    assert counts(warm) == (2, 0)
    assert warm.findings == cold.findings

    # A corrupt file degrades to a full re-extract, and the save repairs it.
    cache.write_text("{definitely not json")
    corrupt = run()
    assert counts(corrupt) == (0, 2)
    assert corrupt.findings == cold.findings
    assert counts(run()) == (2, 0)

    # A file stamped by another extractor revision is discarded wholesale.
    data = json.loads(cache.read_text())
    data["analysis_version"] = -1
    cache.write_text(json.dumps(data, sort_keys=True))
    stale = run()
    assert counts(stale) == (0, 2)
    assert stale.findings == cold.findings


def test_cache_file_is_written_only_when_an_entry_changed(layer):
    run, cache, relpaths, _ = layer
    run()
    before = cache.read_bytes()
    # Backdate the file so any rewrite shows, however coarse the clock.
    os.utime(cache, ns=(10**9, 10**9))

    assert counts(run()) == (2, 0)
    assert cache.read_bytes() == before
    assert cache.stat().st_mtime_ns == 10**9

    edited = cache.parent / relpaths[0]
    edited.write_text(edited.read_text() + "\n# touched\n")
    assert counts(run()) == (1, 1)
    assert cache.stat().st_mtime_ns != 10**9
    old = json.loads(before)["modules"]
    new = json.loads(cache.read_text())["modules"]
    assert sorted(new) == sorted(old) == sorted(relpaths)
    assert [r for r in relpaths if new[r] != old[r]] == [relpaths[0]]
