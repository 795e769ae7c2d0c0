"""One content-hash-keyed summary cache and the per-module loop over it.

The flow, effect and perf layers share one shape: parse each module,
extract a serializable per-module summary, then propagate over all of
them.  Extraction dominates a run; propagation is cheap and re-runs
every time.  :class:`SummaryCache` therefore stores exactly each
module's extract, keyed by the SHA-256 of the module *source text* —
any edit invalidates precisely that module's entry, and path moves key
afresh under the new relpath.

The file is one durable canonical-JSON document (the same
``atomic_write_json`` the rest of the framework uses, which also keeps
the cache itself inside the REP003 serialization contract), stamped
with the layer's ``ANALYSIS_VERSION``: an unchanged source file would
otherwise replay a summary an older extractor produced.  A corrupt,
missing, or version-skewed cache is never an error: the analysis must
give the same answer with or without it, so any read problem degrades
to a full re-extract.  The file is written only when an entry changed,
so a warm run with no source edit leaves it untouched.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from repro.core.durable import StoreError, atomic_write_json, read_json_document
from repro.lint.engine import iter_python_files, relative_finding_path

__all__ = [
    "SummaryCache",
    "cached_extracts",
    "source_digest",
    "CACHE_FORMAT_VERSION",
]

CACHE_FORMAT_VERSION = 1

_T = TypeVar("_T")


class Extract(Protocol):
    """What the cache needs of a layer's per-module extract class."""

    def to_dict(self) -> Dict[str, Any]: ...

    @classmethod
    def from_dict(cls: Type[_T], data: Dict[str, Any]) -> _T: ...


E = TypeVar("E", bound=Extract)


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class SummaryCache(Generic[E]):
    """One layer's per-module extract store; counts hits/misses."""

    def __init__(
        self,
        extract_cls: Type[E],
        label: str,
        analysis_version: int,
        path: Optional[str | pathlib.Path] = None,
    ) -> None:
        self.extract_cls = extract_cls
        self.label = label
        self.analysis_version = analysis_version
        self.path = pathlib.Path(path) if path is not None else None
        self._modules: Dict[str, Dict[str, Any]] = {}
        self._changed = False
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._modules = self._read(self.path)

    def _read(self, path: pathlib.Path) -> Dict[str, Dict[str, Any]]:
        try:
            data = read_json_document(
                path,
                f"{self.label} summary cache",
                expected_version=CACHE_FORMAT_VERSION,
            )
        except StoreError:
            return {}  # unreadable cache == no cache
        if data.get("analysis_version") != self.analysis_version:
            return {}  # produced by a different extractor revision
        modules = data.get("modules")
        return modules if isinstance(modules, dict) else {}

    def get(self, relpath: str, digest: str) -> Optional[E]:
        entry = self._modules.get(relpath)
        if entry is None or entry.get("digest") != digest:
            self.misses += 1
            return None
        try:
            extract = self.extract_cls.from_dict(entry["extract"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return extract

    def put(self, relpath: str, digest: str, extract: E) -> None:
        self._modules[relpath] = {
            "digest": digest,
            "extract": extract.to_dict(),
        }
        self._changed = True

    def save(self) -> None:
        """Write the file, unless no entry changed since it was read."""
        if self.path is None or not self._changed:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            self.path,
            {
                "format_version": CACHE_FORMAT_VERSION,
                "analysis_version": self.analysis_version,
                "modules": self._modules,
            },
        )
        self._changed = False


def cached_extracts(
    paths: Sequence[str | pathlib.Path],
    root: Optional[str | pathlib.Path],
    cache: SummaryCache[E],
    extract_fn: Callable[[ast.Module, str], E],
    *,
    keep_tree: Optional[Callable[[str], bool]] = None,
) -> Tuple[
    List[E], Dict[str, Sequence[str]], Dict[str, str], Dict[str, ast.Module]
]:
    """Extract every module under ``paths``, replaying cache hits.

    Returns the extracts, the source lines of every file read, the
    source digest of every analyzed module (both keyed by the path
    relative to ``root``, default the working directory), and the
    parsed trees of the modules ``keep_tree`` selects.  Trees are
    parsed lazily: a miss hands over its extraction parse, a hit parses
    only when its tree is asked for, so no module is parsed twice.
    Files that do not parse are skipped — the intraprocedural engine
    already reports them as REP000, and a broken module contributes no
    summary rather than aborting the whole-program pass.  The cache is
    saved before returning.
    """
    rootpath = pathlib.Path(root) if root is not None else pathlib.Path.cwd()
    extracts: List[E] = []
    sources: Dict[str, Sequence[str]] = {}
    digests: Dict[str, str] = {}
    trees: Dict[str, ast.Module] = {}
    for path in iter_python_files([pathlib.Path(p) for p in paths]):
        relpath = relative_finding_path(path, rootpath)
        source = path.read_text(encoding="utf-8")
        sources[relpath] = source.splitlines()
        digest = source_digest(source)
        extract = cache.get(relpath, digest)
        wants_tree = keep_tree is not None and keep_tree(relpath)
        if extract is None or wants_tree:
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue  # REP000 is the engine's report, not ours
            if wants_tree:
                trees[relpath] = tree
            if extract is None:
                extract = extract_fn(tree, relpath)
                cache.put(relpath, digest, extract)
        extracts.append(extract)
        digests[relpath] = digest
    cache.save()
    return extracts, sources, digests, trees
