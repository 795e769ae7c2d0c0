"""Per-module extraction: serializable local dataflow summaries.

One parse per module produces, for every function (and for the module
body itself, as the synthetic function ``<module>``):

- ``ret_atoms`` — what the return value depends on, as *atoms*:
  ``source:clock|env|rng`` (a direct nondeterministic read),
  ``call:<qualname>`` (the return value of a callee), and
  ``param:<name>`` (a formal parameter).
- ``sink_flows`` — durable-writer calls with the atoms of their
  arguments.
- ``arg_flows`` — arguments passed to resolvable callees with their
  atoms (how taint crosses call edges into wrapper sinks).
- ``calls`` — resolved call edges, each with the exception names any
  enclosing ``except`` clauses would catch.
- ``raises`` — builtin exceptions raised directly and not caught
  locally (the REP103 seed; REP005's builtin table is reused).
- ``direct_sources`` / ``io_calls`` — the purity facts.

Atoms are plain strings and every summary is a JSON-ready dict, so the
whole extract is cacheable per module keyed by content hash; the
cross-module propagation that turns summaries into findings is cheap
and re-runs every time (see :mod:`repro.lint.flow.propagate`).

The intra-function dataflow is flow-insensitive per variable and
iterates the statement walk twice, so atoms reach fixpoint through
loops and re-assignments.  Instance attribute state (``self.x = ...``)
and closures over enclosing locals are not tracked — documented
soundness caveats.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.flow.ruledefs import (
    CLOCK_SOURCES,
    DURABLE_SINKS,
    RNG_GLOBAL_SOURCES,
    RNG_SEEDED_CONSTRUCTORS,
    SOURCE_ALLOWLIST,
    TAINT_CLOCK,
    TAINT_ENV,
    TAINT_RNG,
)
from repro.lint.flow.symbols import ModuleSymbols, dotted, module_name_for
from repro.lint.rules.rep005_repro_errors import BUILTIN_EXCEPTIONS

__all__ = ["FunctionSummary", "ModuleExtract", "extract_module"]

#: Extractor revision stamped into the summary cache (``repro.lint.cache``);
#: bump it whenever this module changes what a summary contains or means.
ANALYSIS_VERSION = 1

MODULE_BODY = "<module>"

#: Surface attribute names whose call marks the function as doing I/O.
_IO_ATTR_CALLS = frozenset({"write", "write_text", "write_bytes"})
_IO_CALLS = frozenset({"open", "os.replace", "os.rename", "os.fsync"})

#: Builtin exception → builtin subclasses an ``except`` for it covers.
_BUILTIN_SUBCLASSES: Dict[str, Set[str]] = {
    "LookupError": {"KeyError", "IndexError"},
    "ArithmeticError": {"ZeroDivisionError", "OverflowError"},
    "OSError": {"IOError"},
    "ValueError": {"UnicodeError"},
}


def handler_covers(caught: Sequence[str], exc: str) -> bool:
    """Whether any caught-name in ``caught`` swallows builtin ``exc``."""
    for name in caught:
        if name in ("*", "BaseException", "Exception"):
            return True
        if name == exc or exc in _BUILTIN_SUBCLASSES.get(name, ()):
            return True
    return False


@dataclasses.dataclass
class FunctionSummary:
    """Local (callee-independent) dataflow facts of one function."""

    qualname: str
    lineno: int
    params: Tuple[str, ...]
    is_public: bool
    is_method: bool
    ret_atoms: List[str] = dataclasses.field(default_factory=list)
    direct_sources: Dict[str, int] = dataclasses.field(default_factory=dict)
    calls: List[Tuple[str, int, Tuple[str, ...]]] = dataclasses.field(
        default_factory=list
    )
    sink_flows: List[Tuple[str, int, Tuple[str, ...]]] = dataclasses.field(
        default_factory=list
    )
    arg_flows: List[
        Tuple[str, int, Tuple[Tuple[str, ...], ...], Dict[str, Tuple[str, ...]]]
    ] = dataclasses.field(default_factory=list)
    raises: Dict[str, int] = dataclasses.field(default_factory=dict)
    io_calls: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "params": list(self.params),
            "is_public": self.is_public,
            "is_method": self.is_method,
            "ret_atoms": sorted(self.ret_atoms),
            "direct_sources": dict(self.direct_sources),
            "calls": [[c, ln, list(caught)] for c, ln, caught in self.calls],
            "sink_flows": [
                [s, ln, sorted(atoms)] for s, ln, atoms in self.sink_flows
            ],
            "arg_flows": [
                [
                    callee,
                    ln,
                    [sorted(a) for a in pos],
                    {k: sorted(v) for k, v in sorted(kw.items())},
                ]
                for callee, ln, pos, kw in self.arg_flows
            ],
            "raises": dict(self.raises),
            "io_calls": self.io_calls,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=str(data["qualname"]),
            lineno=int(data["lineno"]),
            params=tuple(data["params"]),
            is_public=bool(data["is_public"]),
            is_method=bool(data["is_method"]),
            ret_atoms=list(data["ret_atoms"]),
            direct_sources={
                str(k): int(v) for k, v in data["direct_sources"].items()
            },
            calls=[
                (str(c), int(ln), tuple(caught))
                for c, ln, caught in data["calls"]
            ],
            sink_flows=[
                (str(s), int(ln), tuple(atoms))
                for s, ln, atoms in data["sink_flows"]
            ],
            arg_flows=[
                (
                    str(callee),
                    int(ln),
                    tuple(tuple(a) for a in pos),
                    {str(k): tuple(v) for k, v in kw.items()},
                )
                for callee, ln, pos, kw in data["arg_flows"]
            ],
            raises={str(k): int(v) for k, v in data["raises"].items()},
            io_calls=int(data.get("io_calls", 0)),
        )


@dataclasses.dataclass
class ModuleExtract:
    """Everything the propagation pass needs about one module."""

    relpath: str
    module: str
    functions: Dict[str, FunctionSummary]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "relpath": self.relpath,
            "module": self.module,
            "functions": {
                name: fn.to_dict()
                for name, fn in sorted(self.functions.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModuleExtract":
        return cls(
            relpath=str(data["relpath"]),
            module=str(data["module"]),
            functions={
                str(name): FunctionSummary.from_dict(fn)
                for name, fn in data["functions"].items()
            },
        )


def extract_module(tree: ast.Module, relpath: str) -> ModuleExtract:
    """Extract every function summary from one parsed module."""
    posix = relpath.replace("\\", "/")
    module = module_name_for(posix)
    is_package = posix.endswith("__init__.py")
    symbols = ModuleSymbols.collect(tree, module, is_package=is_package)
    allowlisted = any(posix.endswith(sfx) for sfx in SOURCE_ALLOWLIST)

    extract = ModuleExtract(relpath=posix, module=module, functions={})
    index = _DefIndex(module)
    index.scan(tree)

    # Module body first: its global atoms seed every function walker.
    body_walker = _FunctionWalker(
        qualname=f"{module}.{MODULE_BODY}" if module else MODULE_BODY,
        lineno=1,
        params=(),
        is_public=False,
        is_method=False,
        symbols=symbols,
        index=index,
        allowlisted=allowlisted,
        globals_env={},
        cls=None,
    )
    module_stmts = [
        s
        for s in tree.body
        if not isinstance(
            s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    summary = body_walker.run(module_stmts)
    extract.functions[summary.qualname] = summary
    globals_env = body_walker.env

    for qualname, node, cls in index.definitions:
        walker = _FunctionWalker(
            qualname=qualname,
            lineno=node.lineno,
            params=_param_names(node),
            is_public=_is_public(qualname, module),
            is_method=cls is not None,
            symbols=symbols,
            index=index,
            allowlisted=allowlisted,
            globals_env=globals_env,
            cls=cls,
        )
        extract.functions[qualname] = walker.run(node.body)
    return extract


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


def _is_public(qualname: str, module: str) -> bool:
    local = qualname[len(module) + 1 :] if module else qualname
    return not any(part.startswith("_") for part in local.split("."))


class _DefIndex:
    """All function/method definitions of a module, in source order."""

    def __init__(self, module: str) -> None:
        self.module = module
        #: (qualname, def node, owning class name or None)
        self.definitions: List[
            Tuple[str, ast.AST, Optional[str]]
        ] = []
        self.by_qualname: Dict[str, Tuple[str, ...]] = {}

    def scan(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            self._scan_node(stmt, prefix=self.module, cls=None)

    def _scan_node(
        self, node: ast.AST, prefix: str, cls: Optional[str]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}.{node.name}" if prefix else node.name
            self.definitions.append((qual, node, cls))
            self.by_qualname[qual] = _param_names(node)
            for child in node.body:
                self._scan_node(child, prefix=qual, cls=None)
        elif isinstance(node, ast.ClassDef):
            qual = f"{prefix}.{node.name}" if prefix else node.name
            for child in node.body:
                self._scan_node(child, prefix=qual, cls=node.name)


class _FunctionWalker:
    """Two-pass flow-insensitive atom propagation over one body."""

    def __init__(
        self,
        *,
        qualname: str,
        lineno: int,
        params: Tuple[str, ...],
        is_public: bool,
        is_method: bool,
        symbols: ModuleSymbols,
        index: _DefIndex,
        allowlisted: bool,
        globals_env: Dict[str, Set[str]],
        cls: Optional[str],
    ) -> None:
        self.summary = FunctionSummary(
            qualname=qualname,
            lineno=lineno,
            params=params,
            is_public=is_public,
            is_method=is_method,
        )
        self.symbols = symbols
        self.index = index
        self.allowlisted = allowlisted
        self.globals_env = globals_env
        self.cls = cls
        self.env: Dict[str, Set[str]] = {}
        self._ret: Set[str] = set()
        self._caught: Tuple[str, ...] = ()
        self._collect = False

    def run(self, body: Sequence[ast.stmt]) -> FunctionSummary:
        self._collect = False
        self._walk(body)
        self._collect = True
        self._walk(body)
        self.summary.ret_atoms = sorted(self._ret)
        return self.summary

    # ---- statements --------------------------------------------------

    def _walk(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are indexed and summarized separately
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            atoms = self._atoms(value) if value is not None else set()
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                for name in _target_names(target):
                    self.env.setdefault(name, set()).update(atoms)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._ret |= self._atoms(stmt.value)
            return
        if isinstance(stmt, ast.Raise):
            self._raise(stmt)
            return
        if isinstance(stmt, ast.Try):
            caught = self._caught
            names = _handler_names(stmt.handlers)
            self._caught = caught + names
            self._walk(stmt.body)
            self._caught = caught
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            atoms = self._atoms(stmt.iter)
            for name in _target_names(stmt.target):
                self.env.setdefault(name, set()).update(atoms)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                atoms = self._atoms(item.context_expr)
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        self.env.setdefault(name, set()).update(atoms)
            self._walk(stmt.body)
            return
        # Generic fallback (If, While, Match, Expr, Assert, ...): evaluate
        # expression children, recurse into statement-list children.
        for field in ast.iter_fields(stmt):
            _, value = field
            if isinstance(value, ast.expr):
                self._atoms(value)
            elif isinstance(value, list):
                exprs = [v for v in value if isinstance(v, ast.expr)]
                for expr in exprs:
                    self._atoms(expr)
                inner = [v for v in value if isinstance(v, ast.stmt)]
                if inner:
                    self._walk(inner)
                for v in value:
                    if hasattr(ast, "match_case") and isinstance(
                        v, ast.match_case
                    ):
                        self._walk(v.body)

    def _raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is not None:
            self._atoms(stmt.exc)
        if stmt.cause is not None:
            self._atoms(stmt.cause)
        if not self._collect or stmt.exc is None:
            return
        target = (
            stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        )
        name = self.symbols.resolve(dotted(target))
        leaf = name.rsplit(".", 1)[-1] if name else ""
        if leaf in BUILTIN_EXCEPTIONS and name == leaf:
            if not handler_covers(self._caught, leaf):
                self.summary.raises.setdefault(leaf, stmt.lineno)

    # ---- expressions -------------------------------------------------

    def _atoms(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None or isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, ast.Name):
            return self._name_atoms(node)
        if isinstance(node, ast.Attribute):
            resolved = self._resolve(dotted(node))
            if resolved == "os.environ" or resolved.startswith(
                "os.environ."
            ):
                return self._source(TAINT_ENV, node.lineno)
            return self._atoms(node.value)
        result: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                result |= self._atoms(child)
            elif isinstance(child, ast.arguments):
                continue  # lambda signature
        if isinstance(node, ast.Lambda):
            result |= self._atoms(node.body)
        return result

    def _name_atoms(self, node: ast.Name) -> Set[str]:
        result: Set[str] = set(self.env.get(node.id, ()))
        if node.id in self.summary.params:
            result.add(f"param:{node.id}")
        elif node.id not in self.env and node.id in self.globals_env:
            result |= self.globals_env[node.id]
        resolved = self._resolve(node.id)
        if resolved == "os.environ":
            result |= self._source(TAINT_ENV, node.lineno)
        return result

    def _call_atoms(self, node: ast.Call) -> Set[str]:
        pos_atoms: List[Set[str]] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                pos_atoms.append(self._atoms(arg.value))
            else:
                pos_atoms.append(self._atoms(arg))
        kw_atoms: Dict[str, Set[str]] = {}
        star_kw: Set[str] = set()
        for kw in node.keywords:
            if kw.arg is None:
                star_kw |= self._atoms(kw.value)
            else:
                kw_atoms[kw.arg] = self._atoms(kw.value)
        arg_union: Set[str] = set().union(*pos_atoms) if pos_atoms else set()
        for atoms in kw_atoms.values():
            arg_union |= atoms
        arg_union |= star_kw

        result = set(arg_union)
        callee = self._resolve_callee(node.func)
        if isinstance(node.func, ast.Attribute):
            result |= self._atoms(node.func.value)
        elif not isinstance(node.func, ast.Name):
            result |= self._atoms(node.func)

        kind = self._source_kind(callee, node)
        if kind is not None:
            result |= self._source(kind, node.lineno)
            return result

        if callee and self._is_io(callee, node.func):
            self.summary.io_calls += 1
        if callee in DURABLE_SINKS:
            self.summary.io_calls += 1
            if self._collect:
                self.summary.sink_flows.append(
                    (callee, node.lineno, tuple(sorted(arg_union)))
                )
            return result
        if callee:
            result.add(f"call:{callee}")
            if self._collect:
                self.summary.calls.append(
                    (callee, node.lineno, self._caught)
                )
                if arg_union or any(
                    a for a in pos_atoms
                ) or any(kw_atoms.values()):
                    self.summary.arg_flows.append(
                        (
                            callee,
                            node.lineno,
                            tuple(
                                tuple(sorted(a)) for a in pos_atoms
                            ),
                            {
                                k: tuple(sorted(v))
                                for k, v in kw_atoms.items()
                            },
                        )
                    )
        return result

    def _source(self, kind: str, lineno: int) -> Set[str]:
        if self._collect:
            self.summary.direct_sources.setdefault(kind, lineno)
        if self.allowlisted:
            return set()
        return {f"source:{kind}"}

    def _source_kind(
        self, callee: str, node: ast.Call
    ) -> Optional[str]:
        if not callee:
            return None
        if callee in CLOCK_SOURCES:
            return TAINT_CLOCK
        if callee == "os.getenv" or callee.startswith("os.environ"):
            return TAINT_ENV
        if callee in RNG_GLOBAL_SOURCES:
            return TAINT_RNG
        if callee in RNG_SEEDED_CONSTRUCTORS:
            if not node.args and not node.keywords:
                return TAINT_RNG
        return None

    def _is_io(self, callee: str, func: ast.expr) -> bool:
        if callee in _IO_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _IO_ATTR_CALLS:
            return True
        return False

    def _resolve(self, name: str) -> str:
        if not name:
            return ""
        return self.symbols.resolve(name)

    def _resolve_callee(self, func: ast.expr) -> str:
        name = dotted(func)
        if not name:
            return ""
        head, _, rest = name.partition(".")
        if head in ("self", "cls") and self.cls is not None and rest:
            candidate = (
                f"{self.symbols.module}.{self.cls}.{rest}"
                if self.symbols.module
                else f"{self.cls}.{rest}"
            )
            if candidate in self.index.by_qualname:
                return candidate
            return ""
        resolved = self.symbols.resolve(name)
        return resolved


def _handler_names(
    handlers: Sequence[ast.ExceptHandler],
) -> Tuple[str, ...]:
    """The exception names a try-statement's handlers catch; bare = '*'."""
    names: List[str] = []
    for handler in handlers:
        if handler.type is None:
            names.append("*")
        elif isinstance(handler.type, ast.Tuple):
            for element in handler.type.elts:
                name = dotted(element)
                if name:
                    names.append(name.rsplit(".", 1)[-1])
        else:
            name = dotted(handler.type)
            if name:
                names.append(name.rsplit(".", 1)[-1])
    return tuple(names)


def _target_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    if isinstance(target, (ast.Subscript, ast.Attribute)):
        # d[k] = tainted / obj.field = tainted: the mutation taints the
        # container itself, so a later write of `d` carries the taint.
        return _target_names(target.value)
    return []
