"""Per-module effect extraction: serializable local effect summaries.

One parse per module produces, for every function (and the module body
as the synthetic ``<module>``), the *local* effect facts the bottom-up
propagation pass closes over the call graph:

- ``direct`` — effect kinds observed in the body itself (``ambient``,
  ``global-write``, ``param-mutation``, ``io``), with the first line
  and a short human detail for messages.
- ``global_writes`` / ``param_mutations`` — the individual write and
  mutation sites (name, line), for REP201/REP204 anchoring.
- ``returned_params`` / ``mutable_defaults`` — REP204's two local
  shapes: a bare ``return param`` after mutating it, and a mutable
  default argument.
- ``submits`` / ``closure_submits`` — callables handed across an
  executor boundary (REP202/REP205).  Executors are tracked as a value
  mark, so ``with ProcessPoolExecutor() as ex:`` and plain assignment
  both work.
- ``sink_flows`` / ``arg_flows`` / ``ret_atoms`` — order-sensitivity
  taint: ``setlike`` marks a set-typed value, ``unordered`` marks a
  value derived from *iterating* one; ``sorted()`` and friends launder
  both (REP203).
- ``calls`` — resolved call edges; shaped exactly like the flow
  layer's so :func:`repro.lint.flow.callgraph.build_callgraph` works
  unchanged over effect extracts.

The walker is the flow extractor's two-pass flow-insensitive scheme
(atoms reach fixpoint through loops and re-assignments) with the same
soundness caveats: instance-attribute state and dynamic dispatch are
not tracked, and a method mutating ``self`` does not propagate to the
caller's receiver value.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.effects.ruledefs import (
    AMBIENT_ALLOWLIST,
    AMBIENT_CALLS,
    AMBIENT_KIND_BY_CALL,
    EFFECT_AMBIENT,
    EFFECT_GLOBAL_WRITE,
    EFFECT_IO,
    EFFECT_PARAM_MUTATION,
    EXECUTOR_SUBMIT_ATTRS,
    EXECUTOR_TYPES,
    MUTATOR_ATTRS,
    ORDER_SANITIZERS,
    SET_CONSTRUCTORS,
    SET_RETURNING_ATTRS,
    UNSEEDED_RNG_CONSTRUCTORS,
)
from repro.lint.flow.extract import MODULE_BODY
from repro.lint.flow.ruledefs import DURABLE_SINKS
from repro.lint.flow.symbols import ModuleSymbols, dotted, module_name_for

__all__ = [
    "EffectSummary",
    "EffectExtract",
    "extract_effects",
    "ATOM_SETLIKE",
    "ATOM_UNORDERED",
]

#: Extractor revision stamped into the summary cache (``repro.lint.cache``);
#: bump it whenever this module changes what a summary contains or means.
ANALYSIS_VERSION = 1

#: Value marks carried in atom sets beside ``param:``/``call:`` atoms.
ATOM_SETLIKE = "setlike"  # the value is a set/frozenset
ATOM_UNORDERED = "unordered"  # derived from iterating an unordered value
ATOM_EXECUTOR = "executor"  # the value is a pool/executor instance

_IO_CALLS = frozenset({"open", "os.replace", "os.rename", "os.fsync"})
_IO_ATTR_CALLS = frozenset({"write", "write_text", "write_bytes"})

#: Calls that expose iteration order of their (first) argument.
_ITERATING_CALLS = frozenset(
    {"list", "tuple", "iter", "enumerate", "reversed", "next", "zip"}
)

#: Default-argument expressions that denote fresh mutable state.
_MUTABLE_DEFAULT_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)


@dataclasses.dataclass
class EffectSummary:
    """Local (callee-independent) effect facts of one function."""

    qualname: str
    lineno: int
    params: Tuple[str, ...]
    is_public: bool
    is_method: bool
    #: direct effect kind -> first line observed
    direct: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: direct effect kind -> short human detail ("time.time", "CACHE")
    detail: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: (module-level name written, line)
    global_writes: List[Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    #: (formal parameter mutated, line)
    param_mutations: List[Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    #: parameters returned bare (``return param``)
    returned_params: List[str] = dataclasses.field(default_factory=list)
    #: (parameter with a mutable default, line)
    mutable_defaults: List[Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    #: (display, line, captured enclosing names) — REP202 sites
    closure_submits: List[Tuple[str, int, Tuple[str, ...]]] = (
        dataclasses.field(default_factory=list)
    )
    #: (resolved qualname or '', line, display) — REP205 sites
    submits: List[Tuple[str, int, str]] = dataclasses.field(
        default_factory=list
    )
    #: durable-sink calls with the atoms of their arguments (REP203)
    sink_flows: List[Tuple[str, int, Tuple[str, ...]]] = dataclasses.field(
        default_factory=list
    )
    ret_atoms: List[str] = dataclasses.field(default_factory=list)
    calls: List[Tuple[str, int, Tuple[str, ...]]] = dataclasses.field(
        default_factory=list
    )
    arg_flows: List[
        Tuple[str, int, Tuple[Tuple[str, ...], ...], Dict[str, Tuple[str, ...]]]
    ] = dataclasses.field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "params": list(self.params),
            "is_public": self.is_public,
            "is_method": self.is_method,
            "direct": dict(self.direct),
            "detail": dict(self.detail),
            "global_writes": [[n, ln] for n, ln in self.global_writes],
            "param_mutations": [[n, ln] for n, ln in self.param_mutations],
            "returned_params": sorted(self.returned_params),
            "mutable_defaults": [[n, ln] for n, ln in self.mutable_defaults],
            "closure_submits": [
                [d, ln, list(captured)]
                for d, ln, captured in self.closure_submits
            ],
            "submits": [[q, ln, d] for q, ln, d in self.submits],
            "sink_flows": [
                [s, ln, sorted(atoms)] for s, ln, atoms in self.sink_flows
            ],
            "ret_atoms": sorted(self.ret_atoms),
            "calls": [[c, ln, list(caught)] for c, ln, caught in self.calls],
            "arg_flows": [
                [
                    callee,
                    ln,
                    [sorted(a) for a in pos],
                    {k: sorted(v) for k, v in sorted(kw.items())},
                ]
                for callee, ln, pos, kw in self.arg_flows
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EffectSummary":
        return cls(
            qualname=str(data["qualname"]),
            lineno=int(data["lineno"]),
            params=tuple(data["params"]),
            is_public=bool(data["is_public"]),
            is_method=bool(data["is_method"]),
            direct={str(k): int(v) for k, v in data["direct"].items()},
            detail={str(k): str(v) for k, v in data["detail"].items()},
            global_writes=[
                (str(n), int(ln)) for n, ln in data["global_writes"]
            ],
            param_mutations=[
                (str(n), int(ln)) for n, ln in data["param_mutations"]
            ],
            returned_params=[str(n) for n in data["returned_params"]],
            mutable_defaults=[
                (str(n), int(ln)) for n, ln in data["mutable_defaults"]
            ],
            closure_submits=[
                (str(d), int(ln), tuple(str(c) for c in captured))
                for d, ln, captured in data["closure_submits"]
            ],
            submits=[
                (str(q), int(ln), str(d)) for q, ln, d in data["submits"]
            ],
            sink_flows=[
                (str(s), int(ln), tuple(atoms))
                for s, ln, atoms in data["sink_flows"]
            ],
            ret_atoms=list(data["ret_atoms"]),
            calls=[
                (str(c), int(ln), tuple(caught))
                for c, ln, caught in data["calls"]
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
        )


@dataclasses.dataclass
class EffectExtract:
    """Everything effect propagation needs about one module."""

    relpath: str
    module: str
    functions: Dict[str, EffectSummary]

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
    def from_dict(cls, data: Dict[str, Any]) -> "EffectExtract":
        return cls(
            relpath=str(data["relpath"]),
            module=str(data["module"]),
            functions={
                str(name): EffectSummary.from_dict(fn)
                for name, fn in data["functions"].items()
            },
        )


def extract_effects(tree: ast.Module, relpath: str) -> EffectExtract:
    """Extract every function's effect summary from one parsed module."""
    posix = relpath.replace("\\", "/")
    module = module_name_for(posix)
    is_package = posix.endswith("__init__.py")
    symbols = ModuleSymbols.collect(tree, module, is_package=is_package)
    allowlisted = any(posix.endswith(sfx) for sfx in AMBIENT_ALLOWLIST)

    extract = EffectExtract(relpath=posix, module=module, functions={})
    index = _DefIndex(module)
    index.scan(tree)
    module_state = _module_level_names(tree)

    body_walker = _EffectWalker(
        qualname=f"{module}.{MODULE_BODY}" if module else MODULE_BODY,
        lineno=1,
        params=(),
        is_public=False,
        is_method=False,
        symbols=symbols,
        index=index,
        allowlisted=allowlisted,
        module_state=frozenset(),  # body assignments are definitions
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

    for qualname, node, cls_name in index.definitions:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        walker = _EffectWalker(
            qualname=qualname,
            lineno=node.lineno,
            params=_param_names(node),
            is_public=_is_public(qualname, module),
            is_method=cls_name is not None,
            symbols=symbols,
            index=index,
            allowlisted=allowlisted,
            module_state=module_state,
            globals_env=globals_env,
            cls=cls_name,
        )
        fn = walker.run(node.body)
        fn.mutable_defaults = _mutable_defaults(node, symbols)
        extract.functions[qualname] = fn
    return extract


def _module_level_names(tree: ast.Module) -> frozenset:
    """Names bound by assignment in the module body (shared state)."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                names.update(_binding_names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            names.update(_binding_names(stmt.target))
    return frozenset(names)


def _binding_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_binding_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return []


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


def _mutable_defaults(
    node: ast.AST, symbols: ModuleSymbols
) -> List[Tuple[str, int]]:
    """(param, line) for every default that denotes fresh mutable state."""
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    found: List[Tuple[str, int]] = []
    positional = args.posonlyargs + args.args
    offset = len(positional) - len(args.defaults)
    pairs = [
        (positional[offset + i].arg, default)
        for i, default in enumerate(args.defaults)
    ] + [
        (arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    for param, default in pairs:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            found.append((param, default.lineno))
        elif isinstance(default, ast.Call):
            callee = symbols.resolve(dotted(default.func))
            if callee in _MUTABLE_DEFAULT_CALLS:
                found.append((param, default.lineno))
    return found


class _DefIndex:
    """All function/method definitions of a module, in source order."""

    def __init__(self, module: str) -> None:
        self.module = module
        #: (qualname, def node, owning class name or None)
        self.definitions: List[Tuple[str, ast.AST, Optional[str]]] = []
        self.by_qualname: Dict[str, ast.AST] = {}

    def scan(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            self._scan_node(stmt, prefix=self.module, cls=None)

    def _scan_node(
        self, node: ast.AST, prefix: str, cls: Optional[str]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}.{node.name}" if prefix else node.name
            self.definitions.append((qual, node, cls))
            self.by_qualname[qual] = node
            for child in node.body:
                self._scan_node(child, prefix=qual, cls=None)
        elif isinstance(node, ast.ClassDef):
            qual = f"{prefix}.{node.name}" if prefix else node.name
            for child in node.body:
                self._scan_node(child, prefix=qual, cls=node.name)


def _free_names(node: ast.AST) -> Set[str]:
    """Names a function/lambda loads without binding them itself."""
    bound: Set[str] = set()
    loaded: Set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        bound.update(a.arg for a in args.posonlyargs + args.args)
        bound.update(a.arg for a in args.kwonlyargs)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            if isinstance(child.ctx, ast.Load):
                loaded.add(child.id)
            else:
                bound.add(child.id)
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            bound.update(child.names)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            bound.add(child.name)
    return loaded - bound


class _EffectWalker:
    """Two-pass flow-insensitive effect collection over one body."""

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
        module_state: frozenset,
        globals_env: Dict[str, Set[str]],
        cls: Optional[str],
    ) -> None:
        self.summary = EffectSummary(
            qualname=qualname,
            lineno=lineno,
            params=params,
            is_public=is_public,
            is_method=is_method,
        )
        self.symbols = symbols
        self.index = index
        self.allowlisted = allowlisted
        self.module_state = module_state
        self.globals_env = globals_env
        self.cls = cls
        self.env: Dict[str, Set[str]] = {}
        #: names truly *bound* in this scope (plain-Name assignment,
        #: loop/with/comprehension targets) — ``env`` also holds names
        #: that merely received container-mutation taint, which must
        #: not shadow the module-global check.
        self._locals: Set[str] = set()
        self._ret: Set[str] = set()
        self._declared_globals: Set[str] = set()
        self._caught: Tuple[str, ...] = ()
        self._collect = False

    def run(self, body: Sequence[ast.stmt]) -> EffectSummary:
        self._collect = False
        self._walk(body)
        self._collect = True
        self._walk(body)
        self.summary.ret_atoms = sorted(
            a for a in self._ret if a != ATOM_EXECUTOR
        )
        return self.summary

    # ---- effect recording --------------------------------------------

    def _record(self, kind: str, line: int, detail: str) -> None:
        if not self._collect:
            return
        self.summary.direct.setdefault(kind, line)
        self.summary.detail.setdefault(kind, detail)

    def _global_write(self, name: str, line: int) -> None:
        if not self._collect:
            return
        self._record(EFFECT_GLOBAL_WRITE, line, name)
        self.summary.global_writes.append((name, line))

    def _param_mutation(self, name: str, line: int) -> None:
        if not self._collect:
            return
        self._record(EFFECT_PARAM_MUTATION, line, name)
        self.summary.param_mutations.append((name, line))

    def _is_local(self, name: str) -> bool:
        return name in self._locals or name in self.summary.params

    def _classify_write(self, base: Optional[str], line: int) -> None:
        """Mutation through ``base[...]``/``base.attr`` — whose state?"""
        if base is None:
            return
        if base in self.summary.params:
            self._param_mutation(base, line)
        elif base in self._declared_globals or (
            base not in self._locals and base in self.module_state
        ):
            self._global_write(base, line)

    # ---- statements --------------------------------------------------

    def _walk(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are indexed and summarized separately
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Global):
            self._declared_globals.update(stmt.names)
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
                if isinstance(target, ast.Name):
                    if target.id in self._declared_globals:
                        self._global_write(target.id, stmt.lineno)
                    elif isinstance(stmt, ast.AugAssign) and (
                        target.id in self.summary.params
                    ):
                        # ``param += [...]`` mutates list-like arguments
                        self._param_mutation(target.id, stmt.lineno)
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    self._classify_write(
                        _base_name(target), stmt.lineno
                    )
                self._locals.update(_binding_names(target))
                for name in _target_names(target):
                    self.env.setdefault(name, set()).update(atoms)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    self._classify_write(_base_name(target), stmt.lineno)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._ret |= self._atoms(stmt.value)
                if self._collect and isinstance(stmt.value, ast.Name):
                    # self/cls are exempt: ``return self`` after mutating
                    # it is the fluent-builder idiom, not an alias leak.
                    if (
                        stmt.value.id in self.summary.params
                        and stmt.value.id not in ("self", "cls")
                        and stmt.value.id not in self.summary.returned_params
                    ):
                        self.summary.returned_params.append(stmt.value.id)
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
            atoms = self._iterated(self._atoms(stmt.iter), stmt.iter.lineno)
            self._locals.update(_binding_names(stmt.target))
            for name in _target_names(stmt.target):
                self.env.setdefault(name, set()).update(atoms)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                atoms = self._atoms(item.context_expr)
                if item.optional_vars is not None:
                    self._locals.update(
                        _binding_names(item.optional_vars)
                    )
                    for name in _target_names(item.optional_vars):
                        self.env.setdefault(name, set()).update(atoms)
            self._walk(stmt.body)
            return
        # Generic fallback (If, While, Match, Expr, Assert, Raise, ...):
        # evaluate expression children, recurse into statement lists.
        for field in ast.iter_fields(stmt):
            _, value = field
            if isinstance(value, ast.expr):
                self._atoms(value)
            elif isinstance(value, list):
                for expr in (v for v in value if isinstance(v, ast.expr)):
                    self._atoms(expr)
                inner = [v for v in value if isinstance(v, ast.stmt)]
                if inner:
                    self._walk(inner)
                for v in value:
                    if hasattr(ast, "match_case") and isinstance(
                        v, ast.match_case
                    ):
                        self._walk(v.body)

    # ---- expressions -------------------------------------------------

    def _atoms(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None or isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, ast.Name):
            return self._name_atoms(node)
        if isinstance(node, ast.Attribute):
            resolved = self.symbols.resolve(dotted(node))
            if resolved == "os.environ" or resolved.startswith(
                "os.environ."
            ):
                self._ambient("env", node.lineno, "os.environ")
            return self._atoms(node.value)
        if isinstance(node, (ast.Set, ast.SetComp)):
            if isinstance(node, ast.SetComp):
                self._comprehension(node.generators)
            return {ATOM_SETLIKE}
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self._comprehension_atoms(node)
        if isinstance(node, ast.Lambda):
            return self._atoms(node.body)
        result: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                result |= self._atoms(child)
        return result

    def _comprehension(self, generators: Sequence[ast.comprehension]) -> Set[str]:
        """Bind comprehension targets; return the union of iter marks."""
        marks: Set[str] = set()
        for gen in generators:
            it = self._atoms(gen.iter)
            bound = self._iterated(it, gen.iter.lineno)
            self._locals.update(_binding_names(gen.target))
            for name in _target_names(gen.target):
                self.env.setdefault(name, set()).update(bound)
            for cond in gen.ifs:
                self._atoms(cond)
            marks |= it
        return marks

    def _comprehension_atoms(self, node: ast.AST) -> Set[str]:
        assert isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp))
        iter_marks = self._comprehension(node.generators)
        if isinstance(node, ast.DictComp):
            body = self._atoms(node.key) | self._atoms(node.value)
        else:
            body = self._atoms(node.elt)
        result = body | (iter_marks - {ATOM_SETLIKE})
        if ATOM_SETLIKE in iter_marks:
            result.add(ATOM_UNORDERED)
        return result

    def _iterated(self, atoms: Set[str], lineno: int) -> Set[str]:
        """Atoms of an element drawn from ``atoms``-marked iterable."""
        if ATOM_SETLIKE in atoms:
            return (atoms - {ATOM_SETLIKE}) | {ATOM_UNORDERED}
        return set(atoms)

    def _name_atoms(self, node: ast.Name) -> Set[str]:
        result: Set[str] = set(self.env.get(node.id, ()))
        if node.id in self.summary.params:
            result.add(f"param:{node.id}")
        elif node.id not in self.env and node.id in self.globals_env:
            result |= self.globals_env[node.id]
        return result

    def _ambient(self, kind: str, lineno: int, detail: str) -> None:
        if self.allowlisted:
            return
        self._record(EFFECT_AMBIENT, lineno, f"{detail} ({kind})")

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

        callee = self._resolve_callee(node.func)
        recv_atoms: Set[str] = set()
        if isinstance(node.func, ast.Attribute):
            recv_atoms = self._atoms(node.func.value)
        elif not isinstance(node.func, ast.Name):
            recv_atoms = self._atoms(node.func)

        # Executor boundary: ``pool.submit(fn, ...)`` / ``pool.map(fn, xs)``
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in EXECUTOR_SUBMIT_ATTRS
            and ATOM_EXECUTOR in recv_atoms
            and node.args
        ):
            self._submitted(node.args[0], node.lineno)

        # Receiver mutation: ``x.append(v)`` on a param or module global.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_ATTRS
        ):
            self._classify_write(_base_name(node.func.value), node.lineno)

        # Ambient nondeterminism reads.
        if callee in AMBIENT_CALLS:
            self._ambient(
                AMBIENT_KIND_BY_CALL[callee], node.lineno, callee
            )
        elif callee == "os.getenv" or callee.startswith("os.environ."):
            self._ambient("env", node.lineno, callee)
        elif callee in UNSEEDED_RNG_CONSTRUCTORS:
            if not node.args and not node.keywords:
                self._ambient("rng", node.lineno, f"{callee}()")

        # I/O and durable sinks.
        if callee in _IO_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _IO_ATTR_CALLS
        ):
            self._record(EFFECT_IO, node.lineno, callee or node.func.attr)
        if callee in DURABLE_SINKS:
            self._record(EFFECT_IO, node.lineno, callee)
            if self._collect:
                self.summary.sink_flows.append(
                    (
                        callee,
                        node.lineno,
                        tuple(sorted(arg_union - {ATOM_EXECUTOR})),
                    )
                )
            return arg_union | recv_atoms

        # Value-mark algebra.
        if callee in EXECUTOR_TYPES:
            return {ATOM_EXECUTOR}
        if callee in SET_CONSTRUCTORS:
            return (arg_union - {ATOM_UNORDERED, ATOM_SETLIKE}) | {
                ATOM_SETLIKE
            }
        if callee in ORDER_SANITIZERS:
            return arg_union - {ATOM_UNORDERED, ATOM_SETLIKE}
        if callee in _ITERATING_CALLS:
            if ATOM_SETLIKE in arg_union:
                return (arg_union - {ATOM_SETLIKE}) | {ATOM_UNORDERED}
            return arg_union | recv_atoms
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "join" and ATOM_SETLIKE in arg_union:
                return (
                    (arg_union - {ATOM_SETLIKE})
                    | recv_atoms
                    | {ATOM_UNORDERED}
                )
            if ATOM_SETLIKE in recv_atoms:
                if attr in SET_RETURNING_ATTRS:
                    return arg_union | {ATOM_SETLIKE}
                if attr == "pop":
                    return {ATOM_UNORDERED}

        result = arg_union | recv_atoms
        if callee:
            result.add(f"call:{callee}")
            if self._collect:
                self.summary.calls.append((callee, node.lineno, self._caught))
                if arg_union or any(pos_atoms) or any(kw_atoms.values()):
                    self.summary.arg_flows.append(
                        (
                            callee,
                            node.lineno,
                            tuple(tuple(sorted(a)) for a in pos_atoms),
                            {
                                k: tuple(sorted(v))
                                for k, v in kw_atoms.items()
                            },
                        )
                    )
        return result

    # ---- executor submissions ----------------------------------------

    def _submitted(self, arg: ast.expr, line: int) -> None:
        """Classify the callable handed across an executor boundary."""
        if not self._collect:
            return
        if isinstance(arg, ast.Lambda):
            captured = sorted(
                name
                for name in _free_names(arg)
                if self._is_local(name)
            )
            if captured:
                self.summary.closure_submits.append(
                    ("lambda", line, tuple(captured))
                )
            else:
                self.summary.submits.append(("", line, "lambda"))
            return
        if isinstance(arg, ast.Call):
            inner = self.symbols.resolve(dotted(arg.func))
            if inner == "functools.partial" and arg.args:
                self._submitted(arg.args[0], line)
                return
            self.summary.submits.append(("", line, dotted(arg.func) or "<call>"))
            return
        if isinstance(arg, ast.Name):
            nested = f"{self.summary.qualname}.{arg.id}"
            nested_node = self.index.by_qualname.get(nested)
            if nested_node is not None:
                captured = sorted(
                    name
                    for name in _free_names(nested_node)
                    if self._is_local(name)
                )
                if captured:
                    self.summary.closure_submits.append(
                        (arg.id, line, tuple(captured))
                    )
                else:
                    self.summary.submits.append((nested, line, arg.id))
                return
        resolved = self._resolve_callee(arg)
        self.summary.submits.append(
            (resolved, line, dotted(arg) or "<dynamic>")
        )

    # ---- name resolution ---------------------------------------------

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
        return self.symbols.resolve(name)


def _base_name(expr: ast.expr) -> Optional[str]:
    """The innermost Name of a Subscript/Attribute chain, if any."""
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _handler_names(
    handlers: Sequence[ast.ExceptHandler],
) -> Tuple[str, ...]:
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
        return _target_names(target.value)
    return []
