"""Shared AST plumbing for the source-level check passes.

Three passes interpret the package source — the architectural linter
(:mod:`repro.check.arch`), the dimensional analyzer
(:mod:`repro.check.units`) and the effect-inference pass
(:mod:`repro.check.effects`, over the call graph of
:mod:`repro.check.callgraph`).  This module is the single copy of what
they share:

* **module discovery** — :func:`package_root` finds the installed
  ``repro`` package and :func:`load_package` parses every module under it
  into :class:`SourceModule` records (AST, package-relative path,
  suppression index, :class:`SourceIndex`) so a multi-pass run parses
  each file once.
* **one AST index** — :func:`load_source` walks each tree once, in
  pre-order, into a :class:`SourceIndex`; the passes filter its lists
  instead of walking again.  A function's *own nodes* are every node
  beneath its ``def`` except the subtrees of nested ``def``\\s.  The
  nested ``def`` statement itself is one of the enclosing function's own
  nodes (it binds a local name there); its decorators, defaults and body
  are the nested function's own.  Class bodies are not a scope boundary:
  they run when their enclosing function runs.  Each field of the index
  names the passes that read it.
* **AST helpers** — :func:`dotted_chain` / :func:`call_name` normalize
  the ``a.b.c(...)`` shapes every pass pattern-matches on.
* **nondeterminism classification** — :func:`classify_nondet` is the one
  catalog of impurity primitives (RNG, wall clocks, ``uuid``/``secrets``,
  ``os.urandom``) behind ARCH004–ARCH007 *and* the interprocedural
  RACE004 rule, so "what counts as nondeterministic" has exactly one
  definition.  The index's ``nondet_imports`` — every name a module
  imports from ``random``/``time``/``secrets``/``uuid``, wherever the
  import sits — lets it catch renamed imports such as
  ``from random import random as jitter``.

The suppression-comment grammar stays in :mod:`repro.check.suppress`
(it is shared with non-AST tooling); the path helpers are re-exported
here so AST passes need only one import.
"""

from __future__ import annotations

import ast
from collections.abc import Collection
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.suppress import SuppressionIndex, display_path, relative_parts

__all__ = [
    "NondetCall",
    "Scope",
    "SourceIndex",
    "SourceModule",
    "call_name",
    "classify_nondet",
    "display_path",
    "dotted_chain",
    "load_package",
    "load_source",
    "package_root",
    "relative_parts",
]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: leaves CPython shares one instance of across every tree (``Load``,
#: ``Add``, ``Eq``...); the index leaves them out.
_SHARED_LEAVES = (ast.expr_context, ast.operator, ast.boolop, ast.unaryop,
                  ast.cmpop)


# -- module discovery ------------------------------------------------------
def package_root() -> Path:
    """Directory of the installed ``repro`` package (the check target)."""
    import repro

    return Path(repro.__file__).resolve().parent


@dataclass
class Scope:
    """One function's (or the module's) own nodes, in pre-order.

    ``nodes[i:ends[i]]`` is ``nodes[i]`` with its own descendants (just
    the statement, for a nested ``def``), so a statement's span — a
    ``with lock:`` block, say — needs no second walk.  For a function,
    ``body`` is the span of its body statements; the signature's nodes
    (defaults, annotations) sit before it and the decorators after it.
    """

    nodes: list[ast.AST] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    body: range = range(0)


@dataclass(frozen=True)
class SourceIndex:
    """What one pre-order pass over a module records (see module docs)."""

    #: every node in the module, in pre-order (arch: calls, comparisons).
    nodes: list[ast.AST]
    #: own nodes per ``def`` node, the module's top level under ``None``
    #: (callgraph: edges, registrars, returned closures; effects: bindings,
    #: effects under lock spans, key assignments).
    scopes: dict[ast.AST | None, Scope]
    #: every call in pre-order, with the ``def`` whose own node it is
    #: (callgraph: registration harvesting).
    calls: list[tuple[ast.Call, ast.AST | None]]
    #: names imported from ``random``/``time``/``secrets``/``uuid``
    #: anywhere in the module (arch and effects: :func:`classify_nondet`).
    nondet_imports: frozenset[str]
    #: names assigned at module level, the shared-state namespace (effects).
    globals: frozenset[str]
    #: everything bound at module scope: globals, defs, classes, imports
    #: (effects: closure reads).
    scope_names: frozenset[str]

    @classmethod
    def build(cls, tree: ast.Module) -> "SourceIndex":
        nodes: list[ast.AST] = []
        calls: list[tuple[ast.Call, ast.AST | None]] = []
        scopes: dict[ast.AST | None, Scope] = {None: Scope()}
        nondet_imports: set[str] = set()

        def visit(parent: ast.AST, owner: ast.AST | None, scope: Scope) -> None:
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, _SHARED_LEAVES):
                    continue
                nodes.append(node)
                position = len(scope.nodes)
                scope.nodes.append(node)
                scope.ends.append(position + 1)
                if isinstance(node, ast.Call):
                    calls.append((node, owner))
                elif isinstance(node, ast.ImportFrom):
                    nondet_imports.update(_nondet_names(node))
                if isinstance(node, _DEFS):
                    inner = scopes[node] = Scope()
                    visit(node, node, inner)
                    # the arguments node comes first; the body follows it
                    stop = inner.ends[0]
                    for _ in node.body:
                        stop = inner.ends[stop]
                    inner.body = range(inner.ends[0], stop)
                else:
                    visit(node, owner, scope)
                    scope.ends[position] = len(scope.nodes)

        visit(tree, None, scopes[None])
        assigned: set[str] = set()
        bound: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                assigned.update(target.id for target in stmt.targets
                                if isinstance(target, ast.Name))
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) \
                    and isinstance(stmt.target, ast.Name):
                assigned.add(stmt.target.id)
            elif isinstance(stmt, (*_DEFS, ast.ClassDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0]
                             for alias in stmt.names)
            elif isinstance(stmt, ast.ImportFrom):
                bound.update(alias.asname or alias.name
                             for alias in stmt.names)
        return cls(nodes=nodes, scopes=scopes, calls=calls,
                   nondet_imports=frozenset(nondet_imports),
                   globals=frozenset(assigned),
                   scope_names=frozenset(assigned | bound))


@dataclass(frozen=True)
class SourceModule:
    """One parsed module: everything a source-level pass needs, read once."""

    path: str
    display: str
    parts: tuple[str, ...]
    tree: ast.Module
    suppressions: SuppressionIndex
    index: SourceIndex

    @property
    def layer(self) -> str:
        """Top-level package directory (``engine``, ``fleet``, ...)."""
        return self.parts[0] if len(self.parts) > 1 else ""


def load_source(source: str, path: str) -> SourceModule:
    """Parse and index one module's source text into a :class:`SourceModule`."""
    tree = ast.parse(source, filename=path)
    return SourceModule(
        path=path,
        display=display_path(path),
        parts=relative_parts(path),
        tree=tree,
        suppressions=SuppressionIndex.from_source(source),
        index=SourceIndex.build(tree),
    )


def load_package(root: Path | None = None) -> list[SourceModule]:
    """Every module under ``root`` (default: the installed package), sorted."""
    root = Path(root) if root is not None else package_root()
    return [load_source(path.read_text(), str(path))
            for path in sorted(root.rglob("*.py"))]


# -- AST helpers -----------------------------------------------------------
def dotted_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty for non-name chains."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        return list(reversed(chain))
    return []


def call_name(node: ast.Call) -> str | None:
    """The called function's simple name (``f`` for both ``f()`` and ``o.f()``)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# -- nondeterminism primitives --------------------------------------------
_TIME_FUNCS = ("time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
               "perf_counter_ns", "process_time", "process_time_ns")
_RANDOM_MODULES = ("random", "secrets", "uuid")
_DATETIME_NOW = ("now", "utcnow", "today")


@dataclass(frozen=True)
class NondetCall:
    """One classified impurity primitive at a call site.

    ``kind`` is the decision axis the rules filter on:

    * ``"rng-seeded"`` — ``default_rng(seed)``; deterministic, so only the
      strict layers (ARCH005–ARCH007) ban it.
    * ``"rng-unseeded"`` — ``default_rng()`` seeding from the OS.
    * ``"random-module"`` — any ``random``/``secrets``/``uuid`` call.
    * ``"wall-clock"`` — ``time.*`` clocks and ``datetime.now``-family.
    * ``"urandom"`` — ``os.urandom``.
    * ``"imported"`` — a call through a ``from random import ...`` alias.
    """

    kind: str
    description: str

    @property
    def deterministic(self) -> bool:
        """Whether the call is reproducible (seeded RNG is; clocks aren't)."""
        return self.kind == "rng-seeded"


def _nondet_names(node: ast.ImportFrom) -> list[str]:
    """Names a ``from <nondeterminism module> import ...`` binds."""
    if node.module in _RANDOM_MODULES:
        return [alias.asname or alias.name for alias in node.names]
    if node.module == "time":
        return [alias.asname or alias.name for alias in node.names
                if alias.name in _TIME_FUNCS]
    return []


def classify_nondet(node: ast.Call, imports: Collection[str] = ()
                    ) -> NondetCall | None:
    """Classify one call against the impurity-primitive catalog.

    Returns ``None`` for calls that are deterministic as far as the
    catalog knows.  The caller decides which kinds its contract bans —
    every ARCH/RACE determinism rule routes through this one function.
    """
    name = call_name(node)
    if name == "default_rng":
        if node.args or node.keywords:
            return NondetCall("rng-seeded", "default_rng(seed)")
        return NondetCall("rng-unseeded", "unseeded default_rng()")
    chain = dotted_chain(node.func)
    if chain:
        root, leaf = chain[0], chain[-1]
        dotted = ".".join(chain)
        if root in _RANDOM_MODULES or "random" in chain[:-1]:
            return NondetCall("random-module", f"{dotted}()")
        if root == "time" and leaf in _TIME_FUNCS:
            return NondetCall("wall-clock", f"{dotted}()")
        if root == "datetime" and leaf in _DATETIME_NOW:
            return NondetCall("wall-clock", f"{dotted}()")
        if root == "os" and leaf == "urandom":
            return NondetCall("urandom", "os.urandom()")
    if isinstance(node.func, ast.Name) and node.func.id in imports:
        return NondetCall(
            "imported",
            f"{node.func.id}() (imported from a random/time module)")
    return None
