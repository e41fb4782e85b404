"""Interprocedural effect inference: `repro check effects`.

The measurement path is a cached, seeded, *parallel* runtime: five
lock-guarded :class:`~repro.engine.cache.MemoCache` globals, the
``run_cells``/``run_grid`` fan-out, the batched sweep compiler and the
fleet event loop.  The single-file ARCH rules can say "no wall clock in
this module"; they cannot say "nothing reachable from ``run_cells``
writes shared state outside a lock" or "this cache builder's result
depends only on what its key encodes".  This pass can.

It builds the package call graph (:mod:`repro.check.callgraph`), infers a
per-function effect summary — global reads/writes and whether writes are
lock-guarded, ``self`` mutations, nondeterministic primitive calls
(via the same :func:`repro.check.astutil.classify_nondet` catalog the
ARCH004–ARCH007 rules use, so determinism has one definition), free /
``self`` reads, cached-value returns, parameter mutations — and
propagates the summaries through the graph to a fixpoint.  Three rule
families consume the result:

* **RACE001–RACE004** — parallel-path safety.  For every function
  reachable from the parallel roots (``Runner.run_cells``, the harness
  sweep runner, the sweep compiler stages, ``simulate_fleet``):
  RACE001 no unguarded module-global rebind; RACE002 no unguarded
  mutation of a module-level container or instance; RACE003 no mutable
  default arguments; RACE004 no call from a declared-pure layer into
  code whose *transitive* effects include true nondeterminism.
* **KEY001–KEY003** — cache-key soundness at every ``get_or_build``
  site.  KEY001 the builder (transitively) reads mutable global state
  the key does not encode; KEY002 the builder closes over values the
  key does not encode (under-keying: two keys, one of which is a lie);
  KEY003 the key encodes values the builder never reads (over-keying:
  identical results stored twice, silently fragmenting the cache).
* **ALIAS001–ALIAS002** — escape analysis.  ALIAS001 an object obtained
  from a ``MemoCache`` primitive (``get_or_build``/``cached_value``/
  ``store``) is mutated — directly or by a callee known to mutate that
  parameter — without an intervening ``clone()``; ALIAS002 a value
  returned *by reference* from a caching function is mutated in place.

Findings go through the shared :class:`~repro.check.findings.Finding`
vocabulary and honor :mod:`repro.check.suppress` comments.

Data-driven dispatch is resolved as candidate sets: ``Registry.create``'s
``self._factories[key]()`` fans out to every function registered through
``Registry.register`` (the device factories, the zoo's per-model
closures), and module-level dict tables like ``check.PASSES`` resolve to
their function values.  The remaining blind spot is ``lambda``
registrations (the experiment generators in
:mod:`repro.harness.registry`), which have no name to resolve and are
covered by the single-file ARCH rules and the runtime stress tests
instead.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path

from repro.check import astutil, callgraph
from repro.check.astutil import SourceModule, classify_nondet
from repro.check.callgraph import CallGraph, FunctionNode, ModuleNode
from repro.check.findings import Finding, Severity

RULES: dict[str, tuple[Severity, str]] = {
    "RACE001": (Severity.ERROR, "module global rebound outside a lock on a "
                                "path reachable from a parallel root"),
    "RACE002": (Severity.ERROR, "module-level container or instance mutated "
                                "outside a lock on a parallel path"),
    "RACE003": (Severity.ERROR, "mutable default argument on a function "
                                "reachable from a parallel root"),
    "RACE004": (Severity.ERROR, "pure-layer function calls into code with "
                                "transitively nondeterministic effects"),
    "KEY001": (Severity.ERROR, "cache builder reads mutable global state "
                               "the cache key does not encode"),
    "KEY002": (Severity.ERROR, "cache builder closes over values the cache "
                               "key does not encode (under-keyed)"),
    "KEY003": (Severity.WARNING, "cache key encodes values the builder never "
                                 "reads (over-keyed; fragments the cache)"),
    "ALIAS001": (Severity.ERROR, "object obtained from a memo cache mutated "
                                 "without an intervening clone()"),
    "ALIAS002": (Severity.ERROR, "value returned by reference from a caching "
                                 "function mutated in place"),
}

#: the entry points whose fan-out makes everything below them concurrent.
PARALLEL_ROOTS = (
    "runtime/runner.py:Runner.run_cells",
    "harness/sweep_runner.py:run_sweep",
    "harness/sweep_runner.py:run_scenarios",
    "engine/compile.py:gather",
    "engine/compile.py:lower",
    "engine/compile.py:scatter",
    "fleet/simulate.py:simulate_fleet",
)

#: layers whose functions the engine caches or replays and therefore must
#: not acquire nondeterministic effects, even transitively.  Mirrors the
#: ARCH004 pure layers plus the ARCH006/ARCH007 deterministic layers.
PURE_LAYERS = ("engine", "graphs", "frameworks", "models", "hardware",
               "fleet", "placement")

#: NondetCall kinds that are genuinely irreproducible.  Seeded RNG is
#: excluded: it is deterministic, and only the single-module ARCH005–007
#: contracts ban it stylistically.
TRUE_NONDET = ("rng-unseeded", "random-module", "wall-clock", "urandom",
               "imported")

_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "extendleft",
})
_CLONERS = frozenset({"clone", "copy", "deepcopy", "replace"})
_CACHE_PRIMITIVES = ("get_or_build", "cached_value")
_MUTABLE_DEFAULT_CALLS = ("dict", "list", "set", "defaultdict", "deque")


# -- effect summaries ------------------------------------------------------
@dataclass(frozen=True)
class Write:
    """One write effect: target, site, and whether a lock guarded it."""

    qual: str
    lineno: int
    guarded: bool
    detail: str


@dataclass(frozen=True)
class InstanceCall:
    """A method call on a module-level instance (shared state by another name)."""

    qual: str
    method: str
    lineno: int
    targets: tuple[str, ...]


@dataclass
class Origin:
    """Where a local name's value came from (for the ALIAS rules)."""

    kind: str  # "cache-primitive" | "call" | "clone" | "other"
    lineno: int
    targets: tuple[str, ...] = ()
    detail: str = ""


@dataclass
class Mutation:
    """One in-place mutation of a local name."""

    name: str
    lineno: int
    detail: str


@dataclass
class FunctionEffects:
    """Per-function effect summary; ``trans_*`` fields are fixpoint results."""

    fid: str
    reads: set[str] = field(default_factory=set)
    rebinds: list[Write] = field(default_factory=list)
    mutations: list[Write] = field(default_factory=list)
    unguarded_self_writes: list[Write] = field(default_factory=list)
    self_calls: set[str] = field(default_factory=set)
    instance_calls: list[InstanceCall] = field(default_factory=list)
    mutable_defaults: list[tuple[str, int]] = field(default_factory=list)
    nondet: dict[str, tuple[str, int]] = field(default_factory=dict)
    free_reads: set[str] = field(default_factory=set)
    self_reads: set[str] = field(default_factory=set)
    params: tuple[str, ...] = ()
    param_mut: set[str] = field(default_factory=set)
    forwards: list[tuple[tuple[str, ...], str, str]] = field(default_factory=list)
    returns_cached: bool = False
    return_calls: set[str] = field(default_factory=set)
    origins: dict[str, list[Origin]] = field(default_factory=dict)
    local_mutations: list[Mutation] = field(default_factory=list)
    key_sites: list["KeySite"] = field(default_factory=list)
    # fixpoint accumulators
    trans_reads: set[str] = field(default_factory=set)
    trans_nondet: dict[str, tuple[str, str]] = field(default_factory=dict)
    trans_self_mut: bool = False


@dataclass
class KeySite:
    """One ``get_or_build(key, builder)`` call site, pre-digested."""

    lineno: int
    receiver: str
    key_names: set[str]
    key_self_attrs: set[str]
    key_name_is: str | None
    builder_desc: str
    builder_fids: tuple[str, ...]
    lambda_global_reads: set[str] = field(default_factory=set)
    lambda_free_reads: set[str] = field(default_factory=set)
    lambda_params: set[str] = field(default_factory=set)
    lambda_call_fids: tuple[str, ...] = ()
    unresolved: bool = False


# -- syntax predicates ----------------------------------------------------
def _is_lock_guard(node: ast.With | ast.AsyncWith) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        chain = astutil.dotted_chain(expr)
        if any("lock" in part.lower() for part in chain):
            return True
    return False


def _is_cache_primitive(func: ast.Attribute) -> bool:
    """``X.get_or_build`` / ``X.cached_value`` always; ``X.store`` only when
    the receiver chain names a cache (``PLAN_CACHE.store``), since ``store``
    is a common method name."""
    if func.attr in _CACHE_PRIMITIVES:
        return True
    if func.attr == "store":
        chain = astutil.dotted_chain(func.value)
        return any("CACHE" in part.upper() and part.isupper()
                   for part in chain)
    return False


def _is_clone_expr(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and astutil.call_name(node) in _CLONERS)


def _mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_DEFAULT_CALLS
            and not node.args and not node.keywords)


def _value_names(expr: ast.expr) -> tuple[set[str], set[str]]:
    """(names, ``self`` attributes) an expression reads as values; the
    names of the functions it calls, and ``self`` itself, are left out."""
    names: set[str] = set()
    self_attrs: set[str] = set()
    callees = {"self"}
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            self_attrs.add(node.attr)
        elif isinstance(node, ast.Call):
            chain = astutil.dotted_chain(node.func)
            if chain:
                callees.add(chain[0])
    return names - callees, self_attrs


# -- per-function local analysis ------------------------------------------
class _FunctionAnalyzer:
    """Single-function effect extraction (nested defs analyzed separately)."""

    def __init__(self, graph: CallGraph, mnode: ModuleNode,
                 fnode: FunctionNode):
        self.graph = graph
        self.mnode = mnode
        self.fnode = fnode
        self.index = mnode.module.index
        self.eff = FunctionEffects(fid=fnode.fid)
        #: span ends of the lock-guarded ``with`` blocks being visited.
        self.lock_ends: list[int] = []
        self.global_decls: set[str] = set()
        self.local_bound: set[str] = set()
        self._call_func_names: set[int] = set()

    # .. entry ............................................................
    def analyze(self) -> FunctionEffects:
        node = self.fnode.node
        args = node.args
        params = [a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        self.eff.params = tuple(params)
        self.local_bound.update(params)
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        for name, default in zip(defaulted, args.defaults):
            if _mutable_default(default):
                self.eff.mutable_defaults.append((name, node.lineno))
        for kwarg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and _mutable_default(default):
                self.eff.mutable_defaults.append((kwarg.arg, node.lineno))
        scope = self.fnode.scope
        self._prescan_bindings(scope)
        for position in scope.body:
            while self.lock_ends and position >= self.lock_ends[-1]:
                self.lock_ends.pop()
            node = scope.nodes[position]
            if isinstance(node, (ast.With, ast.AsyncWith)) \
                    and _is_lock_guard(node):
                self.lock_ends.append(scope.ends[position])
            handler = self._HANDLERS.get(type(node))
            if handler is not None:
                handler(self, node)
        return self.eff

    def _prescan_bindings(self, scope: astutil.Scope) -> None:
        """Collect every locally bound name first, so reads before the
        binding line (loops, forward refs) don't misreport as globals."""
        for position in scope.body:
            node = scope.nodes[position]
            if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                self.local_bound.add(node.id)
            elif isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                self.local_bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self.local_bound.update(alias.asname or
                                        alias.name.split(".")[0]
                                        for alias in node.names)
        self.local_bound -= self.global_decls

    # .. name classification ..............................................
    def _global_qual(self, name: str) -> str | None:
        """Qualified id for a module-global (own or imported), else None."""
        if name in self.local_bound:
            return None
        if name in self.global_decls or name in self.index.globals:
            return f"{self.mnode.module.display}:{name}"
        if name in self.mnode.imported_names:
            src, orig = self.mnode.imported_names[name]
            target = self.graph.resolve_module(src)
            if target is not None and orig in target.module.index.globals:
                return f"{target.module.display}:{orig}"
        return None

    def _on_name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        qual = self._global_qual(node.id)
        if qual is not None:
            self.eff.reads.add(qual)
            return
        if (node.id not in self.local_bound
                and node.id not in self.index.scope_names
                and id(node) not in self._call_func_names
                and not hasattr(builtins, node.id)):
            self.eff.free_reads.add(node.id)

    def _on_attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and isinstance(node.value, ast.Name):
            if node.value.id == "self":
                self.eff.self_reads.add(node.attr)
            elif node.value.id in self.mnode.import_aliases:
                target = self.graph.resolve_module(
                    self.mnode.import_aliases[node.value.id])
                if target is not None \
                        and node.attr in target.module.index.globals:
                    self.eff.reads.add(
                        f"{target.module.display}:{node.attr}")

    # .. writes ...........................................................
    def _guarded(self) -> bool:
        return bool(self.lock_ends)

    def _on_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._store_target(target, node)
        self._record_origin(node.targets, node.value)

    def _on_annassign(self, node: ast.AnnAssign) -> None:
        self._store_target(node.target, node)
        if node.value is not None:
            self._record_origin([node.target], node.value)

    def _on_augassign(self, node: ast.AugAssign) -> None:
        self._store_target(node.target, node, aug=True)

    def _on_delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._container_write(target.value, node.lineno,
                                      "del container[...]")

    def _store_target(self, target: ast.expr, node: ast.stmt,
                      aug: bool = False) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                qual = f"{self.mnode.module.display}:{target.id}"
                self.eff.rebinds.append(Write(
                    qual, node.lineno, self._guarded(),
                    f"global {target.id} rebound"))
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name):
                if target.value.id == "self":
                    write = Write(f"self.{target.attr}", node.lineno,
                                  self._guarded(),
                                  f"self.{target.attr} assigned")
                    if not write.guarded:
                        self.eff.unguarded_self_writes.append(write)
                else:
                    self._attr_write(target.value.id, target.attr,
                                     node.lineno)
        elif isinstance(target, ast.Subscript):
            self._container_write(target.value, node.lineno,
                                  "container[...] assigned")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store_target(element, node, aug=aug)

    def _attr_write(self, base: str, attr: str, lineno: int) -> None:
        qual = self._global_qual(base)
        if qual is not None:
            self.eff.mutations.append(Write(
                qual, lineno, self._guarded(), f"{base}.{attr} assigned"))
        else:
            self.eff.local_mutations.append(Mutation(
                base, lineno, f"{base}.{attr} assigned"))
            if base in self.eff.params:
                self.eff.param_mut.add(base)

    def _container_write(self, base: ast.expr, lineno: int,
                         detail: str) -> None:
        if isinstance(base, ast.Name):
            qual = self._global_qual(base.id)
            if qual is not None:
                self.eff.mutations.append(Write(
                    qual, lineno, self._guarded(), detail))
            else:
                self.eff.local_mutations.append(
                    Mutation(base.id, lineno, detail))
                if base.id in self.eff.params:
                    self.eff.param_mut.add(base.id)
        elif (isinstance(base, ast.Attribute)
              and isinstance(base.value, ast.Name)
              and base.value.id == "self"):
            write = Write(f"self.{base.attr}", lineno, self._guarded(),
                          detail)
            if not write.guarded:
                self.eff.unguarded_self_writes.append(write)

    # .. calls ............................................................
    def _on_call(self, node: ast.Call) -> None:
        verdict = classify_nondet(node, self.index.nondet_imports)
        if verdict is not None and verdict.kind not in self.eff.nondet:
            self.eff.nondet[verdict.kind] = (verdict.description, node.lineno)
        targets = self._resolve(node)
        func = node.func
        if isinstance(func, ast.Name):
            # a name in call position is a callee, not a data dependency;
            # keep it out of the closure-read set the KEY rules consume.
            self._call_func_names.add(id(func))
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                base = func.value.id
                if base == "self" and targets:
                    self.eff.self_calls.update(targets)
                self._classify_method_call(base, func, node, targets)
            elif func.attr in _MUTATORS and not targets:
                self._chained_mutator(func, node)
        if isinstance(func, ast.Attribute) and func.attr == "get_or_build":
            self.eff.key_sites.append(self._digest_key_site(node))
        self._record_forwards(node, targets)

    def _resolve(self, node: ast.Call) -> tuple[str, ...]:
        return self.graph.resolve_call(self.mnode, self.fnode, node)

    def _classify_method_call(self, base: str, func: ast.Attribute,
                              node: ast.Call,
                              targets: tuple[str, ...]) -> None:
        qual = self._global_qual(base)
        if qual is None:
            if func.attr in _MUTATORS and base in self.local_bound:
                self.eff.local_mutations.append(Mutation(
                    base, node.lineno, f"{base}.{func.attr}(...)"))
                if base in self.eff.params:
                    self.eff.param_mut.add(base)
            return
        if targets:
            self.eff.instance_calls.append(InstanceCall(
                qual, func.attr, node.lineno, targets))
        elif func.attr in _MUTATORS:
            self.eff.mutations.append(Write(
                qual, node.lineno, self._guarded(),
                f"{base}.{func.attr}(...)"))
        else:
            self.eff.reads.add(qual)

    def _chained_mutator(self, func: ast.Attribute, node: ast.Call) -> None:
        """``self.x.append(...)`` / ``GLOBAL.x.append(...)``: the mutation
        lands on whatever the chain's root refers to."""
        chain = astutil.dotted_chain(func)
        if not chain:
            return
        root = chain[0]
        dotted = ".".join(chain)
        if root == "self":
            write = Write(f"self.{chain[1]}", node.lineno, self._guarded(),
                          f"{dotted}(...)")
            if not write.guarded:
                self.eff.unguarded_self_writes.append(write)
            return
        qual = self._global_qual(root)
        if qual is not None:
            self.eff.mutations.append(Write(
                qual, node.lineno, self._guarded(), f"{dotted}(...)"))
        elif root in self.local_bound:
            self.eff.local_mutations.append(Mutation(
                root, node.lineno, f"{dotted}(...)"))
            if root in self.eff.params:
                self.eff.param_mut.add(root)

    def _record_forwards(self, node: ast.Call,
                         targets: tuple[str, ...]) -> None:
        if not targets:
            return
        callee_params = self._callee_params(targets, node)
        if callee_params is None:
            return
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id in self.eff.params \
                    and index < len(callee_params):
                self.eff.forwards.append(
                    (targets, arg.id, callee_params[index]))
        for kw in node.keywords:
            if kw.arg and isinstance(kw.value, ast.Name) \
                    and kw.value.id in self.eff.params:
                self.eff.forwards.append((targets, kw.value.id, kw.arg))

    def _callee_params(self, targets: tuple[str, ...],
                       node: ast.Call) -> list[str] | None:
        if len(targets) != 1:
            return None
        callee = self.graph.functions.get(targets[0])
        if callee is None:
            return None
        params = [a.arg for a in callee.node.args.args]
        if callee.cls is not None and isinstance(node.func, ast.Attribute) \
                and params and params[0] in ("self", "cls"):
            params = params[1:]
        return params

    # .. returns / origins (ALIAS) ........................................
    def _on_return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._classify_return(node.value)

    def _classify_return(self, value: ast.expr) -> None:
        if isinstance(value, ast.Tuple):
            for element in value.elts:
                self._classify_return(element)
            return
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Attribute) \
                    and _is_cache_primitive(value.func):
                self.eff.returns_cached = True
            else:
                targets = self._resolve(value)
                if targets:
                    self.eff.return_calls.update(targets)
            return
        if isinstance(value, ast.Name):
            for origin in self.eff.origins.get(value.id, ()):
                if origin.kind == "cache-primitive":
                    self.eff.returns_cached = True
                elif origin.kind == "call":
                    self.eff.return_calls.update(origin.targets)

    def _record_origin(self, targets: list[ast.expr],
                       value: ast.expr) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                names.extend(e.id for e in target.elts
                             if isinstance(e, ast.Name))
        if not names:
            return
        origin = self._origin_of(value)
        for name in names:
            self.eff.origins.setdefault(name, []).append(origin)

    def _origin_of(self, value: ast.expr) -> Origin:
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Attribute) \
                    and _is_cache_primitive(value.func):
                chain = astutil.dotted_chain(value.func)
                return Origin("cache-primitive", value.lineno,
                              detail=".".join(chain) or value.func.attr)
            if _is_clone_expr(value):
                return Origin("clone", value.lineno)
            targets = self._resolve(value)
            if targets:
                name = astutil.call_name(value) or "?"
                return Origin("call", value.lineno, targets=targets,
                              detail=f"{name}()")
        if isinstance(value, ast.Await):
            return self._origin_of(value.value)
        return Origin("other", value.lineno)

    # .. key-site digestion (KEY rules) ...................................
    def _digest_key_site(self, node: ast.Call) -> KeySite:
        chain = astutil.dotted_chain(node.func)
        receiver = ".".join(chain[:-1]) or "<cache>"
        key_expr = node.args[0] if node.args else None
        builder = node.args[1] if len(node.args) > 1 else None
        key_names: set[str] = set()
        key_self: set[str] = set()
        key_name_is: str | None = None
        if key_expr is not None:
            if isinstance(key_expr, ast.Name):
                key_name_is = key_expr.id
            key_names, key_self = _value_names(key_expr)
        site = KeySite(lineno=node.lineno, receiver=receiver,
                       key_names=key_names, key_self_attrs=key_self,
                       key_name_is=key_name_is,
                       builder_desc="<missing>", builder_fids=())
        if builder is None:
            site.unresolved = True
            return site
        if isinstance(builder, ast.Lambda):
            site.builder_desc = "lambda"
            self._digest_lambda(builder, site)
        elif isinstance(builder, (ast.Name, ast.Attribute)):
            site.builder_desc = (
                f"{builder.id}()" if isinstance(builder, ast.Name)
                else ".".join(astutil.dotted_chain(builder)) or builder.attr)
            site.builder_fids = self.graph.resolve_reference(
                self.mnode, self.fnode, builder)
            site.unresolved = not site.builder_fids
        else:
            site.builder_desc = "<expression>"
            site.unresolved = True
        return site

    def _digest_lambda(self, node: ast.Lambda, site: KeySite) -> None:
        params = {a.arg for a in node.args.args + node.args.kwonlyargs}
        site.lambda_params = params
        call_fids: list[str] = []
        func_names: set[int] = set()
        # breadth-first, so a call is seen before the name it calls
        for sub in ast.walk(node.body):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in params or id(sub) in func_names \
                        or hasattr(builtins, sub.id):
                    continue
                qual = self._global_qual(sub.id)
                if qual is not None:
                    site.lambda_global_reads.add(qual)
                elif sub.id in self.index.scope_names \
                        or self.graph.nested(self.fnode, sub.id):
                    continue  # module functions/classes; call edge below
                elif sub.id in self.local_bound or sub.id in self.eff.params:
                    site.lambda_free_reads.add(sub.id)
            elif isinstance(sub, ast.Call):
                func_names.add(id(sub.func))
                call_fids.extend(self.graph.resolve_call(
                    self.mnode, self.fnode, sub))
        site.lambda_call_fids = tuple(call_fids)

    _HANDLERS = {
        ast.Assign: _on_assign,
        ast.AnnAssign: _on_annassign,
        ast.AugAssign: _on_augassign,
        ast.Delete: _on_delete,
        ast.Return: _on_return,
        ast.Call: _on_call,
        ast.Name: _on_name,
        ast.Attribute: _on_attribute,
    }


# -- the pass --------------------------------------------------------------
class EffectsAnalysis:
    """Package-wide analysis: summaries, fixpoint, and rule evaluation."""

    def __init__(self, modules: list[SourceModule],
                 roots: tuple[str, ...] = PARALLEL_ROOTS):
        self.modules = modules
        self.graph = callgraph.build(modules)
        self.effects: dict[str, FunctionEffects] = {}
        self._summarize()
        self._fixpoint()
        self.roots = tuple(fid for root in roots
                           for fid in self.graph.find(root))
        self.reachable = self.graph.reachable(list(self.roots))
        self.mutated_globals = self._mutated_globals()

    # .. summaries ........................................................
    def _summarize(self) -> None:
        for mnode in self.graph.by_module.values():
            for fnode in mnode.functions.values():
                self.effects[fnode.fid] = _FunctionAnalyzer(
                    self.graph, mnode, fnode).analyze()

    def _fixpoint(self) -> None:
        for eff in self.effects.values():
            eff.trans_reads = set(eff.reads)
            eff.trans_nondet = {kind: (eff.fid, desc)
                                for kind, (desc, _) in eff.nondet.items()}
            eff.trans_self_mut = bool(eff.unguarded_self_writes)
        changed = True
        while changed:
            changed = False
            for fid, eff in self.effects.items():
                fnode = self.graph.functions[fid]
                # in call-site order (not set order), so the origin a
                # RACE004 message names does not vary with the hash seed
                callees = dict.fromkeys(target
                                        for site in fnode.calls + fnode.refs
                                        for target in site.targets)
                for target in callees:
                    te = self.effects.get(target)
                    if te is None:
                        continue
                    new_reads = te.trans_reads - eff.trans_reads
                    if new_reads:
                        eff.trans_reads |= new_reads
                        changed = True
                    for kind, origin in te.trans_nondet.items():
                        if kind not in eff.trans_nondet:
                            eff.trans_nondet[kind] = origin
                            changed = True
                if not eff.returns_cached and any(
                        self.effects.get(t) is not None
                        and self.effects[t].returns_cached
                        for t in eff.return_calls):
                    eff.returns_cached = True
                    changed = True
                if not eff.trans_self_mut and any(
                        self.effects.get(t) is not None
                        and self.effects[t].trans_self_mut
                        for t in eff.self_calls):
                    eff.trans_self_mut = True
                    changed = True
                for targets, caller_param, callee_param in eff.forwards:
                    if caller_param in eff.param_mut:
                        continue
                    te = self.effects.get(targets[0]) if len(targets) == 1 \
                        else None
                    if te is not None and callee_param in te.param_mut:
                        eff.param_mut.add(caller_param)
                        changed = True

    def _mutated_globals(self) -> set[str]:
        mutated: set[str] = set()
        for eff in self.effects.values():
            mutated.update(w.qual for w in eff.rebinds)
            mutated.update(w.qual for w in eff.mutations)
            for call in eff.instance_calls:
                if any(self.effects.get(t) is not None
                       and self.effects[t].trans_self_mut
                       for t in call.targets):
                    mutated.add(call.qual)
        return mutated

    # .. rule evaluation ..................................................
    def findings(self) -> list[Finding]:
        found: list[Finding] = []
        for mnode in self.graph.by_module.values():
            for fnode in mnode.functions.values():
                eff = self.effects[fnode.fid]
                emit = _Emitter(mnode.module, found)
                if fnode.fid in self.reachable:
                    self._race_rules(fnode, eff, emit)
                self._race004(mnode, fnode, eff, emit)
                self._key_rules(fnode, eff, emit)
                self._alias_rules(fnode, eff, emit)
        unique = {(f.rule, f.location, f.message): f for f in found}
        return sorted(unique.values(), key=_finding_order)

    def _race_rules(self, fnode: FunctionNode, eff: FunctionEffects,
                    emit: "_Emitter") -> None:
        for write in eff.rebinds:
            if not write.guarded:
                emit("RACE001", write.lineno,
                     f"{fnode.qualname} rebinds module global "
                     f"{write.qual.rsplit(':', 1)[1]} outside a lock on a "
                     f"parallel path ({write.detail})")
        for write in eff.mutations:
            if not write.guarded:
                emit("RACE002", write.lineno,
                     f"{fnode.qualname} mutates module-level state "
                     f"{write.qual} outside a lock on a parallel path "
                     f"({write.detail})")
        for call in eff.instance_calls:
            if any(self.effects.get(t) is not None
                   and self.effects[t].trans_self_mut
                   for t in call.targets):
                emit("RACE002", call.lineno,
                     f"{fnode.qualname} calls {call.method}() on module-level "
                     f"instance {call.qual}; the method writes self outside "
                     f"a lock")
        for name, lineno in eff.mutable_defaults:
            emit("RACE003", lineno,
                 f"{fnode.qualname} has mutable default argument {name}= "
                 f"shared across every parallel invocation")

    def _race004(self, mnode: ModuleNode, fnode: FunctionNode,
                 eff: FunctionEffects, emit: "_Emitter") -> None:
        # Unlike RACE001–003, this is not gated on parallel-root
        # reachability: the pure layers are cached and replayed no matter
        # which entry point invoked them, so the boundary contract is
        # layer-wide.
        if mnode.module.layer not in PURE_LAYERS:
            return
        for site in fnode.calls + fnode.refs:
            if len(site.targets) != 1:
                continue
            target = site.targets[0]
            te = self.effects.get(target)
            tn = self.graph.functions.get(target)
            if te is None or tn is None:
                continue
            if tn.module.layer in PURE_LAYERS:
                continue  # boundary sits deeper; report it there
            for kind in TRUE_NONDET:
                if kind in te.trans_nondet:
                    origin_fid, desc = te.trans_nondet[kind]
                    emit("RACE004", site.lineno,
                         f"{fnode.qualname} (pure layer "
                         f"'{mnode.module.layer}') calls {tn.qualname}, "
                         f"which transitively reaches {desc} in "
                         f"{origin_fid}")
                    break

    def _key_rules(self, fnode: FunctionNode, eff: FunctionEffects,
                   emit: "_Emitter") -> None:
        for site in eff.key_sites:
            if site.unresolved and site.builder_desc == "<expression>":
                continue  # cannot say anything honest about opaque builders
            reads, free, params, self_reads = self._builder_reads(eff, site)
            value_names = set(site.key_names) | site.key_self_attrs
            covered = set(value_names)
            if site.key_name_is is not None:
                covered.add(site.key_name_is)
                value_names.discard(site.key_name_is)
                traced_names, traced_self = self._trace_key_assignment(
                    fnode, site.key_name_is)
                covered |= traced_names | traced_self
                value_names |= traced_names | traced_self
            # KEY001 — mutable globals read but not keyed
            leaked = sorted((reads & self.mutated_globals)
                            - {f"{fnode.module.display}:{name}"
                               for name in covered})
            for qual in leaked:
                emit("KEY001", site.lineno,
                     f"builder {site.builder_desc} for {site.receiver} "
                     f"reads mutable global {qual} which the cache key "
                     f"does not encode")
            # KEY002 — closure reads not keyed
            unkeyed = sorted((free | self_reads) - covered - params)
            if unkeyed:
                emit("KEY002", site.lineno,
                     f"builder {site.builder_desc} for {site.receiver} "
                     f"closes over {', '.join(unkeyed)} which the cache "
                     f"key does not encode (under-keyed)")
            # KEY003 — keyed values never read
            consumed = free | self_reads | params \
                | {q.rsplit(":", 1)[1] for q in reads}
            unread = sorted(value_names - consumed)
            if unread and not site.unresolved:
                emit("KEY003", site.lineno,
                     f"cache key for {site.receiver} encodes "
                     f"{', '.join(unread)} which builder "
                     f"{site.builder_desc} never reads (over-keyed)")

    def _builder_reads(self, eff: FunctionEffects, site: KeySite
                       ) -> tuple[set[str], set[str], set[str], set[str]]:
        """(transitive global reads, free reads, params, self reads)."""
        if site.builder_desc == "lambda":
            reads = set(site.lambda_global_reads)
            for fid in site.lambda_call_fids:
                te = self.effects.get(fid)
                if te is not None:
                    reads |= te.trans_reads
            return reads, set(site.lambda_free_reads), \
                set(site.lambda_params), set()
        reads: set[str] = set()
        free: set[str] = set()
        params: set[str] = set()
        self_reads: set[str] = set()
        for fid in site.builder_fids:
            te = self.effects.get(fid)
            if te is None:
                continue
            reads |= te.trans_reads
            free |= te.free_reads
            params |= set(te.params) - {"self", "cls"}
            self_reads |= te.self_reads
        return reads, free, params, self_reads

    def _trace_key_assignment(self, fnode: FunctionNode, key_name: str
                              ) -> tuple[set[str], set[str]]:
        """Value names and self-attrs feeding ``key = <expr>`` one level up,
        so a pre-computed key still covers the values it was derived from."""
        names: set[str] = set()
        self_attrs: set[str] = set()
        for node in fnode.scope.nodes:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == key_name
                    for t in node.targets):
                value_names, value_attrs = _value_names(node.value)
                names |= value_names
                self_attrs |= value_attrs
        return names, self_attrs

    def _alias_rules(self, fnode: FunctionNode, eff: FunctionEffects,
                     emit: "_Emitter") -> None:
        for mutation in eff.local_mutations:
            origin = self._latest_origin(eff, mutation)
            if origin is None:
                continue
            if origin.kind == "cache-primitive":
                emit("ALIAS001", mutation.lineno,
                     f"{fnode.qualname} mutates {mutation.name} "
                     f"({mutation.detail}) obtained from "
                     f"{origin.detail}() without an intervening clone(); "
                     f"the cached copy is shared")
            elif origin.kind == "call" and origin.targets and all(
                    self.effects.get(t) is not None
                    and self.effects[t].returns_cached
                    for t in origin.targets):
                emit("ALIAS002", mutation.lineno,
                     f"{fnode.qualname} mutates {mutation.name} "
                     f"({mutation.detail}) returned by reference from "
                     f"caching function {origin.detail}; clone() before "
                     f"mutating")
        self._alias_escapes(fnode, eff, emit)

    def _latest_origin(self, eff: FunctionEffects,
                       mutation: Mutation) -> Origin | None:
        candidates = [o for o in eff.origins.get(mutation.name, ())
                      if o.lineno <= mutation.lineno]
        if not candidates:
            return None
        return max(candidates, key=lambda o: o.lineno)

    def _alias_escapes(self, fnode: FunctionNode, eff: FunctionEffects,
                       emit: "_Emitter") -> None:
        """Cached objects passed to callees that mutate that parameter."""
        for site in fnode.calls:
            if len(site.targets) != 1 or not isinstance(site.node, ast.Call):
                continue
            te = self.effects.get(site.targets[0])
            tn = self.graph.functions.get(site.targets[0])
            if te is None or tn is None or not te.param_mut:
                continue
            params = [a.arg for a in tn.node.args.args]
            if tn.cls is not None and params and params[0] in ("self", "cls") \
                    and isinstance(site.node.func, ast.Attribute):
                params = params[1:]
            for index, arg in enumerate(site.node.args):
                if not isinstance(arg, ast.Name) or index >= len(params):
                    continue
                if params[index] not in te.param_mut:
                    continue
                origin = self._latest_origin(
                    eff, Mutation(arg.id, site.lineno, ""))
                if origin is None:
                    continue
                if origin.kind == "cache-primitive":
                    emit("ALIAS001", site.lineno,
                         f"{fnode.qualname} passes cached object {arg.id} "
                         f"to {tn.qualname}, which mutates that parameter; "
                         f"clone() before the call")
                elif origin.kind == "call" and origin.targets and all(
                        self.effects.get(t) is not None
                        and self.effects[t].returns_cached
                        for t in origin.targets):
                    emit("ALIAS002", site.lineno,
                         f"{fnode.qualname} passes {arg.id} (returned by "
                         f"reference from caching function {origin.detail}) "
                         f"to {tn.qualname}, which mutates that parameter; "
                         f"clone() before the call")


def _finding_order(finding: Finding) -> tuple[str, int, str]:
    path, _, line = finding.location.rpartition(":")
    return (path, int(line) if line.isdigit() else 0, finding.rule)


class _Emitter:
    """Finding sink bound to one module's display path and suppressions."""

    def __init__(self, module: SourceModule, sink: list[Finding]):
        self.module = module
        self.sink = sink

    def __call__(self, rule: str, lineno: int, message: str) -> None:
        if self.module.suppressions.allows(rule, lineno):
            return
        self.sink.append(Finding(
            rule, RULES[rule][0], f"{self.module.display}:{lineno}", message))


# -- entry points ----------------------------------------------------------
def check_modules(modules: list[SourceModule],
                  roots: tuple[str, ...] = PARALLEL_ROOTS) -> list[Finding]:
    """Analyze pre-parsed modules (test seam) and evaluate every rule."""
    return EffectsAnalysis(modules, roots=roots).findings()


def check_source(source: str, path: str,
                 roots: tuple[str, ...] = PARALLEL_ROOTS) -> list[Finding]:
    """Single-module convenience wrapper used by the seeded-defect tests."""
    return check_modules([astutil.load_source(source, path)], roots=roots)


def run(root: Path | None = None,
        modules: list[SourceModule] | None = None) -> list[Finding]:
    """Effects pass entry point: analyze every module under ``root``.

    ``modules`` shares a pre-parsed package (one parse for all source passes).
    """
    return check_modules(modules if modules is not None
                         else astutil.load_package(root))
