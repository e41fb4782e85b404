"""The shared AST index: own nodes per function, call owners, module facts."""

import ast
import textwrap

import pytest

from repro.check import astutil

from tests.check import oracles

#: node types the source passes filter the index for.
FILTERED = (ast.Call, ast.Assign, ast.Return)


def index_of(snippet):
    return astutil.load_source(textwrap.dedent(snippet), "src/repro/demo.py").index


def defs(index):
    return {node.name: node for node in index.scopes if node is not None}


@pytest.fixture(scope="module")
def package():
    return astutil.load_package()


class TestOracleEquivalence:
    def test_every_function_matches_the_recursive_walk(self, package):
        checked = 0
        for module in package:
            for node, scope in module.index.scopes.items():
                if node is None:
                    continue
                expected = [sub for sub in oracles.walk_skip_defs(node)
                            if isinstance(sub, FILTERED)]
                actual = [sub for sub in scope.nodes
                          if isinstance(sub, FILTERED)]
                assert actual == expected, f"{module.display}:{node.lineno}"
                checked += 1
        assert checked > 1000

    def test_every_node_has_exactly_one_scope(self, package):
        for module in package:
            index = module.index
            assert len(index.nodes) == sum(len(scope.nodes)
                                           for scope in index.scopes.values())
            assert len(set(map(id, index.nodes))) == len(index.nodes)

    def test_calls_are_listed_in_order_with_their_owner(self, package):
        for module in package:
            owner_of = {id(node): owner
                        for owner, scope in module.index.scopes.items()
                        for node in scope.nodes}
            calls = [node for node in module.index.nodes
                     if isinstance(node, ast.Call)]
            assert [call for call, _ in module.index.calls] == calls
            assert all(owner is owner_of[id(call)]
                       for call, owner in module.index.calls)


class TestOwnNodes:
    SNIPPET = """
    @decorate(config())
    def outer(flag, default=make()):
        if flag:
            def inner(x=fallback()):
                return helper(x)
        with lock:
            total = inner(1)
        return total
    """

    def test_nested_def_statement_is_own_but_its_subtree_is_not(self):
        index = index_of(self.SNIPPET)
        scopes = defs(index)
        outer_nodes = index.scopes[scopes["outer"]].nodes
        assert scopes["inner"] in outer_nodes
        outer_calls = [astutil.call_name(n) for n in outer_nodes
                       if isinstance(n, ast.Call)]
        assert outer_calls == ["make", "inner", "decorate", "config"]
        inner_calls = [astutil.call_name(n)
                       for n in index.scopes[scopes["inner"]].nodes
                       if isinstance(n, ast.Call)]
        assert inner_calls == ["fallback", "helper"]

    def test_body_span_covers_the_statements_only(self):
        index = index_of(self.SNIPPET)
        outer = defs(index)["outer"]
        scope = index.scopes[outer]
        body = [scope.nodes[i] for i in scope.body]
        assert body[0] is outer.body[0]
        assert outer.body[-1] in body
        assert not any(isinstance(n, ast.Call) and astutil.call_name(n)
                       in ("make", "config", "decorate") for n in body)

    def test_ends_delimit_each_subtree(self):
        index = index_of(self.SNIPPET)
        scope = index.scopes[defs(index)["outer"]]
        position = next(i for i, n in enumerate(scope.nodes)
                        if isinstance(n, ast.With))
        span = scope.nodes[position:scope.ends[position]]
        assert {id(n) for n in span} == {
            id(n) for n in ast.walk(scope.nodes[position])
            if not isinstance(n, astutil._SHARED_LEAVES)}

    def test_class_bodies_are_not_a_scope_boundary(self):
        index = index_of("""
        def factory():
            class Local:
                size = measure()

                def method(self):
                    return probe()
            return Local
        """)
        scopes = defs(index)
        calls = [astutil.call_name(n)
                 for n in index.scopes[scopes["factory"]].nodes
                 if isinstance(n, ast.Call)]
        assert calls == ["measure"]
        assert "method" in scopes


class TestModuleFacts:
    def test_nondet_imports_are_module_wide_in_any_order(self):
        index = index_of("""
        def f():
            from time import perf_counter as clock, sleep
            return clock()

        from random import random as jitter
        from secrets import token_hex
        """)
        assert index.nondet_imports == {"clock", "jitter", "token_hex"}

    def test_globals_and_scope_names(self):
        index = index_of("""
        import numpy.linalg
        from os import path as p
        CACHE = {}
        TOTAL: int = 0
        COUNT += 1

        def f():
            LOCAL = 1

        class C:
            ATTR = 2
        """)
        assert index.globals == {"CACHE", "TOTAL", "COUNT"}
        assert index.scope_names == {"CACHE", "TOTAL", "COUNT", "numpy", "p",
                                     "f", "C"}
