"""Reference walk the AST index is pinned against.

This is the recursive walker the call graph used before the passes read
:class:`repro.check.astutil.SourceIndex`: ``ast.walk`` in pre-order that
stays inside one function, skipping nested ``def`` statements together
with everything beneath them.  The index must list the same calls,
assignments and returns for every function, in the same order.
"""

from __future__ import annotations

import ast


def walk_skip_defs(node: ast.AST):
    """Pre-order descendants of ``node``, nested ``def`` subtrees excluded."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        yield from walk_skip_defs(child)
