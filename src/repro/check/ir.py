"""IR verifier: structural well-formedness of zoo graphs and transforms.

`Graph` validates the cheap invariants at construction time, but transforms
clone via ``Graph.__new__`` (skipping re-validation), annotate ops in place,
and grow richer semantics (fusion chains, sparsity, dtype rewrites) that
construction-time checks never see.  This pass re-verifies every zoo graph
and the output of every transform from first principles: dataflow order,
shape/dtype agreement across edges, non-negative accounting, fusion-link
consistency, per-op roofline preconditions, and the conservation invariants
each transform promises (fusion/quantization/freezing never change total
MACs or params; pruning annotates sparsity without touching params).

Locations read ``graph:<model>[@<transform>]/<op>``.
"""

from __future__ import annotations

import math

from repro.check.findings import Finding, Severity
from repro.graphs import ops as O
from repro.graphs.graph import Graph
from repro.graphs.tensor import DType, TensorShape
from repro.graphs.transforms import freeze_graph, fuse_graph, prune_graph, quantize_graph

RULES: dict[str, tuple[Severity, str]] = {
    "IR001": (Severity.ERROR, "dataflow must be acyclic and topologically ordered"),
    "IR002": (Severity.ERROR, "op names must be unique within a graph"),
    "IR003": (Severity.ERROR, "a graph must have at least one Input op"),
    "IR004": (Severity.ERROR, "op output shapes must be positive integer dims"),
    "IR005": (Severity.ERROR, "dtype annotations must agree across every edge"),
    "IR006": (Severity.ERROR, "FLOP/byte/param accounting must be non-negative"),
    "IR007": (Severity.ERROR, "fusion links must be consistent and acyclic"),
    "IR008": (Severity.ERROR, "roofline preconditions: finite work over positive bytes"),
    "IR101": (Severity.ERROR, "fusion must conserve total MACs, params and op count"),
    "IR102": (Severity.ERROR, "pruning must not change params or MACs (annotation only)"),
    "IR103": (Severity.ERROR, "quantization must conserve MACs/params and set uniform dtypes"),
    "IR104": (Severity.ERROR, "freezing must conserve MACs/params and fold every Dropout"),
}

#: transform name -> conservation rule id.
_CONSERVATION_RULE = {
    "fuse": "IR101",
    "prune": "IR102",
    "quantize": "IR103",
    "freeze": "IR104",
}


def _finding(rule: str, location: str, message: str) -> Finding:
    return Finding(rule, RULES[rule][0], location, message)


def _is_finite_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False  # too large for the engine's float math


def verify_graph(graph: Graph, label: str | None = None) -> list[Finding]:
    """Re-verify one graph from first principles (IR001-IR008)."""
    label = label or graph.name
    where = f"graph:{label}"
    findings: list[Finding] = []

    in_graph = {id(op) for op in graph.ops}
    seen: set[int] = set()
    names: set[str] = set()
    for op in graph.ops:
        loc = f"{where}/{op.name}"
        for parent in op.inputs:
            if id(parent) not in in_graph:
                findings.append(_finding(
                    "IR001", loc, f"consumes {parent.name!r} which is not in the graph"))
            elif id(parent) not in seen:
                findings.append(_finding(
                    "IR001", loc, f"consumes {parent.name!r} before it is defined"))
        if op.name in names:
            findings.append(_finding("IR002", loc, "duplicate op name"))
        names.add(op.name)
        seen.add(id(op))

    if not any(isinstance(op, O.Input) for op in graph.ops):
        findings.append(_finding("IR003", where, "graph has no Input op"))

    for op in graph.ops:
        loc = f"{where}/{op.name}"
        findings += _check_shape(op, loc)
        findings += _check_dtypes(op, loc)
        findings += _check_accounting(op, loc)
        findings += _check_fusion_links(op, loc, in_graph, len(graph.ops))

    # Roofline preconditions only make sense on a structurally sound graph.
    if not findings:
        for op in graph.schedulable_ops():
            findings += _check_roofline(op, f"{where}/{op.name}")
    return findings


def _check_shape(op: O.Op, loc: str) -> list[Finding]:
    shape = op.output_shape
    if not isinstance(shape, TensorShape):
        return [_finding("IR004", loc, f"output_shape is {type(shape).__name__}, "
                                       "not a TensorShape")]
    bad = [d for d in shape.dims
           if not isinstance(d, int) or isinstance(d, bool) or d <= 0]
    if bad:
        return [_finding("IR004", loc, f"non-positive output dims in {shape.dims}")]
    return []


def _check_dtypes(op: O.Op, loc: str) -> list[Finding]:
    findings = []
    for attr in ("weight_dtype", "act_dtype"):
        if not isinstance(getattr(op, attr), DType):
            findings.append(_finding("IR005", loc, f"{attr} is not a DType"))
    if findings:
        return findings
    for parent in op.inputs:
        if isinstance(parent.act_dtype, DType) and parent.act_dtype is not op.act_dtype:
            findings.append(_finding(
                "IR005", loc,
                f"activation dtype {op.act_dtype.value} disagrees with producer "
                f"{parent.name!r} ({parent.act_dtype.value})"))
    return findings


def _check_accounting(op: O.Op, loc: str) -> list[Finding]:
    findings = []
    for attr in ("params", "macs"):
        value = getattr(op, attr)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            findings.append(_finding("IR006", loc, f"{attr} must be a non-negative int, "
                                                   f"got {value!r}"))
    sparsity = op.weight_sparsity
    if not isinstance(sparsity, (int, float)) or not 0.0 <= sparsity < 1.0:
        findings.append(_finding(
            "IR006", loc, f"weight_sparsity must be in [0, 1), got {sparsity!r}"))
    return findings


def _check_fusion_links(op: O.Op, loc: str, in_graph: set[int],
                        graph_size: int) -> list[Finding]:
    findings = []
    target = op.fused_into
    if target is not None:
        if isinstance(op, O.Input):
            findings.append(_finding("IR007", loc, "Input op cannot be fused away"))
        if id(target) not in in_graph:
            findings.append(_finding(
                "IR007", loc, f"fused into {target.name!r} which is not in the graph"))
        elif op not in target.absorbed:
            findings.append(_finding(
                "IR007", loc, f"fused into {target.name!r} but missing from its "
                              "absorbed list"))
        # Fusion chains (a -> b -> anchor) are legal; cycles are not.
        cursor, steps = op, 0
        while cursor.fused_into is not None and steps <= graph_size:
            cursor = cursor.fused_into
            steps += 1
        if steps > graph_size:
            findings.append(_finding("IR007", loc, "fusion chain does not terminate"))
    for absorbed in op.absorbed:
        if absorbed.fused_into is not op:
            findings.append(_finding(
                "IR007", loc, f"absorbed op {absorbed.name!r} does not point back "
                              "via fused_into"))
    return findings


def _check_roofline(op: O.Op, loc: str) -> list[Finding]:
    findings = []
    macs = op.effective_macs(exploit_sparsity=True)
    if not _is_finite_number(macs):
        findings.append(_finding("IR008", loc, f"effective MACs not finite: {macs!r}"))
    moved = (op.traffic_weight_bytes(exploit_sparsity=False)
             + op.input_bytes() + op.output_bytes())
    if not _is_finite_number(moved):
        findings.append(_finding("IR008", loc, f"byte traffic not finite: {moved!r}"))
    elif moved <= 0:
        findings.append(_finding(
            "IR008", loc,
            "op moves zero bytes; arithmetic intensity would be infinite"))
    return findings


def verify_transform(kind: str, base: Graph, transformed: Graph,
                     label: str | None = None) -> list[Finding]:
    """Check the conservation contract of one transform output (IR101-IR104).

    ``kind`` is one of ``fuse``/``prune``/``quantize``/``freeze``; ``base``
    is the untransformed graph the invariants are stated against.
    """
    if kind not in _CONSERVATION_RULE:
        raise ValueError(f"unknown transform kind {kind!r}")
    rule = _CONSERVATION_RULE[kind]
    label = label or f"{base.name}@{kind}"
    where = f"graph:{label}"
    findings = []

    if len(transformed.ops) != len(base.ops):
        findings.append(_finding(rule, where, f"op count changed: {len(base.ops)} -> "
                                              f"{len(transformed.ops)}"))
    if transformed.total_macs != base.total_macs:
        findings.append(_finding(rule, where, f"total MACs changed: {base.total_macs} -> "
                                              f"{transformed.total_macs}"))
    if transformed.total_params != base.total_params:
        findings.append(_finding(
            rule, where, f"total params changed: {base.total_params} -> "
                         f"{transformed.total_params}"))

    if kind == "quantize":
        dtypes = {op.weight_dtype for op in transformed.ops}
        if len(dtypes) != 1:
            findings.append(_finding(rule, where, "non-uniform weight dtypes after "
                                                  "quantization"))
        if transformed.weight_bytes() > base.weight_bytes():
            findings.append(_finding(rule, where, "quantization increased weight bytes"))
    if kind == "freeze":
        for op in transformed.ops:
            if isinstance(op, O.Dropout) and not op.is_fused_away:
                findings.append(_finding(
                    rule, f"{where}/{op.name}", "Dropout survived freezing"))
    return findings


def transform_outputs(graph: Graph, label: str) -> list[tuple[str, str, Graph, Graph]]:
    """``(step, kind, base, output)`` for every transform of ``graph``.

    The last is a composition: freezing a fused graph exercises fusion
    *chains* (Dropout folded into an op that is itself fused away).
    """
    fused = fuse_graph(graph)
    return [
        (f"{label}@fuse", "fuse", graph, fused),
        (f"{label}@prune", "prune", graph, prune_graph(graph, sparsity=0.5)),
        (f"{label}@quantize", "quantize", graph, quantize_graph(graph, DType.INT8)),
        (f"{label}@freeze", "freeze", graph, freeze_graph(graph)),
        (f"{label}@fuse+freeze", "freeze", fused, freeze_graph(fused)),
    ]


def verify_transforms(graph: Graph, label: str | None = None) -> list[Finding]:
    """Apply every transform to ``graph`` and verify output + conservation."""
    findings: list[Finding] = []
    for step, kind, base, transformed in transform_outputs(graph, label or graph.name):
        findings += verify_graph(transformed, label=step)
        findings += verify_transform(kind, base, transformed, label=step)
    return findings


def verify_zoo(models: list[str] | None, check_graph, check_transforms) -> list[Finding]:
    """``check_graph`` every zoo model (or ``models``), then
    ``check_transforms`` each well-formed one (transforms of a malformed
    graph would double-report); the IR and shapes passes share this loop."""
    from repro.models import list_models, load_model

    findings: list[Finding] = []
    for name in models if models is not None else list_models():
        graph = load_model(name)
        findings += check_graph(graph) or check_transforms(graph)
    return findings


def verify_model(model_name: str) -> list[Finding]:
    """Verify one zoo model and all of its transform outputs."""
    return verify_zoo([model_name], verify_graph, verify_transforms)


def run(models: list[str] | None = None) -> list[Finding]:
    """IR pass entry point: every zoo model (or ``models``) + transforms."""
    return verify_zoo(models, verify_graph, verify_transforms)
