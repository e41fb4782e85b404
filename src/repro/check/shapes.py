"""Shapes pass: symbolic shape & dtype abstract interpretation over the IR.

Every op *stores* its output shape, MACs and params as concrete values
computed at construction time; the per-layer characterization (Figures 6-9,
Table V) and everything downstream — rooflines, sweeps, fleet, placement —
trusts them blindly.  This pass removes the blind trust: it re-derives every
tensor shape, MAC count, parameter count and byte total from first principles
via the per-op transfer functions in :mod:`repro.check.shape_rules` and an
abstract interpreter that propagates the derivations topologically, then
compares derived against stored at zero tolerance.

Each graph is interpreted three ways:

* **concrete** — the stored input shapes; derived-vs-stored mismatches report
  SHAPE001 (shape), SHAPE002 (dtype propagation), SHAPE003 (rank/broadcast),
  SHAPE004 (reshape conservation), SHAPE005 (accounting), SHAPE006
  (conv/pool feasibility).
* **symbolic batch** — a free batch dim ``N`` is prefixed to every input and
  flowed through the graph; derived shapes must carry ``N`` in the leading
  position only and per-op MACs must scale exactly linearly in ``N`` (the
  batch cost model the execution engine assumes).  Violations are SHAPE007.
* **symbolic sequence** — for sequence models, the stored sequence length is
  replaced by a free ``SEQ`` dim; derived values must reproduce the stored
  ones when evaluated at the stored binding and stay well-formed for every
  ``SEQ >= 1``, so a graph that is only valid at its baked-in length is
  SHAPE007.

Transform outputs (fuse/prune/quantize/freeze, plus the freeze-after-fuse
composition) are re-interpreted and compared against the base derivation:
any inconsistency a transform introduces is SHAPE008, extending the IR101-104
conservation laws to the shape domain.

Locations read ``graph:<model>[@<transform>]/<op>`` as in the IR pass.
"""

from __future__ import annotations

import math

from repro.check.findings import Finding, Severity
from repro.check.ir import transform_outputs, verify_zoo
from repro.check.shape_rules import Derived, TransferError, apply_transfer
from repro.graphs import ops as O
from repro.graphs.graph import Graph
from repro.graphs.symbolic import Dim, dim, evaluate_dim, free_symbols
from repro.graphs.tensor import DType, TensorShape

RULES: dict[str, tuple[Severity, str]] = {
    "SHAPE001": (Severity.ERROR,
                 "stored output shapes must match the derived transfer-function shapes"),
    "SHAPE002": (Severity.ERROR,
                 "dtypes must propagate producer -> consumer without implicit casts"),
    "SHAPE003": (Severity.ERROR,
                 "op inputs must satisfy rank/shape compatibility (Add/Concat and friends)"),
    "SHAPE004": (Severity.ERROR,
                 "reshape/flatten must conserve the element count"),
    "SHAPE005": (Severity.ERROR,
                 "stored MACs/params/bytes must match derived accounting at zero tolerance"),
    "SHAPE006": (Severity.ERROR,
                 "conv/pool arithmetic must stay feasible under the declared padding"),
    "SHAPE007": (Severity.ERROR,
                 "graphs must stay valid for every symbolic batch/sequence binding >= 1"),
    "SHAPE008": (Severity.ERROR,
                 "transforms must preserve derived shape/accounting consistency"),
}

#: compatible weight/activation dtype pairings beyond "same dtype"; binary
#: weights need quantized activations (the FINN deployment style).
_BINARY_ACTS = (DType.INT8, DType.BINARY)


def _finding(rule: str, location: str, message: str) -> Finding:
    return Finding(rule, RULES[rule][0], location, message)


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------


def _propagate(graph: Graph, seeds: dict[int, TensorShape],
               batch: Dim | None):
    """Topologically derive every op, yielding ``(op, derived, error)``.

    ``seeds`` overrides Input shapes (symbolic modes); a failed transfer
    yields its :class:`TransferError` and falls back to the stored shape so
    one defect does not cascade down the graph.
    """
    env: dict[int, Derived] = {}
    for op in graph.ops:
        if isinstance(op, O.Input):
            derived = Derived(shape=seeds.get(id(op), op.output_shape))
            env[id(op)] = derived
            yield op, derived, None
            continue
        inputs = tuple(env[id(parent)].shape for parent in op.inputs)
        error: TransferError | None = None
        try:
            derived = apply_transfer(op, inputs, batch=batch)
        except TransferError as exc:
            error = exc
            fallback = (TensorShape(batch, *op.output_shape.dims)
                        if batch is not None else op.output_shape)
            derived = Derived(shape=fallback, macs=op.macs, params=op.params)
        env[id(op)] = derived
        yield op, derived, error


# --------------------------------------------------------------------------
# concrete interpretation: SHAPE001-SHAPE006
# --------------------------------------------------------------------------


def _check_dtypes(op: O.Op, loc: str) -> list[Finding]:
    findings = []
    produced = {parent.act_dtype for parent in op.inputs}
    if len(produced) > 1:
        names = sorted(d.value for d in produced)
        findings.append(_finding(
            "SHAPE002", loc,
            f"mixed activation dtypes {names} meet without a cast boundary"))
    elif produced and op.act_dtype not in produced:
        findings.append(_finding(
            "SHAPE002", loc,
            f"consumes {next(iter(produced)).value} activations but stores "
            f"{op.act_dtype.value} without a cast/quantize boundary"))
    if op.weight_dtype is DType.BINARY and op.act_dtype not in _BINARY_ACTS:
        findings.append(_finding(
            "SHAPE002", loc,
            f"binary weights require quantized activations, got "
            f"{op.act_dtype.value}"))
    return findings


def _check_accounting(op: O.Op, derived: Derived, loc: str) -> list[Finding]:
    findings = []
    if derived.macs != op.macs:
        findings.append(_finding(
            "SHAPE005", loc, f"stored MACs {op.macs} != derived {derived.macs}"))
    if derived.params != op.params:
        findings.append(_finding(
            "SHAPE005", loc,
            f"stored params {op.params} != derived {derived.params}"))
    derived_weight = math.ceil(derived.params * op.weight_dtype.bytes)
    if derived_weight != op.weight_bytes():
        findings.append(_finding(
            "SHAPE005", loc,
            f"stored weight bytes {op.weight_bytes()} != derived {derived_weight}"))
    derived_act = math.ceil(derived.shape.numel * op.act_dtype.bytes)
    if derived_act != op.output_bytes():
        findings.append(_finding(
            "SHAPE005", loc,
            f"stored activation bytes {op.output_bytes()} != derived {derived_act}"))
    if isinstance(op, O.Embedding):
        touched = math.ceil(
            derived.shape.dims[0] * op.dim * op.weight_dtype.bytes)
        stored = op.traffic_weight_bytes(exploit_sparsity=False)
        if touched != stored:
            findings.append(_finding(
                "SHAPE005", loc,
                f"stored embedding traffic {stored} B != derived {touched} B"))
    return findings


def _interpret_concrete(graph: Graph, where: str
                        ) -> tuple[list[Finding], dict[str, Derived], set[str]]:
    """Concrete run: returns (findings, derivation by op name, flagged names)."""
    findings: list[Finding] = []
    env: dict[str, Derived] = {}
    flagged: set[str] = set()
    for op, derived, error in _propagate(graph, seeds={}, batch=None):
        loc = f"{where}/{op.name}"
        env[op.name] = derived
        before = len(findings)
        if error is not None:
            findings.append(_finding(error.rule, loc, error.message))
        elif not isinstance(op, O.Input):
            if derived.shape.dims != op.output_shape.dims:
                findings.append(_finding(
                    "SHAPE001", loc,
                    f"stored shape {op.output_shape.dims} != derived "
                    f"{derived.shape.dims}"))
            findings += _check_accounting(op, derived, loc)
        findings += _check_dtypes(op, loc)
        if len(findings) > before:
            flagged.add(op.name)
    return findings, env, flagged


# --------------------------------------------------------------------------
# symbolic batch interpretation: SHAPE007
# --------------------------------------------------------------------------


def _interpret_batch(graph: Graph, where: str, concrete: dict[str, Derived],
                     flagged: set[str]) -> list[Finding]:
    batch = dim("N")
    seeds = {id(op): TensorShape(batch, *op.output_shape.dims)
             for op in graph.ops if isinstance(op, O.Input)}
    findings: list[Finding] = []
    for op, derived, error in _propagate(graph, seeds, batch):
        if isinstance(op, O.Input) or op.name in flagged:
            continue  # concretely-broken ops already reported their own rule
        loc = f"{where}/{op.name}"
        if error is not None:
            findings.append(_finding(
                "SHAPE007", loc, f"not batch-safe: {error.message}"))
            continue
        dims = derived.shape.dims
        if dims[0] != batch:
            findings.append(_finding(
                "SHAPE007", loc, f"derived shape {dims} lost the leading batch dim"))
            continue
        base = concrete[op.name]
        if any(free_symbols(d) for d in dims[1:]):
            findings.append(_finding(
                "SHAPE007", loc,
                f"per-sample dims depend on the batch size: {dims[1:]}"))
        elif dims[1:] != base.shape.dims:
            findings.append(_finding(
                "SHAPE007", loc,
                f"per-sample dims {dims[1:]} != concrete {base.shape.dims}"))
        if evaluate_dim(derived.macs, {"N": 3}) != 3 * base.macs:
            findings.append(_finding(
                "SHAPE007", loc,
                f"MACs are not linear in the batch size: {derived.macs}"))
        if derived.params != base.params:
            findings.append(_finding(
                "SHAPE007", loc,
                f"params depend on the batch size: {derived.params}"))
    return findings


# --------------------------------------------------------------------------
# symbolic sequence interpretation: SHAPE007
# --------------------------------------------------------------------------


def _seq_seeds(graph: Graph) -> tuple[dict[int, TensorShape], int] | None:
    """Symbolic-SEQ seeding for sequence models, or None when inapplicable.

    The sequence axis is the leading dim of any Input consumed by an
    Embedding (token ids, rank 1) or recurrent layer (features, rank 2).
    """
    seq = dim("SEQ")
    seeds: dict[int, TensorShape] = {}
    lengths: set[int] = set()
    for op in graph.ops:
        rank = 1 if isinstance(op, O.Embedding) else \
            2 if isinstance(op, O._RecurrentLayer) else None
        if rank is None:
            continue
        source = op.inputs[0]
        if isinstance(source, O.Input) and source.output_shape.rank == rank:
            seeds[id(source)] = TensorShape(seq, *source.output_shape.dims[1:])
            lengths.add(source.output_shape.dims[0])
    if not seeds or len(lengths) != 1:
        return None  # not a sequence model, or no single SEQ binding exists
    return seeds, lengths.pop()


def _interpret_seq(graph: Graph, where: str, concrete: dict[str, Derived],
                   flagged: set[str]) -> list[Finding]:
    seeded = _seq_seeds(graph)
    if seeded is None:
        return []
    seeds, stored_len = seeded
    at_stored = {"SEQ": stored_len}
    at_one = {"SEQ": 1}
    findings: list[Finding] = []
    for op, derived, error in _propagate(graph, seeds, batch=None):
        if isinstance(op, O.Input) or op.name in flagged:
            continue
        loc = f"{where}/{op.name}"
        if error is not None:
            findings.append(_finding(
                "SHAPE007", loc,
                f"only valid at the stored sequence length: {error.message}"))
            continue
        base = concrete[op.name]
        dims = derived.shape.dims
        evaluated = tuple(evaluate_dim(d, at_stored) for d in dims)
        if evaluated != base.shape.dims:
            findings.append(_finding(
                "SHAPE007", loc,
                f"symbolic shape {dims} evaluates to {evaluated} at "
                f"SEQ={stored_len}, stored {base.shape.dims}"))
        if any(evaluate_dim(d, at_one) < 1 for d in dims):
            findings.append(_finding(
                "SHAPE007", loc, f"shape {dims} collapses at SEQ=1"))
        if evaluate_dim(derived.macs, at_stored) != base.macs:
            findings.append(_finding(
                "SHAPE007", loc,
                f"symbolic MACs {derived.macs} disagree with stored "
                f"{base.macs} at SEQ={stored_len}"))
        if free_symbols(derived.params):
            findings.append(_finding(
                "SHAPE007", loc,
                f"params depend on the sequence length: {derived.params}"))
    return findings


# --------------------------------------------------------------------------
# transform preservation: SHAPE008
# --------------------------------------------------------------------------


def verify_transform_shapes(kind: str, base_env: dict[str, Derived],
                            transformed: Graph, label: str) -> list[Finding]:
    """SHAPE008: a transform output must re-derive cleanly and agree with
    the base graph's derivation for every surviving op."""
    where = f"graph:{label}"
    findings: list[Finding] = []
    inner, env, _ = _interpret_concrete(transformed, where)
    for found in inner:
        findings.append(_finding(
            "SHAPE008", found.location,
            f"{kind} broke derived consistency: [{found.rule}] {found.message}"))
    for op in transformed.ops:
        base = base_env.get(op.name)
        if base is None:
            findings.append(_finding(
                "SHAPE008", f"{where}/{op.name}",
                f"{kind} introduced op {op.name!r} absent from the base graph"))
        elif env[op.name].shape.dims != base.shape.dims:
            findings.append(_finding(
                "SHAPE008", f"{where}/{op.name}",
                f"{kind} changed the derived shape: {base.shape.dims} -> "
                f"{env[op.name].shape.dims}"))
    return findings


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def verify_graph_shapes(graph: Graph, label: str | None = None) -> list[Finding]:
    """Interpret one graph concretely and under symbolic batch/sequence dims."""
    where = f"graph:{label or graph.name}"
    findings, concrete, flagged = _interpret_concrete(graph, where)
    findings += _interpret_batch(graph, where, concrete, flagged)
    findings += _interpret_seq(graph, where, concrete, flagged)
    return findings


def verify_transform(kind: str, base: Graph, transformed: Graph,
                     label: str | None = None) -> list[Finding]:
    """SHAPE008 for one transform output against its base graph."""
    _, base_env, _ = _interpret_concrete(base, f"graph:{base.name}")
    return verify_transform_shapes(kind, base_env, transformed,
                                   label or f"{base.name}@{kind}")


def verify_transforms(graph: Graph, label: str | None = None) -> list[Finding]:
    """Apply every transform and verify shape preservation (SHAPE008)."""
    label = label or graph.name
    _, base_env, _ = _interpret_concrete(graph, f"graph:{label}")
    findings: list[Finding] = []
    for step, kind, _base, transformed in transform_outputs(graph, label):
        findings += verify_transform_shapes(kind, base_env, transformed, step)
    return findings


def verify_model(model_name: str) -> list[Finding]:
    """Verify one zoo model and all of its transform outputs."""
    return verify_zoo([model_name], verify_graph_shapes, verify_transforms)


def run(models: list[str] | None = None) -> list[Finding]:
    """Shapes pass entry point: every zoo model (or ``models``) + transforms."""
    return verify_zoo(models, verify_graph_shapes, verify_transforms)


# --------------------------------------------------------------------------
# symbolic summaries (golden-snapshot surface)
# --------------------------------------------------------------------------


def render_symbolic_summary(graph: Graph) -> str:
    """A per-op table of fully symbolic derivations (batch ``N`` prefixed,
    sequence axis ``SEQ`` where applicable) — the golden-snapshot surface
    proving the symbolic algebra stays stable."""
    batch = dim("N")
    seeded = _seq_seeds(graph)
    seq_seeds = seeded[0] if seeded else {}
    seeds = {}
    for op in graph.ops:
        if isinstance(op, O.Input):
            per_sample = seq_seeds.get(id(op), op.output_shape)
            seeds[id(op)] = TensorShape(batch, *per_sample.dims)
    lines = [f"model: {graph.name}"]
    for op, derived, error in _propagate(graph, seeds, batch):
        if error is not None:
            rendered = f"<{error.rule}: {error.message}>"
        else:
            dims = ", ".join(str(d) for d in derived.shape.dims)
            rendered = (f"({dims})  params={derived.params}  "
                        f"macs={derived.macs}")
        lines.append(f"{op.name:<24} {type(op).__name__:<18} {rendered}")
    return "\n".join(lines) + "\n"
