"""Reverse-mode differentiation over dense 2-D float64 matrices.

The op set is closed and small: matrix product, transpose, row gather,
elementwise add, scalar scale, row softmax, row L2 normalisation, mean/max
pooling, column concatenation, cross entropy and mean squared error. Six
fused ops each stand for a chain of those in one node with a hand-written
backward: `self_attention` and `residual_linear` (the encoders),
`cosine_scores` (label attention), `bilinear_softmax` (the vanilla
alignment), `affine` (the classifier and tower heads) and `weighted_sum`
(the loss totals). A fused op repeats its chain's array expressions, operand
layouts and fan-out summation order, so it gives the chain's bits forward
and backward while the tape builds and walks fewer than half the nodes.
`row_l2_normalize` is kept although the package now normalises inside
`cosine_scores`: the grad suite checks it and the benchmark tracer names it.
Every objective in the package composes from these, so a single central
finite-difference checker (`grad_check`, and `run_op_grad_suite` over every
op) can certify the whole backward implementation.

Graphs are built eagerly. Each operation returns a `Node` holding the
computed `Matrix` plus a closure that maps the gradient arriving at the node
to one gradient array per parent. Matrices are immutable after construction
and may be shared freely; graphs are built and differentiated on a single
thread.

Finiteness is checked at the boundaries, not inside every op: the public
`Matrix(...)` constructor (parameters, corpora, checkpoints, tests) rejects
NaN and infinity, and so does every leaf gradient `backward` stores. Op
outputs take their freshly computed arrays without a copy or a scan; the
trainer checks the loss root before `backward` and every Adam-updated
parameter, and prediction checks its logits, so a non-finite intermediate
surfaces as a `NonFiniteError` at one of those points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DegenerateRowError, DimensionError, NonFiniteError

# Rows with L2 norm below this cannot be normalised meaningfully.
_NORM_FLOOR = 1e-12


class Matrix:
    """Immutable dense 2-D matrix of 64-bit floats, stored row-major."""

    __slots__ = ("_a",)

    def __init__(self, values) -> None:
        a = np.array(values, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise DimensionError(f"matrix must be 2-D, got {a.ndim} dimension(s)")
        if not np.isfinite(a).all():
            raise NonFiniteError("matrix entries must be finite")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _adopt(cls, a: np.ndarray) -> "Matrix":
        """Wrap a C-ordered 2-D float64 array an op computed and nothing writes to.

        No copy and no finiteness scan; the array is only made read-only.
        """
        a.setflags(write=False)
        m = cls.__new__(cls)
        m._a = a
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(np.zeros((rows, cols)))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only 2-D view of the entries."""
        return self._a

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._a, other._a))

    def allclose(self, other: "Matrix", atol: float = 1e-12) -> bool:
        return self.shape == other.shape and bool(
            np.allclose(self._a, other.array, rtol=0.0, atol=atol)
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


class Node:
    """A value in the computation graph.

    `backward_fn` receives the gradient of the scalar objective with respect
    to this node's value (an ndarray) and returns one gradient array (or
    None, for a parent that takes no gradient) per parent. Only leaves keep
    a `grad`: it stays None until a backward pass deposits into it, and
    deposits accumulate across backward calls until `zero_grad`.
    """

    __slots__ = ("value", "op", "parents", "backward_fn", "grad", "requires_grad")

    def __init__(
        self,
        value: Matrix,
        op: str = "leaf",
        parents: tuple["Node", ...] = (),
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
        requires_grad: bool = False,
    ) -> None:
        self.value = value
        self.op = op
        self.parents = parents = tuple(parents)
        self.backward_fn = backward_fn
        if not requires_grad:
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self.grad: Matrix | None = None

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, value={self.value!r})"


def constant(values) -> Node:
    """Leaf node that never receives gradients."""
    m = values if isinstance(values, Matrix) else Matrix(values)
    return Node(m, op="constant")


def parameter(values) -> Node:
    """Leaf node that accumulates gradients during backward passes."""
    m = values if isinstance(values, Matrix) else Matrix(values)
    return Node(m, op="parameter", requires_grad=True)


def _topo_order(root: Node) -> list[Node]:
    """Nodes on gradient-carrying paths, parents before children."""
    order: list[Node] = []
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and p not in seen:
                stack.append((p, False))
    return order


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar root into every contributing leaf.

    Visits each node exactly once; fan-out gradients are summed before the
    node's own backward rule runs. Intermediate gradients live only for the
    pass; each leaf's stored `grad` must be finite (`NonFiniteError`).
    """
    if root.value.shape != (1, 1):
        raise ContractError(
            f"backward requires a 1x1 scalar root, got {root.value.rows}x{root.value.cols}"
        )
    pending: dict[Node, np.ndarray] = {root: np.ones((1, 1))}
    for node in reversed(_topo_order(root)):
        g = pending.pop(node, None)
        if g is None:
            continue
        if node.backward_fn is None:
            node.grad = Matrix(g) if node.grad is None else Matrix(node.grad.array + g)
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if not parent.requires_grad or pg is None:
                continue
            if parent in pending:
                pending[parent] = pending[parent] + pg
            else:
                pending[parent] = pg


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _op(out: np.ndarray, op: str, parents: tuple[Node, ...], backward_fn) -> Node:
    return Node(Matrix._adopt(out), op, parents, backward_fn)


def _check_product(op: str, a: tuple[int, int], b: tuple[int, int]) -> None:
    if a[1] != b[0]:
        raise DimensionError(f"{op}: {a[0]}x{a[1]} is incompatible with {b[0]}x{b[1]}")


def _check_same(op: str, a: tuple[int, int], b: tuple[int, int]) -> None:
    if a != b:
        raise DimensionError(f"{op}: shapes differ ({a[0]}x{a[1]} vs {b[0]}x{b[1]})")


def matmul(a: Node, b: Node) -> Node:
    _check_product("matmul", a.value.shape, b.value.shape)
    av, bv = a.value.array, b.value.array
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g: np.ndarray):
        return (g @ bv.T if need_a else None, av.T @ g if need_b else None)

    return _op(av @ bv, "matmul", (a, b), backward_fn)


def transpose(a: Node) -> Node:
    def backward_fn(g: np.ndarray):
        return (g.T,)

    return _op(np.ascontiguousarray(a.value.array.T), "transpose", (a,), backward_fn)


def gather(table: Node, ids: Sequence[int], what: str = "id") -> Node:
    """One row of `table` per id, in order: an embedding lookup.

    Ids must lie in [0, rows); `what` names them in the IndexError. The
    backward scatter-adds each output row's gradient into its table row.
    """
    t = table.value.array
    vocab = t.shape[0]
    idx = np.asarray(ids, dtype=np.intp)
    bad = np.flatnonzero((idx < 0) | (idx >= vocab))
    if bad.size:
        raise IndexError(f"{what} {int(idx[bad[0]])} out of range for vocabulary of size {vocab}")

    def backward_fn(g: np.ndarray):
        gt = np.zeros(t.shape)
        np.add.at(gt, idx, g)
        return (gt,)

    return _op(t[idx], "gather", (table,), backward_fn)


def add(a: Node, b: Node) -> Node:
    _check_same("add", a.value.shape, b.value.shape)

    def backward_fn(g: np.ndarray):
        return g, g

    return _op(a.value.array + b.value.array, "add", (a, b), backward_fn)


def scale(a: Node, factor: float) -> Node:
    factor = float(factor)

    def backward_fn(g: np.ndarray):
        return (g * factor,)

    return _op(a.value.array * factor, "scale", (a,), backward_fn)


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_backward(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    inner = (g * s).sum(axis=1, keepdims=True)
    return (g - inner) * s


def row_softmax(a: Node) -> Node:
    """Softmax within each row; the rows become probability vectors."""
    s = _softmax(a.value.array)

    def backward_fn(g: np.ndarray):
        return (_softmax_backward(g, s),)

    return _op(s, "row_softmax", (a,), backward_fn)


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row over its L2 norm, and the norms; DegenerateRowError on a zero row."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    small = np.flatnonzero(norms[:, 0] < _NORM_FLOOR)
    if small.size:
        raise DegenerateRowError(f"row {int(small[0])} has near-zero norm")
    return x / norms, norms


def _unit_rows_backward(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    inner = (g * y).sum(axis=1, keepdims=True)
    return (g - y * inner) / norms


def row_l2_normalize(a: Node) -> Node:
    """Rescale each row to unit L2 norm."""
    y, norms = _unit_rows(a.value.array)

    def backward_fn(g: np.ndarray):
        return (_unit_rows_backward(g, y, norms),)

    return _op(y, "row_l2_normalize", (a,), backward_fn)


def pool(a: Node, axis: str, kind: str) -> Node:
    """Collapse one axis by arithmetic mean or elementwise maximum.

    axis="rows" reduces across rows to a 1 x cols matrix; axis="cols"
    reduces across columns to rows x 1. The max backward routes the whole
    gradient to the first (lowest-index) argmax along the pooled axis.
    """
    if axis not in ("rows", "cols"):
        raise ContractError(f"pool axis must be 'rows' or 'cols', got {axis!r}")
    if kind not in ("mean", "max"):
        raise ContractError(f"pool kind must be 'mean' or 'max', got {kind!r}")
    x = a.value.array
    rows, cols = x.shape
    np_axis = 0 if axis == "rows" else 1

    if kind == "mean":
        out = x.mean(axis=np_axis, keepdims=True)
        count = rows if axis == "rows" else cols

        def backward_fn(g: np.ndarray):
            return (np.broadcast_to(g / count, x.shape).copy(),)

    else:
        out = x.max(axis=np_axis, keepdims=True)
        winners = x.argmax(axis=np_axis)

        def backward_fn(g: np.ndarray):
            gx = np.zeros_like(x)
            if np_axis == 0:
                gx[winners, np.arange(cols)] = g[0, :]
            else:
                gx[np.arange(rows), winners] = g[:, 0]
            return (gx,)

    return _op(out, f"pool_{kind}_{axis}", (a,), backward_fn)


def concat_cols(a: Node, b: Node) -> Node:
    """Place b's columns to the right of a's."""
    if a.value.rows != b.value.rows:
        raise DimensionError(
            f"concat_cols: row counts differ ({a.value.rows} vs {b.value.rows})"
        )
    split = a.value.cols

    def backward_fn(g: np.ndarray):
        return g[:, :split], g[:, split:]

    merged = np.concatenate([a.value.array, b.value.array], axis=1)
    return _op(merged, "concat_cols", (a, b), backward_fn)


def cross_entropy(logits: Node, target_class: int) -> Node:
    """Negative log softmax probability of the target class, as a 1x1 node."""
    if logits.value.rows != 1:
        raise DimensionError(
            f"cross_entropy expects 1xc logits, got {logits.value.rows}x{logits.value.cols}"
        )
    n_classes = logits.value.cols
    if not 0 <= target_class < n_classes:
        raise IndexError(f"target class {target_class} out of range for {n_classes} classes")
    x = logits.value.array[0]
    m = x.max()
    log_norm = m + np.log(np.exp(x - m).sum())
    probs = np.exp(x - log_norm)

    def backward_fn(g: np.ndarray):
        d = probs.copy()
        d[target_class] -= 1.0
        return (g[0, 0] * d.reshape(1, n_classes),)

    out = np.array([[log_norm - x[target_class]]])
    return _op(out, "cross_entropy", (logits,), backward_fn)


def mse(a: Node, b: Node) -> Node:
    """Mean over all entries of the squared difference, as a 1x1 node."""
    _check_same("mse", a.value.shape, b.value.shape)
    diff = a.value.array - b.value.array
    count = diff.size
    val = float((diff * diff).sum() / count)

    def backward_fn(g: np.ndarray):
        d = (2.0 / count) * diff * g[0, 0]
        return d, -d

    return _op(np.array([[val]]), "mse", (a, b), backward_fn)


def sum_all(a: Node) -> Node:
    """Sum of all entries as a 1x1 node, composed from mean pools and a scale."""
    total = pool(pool(a, "rows", "mean"), "cols", "mean")
    return scale(total, float(a.value.rows * a.value.cols))


# ---------------------------------------------------------------------------
# Fused operations
#
# Each is one node for a chain of the ops above, with the chain's forward and
# backward array expressions, operand layouts (a transpose is a contiguous
# copy going forward and a view coming back) and fan-out summation order, so
# values and gradients are bitwise those of the chain. A gradient is computed
# only for a parent that requires one, as matmul does.
# ---------------------------------------------------------------------------


def self_attention(e: Node, wq: Node, wk: Node, wv: Node) -> Node:
    """One-head scaled dot-product self-attention with a residual connection.

    e + row_softmax((e wq)(e wk)^T / sqrt(d)) (e wv), d = e's width.
    """
    x = e.value.array
    for w in (wq, wk, wv):
        _check_product("matmul", x.shape, w.value.shape)
    wqa, wka, wva = wq.value.array, wk.value.array, wv.value.array
    q, k, v = x @ wqa, x @ wka, x @ wva
    kt = np.ascontiguousarray(k.T)
    _check_product("matmul", q.shape, kt.shape)
    factor = float(1.0 / math.sqrt(x.shape[1]))
    p = _softmax((q @ kt) * factor)
    mixed = p @ v
    _check_same("add", x.shape, mixed.shape)

    def backward_fn(g: np.ndarray):
        gv = p.T @ g
        gs = _softmax_backward(g @ v.T, p) * factor
        gq = gs @ kt.T
        gk = (q.T @ gs).T
        ge = None
        if e.requires_grad:  # the residual, then the query, key and value products
            ge = g + gq @ wqa.T
            ge = ge + gk @ wka.T
            ge = ge + gv @ wva.T
        return (
            ge,
            x.T @ gq if wq.requires_grad else None,
            x.T @ gk if wk.requires_grad else None,
            x.T @ gv if wv.requires_grad else None,
        )

    return _op(x + mixed, "self_attention", (e, wq, wk, wv), backward_fn)


def residual_linear(x: Node, w: Node) -> Node:
    """x + x w."""
    xa, wa = x.value.array, w.value.array
    _check_product("matmul", xa.shape, wa.shape)
    projected = xa @ wa
    _check_same("add", xa.shape, projected.shape)

    def backward_fn(g: np.ndarray):
        return (
            g + g @ wa.T if x.requires_grad else None,
            xa.T @ g if w.requires_grad else None,
        )

    return _op(xa + projected, "residual_linear", (x, w), backward_fn)


def cosine_scores(seq: Node, labels: Node) -> Node:
    """Cosine similarity of every seq row against every label row.

    Both sides are normalised here, so a zero-norm row of either raises
    DegenerateRowError.
    """
    ys, seq_norms = _unit_rows(seq.value.array)
    yl, label_norms = _unit_rows(labels.value.array)
    ylt = np.ascontiguousarray(yl.T)
    _check_product("matmul", ys.shape, ylt.shape)

    def backward_fn(g: np.ndarray):
        return (
            _unit_rows_backward(g @ ylt.T, ys, seq_norms) if seq.requires_grad else None,
            _unit_rows_backward((ys.T @ g).T, yl, label_norms) if labels.requires_grad else None,
        )

    return _op(ys @ ylt, "cosine_scores", (seq, labels), backward_fn)


def bilinear_softmax(a: Node, b: Node, bilinear: Node) -> Node:
    """row_softmax(a (b bilinear)^T): each a row's distribution over b's rows."""
    aa, ba, wa = a.value.array, b.value.array, bilinear.value.array
    _check_product("matmul", ba.shape, wa.shape)
    mapped_t = np.ascontiguousarray((ba @ wa).T)
    _check_product("matmul", aa.shape, mapped_t.shape)
    p = _softmax(aa @ mapped_t)

    def backward_fn(g: np.ndarray):
        gs = _softmax_backward(g, p)
        gm = (aa.T @ gs).T
        return (
            gs @ mapped_t.T if a.requires_grad else None,
            gm @ wa.T if b.requires_grad else None,
            ba.T @ gm if bilinear.requires_grad else None,
        )

    return _op(p, "bilinear_softmax", (a, b, bilinear), backward_fn)


def affine(x: Node, w: Node, b: Node) -> Node:
    """x w + b, with b of the product's shape."""
    xa, wa = x.value.array, w.value.array
    _check_product("matmul", xa.shape, wa.shape)
    product = xa @ wa
    _check_same("add", product.shape, b.value.shape)

    def backward_fn(g: np.ndarray):
        return (
            g @ wa.T if x.requires_grad else None,
            xa.T @ g if w.requires_grad else None,
            g,
        )

    return _op(product + b.value.array, "affine", (x, w, b), backward_fn)


def weighted_sum(terms: Sequence[Node], weights: Sequence[float]) -> Node:
    """Sum of 1x1 terms times their weights, added left to right."""
    if len(terms) != len(weights) or not terms:
        raise ContractError(f"weighted_sum: {len(terms)} terms for {len(weights)} weights")
    for t in terms:
        _check_same("weighted_sum", t.value.shape, (1, 1))
    factors = [float(w) for w in weights]
    total = terms[0].value.array * factors[0]
    for t, f in zip(terms[1:], factors[1:]):
        total = total + t.value.array * f

    def backward_fn(g: np.ndarray):
        return tuple(g * f for f in factors)

    return _op(total, "weighted_sum", tuple(terms), backward_fn)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    op_name: str
    max_relative_error: float
    probe_count: int


def _scalar_eval(builder: Callable[..., Node], inputs: Sequence[Matrix]) -> float:
    out = builder(*[constant(m) for m in inputs])
    if out.value.shape != (1, 1):
        raise ContractError(
            f"grad_check builder must produce a 1x1 scalar, got "
            f"{out.value.rows}x{out.value.cols}"
        )
    return float(out.value.array[0, 0])


def grad_check(
    builder: Callable[..., Node],
    inputs: Sequence[Matrix],
    step: float = 1e-5,
    op_name: str = "graph",
) -> GradCheckReport:
    """Compare backward gradients against central finite differences.

    The builder must map leaf nodes (one per input matrix) to a 1x1 scalar
    node and must be pure. Every entry of every input is probed; the
    relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    leaves = [parameter(m) for m in inputs]
    root = builder(*leaves)
    if root.value.shape != (1, 1):
        raise ContractError(
            f"grad_check builder must produce a 1x1 scalar, got "
            f"{root.value.rows}x{root.value.cols}"
        )
    backward(root)
    analytic = [
        leaf.grad.array if leaf.grad is not None else np.zeros(m.shape)
        for leaf, m in zip(leaves, inputs)
    ]

    max_rel = 0.0
    probes = 0
    base = [m.array.copy() for m in inputs]
    for i, m in enumerate(inputs):
        for r in range(m.rows):
            for c in range(m.cols):
                saved = base[i][r, c]
                base[i][r, c] = saved + step
                plus = _scalar_eval(builder, [Matrix(b) for b in base])
                base[i][r, c] = saved - step
                minus = _scalar_eval(builder, [Matrix(b) for b in base])
                base[i][r, c] = saved
                numeric = (plus - minus) / (2.0 * step)
                a_val = analytic[i][r, c]
                rel = abs(a_val - numeric) / max(abs(a_val), abs(numeric), 1e-8)
                if rel > max_rel:
                    max_rel = rel
                probes += 1
    return GradCheckReport(op_name, max_rel, probes)


def _random_matrix(rng: np.random.Generator, rows: int, cols: int, std: float = 1.0) -> Matrix:
    return Matrix(rng.normal(0.0, std, size=(rows, cols)))


def _tie_free_matrix(rng: np.random.Generator, rows: int, cols: int, axis: str, gap: float) -> Matrix:
    """Random matrix whose per-line max is separated from the runner-up.

    Keeps central differences away from the max-pool kink.
    """
    np_axis = 0 if axis == "rows" else 1
    while True:
        x = rng.normal(0.0, 1.0, size=(rows, cols))
        top2 = np.sort(x, axis=np_axis)
        if np_axis == 0:
            sep = top2[-1, :] - top2[-2, :]
        else:
            sep = top2[:, -1] - top2[:, -2]
        if (sep > gap).all():
            return Matrix(x)


def run_op_grad_suite(
    probes_per_op: int = 100, seed: int = 0, step: float = 1e-5
) -> list[GradCheckReport]:
    """Finite-difference check of every supported op over random instances.

    Each probe draws fresh random inputs and checks every entry; the report
    per op carries the worst relative error and the total probe count.
    """
    rng = np.random.default_rng(seed)
    reports: list[GradCheckReport] = []

    def run(name: str, make_inputs, builder) -> None:
        worst = 0.0
        count = 0
        for _ in range(probes_per_op):
            rep = grad_check(builder, make_inputs(), step=step, op_name=name)
            worst = max(worst, rep.max_relative_error)
            count += rep.probe_count
        reports.append(GradCheckReport(name, worst, count))

    run(
        "matmul",
        lambda: [_random_matrix(rng, 3, 4), _random_matrix(rng, 4, 2)],
        lambda a, b: sum_all(matmul(a, b)),
    )
    run(
        "transpose",
        lambda: [_random_matrix(rng, 3, 4)],
        lambda a: sum_all(matmul(transpose(a), a)),
    )
    run(
        "add",
        lambda: [_random_matrix(rng, 3, 3), _random_matrix(rng, 3, 3)],
        lambda a, b: sum_all(matmul(add(a, b), b)),
    )
    run(
        "scale",
        lambda: [_random_matrix(rng, 2, 5)],
        lambda a: sum_all(matmul(scale(a, 1.7), transpose(a))),
    )
    run(
        "row_softmax",
        lambda: [_random_matrix(rng, 2, 5)],
        lambda a: sum_all(matmul(row_softmax(a), transpose(a))),
    )
    run(
        "row_l2_normalize",
        lambda: [_random_matrix(rng, 4, 3)],
        lambda a: sum_all(matmul(row_l2_normalize(a), transpose(a))),
    )
    run(
        "pool_mean_rows",
        lambda: [_random_matrix(rng, 5, 3)],
        lambda a: sum_all(matmul(pool(a, "rows", "mean"), transpose(a))),
    )
    run(
        "pool_mean_cols",
        lambda: [_random_matrix(rng, 5, 3)],
        lambda a: sum_all(matmul(transpose(pool(a, "cols", "mean")), a)),
    )
    run(
        "pool_max_rows",
        lambda: [_tie_free_matrix(rng, 5, 3, "rows", 10 * step)],
        lambda a: sum_all(matmul(pool(a, "rows", "max"), transpose(a))),
    )
    run(
        "pool_max_cols",
        lambda: [_tie_free_matrix(rng, 5, 3, "cols", 10 * step)],
        lambda a: sum_all(matmul(transpose(pool(a, "cols", "max")), a)),
    )
    run(
        "concat_cols",
        lambda: [_random_matrix(rng, 3, 2), _random_matrix(rng, 3, 4)],
        lambda a, b: sum_all(matmul(transpose(concat_cols(a, b)), a)),
    )
    run(
        "cross_entropy",
        lambda: [_random_matrix(rng, 1, 4)],
        lambda a: cross_entropy(a, 2),
    )
    run(
        "mse",
        lambda: [_random_matrix(rng, 3, 4), _random_matrix(rng, 3, 4)],
        lambda a, b: mse(a, b),
    )
    run(
        "gather",
        lambda: [_random_matrix(rng, 5, 3)],
        lambda a: sum_all(matmul(gather(a, [3, 0, 3, 4]), transpose(a))),
    )
    run(
        "self_attention",
        lambda: [_random_matrix(rng, 3, 4)] + [_random_matrix(rng, 4, 4, 0.5) for _ in range(3)],
        lambda e, wq, wk, wv: sum_all(matmul(self_attention(e, wq, wk, wv), transpose(e))),
    )
    run(
        "residual_linear",
        lambda: [_random_matrix(rng, 3, 4), _random_matrix(rng, 4, 4), _random_matrix(rng, 3, 4)],
        lambda x, w, target: mse(residual_linear(x, w), target),
    )
    run(
        "cosine_scores",
        lambda: [_random_matrix(rng, 4, 3), _random_matrix(rng, 2, 3)],
        lambda a, b: sum_all(matmul(cosine_scores(a, b), b)),
    )
    run(
        "bilinear_softmax",
        lambda: [_random_matrix(rng, 2, 3), _random_matrix(rng, 4, 3), _random_matrix(rng, 3, 3, 0.5)],
        lambda a, b, w: sum_all(matmul(bilinear_softmax(a, b, w), b)),
    )
    run(
        "affine",
        lambda: [_random_matrix(rng, 1, 3), _random_matrix(rng, 3, 4, 0.5), _random_matrix(rng, 1, 4)],
        lambda x, w, b: cross_entropy(affine(x, w, b), 2),
    )
    run(
        "weighted_sum",
        lambda: [_random_matrix(rng, 2, 3), _random_matrix(rng, 2, 3), _random_matrix(rng, 1, 4)],
        lambda a, b, c: weighted_sum((mse(a, b), cross_entropy(c, 1), mse(b, a)), (0.7, -1.3, 2.0)),
    )
    return reports
