"""Reverse-mode differentiation over dense 2-D float64 matrices.

The op set is closed and small: matrix product, transpose, row gather,
elementwise add, scalar scale, row softmax, row L2 normalisation, mean/max
pooling, column concatenation, cross entropy and mean squared error. Every
objective in the package composes from these, so a single central
finite-difference checker (`grad_check`) can certify the whole backward
implementation.

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


def matmul(a: Node, b: Node) -> Node:
    if a.value.cols != b.value.rows:
        raise DimensionError(
            f"matmul: {a.value.rows}x{a.value.cols} is incompatible with "
            f"{b.value.rows}x{b.value.cols}"
        )
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
    if a.value.shape != b.value.shape:
        raise DimensionError(
            f"add: shapes differ ({a.value.rows}x{a.value.cols} vs "
            f"{b.value.rows}x{b.value.cols})"
        )

    def backward_fn(g: np.ndarray):
        return g, g

    return _op(a.value.array + b.value.array, "add", (a, b), backward_fn)


def scale(a: Node, factor: float) -> Node:
    factor = float(factor)

    def backward_fn(g: np.ndarray):
        return (g * factor,)

    return _op(a.value.array * factor, "scale", (a,), backward_fn)


def row_softmax(a: Node) -> Node:
    """Softmax within each row; the rows become probability vectors."""
    x = a.value.array
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward_fn(g: np.ndarray):
        inner = (g * s).sum(axis=1, keepdims=True)
        return ((g - inner) * s,)

    return _op(s, "row_softmax", (a,), backward_fn)


def row_l2_normalize(a: Node) -> Node:
    """Rescale each row to unit L2 norm."""
    x = a.value.array
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    small = np.flatnonzero(norms[:, 0] < _NORM_FLOOR)
    if small.size:
        raise DegenerateRowError(f"row {int(small[0])} has near-zero norm")
    y = x / norms

    def backward_fn(g: np.ndarray):
        inner = (g * y).sum(axis=1, keepdims=True)
        return ((g - y * inner) / norms,)

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
    if a.value.shape != b.value.shape:
        raise DimensionError(
            f"mse: shapes differ ({a.value.rows}x{a.value.cols} vs "
            f"{b.value.rows}x{b.value.cols})"
        )
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


def _random_matrix(rng: np.random.Generator, rows: int, cols: int) -> Matrix:
    return Matrix(rng.normal(0.0, 1.0, size=(rows, cols)))


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
    return reports
