"""Reverse-mode differentiation over dense 2-D float64 matrices.

The op set is closed and small: matrix product, transpose, row gather,
elementwise add, scalar scale, row softmax, row L2 normalisation, mean/max
row pooling, column concatenation, cross entropy and mean squared error. Fused
ops each stand for a chain of those in one node with a hand-written
backward: `self_attention` (the encoders), `cosine_scores` (label
attention), `paired_scores` (the scores of both alignments), `paired_mix`
(the aligned speech), `affine` (the classifier and tower heads) and
`weighted_sum` (the loss totals). On one sequence a fused op repeats its
chain's array expressions, operand layouts and fan-out summation order, so
it gives the chain's bits forward and backward. The model also calls
`matmul`, `add` and `row_softmax` directly (`fusion`'s vanilla alignment,
`encoders`' speech post-projection). The package never calls
`transpose`, `scale` or `row_l2_normalize`; all ten primitives stay because
the benchmark tracer looks up each of its op kinds by name in this module.
Every objective in the package composes from these, so a single central
finite-difference checker (`grad_check`, and `run_op_grad_suite` over every
op) can certify the whole backward implementation.

A mini-batch is one graph. Its sequences' rows are stacked into one
(total x d) matrix, and a `Segments` beside it holds each sequence's length.
Row-wise ops (`gather`, `matmul`, `add`, `cosine_scores`, `affine`,
`concat_cols`, the per-row `cross_entropy`) need no segments and run once
per batch. Ops whose work is per sequence take the segments:
`self_attention`, the alignments' `paired_scores` and the aligned-speech
`paired_mix`, the masked `row_softmax`, the per-sequence `mse` and `pool`
over rows. An alignment between two batches of sequences is a stack of
maps: the rows of sequence i's map, cols.width wide and 0 past its own
width. A batch of one sequence of n rows is `Segments((n,))`, on which a
segment op is the plain 2-D op.

A segment op pads the batch to a 3-D stack inside the op, with the padding
masked (-inf before a softmax or a max, zero weight in a mean or a count),
so padding never reaches a value or a gradient. `self_attention` alone
runs a long batch, one whose longest sequence has LONG_ROWS rows or more,
one sequence at a time through the expressions of a batch of one, so its
(count x width x width) score stack costs neither FLOPs nor memory on
padding; its backward sums each shared weight's gradient over the
sequences in batch order. At the default corpus lengths (10-30 tokens,
40-120 frames) that is the speech encoder, while the text encoder and every
other op stay padded. Either way the op is one graph node, and a padded
batch's bits are those of the padded stack.

Graphs are built eagerly. Each operation returns a `Node` holding its value,
a read-only C-ordered 2-D float64 array, plus a closure that maps the
gradient arriving at the node to one gradient array per parent. Values are
never written after construction and may be shared freely; graphs are built
and differentiated on a single thread.

An op is its checks and a kernel. The kernel (`_self_attention`,
`_gather`, ...) maps the parents' arrays to the output array and its
backward closure; the public op runs the checks, calls the kernel and wraps
the result in a node. The kernels a parameter's shape can fail hold their
checks; self-attention's run once per batch, in `_attend`, before the
kernel runs on the batch or on each sequence of a long one.

The model is wired once, with its ops as an argument. Given this module,
the wiring builds a graph, for training; given `on_arrays`, it runs the
same kernels, with every check a model matrix can fail, on arrays, drops
the backward closures and builds no node, for `fusion`'s prediction.

Finiteness is checked at the boundaries, not inside every op. `checked`
makes a value that comes from outside an op a read-only copy and rejects
NaN and infinity: every leaf (`constant`, `parameter`), every leaf gradient
`backward` stores, every Adam update and every checkpoint array (`Matrix`)
passes it. Op outputs take their freshly computed arrays without a copy or a
scan; the trainer checks the loss root before `backward`, and prediction
checks its logits, so a non-finite intermediate surfaces as a
`NonFiniteError` at one of those points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DegenerateRowError, DimensionError, NonFiniteError

# Rows with L2 norm below this cannot be normalised meaningfully.
_NORM_FLOOR = 1e-12


def checked(values) -> np.ndarray:
    """`values` as a read-only, C-ordered 2-D float64 copy.

    DimensionError unless 2-D, NonFiniteError on NaN or infinity. Every value
    the package takes from outside an op passes here.
    """
    a = np.array(values, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got {a.ndim} dimension(s)")
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")
    a.setflags(write=False)
    return a


class Matrix:
    """A checkpoint's array, `checked` on construction."""

    __slots__ = ("array",)

    def __init__(self, values) -> None:
        self.array = checked(values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape


class Node:
    """A value in the computation graph: a read-only 2-D float64 array.

    `backward_fn` receives the gradient of the scalar objective with respect
    to this node's value (an ndarray) and returns one gradient array (or
    None, for a parent that takes no gradient) per parent. Only leaves keep
    a `grad`: it stays None until a backward pass deposits into it, and
    deposits accumulate across backward calls until `zero_grad`.
    """

    __slots__ = ("value", "op", "parents", "backward_fn", "grad", "requires_grad")

    def __init__(
        self,
        value: np.ndarray,
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
        self.grad: np.ndarray | None = None

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def constant(values) -> Node:
    """Leaf node that never receives gradients."""
    return Node(checked(values), op="constant")


def parameter(values) -> Node:
    """Leaf node that accumulates gradients during backward passes."""
    return Node(checked(values), op="parameter", requires_grad=True)


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
            "backward requires a 1x1 scalar root, got {}x{}".format(*root.value.shape)
        )
    pending: dict[Node, np.ndarray] = {root: np.ones((1, 1))}
    for node in reversed(_topo_order(root)):
        g = pending.pop(node, None)
        if g is None:
            continue
        if node.backward_fn is None:
            node.grad = checked(g if node.grad is None else node.grad + g)
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if not parent.requires_grad or pg is None:
                continue
            if parent in pending:
                pending[parent] = pending[parent] + pg
            else:
                pending[parent] = pg


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


# A batch whose longest sequence has at least this many rows is long:
# self-attention runs it one sequence at a time instead of padding it. Padding
# 40-120 frames to the longest scores about twice the real entries of a speech
# attention stack; up to 40 rows the padded stack is as fast as the
# per-sequence calls or faster. Every other segment op pads any batch: run
# one sequence at a time, they gained no end-to-end time or memory.
LONG_ROWS = 64


class Segments:
    """How a stacked matrix splits into consecutive row blocks, one per sequence.

    A mini-batch stacks its sequences' rows into one (total x d) matrix, and
    `lengths` holds each block's row count in batch order. A segment op pads
    the blocks to a (count x width x d) array (`pad`: zero rows after each
    block), works on every block at once and takes the real rows back out
    (`unpad`). Where a softmax or a max runs over a padded
    axis, the padding is first set to -inf (`mask`), so it gets no weight and
    no gradient. When all blocks have one length, padding is a reshape and
    there is no mask. A batch is `long` when its widest block has LONG_ROWS
    rows or more; `self_attention` then runs each block as a batch of one
    and builds no padded stack. Every other segment op pads any batch.
    """

    __slots__ = (
        "lengths", "offsets", "count", "total", "width", "long", "valid", "_rows", "_bias"
    )

    def __init__(self, lengths: Sequence[int]) -> None:
        lengths = tuple(map(int, lengths))
        if not lengths or min(lengths) < 1:
            raise ContractError(f"segment lengths must be >= 1, got {lengths}")
        self.lengths = lengths
        self.count = len(lengths)
        self.total = sum(lengths)
        self.width = max(lengths)
        self.long = self.width >= LONG_ROWS
        self.offsets = (0, *itertools.accumulate(lengths[:-1]))  # each block's first row
        if self.total == self.count * self.width:
            self.valid = self._rows = self._bias = None
        else:
            # valid[i, j]: position j of block i is a real row.
            self.valid = np.arange(self.width) < np.array(lengths)[:, None]
            self._rows = np.flatnonzero(self.valid)
            self._bias = np.where(self.valid, 0.0, -np.inf)[:, None, :]

    def pad_rows(self, x: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """(total x c) -> (count * width x c): each block padded to `width` rows of `fill`."""
        if self._rows is None:
            return x
        shape = (self.count * self.width, x.shape[1])
        out = np.zeros(shape) if fill == 0.0 else np.full(shape, fill)
        out[self._rows] = x
        return out

    def fold(self, rows: np.ndarray) -> np.ndarray:
        """Padded (count * width x c) rows -> (count x width x c); one segment stays 2-D."""
        return rows if self.count == 1 else rows.reshape(self.count, self.width, rows.shape[1])

    def pad(self, x: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """(total x c) -> (count x width x c), `fill` after each block; one segment stays 2-D."""
        if self.count == 1:
            return x
        return self.fold(self.pad_rows(x, fill))

    def unpad(self, x: np.ndarray) -> np.ndarray:
        """The (total x c) real rows of a `pad`ded stack, or of its padded rows."""
        if x.ndim == 3:
            x = x.reshape(self.count * self.width, x.shape[2])
        return x if self._rows is None else x[self._rows]

    def mask(self, scores: np.ndarray) -> None:
        """Set the padded positions of the last axis of (count x rows x width) scores to -inf."""
        if self._bias is not None:
            scores += self._bias

    def map_valid(self, rows: "Segments") -> np.ndarray | None:
        """Per row of a stack of maps with these columns (see `paired_scores`), its real columns."""
        return None if self.valid is None else np.repeat(self.valid, rows.lengths, axis=0)


def _segments(op: str, segments: Segments, rows: int) -> None:
    """DimensionError unless `segments` cover the matrix's `rows` rows."""
    if segments.total != rows:
        raise DimensionError(f"{op}: segments cover {segments.total} rows, the matrix has {rows}")


def _pairs(op: str, rows: Segments, cols: Segments, n_rows: int, n_cols: int) -> None:
    """DimensionError unless `rows` and `cols` cover a stack of maps, a block pair per sequence."""
    _segments(op, rows, n_rows)
    _segments(op, cols, n_cols)
    if rows.count != cols.count:
        raise DimensionError(f"{op}: {rows.count} row segments but {cols.count} column segments")


def _t(x: np.ndarray) -> np.ndarray:
    """Each matrix of a stack transposed, as a view."""
    return x.swapaxes(-1, -2)


def _flat(x: np.ndarray) -> np.ndarray:
    """A (count x width x c) stack as (count * width x c) rows."""
    return x.reshape(-1, x.shape[-1])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _op(out: np.ndarray, op: str, parents: tuple[Node, ...], backward_fn) -> Node:
    """The node of an op's output, a C-ordered 2-D float64 array nothing else writes to.

    The node takes the array without a copy or a finiteness scan; the array
    is only made read-only.
    """
    out.setflags(write=False)
    return Node(out, op, parents, backward_fn)


@functools.lru_cache(maxsize=1024)
def _alone(length: int) -> Segments:
    """The segments of a batch of one sequence of `length` rows (never mutated, so shared)."""
    return Segments((length,))


def _check_product(op: str, a: tuple[int, int], b: tuple[int, int]) -> None:
    if a[1] != b[0]:
        raise DimensionError(f"{op}: {a[0]}x{a[1]} is incompatible with {b[0]}x{b[1]}")


def _check_same(op: str, a: tuple[int, int], b: tuple[int, int]) -> None:
    if a != b:
        raise DimensionError(f"{op}: shapes differ ({a[0]}x{a[1]} vs {b[0]}x{b[1]})")


def matmul(a: Node, b: Node) -> Node:
    out, backward_fn = _matmul(a.value, b.value, (a, b))
    return _op(out, "matmul", (a, b), backward_fn)


def _matmul(av, bv, parents):
    _check_product("matmul", av.shape, bv.shape)

    def backward_fn(g: np.ndarray):
        return (
            g @ bv.T if parents[0].requires_grad else None,
            av.T @ g if parents[1].requires_grad else None,
        )

    return av @ bv, backward_fn


def transpose(a: Node) -> Node:
    def backward_fn(g: np.ndarray):
        return (g.T,)

    return _op(np.ascontiguousarray(a.value.T), "transpose", (a,), backward_fn)


def gather(table: Node, ids: Sequence[int], what: str = "id") -> Node:
    """One row of `table` per id, in order: an embedding lookup.

    Ids must lie in [0, rows); `what` names them in the IndexError. The
    backward scatter-adds each output row's gradient into its table row.
    """
    out, backward_fn = _gather(table.value, ids, what)
    return _op(out, "gather", (table,), backward_fn)


def _gather(t, ids, what):
    vocab = t.shape[0]
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        first = int(idx[np.flatnonzero((idx < 0) | (idx >= vocab))[0]])
        raise IndexError(f"{what} {first} out of range for vocabulary of size {vocab}")

    def backward_fn(g: np.ndarray):
        gt = np.zeros(t.shape)
        np.add.at(gt, idx, g)
        return (gt,)

    return t[idx], backward_fn


def add(a: Node, b: Node) -> Node:
    out, backward_fn = _add(a.value, b.value)
    return _op(out, "add", (a, b), backward_fn)


def _add(av, bv):
    _check_same("add", av.shape, bv.shape)

    def backward_fn(g: np.ndarray):
        return g, g

    return av + bv, backward_fn


def scale(a: Node, factor: float) -> Node:
    factor = float(factor)

    def backward_fn(g: np.ndarray):
        return (g * factor,)

    return _op(a.value * factor, "scale", (a,), backward_fn)


# The ufunc reductions are what ndarray.max/.sum call, without their Python wrappers.
_max, _sum = np.maximum.reduce, np.add.reduce


def _softmax(x: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Softmax along the last axis; with in_place, x (a temporary) becomes the result."""
    s = np.subtract(x, _max(x, axis=-1, keepdims=True), out=x if in_place else None)
    np.exp(s, out=s)
    s /= _sum(s, axis=-1, keepdims=True)
    return s


def _softmax_backward(g: np.ndarray, s: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Gradient through a softmax s; with in_place, g (a temporary) becomes the result.

    The row sums of g * s come from einsum, which makes no g-sized temporary.
    """
    inner = np.einsum("...j,...j->...", g, s)[..., None]
    out = np.subtract(g, inner, out=g if in_place else None)
    out *= s
    return out


def row_softmax(a: Node, rows: Segments, cols: Segments) -> Node:
    """Softmax within each row; the rows become probability vectors.

    a is a stack of per-segment maps (`paired_scores`) and each row's softmax
    runs over its block's columns only; the columns past the block's width
    come out 0.
    """
    x = a.value
    _pairs("row_softmax", rows, cols, x.shape[0], cols.total)
    _check_same("row_softmax", x.shape, (rows.total, cols.width))
    out, backward_fn = _row_softmax(x, rows, cols, (a,))
    return _op(out, "row_softmax", (a,), backward_fn)


def _row_softmax(x, rows, cols, parents):
    valid = cols.map_valid(rows)
    if valid is not None:
        x = np.where(valid, x, -np.inf)
    s = _softmax(x, in_place=valid is not None)

    def backward_fn(g: np.ndarray):
        return (_softmax_backward(g, s),)

    return s, backward_fn


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row over its L2 norm, and the norms; DegenerateRowError on a zero row."""
    norms = np.sqrt(_sum(x * x, axis=1, keepdims=True))
    if norms.min(initial=np.inf) < _NORM_FLOOR:
        small = np.flatnonzero(norms[:, 0] < _NORM_FLOOR)
        raise DegenerateRowError(f"row {int(small[0])} has near-zero norm")
    return x / norms, norms


def _unit_rows_backward(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    inner = _sum(g * y, axis=1, keepdims=True)
    return (g - y * inner) / norms


def row_l2_normalize(a: Node) -> Node:
    """Rescale each row to unit L2 norm."""
    y, norms = _unit_rows(a.value)

    def backward_fn(g: np.ndarray):
        return (_unit_rows_backward(g, y, norms),)

    return _op(y, "row_l2_normalize", (a,), backward_fn)


def pool(a: Node, kind: str, segments: Segments) -> Node:
    """Collapse the rows of each segment to one row.

    `kind` is the arithmetic mean or the elementwise maximum; the result is
    segments x cols. The max backward routes the whole gradient to the first
    (lowest-index) argmax of each segment's column.
    """
    if kind not in _POOLS:
        raise ContractError(f"pool kind must be 'mean' or 'max', got {kind!r}")
    x = a.value
    _segments("pool", segments, x.shape[0])
    out, backward_fn = _POOLS[kind](x, segments, (a,))
    return _op(out, f"pool_{kind}", (a,), backward_fn)


def _pool_mean(x, seg, parents):
    counts = np.array(seg.lengths, dtype=np.float64)[:, None]
    out = _sum(seg.pad(x), axis=-2).reshape(seg.count, x.shape[1]) / counts

    def backward_fn(g: np.ndarray):
        return (np.repeat(g / counts, seg.lengths, axis=0),)

    return out, backward_fn


def _pool_max(x, seg, parents):
    cols = x.shape[1]
    out = _max(seg.pad(x, -np.inf), axis=-2).reshape(seg.count, cols)

    def backward_fn(g: np.ndarray):
        # The row of each segment's first maximum, per column.
        starts = np.array(seg.offsets)[:, None]
        winners = seg.pad(x, -np.inf).argmax(axis=-2).reshape(seg.count, cols) + starts
        gx = np.zeros_like(x)
        gx[winners, np.arange(cols)] = g
        return (gx,)

    return out, backward_fn


_POOLS = {"mean": _pool_mean, "max": _pool_max}


def concat_cols(a: Node, b: Node) -> Node:
    """Place b's columns to the right of a's."""
    if a.value.shape[0] != b.value.shape[0]:
        raise DimensionError(
            f"concat_cols: row counts differ ({a.value.shape[0]} vs {b.value.shape[0]})"
        )
    split = a.value.shape[1]

    def backward_fn(g: np.ndarray):
        return g[:, :split], g[:, split:]

    merged = np.concatenate([a.value, b.value], axis=1)
    return _op(merged, "concat_cols", (a, b), backward_fn)


def cross_entropy(logits: Node, targets: Sequence[int]) -> Node:
    """Negative log softmax probability of each row's target class, as a rows x 1 node.

    `targets` holds one class per logit row.
    """
    x = logits.value
    n_rows, n_classes = x.shape
    idx = np.asarray(targets, dtype=np.intp)
    if idx.shape != (n_rows,):
        raise DimensionError(
            f"cross_entropy: targets of shape {idx.shape} for {n_rows}x{n_classes} logits"
        )
    if idx.min() < 0 or idx.max() >= n_classes:
        bad = np.flatnonzero((idx < 0) | (idx >= n_classes))
        raise IndexError(f"target class {int(idx[bad[0]])} out of range for {n_classes} classes")
    m = _max(x, axis=1, keepdims=True)
    log_norm = m + np.log(_sum(np.exp(x - m), axis=1, keepdims=True))
    probs = np.exp(x - log_norm)
    row = np.arange(n_rows)

    def backward_fn(g: np.ndarray):
        d = probs.copy()
        d[row, idx] -= 1.0
        return (g * d,)

    return _op(log_norm - x[row, idx][:, None], "cross_entropy", (logits,), backward_fn)


def mse(a: Node, b: Node, rows: Segments, cols: Segments) -> Node:
    """Mean of the squared difference over each segment's block, as a segments x 1 node.

    a and b are stacks of per-segment maps (`paired_scores`); columns past a
    block's width are not counted.
    """
    aa, ba = a.value, b.value
    _check_same("mse", aa.shape, ba.shape)
    _pairs("mse", rows, cols, aa.shape[0], cols.total)
    _check_same("mse", aa.shape, (rows.total, cols.width))
    out, backward_fn = _mse(aa, ba, rows, cols, (a, b))
    return _op(out, "mse", (a, b), backward_fn)


def _mse(aa, ba, rows, cols, parents):
    diff = aa - ba
    valid = cols.map_valid(rows)
    if valid is not None:
        diff[~valid] = 0.0
    counts = np.multiply(rows.lengths, cols.lengths).astype(np.float64)
    sums = _sum(rows.pad(diff * diff).reshape(rows.count, -1), axis=1)
    factor = np.repeat(2.0 / counts, rows.lengths)[:, None]

    def backward_fn(g: np.ndarray):
        d = factor * diff * np.repeat(g, rows.lengths, axis=0)
        return d, -d

    return (sums / counts)[:, None], backward_fn


# ---------------------------------------------------------------------------
# Fused operations
#
# Each is one node for a chain of the ops above. Given one segment, it has the
# chain's forward and backward array expressions, operand layouts (a transpose
# is a contiguous copy going forward and a view coming back) and fan-out
# summation order, so values and gradients are bitwise those of the chain; on
# a batch the same expressions run on the padded 3-D stack, and on
# a long self-attention batch on each sequence's rows. A gradient is
# computed only for a parent that requires one, as matmul does.
# ---------------------------------------------------------------------------


def self_attention(e: Node, wq: Node, wk: Node, wv: Node, segments: Segments) -> Node:
    """One-head scaled dot-product self-attention with a residual connection.

    e + row_softmax((e wq)(e wk)^T / sqrt(d)) (e wv) within each segment of
    e's rows; d = e's width. A row attends only to the rows of its own segment.
    """
    parents = (e, wq, wk, wv)
    out, backward_fn = _attend(*[p.value for p in parents], segments, parents)
    return _op(out, "self_attention", parents, backward_fn)


def _attend(x, wqa, wka, wva, seg: Segments, parents):
    """Self-attention's checks, once per batch, then its kernel on the batch or on each sequence."""
    for wa in (wqa, wka, wva):
        _check_product("matmul", x.shape, wa.shape)
    _segments("self_attention", seg, x.shape[0])
    _check_product("matmul", (seg.width, wqa.shape[1]), (wka.shape[1], seg.width))
    _check_same("add", x.shape, (x.shape[0], wva.shape[1]))
    if seg.count == 1 or not seg.long:
        return _self_attention(x, wqa, wka, wva, seg, parents)
    # A long batch: each sequence's rows run as a batch of one (see LONG_ROWS).
    # A block is taken in C order, as a batch of one holds it.
    take = np.ascontiguousarray
    blocks = [slice(o, o + n) for o, n in zip(seg.offsets, seg.lengths)]
    outs, backs = zip(*[
        _self_attention(take(x[rows]), wqa, wka, wva, _alone(n), parents)
        for rows, n in zip(blocks, seg.lengths)
    ])

    def backward_fn(g: np.ndarray):
        ge, *gw = zip(*[back(take(g[rows])) for back, rows in zip(backs, blocks)])
        # Each shared weight's gradient is its blocks' summed in batch order.
        return (
            np.concatenate(ge) if parents[0].requires_grad else None,
            *(functools.reduce(np.add, gs) if p.requires_grad else None
              for p, gs in zip(parents[1:], gw)),
        )

    return np.concatenate(outs), backward_fn


def _self_attention(x, wqa, wka, wva, seg, parents):
    xp = seg.pad_rows(x)
    q, k, v = seg.fold(xp @ wqa), seg.fold(xp @ wka), seg.fold(xp @ wva)
    kt = np.ascontiguousarray(_t(k))
    factor = float(1.0 / math.sqrt(x.shape[1]))
    scores = q @ kt
    scores *= factor
    seg.mask(scores)
    p = _softmax(scores, in_place=True)
    mixed = seg.unpad(p @ v)

    def backward_fn(g: np.ndarray):
        gp = seg.pad(g)
        gv = _flat(_t(p) @ gp)
        gs = _softmax_backward(gp @ _t(v), p, in_place=True)
        gs *= factor
        gq = _flat(gs @ _t(kt))
        gk = _flat(_t(_t(q) @ gs))
        ge = None
        if parents[0].requires_grad:  # the residual, then the query, key and value products
            ge = _flat(gp) + gq @ wqa.T
            ge = ge + gk @ wka.T
            ge = seg.unpad(ge + gv @ wva.T)
        xp = seg.pad_rows(x)  # padded again rather than held from the forward
        return (
            ge,
            xp.T @ gq if parents[1].requires_grad else None,
            xp.T @ gk if parents[2].requires_grad else None,
            xp.T @ gv if parents[3].requires_grad else None,
        )

    return x + mixed, backward_fn


def cosine_scores(seq: Node, labels: Node) -> Node:
    """Cosine similarity of every seq row against every label row.

    Both sides are normalised here, so a zero-norm row of either raises
    DegenerateRowError.
    """
    out, backward_fn = _cosine_scores(seq.value, labels.value, (seq, labels))
    return _op(out, "cosine_scores", (seq, labels), backward_fn)


def _cosine_scores(sa, la, parents):
    ys, seq_norms = _unit_rows(sa)
    yl, label_norms = _unit_rows(la)
    ylt = np.ascontiguousarray(yl.T)
    _check_product("matmul", ys.shape, ylt.shape)

    def backward_fn(g: np.ndarray):
        return (
            _unit_rows_backward(g @ ylt.T, ys, seq_norms) if parents[0].requires_grad else None,
            _unit_rows_backward((ys.T @ g).T, yl, label_norms) if parents[1].requires_grad else None,
        )

    return ys @ ylt, backward_fn


# A stack of maps pairs the row segments of one matrix with the column segments
# of another: segment i's map is rows.lengths[i] x cols.lengths[i], its rows are
# stacked in segment order and every map is cols.width wide, 0 past its own
# width. A batch of one sequence is one map, the plain product.


def paired_scores(a: Node, b: Node, rows: Segments, cols: Segments) -> Node:
    """a_i b_i^T for each segment pair i: every a row's dot product with every b row of its pair.

    A stack of maps; one segment pair is matmul(a, transpose(b)).
    """
    out, backward_fn = _paired_scores(a.value, b.value, rows, cols, (a, b))
    return _op(out, "paired_scores", (a, b), backward_fn)


def _paired_scores(aa, ba, rows, cols, parents):
    _pairs("paired_scores", rows, cols, aa.shape[0], ba.shape[0])
    _check_product("matmul", (rows.width, aa.shape[1]), (ba.shape[1], cols.width))
    ap = rows.pad(aa)
    bt = np.ascontiguousarray(_t(cols.pad(ba)))

    def backward_fn(g: np.ndarray):
        gp = rows.pad(g)
        return (
            rows.unpad(gp @ _t(bt)) if parents[0].requires_grad else None,
            cols.unpad(_t(_t(ap) @ gp)) if parents[1].requires_grad else None,
        )

    return rows.unpad(ap @ bt), backward_fn


def paired_mix(w: Node, b: Node, rows: Segments, cols: Segments) -> Node:
    """w_i b_i for each segment pair i: every row of map w_i weighs the b rows of its pair.

    w is a stack of maps; one segment pair is matmul(w, b).
    """
    wa, ba = w.value, b.value
    _pairs("paired_mix", rows, cols, wa.shape[0], ba.shape[0])
    _check_product("matmul", wa.shape, (cols.width, ba.shape[1]))
    out, backward_fn = _paired_mix(wa, ba, rows, cols, (w, b))
    return _op(out, "paired_mix", (w, b), backward_fn)


def _paired_mix(wa, ba, rows, cols, parents):
    def backward_fn(g: np.ndarray):  # the inputs are padded again, not held
        gp = rows.pad(g)
        return (
            rows.unpad(gp @ _t(cols.pad(ba))) if parents[0].requires_grad else None,
            cols.unpad(_t(rows.pad(wa)) @ gp) if parents[1].requires_grad else None,
        )

    return rows.unpad(rows.pad(wa) @ cols.pad(ba)), backward_fn


def affine(x: Node, w: Node, b: Node) -> Node:
    """x w + b, with b one row added to every row of the product."""
    out, backward_fn = _affine(x.value, w.value, b.value, (x, w, b))
    return _op(out, "affine", (x, w, b), backward_fn)


def _affine(xa, wa, ba, parents):
    _check_product("matmul", xa.shape, wa.shape)
    product = xa @ wa
    _check_same("add", (1, product.shape[1]), ba.shape)

    def backward_fn(g: np.ndarray):
        return (
            g @ wa.T if parents[0].requires_grad else None,
            xa.T @ g if parents[1].requires_grad else None,
            _sum(g, axis=0, keepdims=True),
        )

    return product + ba, backward_fn


def weighted_sum(terms: Sequence[Node], weights: Sequence[float]) -> Node:
    """Sum over rows of the terms times their weights, added left to right, as a 1x1 node.

    The terms share one n x 1 shape, such as one loss per utterance of a batch.
    """
    if len(terms) != len(weights) or not terms:
        raise ContractError(f"weighted_sum: {len(terms)} terms for {len(weights)} weights")
    shape = terms[0].value.shape
    for t in terms:
        _check_same("weighted_sum", t.value.shape, shape)
    if shape[1] != 1:
        raise DimensionError(f"weighted_sum: terms must be one column, got {shape[0]}x{shape[1]}")
    factors = [float(w) for w in weights]
    total = terms[0].value * factors[0]
    for t, f in zip(terms[1:], factors[1:]):
        total = total + t.value * f

    def backward_fn(g: np.ndarray):
        return tuple(np.full(shape, g[0, 0] * f) for f in factors)

    return _op(_sum(total, axis=0, keepdims=True), "weighted_sum", tuple(terms), backward_fn)


# The model's ops on arrays (see the module docstring). Each entry takes its
# op's arguments in order, an intermediate as an array and a model matrix as its
# node, with the segments given, and returns its kernel's output array. The op
# checks an entry skips concern intermediates, whose shapes earlier kernels fix.
on_arrays = SimpleNamespace(
    gather=lambda table, ids, what="id": _gather(table.value, ids, what)[0],
    self_attention=lambda e, wq, wk, wv, segments: _attend(
        e, wq.value, wk.value, wv.value, segments, ())[0],
    matmul=lambda a, b: _matmul(a, b.value, ())[0],
    add=lambda a, b: _add(a, b)[0],
    cosine_scores=lambda seq, labels: _cosine_scores(seq, labels.value, ())[0],
    paired_scores=lambda a, b, rows, cols: _paired_scores(a, b, rows, cols, ())[0],
    row_softmax=lambda a, rows, cols: _row_softmax(a, rows, cols, ())[0],
    paired_mix=lambda w, b, rows, cols: _paired_mix(w, b, rows, cols, ())[0],
    concat_cols=lambda a, b: np.concatenate([a, b], axis=1),
    pool=lambda a, kind, segments: _POOLS[kind](a, segments, ())[0],
    affine=lambda x, w, b: _affine(x, w.value, b.value, ())[0],
)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    op_name: str
    max_relative_error: float
    probe_count: int


# A central difference (f+ - f-) / (2 step) carries the rounding of f+ and f-,
# which says nothing about the backward. Each is taken to be within 4 eps of
# its own magnitude: a few roundings at the scale of the result (its final
# reduction and the operands feeding it), each at most eps / 2. On the grad
# suite's seeds 0-19 no correct op needs more than 0.23 eps, and a 1% error in
# any op's backward would need over 1e8 eps to hide, so it still fails at 1e-4
# (TestOpSuite's mutation test).
_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)


def _readout(x: Node, r: np.ndarray) -> Node:
    """<x, r>, x's entries weighted by the constant r and summed, as a 1x1 node.

    The grad suite's scalar: its backward hands x the gradient g * r.
    """
    _check_same("readout", x.value.shape, r.shape)

    def backward_fn(g: np.ndarray):
        return (g * r,)

    return _op(np.array([[_sum(x.value * r, axis=None)]]), "readout", (x,), backward_fn)


def grad_check(
    builder: Callable[..., Node],
    inputs: Sequence[np.ndarray],
    step: float = 1e-5,
    op_name: str = "graph",
) -> GradCheckReport:
    """Compare backward gradients against central finite differences.

    The builder must map leaf nodes (one per input matrix) to a 1x1 scalar
    node and must be pure. Every entry of every input is probed. A probe's
    error is the part of |analytic - numeric| beyond the central difference's
    own rounding, 4 eps (|f+| + |f-|) / (2 step), over
    max(|analytic|, |numeric|, 1e-8).
    """
    leaves = [parameter(m) for m in inputs]
    root = builder(*leaves)
    if root.value.shape != (1, 1):
        raise ContractError(
            "grad_check builder must produce a 1x1 scalar, got {}x{}".format(*root.value.shape)
        )
    backward(root)

    max_rel = 0.0
    probes = 0
    # Each input's leaf is built once and goes in as it is; only the probed
    # one is rebuilt.
    constants = [constant(leaf.value) for leaf in leaves]
    shifted = list(constants)
    for i, leaf in enumerate(leaves):
        analytic = leaf.grad if leaf.grad is not None else np.zeros(leaf.value.shape)
        probed = leaf.value.copy()
        for r, c in np.ndindex(probed.shape):
            saved = probed[r, c]
            probed[r, c] = saved + step
            shifted[i] = constant(probed)
            plus = float(builder(*shifted).value[0, 0])
            probed[r, c] = saved - step
            shifted[i] = constant(probed)
            minus = float(builder(*shifted).value[0, 0])
            probed[r, c] = saved
            numeric = (plus - minus) / (2.0 * step)
            rounding = _ROUNDING * (abs(plus) + abs(minus)) / (2.0 * step)
            a_val = analytic[r, c]
            rel = (abs(a_val - numeric) - rounding) / max(abs(a_val), abs(numeric), 1e-8)
            if rel > max_rel:
                max_rel = rel
            probes += 1
        shifted[i] = constants[i]
    return GradCheckReport(op_name, max_rel, probes)


def _random_matrix(rng: np.random.Generator, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
    return rng.normal(0.0, std, size=(rows, cols))


def _tie_free_segments(rng: np.random.Generator, segments: Segments, cols: int, gap: float):
    """Random stacked rows whose per-segment column max is separated from the runner-up.

    Keeps central differences away from the max-pool kink.
    """
    blocks = []
    for n in segments.lengths:
        while True:
            x = rng.normal(0.0, 1.0, size=(n, cols))
            top2 = np.sort(x, axis=0)
            if n == 1 or (top2[-1] - top2[-2] > gap).all():
                break
        blocks.append(x)
    return np.vstack(blocks)


def run_op_grad_suite(
    probes_per_op: int = 100, seed: int = 0, step: float = 1e-5
) -> list[GradCheckReport]:
    """Finite-difference check of every supported op over random instances.

    Each entry names one op and how to draw its inputs. A probe draws fresh
    inputs and a random R in the shape of the op's output, and checks every
    input entry of the scalar <op(inputs), R>; R is never probed, so an
    entry's error is its op's alone. The report per entry carries the worst
    error and the total probe count. Fewer than one probe per op would check
    nothing, so it is a ConfigError, as is a negative seed.
    """
    if probes_per_op < 1:
        raise ConfigError(f"probes_per_op must be >= 1, got {probes_per_op}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    reports: list[GradCheckReport] = []

    def run(name: str, make_inputs, op) -> None:
        worst = 0.0
        count = 0
        for _ in range(probes_per_op):
            inputs = make_inputs()
            r = rng.normal(0.0, 1.0, size=op(*[constant(m) for m in inputs]).value.shape)
            rep = grad_check(lambda *xs: _readout(op(*xs), r), inputs, step=step, op_name=name)
            worst = max(worst, rep.max_relative_error)
            count += rep.probe_count
        reports.append(GradCheckReport(name, worst, count))

    run("matmul", lambda: [_random_matrix(rng, 3, 4), _random_matrix(rng, 4, 2)], matmul)
    run("transpose", lambda: [_random_matrix(rng, 3, 4)], transpose)
    run("add", lambda: [_random_matrix(rng, 3, 3), _random_matrix(rng, 3, 3)], add)
    run("scale", lambda: [_random_matrix(rng, 2, 5)], lambda a: scale(a, 1.7))
    run("row_softmax", lambda: [_random_matrix(rng, 2, 5)],
        lambda a: row_softmax(a, _alone(2), _alone(5)))
    run("row_l2_normalize", lambda: [_random_matrix(rng, 4, 3)], row_l2_normalize)
    run("pool_mean", lambda: [_random_matrix(rng, 5, 3)], lambda a: pool(a, "mean", _alone(5)))
    run(
        "pool_max",
        lambda: [_tie_free_segments(rng, _alone(5), 3, 10 * step)],
        lambda a: pool(a, "max", _alone(5)),
    )
    run("concat_cols", lambda: [_random_matrix(rng, 3, 2), _random_matrix(rng, 3, 4)], concat_cols)
    run("cross_entropy", lambda: [_random_matrix(rng, 1, 4)], lambda a: cross_entropy(a, [2]))
    run("mse", lambda: [_random_matrix(rng, 3, 4), _random_matrix(rng, 3, 4)],
        lambda a, b: mse(a, b, _alone(3), _alone(4)))
    run("gather", lambda: [_random_matrix(rng, 5, 3)], lambda a: gather(a, [3, 0, 3, 4]))
    run(
        "self_attention",
        lambda: [_random_matrix(rng, 3, 4)] + [_random_matrix(rng, 4, 4, 0.5) for _ in range(3)],
        lambda e, wq, wk, wv: self_attention(e, wq, wk, wv, _alone(3)),
    )
    run(
        "cosine_scores",
        lambda: [_random_matrix(rng, 4, 3), _random_matrix(rng, 2, 3)],
        cosine_scores,
    )
    run(
        "affine",
        lambda: [_random_matrix(rng, 1, 3), _random_matrix(rng, 3, 4, 0.5), _random_matrix(rng, 1, 4)],
        affine,
    )
    run(
        "weighted_sum",
        lambda: [_random_matrix(rng, 1, 1) for _ in range(3)],
        lambda a, b, c: weighted_sum((a, b, c), (0.7, -1.3, 2.0)),
    )

    # Batched forms: three sequences of unequal length, one of length 1, on
    # each side, so every pad and mask is exercised.
    rows, cols = Segments((3, 1, 2)), Segments((2, 4, 1))
    targets = (2, 0, 3)
    run(
        "self_attention[segments]",
        lambda: [_random_matrix(rng, 6, 4)] + [_random_matrix(rng, 4, 4, 0.5) for _ in range(3)],
        lambda e, wq, wk, wv: self_attention(e, wq, wk, wv, rows),
    )
    run(
        "paired_scores",
        lambda: [_random_matrix(rng, 6, 3), _random_matrix(rng, 7, 3)],
        lambda a, b: paired_scores(a, b, rows, cols),
    )
    run(
        "paired_mix",
        lambda: [_random_matrix(rng, 6, 4), _random_matrix(rng, 7, 3)],
        lambda w, b: paired_mix(w, b, rows, cols),
    )
    run(
        "row_softmax[segments]",
        lambda: [_random_matrix(rng, 6, 4)],
        lambda a: row_softmax(a, rows, cols),
    )
    run(
        "mse[segments]",
        lambda: [_random_matrix(rng, 6, 4), _random_matrix(rng, 6, 4)],
        lambda a, b: mse(a, b, rows, cols),
    )
    run(
        "pool_mean[segments]",
        lambda: [_random_matrix(rng, 6, 3)],
        lambda a: pool(a, "mean", rows),
    )
    run(
        "pool_max[segments]",
        lambda: [_tie_free_segments(rng, rows, 3, 10 * step)],
        lambda a: pool(a, "max", rows),
    )
    run(
        "cross_entropy[rows]",
        lambda: [_random_matrix(rng, 3, 4)],
        lambda a: cross_entropy(a, targets),
    )
    run(
        "affine[rows]",
        lambda: [_random_matrix(rng, 3, 3), _random_matrix(rng, 3, 4, 0.5), _random_matrix(rng, 1, 4)],
        affine,
    )
    run(
        "weighted_sum[rows]",
        lambda: [_random_matrix(rng, 3, 1), _random_matrix(rng, 3, 1)],
        lambda a, b: weighted_sum((a, b), (0.7, -1.3)),
    )

    # The long form: a batch holding one sequence of LONG_ROWS rows runs
    # self-attention one sequence at a time. Two columns keep the probe count small.
    long = Segments((LONG_ROWS, 1))
    n = long.total
    run(
        "self_attention[long]",
        lambda: [_random_matrix(rng, n, 2)] + [_random_matrix(rng, 2, 2, 0.5) for _ in range(3)],
        lambda e, wq, wk, wv: self_attention(e, wq, wk, wv, long),
    )
    return reports
