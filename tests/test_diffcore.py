"""Tests for the matrix autodiff core, with finite differences as the oracle."""

import math

import numpy as np
import pytest

from labelfuse import diffcore as dc
from labelfuse.diffcore import Matrix, Node
from labelfuse.errors import (
    ContractError,
    DegenerateRowError,
    DimensionError,
    NonFiniteError,
)

STEP = 1e-5
FD_TOL = 1e-6


def rand(rng, r, c):
    return Matrix(rng.normal(0.0, 1.0, size=(r, c)))


def readout(node, r=None):
    """<node, r> as a 1x1 node; r defaults to ones, which sums node's entries."""
    return dc._readout(node, np.ones(node.value.shape) if r is None else r)


class TestMatrix:
    def test_shape_and_data_layout(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert (m.rows, m.cols) == (2, 2)
        assert m.array.flags.c_contiguous
        assert list(m.array.ravel()) == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            Matrix([[1.0, float("nan")]])
        with pytest.raises(NonFiniteError):
            Matrix([[float("inf")]])

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            Matrix([1.0, 2.0])

    def test_immutable(self):
        m = Matrix([[1.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 2.0


class TestMatmul:
    def test_scalar_product(self):
        out = dc.matmul(dc.constant([[2.0]]), dc.constant([[3.0]]))
        assert out.value == Matrix([[6.0]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rand(rng, 2, 5)
        eye = dc.constant(np.eye(2))
        assert dc.matmul(eye, dc.constant(m)).value == m

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"3x4.*2x2"):
            dc.matmul(dc.constant(Matrix.zeros(3, 4)), dc.constant(Matrix.zeros(2, 2)))

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(1)
        rep = dc.grad_check(
            lambda a, b: readout(dc.matmul(a, b)),
            [rand(rng, 3, 4), rand(rng, 4, 2)],
            step=STEP,
        )
        assert rep.max_relative_error <= FD_TOL


class TestRowSoftmax:
    def test_uniform_row(self):
        out = dc.row_softmax(dc.constant([[0.0, 0.0]]))
        assert out.value.allclose(Matrix([[0.5, 0.5]]))

    def test_analytic_values(self):
        out = dc.row_softmax(dc.constant([[math.log(2.0), 0.0]]))
        assert out.value.allclose(Matrix([[2.0 / 3.0, 1.0 / 3.0]]))

    def test_rows_sum_to_one_and_open_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = dc.row_softmax(dc.constant(rand(rng, 3, 6))).value.array
            assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
            assert (s > 0).all() and (s < 1).all()

    def test_overflow_safety(self):
        out = dc.row_softmax(dc.constant([[1e6, 0.0, -1e6]]))
        assert out.value.allclose(Matrix([[1.0, 0.0, 0.0]]), atol=1e-12)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=(2, 5))  # a softmax row's plain sum is constant
        rep = dc.grad_check(
            lambda a: readout(dc.row_softmax(a), r),
            [rand(rng, 2, 5)],
            step=STEP,
        )
        assert rep.max_relative_error <= FD_TOL


class TestRowL2Normalize:
    def test_three_four_five(self):
        out = dc.row_l2_normalize(dc.constant([[3.0, 4.0]]))
        assert out.value.allclose(Matrix([[0.6, 0.8]]))

    def test_unit_row_unchanged(self):
        m = Matrix([[0.0, 1.0, 0.0]])
        assert dc.row_l2_normalize(dc.constant(m)).value.allclose(m)

    def test_degenerate_row_names_index(self):
        with pytest.raises(DegenerateRowError, match="row 1"):
            dc.row_l2_normalize(dc.constant([[1.0, 0.0], [0.0, 0.0]]))

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(4)
        r = rng.normal(size=(4, 3))
        rep = dc.grad_check(
            lambda a: readout(dc.row_l2_normalize(a), r),
            [rand(rng, 4, 3)],
            step=STEP,
        )
        assert rep.max_relative_error <= FD_TOL


class TestPool:
    def test_mean_over_rows(self):
        out = dc.pool(dc.constant([[1.0, 3.0], [3.0, 5.0]]), "mean")
        assert out.value == Matrix([[2.0, 4.0]])

    def test_max_over_rows(self):
        out = dc.pool(dc.constant([[1.0, 3.0], [3.0, 5.0]]), "max")
        assert out.value == Matrix([[3.0, 5.0]])

    def test_max_tie_routes_to_lowest_index(self):
        x = dc.parameter([[2.0, 1.0], [2.0, 5.0]])
        out = dc.pool(x, "max")
        dc.backward(readout(out))
        assert x.grad == Matrix([[1.0, 0.0], [0.0, 1.0]])

    def test_bad_axis_or_kind(self):
        # pool reduces rows only: an axis where the kind goes is refused, not misread.
        with pytest.raises(ContractError):
            dc.pool(dc.constant([[1.0]]), "rows")
        with pytest.raises(ContractError):
            dc.pool(dc.constant([[1.0]]), "median")

    @pytest.mark.parametrize("layout", ["rows", "segments"])
    @pytest.mark.parametrize("kind", ["mean", "max"])
    def test_gradient_vs_fd(self, layout, kind):
        rng = np.random.default_rng(5)
        blocks = ROWS if layout == "segments" else dc.Segments((5,))
        if kind == "max":
            m = dc._tie_free_segments(rng, blocks, 3, 10 * STEP)
        else:
            m = rand(rng, blocks.total, 3)
        r = rng.normal(size=(blocks.count, 3))
        segments = ROWS if layout == "segments" else None
        rep = dc.grad_check(lambda a: readout(dc.pool(a, kind, segments), r), [m], step=STEP)
        assert rep.max_relative_error <= FD_TOL


class TestConcatCols:
    def test_simple(self):
        out = dc.concat_cols(dc.constant([[1.0]]), dc.constant([[2.0]]))
        assert out.value == Matrix([[1.0, 2.0]])

    def test_zero_width_identity(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        empty = Matrix(np.zeros((2, 0)))
        assert dc.concat_cols(dc.constant(m), dc.constant(empty)).value == m
        assert dc.concat_cols(dc.constant(empty), dc.constant(m)).value == m

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            dc.concat_cols(dc.constant(Matrix.zeros(2, 1)), dc.constant(Matrix.zeros(3, 1)))

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(6)
        r = rng.normal(size=(3, 6))
        rep = dc.grad_check(
            lambda a, b: readout(dc.concat_cols(a, b), r),
            [rand(rng, 3, 2), rand(rng, 3, 4)],
            step=STEP,
        )
        assert rep.max_relative_error <= FD_TOL


class TestGather:
    def test_rows_in_id_order(self):
        table = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = dc.gather(dc.constant(table), [2, 0, 2])
        assert out.value == Matrix([[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_raises(self, bad):
        # numpy indexing would silently wrap -1 to the last row
        table = dc.constant(Matrix.zeros(3, 2))
        with pytest.raises(IndexError, match=rf"token id {bad} out of range for vocabulary of size 3"):
            dc.gather(table, [0, bad, 1], "token id")

    def test_repeated_ids_scatter_add(self):
        x = dc.parameter([[1.0, 2.0], [3.0, 4.0]])
        dc.backward(readout(dc.gather(x, [1, 1, 1])))
        assert x.grad == Matrix([[0.0, 0.0], [3.0, 3.0]])

    def test_matches_dense_one_hot_product(self):
        rng = np.random.default_rng(15)
        ids = [3, 0, 3, 5, 3, 1]
        one_hot = np.zeros((len(ids), 6))
        one_hot[np.arange(len(ids)), ids] = 1.0
        table = dc.parameter(rand(rng, 6, 4))
        out = dc.gather(table, ids)
        assert np.array_equal(out.value.array, one_hot @ table.value.array)
        g = rng.normal(size=(len(ids), 4))
        (grad,) = out.backward_fn(g)
        assert np.allclose(grad, one_hot.T @ g, rtol=0.0, atol=1e-12)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(13)
        r = rng.normal(size=(4, 3))
        rep = dc.grad_check(
            lambda a: readout(dc.gather(a, [4, 1, 4, 0]), r),
            [rand(rng, 5, 3)],
            step=STEP,
        )
        assert rep.max_relative_error <= FD_TOL


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = dc.cross_entropy(dc.constant([[0.0, 0.0, 0.0, 0.0]]), 1)
        assert abs(out.value.array[0, 0] - math.log(4.0)) <= 1e-12

    def test_confident_correct(self):
        out = dc.cross_entropy(dc.constant([[1e6, 0.0, 0.0, 0.0]]), 0)
        assert out.value.array[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            dc.cross_entropy(dc.constant([[0.0, 0.0]]), 2)
        with pytest.raises(IndexError):
            dc.cross_entropy(dc.constant([[0.0, 0.0]]), -1)

    def test_non_row_logits(self):
        with pytest.raises(DimensionError):
            dc.cross_entropy(dc.constant(Matrix.zeros(2, 2)), 0)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(7)
        rep = dc.grad_check(lambda a: dc.cross_entropy(a, 2), [rand(rng, 1, 5)], step=STEP)
        assert rep.max_relative_error <= FD_TOL


class TestMse:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(8)
        m = rand(rng, 3, 3)
        assert dc.mse(dc.constant(m), dc.constant(m)).value == Matrix([[0.0]])

    def test_analytic(self):
        out = dc.mse(dc.constant([[0.5]]), dc.constant([[1.0]]))
        assert out.value.array[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dc.mse(dc.constant(Matrix.zeros(1, 2)), dc.constant(Matrix.zeros(2, 1)))

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(9)
        rep = dc.grad_check(
            lambda a, b: dc.mse(a, b), [rand(rng, 3, 4), rand(rng, 3, 4)], step=STEP
        )
        assert rep.max_relative_error <= FD_TOL


class TestBackwardMechanics:
    def test_linear_sum_gradient_is_ones(self):
        rng = np.random.default_rng(10)
        rep = dc.grad_check(readout, [rand(rng, 3, 4)], step=STEP)
        assert rep.max_relative_error <= 1e-10

    def test_requires_backward_on_scalar_only(self):
        with pytest.raises(ContractError):
            dc.backward(dc.constant(Matrix.zeros(2, 2)))

    def test_diamond_fanout_accumulates_and_visits_once(self):
        x = dc.parameter([[1.0, 2.0]])
        left = dc.scale(x, 2.0)
        right = dc.scale(x, 3.0)
        out = readout(dc.add(left, right))

        calls = {}
        for node in (left, right, out):
            original = node.backward_fn

            def counted(g, _orig=original, _node=node):
                calls[id(_node)] = calls.get(id(_node), 0) + 1
                return _orig(g)

            node.backward_fn = counted

        dc.backward(out)
        assert all(n == 1 for n in calls.values())
        assert x.grad == Matrix([[5.0, 5.0]])

        rep = dc.grad_check(
            lambda a: readout(dc.add(dc.scale(a, 2.0), dc.scale(a, 3.0))),
            [Matrix([[1.0, 2.0]])],
            step=STEP,
        )
        assert rep.max_relative_error <= 1e-9

    def test_grad_accumulates_across_backward_calls(self):
        x = dc.parameter([[1.0, 2.0]])
        dc.backward(readout(x))
        dc.backward(readout(x))
        assert x.grad == Matrix([[2.0, 2.0]])
        x.zero_grad()
        assert x.grad is None

    def test_constants_receive_no_gradient(self):
        x = dc.parameter([[1.0]])
        c = dc.constant([[2.0]])
        dc.backward(readout(dc.matmul(x, c)))
        assert c.grad is None
        assert x.grad == Matrix([[2.0]])

    def test_ops_are_pure(self):
        rng = np.random.default_rng(11)
        a, b = rand(rng, 3, 4), rand(rng, 4, 3)
        first = dc.matmul(dc.constant(a), dc.constant(b)).value
        second = dc.matmul(dc.constant(a), dc.constant(b)).value
        assert first == second
        s1 = dc.row_softmax(dc.constant(a)).value
        s2 = dc.row_softmax(dc.constant(a)).value
        assert s1 == s2


class TestLeanTape:
    def op_outputs(self):
        rng = np.random.default_rng(14)
        a, b = dc.parameter(rand(rng, 3, 4)), dc.parameter(rand(rng, 3, 4))
        row, col = dc.parameter(rand(rng, 1, 4)), dc.parameter(rand(rng, 3, 1))
        w = dc.parameter(rand(rng, 4, 4))
        return {
            "matmul": dc.matmul(a, dc.transpose(b)),
            "transpose": dc.transpose(a),
            "transpose_row": dc.transpose(row),
            "transpose_col": dc.transpose(col),
            "gather": dc.gather(a, [2, 0, 2]),
            "add": dc.add(a, b),
            "scale": dc.scale(a, 0.5),
            "row_softmax": dc.row_softmax(a),
            "row_l2_normalize": dc.row_l2_normalize(a),
            "pool_mean": dc.pool(a, "mean"),
            "concat_cols": dc.concat_cols(a, b),
            "cross_entropy": dc.cross_entropy(row, 1),
            "mse": dc.mse(a, b),
            "self_attention": dc.self_attention(a, w, w, w),
            "residual_linear": dc.residual_linear(a, w),
            "cosine_scores": dc.cosine_scores(a, b),
            "bilinear_softmax": dc.bilinear_softmax(a, b, w),
            "affine": dc.affine(row, w, row),
            "weighted_sum": dc.weighted_sum((dc.mse(a, b), dc.mse(b, a)), (1.0, 0.5)),
            "paired_scores": dc.paired_scores(a, b),
            "paired_mix": dc.paired_mix(dc.transpose(a), b),
            "self_attention_segments": dc.self_attention(a, w, w, w, dc.Segments((2, 1))),
            "pool_max_segments": dc.pool(a, "max", dc.Segments((1, 2))),
            "row_softmax_segments": dc.row_softmax(
                a, dc.Segments((1, 2)), dc.Segments((4, 2))
            ),
        }

    def test_op_outputs_read_only_and_c_contiguous(self):
        for name, node in self.op_outputs().items():
            flags = node.value.array.flags
            assert not flags.writeable, name
            assert flags.c_contiguous, name
            assert node.value.array.dtype == np.float64, name

    def test_intermediate_nodes_hold_no_grad(self):
        a = dc.parameter([[1.0, 2.0], [3.0, -1.0]])
        c = dc.constant([[0.5, 0.25], [1.0, 2.0]])
        product = dc.matmul(a, c)
        soft = dc.row_softmax(product)
        root = readout(dc.add(soft, dc.transpose(product)))
        dc.backward(root)
        assert a.grad is not None
        assert c.grad is None
        for node in (product, soft, root):
            assert node.grad is None

    def test_matmul_backward_skips_constant_parent(self):
        a = dc.parameter([[1.0, 2.0]])
        table = dc.constant([[1.0], [2.0]])
        grads = dc.matmul(a, table).backward_fn(np.ones((1, 1)))
        assert grads[1] is None
        assert np.array_equal(grads[0], [[1.0, 2.0]])

    def test_ops_leave_finiteness_to_the_boundaries(self):
        big = dc.constant([[1e200]])
        with np.errstate(over="ignore"):
            product = dc.matmul(big, big)
        assert product.value.array[0, 0] == np.inf
        with pytest.raises(NonFiniteError):
            Matrix(product.value.array)

    def test_non_finite_leaf_gradient_rejected(self):
        x = dc.parameter([[1e200]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            dc.backward(dc.mse(dc.scale(x, 1e200), dc.constant([[0.0]])))


def chain_self_attention(e, wq, wk, wv):
    scores = dc.matmul(dc.matmul(e, wq), dc.transpose(dc.matmul(e, wk)))
    weights = dc.row_softmax(dc.scale(scores, 1.0 / math.sqrt(e.value.cols)))
    return dc.add(e, dc.matmul(weights, dc.matmul(e, wv)))


def chain_weighted_sum(a, b, c):
    return dc.add(dc.add(dc.scale(a, 1.0), dc.scale(b, 0.5)), dc.scale(c, -0.2))


# name -> (fused op, the chain of primitive ops it replaces, input shapes). The
# shapes are the model's (width 16, 12 tokens, 40 frames, 4 classes): at this
# size BLAS sums a product differently for a transposed view than for a
# contiguous array, so an op that changes an operand layout changes bits.
FUSED = {
    "self_attention": (
        dc.self_attention,
        chain_self_attention,
        [(40, 16), (16, 16), (16, 16), (16, 16)],
    ),
    "residual_linear": (
        dc.residual_linear,
        lambda x, w: dc.add(x, dc.matmul(x, w)),
        [(40, 16), (16, 16)],
    ),
    "cosine_scores": (
        dc.cosine_scores,
        lambda s, lab: dc.matmul(dc.row_l2_normalize(s), dc.transpose(dc.row_l2_normalize(lab))),
        [(40, 16), (4, 16)],
    ),
    "bilinear_softmax": (
        dc.bilinear_softmax,
        lambda a, b, w: dc.row_softmax(dc.matmul(a, dc.transpose(dc.matmul(b, w)))),
        [(12, 16), (40, 16), (16, 16)],
    ),
    "affine": (
        dc.affine,
        lambda x, w, b: dc.add(dc.matmul(x, w), b),
        [(1, 32), (32, 4), (1, 4)],
    ),
    "weighted_sum": (
        lambda a, b, c: dc.weighted_sum((a, b, c), (1.0, 0.5, -0.2)),
        chain_weighted_sum,
        [(1, 1), (1, 1), (1, 1)],
    ),
}


class TestFusedOps:
    """Each fused op gives the bits of the op chain it replaces, forward and backward."""

    @pytest.mark.parametrize("frozen_first", [False, True])
    @pytest.mark.parametrize("name", list(FUSED))
    def test_bitwise_equal_to_chain(self, name, frozen_first):
        fused, chain, shapes = FUSED[name]
        rng = np.random.default_rng(61)
        for _ in range(5):
            values = [rand(rng, *shape) for shape in shapes]
            r = None
            results = []
            for build in (fused, chain):
                leaves = [dc.parameter(v) for v in values]
                if frozen_first:
                    leaves[0] = dc.constant(values[0])
                out = build(*leaves)
                if r is None:
                    r = rng.normal(size=out.value.shape)
                dc.backward(readout(out, r))
                results.append((out.value, [leaf.grad for leaf in leaves]))
            (fused_value, fused_grads), (chain_value, chain_grads) = results
            assert fused_value == chain_value
            assert fused_grads == chain_grads
            assert (fused_grads[0] is None) == frozen_first

    @pytest.mark.parametrize("name, shapes", [
        ("self_attention", [(5, 4), (3, 4), (4, 4), (4, 4)]),
        ("self_attention", [(5, 4), (4, 4), (4, 3), (4, 4)]),
        ("self_attention", [(5, 4), (4, 4), (4, 4), (4, 3)]),
        ("residual_linear", [(5, 4), (4, 3)]),
        ("cosine_scores", [(5, 4), (3, 5)]),
        ("bilinear_softmax", [(3, 4), (6, 5), (4, 4)]),
        ("bilinear_softmax", [(3, 3), (6, 5), (5, 4)]),
        ("affine", [(1, 4), (3, 3), (1, 3)]),
        ("affine", [(1, 4), (4, 3), (1, 2)]),
        ("weighted_sum", [(1, 1), (2, 1), (1, 1)]),
    ])
    def test_shape_mismatch_raises_the_chains_error(self, name, shapes):
        fused, chain, _ = FUSED[name]
        rng = np.random.default_rng(62)
        leaves = [dc.constant(rand(rng, *shape)) for shape in shapes]
        with pytest.raises(DimensionError) as chain_error:
            chain(*leaves)
        with pytest.raises(DimensionError) as fused_error:
            fused(*leaves)
        if name != "weighted_sum":
            assert str(fused_error.value) == str(chain_error.value)

    def test_weighted_sum_needs_one_weight_per_term(self):
        with pytest.raises(ContractError):
            dc.weighted_sum((dc.constant([[1.0]]),), (1.0, 2.0))

    def test_cosine_scores_rejects_zero_label_row(self):
        with pytest.raises(DegenerateRowError):
            dc.cosine_scores(dc.constant([[1.0, 0.0]]), dc.constant([[0.0, 0.0]]))


ROWS, COLS = dc.Segments((3, 1, 2)), dc.Segments((2, 4, 1))


def block(m, segments, i):
    start = segments.offsets[i]
    return m[start : start + segments.lengths[i]]


def leaves(*arrays):
    return [dc.constant(a) for a in arrays]


# name -> (input shapes, the op on the whole batch, the op on the arrays of segment
# i alone, and whether the output is a stack of maps, one row per segment, or rows
# like the input).
SEGMENT_OPS = {
    "self_attention": (
        [(6, 4), (4, 4), (4, 4), (4, 4)],
        lambda e, wq, wk, wv: dc.self_attention(e, wq, wk, wv, ROWS),
        lambda i, e, wq, wk, wv: dc.self_attention(*leaves(block(e, ROWS, i), wq, wk, wv)),
        "rows",
    ),
    "bilinear_softmax": (
        [(6, 3), (7, 3), (3, 3)],
        lambda a, b, w: dc.bilinear_softmax(a, b, w, ROWS, COLS),
        lambda i, a, b, w: dc.bilinear_softmax(*leaves(block(a, ROWS, i), block(b, COLS, i), w)),
        "map",
    ),
    "paired_scores": (
        [(6, 3), (7, 3)],
        lambda a, b: dc.paired_scores(a, b, ROWS, COLS),
        lambda i, a, b: dc.paired_scores(*leaves(block(a, ROWS, i), block(b, COLS, i))),
        "map",
    ),
    "paired_mix": (
        [(6, 4), (7, 3)],
        lambda w, b: dc.paired_mix(w, b, ROWS, COLS),
        lambda i, w, b: dc.paired_mix(
            *leaves(block(w, ROWS, i)[:, : COLS.lengths[i]], block(b, COLS, i))
        ),
        "rows",
    ),
    "row_softmax": (
        [(6, 4)],
        lambda a: dc.row_softmax(a, ROWS, COLS),
        lambda i, a: dc.row_softmax(*leaves(block(a, ROWS, i)[:, : COLS.lengths[i]])),
        "map",
    ),
    "mse": (
        [(6, 4), (6, 4)],
        lambda a, b: dc.mse(a, b, ROWS, COLS),
        lambda i, a, b: dc.mse(*leaves(
            block(a, ROWS, i)[:, : COLS.lengths[i]], block(b, ROWS, i)[:, : COLS.lengths[i]]
        )),
        "one",
    ),
    "pool_mean": (
        [(6, 3)],
        lambda a: dc.pool(a, "mean", ROWS),
        lambda i, a: dc.pool(*leaves(block(a, ROWS, i)), "mean"),
        "one",
    ),
    "pool_max": (
        [(6, 3)],
        lambda a: dc.pool(a, "max", ROWS),
        lambda i, a: dc.pool(*leaves(block(a, ROWS, i)), "max"),
        "one",
    ),
    "cross_entropy": (
        [(3, 4)],
        lambda a: dc.cross_entropy(a, (2, 0, 3)),
        lambda i, a: dc.cross_entropy(*leaves(a[i : i + 1]), (2, 0, 3)[i]),
        "one",
    ),
}


class TestSegments:
    def test_lengths_must_be_positive(self):
        for lengths in ((), (2, 0), (-1,)):
            with pytest.raises(ContractError):
                dc.Segments(lengths)

    def test_pad_and_unpad(self):
        x = np.arange(12.0).reshape(6, 2)
        padded = ROWS.pad(x)
        assert padded.shape == (3, 3, 2)
        assert np.array_equal(padded[1, 1:], np.zeros((2, 2)))
        assert np.array_equal(padded[2, 2], np.zeros(2))
        assert np.array_equal(ROWS.unpad(padded), x)
        assert (ROWS.offsets, ROWS.total, ROWS.width) == ((0, 3, 4), 6, 3)

    def test_equal_lengths_pad_by_reshape(self):
        x = np.arange(12.0).reshape(6, 2)
        for segments in (dc.Segments((3, 3)), dc.Segments((6,))):
            padded = segments.pad(x)
            assert np.shares_memory(padded, x)
            assert np.array_equal(segments.unpad(padded), x)

    def test_segments_must_cover_the_rows(self):
        e = dc.constant(Matrix.zeros(5, 4))
        w = dc.constant(Matrix.zeros(4, 4))
        with pytest.raises(DimensionError):
            dc.self_attention(e, w, w, w, ROWS)
        with pytest.raises(DimensionError):
            dc.paired_scores(dc.constant(Matrix.zeros(6, 3)), dc.constant(Matrix.zeros(7, 3)),
                             ROWS, dc.Segments((7,)))
        with pytest.raises(DimensionError):
            dc.pool(e, "max", ROWS)


class TestSegmentOps:
    """A segment op gives each segment what the op gives it alone; padding never leaks."""

    @pytest.mark.parametrize("name", list(SEGMENT_OPS))
    def test_each_segment_as_if_alone(self, name):
        shapes, batched, alone, layout = SEGMENT_OPS[name]
        rng = np.random.default_rng(63)
        for _ in range(5):
            values = [rand(rng, *shape) for shape in shapes]
            out = batched(*[dc.constant(v) for v in values]).value.array
            assert np.isfinite(out).all()
            for i in range(ROWS.count):
                want = alone(i, *[v.array for v in values]).value.array
                if layout == "one":
                    got = out[i : i + 1]
                else:
                    got = block(out, ROWS, i)
                if layout == "map":
                    assert not block(out, ROWS, i)[:, COLS.lengths[i] :].any()
                    got = got[:, : COLS.lengths[i]]
                assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("name", list(SEGMENT_OPS))
    def test_padding_takes_no_gradient_and_gives_finite_ones(self, name):
        shapes, batched, _, _ = SEGMENT_OPS[name]
        rng = np.random.default_rng(64)
        leaves = [dc.parameter(rand(rng, *shape)) for shape in shapes]
        out = batched(*leaves)
        dc.backward(readout(out, rng.normal(size=out.value.shape)))
        for leaf in leaves:
            assert np.isfinite(leaf.grad.array).all()
        if name in ("paired_mix", "row_softmax", "mse"):  # map inputs: past a width is padding
            for i in range(ROWS.count):
                assert not block(leaves[0].grad.array, ROWS, i)[:, COLS.lengths[i] :].any()


class TestGradCheck:
    def test_rejects_non_scalar_builder(self):
        with pytest.raises(ContractError):
            dc.grad_check(lambda a: a, [Matrix.zeros(2, 2)])

    def test_report_fields(self):
        rep = dc.grad_check(readout, [Matrix.zeros(2, 3)], op_name="sum")
        assert rep.op_name == "sum"
        assert rep.probe_count == 6
        assert rep.max_relative_error >= 0.0

    def test_central_difference_rounding_is_not_an_error(self):
        # Gradients of 1e-9 on a value near 24: f+ - f- loses about eps * 24 to
        # rounding, 2% of the 1e-8 floor, though the backward is exact.
        r = np.array([[1e-9, -2e-9, 3e-9]])
        rep = dc.grad_check(
            lambda a: dc.add(readout(a, r), dc.constant([[24.0]])),
            [Matrix([[0.1, 0.7, -1.3]])],
            step=STEP,
        )
        assert rep.max_relative_error == 0.0

    def test_detects_corrupted_backward_rule(self):
        def corrupted_add(a: Node, b: Node) -> Node:
            out = Matrix(a.value.array + b.value.array)

            def backward_fn(g):
                return g * 1.1, g  # wrong on purpose

            return Node(out, "corrupted_add", (a, b), backward_fn)

        rng = np.random.default_rng(12)
        rep = dc.grad_check(
            lambda a, b: readout(corrupted_add(a, b)),
            [rand(rng, 2, 2), rand(rng, 2, 2)],
            step=STEP,
        )
        assert rep.max_relative_error > 1e-2


# Every op kind the grad suite checks, as the op names its node.
OP_KINDS = (
    "matmul", "transpose", "gather", "add", "scale", "row_softmax", "row_l2_normalize",
    "pool_mean", "pool_max", "concat_cols", "cross_entropy", "mse", "self_attention",
    "residual_linear", "cosine_scores", "bilinear_softmax", "paired_scores", "paired_mix",
    "affine", "weighted_sum",
)


def suite_run(monkeypatch, wrong_kind=None):
    """The suite at seed 0, 10 probes per entry, and the op kinds each entry built.

    The backward of `wrong_kind`, if given, returns each parent's gradient x 1.01.
    """
    built: dict[str, set[str]] = {}
    entry = [None]
    grad_check, make_node = dc.grad_check, dc._op

    def named_grad_check(builder, inputs, step, op_name):
        entry[0] = op_name
        try:
            return grad_check(builder, inputs, step=step, op_name=op_name)
        finally:
            entry[0] = None  # the suite's own forward, for R's shape, is no entry's

    def recording_op(out, kind, parents, backward_fn):
        if entry[0] is not None:
            built.setdefault(entry[0], set()).add(kind)
        if kind != wrong_kind:
            return make_node(out, kind, parents, backward_fn)

        def one_percent_off(g):
            return tuple(None if pg is None else pg * 1.01 for pg in backward_fn(g))

        return make_node(out, kind, parents, one_percent_off)

    monkeypatch.setattr(dc, "grad_check", named_grad_check)
    monkeypatch.setattr(dc, "_op", recording_op)
    return dc.run_op_grad_suite(probes_per_op=10, seed=0), built


class TestOpSuite:
    def test_all_ops_within_tolerance(self):
        reports = dc.run_op_grad_suite(probes_per_op=10, seed=0)
        for rep in reports:
            assert rep.max_relative_error <= 1e-4, rep

    def test_suite_covers_gather(self):
        reports = dc.run_op_grad_suite(probes_per_op=10, seed=0)
        gather = [rep for rep in reports if rep.op_name == "gather"]
        assert len(gather) == 1
        assert gather[0].probe_count == 10 * 15
        assert gather[0].max_relative_error <= 1e-4

    def test_each_entry_builds_only_its_op_and_the_readout(self, monkeypatch):
        reports, built = suite_run(monkeypatch)
        assert [rep.op_name for rep in reports] == list(built)
        for name, kinds in built.items():
            assert kinds == {name.split("[")[0], "readout"}, name
        assert set().union(*built.values()) == {*OP_KINDS, "readout"}

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_a_one_percent_backward_error_fails_exactly_its_entries(self, monkeypatch, kind):
        reports, built = suite_run(monkeypatch, wrong_kind=kind)
        failed = {rep.op_name for rep in reports if rep.max_relative_error > 1e-4}
        assert failed == {name for name, kinds in built.items() if kind in kinds}
        assert failed
