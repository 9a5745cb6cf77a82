"""Tests for the matrix autodiff core, with finite differences as the oracle."""

import inspect
import math

import numpy as np
import pytest

from labelfuse import diffcore as dc
from labelfuse import encoders as enc
from labelfuse import fusion as fu
from labelfuse.diffcore import Node, checked
from labelfuse.errors import (
    ConfigError,
    ContractError,
    DegenerateRowError,
    DimensionError,
    NonFiniteError,
)

STEP = 1e-5
FD_TOL = 1e-6


def rand(rng, r, c):
    return rng.normal(0.0, 1.0, size=(r, c))


def same_arrays(xs, ys):
    """Pairwise bitwise-equal arrays, or both None."""
    return len(xs) == len(ys) and all(
        (x is None) == (y is None) and (x is None or np.array_equal(x, y)) for x, y in zip(xs, ys)
    )


def one(n):
    """The segments of a batch of one sequence of n rows."""
    return dc.Segments((n,))


def whole(node):
    """A matrix as one sequence's map: the segments of all its rows and of all its columns."""
    return one(node.value.shape[0]), one(node.value.shape[1])


def readout(node, r=None):
    """<node, r> as a 1x1 node; r defaults to ones, which sums node's entries."""
    return dc._readout(node, np.ones(node.value.shape) if r is None else r)


class TestChecked:
    def test_shape_and_data_layout(self):
        m = checked([[1.0, 2.0], [3.0, 4.0]])
        assert m.shape == (2, 2)
        assert m.flags.c_contiguous
        assert m.dtype == np.float64
        assert list(m.ravel()) == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError, match="^matrix entries must be finite$"):
            checked([[1.0, float("nan")]])
        with pytest.raises(NonFiniteError, match="^matrix entries must be finite$"):
            checked([[float("inf")]])

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError, match=r"^matrix must be 2-D, got 1 dimension\(s\)$"):
            checked([1.0, 2.0])

    def test_immutable(self):
        source = np.array([[1.0]])
        m = checked(source)
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        source[0, 0] = 3.0  # a copy: the caller's array stays its own
        assert m[0, 0] == 1.0


class TestMatmul:
    def test_scalar_product(self):
        out = dc.matmul(dc.constant([[2.0]]), dc.constant([[3.0]]))
        assert np.array_equal(out.value, [[6.0]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rand(rng, 2, 5)
        eye = dc.constant(np.eye(2))
        assert np.array_equal(dc.matmul(eye, dc.constant(m)).value, m)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"3x4.*2x2"):
            dc.matmul(dc.constant(np.zeros((3, 4))), dc.constant(np.zeros((2, 2))))

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
        out = dc.row_softmax(dc.constant([[0.0, 0.0]]), one(1), one(2))
        assert np.allclose(out.value, [[0.5, 0.5]], rtol=0, atol=1e-12)

    def test_analytic_values(self):
        out = dc.row_softmax(dc.constant([[math.log(2.0), 0.0]]), one(1), one(2))
        assert np.allclose(out.value, [[2.0 / 3.0, 1.0 / 3.0]], rtol=0, atol=1e-12)

    def test_rows_sum_to_one_and_open_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = dc.row_softmax(dc.constant(rand(rng, 3, 6)), one(3), one(6)).value
            assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
            assert (s > 0).all() and (s < 1).all()

    def test_overflow_safety(self):
        out = dc.row_softmax(dc.constant([[1e6, 0.0, -1e6]]), one(1), one(3))
        assert np.allclose(out.value, [[1.0, 0.0, 0.0]], rtol=0, atol=1e-12)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=(2, 5))  # a softmax row's plain sum is constant
        rep = dc.grad_check(
            lambda a: readout(dc.row_softmax(a, one(2), one(5)), r),
            [rand(rng, 2, 5)],
            step=STEP,
        )
        assert rep.max_relative_error <= FD_TOL


class TestRowL2Normalize:
    def test_three_four_five(self):
        out = dc.row_l2_normalize(dc.constant([[3.0, 4.0]]))
        assert np.allclose(out.value, [[0.6, 0.8]], rtol=0, atol=1e-12)

    def test_unit_row_unchanged(self):
        m = np.array([[0.0, 1.0, 0.0]])
        assert np.allclose(dc.row_l2_normalize(dc.constant(m)).value, m, rtol=0, atol=1e-12)

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
        out = dc.pool(dc.constant([[1.0, 3.0], [3.0, 5.0]]), "mean", one(2))
        assert np.array_equal(out.value, [[2.0, 4.0]])

    def test_max_over_rows(self):
        out = dc.pool(dc.constant([[1.0, 3.0], [3.0, 5.0]]), "max", one(2))
        assert np.array_equal(out.value, [[3.0, 5.0]])

    def test_max_tie_routes_to_lowest_index(self):
        x = dc.parameter([[2.0, 1.0], [2.0, 5.0]])
        out = dc.pool(x, "max", one(2))
        dc.backward(readout(out))
        assert np.array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_bad_axis_or_kind(self):
        # pool reduces rows only: an axis where the kind goes is refused, not misread.
        with pytest.raises(ContractError):
            dc.pool(dc.constant([[1.0]]), "rows", one(1))
        with pytest.raises(ContractError):
            dc.pool(dc.constant([[1.0]]), "median", one(1))

    @pytest.mark.parametrize("layout", ["rows", "segments"])
    @pytest.mark.parametrize("kind", ["mean", "max"])
    def test_gradient_vs_fd(self, layout, kind):
        rng = np.random.default_rng(5)
        blocks = ROWS if layout == "segments" else one(5)
        if kind == "max":
            m = dc._tie_free_segments(rng, blocks, 3, 10 * STEP)
        else:
            m = rand(rng, blocks.total, 3)
        r = rng.normal(size=(blocks.count, 3))
        rep = dc.grad_check(lambda a: readout(dc.pool(a, kind, blocks), r), [m], step=STEP)
        assert rep.max_relative_error <= FD_TOL


class TestConcatCols:
    def test_simple(self):
        out = dc.concat_cols(dc.constant([[1.0]]), dc.constant([[2.0]]))
        assert np.array_equal(out.value, [[1.0, 2.0]])

    def test_zero_width_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        empty = np.zeros((2, 0))
        assert np.array_equal(dc.concat_cols(dc.constant(m), dc.constant(empty)).value, m)
        assert np.array_equal(dc.concat_cols(dc.constant(empty), dc.constant(m)).value, m)

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            dc.concat_cols(dc.constant(np.zeros((2, 1))), dc.constant(np.zeros((3, 1))))

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
        table = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = dc.gather(dc.constant(table), [2, 0, 2])
        assert np.array_equal(out.value, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_raises(self, bad):
        # numpy indexing would silently wrap -1 to the last row
        table = dc.constant(np.zeros((3, 2)))
        with pytest.raises(IndexError, match=rf"token id {bad} out of range for vocabulary of size 3"):
            dc.gather(table, [0, bad, 1], "token id")

    @pytest.mark.parametrize("ids, first", [([0, 5, -1], 5), ([0, -1, 5], -1)])
    def test_names_the_first_bad_id_of_a_negative_and_a_too_large_one(self, ids, first):
        table = dc.constant(np.zeros((3, 2)))
        with pytest.raises(IndexError, match=rf"^id {first} out of range for vocabulary of size 3$"):
            dc.gather(table, ids)

    def test_repeated_ids_scatter_add(self):
        x = dc.parameter([[1.0, 2.0], [3.0, 4.0]])
        dc.backward(readout(dc.gather(x, [1, 1, 1])))
        assert np.array_equal(x.grad, [[0.0, 0.0], [3.0, 3.0]])

    def test_matches_dense_one_hot_product(self):
        rng = np.random.default_rng(15)
        ids = [3, 0, 3, 5, 3, 1]
        one_hot = np.zeros((len(ids), 6))
        one_hot[np.arange(len(ids)), ids] = 1.0
        table = dc.parameter(rand(rng, 6, 4))
        out = dc.gather(table, ids)
        assert np.array_equal(out.value, one_hot @ table.value)
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
        out = dc.cross_entropy(dc.constant([[0.0, 0.0, 0.0, 0.0]]), [1])
        assert abs(out.value[0, 0] - math.log(4.0)) <= 1e-12

    def test_confident_correct(self):
        out = dc.cross_entropy(dc.constant([[1e6, 0.0, 0.0, 0.0]]), [0])
        assert out.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            dc.cross_entropy(dc.constant([[0.0, 0.0]]), [2])
        with pytest.raises(IndexError):
            dc.cross_entropy(dc.constant([[0.0, 0.0]]), [-1])

    def test_targets_are_a_sequence_one_per_row(self):
        with pytest.raises(DimensionError, match=r"targets of shape \(\) for 1x2 logits"):
            dc.cross_entropy(dc.constant([[0.0, 0.0]]), 1)

    def test_non_row_logits(self):
        with pytest.raises(DimensionError):
            dc.cross_entropy(dc.constant(np.zeros((2, 2))), [0])

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(7)
        rep = dc.grad_check(lambda a: dc.cross_entropy(a, [2]), [rand(rng, 1, 5)], step=STEP)
        assert rep.max_relative_error <= FD_TOL


class TestMse:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(8)
        m = rand(rng, 3, 3)
        assert np.array_equal(dc.mse(dc.constant(m), dc.constant(m), one(3), one(3)).value, [[0.0]])

    def test_analytic(self):
        out = dc.mse(dc.constant([[0.5]]), dc.constant([[1.0]]), one(1), one(1))
        assert out.value[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dc.mse(dc.constant(np.zeros((1, 2))), dc.constant(np.zeros((2, 1))), one(1), one(2))

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(9)
        rep = dc.grad_check(
            lambda a, b: dc.mse(a, b, *whole(a)), [rand(rng, 3, 4), rand(rng, 3, 4)], step=STEP
        )
        assert rep.max_relative_error <= FD_TOL


class TestBackwardMechanics:
    def test_linear_sum_gradient_is_ones(self):
        rng = np.random.default_rng(10)
        rep = dc.grad_check(readout, [rand(rng, 3, 4)], step=STEP)
        assert rep.max_relative_error <= 1e-10

    def test_requires_backward_on_scalar_only(self):
        with pytest.raises(ContractError):
            dc.backward(dc.constant(np.zeros((2, 2))))

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
        assert np.array_equal(x.grad, [[5.0, 5.0]])

        rep = dc.grad_check(
            lambda a: readout(dc.add(dc.scale(a, 2.0), dc.scale(a, 3.0))),
            [[[1.0, 2.0]]],
            step=STEP,
        )
        assert rep.max_relative_error <= 1e-9

    def test_grad_accumulates_across_backward_calls(self):
        x = dc.parameter([[1.0, 2.0]])
        dc.backward(readout(x))
        dc.backward(readout(x))
        assert np.array_equal(x.grad, [[2.0, 2.0]])
        x.zero_grad()
        assert x.grad is None

    def test_constants_receive_no_gradient(self):
        x = dc.parameter([[1.0]])
        c = dc.constant([[2.0]])
        dc.backward(readout(dc.matmul(x, c)))
        assert c.grad is None
        assert np.array_equal(x.grad, [[2.0]])

    def test_ops_are_pure(self):
        rng = np.random.default_rng(11)
        a, b = rand(rng, 3, 4), rand(rng, 4, 3)
        first = dc.matmul(dc.constant(a), dc.constant(b)).value
        second = dc.matmul(dc.constant(a), dc.constant(b)).value
        assert np.array_equal(first, second)
        s1 = dc.row_softmax(dc.constant(a), one(3), one(4)).value
        s2 = dc.row_softmax(dc.constant(a), one(3), one(4)).value
        assert np.array_equal(s1, s2)


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
            "row_softmax": dc.row_softmax(a, *whole(a)),
            "row_l2_normalize": dc.row_l2_normalize(a),
            "pool_mean": dc.pool(a, "mean", one(3)),
            "concat_cols": dc.concat_cols(a, b),
            "cross_entropy": dc.cross_entropy(row, [1]),
            "mse": dc.mse(a, b, *whole(a)),
            "self_attention": dc.self_attention(a, w, w, w, one(3)),
            "residual_linear": dc.residual_linear(a, w),
            "cosine_scores": dc.cosine_scores(a, b),
            "bilinear_softmax": dc.bilinear_softmax(a, b, w, one(3), one(3)),
            "affine": dc.affine(row, w, row),
            "weighted_sum": dc.weighted_sum(
                (dc.mse(a, b, *whole(a)), dc.mse(b, a, *whole(a))), (1.0, 0.5)
            ),
            "paired_scores": dc.paired_scores(a, b, one(3), one(3)),
            "paired_mix": dc.paired_mix(dc.transpose(a), b, one(4), one(3)),
            "self_attention_segments": dc.self_attention(a, w, w, w, dc.Segments((2, 1))),
            "pool_max_segments": dc.pool(a, "max", dc.Segments((1, 2))),
            "row_softmax_segments": dc.row_softmax(
                a, dc.Segments((1, 2)), dc.Segments((4, 2))
            ),
        }

    def test_op_outputs_read_only_and_c_contiguous(self):
        for name, node in self.op_outputs().items():
            flags = node.value.flags
            assert not flags.writeable, name
            assert flags.c_contiguous, name
            assert node.value.dtype == np.float64, name

    def test_intermediate_nodes_hold_no_grad(self):
        a = dc.parameter([[1.0, 2.0], [3.0, -1.0]])
        c = dc.constant([[0.5, 0.25], [1.0, 2.0]])
        product = dc.matmul(a, c)
        soft = dc.row_softmax(product, *whole(product))
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
        assert product.value[0, 0] == np.inf
        with pytest.raises(NonFiniteError):
            checked(product.value)

    def test_non_finite_leaf_gradient_rejected(self):
        x = dc.parameter([[1e200]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            dc.backward(dc.mse(dc.scale(x, 1e200), dc.constant([[0.0]]), one(1), one(1)))


def chain_self_attention(e, wq, wk, wv):
    scores = dc.matmul(dc.matmul(e, wq), dc.transpose(dc.matmul(e, wk)))
    weights = dc.row_softmax(dc.scale(scores, 1.0 / math.sqrt(e.value.shape[1])), *whole(scores))
    return dc.add(e, dc.matmul(weights, dc.matmul(e, wv)))


def chain_weighted_sum(a, b, c):
    return dc.add(dc.add(dc.scale(a, 1.0), dc.scale(b, 0.5)), dc.scale(c, -0.2))


# name -> (fused op, the chain of primitive ops it replaces, input shapes). The
# shapes are the model's (width 16, 12 tokens, 40 frames, 4 classes): at this
# size BLAS sums a product differently for a transposed view than for a
# contiguous array, so an op that changes an operand layout changes bits.
FUSED = {
    "self_attention": (
        lambda e, wq, wk, wv: dc.self_attention(e, wq, wk, wv, one(e.value.shape[0])),
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
        lambda a, b, w: dc.bilinear_softmax(a, b, w, one(a.value.shape[0]), one(b.value.shape[0])),
        lambda a, b, w: dc.row_softmax(dc.matmul(a, dc.transpose(dc.matmul(b, w))),
                                       one(a.value.shape[0]), one(b.value.shape[0])),
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
            assert np.array_equal(fused_value, chain_value)
            assert same_arrays(fused_grads, chain_grads)
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
# A long pair: the rows hold a sequence of dc.LONG_ROWS rows, so self_attention
# runs each sequence as its own block.
LONG_BATCH_ROWS = dc.Segments((2, dc.LONG_ROWS, 1))
LONG_BATCH_COLS = dc.Segments((3, 1, 5))


def block(m, segments, i):
    start = segments.offsets[i]
    return m[start : start + segments.lengths[i]]


def leaves(*arrays):
    return [dc.constant(a) for a in arrays]


def alone(rows, cols, i):
    """The row and column segments of segment pair i as a batch of one."""
    return one(rows.lengths[i]), one(cols.lengths[i])


def segment_ops(rows, cols):
    """name -> (input shapes, the op on the whole batch, the op on the arrays of
    segment i alone, and whether the output is a stack of maps, one row per
    segment, or rows like the input)."""
    n, m, width = rows.total, cols.total, cols.width
    return {
        "self_attention": (
            [(n, 4), (4, 4), (4, 4), (4, 4)],
            lambda e, wq, wk, wv: dc.self_attention(e, wq, wk, wv, rows),
            lambda i, e, wq, wk, wv: dc.self_attention(
                *leaves(block(e, rows, i), wq, wk, wv), one(rows.lengths[i])
            ),
            "rows",
        ),
        "bilinear_softmax": (
            [(n, 3), (m, 3), (3, 3)],
            lambda a, b, w: dc.bilinear_softmax(a, b, w, rows, cols),
            lambda i, a, b, w: dc.bilinear_softmax(
                *leaves(block(a, rows, i), block(b, cols, i), w), *alone(rows, cols, i)
            ),
            "map",
        ),
        "paired_scores": (
            [(n, 3), (m, 3)],
            lambda a, b: dc.paired_scores(a, b, rows, cols),
            lambda i, a, b: dc.paired_scores(
                *leaves(block(a, rows, i), block(b, cols, i)), *alone(rows, cols, i)
            ),
            "map",
        ),
        "paired_mix": (
            [(n, width), (m, 3)],
            lambda w, b: dc.paired_mix(w, b, rows, cols),
            lambda i, w, b: dc.paired_mix(
                *leaves(block(w, rows, i)[:, : cols.lengths[i]], block(b, cols, i)),
                *alone(rows, cols, i),
            ),
            "rows",
        ),
        "row_softmax": (
            [(n, width)],
            lambda a: dc.row_softmax(a, rows, cols),
            lambda i, a: dc.row_softmax(
                *leaves(block(a, rows, i)[:, : cols.lengths[i]]), *alone(rows, cols, i)
            ),
            "map",
        ),
        "mse": (
            [(n, width), (n, width)],
            lambda a, b: dc.mse(a, b, rows, cols),
            lambda i, a, b: dc.mse(*leaves(
                block(a, rows, i)[:, : cols.lengths[i]], block(b, rows, i)[:, : cols.lengths[i]]
            ), *alone(rows, cols, i)),
            "one",
        ),
        "pool_mean": (
            [(n, 3)],
            lambda a: dc.pool(a, "mean", rows),
            lambda i, a: dc.pool(*leaves(block(a, rows, i)), "mean", one(rows.lengths[i])),
            "one",
        ),
        "pool_max": (
            [(n, 3)],
            lambda a: dc.pool(a, "max", rows),
            lambda i, a: dc.pool(*leaves(block(a, rows, i)), "max", one(rows.lengths[i])),
            "one",
        ),
        "cross_entropy": (
            [(3, 4)],
            lambda a: dc.cross_entropy(a, (2, 0, 3)),
            lambda i, a: dc.cross_entropy(*leaves(a[i : i + 1]), (2, 0, 3)[i : i + 1]),
            "one",
        ),
    }


SEGMENT_OPS = segment_ops(ROWS, COLS)
LONG_OPS = segment_ops(LONG_BATCH_ROWS, LONG_BATCH_COLS)
# The ops that take segments: a long batch runs self_attention per sequence and pads the rest.
PER_SEQUENCE_OPS = [name for name in LONG_OPS if name != "cross_entropy"]
PADDED_OPS = [name for name in PER_SEQUENCE_OPS if name != "self_attention"]


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
        e = dc.constant(np.zeros((5, 4)))
        w = dc.constant(np.zeros((4, 4)))
        with pytest.raises(DimensionError):
            dc.self_attention(e, w, w, w, ROWS)
        with pytest.raises(DimensionError):
            dc.paired_scores(dc.constant(np.zeros((6, 3))), dc.constant(np.zeros((7, 3))),
                             ROWS, dc.Segments((7,)))
        with pytest.raises(DimensionError):
            dc.pool(e, "max", ROWS)

    @pytest.mark.parametrize("op, names", [
        (dc.self_attention, ["segments"]),
        (dc.pool, ["segments"]),
        (dc.row_softmax, ["rows", "cols"]),
        (dc.mse, ["rows", "cols"]),
        (dc.bilinear_softmax, ["rows", "cols"]),
        (dc.paired_scores, ["rows", "cols"]),
        (dc.paired_mix, ["rows", "cols"]),
        (enc.text_encode, ["segments"]),
        (enc.speech_encode, ["segments"]),
        (fu.guidance_loss, ["segments"]),
    ])
    def test_segments_have_no_default(self, op, names):
        params = inspect.signature(op).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, name

    def test_a_batch_is_long_from_its_longest_sequence(self):
        assert dc.LONG_ROWS == 64
        assert not dc.Segments((63, 1, 63)).long
        assert dc.Segments((1, 64, 2)).long


def check_each_segment_as_if_alone(ops, name, rows, cols):
    shapes, batched, alone, layout = ops[name]
    rng = np.random.default_rng(63)
    for _ in range(5):
        values = [rand(rng, *shape) for shape in shapes]
        out = batched(*[dc.constant(v) for v in values]).value
        assert np.isfinite(out).all()
        for i in range(rows.count):
            want = alone(i, *values).value
            if layout == "one":
                got = out[i : i + 1]
            else:
                got = block(out, rows, i)
            if layout == "map":
                assert not block(out, rows, i)[:, cols.lengths[i] :].any()
                got = got[:, : cols.lengths[i]]
            assert np.abs(got - want).max() <= 1e-12


def check_padding_takes_no_gradient(ops, name, rows, cols):
    shapes, batched, _, _ = ops[name]
    rng = np.random.default_rng(64)
    leaves = [dc.parameter(rand(rng, *shape)) for shape in shapes]
    out = batched(*leaves)
    dc.backward(readout(out, rng.normal(size=out.value.shape)))
    for leaf in leaves:
        assert np.isfinite(leaf.grad).all()
    if name in ("paired_mix", "row_softmax", "mse"):  # map inputs: past a width is padding
        for i in range(rows.count):
            assert not block(leaves[0].grad, rows, i)[:, cols.lengths[i] :].any()


class TestSegmentOps:
    """A segment op gives each segment what the op gives it alone; padding never leaks."""

    @pytest.mark.parametrize("name", list(SEGMENT_OPS))
    def test_each_segment_as_if_alone(self, name):
        check_each_segment_as_if_alone(SEGMENT_OPS, name, ROWS, COLS)

    @pytest.mark.parametrize("name", list(SEGMENT_OPS))
    def test_padding_takes_no_gradient_and_gives_finite_ones(self, name):
        check_padding_takes_no_gradient(SEGMENT_OPS, name, ROWS, COLS)


def padded(monkeypatch, lengths):
    """Segments of `lengths` built while no batch counts as long: the padded path."""
    monkeypatch.setattr(dc, "LONG_ROWS", 1 << 30)
    segments = dc.Segments(lengths)
    monkeypatch.undo()
    return segments


def run_with_grads(build, values):
    """The op's output and every input's gradient under a fixed random readout."""
    leaves = [dc.parameter(v) for v in values]
    out = build(*leaves)
    r = np.random.default_rng(66).normal(size=out.value.shape)
    dc.backward(readout(out, r))
    return out.value, [leaf.grad for leaf in leaves]


class TestLongBatches:
    """Self-attention runs a long batch one sequence at a time; every other op pads it."""

    @pytest.mark.parametrize("name", PER_SEQUENCE_OPS)
    def test_each_segment_as_if_alone(self, name):
        check_each_segment_as_if_alone(LONG_OPS, name, LONG_BATCH_ROWS, LONG_BATCH_COLS)

    @pytest.mark.parametrize("name", PER_SEQUENCE_OPS)
    def test_padding_takes_no_gradient_and_gives_finite_ones(self, name):
        check_padding_takes_no_gradient(LONG_OPS, name, LONG_BATCH_ROWS, LONG_BATCH_COLS)

    @pytest.mark.parametrize("name", ["self_attention"])
    def test_gradients_are_each_blocks_own_and_shared_ones_summed(self, name):
        # Bit for bit: e's gradient block is its batch of one's, and each weight's
        # gradient is the batch-of-one gradients added in order.
        shapes, batched, _, _ = LONG_OPS[name]
        rng = np.random.default_rng(65)
        e, *weights = [rand(rng, *shape) for shape in shapes]
        leaves = [dc.parameter(v) for v in (e, *weights)]
        out = batched(*leaves)
        r = rng.normal(size=out.value.shape)
        dc.backward(readout(out, r))
        shared = [None] * len(weights)
        for i in range(LONG_BATCH_ROWS.count):
            parts = [dc.parameter(v) for v in (block(e, LONG_BATCH_ROWS, i), *weights)]
            blocks = one(LONG_BATCH_ROWS.lengths[i])
            dc.backward(readout(dc.self_attention(*parts, blocks), block(r, LONG_BATCH_ROWS, i)))
            assert np.array_equal(block(leaves[0].grad, LONG_BATCH_ROWS, i),
                                  parts[0].grad)
            for k, part in enumerate(parts[1:]):
                g = part.grad
                shared[k] = g if shared[k] is None else shared[k] + g
        for leaf, total in zip(leaves[1:], shared):
            assert np.array_equal(leaf.grad, total)

    @pytest.mark.parametrize("name", ["self_attention"])
    def test_63_rows_run_padded_and_64_run_in_blocks(self, name, monkeypatch):
        rng = np.random.default_rng(68)
        for longest, is_long in ((dc.LONG_ROWS - 1, False), (dc.LONG_ROWS, True)):
            lengths = (3, longest, 1)
            rows, cols = dc.Segments(lengths), dc.Segments((2, 5, 1))
            assert rows.long is is_long
            shapes, batched, alone, _ = segment_ops(rows, cols)[name]
            values = [rand(rng, *shape) for shape in shapes]
            got_value, got_grads = run_with_grads(batched, values)
            # The padded path, on segments built while no batch counts as long.
            pad_rows, pad_cols = padded(monkeypatch, lengths), padded(monkeypatch, (2, 5, 1))
            padded_op = segment_ops(pad_rows, pad_cols)[name][1]
            want_value, want_grads = run_with_grads(padded_op, values)
            if not is_long:
                assert np.array_equal(got_value, want_value)
                assert same_arrays(got_grads, want_grads)
                continue
            for i in range(rows.count):  # the per-block bits: each block's batch of one
                want = alone(i, *values).value
                assert np.array_equal(block(got_value, rows, i), want), (name, i)
            for got, want in zip(got_grads, want_grads):
                assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", PADDED_OPS)
    def test_pads_a_long_batch(self, name, monkeypatch):
        # Bit for bit the values and gradients of segments built while no batch is long.
        rng = np.random.default_rng(69)
        shapes, batched, _, _ = LONG_OPS[name]
        values = [rand(rng, *shape) for shape in shapes]
        got_value, got_grads = run_with_grads(batched, values)
        pad_rows = padded(monkeypatch, LONG_BATCH_ROWS.lengths)
        pad_cols = padded(monkeypatch, LONG_BATCH_COLS.lengths)
        want_value, want_grads = run_with_grads(segment_ops(pad_rows, pad_cols)[name][1], values)
        assert np.array_equal(got_value, want_value)
        assert same_arrays(got_grads, want_grads)


# (op, input shapes) that do not fit rows (2, dc.LONG_ROWS, 1) and columns (3, 1, 5):
# a product, a residual, a segment total or a map width is off.
MISFITS = [
    ("self_attention", [(67, 4), (3, 4), (4, 4), (4, 4)]),
    ("self_attention", [(67, 4), (4, 4), (4, 3), (4, 4)]),
    ("self_attention", [(67, 4), (4, 4), (4, 4), (4, 3)]),
    ("self_attention", [(66, 4), (4, 4), (4, 4), (4, 4)]),
    ("bilinear_softmax", [(67, 3), (9, 4), (3, 3)]),
    ("bilinear_softmax", [(67, 4), (9, 3), (3, 3)]),
    ("bilinear_softmax", [(67, 3), (8, 3), (3, 3)]),
    ("paired_scores", [(67, 3), (9, 4)]),
    ("paired_scores", [(67, 3), (10, 3)]),
    ("paired_mix", [(67, 4), (9, 3)]),
    ("paired_mix", [(66, 5), (9, 3)]),
    ("row_softmax", [(67, 4)]),
    ("row_softmax", [(66, 5)]),
    ("mse", [(67, 5), (67, 4)]),
    ("mse", [(67, 4), (67, 4)]),
    ("pool_mean", [(66, 3)]),
    ("pool_max", [(66, 3)]),
]


class TestLongMisfits:
    """A long batch raises the DimensionError of a padded one, whatever the op."""

    @pytest.mark.parametrize("name, shapes", MISFITS)
    def test_same_dimension_error_on_both_paths(self, name, shapes, monkeypatch):
        lengths, col_lengths = (2, dc.LONG_ROWS, 1), (3, 1, 5)
        messages = []
        for rows, cols in (
            (dc.Segments(lengths), dc.Segments(col_lengths)),
            (padded(monkeypatch, lengths), padded(monkeypatch, col_lengths)),
        ):
            op = segment_ops(rows, cols)[name][1]
            with pytest.raises(DimensionError) as error:
                op(*[dc.constant(np.zeros(shape)) for shape in shapes])
            messages.append(str(error.value))
        assert messages[0] == messages[1]


class TestGradCheck:
    def test_rejects_non_scalar_builder(self):
        with pytest.raises(ContractError):
            dc.grad_check(lambda a: a, [np.zeros((2, 2))])

    def test_report_fields(self):
        rep = dc.grad_check(readout, [np.zeros((2, 3))], op_name="sum")
        assert rep.op_name == "sum"
        assert rep.probe_count == 6
        assert rep.max_relative_error >= 0.0

    def test_central_difference_rounding_is_not_an_error(self):
        # Gradients of 1e-9 on a value near 24: f+ - f- loses about eps * 24 to
        # rounding, 2% of the 1e-8 floor, though the backward is exact.
        r = np.array([[1e-9, -2e-9, 3e-9]])
        rep = dc.grad_check(
            lambda a: dc.add(readout(a, r), dc.constant([[24.0]])),
            [[[0.1, 0.7, -1.3]]],
            step=STEP,
        )
        assert rep.max_relative_error == 0.0

    def test_detects_corrupted_backward_rule(self):
        def corrupted_add(a: Node, b: Node) -> Node:
            out = checked(a.value + b.value)

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

    @pytest.mark.parametrize("probes", [0, -1])
    def test_rejects_fewer_than_one_probe(self, probes):
        with pytest.raises(ConfigError, match="probes_per_op"):
            dc.run_op_grad_suite(probes_per_op=probes)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            dc.run_op_grad_suite(probes_per_op=1, seed=-1)

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
