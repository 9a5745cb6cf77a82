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
            lambda a, b: dc.sum_all(dc.matmul(a, b)),
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
        rep = dc.grad_check(
            lambda a: dc.sum_all(dc.matmul(dc.row_softmax(a), dc.transpose(a))),
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
        rep = dc.grad_check(
            lambda a: dc.sum_all(dc.matmul(dc.row_l2_normalize(a), dc.transpose(a))),
            [rand(rng, 4, 3)],
            step=STEP,
        )
        assert rep.max_relative_error <= FD_TOL


class TestPool:
    def test_mean_over_rows(self):
        out = dc.pool(dc.constant([[1.0, 3.0], [3.0, 5.0]]), "rows", "mean")
        assert out.value == Matrix([[2.0, 4.0]])

    def test_max_over_rows(self):
        out = dc.pool(dc.constant([[1.0, 3.0], [3.0, 5.0]]), "rows", "max")
        assert out.value == Matrix([[3.0, 5.0]])

    def test_mean_over_cols(self):
        out = dc.pool(dc.constant([[1.0, 3.0], [3.0, 5.0]]), "cols", "mean")
        assert out.value == Matrix([[2.0], [4.0]])

    def test_max_tie_routes_to_lowest_index(self):
        x = dc.parameter([[2.0, 1.0], [2.0, 5.0]])
        out = dc.pool(x, "rows", "max")
        dc.backward(dc.sum_all(out))
        assert x.grad == Matrix([[1.0, 0.0], [0.0, 1.0]])

    def test_bad_axis_or_kind(self):
        with pytest.raises(ContractError):
            dc.pool(dc.constant([[1.0]]), "diag", "mean")
        with pytest.raises(ContractError):
            dc.pool(dc.constant([[1.0]]), "rows", "median")

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    @pytest.mark.parametrize("kind", ["mean", "max"])
    def test_gradient_vs_fd(self, axis, kind):
        rng = np.random.default_rng(5)
        if kind == "max":
            m = dc._tie_free_matrix(rng, 5, 3, axis, 10 * STEP)
        else:
            m = rand(rng, 5, 3)
        if axis == "rows":
            builder = lambda a: dc.sum_all(dc.matmul(dc.pool(a, axis, kind), dc.transpose(a)))
        else:
            builder = lambda a: dc.sum_all(dc.matmul(dc.transpose(dc.pool(a, axis, kind)), a))
        rep = dc.grad_check(builder, [m], step=STEP)
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
        rep = dc.grad_check(
            lambda a, b: dc.sum_all(dc.matmul(dc.transpose(dc.concat_cols(a, b)), a)),
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
        dc.backward(dc.sum_all(dc.gather(x, [1, 1, 1])))
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
        rep = dc.grad_check(
            lambda a: dc.sum_all(dc.matmul(dc.gather(a, [4, 1, 4, 0]), dc.transpose(a))),
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
        rep = dc.grad_check(lambda a: dc.sum_all(a), [rand(rng, 3, 4)], step=STEP)
        assert rep.max_relative_error <= 1e-10

    def test_requires_backward_on_scalar_only(self):
        with pytest.raises(ContractError):
            dc.backward(dc.constant(Matrix.zeros(2, 2)))

    def test_diamond_fanout_accumulates_and_visits_once(self):
        x = dc.parameter([[1.0, 2.0]])
        left = dc.scale(x, 2.0)
        right = dc.scale(x, 3.0)
        out = dc.sum_all(dc.add(left, right))

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
            lambda a: dc.sum_all(dc.add(dc.scale(a, 2.0), dc.scale(a, 3.0))),
            [Matrix([[1.0, 2.0]])],
            step=STEP,
        )
        assert rep.max_relative_error <= 1e-9

    def test_grad_accumulates_across_backward_calls(self):
        x = dc.parameter([[1.0, 2.0]])
        dc.backward(dc.sum_all(x))
        dc.backward(dc.sum_all(x))
        assert x.grad == Matrix([[2.0, 2.0]])
        x.zero_grad()
        assert x.grad is None

    def test_constants_receive_no_gradient(self):
        x = dc.parameter([[1.0]])
        c = dc.constant([[2.0]])
        dc.backward(dc.sum_all(dc.matmul(x, c)))
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
            "pool_mean_rows": dc.pool(a, "rows", "mean"),
            "pool_max_cols": dc.pool(a, "cols", "max"),
            "concat_cols": dc.concat_cols(a, b),
            "cross_entropy": dc.cross_entropy(row, 1),
            "mse": dc.mse(a, b),
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
        root = dc.sum_all(dc.add(soft, dc.transpose(product)))
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


class TestGradCheck:
    def test_rejects_non_scalar_builder(self):
        with pytest.raises(ContractError):
            dc.grad_check(lambda a: a, [Matrix.zeros(2, 2)])

    def test_report_fields(self):
        rep = dc.grad_check(lambda a: dc.sum_all(a), [Matrix.zeros(2, 3)], op_name="sum")
        assert rep.op_name == "sum"
        assert rep.probe_count == 6
        assert rep.max_relative_error >= 0.0

    def test_detects_corrupted_backward_rule(self):
        def corrupted_add(a: Node, b: Node) -> Node:
            out = Matrix(a.value.array + b.value.array)

            def backward_fn(g):
                return g * 1.1, g  # wrong on purpose

            return Node(out, "corrupted_add", (a, b), backward_fn)

        rng = np.random.default_rng(12)
        rep = dc.grad_check(
            lambda a, b: dc.sum_all(corrupted_add(a, b)),
            [rand(rng, 2, 2), rand(rng, 2, 2)],
            step=STEP,
        )
        assert rep.max_relative_error > 1e-2


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
