import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sum_sq
from paracnn import tensor
from paracnn.tensor import (EmptyLossError, RngState, ShapeError, Tensor, concat,
                            cross_entropy, gather_rows, grad_check, no_grad)


def randn(rng, *shape):
    return rng.normal(shape)


class TestForwardValues:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal((a @ eye).data, a.data)

    def test_data_is_float64_and_a_float64_array_is_not_copied(self):
        x = np.zeros((2, 3))
        assert Tensor(x).data is x
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float64
        assert Tensor([1, 2]).data.dtype == np.float64

    def test_add_zero_is_bit_exact(self):
        rng = RngState(1)
        x = Tensor(randn(rng, 3, 4))
        z = Tensor(np.zeros((3, 4)))
        assert np.array_equal((x + z).data, x.data)

    def test_softmax_symmetry(self):
        s = Tensor([0.0, 0.0, 0.0]).softmax()
        assert np.allclose(s.data, 1.0 / 3.0)

    def test_softmax_matches_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        direct = np.exp(x - x.max())
        direct = direct / direct.sum()
        assert np.allclose(Tensor(x).softmax().data, direct, atol=1e-15)

    def test_softmax_sums_to_one(self):
        rng = RngState(2)
        y = Tensor(randn(rng, 5, 7)).softmax(axis=-1)
        assert np.all(np.abs(y.data.sum(axis=-1) - 1.0) < 1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_non_trailing_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((3, 1, 2))) + Tensor(np.zeros((4, 5)))


class TestBackward:
    def test_grad_of_sum_x_squared(self):
        x = Tensor([3.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [6.0])

    def test_shared_subexpression_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.sum().backward()
        assert np.allclose(x.grad, [5.0])
        err = grad_check(lambda t: (t * t + t).sum(), Tensor([2.0], requires_grad=True))
        assert err < 1e-6

    def test_constant_function_zero_error(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        err = grad_check(lambda t: (t * 0.0).sum(), x)
        assert err == 0.0

    def test_grad_check_sum_of_squares(self):
        rng = RngState(3)
        x = Tensor(randn(rng, 4, 3), requires_grad=True)
        assert grad_check(lambda t: (t * t).sum(), x) < 1e-6

    def test_grad_check_reads_small_gradients_of_an_order_four_loss(self):
        # f is about 4 and its gradients about 3e-7: one rounding of f, divided by
        # a 2-point stencil's 2e-5, read 2.0e-4 here; the 4-point stencil reads 2e-5
        vals = np.random.default_rng(2).uniform(0.5, 1.5, 10)
        x = Tensor(vals, requires_grad=True)
        assert grad_check(lambda t: (t * t * 1.5e-7 + Tensor(0.4)).sum(), x) < 1e-4

    def test_grad_check_reads_a_planted_backward_error(self):
        def off_square(t):  # d(t^2)/dt, off by a relative 1e-3
            return Tensor._from_op(t.data * t.data, (t,),
                                   lambda g: t._accumulate(g * 2.0 * t.data * (1.0 + 1e-3)))

        x = Tensor(randn(RngState(5), 4, 3), requires_grad=True)
        assert grad_check(lambda t: off_square(t).sum(), x) == pytest.approx(1e-3, rel=1e-2)

    def test_grad_check_tapes_only_the_analytic_call(self):
        taping = []

        def f(t):
            taping.append(tensor._taping)
            return (t * t).sum()

        grad_check(f, Tensor([1.0, 2.0], requires_grad=True))
        assert taping == [True] + [False] * 8  # then 4 stencil points per coordinate
        assert tensor._taping

    def test_grad_check_rejects_nonscalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            grad_check(lambda t: t * 2.0, x)

    def test_backward_nonscalar_needs_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    OPS = {
        "add": lambda t: (t + t * 0.5).sum(),
        "mul": lambda t: (t * t).sum(),
        "matmul": lambda t: (t @ t.transpose((1, 0))).sum(),
        # t is the 2-D weight of a 3-D input: the flattened product's weight gradient
        "matmul_weight": lambda t: sum_sq(Tensor(np.linspace(-1.0, 1.0, 40).reshape(2, 5, 4)) @ t),
        "reshape": lambda t: sum_sq(t.reshape(-1)),
        "transpose": lambda t: sum_sq(t.transpose((1, 0)) * 2.0),
        "slice": lambda t: sum_sq(t[1:, :2]),
        "tanh": lambda t: t.tanh().sum(),
        "relu": lambda t: t.relu().sum(),
        "softmax": lambda t: (t.softmax(axis=-1) * t.softmax(axis=-1)).sum(),
        "mean": lambda t: sum_sq(t.mean()),
        "max": lambda t: t.max(axis=1).sum(),
        "broadcast": lambda t: sum_sq(t.reshape(4, 1, 3).broadcast_to((4, 2, 3))),
        "concat": lambda t: sum_sq(concat([t, t * 2.0], axis=0)),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_grad_check_every_op(self, name):
        # str hashes are salted per process; crc32 picks the same point every run
        rng = RngState(zlib.crc32(name.encode()))
        x = Tensor(randn(rng, 4, 3) * 0.7, requires_grad=True)
        assert grad_check(self.OPS[name], x) < 1e-4

    def test_gather_rows_accumulates_duplicates(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = gather_rows(table, [0, 0, 2])
        out.sum().backward()
        assert np.array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_broadcast_add_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        ((x + b) * 2.0).sum().backward()
        assert np.array_equal(b.grad, [4.0, 4.0, 4.0])


class TestKeptGradients:
    """A GEMM's weight and input gradients are kept uncopied on first touch;
    an array handed to two parents is still copied, so no two grads alias."""

    def test_sums_equal_hand_sums_and_no_grads_share_memory(self):
        rng = RngState(8)
        x1, x2 = (Tensor(randn(rng, 3, 4), requires_grad=True) for _ in range(2))
        w = Tensor(randn(rng, 4, 5), requires_grad=True)  # feeds two products
        u, v = (Tensor(randn(rng, 3, 5), requires_grad=True) for _ in range(2))
        G = randn(rng, 3, 5)
        # each __add__ hands its one gradient array to both of its parents
        out = (x1 @ w + x2 @ w) + (u + v)
        (out * Tensor(G)).sum().backward()
        assert np.array_equal(x1.grad, G @ w.data.T)
        assert np.array_equal(x2.grad, G @ w.data.T)
        assert np.array_equal(w.grad, x1.data.T @ G + x2.data.T @ G)
        assert np.array_equal(u.grad, G) and np.array_equal(v.grad, G)
        leaves = [x1, x2, w, u, v]
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad)


class TestFreedTape:
    """backward frees each interior node once its rule has run; leaves keep .grad."""

    def graph(self):
        rng = RngState(9)
        x = Tensor(randn(rng, 3, 4), requires_grad=True)
        w = Tensor(randn(rng, 4, 5), requires_grad=True)
        c = randn(rng, 3, 5)
        return x, w, c

    def test_leaf_grads_equal_hand_sums_and_a_second_backward_raises(self):
        x, w, c = self.graph()
        loss = ((x @ w).tanh() * Tensor(c)).sum()
        loss.backward()
        y = np.tanh(x.data @ w.data)
        d = c * (1.0 - y * y)
        assert np.array_equal(x.grad, d @ w.data.T)
        assert np.array_equal(w.grad, x.data.T @ d)
        kept = x.grad.copy(), w.grad.copy()
        with pytest.raises(RuntimeError):
            loss.backward()
        assert np.array_equal(x.grad, kept[0]) and np.array_equal(w.grad, kept[1])

    def test_backprop_through_a_spent_interior_node_raises(self):
        x, w, _ = self.graph()
        h = x @ w
        sum_sq(h).backward()
        with pytest.raises(RuntimeError):
            (h * 3.0).sum().backward()

    def test_intermediates_are_freed_when_backward_returns(self):
        # Tensor has no __weakref__ slot; the array an intermediate holds is what
        # backward must let go of
        x, w, c = self.graph()

        def build():
            mid = (x @ w) * Tensor(c)
            return mid.tanh().sum(), weakref.ref(mid.data)

        loss, mid_data = build()
        assert mid_data() is not None
        loss.backward()
        assert mid_data() is None
        assert loss._parents == () and loss.grad is None
        assert x.grad is not None and w.grad is not None


class TestMatmulTwoDimWeight:
    """A product with a 2-D right operand is the 2-D GEMM of its flattened rows."""

    @pytest.mark.parametrize("lead", [(2, 3), (2, 3, 2)])
    def test_equals_flattened_product(self, lead):
        rng = RngState(7)
        a = Tensor(randn(rng, *lead, 4), requires_grad=True)
        w = Tensor(randn(rng, 4, 5), requires_grad=True)
        g = randn(rng, *lead, 5)
        out = a @ w
        (out * Tensor(g)).sum().backward()
        a2, g2 = a.data.reshape(-1, 4), g.reshape(-1, 5)
        assert np.array_equal(out.data, (a2 @ w.data).reshape(lead + (5,)))
        assert np.array_equal(a.grad, (g2 @ w.data.T).reshape(a.shape))
        assert np.array_equal(w.grad, a2.T @ g2)


class TestNoGrad:
    def test_outputs_record_no_tape(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with no_grad():
            outs = [x + x, x * 2.0, x @ x.transpose((1, 0)), concat([x, x]), x[0], x.sum()]
        for y in outs:
            assert y._parents == () and y._backward is None and not y.requires_grad
        assert (x * x)._parents == (x, x)  # taping is back after the block

    def test_values_match_taped_run(self):
        x = Tensor(RngState(3).normal((4, 3)), requires_grad=True)
        taped = (x @ x.transpose((1, 0))).tanh().softmax().data
        with no_grad():
            untaped = (x @ x.transpose((1, 0))).tanh().softmax().data
        assert np.array_equal(taped, untaped)

    def test_taping_restored_after_exception(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        y = x * 3.0
        assert y.requires_grad and y._backward is not None
        y.sum().backward()
        assert np.array_equal(x.grad, [3.0, 3.0, 3.0])

    def test_nested_blocks_and_decorator(self):
        x = Tensor(np.ones(2), requires_grad=True)

        @no_grad()
        def untaped():
            return x * 2.0

        with no_grad():
            with no_grad():
                pass
            assert not (x * 2.0).requires_grad  # the inner exit keeps the outer block
        assert not untaped().requires_grad
        assert (x * 2.0).requires_grad


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 3])
        assert abs(float(loss.data) - np.log(4)) < 1e-12

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 100.0
        loss = cross_entropy(Tensor(logits), [2])
        assert float(loss.data) < 1e-10

    def test_all_masked_raises(self):
        with pytest.raises(EmptyLossError):
            cross_entropy(Tensor(np.zeros((2, 4))), [0, 1], mask=[False, False])

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((1, 4))), [4])

    def test_masked_positions_do_not_contribute(self):
        rng = RngState(4)
        logits = randn(rng, 4, 6)
        full = cross_entropy(Tensor(logits[:2]), [1, 2])
        masked = cross_entropy(Tensor(logits), [1, 2, 0, 0], mask=[True, True, False, False])
        assert abs(float(full.data) - float(masked.data)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = RngState(5)
        x = Tensor(randn(rng, 3, 5), requires_grad=True)
        err = grad_check(lambda t: cross_entropy(t, [0, 2, 4], mask=[True, False, True]), x)
        assert err < 1e-6


class TestRngState:
    def test_same_seed_bit_identical(self):
        a = RngState(42).uniform(-1, 1, (100,))
        b = RngState(42).uniform(-1, 1, (100,))
        assert np.array_equal(a, b)

    def test_children_are_independent_streams(self):
        root = RngState(42)
        a = root.child(1).uniform(-1, 1, (50,))
        b = root.child(2).uniform(-1, 1, (50,))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, RngState(42).child(1).uniform(-1, 1, (50,)))

    def test_algorithm_documented(self):
        assert RngState.ALGORITHM == "pcg64"


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=16))
def test_softmax_simplex_property(vals):
    y = Tensor(np.array(vals)).softmax().data
    assert np.all(y >= 0)
    assert abs(y.sum() - 1.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_small_random_gradcheck_property(seed):
    rng = RngState(seed)
    x = Tensor(randn(rng, 2, 3) * 0.5, requires_grad=True)
    err = grad_check(lambda t: ((t @ t.transpose((1, 0))).tanh()).sum(), x)
    assert err < 1e-4
