"""Core autodiff behavior: tape recording, pointwise ops, losses, Adam."""

import gc
import operator
import tracemalloc
import warnings

import numpy as np
import pytest

from pansharp.grad import (
    AdamState,
    SplitMix64,
    Tape,
    Tensor,
    adam_step,
    add,
    backward,
    concat,
    conv2d,
    derive_seed,
    kaiming_uniform,
    l1_loss,
    mul,
    relu,
    scale,
    sigmoid,
    zero_grads,
)
from pansharp.grad import rng as rng_module
from helpers import check_op_gradient


class TestTapeMechanics:
    def test_sum_of_ones_grads_are_ones(self):
        """loss = sum(w) must give dloss/dw = 1 everywhere."""
        w = Tensor(np.ones((3, 4)), requires_grad=True)
        with Tape():
            loss = w.sum()
        loss.backward()
        np.testing.assert_array_equal(w.grad, np.ones((3, 4), np.float32))

    def test_grads_accumulate_until_reset(self):
        w = Tensor(np.ones(5), requires_grad=True)
        for _ in range(2):
            with Tape():
                loss = w.sum()
            loss.backward()
        np.testing.assert_array_equal(w.grad, 2 * np.ones(5, np.float32))
        zero_grads([w])
        assert w.grad is None

    def test_each_node_visited_once(self):
        """A diamond graph: y = a*a + a*a. d/da = 4a, not more."""
        a = Tensor(np.full(3, 2.0), requires_grad=True)
        with Tape() as tape:
            b = mul(a, a)
            c = mul(a, a)
            loss = add(b, c).sum()
        assert len(tape) == 4
        backward(loss)
        np.testing.assert_allclose(a.grad, np.full(3, 8.0), rtol=1e-6)

    def test_backward_frees_the_step(self):
        """Backward empties the tape, so with the cyclic collector off a
        step's activations, closures and gradients are still freed."""
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(4, 8, 32, 32)))
        w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        current = []
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(5):
                zero_grads([w, b])
                with Tape():
                    loss = relu(conv2d(x, w, b, padding=1)).sum()
                loss.backward()
                current.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            gc.enable()
        activation = x.data.nbytes
        assert current[-1] - current[0] < activation / 4, current

    def test_only_leaves_keep_gradients(self):
        """After backward, leaves that need a gradient carry ``.grad``; the
        intermediates and the loss do not, their gradients having been freed
        as the walk passed them on."""
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        with Tape():
            h = relu(conv2d(x, w, b, padding=1))
            c = concat([h, scale(h, 2.0)])
            m = mul(c, c)
            loss = m.sum()
        loss.backward()
        assert w.grad is not None and b.grad is not None
        assert x.grad is None
        for t in (h, c, m, loss):
            assert t.grad is None

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            y = add(w, w)
        with pytest.raises(ValueError, match="scalar"):
            y.backward()

    def test_backward_without_tape_rejected(self):
        w = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError, match="tape"):
            w.backward()

    def test_second_backward_on_consumed_tape_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = mul(w, w).sum()
        loss.backward()
        with pytest.raises(ValueError, match="consumed"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])

    def test_no_recording_without_tape(self):
        w = Tensor(np.ones(3), requires_grad=True)
        y = add(w, w)
        assert y.tape is None and not y.requires_grad


class TestPointwiseOps:
    def test_add_mul_values(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        np.testing.assert_array_equal(add(a, b).data, [4.0, 6.0])
        np.testing.assert_array_equal(mul(a, b).data, [3.0, 8.0])

    @pytest.mark.parametrize("op, symbol", [(operator.add, "+"),
                                            (operator.mul, "*")])
    def test_number_operand_is_a_type_error(self, op, symbol):
        """``+`` and ``*`` take two Tensors (``scale`` takes a number); a
        number used to raise an AttributeError on its missing ``shape``."""
        with pytest.raises(TypeError) as info:
            op(Tensor([1.0, 2.0]), 2.0)
        assert f"unsupported operand type(s) for {symbol}" in str(info.value)

    def test_shape_mismatch_names_axis(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="axis 1"):
            add(a, b)

    def test_relu_gradient_zero_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        with Tape():
            y = relu(x).sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_relu_gradient_on_edge_values(self):
        """The backward masks by the output, which is positive exactly
        where the input is, NaN, -0.0 and the infinities included, so the
        gradient is the input-masked one bit for bit."""
        x = np.array([np.nan, -0.0, 0.0, -np.inf, np.inf, -1.5, 2.5],
                     dtype=np.float32)
        up = np.array([-2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0], np.float32)
        t = Tensor(x, requires_grad=True)
        with Tape():
            loss = mul(relu(t), Tensor(up)).sum()
        loss.backward()
        want = np.zeros_like(x)
        want += up * (x > 0)
        np.testing.assert_array_equal(t.grad.view(np.uint32), want.view(np.uint32))
        np.testing.assert_array_equal(t.grad, [0, 0, 0, 0, -6, 0, -8])

    def test_relu_forward_on_edge_values(self):
        """NaN and -0.0 map to +0.0 and the infinities pass as a masked
        select would map them, bit for bit."""
        x = np.array([np.nan, -0.0, 0.0, -np.inf, np.inf, -1.5, 2.5],
                     dtype=np.float32)
        want = np.where(x > 0, x, 0)
        got = relu(Tensor(x)).data
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_sigmoid_matches_closed_form(self):
        x = Tensor([-2.0, 0.0, 3.0])
        expect = 1.0 / (1.0 + np.exp([2.0, 0.0, -3.0]))
        np.testing.assert_allclose(sigmoid(x).data, expect, rtol=1e-6)

    def test_sigmoid_matches_expit_without_warnings(self):
        """scipy as the oracle on [-100, 100] and at +-inf: no overflow
        warning is raised, and NaN stays NaN."""
        from scipy.special import expit

        x = np.concatenate([np.linspace(-100, 100, 20001, dtype=np.float32),
                            np.array([-np.inf, np.inf, np.nan], np.float32)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(Tensor(x)).data
        assert got.dtype == np.float32
        # Below about -87 the values are subnormal, where float32 holds no
        # relative precision (and float32 expit flushes to zero).
        np.testing.assert_allclose(got, expit(x), rtol=1e-6,
                                   atol=np.finfo(np.float32).tiny)
        assert np.isnan(got[-1])

    def test_pointwise_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 3, 4)).astype(np.float32)
        b = rng.normal(size=(2, 3, 4)).astype(np.float32)
        assert check_op_gradient(lambda t: add(t[0], t[1]), [a, b], wrt=0) < 1e-2
        assert check_op_gradient(lambda t: mul(t[0], t[1]), [a, b], wrt=1) < 1e-2
        assert check_op_gradient(lambda t: scale(t[0], 0.25), [a], wrt=0) < 1e-2
        assert check_op_gradient(lambda t: sigmoid(t[0]), [a], wrt=0) < 1e-2

    def test_concat_roundtrip_gradient(self):
        rng = np.random.default_rng(12)
        parts = [rng.normal(size=(2, c, 3, 3)).astype(np.float32) for c in (1, 2, 3)]
        for wrt in range(3):
            err = check_op_gradient(lambda t: concat(t), parts, wrt=wrt)
            assert err < 1e-2
        with pytest.raises(ValueError, match="axis 2"):
            concat([Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((1, 1, 4, 3)))])

    def test_concat_rank_mismatch_raises_at_the_call(self):
        """The ranks are checked by concat itself: comparing the shapes
        axis by axis alone would stop at the shorter one."""
        with pytest.raises(ValueError, match="input 1 has rank 3 but input 0 has rank 4"):
            concat([Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros((1, 3, 3)))])

    def test_concat_reports_its_shape_and_builds_its_array_once(self):
        rng = np.random.default_rng(13)
        parts = [rng.normal(size=(2, c, 3, 4)).astype(np.float32) for c in (1, 3)]
        cat = concat([Tensor(p) for p in parts])
        assert cat.shape == (2, 4, 3, 4) and cat.size == 96
        np.testing.assert_array_equal(cat.data, np.concatenate(parts, axis=1))
        assert cat.data is cat.data


class TestL1Loss:
    def test_value_is_flat_mean(self):
        pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        target = Tensor(np.array([[1.5, 2.0], [2.0, 5.0]]))
        assert l1_loss(pred, target).item() == pytest.approx(2.5 / 4.0)

    def test_subgradient_zero_at_ties(self):
        pred = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        target = Tensor([1.0, 1.0, 4.0])
        with Tape():
            loss = l1_loss(pred, target)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [0.0, 1 / 3, -1 / 3], rtol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        p = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        t = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        err = check_op_gradient(lambda ts: l1_loss(ts[0], ts[1]), [p, t], wrt=0)
        assert err < 1e-2


class TestAdam:
    def test_first_step_is_signed_lr(self):
        """With bias correction, step 1 moves by lr * g / (|g| + eps)."""
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([1.0, -1.0], np.float32)
        state = AdamState([p])
        adam_step([p], state, lr=0.1)
        np.testing.assert_allclose(p.data, [0.9, -1.9], atol=1e-6)

    def test_quadratic_converges(self):
        """100 steps on f(w) = w^2 from w=1 at lr 0.1 ends below 0.1."""
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState([p])
        for _ in range(100):
            p.grad = (2.0 * p.data).astype(np.float32)
            adam_step([p], state, lr=0.1)
        assert abs(float(p.data[0])) < 0.1

    def test_missing_grad_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="no gradient"):
            adam_step([p], AdamState([p]), lr=0.01)


class TestRng:
    def test_splitmix_reference_values(self):
        """First outputs for seed 1234567 (published splitmix64 vectors)."""
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_shuffle_deterministic(self):
        a, b = list(range(20)), list(range(20))
        SplitMix64(99).shuffle(a)
        SplitMix64(99).shuffle(b)
        assert a == b and a != list(range(20))

    def test_derive_seed_varies_with_salt(self):
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_derive_seed_string_salts(self):
        assert derive_seed(7, "scene") == derive_seed(7, "scene")
        assert derive_seed(7, "scene") != derive_seed(7, "split")
        assert derive_seed(7, "epoch", 3) != derive_seed(7, "epoch", 4)

    def test_uniform_array_matches_scalar_sequence(self, monkeypatch):
        # (37, 53) spans many blocks of 64 with a remainder of 41.
        cases = [((3, 4), -1.0, 3.0, None), ((37, 53), -0.3, 0.7, None),
                 ((37, 53), -0.3, 0.7, 64)]
        for shape, low, high, block in cases:
            if block is not None:
                monkeypatch.setattr(rng_module, "_DRAW_BLOCK", block)
            scalar_rng = SplitMix64(42)
            expected = np.float32([scalar_rng.uniform(low, high)
                                   for _ in range(int(np.prod(shape)))])
            vector_rng = SplitMix64(42)
            got = vector_rng.uniform_array(shape, low, high)
            assert got.shape == shape and got.dtype == np.float32
            np.testing.assert_array_equal(got.ravel(), expected)
            # State advances past the block: the next draws agree too.
            assert vector_rng.uniform() == scalar_rng.uniform()

    def test_kaiming_bound_and_determinism(self):
        w1 = kaiming_uniform(SplitMix64(5), (64, 3, 3, 3), fan_in=27)
        w2 = kaiming_uniform(SplitMix64(5), (64, 3, 3, 3), fan_in=27)
        np.testing.assert_array_equal(w1, w2)
        bound = np.sqrt(6.0 / 27)
        assert np.max(np.abs(w1)) <= bound
        assert np.max(np.abs(w1)) > 0.8 * bound
