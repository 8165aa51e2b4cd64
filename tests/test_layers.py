import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sum_sq
from paracnn.layers import (BiGruCell, CausalConvBlock, Embedding, Linear,
                            MultiHeadSelfAttention, VisualAttention, tanh_of_sum)
from paracnn.tensor import RngState, ShapeError, Tensor, concat, grad_check
from paracnn.training import Critic, critic_loss


def rng_for(tag):
    return RngState(1234).child(tag)


def conv_tap(conv, out, c, tau):
    """Index of weight[out, c, tau] (the [2*out, in, k] draw) in the GEMM-layout weight."""
    return tau * conv.in_channels + c, out


class TestCausalConvBlock:
    def test_identity_configuration(self):
        # kernel 2, linear half selects the current frame, gate forced wide open;
        # the residual adds the input once more
        conv = CausalConvBlock(rng_for(1), 2, 2)
        conv.weight.data[:] = 0.0
        for c in range(2):
            conv.weight.data[conv_tap(conv, c, c, 1)] = 1.0  # tap 1 = current frame
        conv.bias.data[:] = 0.0
        conv.bias.data[2:] = 50.0  # sigmoid(50) ~ 1
        x = rng_for(2).normal((1, 5, 2))
        out = conv(Tensor(x)).data
        assert np.allclose(out - x, x, atol=1e-12)

    def test_previous_plus_current_sum(self):
        # kernel 2, linear half sums previous and current frame of one channel
        # (on top of the residual)
        conv = CausalConvBlock(rng_for(3), 1, 2)
        conv.weight.data[:] = 0.0
        conv.weight.data[conv_tap(conv, 0, 0, 0)] = 1.0
        conv.weight.data[conv_tap(conv, 0, 0, 1)] = 1.0
        conv.bias.data[:] = 0.0
        conv.bias.data[1] = 50.0
        x = np.array([[[1.0], [2.0], [3.0]]])
        out = conv(Tensor(x)).data
        assert np.allclose((out - x).reshape(-1), [1.0, 3.0, 5.0], atol=1e-12)

    def test_causality_bit_exact(self):
        conv = CausalConvBlock(rng_for(4), 3, 3)
        x = rng_for(5).normal((1, 7, 3))
        base = conv(Tensor(x)).data.copy()
        for t in range(7):
            bumped = x.copy()
            bumped[0, t, :] += 1.0
            out = conv(Tensor(bumped)).data
            assert np.array_equal(out[0, :t], base[0, :t])
            assert not np.allclose(out[0, t:], base[0, t:])

    def test_stacked_causality(self):
        blocks = [CausalConvBlock(rng_for(6 + i), 4, 3) for i in range(3)]

        def run(arr):
            h = Tensor(arr)
            for b in blocks:
                h = b(h)
            return h.data

        x = rng_for(10).normal((1, 6, 4))
        base = run(x)
        bumped = x.copy()
        bumped[0, 4, 0] += 0.1
        out = run(bumped)
        assert np.array_equal(out[0, :4], base[0, :4])

    def test_channel_mismatch_raises(self):
        conv = CausalConvBlock(rng_for(13), 4, 2)
        with pytest.raises(ShapeError):
            conv(Tensor(np.zeros((1, 3, 5))))

    def test_gradcheck(self):
        conv = CausalConvBlock(rng_for(14), 3, 2)
        x = Tensor(rng_for(15).normal((1, 4, 3)), requires_grad=True)
        assert grad_check(lambda t: (conv(t) * conv(t)).sum(), x) < 1e-4
        fixed = Tensor(rng_for(16).normal((1, 4, 3)))
        for p in (conv.weight, conv.bias):
            assert grad_check(lambda _: sum_sq(conv(fixed)), p) < 1e-4

    def test_weight_is_seeded_draw_in_gemm_layout(self):
        # 134 output columns and 67 input channels: full and partial copy tiles on both
        conv = CausalConvBlock(rng_for(17), 67, 3)
        draw = rng_for(17).uniform(-1 / np.sqrt(201), 1 / np.sqrt(201), (134, 67, 3))
        w = conv.weight.data
        assert w.shape == (201, 134) and w.flags.c_contiguous
        for o, c, tau in np.ndindex(draw.shape):
            assert w[conv_tap(conv, o, c, tau)] == draw[o, c, tau]

    def test_forward_matches_direct_convolution(self):
        conv = CausalConvBlock(rng_for(18), 3, 3)
        x = rng_for(19).normal((2, 5, 3))
        w = conv.weight.data.reshape(3, 3, 6).transpose(2, 1, 0)  # [2*out, in, k]
        xp = np.concatenate([np.zeros((2, 2, 3)), x], axis=1)
        pre = np.stack([sum(xp[:, t + tau] @ w[:, :, tau].T for tau in range(3))
                        for t in range(5)], axis=1) + conv.bias.data
        expect = pre[..., :3] / (1.0 + np.exp(-pre[..., 3:])) + x
        assert np.allclose(conv(Tensor(x)).data, expect, rtol=1e-12, atol=1e-12)

    def test_gemm_operand_is_the_weight_itself(self):
        # the weight is the GEMM operand as it is: a per-call copy or re-layout
        # of its 320 x 128 floats (327 KB) must not come back
        conv = CausalConvBlock(rng_for(20), 64, 5)
        x = Tensor(rng_for(21).normal((1, 2, 64)), requires_grad=True)
        for call in (lambda: conv(x), lambda: conv.step(x[:, 0], [x[:, 1]] * 4)):
            call()  # warm-up: first-call allocations are not the block's
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < conv.weight.data.nbytes


class TestCausalConvStep:
    """``step`` on one frame at a time against the rows of ``__call__``."""

    @pytest.mark.parametrize("k, channels", [(1, 3), (4, 3)])
    def test_rows_match_full_pass(self, k, channels):
        conv = CausalConvBlock(rng_for(30 + k), channels, k)
        T = k + 3
        x = rng_for(40 + k).normal((2, T, channels))
        full = conv(Tensor(x)).data
        history = []
        lengths = []
        for t in range(T):
            lengths.append(len(history))
            row = conv.step(Tensor(x[:, t]), history)
            assert row.shape == (2, channels)
            assert np.allclose(row.data, full[:, t], rtol=0, atol=1e-12)
        # every history length 0..k-1 was stepped against, then it stays at k-1
        assert lengths == [min(t, k - 1) for t in range(T)]

    def test_history_holds_last_inputs(self):
        conv = CausalConvBlock(rng_for(50), 2, 4)
        frames = [Tensor(rng_for(51 + t).normal((1, 2))) for t in range(6)]
        history = []
        for t, frame in enumerate(frames):
            conv.step(frame, history)
            assert history == frames[max(0, t - 2):t + 1]

    def test_channel_mismatch_raises(self):
        conv = CausalConvBlock(rng_for(52), 4, 2)
        with pytest.raises(ShapeError):
            conv.step(Tensor(np.zeros((1, 5))), [])

    def test_gradcheck_over_steps(self):
        k, T = 4, 6
        conv = CausalConvBlock(rng_for(53), 3, k)
        x = Tensor(rng_for(54).normal((1, T, 3)), requires_grad=True)

        def stepped(t_in):
            history = []
            outs = [conv.step(t_in[:, t], history) for t in range(T)]
            return sum_sq(concat(outs, axis=-1))

        assert grad_check(stepped, x) < 1e-4
        fixed = Tensor(x.data.copy())
        for p in (conv.weight, conv.bias):
            assert grad_check(lambda _: stepped(fixed), p) < 1e-4


def taped_sigmoid(t):
    """``1 / (1 + exp(-t))`` as one tape node: the formula the fused nodes compute."""
    y = 1.0 / (1.0 + np.exp(-t.data))
    return Tensor._from_op(y, (t,), lambda g: t._accumulate(g * y * (1.0 - y)))


def taped_conv_gate(conv, windows, x):
    """The gated tail as the composition of tensor ops the fused node replaced."""
    pre = windows @ conv.weight + conv.bias
    out = pre[..., :conv.out_channels] * taped_sigmoid(pre[..., conv.out_channels:])
    return out + x


def taped_conv_call(conv, x):
    """``CausalConvBlock.__call__`` as pad, concat, k tap slices, concat and the gated tail."""
    T, k = x.shape[-2], conv.kernel_size
    xp = concat([Tensor(np.zeros(x.shape[:-2] + (k - 1, conv.in_channels))), x], axis=-2)
    return taped_conv_gate(conv, concat([xp[..., tau:tau + T, :] for tau in range(k)], axis=-1), x)


def taped_conv_step(conv, x, history):
    """``CausalConvBlock.step`` as zero block, history and frame concatenated, and the gated tail."""
    k = conv.kernel_size
    taps = list(history)
    missing = k - 1 - len(taps)
    if missing > 0:
        taps.insert(0, Tensor(np.zeros(x.shape[:-1] + (missing * conv.in_channels,))))
    out = taped_conv_gate(conv, concat(taps + [x], axis=-1), x)
    history.append(x)
    del history[:max(0, len(history) - (k - 1))]
    return out


class TestFusedConvBlock:
    """``__call__`` and ``step`` are one tape node each, equal bit for bit to the
    composition of tensor ops they replaced, gradients included."""

    @staticmethod
    def outputs_and_grads(loss_of, leaves):
        for leaf in leaves:
            leaf.zero_grad()
        out, loss = loss_of()
        loss.backward()
        return out.data, [leaf.grad for leaf in leaves]

    def assert_equal_to_taped(self, monkeypatch, loss_of, leaves):
        fused = self.outputs_and_grads(loss_of, leaves)
        monkeypatch.setattr(CausalConvBlock, "__call__", taped_conv_call)
        monkeypatch.setattr(CausalConvBlock, "step", taped_conv_step)
        taped = self.outputs_and_grads(loss_of, leaves)
        assert np.array_equal(fused[0], taped[0])
        for i, (f, t) in enumerate(zip(fused[1], taped[1])):
            assert f is not None and np.array_equal(f, t), i

    @pytest.mark.parametrize("k, channels", [(1, 3), (3, 3)])
    def test_call_equals_taped_composition(self, monkeypatch, k, channels):
        conv = CausalConvBlock(rng_for(60 + k), channels, k)
        x = Tensor(rng_for(61).normal((2, 5, channels)), requires_grad=True)
        r = Tensor(rng_for(62).normal((2, 5, channels)))

        def loss_of():
            # x also feeds the loss directly, and the weight is used twice
            out = conv(x)
            return out, (out * r).sum() + sum_sq(x) + sum_sq(conv(x * 0.5))

        self.assert_equal_to_taped(monkeypatch, loss_of, [x, conv.weight, conv.bias])

    def test_topic_loop_steps_equal_taped_composition(self, monkeypatch):
        # as in the topic loop: each step's output is fed back as the next
        # frame, so history frames require grad and feed later steps
        blocks = [CausalConvBlock(rng_for(63), 4, 3), CausalConvBlock(rng_for(64), 4, 2)]
        x = Tensor(rng_for(65).normal((2, 6, 4)), requires_grad=True)

        def loss_of():
            histories = [[], []]
            frame, outs = x[:, 0], []
            for t in range(6):
                h = frame
                for block, history in zip(blocks, histories):
                    h = block.step(h, history)
                outs.append(h)
                frame = h.tanh() + x[:, (t + 1) % 6]
            out = concat(outs, axis=-1)
            return out, sum_sq(out)

        leaves = [x] + [p for b in blocks for p in (b.weight, b.bias)]
        self.assert_equal_to_taped(monkeypatch, loss_of, leaves)

    def test_call_and_step_are_one_node(self):
        conv = CausalConvBlock(rng_for(66), 3, 3)
        x = Tensor(rng_for(67).normal((1, 4, 3)), requires_grad=True)
        out = conv(x)
        assert len(out._parents) == 3
        assert all(a is b for a, b in zip(out._parents, (x, conv.weight, conv.bias)))
        frames = [Tensor(rng_for(68 + t).normal((1, 3)), requires_grad=True) for t in range(3)]
        history = frames[:2]
        out = conv.step(frames[2], history)
        assert len(out._parents) == 5
        assert all(a is b for a, b in zip(out._parents, frames + [conv.weight, conv.bias]))


class TestEmbedding:
    def test_lookup_goes_through_both_maps(self):
        emb = Embedding(rng_for(20), 5, 4)
        row = emb([2]).data
        manual = emb.table.data[2] @ emb.l1.W.data + emb.l1.b.data
        manual = manual @ emb.l2.W.data + emb.l2.b.data
        assert np.allclose(row[0], manual, atol=1e-12)

    def test_out_of_range_index(self):
        emb = Embedding(rng_for(21), 5, 4)
        with pytest.raises(IndexError):
            emb([5])

    def test_gradient_reaches_table(self):
        emb = Embedding(rng_for(22), 5, 4)
        emb(np.array([1, 1, 3])).sum().backward()
        assert emb.table.grad is not None
        assert np.all(emb.table.grad[0] == 0)
        assert np.any(emb.table.grad[1] != 0)


class TestVisualAttention:
    def test_single_region(self):
        att = VisualAttention(rng_for(30), 4, 5, 3)
        V = Tensor(rng_for(31).normal((1, 1, 5)))
        ctx, w = att(Tensor(rng_for(32).normal((1, 1, 4))), V, att.keys(V))
        assert np.allclose(w.data, [[[1.0]]])
        assert np.allclose(ctx.data, V.data, atol=1e-12)

    def test_identical_regions_ignore_query(self):
        att = VisualAttention(rng_for(33), 4, 5, 3)
        row = rng_for(34).normal((5,))
        V = Tensor(np.tile(row, (1, 4, 1)))
        c1, _ = att(Tensor(rng_for(35).normal((1, 1, 4))), V, att.keys(V))
        c2, _ = att(Tensor(rng_for(36).normal((1, 1, 4))), V, att.keys(V))
        assert np.allclose(c1.data[0, 0], row, atol=1e-12)
        assert np.allclose(c2.data[0, 0], row, atol=1e-12)

    def test_matches_direct_formula(self):
        att = VisualAttention(rng_for(37), 4, 5, 3)
        h = rng_for(38).normal((4,))
        V = rng_for(39).normal((3, 5))
        ctx, w = att(Tensor(h[None, None]), Tensor(V[None]), att.keys(Tensor(V[None])))
        scores = np.array([att.v.data[:, 0] @ np.tanh(h @ att.Wh.data + V[r] @ att.Wv.data)
                           for r in range(3)])
        e = np.exp(scores - scores.max())
        w_direct = e / e.sum()
        assert np.allclose(w.data[0, 0], w_direct, atol=1e-12)
        assert np.allclose(ctx.data[0, 0], w_direct @ V, atol=1e-12)

    def test_weights_are_simplex_batched(self):
        att = VisualAttention(rng_for(40), 4, 5, 3)
        h = Tensor(rng_for(41).normal((2, 6, 4)))
        V = Tensor(rng_for(42).normal((2, 3, 5)))
        _, w = att(h, V, att.keys(V))
        assert np.all(w.data >= 0)
        assert np.allclose(w.data.sum(-1), 1.0)

    def test_region_mask_zeroes_weights(self):
        att = VisualAttention(rng_for(43), 4, 5, 3)
        h = Tensor(rng_for(44).normal((1, 2, 4)))
        V = Tensor(rng_for(45).normal((1, 3, 5)))
        _, w = att(h, V, att.keys(V), region_mask=np.array([[1.0, 1.0, 0.0]]))
        assert np.all(w.data[..., 2] < 1e-12)

    def test_gradcheck(self):
        # T > 1 and R > 1 with both inputs taped: the fused score node reduces its
        # gradient over regions onto the query and over steps onto the regions,
        # which reach V through both the keys and the context
        att = VisualAttention(rng_for(46), 3, 4, 3)
        h = Tensor(rng_for(48).normal((2, 3, 3)), requires_grad=True)
        V = Tensor(rng_for(47).normal((2, 4, 4)), requires_grad=True)
        assert grad_check(lambda t: sum_sq(att(t, V, att.keys(V))[0]), h) < 1e-4
        assert grad_check(lambda t: sum_sq(att(h, t, att.keys(t))[0]), V) < 1e-4

    def test_fused_score_equals_sum_then_tanh_bitwise(self):
        B, T, R, A = 2, 3, 4, 5
        rng = rng_for(49)
        hw_data, vw_data = rng.normal((B, T, 1, A)), rng.normal((B, 1, R, A))
        G = rng.normal((B, T, R, A))

        def run(score):
            hw = Tensor(hw_data, requires_grad=True)
            vw = Tensor(vw_data, requires_grad=True)
            out = score(hw, vw)
            (out * Tensor(G)).sum().backward()
            return out.data, hw.grad, vw.grad

        fused = run(tanh_of_sum)
        taped = run(lambda hw, vw: (hw + vw).tanh())
        for a, b in zip(fused, taped):
            assert np.array_equal(a, b)


class TestMultiHeadSelfAttention:
    def test_single_position(self):
        mha = MultiHeadSelfAttention(rng_for(50), 6, 2)
        x = rng_for(51).normal((1, 1, 6))
        out = mha(Tensor(x)).data
        manual = x @ mha.wv.W.data + mha.wv.b.data
        manual = manual @ mha.wo.W.data + mha.wo.b.data
        assert np.allclose(out, manual, atol=1e-12)
        assert np.allclose(mha.attention_weights(Tensor(x)).data, 1.0)

    def test_rows_sum_to_one(self):
        mha = MultiHeadSelfAttention(rng_for(52), 8, 4)
        w = mha.attention_weights(Tensor(rng_for(53).normal((1, 5, 8)))).data
        assert w.shape == (1, 4, 5, 5)
        assert np.allclose(w.sum(-1), 1.0)

    def test_output_shape_matches_input(self):
        mha = MultiHeadSelfAttention(rng_for(54), 8, 2)
        x = Tensor(rng_for(55).normal((3, 5, 8)))
        assert mha(x).shape == (3, 5, 8)

    def test_single_head_matches_direct_formula(self):
        mha = MultiHeadSelfAttention(rng_for(56), 2, 1)
        x = rng_for(57).normal((3, 2))
        q = x @ mha.wq.W.data + mha.wq.b.data
        k = x @ mha.wk.W.data  # key projection carries no bias
        v = x @ mha.wv.W.data + mha.wv.b.data
        scores = q @ k.T / np.sqrt(2)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        direct = (attn @ v) @ mha.wo.W.data + mha.wo.b.data
        assert np.allclose(mha(Tensor(x[None])).data[0], direct, atol=1e-12)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ShapeError):
            MultiHeadSelfAttention(rng_for(58), 6, 4)

    def test_gradcheck(self):
        mha = MultiHeadSelfAttention(rng_for(59), 4, 2)
        x = Tensor(rng_for(60).normal((1, 3, 4)), requires_grad=True)
        assert grad_check(lambda t: (mha(t) * mha(t)).sum(), x) < 1e-4


def gru_step_oracle(gru, k, xt, h):
    """One GRU step of direction ``k`` (0 forward, 1 backward) in plain numpy."""
    z = 1 / (1 + np.exp(-(xt @ gru.Wz.data[k] + h @ gru.Uz.data[k] + gru.bz.data[k])))
    r = 1 / (1 + np.exp(-(xt @ gru.Wr.data[k] + h @ gru.Ur.data[k] + gru.br.data[k])))
    cand = np.tanh(xt @ gru.Wh.data[k] + (r * h) @ gru.Uh.data[k] + gru.bh.data[k])
    return (1 - z) * h + z * cand


def gru_run_oracle(gru, k, frames):
    """Direction ``k``'s state after reading ``frames`` [T, d_in] in order, in plain numpy."""
    h = np.zeros(gru.Uz.shape[-1])
    for xt in frames:
        h = gru_step_oracle(gru, k, xt, h)
    return h


class TestBiGruCell:
    def test_zero_input_zero_bias_stays_zero(self):
        gru = BiGruCell(rng_for(70), 3, 2)
        for name, p in gru.named_parameters().items():
            if name.endswith(("bz", "br", "bh")):
                p.data[:] = 0.0
        x = Tensor(np.zeros((1, 4, 3)))
        assert all(np.all(gru(x[:, :t]).data == 0) for t in range(1, 5))

    def test_single_step_directions(self):
        gru = BiGruCell(rng_for(71), 3, 2)
        x = rng_for(72).normal((1, 1, 3))
        final = gru(Tensor(x))
        # T=1: each direction sees the same single frame
        f = gru_step_oracle(gru, 0, x[0, 0], np.zeros(2))
        b = gru_step_oracle(gru, 1, x[0, 0], np.zeros(2))
        assert np.allclose(final.data[0], np.concatenate([f, b]), atol=1e-12)

    def test_two_step_recurrence_oracle(self):
        # fwd's half is its state after frame t of a prefix, bwd's half its
        # state after reading a suffix from the last frame back
        gru = BiGruCell(rng_for(73), 2, 1)
        x = rng_for(74).normal((2, 2))
        for t in range(1, 3):
            prefix = gru(Tensor(x[None, :t])).data[0]
            assert np.allclose(prefix[:1], gru_run_oracle(gru, 0, x[:t]), atol=1e-12)
            suffix = gru(Tensor(x[None, 2 - t:])).data[0]
            assert np.allclose(suffix[1:], gru_run_oracle(gru, 1, x[2 - t:][::-1]), atol=1e-12)
        final = gru(Tensor(x[None])).data[0]
        assert np.allclose(final, np.concatenate([gru_run_oracle(gru, 0, x),
                                                  gru_run_oracle(gru, 1, x[::-1])]), atol=1e-12)

    def test_reversal_identity(self):
        # forward pass over reversed input == backward pass over original,
        # once the directions are swapped by flipping every stacked weight
        gru = BiGruCell(rng_for(75), 3, 2)
        swapped = BiGruCell(rng_for(76), 3, 2)
        for name, p in swapped.named_parameters().items():
            p.data = gru.named_parameters()[name].data[::-1].copy()
        x = rng_for(77).normal((5, 3))
        rev = Tensor(x[None, ::-1].copy())
        for t in range(1, 6):
            # bwd over the last t frames reads them as fwd reads rev's first t
            a, b = gru(Tensor(x[None, 5 - t:])), swapped(rev[:, :t])
            assert np.allclose(a.data[0, 2:], b.data[0, :2], atol=1e-12)
        final, final_sw = gru(Tensor(x[None])), swapped(rev)
        assert np.allclose(final.data[0, 2:], final_sw.data[0, :2], atol=1e-12)
        assert np.allclose(final.data[0, :2], final_sw.data[0, 2:], atol=1e-12)

    def test_gradcheck(self):
        gru = BiGruCell(rng_for(78), 3, 2)
        x = Tensor(rng_for(79).normal((1, 4, 3)), requires_grad=True)
        assert grad_check(lambda t: sum_sq(gru(t)), x) < 1e-4


def taped_gru_run(gru, k, seq):
    """GRU direction ``k`` composed of per-step tape ops: the oracle of the fused node."""
    B, T, _ = seq.shape
    Uz, Ur, Uh = gru.Uz[k], gru.Ur[k], gru.Uh[k]
    xz = seq @ gru.Wz[k] + gru.bz[k]
    xr = seq @ gru.Wr[k] + gru.br[k]
    xh = seq @ gru.Wh[k] + gru.bh[k]
    h = Tensor(np.zeros((B, Uz.shape[-1])))
    for t in range(T):
        z = taped_sigmoid(xz[:, t, :] + h @ Uz)
        r = taped_sigmoid(xr[:, t, :] + h @ Ur)
        cand = (xh[:, t, :] + (r * h) @ Uh).tanh()
        h = (-z + Tensor(1.0)) * h + z * cand
    return h


def taped_bigru(gru, seq):
    """``BiGruCell.__call__`` as two taped directions, the backward one over reversed frames."""
    return concat([taped_gru_run(gru, 0, seq), taped_gru_run(gru, 1, seq[:, ::-1, :])], axis=-1)


def within_largest(a, b, rel):
    """``a`` differs from ``b`` by at most ``rel`` of b's largest magnitude."""
    return np.abs(a - b).max() <= rel * np.abs(b).max()


class TestFusedBiGru:
    """``BiGruCell.__call__`` runs both directions as one tape node with a hand-written backward."""

    @pytest.mark.parametrize("fake_needs_grad", [False, True])
    def test_critic_gradients_equal_taped_oracle(self, monkeypatch, fake_needs_grad):
        # the fused critic loss scores fake and real frames in one pass; the
        # oracle scores them apart through per-step taped directions. The fake
        # frames are detached in a critic step and carry the generator's
        # gradient in its adversarial term. The stacked pass changes GEMM row
        # counts and summation order, so equality is to rounding: 1e-12 of
        # each gradient's largest element
        critic = Critic(rng_for(80), 5, 4)
        fake_data = rng_for(81).normal((3, 6, 5))
        real = Tensor(rng_for(82).normal((3, 6, 5)))

        def gradients(loss_of):
            for p in critic.named_parameters().values():
                p.zero_grad()
            fake = Tensor(fake_data, requires_grad=fake_needs_grad)
            loss = loss_of(fake)
            loss.backward()
            grads = {n: p.grad for n, p in critic.named_parameters().items()}
            return loss.data, grads, fake.grad

        fused = gradients(lambda fake: critic_loss(critic, fake, real))
        monkeypatch.setattr(BiGruCell, "__call__", taped_bigru)
        taped = gradients(lambda fake: critic.score(fake).mean() - critic.score(real).mean())
        assert abs(fused[0] - taped[0]) <= 1e-12 * abs(taped[0])
        assert fused[1].keys() == taped[1].keys()
        assert len(taped[1]) == 10
        for name in taped[1]:
            assert within_largest(fused[1][name], taped[1][name], 1e-12), name
        if fake_needs_grad:
            assert within_largest(fused[2], taped[2], 1e-12)
        else:
            assert fused[2] is None and taped[2] is None

    def test_gradcheck_input_and_every_weight(self):
        gru = BiGruCell(rng_for(83), 3, 2)
        x = Tensor(rng_for(84).normal((3, 5, 3)), requires_grad=True)
        assert grad_check(lambda t: sum_sq(gru(t)), x) < 1e-4
        fixed = Tensor(x.data.copy())
        weights = gru.named_parameters()
        assert len(weights) == 9
        for name, p in weights.items():
            assert grad_check(lambda _: sum_sq(gru(fixed)), p) < 1e-4, name


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(0, 7))
def test_conv_causality_property(seed, length, pos):
    rng = RngState(seed)
    conv = CausalConvBlock(rng.child(1), 2, 3)
    t = pos % length
    x = rng.child(2).normal((1, length, 2))
    bumped = x.copy()
    bumped[0, t] += rng.child(3).normal((2,))
    a = conv(Tensor(x)).data
    b = conv(Tensor(bumped)).data
    assert np.array_equal(a[0, :t], b[0, :t])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_layer_gradchecks_random_property(seed):
    rng = RngState(seed)
    lin = Linear(rng.child(1), 3, 2)
    x = Tensor(rng.child(2).normal((4, 3)) * 0.5, requires_grad=True)
    assert grad_check(lambda t: lin(t).tanh().sum(), x) < 1e-4
