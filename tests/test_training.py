import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from paracnn import training as training_mod
from paracnn.checkpoint import trainer_arrays
from paracnn.corpus import (SPECIALS, ParagraphBatch, Vocab, make_batches, pad_feature_batch,
                            shuffle_order)
from paracnn.layers import BiGruCell
from paracnn.tensor import RngState, ShapeError, Tensor, grad_check
from paracnn.training import (WEIGHT_CLIP, Critic, EpochStats, RmspropOptimizer,
                              TrainingDiverged, TwinConfig, TwinTrainer,
                              adversarial_generator_loss, batch_ce, critic_step, reverse_targets,
                              train_epoch, twin_l2_loss, validation_ce, _mirror_frames)


def make_batch(rng: RngState, B=2, M=2, N=4, vocab=11, d_feat=6, ragged=True):
    tokens = rng.integers(4, vocab, (B, M, N)).astype(np.int64)
    mask = np.ones((B, M, N), dtype=bool)
    if ragged:
        mask[0, 1, 2:] = False
        mask[1, 1, :] = False
    tokens[~mask] = 0
    counts = mask.any(axis=2).sum(axis=1)
    feats = [rng.normal((int(rng.integers(1, 4)), d_feat)) for _ in range(B)]
    return ParagraphBatch(tokens, mask, counts, feats)


class TestReverseTargets:
    def test_simple_reversal(self):
        tokens = np.zeros((1, 1, 5), dtype=np.int64)
        tokens[0, 0, :3] = [4, 5, 6]
        mask = np.zeros((1, 1, 5), dtype=bool)
        mask[0, 0, :3] = True
        b = ParagraphBatch(tokens, mask, np.array([1]), [None])
        r = reverse_targets(b)
        assert list(r.tokens[0, 0, :3]) == [6, 5, 4]
        assert np.array_equal(r.mask, b.mask)

    def test_involution(self):
        rng = RngState(21)
        b = make_batch(rng)
        assert np.array_equal(reverse_targets(reverse_targets(b)).tokens, b.tokens)

    def test_mixed_padding_against_permutation_oracle(self):
        rng = RngState(22)
        b = make_batch(rng)
        r = reverse_targets(b)
        for i in range(b.size):
            flat_t = b.tokens[i].reshape(-1)
            flat_m = b.mask[i].reshape(-1)
            idx = np.flatnonzero(flat_m)
            expect = flat_t.copy()
            expect[idx] = flat_t[idx[::-1]]
            assert np.array_equal(r.tokens[i].reshape(-1), expect)
            assert (r.tokens[i][~b.mask[i]] == 0).all()

    def test_preserves_token_multiset(self):
        rng = RngState(23)
        b = make_batch(rng)
        r = reverse_targets(b)
        assert sorted(b.tokens[b.mask]) == sorted(r.tokens[r.mask])


class TestRmsprop:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = RmspropOptimizer({"p": p}, lr=0.1)
        opt.state["p"][:] = 0.04
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])
        assert np.allclose(opt.state["p"], 0.036)  # decayed

    def test_hand_evaluated_update(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = RmspropOptimizer({"p": p}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert np.allclose(opt.state["p"], [0.1])
        expected_delta = -0.1 * 1.0 / (np.sqrt(0.1) + 1e-8)
        assert abs(float(p.data[0]) - expected_delta) < 1e-12
        assert abs(expected_delta + 0.31623) < 1e-5

    def test_nonfinite_gradient_rejected(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = RmspropOptimizer({"p": p}, lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(TrainingDiverged):
            opt.step()

    def test_two_runs_bit_identical(self):
        def run():
            rng = RngState(3).child(1)
            p = Tensor(rng.normal((4,)), requires_grad=True)
            opt = RmspropOptimizer({"p": p}, lr=0.01)
            for _ in range(5):
                p.grad = p.data * 0.5
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_nan_in_a_later_parameter_changes_nothing(self):
        rng = RngState(5)
        params = {name: Tensor(rng.normal((3, 2)), requires_grad=True) for name in "ab"}
        opt = RmspropOptimizer(params, lr=0.1)
        for name, p in params.items():
            opt.state[name][:] = 0.25
            p.grad = np.ones((3, 2))
        params["b"].grad[2, 1] = np.nan
        before = {name: (p.data.copy(), opt.state[name].copy()) for name, p in params.items()}
        with pytest.raises(TrainingDiverged, match="parameter 'b'"):
            opt.step()
        for name, p in params.items():
            assert np.array_equal(p.data, before[name][0])
            assert np.array_equal(opt.state[name], before[name][1])

    def test_non_contiguous_parameter_refused(self):
        p = Tensor(np.zeros((4, 3)), requires_grad=True)
        opt = RmspropOptimizer({"w": p}, lr=0.1)
        p.data = np.zeros((3, 4)).T  # a flat view of it would be a copy
        p.grad = np.ones((4, 3))
        with pytest.raises(ValueError, match="'w'"):
            opt.step()

    def test_matches_textbook_expression_bitwise(self):
        # parameters of several sizes share the scratch rows, two of them over
        # several blocks (one ending in a partial block); gradients span ten
        # orders of magnitude
        rng = RngState(4)
        block = RmspropOptimizer.BLOCK
        shapes = [(3, 4), (7,), (50, 13), (1,), (2 * block + 5,), (130, 300)]
        params = {f"p{i}": Tensor(rng.child(i).normal(shape), requires_grad=True)
                  for i, shape in enumerate(shapes)}
        ref = {name: p.data.copy() for name, p in params.items()}
        ref_v = {name: np.zeros_like(p) for name, p in ref.items()}
        opt = RmspropOptimizer(params, lr=4e-4)
        for it in range(6):
            for name, p in params.items():
                g = rng.child(100 + it).normal(p.shape) * 10.0 ** (it * 2 - 8)
                p.grad = g.copy()
                ref_v[name] = 0.9 * ref_v[name] + (1.0 - 0.9) * g * g
                ref[name] -= 4e-4 * g / (np.sqrt(ref_v[name]) + 1e-8)
            opt.step()
        for name, p in params.items():
            assert np.array_equal(p.data, ref[name])
            assert np.array_equal(opt.state[name], ref_v[name])


class TestTwinL2:
    def test_identical_hiddens_zero(self):
        rng = RngState(31)
        mask = np.ones((1, 1, 4), dtype=bool)
        h = Tensor(rng.normal((1, 1, 4, 3)))
        # backward frames that re-reverse onto h exactly
        hb = h.data.reshape(4, 3)[::-1].reshape(1, 1, 4, 3)
        assert float(twin_l2_loss(h, _mirror_frames(hb, mask), mask).data) == 0.0

    def test_constant_offset_gives_delta_squared(self):
        rng = RngState(32)
        mask = np.ones((1, 1, 4), dtype=bool)
        h = rng.normal((1, 1, 4, 3))
        delta = 0.37
        hb = h.reshape(4, 3)[::-1].reshape(1, 1, 4, 3) + delta
        loss = twin_l2_loss(Tensor(h), _mirror_frames(hb, mask), mask)
        assert abs(float(loss.data) - delta * delta) < 1e-12

    def test_direct_summation_oracle(self):
        rng = RngState(33)
        mask = np.zeros((1, 2, 3), dtype=bool)
        mask[0, 0, :] = True
        mask[0, 1, :2] = True
        hf = rng.normal((1, 2, 3, 4))
        hb = rng.normal((1, 2, 3, 4))
        loss = float(twin_l2_loss(Tensor(hf), _mirror_frames(hb, mask), mask).data)
        idx = np.flatnonzero(mask.reshape(-1))
        f = hf.reshape(-1, 4)
        b = hb.reshape(-1, 4)
        acc = [(f[idx[t]] - b[idx[len(idx) - 1 - t]]) ** 2 for t in range(len(idx))]
        assert abs(loss - np.mean(acc)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            twin_l2_loss(Tensor(np.zeros((1, 1, 2, 3))), np.zeros((1, 2, 4)),
                         np.ones((1, 1, 2), dtype=bool))
        with pytest.raises(ValueError):  # mask of another layout
            twin_l2_loss(Tensor(np.zeros((1, 1, 2, 3))), np.zeros((1, 2, 3)),
                         np.ones((1, 2), dtype=bool))
        with pytest.raises(ValueError):  # an unbatched [T, C] sequence
            twin_l2_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 3)),
                         np.ones(2, dtype=bool))
        with pytest.raises(ValueError):  # frames still in the [B, M, N, C] grid
            twin_l2_loss(Tensor(np.zeros((1, 1, 2, 3))), np.zeros((1, 1, 2, 3)),
                         np.ones((1, 1, 2), dtype=bool))

    def test_gradient_flows_to_forward_only(self):
        rng = RngState(34)
        mask = np.ones((1, 1, 3), dtype=bool)
        hf = Tensor(rng.normal((1, 1, 3, 2)), requires_grad=True)
        hb = Tensor(rng.normal((1, 1, 3, 2)), requires_grad=True)
        twin_l2_loss(hf, _mirror_frames(hb.data, mask), mask).backward()
        assert hf.grad is not None
        assert hb.grad is None

    def test_finite_difference(self):
        rng = RngState(35)
        mask = np.ones((1, 1, 3), dtype=bool)
        hb = rng.normal((1, 1, 3, 2))
        x = Tensor(rng.normal((1, 1, 3, 2)), requires_grad=True)
        assert grad_check(lambda t: twin_l2_loss(t, _mirror_frames(hb, mask), mask), x) < 1e-6


class TestCritic:
    def make(self, hidden=3):
        critic = Critic(RngState(41).child(1), in_dim=4, hidden=hidden)
        opt = RmspropOptimizer(critic.named_parameters(), lr=1e-3)
        return critic, opt

    def test_constant_critic_zero_loss(self):
        critic, opt = self.make()
        for p in critic.named_parameters().values():
            p.data[:] = 0.0
        rng = RngState(42)
        hf = Tensor(rng.normal((2, 5, 4)))
        hb = Tensor(rng.normal((2, 5, 4)))
        loss = critic_step(critic, hf, hb, opt, weight_clip=0.01)
        assert loss == 0.0

    def test_clip_bound_holds_exactly(self):
        critic, opt = self.make()
        rng = RngState(43)
        for _ in range(3):
            critic_step(critic, Tensor(rng.normal((2, 5, 4))),
                        Tensor(rng.normal((2, 5, 4))), opt, weight_clip=0.01)
            for p in critic.named_parameters().values():
                assert np.abs(p.data).max() <= 0.01

    def test_loss_matches_mean_difference_oracle(self):
        critic, opt = self.make()
        rng = RngState(44)
        hf = Tensor(rng.normal((3, 5, 4)))
        hb = Tensor(rng.normal((3, 5, 4)))
        sf = critic.score(hf).data.mean()
        sb = critic.score(hb).data.mean()
        loss = critic_step(critic, hf, hb, opt, weight_clip=1.0)
        assert abs(loss - (sf - sb)) < 1e-12

    def test_one_score_and_one_gru_pass_per_step(self, monkeypatch):
        critic, opt = self.make()
        calls = []
        for owner, name in ((Critic, "score"), (BiGruCell, "__call__")):
            def spy(self, seqs, real=owner.__dict__[name], name=name):
                calls.append((name, seqs.shape))
                return real(self, seqs)
            monkeypatch.setattr(owner, name, spy)
        rng = RngState(48)
        critic_step(critic, Tensor(rng.normal((3, 5, 4))), Tensor(rng.normal((3, 5, 4))),
                    opt, weight_clip=0.01)
        # fake and real frames stacked [2B, T, C] in one pass
        assert calls == [("score", (6, 5, 4)), ("__call__", (6, 5, 4))]

    def test_mismatched_frames_refused_before_any_update(self):
        critic, opt = self.make()
        before = {n: p.data.copy() for n, p in critic.named_parameters().items()}
        rng = RngState(49)
        with pytest.raises(ShapeError, match=r"fake frames \(2, 5, 4\) and real frames \(2, 6, 4\)"):
            critic_step(critic, Tensor(rng.normal((2, 5, 4))), Tensor(rng.normal((2, 6, 4))),
                        opt, weight_clip=0.01)
        for n, p in critic.named_parameters().items():
            assert np.array_equal(p.data, before[n]), n
            assert not opt.state[n].any(), n

    def test_generator_loss_sign_and_gradient(self):
        critic, _ = self.make()
        rng = RngState(45)
        h = Tensor(rng.normal((2, 4, 4)), requires_grad=True)
        loss = adversarial_generator_loss(critic, h)
        assert loss.data.size == 1
        loss.backward()
        g = h.grad.copy()
        # moving along -gradient raises the score (lowers the loss)
        h2 = Tensor(h.data - 1e-4 * g)
        loss2 = adversarial_generator_loss(critic, h2)
        assert float(loss2.data) < float(loss.data)

    def test_zero_critic_gives_zero_generator_gradient(self):
        critic, _ = self.make()
        for p in critic.named_parameters().values():
            p.data[:] = 0.0
        h = Tensor(RngState(46).normal((1, 3, 4)), requires_grad=True)
        loss = adversarial_generator_loss(critic, h)
        assert float(loss.data) == 0.0
        loss.backward()
        assert np.all(h.grad == 0)

    def test_generator_gradient_matches_finite_differences(self):
        critic, _ = self.make()
        x = Tensor(RngState(47).normal((1, 3, 4)), requires_grad=True)
        assert grad_check(lambda t: adversarial_generator_loss(critic, t), x) < 1e-4


def small_trainer(mode, seed=9, **twin_kw):
    cfg = tiny_config()
    twin = TwinConfig(mode=mode, critic_hidden=4, **twin_kw)
    return TwinTrainer(cfg, twin, seed=seed, lr=1e-3)


TINY_VOCAB = Vocab(list(SPECIALS) + [f"w{i}" for i in range(7)])  # tiny_config's 11 tokens


def make_entries(rng: RngState, n):
    """Manifest-style entries in ``TINY_VOCAB`` whose feature_path holds the features."""
    entries = []
    for _ in range(n):
        sentences = [" ".join(f"w{int(w)}" for w in rng.integers(0, 7, int(rng.integers(1, 4))))
                     + "." for _ in range(int(rng.integers(1, 3)))]
        entries.append({"paragraph": " ".join(sentences),
                        "feature_path": rng.normal((int(rng.integers(1, 4)), 6))})
    return entries


def same_batches(got, want):
    return len(got) == len(want) and all(
        np.array_equal(g.tokens, w.tokens) and np.array_equal(g.mask, w.mask)
        and np.array_equal(g.sentence_counts, w.sentence_counts)
        and all(a is b for a, b in zip(g.feature_refs, w.feature_refs))
        for g, w in zip(got, want))


class TestEpoch:
    @pytest.mark.parametrize("mode", ["none", "l2", "l2_plus_adversarial"])
    def test_train_epoch_trains_the_shuffled_batches(self, monkeypatch, mode):
        entries = make_entries(RngState(60), 5)
        tr = small_trainer(mode, seed=12)
        seen, per_batch = [], []
        real_step = TwinTrainer.train_batch

        def recorded_step(trainer, batch):
            seen.append(batch)
            per_batch.append(real_step(trainer, batch))
            return per_batch[-1]

        monkeypatch.setattr(TwinTrainer, "train_batch", recorded_step)
        stats = train_epoch(tr, entries, TINY_VOCAB, 2, 3)
        order = shuffle_order(12, 5, 3)
        assert list(order) != list(range(5))
        assert same_batches(seen, list(make_batches(entries, TINY_VOCAB, tr.cfg, 2, order, "")))
        assert stats.generator_updates == 3
        for f in dataclasses.fields(EpochStats):  # a count adds up, a loss averages
            vals = [getattr(s, f.name) for s in per_batch]
            if vals[0] is None:  # a loss the mode does not compute
                assert set(vals) == {None} and getattr(stats, f.name) is None, f.name
            elif type(vals[0]) is int:
                assert getattr(stats, f.name) == sum(vals), f.name
            else:
                assert getattr(stats, f.name) == float(np.mean(vals)), f.name

    def test_validation_ce_in_file_order(self, monkeypatch):
        entries = make_entries(RngState(61), 5)
        tr = small_trainer("none")
        seen = []
        real_eval = TwinTrainer.eval_ce
        monkeypatch.setattr(TwinTrainer, "eval_ce",
                            lambda trainer, batch: seen.append(batch) or real_eval(trainer, batch))
        ce = validation_ce(tr, entries, TINY_VOCAB, 2)
        want = list(make_batches(entries, TINY_VOCAB, tr.cfg, 2, np.arange(5), ""))
        assert same_batches(seen, want)
        assert ce == float(np.mean([real_eval(tr, b) for b in want]))

    def test_train_epoch_needs_an_entry(self):
        with pytest.raises(ValueError):
            train_epoch(small_trainer("none"), [], TINY_VOCAB, 2, 1)


class TestTwinTrainer:
    def test_mode_none_matches_mle(self):
        rng = RngState(51)
        batch = make_batch(rng)
        t1 = small_trainer("none")
        t2 = small_trainer("l2", lambda_l2=0.0)
        for _ in range(3):
            s1 = t1.train_batch(batch)
            s2 = t2.train_batch(batch)
            assert s1.ce_fwd == s2.ce_fwd  # bit-identical losses
        p1 = t1.model.named_parameters()
        p2 = t2.model.named_parameters()
        for name in p1:
            assert np.array_equal(p1[name].data, p2[name].data), name

    def test_overfit_single_batch(self):
        rng = RngState(52)
        batch = make_batch(rng, ragged=False)
        tr = small_trainer("none")
        first = tr.train_batch(batch).ce_fwd
        last = first
        for _ in range(49):
            last = tr.train_batch(batch).ce_fwd
        assert last < first

    def test_initial_loss_near_uniform(self):
        rng = RngState(53)
        batch = make_batch(rng)
        tr = small_trainer("none")
        ce = tr.eval_ce(batch)
        assert abs(ce - np.log(11)) / np.log(11) < 0.1

    def test_eval_ce_untaped_equals_taped_loss(self, monkeypatch):
        batch = make_batch(RngState(57))
        tr = small_trainer("l2")
        feats, region_mask = pad_feature_batch(batch.feature_refs)
        taped, _ = batch_ce(tr.model, batch, Tensor(feats), region_mask, tr.start_index)
        losses = []

        def keep(*args, **kwargs):
            out = batch_ce(*args, **kwargs)
            losses.append(out[0])
            return out

        monkeypatch.setattr(training_mod, "batch_ce", keep)
        assert tr.eval_ce(batch) == float(taped.data)
        assert taped._parents and losses[0]._parents == () and not losses[0].requires_grad

    def test_adversarial_schedule_counts(self):
        tr = small_trainer("l2_plus_adversarial")
        stats = train_epoch(tr, make_entries(RngState(54), 4), TINY_VOCAB, 2, 1)
        assert stats.generator_updates == 2
        assert stats.critic_updates == 10

    def test_critic_clip_after_training_epoch(self):
        rng = RngState(55)
        batch = make_batch(rng)
        tr = small_trainer("adversarial")
        tr.train_batch(batch)
        for p in tr.critic.named_parameters().values():
            assert np.abs(p.data).max() <= WEIGHT_CLIP

    def test_twin_l2_logged_in_l2_mode(self):
        rng = RngState(56)
        batch = make_batch(rng)
        stats = small_trainer("l2").train_batch(batch)
        assert np.isfinite(stats.twin_l2)
        assert np.isfinite(stats.ce_bwd)

    def test_nan_features_abort(self):
        rng = RngState(57)
        batch = make_batch(rng)
        batch.feature_refs[0] = np.full_like(batch.feature_refs[0], np.nan)
        tr = small_trainer("none")
        with pytest.raises(TrainingDiverged):
            tr.train_batch(batch)

    def test_same_seed_same_trajectory(self):
        rng = RngState(58)
        batch = make_batch(rng)

        def run():
            tr = small_trainer("l2_plus_adversarial", lambda_l2=0.1)
            return [tr.train_batch(batch).ce_fwd for _ in range(2)]

        assert run() == run()

    def test_blocked_step_matches_one_pass_step_bitwise(self, monkeypatch):
        # 64 channels make each conv weight 320 x 128 = 40,960 elements, three
        # optimizer blocks; every network and optimizer of the trainer is compared
        def one_pass_step(opt):
            size = max((p.data.size for p in opt.params.values()), default=0)
            scratch_b, scratch_c = np.empty(size), np.empty(size)
            for name, p in opt.params.items():
                g = p.grad
                if g is None:
                    g = np.zeros_like(p.data)
                if not np.isfinite(g).all():
                    raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
                v = opt.state[name]
                b = scratch_b[:g.size].reshape(g.shape)
                c = scratch_c[:g.size].reshape(g.shape)
                v *= opt.alpha
                np.multiply(g, 1.0 - opt.alpha, out=b)
                b *= g
                v += b
                np.sqrt(v, out=c)
                c += opt.eps
                np.multiply(g, opt.lr, out=b)
                b /= c
                p.data -= b

        cfg = tiny_config(channels=64, topic_dim=64, topic_kernel=5, word_kernel=5)
        batch = make_batch(RngState(62))

        def run():
            tr = TwinTrainer(cfg, TwinConfig(mode="l2_plus_adversarial", critic_hidden=8),
                             seed=9, lr=1e-3)
            for _ in range(3):
                tr.train_batch(batch)
            return trainer_arrays(tr)

        blocked = run()
        assert any(v.size > 2 * RmspropOptimizer.BLOCK for v in blocked.values())
        monkeypatch.setattr(RmspropOptimizer, "step", one_pass_step)
        one_pass = run()
        assert blocked.keys() == one_pass.keys()
        for key in blocked:
            assert np.array_equal(blocked[key], one_pass[key]), key

    def test_backward_frames_alignment_helper(self):
        rng = RngState(59)
        mask = np.zeros((1, 2, 2), dtype=bool)
        mask[0, 0, :] = True
        mask[0, 1, 0] = True
        h = rng.normal((1, 2, 2, 3))
        out = _mirror_frames(h, mask)
        flat = h.reshape(1, 4, 3)
        # valid slots 0,1,2 -> reversed source order 2,1,0
        assert np.array_equal(out[0, 0], flat[0, 2])
        assert np.array_equal(out[0, 1], flat[0, 1])
        assert np.array_equal(out[0, 2], flat[0, 0])
        assert np.all(out[0, 3] == 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_reverse_targets_involution_property(seed):
    b = make_batch(RngState(seed))
    r2 = reverse_targets(reverse_targets(b))
    assert np.array_equal(r2.tokens, b.tokens)
    assert np.array_equal(r2.mask, b.mask)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5))
def test_mirror_frames_undoes_reverse_targets_property(seed, B, M, N):
    # the backward network's frames are mirrored with the permutation that
    # reversed its targets, so each frame meets the forward frame of its token
    rng = RngState(seed)
    lengths = rng.integers(0, N + 1, (B, M))
    lengths[:, 0] = np.maximum(lengths[:, 0], 1)  # each item holds a sentence
    mask = np.arange(N)[None, None, :] < lengths[:, :, None]
    tokens = np.where(mask, rng.integers(4, 11, (B, M, N)), 0)
    b = ParagraphBatch(tokens, mask, mask.any(axis=2).sum(axis=1), [None] * B)
    r = reverse_targets(b)
    assert np.array_equal(r.mask, b.mask)
    assert np.array_equal(_mirror_frames(r.tokens, b.mask).reshape(b.tokens.shape), b.tokens)
