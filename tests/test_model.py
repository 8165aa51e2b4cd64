import numpy as np
import pytest

from conftest import random_grid, sum_sq, tiny_config
from paracnn.corpus import SPECIALS, Vocab
from paracnn.decode import DecodeConfig, greedy_decode
from paracnn.layers import Embedding
from paracnn.model import POOL_MODES, ModelConfig, ParagraphModel, TopicState, WordCache
from paracnn.tensor import (RngState, ShapeError, Tensor, concat, cross_entropy, grad_check,
                            no_grad)


@pytest.fixture
def model():
    return ParagraphModel(tiny_config(), RngState(7).child(1))


def data_rng():
    return RngState(7).child(99)


class TestProjectFeatures:
    def test_single_region_equals_projection(self, model):
        raw = data_rng().normal((1, 1, 6))
        pooled, regions = model.project_features(Tensor(raw))
        assert pooled.shape == (1, 8) and regions.shape == (1, 1, 8)
        assert np.allclose(pooled.data, regions.data[:, 0], atol=1e-14)

    def test_duplicate_region_does_not_change_max(self, model):
        raw = data_rng().normal((1, 2, 6))
        dup = np.concatenate([raw, raw[:, 1:]], axis=1)
        p1, _ = model.project_features(Tensor(raw))
        p2, _ = model.project_features(Tensor(dup))
        assert np.allclose(p1.data, p2.data, atol=1e-14)

    def test_matches_per_coordinate_max_oracle(self, model):
        raw = data_rng().normal((2, 3, 6))
        pooled, regions = model.project_features(Tensor(raw))
        assert np.allclose(pooled.data, regions.data.max(axis=1), atol=1e-14)

    def test_zero_regions_rejected(self, model):
        with pytest.raises(ShapeError):
            model.project_features(Tensor(np.zeros((1, 0, 6))))

    def test_masked_regions_excluded(self, model):
        raw = data_rng().normal((1, 3, 6))
        pooled_all, regions = model.project_features(Tensor(raw))
        pooled_two, _ = model.project_features(Tensor(raw), region_mask=np.array([[1.0, 1.0, 0.0]]))
        assert np.allclose(pooled_two.data[0], regions.data[0, :2].max(axis=0), atol=1e-12)


class TestPoolContext:
    # the fixture model pools by mean (tiny_config's default)

    def test_equal_embeddings_mean_is_identity(self, model):
        row = data_rng().normal((8,))
        embeds = Tensor(np.tile(row, (1, 4, 1)))
        out = model.pool_context(embeds, np.ones((1, 4)))
        assert np.allclose(out.data, row[None], atol=1e-14)

    def test_empty_mask_gives_zero_vector(self, model):
        embeds = Tensor(data_rng().normal((1, 4, 8)))
        out = model.pool_context(embeds, np.zeros((1, 4)))
        assert out.shape == (1, 8) and np.all(out.data == 0)

    def test_mean_matches_direct_average(self, model):
        e = data_rng().normal((2, 3, 8))
        out = model.pool_context(Tensor(e), np.ones((2, 3)))
        assert np.allclose(out.data, e.mean(axis=1), atol=1e-14)

    def test_masked_mean(self, model):
        e = data_rng().normal((2, 4, 8))
        mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]])
        out = model.pool_context(Tensor(e), mask)
        assert np.allclose(out.data, [e[0, :2].mean(axis=0), e[1, :3].mean(axis=0)],
                           atol=1e-14)

    def test_self_attention_mode_changes_only_pathway(self, model):
        m = ParagraphModel(tiny_config(pooling="self_attention"), RngState(7).child(1))
        e = Tensor(data_rng().normal((1, 3, 8)))
        attended = m.ctx_attn(e, key_mask=np.ones((1, 3)))
        out = m.pool_context(e, np.ones((1, 3)))
        assert np.allclose(out.data, attended.data.mean(axis=1), atol=1e-12)
        # the config's pooling mode alone selects the pathway: a mean-pooling
        # model averages the raw embeddings
        out_mean = model.pool_context(e, np.ones((1, 3)))
        assert np.allclose(out_mean.data, e.data.mean(axis=1), atol=1e-14)


class TestTopicForward:
    def test_unbatched_inputs_rejected(self, model):
        with pytest.raises(ShapeError):
            model.topic_forward(TopicState(), Tensor(np.zeros(8)))

    def test_incremental_equals_batch(self, model):
        # a batch of three images gives each row the topics it gets alone
        rng = data_rng()
        g = Tensor(rng.normal((3, 8)))
        # slot 1, then two slots after one-word previous sentences
        prevs = [()] + [(Tensor(rng.normal((3, 1, 8))), np.ones((3, 1))) for _ in range(2)]
        state = TopicState()
        batch = [model.topic_forward(state, g, *prev).data for prev in prevs]
        for b in range(3):
            single = TopicState()
            for prev, topic in zip(prevs, batch):
                inc = model.topic_forward(single, g[b:b + 1], *(x[b:b + 1] for x in prev))
                assert np.allclose(inc.data[0], topic[b], atol=1e-10)

    def test_perturbing_later_context_leaves_earlier_topics(self, model):
        rng = data_rng()
        g = Tensor(rng.normal((1, 8)))
        c2 = rng.normal((1, 1, 8))  # a one-word previous sentence
        state1 = TopicState()
        t1a = model.topic_forward(state1, g).data.copy()
        model.topic_forward(state1, g, Tensor(c2), np.ones((1, 1)))
        state2 = TopicState()
        t1b = model.topic_forward(state2, g).data.copy()
        model.topic_forward(state2, g, Tensor(c2 + 1.0), np.ones((1, 1)))
        assert np.array_equal(t1a, t1b)

    def test_previous_sentence_exactly_after_slot_one(self, model):
        g, prev = Tensor(np.zeros((1, 8))), (Tensor(np.zeros((1, 1, 8))), np.ones((1, 1)))
        with pytest.raises(ShapeError, match="and no previous sentence"):
            model.topic_forward(TopicState(), g, *prev)
        state = TopicState()
        model.topic_forward(state, g)
        with pytest.raises(ShapeError, match="topic slot 2 takes .* and the previous sentence"):
            model.topic_forward(state, g)
        assert len(state.topics) == 1 and len(state.histories[0]) == 1


def sentence_logits(model, topic, prefix, regions):
    """Logits [T, V] of one sentence prefix through the word stack."""
    _, logits = model.sentence_forward(topic.reshape(1, -1), model.embed([prefix]),
                                       regions.reshape((1,) + regions.shape))
    return logits.data[0]


class TestSentenceForward:
    def test_word_causality_bit_exact(self, model):
        rng = data_rng()
        topic = Tensor(rng.normal((8,)))
        regions = Tensor(rng.normal((3, 8)))
        prefix = [1, 5, 6, 7]
        base = sentence_logits(model, topic, prefix, regions)
        bumped = list(prefix)
        bumped[2] = 9
        out = sentence_logits(model, topic, bumped, regions)
        assert np.array_equal(out[:2], base[:2])
        assert not np.allclose(out[2:], base[2:])

    def test_topic_conditioning_is_live(self, model):
        rng = data_rng()
        regions = Tensor(rng.normal((3, 8)))
        l1 = sentence_logits(model, Tensor(rng.normal((8,))), [1, 4], regions)
        l2 = sentence_logits(model, Tensor(rng.normal((8,))), [1, 4], regions)
        assert not np.allclose(l1, l2)

    def test_prefix_length_capped(self, model):
        topic = Tensor(np.zeros(8))
        regions = Tensor(np.zeros((2, 8)))
        with pytest.raises(ShapeError):
            sentence_logits(model, topic, [1] * 5, regions)

    def test_sentences_must_split_evenly_over_images(self, model):
        regions = Tensor(np.zeros((2, 3, 8)))
        with pytest.raises(ShapeError, match="3 sentences"):
            model.sentence_forward(Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 1, 8))),
                                   regions)

    def test_cached_step_takes_one_token(self, model):
        # the cache holds one image's keys and steps on one token's row per call
        regions = Tensor(np.zeros((2, 3, 8)))
        cache = WordCache(model.region_keys(regions))
        with pytest.raises(ShapeError, match=r"newest token's row, got \[2, 1\]"):
            model.sentence_forward(Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 1, 8))),
                                   regions, cache=cache)
        assert cache.histories == {}

    def test_token_out_of_range(self, model):
        with pytest.raises(IndexError):
            sentence_logits(model, Tensor(np.zeros(8)), [11], Tensor(np.zeros((2, 8))))

    def test_incremental_equals_batch_logits(self, model):
        rng = data_rng()
        topic = Tensor(rng.normal((8,)))
        regions = Tensor(rng.normal((3, 8)))
        prefix = [1, 5, 6, 7]
        full = sentence_logits(model, topic, prefix, regions)
        for t in range(1, 5):
            part = sentence_logits(model, topic, prefix[:t], regions)
            assert np.allclose(part, full[:t], atol=1e-10)


class TestParagraphForward:
    def test_single_sentence_reduces_to_sentence_forward(self):
        cfg = tiny_config(max_sentences=1)
        m = ParagraphModel(cfg, RngState(7).child(1))
        rng = data_rng()
        tokens = np.array([[[5, 6, 7, 2]]])
        mask = np.ones((1, 1, 4), dtype=bool)
        feats = rng.normal((1, 3, 6))
        logits, hidden = m.paragraph_forward(tokens, mask, Tensor(feats))
        g, regions = m.project_features(Tensor(feats))
        state = TopicState()
        topic = m.topic_forward(state, g)
        direct_hidden, direct = m.sentence_forward(topic, m.embed([[1, 5, 6, 7]]), regions)
        assert np.allclose(logits.data[0, 0], direct.data[0], atol=1e-10)
        assert np.allclose(hidden.data[0, 0], direct_hidden.data[0], atol=1e-10)

    def test_compositional_oracle(self, model):
        rng = data_rng()
        tokens, mask, feats = random_grid(rng, model.cfg)
        logits, _ = model.paragraph_forward(tokens, mask, Tensor(feats))
        g, regions = model.project_features(Tensor(feats))
        state = TopicState()
        for j in range(2):
            prev = (model.embed(tokens[:, j - 1]), mask[:, j - 1]) if j else ()
            topic = model.topic_forward(state, g, *prev)
            prefix = np.concatenate([[1], tokens[0, j, :-1]])
            _, direct = model.sentence_forward(topic, model.embed([prefix]), regions)
            assert np.allclose(logits.data[0, j], direct.data[0], atol=1e-10)

    def test_images_match_per_sentence_region_copies(self, model):
        # oracle: every sentence gets its own copy of its image's regions and mask
        rng = data_rng()
        tokens, mask, feats = random_grid(rng, model.cfg, batch=2)
        B, M, N = tokens.shape
        region_mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])  # 3 and 2 regions
        feats = Tensor(feats)
        logits, hidden = model.paragraph_forward(tokens, mask, feats, region_mask)

        g, regions = model.project_features(feats, region_mask)
        state = TopicState()
        model.topic_forward(state, g)
        for j in range(1, M):
            model.topic_forward(state, g, model.embed(tokens[:, j - 1]), mask[:, j - 1])
        topics = np.stack([t.data for t in state.topics], axis=1).reshape(B * M, 8)
        inputs = np.concatenate([np.ones((B, M, 1), dtype=np.int64), tokens[:, :, :-1]], axis=2)
        copied = Tensor(np.repeat(regions.data, M, axis=0))
        direct_hidden, direct = model.sentence_forward(
            Tensor(topics), model.embed(inputs.reshape(B * M, N)), copied,
            np.repeat(region_mask, M, axis=0))
        assert np.allclose(logits.data.reshape(direct.shape), direct.data, rtol=0, atol=1e-12)
        assert np.allclose(hidden.data.reshape(direct_hidden.shape), direct_hidden.data,
                           rtol=0, atol=1e-12)
        # the padded region of image 1 is masked out: alone, it has 2 regions
        alone, _ = model.paragraph_forward(tokens[1:], mask[1:], Tensor(feats.data[1:, :2]))
        assert np.allclose(logits.data[1], alone.data[0], rtol=0, atol=1e-12)

    def test_one_embedding_pass_over_start_and_tokens(self, model, monkeypatch):
        # the contexts and the word stack read one [B, M, N+1] grid: <start>, then the tokens
        tokens, mask, feats = random_grid(data_rng(), model.cfg, batch=2)
        grids, embed = [], Embedding.__call__
        monkeypatch.setattr(Embedding, "__call__",
                            lambda self, idx: grids.append(np.asarray(idx)) or embed(self, idx))
        model.paragraph_forward(tokens, mask, Tensor(feats), start_index=3)
        assert len(grids) == 1 and grids[0].shape == (2, 2, 5)
        assert np.all(grids[0][:, :, 0] == 3) and np.array_equal(grids[0][:, :, 1:], tokens)

    def test_masked_positions_contribute_zero_loss(self, model):
        rng = data_rng()
        tokens, mask, feats = random_grid(rng, model.cfg)
        logits, _ = model.paragraph_forward(tokens, mask, Tensor(feats))
        loss = cross_entropy(logits, tokens, mask)
        # recompute with garbage tokens under the mask: loss must be unchanged
        tweaked = tokens.copy()
        tweaked[~mask] = 0
        logits2, _ = model.paragraph_forward(tweaked, mask, Tensor(feats))
        loss2 = cross_entropy(logits2, tweaked, mask)
        assert abs(float(loss.data) - float(loss2.data)) < 1e-12

    def test_gradcheck_paragraph_loss(self, model):
        rng = data_rng()
        tokens, mask, feats = random_grid(rng, model.cfg)
        x = Tensor(feats, requires_grad=True)

        def f(t):
            logits, _ = model.paragraph_forward(tokens, mask, t)
            return cross_entropy(logits, tokens, mask)

        assert grad_check(f, x) < 1e-4

    def test_hierarchical_causality(self, model):
        rng = data_rng()
        M, N = model.cfg.max_sentences, model.cfg.max_words
        tokens = rng.integers(4, 11, (1, M, N)).astype(np.int64)
        mask = np.ones((1, M, N), dtype=bool)
        feats = Tensor(rng.normal((1, 3, 6)))
        logits, _ = model.paragraph_forward(tokens, mask, feats)
        bumped = tokens.copy()
        bumped[0, 1, 0] = (bumped[0, 1, 0] - 4 + 1) % 7 + 4  # perturb sentence 2
        logits2, _ = model.paragraph_forward(bumped, mask, feats)
        assert np.array_equal(logits.data[0, 0], logits2.data[0, 0])
        assert np.array_equal(logits.data[0, 1, :1], logits2.data[0, 1, :1])
        assert not np.allclose(logits.data[0, 1, 1:], logits2.data[0, 1, 1:])


def context_loop_topics(model, global_feat, contexts):
    """The topic stack stepped over [B, ctx] contexts that its caller built."""
    B, histories, topics = global_feat.shape[0], {}, []
    tok = model.topic_start.reshape(1, -1).broadcast_to((B, model.cfg.embed_dim))
    for context in contexts:
        h = model.topic_in(concat([tok, global_feat, context], axis=-1))
        for i, block in enumerate(model.topic_blocks):
            h = block.step(h, histories.setdefault(i, []))
        topics.append(h)
        tok = model.topic_in_embed(h)
    return topics


@pytest.mark.parametrize("pooling", POOL_MODES)
def test_topic_step_matches_the_callers_context_loop(pooling, monkeypatch):
    # oracle: each caller pools the previous sentence (zero at slot 1) itself, and
    # the tokens and the shifted inputs are embedded apart
    model = ParagraphModel(tiny_config(max_sentences=3, pooling=pooling), RngState(7).child(1))
    tokens, mask, feats = random_grid(data_rng(), model.cfg, batch=3)
    assert not mask.any(axis=2).all()  # an empty previous sentence pools to zero
    region_mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    B, M, N = tokens.shape

    def context_loop_forward(model, tokens, mask, features, region_mask):
        g, regions = model.project_features(features, region_mask)
        embeds = model.embed(tokens)
        contexts = [Tensor(np.zeros((B, 8)))] + [
            model.pool_context(embeds[:, j - 1, :, :], mask[:, j - 1, :]) for j in range(1, M)]
        topics = concat(context_loop_topics(model, g, contexts), axis=-1).reshape(B * M, 8)
        inputs = np.concatenate([np.ones((B, M, 1), dtype=np.int64), tokens[:, :, :-1]], axis=2)
        hidden, logits = model.sentence_forward(topics, model.embed(inputs.reshape(B * M, N)),
                                                regions, region_mask)
        return logits.reshape(B, M, N, -1), hidden.reshape(B, M, N, -1)

    params, runs = model.named_parameters(), []
    for forward in (ParagraphModel.paragraph_forward, context_loop_forward):
        for p in params.values():
            p.zero_grad()
        logits, hidden = forward(model, tokens, mask, Tensor(feats), region_mask)
        (cross_entropy(logits, tokens, mask) + sum_sq(hidden)).backward()
        assert all(p.grad is not None for p in params.values())
        runs.append([logits.data, hidden.data] + [p.grad for p in params.values()])
    for name, a, b in zip(["logits", "hidden", *params], *runs):
        if name.startswith("embed."):
            # one embedding pass sums the same gradient rows in another order
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name
        else:
            assert np.array_equal(a, b), name

    # decoding: each topic is the oracle's given the sentences decoded before it,
    # so the same word loop decodes the same tokens
    step, topics = ParagraphModel.topic_forward, []

    def kept(*args):
        topics.append(step(*args))
        return topics[-1]

    monkeypatch.setattr(ParagraphModel, "topic_forward", kept)
    vocab = Vocab(list(SPECIALS) + [f"w{i}" for i in range(7)])
    for f in feats:
        topics.clear()
        sentences = greedy_decode(model, f, DecodeConfig(num_sentences=3), vocab)
        with no_grad():
            g, _ = model.project_features(Tensor(f[None]))
            contexts = [Tensor(np.zeros((1, 8)))] + [
                model.pool_context(model.embed([s]), np.ones((1, len(s)))) for s in sentences[:-1]]
            expected = context_loop_topics(model, g, contexts)
        assert len(topics) == 3 and all(np.array_equal(a.data, b.data)
                                        for a, b in zip(topics, expected))


class TestModelConfigValidation:
    def test_attention_layers_must_fit_depth(self):
        with pytest.raises(ValueError):
            tiny_config(attn_layers=(3,), word_depth=3)

    def test_attention_layers_must_not_repeat(self):
        # one tap per listed layer would be drawn, but ``word_attn`` keeps one per index
        with pytest.raises(ValueError, match=r"\(2, 2\) repeat a layer"):
            tiny_config(attn_layers=(2, 2), word_depth=3)

    def test_topic_dim_must_equal_channels(self):
        with pytest.raises(ValueError):
            tiny_config(topic_dim=16, channels=8)

    def test_heads_checked_only_with_self_attention(self):
        # mean pooling builds no attention heads, so their count need not divide anything
        assert tiny_config(embed_dim=12, context_dim=12, attn_heads=8).attn_heads == 8
        with pytest.raises(ValueError, match="embed_dim must be divisible by attn_heads"):
            tiny_config(embed_dim=12, context_dim=12, attn_heads=8, pooling="self_attention")

    def test_bad_pooling_mode(self):
        with pytest.raises(ValueError):
            tiny_config(pooling="sum")

    def test_nonpositive_extent(self):
        with pytest.raises(ValueError):
            tiny_config(max_words=0)
