import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from paracnn.corpus import build_vocab, synthetic_vocab_paragraphs
from paracnn.decode import (DecodeConfig, apply_repetition_penalty, decode_adaptive,
                            greedy_decode, read_paragraphs, sentence_lines,
                            write_paragraphs)
from paracnn.layers import Embedding, VisualAttention
from paracnn.model import ParagraphModel, SentenceCountPredictor, TopicState, WordCache
from paracnn.tensor import RngState, Tensor, no_grad


@pytest.fixture
def vocab():
    return build_vocab(synthetic_vocab_paragraphs(), min_freq=2)


def fresh_model(vocab, seed=5, **over):
    cfg = tiny_config(vocab_size=len(vocab), **over)
    return ParagraphModel(cfg, RngState(seed).child(1))


def plain_decode_config(**over):
    kw = dict(num_sentences=2, rep_penalty=0.0, block_trigrams=False)
    kw.update(over)
    return DecodeConfig(**kw)


class TestDecodeConfig:
    @pytest.mark.parametrize("max_words", [-1, 0])
    def test_word_budget_must_be_positive(self, max_words):
        with pytest.raises(ValueError, match="max_words must be >= 1"):
            DecodeConfig(max_words=max_words)


class TestApplyRepetitionPenalty:
    def test_identity_when_disabled(self):
        logits = np.arange(6.0)
        out = apply_repetition_penalty(logits, [1, 2, 3], gamma=0.0, block_trigrams=False)
        assert np.array_equal(out, logits)

    def test_count_proportional_subtraction(self):
        logits = np.zeros(8)
        out = apply_repetition_penalty(logits, [5, 5, 5, 2], gamma=1.5, block_trigrams=False)
        assert out[5] == -4.5
        assert out[2] == -1.5
        assert out[0] == 0.0

    def test_trigram_blocking_against_scan_oracle(self):
        history = [4, 5, 6, 7, 4, 5]
        logits = np.zeros(10)
        out = apply_repetition_penalty(logits, history, gamma=0.0, block_trigrams=True)
        # (4, 5) has completed to 6 before, so 6 must be -inf
        blocked = {c for a, b, c in zip(history, history[1:], history[2:])
                   if (a, b) == (4, 5)}
        for tok in range(10):
            if tok in blocked:
                assert out[tok] == float("-inf")
            else:
                assert out[tok] == 0.0

    def test_no_blocking_without_matching_bigram(self):
        out = apply_repetition_penalty(np.zeros(6), [1, 2, 3, 4], gamma=0.0,
                                       block_trigrams=True)
        assert np.all(np.isfinite(out))


class TestGreedyDecode:
    def test_forced_one_hot_repeats_token(self, vocab):
        model = fresh_model(vocab)
        for p in model.named_parameters().values():
            p.data[:] = 0.0
        q = vocab.index["red"]
        model.vocab_head.b.data[q] = 10.0
        dc = plain_decode_config(num_sentences=2)
        sents = greedy_decode(model, np.zeros((2, 6)), dc, vocab)
        assert all(words == [q] * 4 for words in sents)  # max_words caps, no <eos>

    def test_deterministic(self, vocab):
        model = fresh_model(vocab)
        feats = RngState(8).normal((3, 6))
        dc = plain_decode_config()
        a = greedy_decode(model, feats, dc, vocab)
        b = greedy_decode(model, feats, dc, vocab)
        assert a == b

    def test_rescoring_argmax_matches_decoded_tokens(self, vocab):
        model = fresh_model(vocab)
        feats = RngState(9).normal((3, 6))
        dc = plain_decode_config(num_sentences=2)
        sents = greedy_decode(model, feats, dc, vocab)
        # teacher-force the decoded tokens back through the model
        g, regions = model.project_features(Tensor(feats[None]))
        state, prev = TopicState(), ()  # slot 1 has no previous sentence
        for words in sents:
            topic = model.topic_forward(state, g, *prev)
            prefix = [vocab.start]
            for tok in words:
                _, logits = model.sentence_forward(topic, model.embed([prefix]), regions)
                assert int(np.argmax(logits.data[0, -1])) == tok
                if tok != vocab.eos:
                    prefix.append(tok)
            prev = model.embed(np.asarray([words])), np.ones((1, len(words)))

    def test_sentence_count_honored(self, vocab):
        model = fresh_model(vocab)
        feats = RngState(10).normal((2, 6))
        for k in (1, 2, 3):
            dc = plain_decode_config(num_sentences=k, max_sentences=6)
            assert len(greedy_decode(model, feats, dc, vocab)) == k

    def test_decode_beyond_training_capacity(self, vocab):
        # the convolution stacks are length-flexible: a config trained for
        # M=2 decodes 3 sentences without error
        model = fresh_model(vocab)
        dc = plain_decode_config(num_sentences=3, max_sentences=6)
        sents = greedy_decode(model, RngState(11).normal((2, 6)), dc, vocab)
        assert len(sents) == 3


class TestDecodeAdaptive:
    def setup_predictor(self, vocab, cls_index):
        model = fresh_model(vocab)
        pred = SentenceCountPredictor(RngState(5).child(4), model.cfg.proj_dim, 6)
        pred.fc3.W.data[:] = 0.0
        pred.fc3.b.data[:] = 0.0
        pred.fc3.b.data[cls_index] = 9.0
        return model, pred

    def test_prediction_respected_within_clamp(self, vocab):
        model, pred = self.setup_predictor(vocab, cls_index=2)  # count 3
        dc = plain_decode_config(num_sentences=1, adaptive=True,
                                 min_sentences=2, max_sentences=4)
        sents = decode_adaptive(model, pred, RngState(12).normal((2, 6)), dc, vocab)
        assert len(sents) == 3

    def test_degenerate_clamp_matches_fixed(self, vocab):
        model, pred = self.setup_predictor(vocab, cls_index=4)
        dc_adapt = plain_decode_config(num_sentences=1, adaptive=True,
                                       min_sentences=2, max_sentences=2)
        dc_fixed = plain_decode_config(num_sentences=2)
        feats = RngState(13).normal((2, 6))
        assert decode_adaptive(model, pred, feats, dc_adapt, vocab) == \
            greedy_decode(model, feats, dc_fixed, vocab)

    def test_lower_clamp(self, vocab):
        model, pred = self.setup_predictor(vocab, cls_index=0)  # predicts 1
        dc = plain_decode_config(num_sentences=1, adaptive=True,
                                 min_sentences=2, max_sentences=3)
        assert len(decode_adaptive(model, pred, RngState(14).normal((2, 6)), dc, vocab)) == 2

    def test_tie_takes_the_lowest_count(self, vocab):
        model, pred = self.setup_predictor(vocab, cls_index=0)
        pred.fc3.b.data[:] = 9.0  # every class ties
        dc = plain_decode_config(adaptive=True, min_sentences=1, max_sentences=6)
        assert len(decode_adaptive(model, pred, RngState(17).normal((2, 6)), dc, vocab)) == 1

    def test_image_projected_once(self, vocab, monkeypatch):
        model, pred = self.setup_predictor(vocab, cls_index=2)  # count 3
        dc = plain_decode_config(adaptive=True, min_sentences=1, max_sentences=4)
        feats = RngState(15).normal((2, 6))
        expected = greedy_decode(model, feats, plain_decode_config(num_sentences=3), vocab)
        calls = []
        project = ParagraphModel.project_features

        def counting(self, raw, region_mask=None):
            calls.append(raw.shape)
            return project(self, raw, region_mask)

        monkeypatch.setattr(ParagraphModel, "project_features", counting)
        assert decode_adaptive(model, pred, feats, dc, vocab) == expected
        assert calls == [(1, 2, 6)]


def test_decoding_records_no_tape(vocab, monkeypatch):
    logits = []
    forward = ParagraphModel.sentence_forward

    def keep(self, topics, embeds, regions, region_mask=None, cache=None):
        # every decode step is a cached call on the one newest token's row
        assert cache is not None and embeds.shape == (1, 1, self.cfg.embed_dim)
        out = forward(self, topics, embeds, regions, region_mask, cache=cache)
        logits.append(out[1])
        return out

    monkeypatch.setattr(ParagraphModel, "sentence_forward", keep)
    greedy_decode(fresh_model(vocab), RngState(16).normal((2, 6)),
                  plain_decode_config(num_sentences=1), vocab)
    assert logits and all(t._parents == () and not t.requires_grad for t in logits)
    assert all(t.shape == (1, 1, len(vocab)) for t in logits)


def spy(monkeypatch, owner, name, calls):
    """Wrap method ``owner.name`` so each call appends its arguments to ``calls``."""
    method = getattr(owner, name)

    def recording(self, *args, **kwargs):
        calls.append(args)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, recording)


def test_keys_and_embeddings_once_per_paragraph(vocab, monkeypatch):
    model = fresh_model(vocab, seed=7, max_words=6, attn_layers=(1, 2))
    keys, embeds, steps = [], [], []
    spy(monkeypatch, VisualAttention, "keys", keys)
    spy(monkeypatch, Embedding, "__call__", embeds)
    spy(monkeypatch, ParagraphModel, "sentence_forward", steps)
    sents = greedy_decode(model, RngState(17).normal((3, 6)),
                          plain_decode_config(num_sentences=3), vocab)
    assert len(keys) == len(model.word_attn) == 2
    # no one-word sentence, so a pooled sentence is told from a word row by its shape
    assert min(map(len, sents)) > 1
    pooled = [np.asarray(args[0]).tolist() for args in embeds if np.shape(args[0]) != (1, 1)]
    assert pooled == [[sents[0]], [sents[1]]]  # the previous sentence, embedded whole
    rows = [int(np.asarray(args[0])[0, 0]) for args in embeds if np.shape(args[0]) == (1, 1)]
    inputs = [tok for words in sents for tok in [vocab.start] + words[:-1]]  # fed per step
    assert len(steps) == len(inputs) and rows == list(dict.fromkeys(inputs))
    assert len(embeds) == len(set(inputs)) + len(pooled) < len(inputs) + len(pooled)


def test_cached_decode_bitwise_equals_recomputing_each_word(vocab, monkeypatch):
    # two taps; a step that recomputes the keys and the embedding at every word
    # must give the same logits bit for bit
    model = fresh_model(vocab, seed=8, max_words=7, attn_layers=(1, 2))
    feats = RngState(18).normal((3, 6))
    dc = DecodeConfig(num_sentences=3, rep_penalty=1.5)
    rows = []
    forward = ParagraphModel.sentence_forward

    def keep(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        rows.append(out[1].data[0, -1])
        return out

    monkeypatch.setattr(ParagraphModel, "sentence_forward", keep)
    sents = greedy_decode(model, feats, dc, vocab)
    monkeypatch.setattr(ParagraphModel, "sentence_forward", forward)

    expected_rows, expected = [], []
    history = []
    with no_grad():
        g, regions = model.project_features(Tensor(feats[None]))
        state, prev = TopicState(), ()
        for _ in range(dc.num_sentences):
            topic = model.topic_forward(state, g, *prev)
            block_inputs, tok, words = {}, vocab.start, []
            for _ in range(model.cfg.max_words):
                fresh = WordCache(model.region_keys(regions), histories=block_inputs)
                _, logits = model.sentence_forward(topic, model.embed([[tok]]), regions,
                                                   cache=fresh)
                expected_rows.append(logits.data[0, -1])
                row = apply_repetition_penalty(logits.data[0, -1], history, dc.rep_penalty,
                                               dc.block_trigrams)
                tok = int(np.argmax(row))
                history.append(tok)
                words.append(tok)
                if tok == vocab.eos:
                    break
            expected.append(words)
            prev = model.embed(np.asarray([words])), np.ones((1, len(words)))
    assert sents == expected
    assert len(rows) == len(expected_rows) == len(history)
    assert all(np.array_equal(a, b) for a, b in zip(rows, expected_rows))


def prefix_oracle(model, feats, dc, vocab):
    """Greedy decoding that re-runs the word stack on the whole prefix at every step."""
    n_words = min(dc.max_words or model.cfg.max_words, model.cfg.max_words)
    g, regions = model.project_features(Tensor(feats[None]))
    state, prev = TopicState(), ()
    sentences, history = [], []
    for _ in range(dc.num_sentences):
        topic = model.topic_forward(state, g, *prev)
        prefix, words = [vocab.start], []
        for _ in range(n_words):
            _, logits = model.sentence_forward(topic, model.embed([prefix]), regions)
            row = apply_repetition_penalty(logits.data[0, -1], history, dc.rep_penalty,
                                           dc.block_trigrams)
            tok = int(np.argmax(row))
            history.append(tok)
            words.append(tok)
            if tok == vocab.eos:
                break
            prefix.append(tok)
        sentences.append(words)
        prev = model.embed(np.asarray([words])), np.ones((1, len(words)))
    return sentences


@pytest.mark.parametrize("penalty", [False, True])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_cached_decode_matches_prefix_oracle(vocab, penalty, seed):
    # 9 words through kernel-4 word blocks: every cache length and then some
    model = fresh_model(vocab, seed=seed, max_words=9, word_kernel=4)
    dc = DecodeConfig(num_sentences=3, rep_penalty=1.5 if penalty else 0.0,
                      block_trigrams=penalty)
    feats = RngState(seed + 20).normal((3, 6))
    with no_grad():
        expected = prefix_oracle(model, feats, dc, vocab)
    assert greedy_decode(model, feats, dc, vocab) == expected
    assert max(len(words) for words in expected) > model.cfg.word_kernel


class TestParagraphFormat:
    def test_round_trip(self):
        paragraphs = [["a b c", "d e"], ["x y"]]
        buf = io.StringIO()
        write_paragraphs(paragraphs, buf)
        assert buf.getvalue() == "a b c\nd e\n\nx y\n"
        buf.seek(0)
        assert read_paragraphs(buf) == paragraphs

    def test_empty_sentences_keep_their_place(self, vocab):
        red = vocab.index["red"]
        paragraphs = [sentence_lines(s, vocab) for s in
                      ([[red], [vocab.eos], [red]], [[vocab.eos], [vocab.eos]], [[red]])]
        buf = io.StringIO()
        write_paragraphs(paragraphs, buf)
        assert buf.getvalue() == "red\n<empty>\nred\n\n<empty>\n<empty>\n\nred\n"
        buf.seek(0)
        assert read_paragraphs(buf) == [["red", "", "red"], ["", ""], ["red"]]

    def test_specials_stripped_from_text(self, vocab):
        sents = [[vocab.index["red"], vocab.eos], [vocab.index["blue"]]]
        assert sentence_lines(sents, vocab) == ["red", "blue"]


class TestPenaltyBehavior:
    def test_blocking_prevents_repeated_trigrams(self, vocab):
        # a constant-logit model loops hard; blocking must break every loop
        model = fresh_model(vocab, max_words=8)
        for p in model.named_parameters().values():
            p.data[:] = 0.0
        model.vocab_head.b.data[vocab.index["red"]] = 5.0
        model.vocab_head.b.data[vocab.index["blue"]] = 4.9
        model.vocab_head.b.data[vocab.index["star"]] = 4.8
        dc = DecodeConfig(num_sentences=2, rep_penalty=0.0, block_trigrams=True,
                          max_words=8)
        sents = greedy_decode(model, np.zeros((2, 6)), dc, vocab)
        stream = [t for words in sents for t in words]
        trigrams = list(zip(stream, stream[1:], stream[2:]))
        assert len(trigrams) == len(set(trigrams))

    def test_gamma_monotonicity(self, vocab):
        model = fresh_model(vocab)
        feats = RngState(15).normal((2, 6))
        counts = []
        for gamma in (0.0, 1.0, 2.0, 4.0):
            dc = DecodeConfig(num_sentences=2, rep_penalty=gamma, block_trigrams=False)
            sents = greedy_decode(model, feats, dc, vocab)
            stream = [t for words in sents for t in words if t > 3]
            top = max(np.bincount(stream, minlength=len(vocab)).max(), 0) if stream else 0
            counts.append(int(top))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=0, max_size=30),
       st.floats(0, 4), st.booleans())
def test_penalty_never_raises_logits_property(history, gamma, block):
    logits = np.linspace(-1, 1, 10)
    out = apply_repetition_penalty(logits, history, gamma, block)
    assert np.all(out <= logits + 1e-12)


SENTENCES = st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=3).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(SENTENCES, max_size=4), min_size=1, max_size=5))
def test_paragraph_format_round_trip_property(paragraphs):
    # empty sentences ("") and paragraphs without sentences included
    buf = io.StringIO()
    write_paragraphs(paragraphs, buf)
    buf.seek(0)
    back = read_paragraphs(buf)
    assert len(back) == len(paragraphs)
    for written, read in zip(paragraphs, back):
        # a paragraph without sentences has the text of one empty sentence
        assert read == (written or [""])
