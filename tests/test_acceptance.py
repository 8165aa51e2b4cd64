"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
pass/fail report per criterion. The toy training criteria (4, 5) dominate
the runtime (several minutes each); everything else finishes in seconds.
"""

import json
import time

import numpy as np
import pytest

from conftest import tiny_config
from paracnn import cli as cli_mod
from paracnn import training as training_mod
from paracnn.checkpoint import read_checkpoint
from paracnn.cli import gradcheck_report, main as cli_main
from paracnn.corpus import (build_vocab, encode_paragraph, generate_synthetic_corpus,
                            synthetic_vocab_paragraphs)
from paracnn.decode import DecodeConfig, decode_adaptive, greedy_decode
from paracnn.metrics import EvalPair, bleu_n, cider, rouge_l
from paracnn.model import ModelConfig, ParagraphModel, TopicState, WordCache
from paracnn.tensor import RngState, Tensor
from paracnn.training import TwinConfig, TwinTrainer, train_epoch
from test_metrics import CIDER_FIXTURE, CIDER_FIXTURE_SCORE, cider_oracle


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared toy machinery ------------------------------------------------------------


def toy_model_config(vocab_size, feat_dim, channels=64):
    return ModelConfig(vocab_size=vocab_size, max_sentences=3, max_words=8,
                       visual_dim=feat_dim, proj_dim=channels, topic_dim=channels,
                       embed_dim=channels, context_dim=channels, channels=channels,
                       topic_kernel=5, word_kernel=5, topic_depth=2, word_depth=3,
                       pooling="mean", attn_layers=(2,), attn_heads=4)


def toy_entries(records):
    """Manifest-style entries whose feature_path holds the in-memory features."""
    return [{"paragraph": r["paragraph"], "feature_path": r["features"]} for r in records]


def train_toy(mode, records, vocab, seed, epochs, batch_size, lr, lambda_l2=0.1):
    cfg = toy_model_config(len(vocab), records[0]["features"].shape[1])
    twin = TwinConfig(mode=mode, lambda_l2=lambda_l2, lambda_adv=0.001,
                      critic_hidden=32)
    trainer = TwinTrainer(cfg, twin, seed=seed, lr=lr)
    entries = toy_entries(records)
    history = []
    for epoch in range(1, epochs + 1):
        history.append(train_epoch(trainer, entries, vocab, batch_size, epoch))
    return trainer, history


@pytest.fixture(scope="module")
def toy_vocab_mod():
    return build_vocab(synthetic_vocab_paragraphs(), min_freq=2)


# -- 1: gradient oracle ----------------------------------------------------------------


def test_criterion_1_gradient_oracle():
    t0 = time.time()
    rows = gradcheck_report(seed=0)
    elapsed = time.time() - t0
    worst = max(err for _, err in rows)
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, ok, f"{len(rows)} components, max rel err {worst:.2e}, {elapsed:.1f}s")


# -- 2: causality suite -------------------------------------------------------------------


def _topics_of(model, tokens, mask, feats):
    """Topics exactly as paragraph_forward derives them (teacher-forced)."""
    global_feat, _ = model.project_features(feats)
    token_embeds = model.embed(tokens)
    state = TopicState()
    model.topic_forward(state, global_feat)
    for j in range(1, tokens.shape[1]):
        model.topic_forward(state, global_feat, token_embeds[:, j - 1, :, :], mask[:, j - 1, :])
    return np.stack([t.data for t in state.topics], axis=1)


def test_criterion_2_causality_suite():
    t0 = time.time()
    cfg = tiny_config(max_sentences=3, max_words=5)
    model = ParagraphModel(cfg, RngState(100).child(1))
    rng = RngState(101)
    M, N = cfg.max_sentences, cfg.max_words
    violations = 0
    trials = 1000
    for trial in range(trials):
        tokens = rng.integers(4, cfg.vocab_size, (1, M, N)).astype(np.int64)
        mask = np.ones((1, M, N), dtype=bool)
        feats = Tensor(rng.normal((1, 2, cfg.visual_dim)))
        j = int(rng.integers(0, M))
        t = int(rng.integers(0, N))
        bumped = tokens.copy()
        bumped[0, j, t] = 4 + (bumped[0, j, t] - 4 + 1) % (cfg.vocab_size - 4)

        base_logits, _ = model.paragraph_forward(tokens, mask, feats)
        base_topics = _topics_of(model, tokens, mask, feats)
        new_logits, _ = model.paragraph_forward(bumped, mask, feats)
        new_topics = _topics_of(model, bumped, mask, feats)

        # (b) topics of sentences <= j and all logits of sentences < j: bit-exact
        if not np.array_equal(base_topics[0, : j + 1], new_topics[0, : j + 1]):
            violations += 1
            continue
        if j > 0 and not np.array_equal(base_logits.data[0, :j], new_logits.data[0, :j]):
            violations += 1
            continue
        # (a) within sentence j: positions <= t unchanged (input shift puts the
        # perturbed token into play at position t+1)
        if not np.array_equal(base_logits.data[0, j, : t + 1], new_logits.data[0, j, : t + 1]):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120.0
    report(2, ok, f"{trials} trials, {violations} violations, {elapsed:.1f}s")


# -- 3: incremental equivalence ---------------------------------------------------------------


def test_criterion_3_incremental_equivalence():
    cfg = tiny_config(max_sentences=2, max_words=4)
    model = ParagraphModel(cfg, RngState(110).child(1))
    rng = RngState(111)

    worst = 0.0
    for _ in range(100):
        tokens = rng.integers(4, cfg.vocab_size, (1, 2, 4)).astype(np.int64)
        mask = np.ones((1, 2, 4), dtype=bool)
        feats = rng.normal((1, 2, cfg.visual_dim))
        full, _ = model.paragraph_forward(tokens, mask, Tensor(feats))

        g, regions = model.project_features(Tensor(feats))
        state = TopicState()
        for j in range(2):
            prev = (model.embed(tokens[:, j - 1]), mask[:, j - 1]) if j else ()
            topic = model.topic_forward(state, g, *prev)
            inputs = [1] + list(tokens[0, j, :-1])
            cache = WordCache(model.region_keys(regions))
            for t in range(1, 5):
                # the cached step decoding uses: one new token per call
                _, step_logits = model.sentence_forward(topic, [inputs[t - 1:t]], regions,
                                                        cache=cache)
                diff = np.abs(step_logits.data[0, -1] - full.data[0, j, t - 1]).max()
                worst = max(worst, diff)
    ok = worst < 1e-10
    report(3, ok, f"100 instances, max |teacher-forced - incremental| = {worst:.2e}")


# -- 4: toy-corpus learning ----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_toy_corpus_learning(toy_vocab_mod):
    t0 = time.time()
    vocab = toy_vocab_mod
    records = generate_synthetic_corpus(3, 560, noise=0.0)
    train, held_out = records[:500], records[500:]
    assert len(vocab) <= 60

    trainer, history = train_toy("none", train, vocab, seed=5, epochs=200,
                                 batch_size=25, lr=1e-3)

    # the predicted sentence count, clamped to [1, 3]
    dc = DecodeConfig(adaptive=True, min_sentences=1, max_sentences=3, rep_penalty=0.0,
                      block_trigrams=False)
    matched = 0
    total = 0
    for rec in held_out:
        sents = decode_adaptive(trainer.model, trainer.predictor, rec["features"], dc, vocab)
        ref_t, ref_m, ref_c = encode_paragraph(rec["paragraph"], vocab, 3, 8)
        refs = [list(ref_t[j][ref_m[j]]) for j in range(ref_c)]
        total += ref_c
        for j, ref in enumerate(refs):
            if j < len(sents) and sents[j] == ref:
                matched += 1
    elapsed = time.time() - t0
    rate = matched / total
    ok = rate >= 0.90 and elapsed < 900.0
    report(4, ok, f"exact-sentence-match {rate:.3f} on {len(held_out)} held-out scenes "
                  f"(final CE {history[-1].ce_fwd:.4f}), {elapsed:.0f}s")


# -- 5: twin non-degradation -------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_twin_non_degradation(toy_vocab_mod):
    vocab = toy_vocab_mod
    records = generate_synthetic_corpus(3, 200, noise=0.0)

    _, base_hist = train_toy("none", records, vocab, seed=5, epochs=30,
                             batch_size=5, lr=1e-3)
    _, twin_hist = train_toy("l2_plus_adversarial", records, vocab, seed=5,
                             epochs=30, batch_size=5, lr=1e-3)

    ce_base = base_hist[-1].ce_fwd
    ce_twin = twin_hist[-1].ce_fwd
    l2_first = twin_hist[0].twin_l2
    l2_last = twin_hist[-1].twin_l2
    gap_ok = ce_twin <= ce_base + 0.05
    l2_ok = l2_last < 0.5 * l2_first
    report(5, gap_ok and l2_ok,
           f"CE twin {ce_twin:.4f} vs baseline {ce_base:.4f} (gap bound 0.05); "
           f"twin_l2 epoch30/epoch1 = {l2_last:.3f}/{l2_first:.3f} = {l2_last / l2_first:.3f}")


# -- 6: twin-off equivalence ---------------------------------------------------------------------------


def test_criterion_6_twin_off_equivalence(toy_vocab_mod):
    vocab = toy_vocab_mod
    records = generate_synthetic_corpus(7, 60, noise=0.0)
    entries = toy_entries(records)

    def run(mode, lambda_l2):
        cfg = ModelConfig(vocab_size=len(vocab), max_sentences=3, max_words=8,
                          visual_dim=records[0]["features"].shape[1], proj_dim=16,
                          topic_dim=16, embed_dim=16, context_dim=16, channels=16,
                          topic_kernel=3, word_kernel=3, topic_depth=2, word_depth=3,
                          pooling="mean", attn_layers=(2,), attn_heads=2)
        trainer = TwinTrainer(cfg, TwinConfig(mode=mode, lambda_l2=lambda_l2,
                                              critic_hidden=8), seed=13, lr=1e-3)
        trace = []
        for epoch in range(1, 4):
            trace.append(train_epoch(trainer, entries, vocab, 10, epoch).ce_fwd)
        return trainer, trace

    t_none, trace_none = run("none", 0.0)
    t_l2, trace_l2 = run("l2", 0.0)
    traces_equal = trace_none == trace_l2
    params_equal = all(np.array_equal(p.data, q.data) for (_, p), (_, q) in zip(
        sorted(t_none.model.named_parameters().items()),
        sorted(t_l2.model.named_parameters().items())))
    report(6, traces_equal and params_equal,
           f"ce_fwd traces bit-identical={traces_equal}, forward params bit-identical={params_equal}")


# -- 7: W-GAN mechanics ------------------------------------------------------------------------------------


def test_criterion_7_wgan_mechanics(toy_vocab_mod, monkeypatch):
    vocab = toy_vocab_mod
    records = generate_synthetic_corpus(15, 20, noise=0.0)
    cfg = ModelConfig(vocab_size=len(vocab), max_sentences=3, max_words=8,
                      visual_dim=records[0]["features"].shape[1], proj_dim=16,
                      topic_dim=16, embed_dim=16, context_dim=16, channels=16,
                      topic_kernel=3, word_kernel=3, topic_depth=2, word_depth=3,
                      pooling="mean", attn_layers=(2,), attn_heads=2)
    twin = TwinConfig(mode="l2_plus_adversarial", lambda_l2=0.1, critic_hidden=8)
    trainer = TwinTrainer(cfg, twin, seed=17, lr=1e-3)

    clip_checks = []
    real_step = training_mod.critic_step

    def checked_step(critic, hf, hb, opt, clip):
        loss = real_step(critic, hf, hb, opt, clip)
        worst = max(np.abs(p.data).max() for p in critic.named_parameters().values())
        clip_checks.append(worst <= clip)
        return loss

    monkeypatch.setattr(training_mod, "critic_step", checked_step)
    stats = train_epoch(trainer, toy_entries(records), vocab, 5, 1)
    schedule_ok = stats.critic_updates == 5 * stats.generator_updates
    clip_ok = len(clip_checks) == stats.critic_updates and all(clip_checks)
    report(7, schedule_ok and clip_ok,
           f"{stats.critic_updates} critic updates for {stats.generator_updates} generator "
           f"updates (5:1), clip bound held after each of {len(clip_checks)} steps")


# -- 8: metric oracles ----------------------------------------------------------------------------------------


def test_criterion_8_metric_oracles():
    clip_pair = [EvalPair("the the the the".split(), "the cat".split())]
    bleu_clip = bleu_n(clip_pair, 1)
    clip_ok = abs(bleu_clip - 0.25) < 1e-10

    pairs = [EvalPair(h, r) for h, r in CIDER_FIXTURE]
    got = cider(pairs)
    cider_ok = (abs(got - CIDER_FIXTURE_SCORE) < 1e-10
                and abs(got - cider_oracle(CIDER_FIXTURE)) < 1e-10)

    rouge_pair = [EvalPair("a b c".split(), "a x c".split())]
    rouge_ok = abs(rouge_l(rouge_pair) - 2.0 / 3.0) < 1e-10

    ident = [EvalPair(r, r) for _, r in CIDER_FIXTURE]
    display_ok = bleu_n(ident, 1) * 100.0 == 100.0 and rouge_l(ident) * 100.0 == 100.0

    report(8, clip_ok and cider_ok and rouge_ok and display_ok,
           f"BLEU clipping case {bleu_clip}, CIDEr fixture {got:.12f} vs oracle, "
           f"ROUGE-L LCS case, identical pairs at 100.0")


# -- 9: repetition penalty -----------------------------------------------------------------------------------------


def test_criterion_9_repetition_penalty(toy_vocab_mod):
    vocab = toy_vocab_mod
    cfg = tiny_config(vocab_size=len(vocab), max_sentences=3, max_words=8)
    model = ParagraphModel(cfg, RngState(19).child(1))
    # engineer a looping checkpoint: constant logits dominated by a few tokens
    for p in model.named_parameters().values():
        p.data[:] = 0.0
    for tok, bias in (("red", 5.0), ("blue", 4.9), ("star", 4.8)):
        model.vocab_head.b.data[vocab.index[tok]] = bias
    feats = np.zeros((2, cfg.visual_dim))

    dc_block = DecodeConfig(num_sentences=3, rep_penalty=0.0, block_trigrams=True)
    sents = greedy_decode(model, feats, dc_block, vocab)
    stream = [t for words in sents for t in words]
    trigrams = list(zip(stream, stream[1:], stream[2:]))
    block_ok = len(trigrams) == len(set(trigrams))

    counts = []
    for gamma in (0.0, 1.0, 2.0, 4.0):
        dc = DecodeConfig(num_sentences=3, rep_penalty=gamma, block_trigrams=False)
        out = greedy_decode(model, feats, dc, vocab)
        toks = [t for words in out for t in words if t > 3]
        counts.append(int(np.bincount(toks, minlength=len(vocab)).max()) if toks else 0)
    mono_ok = all(a >= b for a, b in zip(counts, counts[1:]))
    report(9, block_ok and mono_ok,
           f"no repeated trigram under blocking ({len(trigrams)} trigrams); "
           f"max-token-count over gamma grid {counts} non-increasing")


# -- 10: length flexibility -------------------------------------------------------------------------------------------


def test_criterion_10_length_flexibility(toy_vocab_mod):
    vocab = toy_vocab_mod
    records = generate_synthetic_corpus(23, 40, max_objects=6, noise=0.0)
    cfg = ModelConfig(vocab_size=len(vocab), max_sentences=6, max_words=10,
                      visual_dim=records[0]["features"].shape[1], proj_dim=16,
                      topic_dim=16, embed_dim=16, context_dim=16, channels=16,
                      topic_kernel=3, word_kernel=3, topic_depth=2, word_depth=3,
                      pooling="mean", attn_layers=(2,), attn_heads=2)
    trainer = TwinTrainer(cfg, TwinConfig(mode="none"), seed=29, lr=1e-3)
    train_epoch(trainer, toy_entries(records), vocab, 10, 1)

    feats = records[0]["features"]
    lengths_ok = True
    for k in (5, 6, 7):
        dc = DecodeConfig(num_sentences=k, max_sentences=7, rep_penalty=0.0,
                          block_trigrams=False)
        sents = greedy_decode(trainer.model, feats, dc, vocab)
        lengths_ok = lengths_ok and len(sents) == k

    # adaptive decoding respects the [min, max] clamp
    pred = trainer.predictor
    pred.fc3.W.data[:] = 0.0
    clamp_ok = True
    for forced, lo, hi, expect in ((2, 5, 7, 5), (6, 5, 7, 6), (6, 6, 7, 6)):
        pred.fc3.b.data[:] = 0.0
        pred.fc3.b.data[forced - 1] = 9.0
        dc = DecodeConfig(num_sentences=1, adaptive=True, min_sentences=lo,
                          max_sentences=hi, rep_penalty=0.0, block_trigrams=False)
        sents = decode_adaptive(trainer.model, pred, feats, dc, vocab)
        clamp_ok = clamp_ok and len(sents) == expect
    report(10, lengths_ok and clamp_ok,
           "model trained at 6 sentences decoded 5/6/7 without error; adaptive clamps hold")


# -- 11: reproducibility ------------------------------------------------------------------------------------------------


def strip_wallclock(path):
    records = []
    for line in open(path):
        rec = json.loads(line)
        rec.pop("wallclock", None)
        records.append(json.dumps(rec, sort_keys=True))
    return "\n".join(records)


def test_criterion_11_reproducibility(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert cli_main(["make-corpus", "--seed", "31", "--size", "40", "--noise", "0",
                     "--out", str(corpus_dir)]) == 0
    overrides = ["model.proj_dim=16", "model.topic_dim=16", "model.embed_dim=16",
                 "model.context_dim=16", "model.channels=16", "model.max_sentences=3",
                 "model.max_words=8", "model.topic_kernel=3", "model.word_kernel=3",
                 "model.topic_depth=2", "model.word_depth=3", "model.attn_layers=[2]",
                 "model.attn_heads=2", "model.visual_dim=0", "twin.mode=l2",
                 "twin.critic_hidden=8", "train.epochs=3", "train.batch_size=10",
                 "seed=5"]
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet"]
        for ov in overrides:
            args += ["--set", ov]
        assert cli_main(args) == 0
        outs.append(out)

    logs_equal = strip_wallclock(outs[0] / "log.jsonl") == strip_wallclock(outs[1] / "log.jsonl")
    ckpt_equal = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("checkpoint_ep0003.pckpt", "best.pckpt"))
    report(11, logs_equal and ckpt_equal,
           f"paired runs: logs identical modulo wallclock={logs_equal}, "
           f"checkpoints byte-identical={ckpt_equal}")
