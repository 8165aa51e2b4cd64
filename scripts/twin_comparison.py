#!/usr/bin/env python3
"""Paired baseline-vs-twin training comparison on the synthetic corpus.

Trains mode=none and mode=l2_plus_adversarial from the same seed and prints
the per-epoch forward CE and, where the mode computes them, the backward CE,
twin L2 and critic loss, so the twin dynamics (transient mismatch, alignment
once both networks converge) are visible. Takes several minutes at the
default settings.
"""

import argparse

from paracnn.corpus import build_vocab, generate_synthetic_corpus, synthetic_vocab_paragraphs
from paracnn.model import ModelConfig
from paracnn.training import TwinConfig, TwinTrainer, train_epoch


def run(mode, args, entries, vocab):
    cfg = ModelConfig(vocab_size=len(vocab), max_sentences=3, max_words=8,
                      visual_dim=entries[0]["feature_path"].shape[1],
                      proj_dim=args.channels, topic_dim=args.channels,
                      embed_dim=args.channels, context_dim=args.channels,
                      channels=args.channels, topic_kernel=5, word_kernel=5,
                      topic_depth=2, word_depth=3, pooling="mean",
                      attn_layers=(2,), attn_heads=4)
    twin = TwinConfig(mode=mode, lambda_l2=args.lambda_l2, lambda_adv=args.lambda_adv,
                      critic_hidden=32)
    trainer = TwinTrainer(cfg, twin, seed=args.seed, lr=args.lr)
    print(f"== mode={mode}")
    history = []
    for epoch in range(1, args.epochs + 1):
        stats = train_epoch(trainer, entries, vocab, args.batch_size, epoch)
        history.append(stats)
        losses = (("ce_fwd", stats.ce_fwd, "8.4f"), ("ce_bwd", stats.ce_bwd, "8.4f"),
                  ("twin_l2", stats.twin_l2, "8.4f"), ("critic", stats.critic_loss, "9.5f"))
        print(f"epoch {epoch:3d}" + "".join(f"  {name}={value:{fmt}}"
                                            for name, value, fmt in losses if value is not None))
    return history


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--size", type=int, default=200)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--batch-size", type=int, default=5)
    ap.add_argument("--channels", type=int, default=64)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--lambda-l2", type=float, default=0.1)
    ap.add_argument("--lambda-adv", type=float, default=0.001)
    args = ap.parse_args()

    # manifest-style entries whose feature_path holds the in-memory features
    entries = [{"paragraph": r["paragraph"], "feature_path": r["features"]}
               for r in generate_synthetic_corpus(3, args.size, noise=0.0)]
    vocab = build_vocab(synthetic_vocab_paragraphs(), min_freq=2)

    base = run("none", args, entries, vocab)
    twin = run("l2_plus_adversarial", args, entries, vocab)

    print("\n== summary")
    print(f"final ce: baseline={base[-1].ce_fwd:.4f} twin={twin[-1].ce_fwd:.4f} "
          f"(gap {twin[-1].ce_fwd - base[-1].ce_fwd:+.4f})")
    print(f"twin_l2: epoch1={twin[0].twin_l2:.4f} final={twin[-1].twin_l2:.4f} "
          f"(ratio {twin[-1].twin_l2 / twin[0].twin_l2:.3f})")


if __name__ == "__main__":
    main()
