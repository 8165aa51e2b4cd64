import numpy as np
import pytest

from paracnn.corpus import build_vocab, encode_paragraph, synthetic_vocab_paragraphs, ParagraphBatch
from paracnn.model import ModelConfig, ParagraphModel
from paracnn.tensor import RngState


def tiny_config(**overrides) -> ModelConfig:
    """The verification-scale config used across gradient and causality tests."""
    base = dict(vocab_size=11, max_sentences=2, max_words=4, visual_dim=6,
                proj_dim=8, topic_dim=8, embed_dim=8, context_dim=8, channels=8,
                topic_kernel=3, word_kernel=3, topic_depth=2, word_depth=3,
                pooling="mean", attn_layers=(2,), attn_heads=2)
    base.update(overrides)
    return ModelConfig(**base)


def sum_sq(t):
    """Sum of squares: a scalar test loss with nonzero gradients everywhere."""
    return (t * t).sum()


def random_grid(rng: RngState, cfg: ModelConfig, batch: int = 1):
    """Random token grid with a ragged prefix mask plus region features."""
    B, M, N = batch, cfg.max_sentences, cfg.max_words
    tokens = rng.integers(4, cfg.vocab_size, (B, M, N)).astype(np.int64)
    mask = np.zeros((B, M, N), dtype=bool)
    for b in range(B):
        n_sent = int(rng.integers(1, M + 1))
        for j in range(n_sent):
            length = int(rng.integers(1, N + 1))
            mask[b, j, :length] = True
    tokens[~mask] = 0
    feats = rng.normal((B, 3, cfg.visual_dim))
    return tokens, mask, feats


@pytest.fixture
def toy_vocab():
    return build_vocab(synthetic_vocab_paragraphs(), min_freq=2)
