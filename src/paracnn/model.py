"""Hierarchical paragraph generator.

An image feature matrix is projected per region and max-pooled into a global
vector. A causal topic convolution stack turns the global vector plus the
pooled embedding of the previous sentence (the context) into one topic vector
per sentence slot, feeding each slot autoregressively with the previous
topic. A causal word convolution stack decodes each topic into word logits,
with additive visual attention over region features injected after selected
layers.

Teacher-forced training (``paragraph_forward``) and greedy decoding share one
code path. ``topic_forward`` adds one topic slot to a ``TopicState`` by stepping
each topic block once against its last k-1 inputs. ``sentence_forward`` runs
the word stack over S sentences: all positions in parallel in training
(S = B*M teacher-forced sentences), or, given a paragraph's ``WordCache``, one
new position per call in decoding. Only the sequential topic loop remains.
Regions stay per image ([B, R, proj]), and the S = B*M sentences are grouped
by image, so an attention tap projects each image's regions once per call;
decoding, through the ``WordCache``, projects them once per paragraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import (MASK_NEG, CausalConvBlock, Embedding, Layer, Linear,
                     MultiHeadSelfAttention, VisualAttention)
from .tensor import RngState, ShapeError, Tensor, concat

POOL_MODES = ("mean", "self_attention")


@dataclass
class ModelConfig:
    """Architecture hyperparameters; defaults follow the full-scale setup."""

    vocab_size: int
    max_sentences: int = 6
    max_words: int = 30
    visual_dim: int = 4096
    proj_dim: int = 512
    topic_dim: int = 512
    embed_dim: int = 512
    context_dim: int = 512
    channels: int = 512
    topic_kernel: int = 5
    word_kernel: int = 5
    topic_depth: int = 4
    word_depth: int = 5
    pooling: str = "mean"
    attn_layers: tuple = (2, 4)
    attn_heads: int = 8

    def __post_init__(self):
        self.attn_layers = tuple(self.attn_layers)
        for name in ("vocab_size", "max_sentences", "max_words", "visual_dim", "proj_dim",
                     "topic_dim", "embed_dim", "context_dim", "channels", "topic_kernel",
                     "word_kernel", "topic_depth", "word_depth", "attn_heads"):
            # type(), not isinstance: a bool is an int, but not a count
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"ModelConfig.{name} must be an integer >= 1, got {value!r}")
        if self.pooling not in POOL_MODES:
            raise ValueError(f"pooling must be one of {POOL_MODES}, got {self.pooling!r}")
        if any(type(i) is not int or not 1 <= i < self.word_depth for i in self.attn_layers):
            raise ValueError(f"attention layer indices {self.attn_layers} must be integers "
                             f"in [1, word_depth={self.word_depth})")
        if len(set(self.attn_layers)) != len(self.attn_layers):
            raise ValueError(f"attention layer indices {self.attn_layers} repeat a layer")
        if self.topic_dim != self.channels:
            raise ValueError("topic_dim must equal channels: the topic is the stack's output frame")
        if self.context_dim != self.embed_dim:
            raise ValueError("context_dim must equal embed_dim: the context is a pooled embedding")
        if self.pooling == "self_attention" and self.embed_dim % self.attn_heads != 0:
            raise ValueError("embed_dim must be divisible by attn_heads")


@dataclass
class TopicState:
    """Per-block input histories of the topic stack and the topics filled so far."""

    histories: dict = field(default_factory=dict)  # block index -> its last k-1 inputs
    topics: list = field(default_factory=list)


@dataclass
class WordCache:
    """Word-stack decode state of one paragraph of one image.

    The attention keys of the image and the embedded row of each token seen
    so far are computed once per paragraph; the per-block input histories are
    emptied at the start of each sentence.
    """

    keys: dict  # tap name -> ``ParagraphModel.region_keys`` of the image
    embeds: dict = field(default_factory=dict)  # token -> its embedded [1, 1, embed] row
    histories: dict = field(default_factory=dict)  # block index -> its last k-1 inputs


class ParagraphModel(Layer):
    def __init__(self, cfg: ModelConfig, rng: RngState):
        self.cfg = cfg
        c = cfg
        self.feat_proj = Linear(rng, c.visual_dim, c.proj_dim)
        self.embed = Embedding(rng, c.vocab_size, c.embed_dim)
        if c.pooling == "self_attention":
            self.ctx_attn = MultiHeadSelfAttention(rng, c.embed_dim, c.attn_heads)
        self.topic_start = Tensor(rng.uniform(-0.1, 0.1, (c.embed_dim,)), requires_grad=True)
        self.topic_in_embed = Linear(rng, c.channels, c.embed_dim)
        self.topic_in = Linear(rng, c.embed_dim + c.proj_dim + c.context_dim, c.channels)
        self.topic_blocks = [CausalConvBlock(rng, c.channels, c.topic_kernel)
                             for _ in range(c.topic_depth)]
        self.word_in = Linear(rng, c.embed_dim + c.topic_dim, c.channels)
        self.word_blocks = [CausalConvBlock(rng, c.channels, c.word_kernel)
                            for _ in range(c.word_depth)]
        self.word_attn = {}
        for layer_idx in c.attn_layers:
            self.word_attn[str(layer_idx)] = _AttentionTap(rng, c.channels, c.proj_dim)
        self.vocab_head = Linear(rng, c.channels, c.vocab_size)

    # -- feature projection ---------------------------------------------------

    def project_features(self, raw: Tensor, region_mask=None):
        """raw: [B, R, d_I] -> (global [B, proj], regions [B, R, proj]).

        Regions get an affine map; the global vector is the element-wise max
        over the regions left unmasked by the optional [B, R] region_mask.
        """
        if raw.shape[-2] == 0:
            raise ShapeError("project_features needs at least one region")
        regions = self.feat_proj(raw)  # [B, R, proj]
        if region_mask is None:
            return regions.max(axis=-2), regions
        m = np.asarray(region_mask, dtype=np.float64)
        if not m.any(axis=-1).all():
            raise ShapeError("each item needs at least one unmasked region")
        masked = regions + Tensor((m[..., None] - 1.0) * MASK_NEG)
        return masked.max(axis=-2), regions

    # -- context pooling --------------------------------------------------------

    def pool_context(self, embeds: Tensor, mask) -> Tensor:
        """Masked pooling of previous-sentence embeddings [B, N, d], mask [B, N] -> [B, d].

        The model's ``pooling`` mode decides: mean averages the embeddings,
        self_attention averages the self-attended embeddings. An empty
        sentence pools to the zero vector.
        """
        m = np.asarray(mask, dtype=np.float64).reshape(embeds.shape[0], embeds.shape[1])
        counts = m.sum(axis=1)
        if self.cfg.pooling == "self_attention":
            embeds = self.ctx_attn(embeds, key_mask=m)
        weighted = embeds * Tensor(m[:, :, None])
        denom = np.maximum(counts, 1.0)[:, None]
        return weighted.sum(axis=1) * Tensor(1.0 / denom)

    # -- topic stack ---------------------------------------------------------------

    def topic_forward(self, state: TopicState, global_feat: Tensor, prev_embeds: Tensor = None,
                      prev_mask=None) -> Tensor:
        """Extend the paragraph by one topic slot; mutates ``state`` and returns T_j [B, topic].

        Slot j's input frame joins the previous topic through a learned map (a learned
        start vector for slot 1), the global image vector [B, proj] and the slot's
        context: zero at slot 1, later ``pool_context`` of the previous sentence's
        [B, N, embed] embeddings under its [B, N] mask. Each block steps once on the
        frame against its history in ``state``: the causal stack's output at slot j.
        """
        slot = len(state.topics) + 1
        if global_feat.ndim != 2 or (prev_embeds is None) != (slot == 1):
            raise ShapeError(f"topic slot {slot} takes a [B, proj] global vector and "
                             f"{'no' if slot == 1 else 'the'} previous sentence")
        if state.topics:
            tok = self.topic_in_embed(state.topics[-1])
            context = self.pool_context(prev_embeds, prev_mask)
        else:
            B = global_feat.shape[0]
            tok = self.topic_start.reshape(1, -1).broadcast_to((B, self.cfg.embed_dim))
            context = Tensor(np.zeros((B, self.cfg.context_dim)))
        h = self.topic_in(concat([tok, global_feat, context], axis=-1))
        for i, block in enumerate(self.topic_blocks):
            h = block.step(h, state.histories.setdefault(i, []))
        state.topics.append(h)
        return h

    # -- word stack -----------------------------------------------------------------

    def region_keys(self, regions: Tensor) -> dict:
        """The attention keys of [B, R, proj] regions, {tap name: [B, 1, R, channels]}."""
        return {name: tap.attn.keys(regions) for name, tap in self.word_attn.items()}

    def sentence_forward(self, topics: Tensor, inputs, regions: Tensor, region_mask=None,
                         cache: WordCache = None):
        """Word stack over S sentences: returns (hidden [S, T, channels], logits [S, T, V]).

        ``topics`` is [S, topic], ``inputs`` the [S, T] input tokens (each row
        starting with <start>), ``regions`` the [B, R, proj] regions of B images
        with an optional [B, R] mask. S must be a multiple of B: sentence s
        belongs to image s // (S // B), and each attention tap sees an image's
        sentences as one query sequence. The logit row at position t scores the
        token following inputs[:, t]; the hidden frames are the pre-logit features.
        With a ``cache`` (decoding one image), ``inputs`` holds the [1, 1] newest
        token and only its row is computed, from the cached keys, embedded rows
        and block histories; a token not yet embedded is embedded and stored.
        """
        inputs = np.asarray(inputs, dtype=np.int64)
        if inputs.ndim != 2:
            raise ShapeError("sentence_forward expects [S, T] input tokens")
        S, T = inputs.shape
        B = regions.shape[0]
        if S % B:
            raise ShapeError(f"{S} sentences do not split evenly over {B} images")
        if T > self.cfg.max_words:
            raise ShapeError(f"prefix length {T} exceeds max_words {self.cfg.max_words}")
        if cache is None:
            keys, embeds = self.region_keys(regions), self.embed(inputs)
        else:
            if (S, T) != (1, 1):
                raise ShapeError(f"a cached step takes the [1, 1] newest token, got [{S}, {T}]")
            keys, tok = cache.keys, int(inputs[0, 0])
            embeds = cache.embeds.get(tok)
            if embeds is None:
                embeds = cache.embeds[tok] = self.embed(inputs)
        top = topics.reshape(S, 1, self.cfg.topic_dim).broadcast_to((S, T, self.cfg.topic_dim))
        h = self.word_in(concat([embeds, top], axis=-1))
        for i, block in enumerate(self.word_blocks, start=1):
            h = block(h) if cache is None else block.step(h, cache.histories.setdefault(i, []))
            tap = self.word_attn.get(str(i))
            if tap is not None:
                h = tap(h.reshape(B, -1, h.shape[-1]), regions, keys[str(i)],
                        region_mask).reshape(h.shape)
        return h, self.vocab_head(h)

    # -- teacher-forced paragraph pass --------------------------------------------------

    def paragraph_forward(self, tokens, mask, features: Tensor, region_mask=None,
                          start_index: int = 1):
        """Teacher-forced full pass over a [B, M, N] token grid.

        Returns (logits [B, M, N, V], hidden [B, M, N, channels]).
        Contexts pool the ground-truth previous sentence; hidden frames are the
        pre-logit features exposed for twin training.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        mask = np.asarray(mask, dtype=bool)
        if tokens.ndim != 3 or mask.shape != tokens.shape:
            raise ShapeError("paragraph_forward expects aligned [B, M, N] tokens and mask")
        B, M, N = tokens.shape
        c = self.cfg

        global_feat, regions = self.project_features(features, region_mask)

        token_embeds = self.embed(tokens)  # [B, M, N, embed]
        state = TopicState()
        self.topic_forward(state, global_feat)
        for j in range(1, M):
            self.topic_forward(state, global_feat, token_embeds[:, j - 1, :, :], mask[:, j - 1, :])

        # shift targets right: input 0 is <start>, input t is token t-1
        inputs = np.empty_like(tokens)
        inputs[:, :, 0] = start_index
        inputs[:, :, 1:] = tokens[:, :, :-1]

        hidden, logits = self.sentence_forward(
            concat(state.topics, axis=-1).reshape(B * M, c.topic_dim),
            inputs.reshape(B * M, N), regions, region_mask)
        return logits.reshape(B, M, N, c.vocab_size), hidden.reshape(B, M, N, c.channels)


class _AttentionTap(Layer):
    """Visual attention injected into the word stack through a learned projection."""

    def __init__(self, rng: RngState, channels: int, region_dim: int):
        self.attn = VisualAttention(rng, channels, region_dim, channels)
        self.proj = Linear(rng, region_dim, channels)

    def __call__(self, h: Tensor, regions: Tensor, keys: Tensor, region_mask=None) -> Tensor:
        context, _ = self.attn(h, regions, keys, region_mask)
        return h + self.proj(context)


class SentenceCountPredictor(Layer):
    """Three stacked affine maps from the global image vector to count logits."""

    def __init__(self, rng: RngState, in_dim: int, max_sentences: int,
                 hidden1: int = 256, hidden2: int = 128):
        self.fc1 = Linear(rng, in_dim, hidden1)
        self.fc2 = Linear(rng, hidden1, hidden2)
        self.fc3 = Linear(rng, hidden2, max_sentences)

    def __call__(self, global_feat: Tensor) -> Tensor:
        """global_feat: [B, in_dim] -> count logits [B, max_sentences]."""
        h = self.fc1(global_feat).relu()
        h = self.fc2(h).relu()
        return self.fc3(h)
