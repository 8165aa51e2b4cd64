"""Training: MLE steps, the reversed-target twin network, and the W-GAN critic.

The forward network trains by teacher-forced cross entropy. In twin modes a
second network of identical shape trains on per-paragraph-reversed targets,
and the forward network's pre-logit hidden frames are pulled toward the
backward network's aligned frames, either by an L2 penalty, by a Wasserstein
critic (trained 5 steps per generator step, weights clipped after every
step), or both. Only the forward network is ever consulted at inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .corpus import ParagraphBatch, make_batches, pad_feature_batch, shuffle_order
from .layers import BiGruCell, Layer, Linear
from .model import ModelConfig, ParagraphModel, SentenceCountPredictor
from .tensor import RngState, ShapeError, Tensor, concat, cross_entropy, gather_rows, no_grad

TWIN_MODES = ("none", "l2", "adversarial", "l2_plus_adversarial")

# the fixed W-GAN critic schedule (Arjovsky et al. 2017)
CRITIC_LR = 2e-4
CRITIC_STEPS = 5
WEIGHT_CLIP = 0.01


class TrainingDiverged(RuntimeError):
    """A loss became non-finite; the epoch is aborted."""


@dataclass
class TwinConfig:
    mode: str = "none"
    lambda_l2: float = 1.0
    lambda_adv: float = 0.001
    critic_hidden: int = 512

    def __post_init__(self):
        if self.mode not in TWIN_MODES:
            raise ValueError(f"twin mode must be one of {TWIN_MODES}, got {self.mode!r}")
        for name in ("lambda_l2", "lambda_adv"):
            value = getattr(self, name)
            if not (type(value) in (int, float) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if type(self.critic_hidden) is not int or self.critic_hidden < 1:
            raise ValueError(f"critic_hidden must be an integer >= 1, got {self.critic_hidden!r}")

    @property
    def uses_l2(self) -> bool:
        return self.mode in ("l2", "l2_plus_adversarial")

    @property
    def uses_adversarial(self) -> bool:
        return self.mode in ("adversarial", "l2_plus_adversarial")


class RmspropOptimizer:
    """RMSprop: v <- a*v + (1-a)*g^2; p <- p - lr*g/(sqrt(v)+eps).

    ``step`` walks each parameter in blocks of ``BLOCK`` elements: a block's
    slices of g, v and p and two block-sized scratch rows stay in cache while
    the whole update runs over them, instead of every operation streaming the
    full parameter through memory. Each element sees the same operations in
    the same order either way, so the result is the same to the bit. The
    parameters and their state must be C-contiguous, since the update writes
    through flat views of them.
    """

    alpha = 0.9
    eps = 1e-8
    BLOCK = 16384

    def __init__(self, params: dict, lr: float):
        self.params = dict(params)
        self.lr = lr
        # np.zeros leaves the pages to be zeroed on first write (zeros_like fills
        # them now); a trainer loaded for inference never writes them
        self.state = {name: np.zeros(p.data.shape, p.data.dtype)
                      for name, p in self.params.items()}

    def step(self):
        # every gradient is checked before anything moves, so a diverged step
        # leaves the parameters and their state as they were
        work = []
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
            v = self.state[name]
            if not (p.data.flags.c_contiguous and v.flags.c_contiguous):
                raise ValueError(f"parameter {name!r} or its RMSprop state is not C-contiguous")
            work.append((g.reshape(-1), v.reshape(-1), p.data.reshape(-1)))
        # the out= writes keep the rounding of
        # v = a*v + (1-a)*g*g; p -= lr*g / (sqrt(v) + eps)
        scratch_b, scratch_c = np.empty(self.BLOCK), np.empty(self.BLOCK)
        for g_all, v_all, p_all in work:
            for lo in range(0, g_all.size, self.BLOCK):
                g = g_all[lo:lo + self.BLOCK]
                v = v_all[lo:lo + self.BLOCK]
                b = scratch_b[:g.size]
                c = scratch_c[:g.size]
                v *= self.alpha
                np.multiply(g, 1.0 - self.alpha, out=b)
                b *= g
                v += b
                np.sqrt(v, out=c)
                c += self.eps
                np.multiply(g, self.lr, out=b)
                b /= c
                p_all[lo:lo + self.BLOCK] -= b

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


class Critic(Layer):
    """Wasserstein critic: bi-GRU over hidden-frame sequences, affine to a score."""

    def __init__(self, rng: RngState, in_dim: int, hidden: int):
        self.gru = BiGruCell(rng, in_dim, hidden)
        self.head = Linear(rng, 2 * hidden, 1)

    def score(self, seqs: Tensor) -> Tensor:
        """seqs: [B, T, C] -> unbounded scores [B, 1]."""
        return self.head(self.gru(seqs))

    def clip_weights(self, c: float):
        for p in self.named_parameters().values():
            np.clip(p.data, -c, c, out=p.data)


# -- target reversal -------------------------------------------------------------


def reverse_targets(batch: ParagraphBatch) -> ParagraphBatch:
    """Reverse each paragraph's valid token stream in place over the mask.

    The mask layout is untouched: valid slots keep their positions, the
    tokens they hold are read out in sentence-major order, reversed, and
    written back. This is ``_mirror_frames`` on the tokens (pad is 0), so
    mirroring the backward network's frames undoes exactly this permutation.
    """
    tokens = _mirror_frames(batch.tokens, batch.mask).reshape(batch.tokens.shape)
    return replace(batch, tokens=tokens)


def _mirror_frames(frames: np.ndarray, mask) -> np.ndarray:
    """Each item's valid frames in reverse order, [B, L, C]; the one twin alignment.

    The backward network trains on ``reverse_targets`` (this permutation of the
    tokens), so its frame for the target at a paragraph's t-th of L valid
    positions sits at the (L-1-t)-th and mirroring puts it back in forward
    order. ``mask`` is [B, ...] with L positions per item and ``frames`` is
    [B, ..., C] (or the mask's shape, read as C = 1); invalid positions come
    back zero.
    """
    B = mask.shape[0]
    fm = mask.reshape(B, -1)
    flat = frames.reshape(B, fm.shape[1], -1)
    out = np.zeros_like(flat)
    for b in range(B):
        idx = np.flatnonzero(fm[b])
        out[b, idx] = flat[b, idx[::-1]]
    return out


def twin_l2_loss(h_fwd: Tensor, aligned_bwd: np.ndarray, mask) -> Tensor:
    """Mean squared coordinate difference between aligned hidden frames.

    ``h_fwd`` is a [B, M, N, C] grid with a [B, M, N] mask; ``aligned_bwd``
    holds the backward network's frames already in forward order, [B, M*N, C]
    as ``_mirror_frames`` returns them. The backward frames act as targets (no
    gradient flows into them).
    """
    mask = np.asarray(mask, dtype=bool)
    if h_fwd.ndim != 4 or mask.shape != h_fwd.shape[:-1]:
        raise ValueError(f"expected [B, M, N, C] frames and a [B, M, N] mask, got "
                         f"{h_fwd.shape} and {mask.shape}")
    B, M, N, C = h_fwd.shape
    if aligned_bwd.shape != (B, M * N, C):
        raise ValueError(f"aligned backward frames must be [B, M*N, C] = {(B, M * N, C)}, "
                         f"got {aligned_bwd.shape}")
    rows = np.flatnonzero(mask.reshape(-1))
    picked_f = gather_rows(h_fwd.reshape(-1, C), rows)
    target_b = Tensor(aligned_bwd.reshape(-1, C)[rows])
    diff = picked_f - target_b
    return (diff * diff).mean()


# -- hidden-frame plumbing for the critic ----------------------------------------


def _masked_grid(h: Tensor, mask: np.ndarray) -> Tensor:
    """Zero the masked frames of a [B, M, N, C] grid and flatten to [B, M*N, C]."""
    B, M, N, C = h.shape
    m = mask.reshape(B, M * N, 1).astype(np.float64)
    return h.reshape(B, M * N, C) * Tensor(m)


def critic_loss(critic: Critic, fake: Tensor, real: Tensor) -> Tensor:
    """The W-GAN critic objective mean(score(fake)) - mean(score(real)).

    Both [B, T, C] sets are scored in one [2B, T, C] pass and the scores split
    before the two means.
    """
    if fake.shape != real.shape:
        raise ShapeError(f"fake frames {fake.shape} and real frames {real.shape} differ in shape")
    B = fake.shape[0]
    scores = critic.score(concat([fake, real], axis=0))
    return scores[:B].mean() - scores[B:].mean()


def critic_step(critic: Critic, h_fwd_detached: Tensor, h_bwd_detached: Tensor,
                opt: RmspropOptimizer, weight_clip: float) -> float:
    """One W-GAN critic update: forward frames are fake, backward frames real."""
    opt.zero_grad()
    loss = critic_loss(critic, h_fwd_detached, h_bwd_detached)
    loss.backward()
    opt.step()
    critic.clip_weights(weight_clip)
    return float(loss.data)


def adversarial_generator_loss(critic: Critic, h_fwd: Tensor) -> Tensor:
    """Wasserstein generator objective: -mean(score(forward frames))."""
    return -critic.score(h_fwd).mean()


# -- step functions ---------------------------------------------------------------


def batch_ce(model: ParagraphModel, batch: ParagraphBatch, features: Tensor,
             region_mask, start_index: int):
    logits, hidden = model.paragraph_forward(
        batch.tokens, batch.mask, features, region_mask, start_index=start_index)
    return cross_entropy(logits, batch.tokens, batch.mask), hidden


@dataclass
class EpochStats:
    """A batch's losses and updates, or an epoch's means and sums: the training
    fields of a ``log.jsonl`` record. A loss the twin mode does not compute is None."""

    ce_fwd: float
    ce_bwd: float | None = None
    twin_l2: float | None = None
    critic_loss: float | None = None
    critic_updates: int = 0
    generator_updates: int = 0


class TwinTrainer:
    """Holds the forward/backward networks, the critic, and their optimizers."""

    GEN_RNG, BWD_RNG, CRITIC_RNG, PRED_RNG = 1, 2, 3, 4

    def __init__(self, cfg: ModelConfig, twin: TwinConfig, seed: int, lr: float,
                 start_index: int = 1):
        self.cfg = cfg
        self.twin = twin
        self.seed = seed
        self.start_index = start_index
        root = RngState(seed)
        self.model = ParagraphModel(cfg, root.child(self.GEN_RNG))
        self.opt = RmspropOptimizer(self.model.named_parameters(), lr=lr)
        self.model_bwd = None
        self.opt_bwd = None
        self.critic = None
        self.opt_critic = None
        if twin.mode != "none":
            self.model_bwd = ParagraphModel(cfg, root.child(self.BWD_RNG))
            self.opt_bwd = RmspropOptimizer(self.model_bwd.named_parameters(), lr=lr)
        if twin.uses_adversarial:
            self.critic = Critic(root.child(self.CRITIC_RNG), cfg.channels, twin.critic_hidden)
            self.opt_critic = RmspropOptimizer(self.critic.named_parameters(), lr=CRITIC_LR)
        self.predictor = SentenceCountPredictor(root.child(self.PRED_RNG), cfg.proj_dim,
                                                cfg.max_sentences)
        self.opt_pred = RmspropOptimizer(self.predictor.named_parameters(), lr=lr)

    def train_batch(self, batch: ParagraphBatch) -> EpochStats:
        """One generator update (plus 5 critic updates in adversarial modes).

        Without a twin there is no backward network or critic and the update
        is plain teacher-forced maximum likelihood.
        """
        feats, region_mask = pad_feature_batch(batch.feature_refs)
        features = Tensor(feats)
        twin = self.twin

        self.opt.zero_grad()
        ce_f, h_f = batch_ce(self.model, batch, features, region_mask, self.start_index)
        stats = EpochStats(ce_fwd=float(ce_f.data), generator_updates=1)

        ce_b = None
        if self.model_bwd is not None:
            self.opt_bwd.zero_grad()
            ce_b, h_b = batch_ce(self.model_bwd, reverse_targets(batch), features,
                                 region_mask, self.start_index)
            stats.ce_bwd = float(ce_b.data)
            # forward-ordered backward frames: the L2 target and the critic's real input
            aligned_b = _mirror_frames(h_b.data, batch.mask)

        if not (np.isfinite(stats.ce_fwd) and (ce_b is None or np.isfinite(stats.ce_bwd))):
            raise TrainingDiverged(f"non-finite CE (fwd={stats.ce_fwd}, bwd={stats.ce_bwd})")

        if twin.uses_adversarial:
            fwd_grid = _masked_grid(h_f, batch.mask)  # also the generator's adversarial input
            fwd_det = Tensor(fwd_grid.data)
            bwd_det = Tensor(aligned_b)
            losses = [critic_step(self.critic, fwd_det, bwd_det, self.opt_critic, WEIGHT_CLIP)
                      for _ in range(CRITIC_STEPS)]
            stats.critic_updates = CRITIC_STEPS
            stats.critic_loss = float(np.mean(losses))

        gen_loss = ce_f
        if twin.uses_l2:
            l2 = twin_l2_loss(h_f, aligned_b, batch.mask)
            stats.twin_l2 = float(l2.data)
            if twin.lambda_l2 > 0:
                gen_loss = gen_loss + twin.lambda_l2 * l2
        if twin.uses_adversarial and twin.lambda_adv > 0:
            adv = adversarial_generator_loss(self.critic, fwd_grid)
            gen_loss = gen_loss + twin.lambda_adv * adv

        if not np.isfinite(gen_loss.data):
            raise TrainingDiverged(f"non-finite generator loss {gen_loss.data}")
        gen_loss.backward()
        self.opt.step()

        if ce_b is not None:
            ce_b.backward()
            self.opt_bwd.step()

        self._predictor_step(batch, features, region_mask)
        return stats

    def _predictor_step(self, batch: ParagraphBatch, features: Tensor, region_mask):
        self.opt_pred.zero_grad()
        global_feat, _ = self.model.project_features(features, region_mask)
        logits = self.predictor(global_feat.detach())
        targets = batch.sentence_counts - 1  # class k predicts k+1 sentences
        loss = cross_entropy(logits, targets)
        loss.backward()
        self.opt_pred.step()

    @no_grad()
    def eval_ce(self, batch: ParagraphBatch) -> float:
        feats, region_mask = pad_feature_batch(batch.feature_refs)
        loss, _ = batch_ce(self.model, batch, Tensor(feats), region_mask, self.start_index)
        return float(loss.data)


def train_epoch(trainer: TwinTrainer, entries, vocab, batch_size: int, epoch: int,
                base_dir: str = "") -> EpochStats:
    """Train once on every entry, in epoch ``epoch``'s seeded order (``shuffle_order``),
    ``batch_size`` entries a batch; returns the mean losses and summed update counts."""
    order = shuffle_order(trainer.seed, len(entries), epoch)
    agg = [trainer.train_batch(b)
           for b in make_batches(entries, vocab, trainer.cfg, batch_size, order, base_dir)]
    if not agg:
        raise ValueError("train_epoch needs at least one entry")

    combined = {}
    for f in fields(EpochStats):
        vals = [getattr(s, f.name) for s in agg]
        if vals[0] is None:  # a loss the twin mode does not compute
            combined[f.name] = None
        elif type(vals[0]) is int:  # an update count
            combined[f.name] = sum(vals)
        else:  # a loss
            combined[f.name] = float(np.mean(vals))
    return EpochStats(**combined)


def validation_ce(trainer: TwinTrainer, entries, vocab, batch_size: int,
                  base_dir: str = "") -> float:
    """The forward network's mean per-batch CE over ``entries`` in file order."""
    batches = make_batches(entries, vocab, trainer.cfg, batch_size, np.arange(len(entries)),
                           base_dir)
    return float(np.mean([trainer.eval_ce(b) for b in batches]))
