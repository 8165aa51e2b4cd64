"""Command-line surface: make-corpus, train, generate, eval, gradcheck.

A run is configured by one JSON file (sections: model, twin, train, plus a
top-level seed) with repeatable ``--set section.key=value`` overrides; unknown
keys are rejected. Decode settings are ``generate`` flags. Every command that
produces outputs writes the fully resolved configuration beside them.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from .checkpoint import (CheckpointError, load_trainer_arrays, read_checkpoint,
                         trainer_arrays, write_checkpoint)
from .decode import (DecodeConfig, decode_adaptive, greedy_decode, read_paragraphs,
                     sentence_lines, write_paragraphs)
from .model import ModelConfig
from .tensor import RngState, Tensor, grad_check, cross_entropy
from .training import (TrainingDiverged, TwinConfig, TwinTrainer, train_epoch,
                       validation_ce)


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 16
    lr: float = 4e-4

    def __post_init__(self):
        # type(), not isinstance: a bool is not a number here, nor a float a count
        if not all(type(n) is int and n >= 1 for n in (self.epochs, self.batch_size)):
            raise ConfigError("epochs and batch_size must be integers >= 1")
        if not (type(self.lr) in (int, float) and 0 < self.lr < math.inf):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr!r}")


@dataclass
class RunConfig:
    seed: int
    model: ModelConfig
    twin: TwinConfig
    train: TrainConfig


SECTIONS = {"model": ModelConfig, "twin": TwinConfig, "train": TrainConfig}


def _build_section(cls, data: dict, section: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid [{section}] config: {exc}") from exc


def _run_config(seed: int, sections: dict) -> RunConfig:
    """RunConfig from one raw dict per section of SECTIONS; others are ignored."""
    return RunConfig(seed, **{name: _build_section(cls, sections[name], name)
                              for name, cls in SECTIONS.items()})


def _check_seed(seed):
    """``seed``, or a ConfigError unless it is an integer >= 0 (bools are not)."""
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def load_run_config(path, overrides, default_vocab_size: int,
                    default_visual_dim: int) -> RunConfig:
    raw = {}
    if path:
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ConfigError(f"{path}: not a JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        for name in SECTIONS:
            if not isinstance(raw.get(name, {}), dict):
                raise ConfigError(f"{path}: config section {name!r} must be a JSON object")
    unknown = set(raw) - {"seed", *SECTIONS}
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        key, _, value = item.partition("=")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # keep the raw string (e.g. pooling=mean)
        if key == "seed":
            raw["seed"] = value
            continue
        if "." not in key:
            raise ConfigError(f"override key {key!r} must be 'seed' or 'section.key'")
        section, _, field = key.partition(".")
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        raw.setdefault(section, {})[field] = value

    seed = _check_seed(raw.get("seed", 0))
    sections = {name: dict(raw.get(name, {})) for name in SECTIONS}
    model_raw = sections["model"]
    model_raw.setdefault("vocab_size", default_vocab_size)
    if model_raw.get("visual_dim") == 0:  # 0 means: take the dimension from the data
        model_raw["visual_dim"] = default_visual_dim
    return _run_config(seed, sections)


def _write_resolved_config(config: dict, out_dir: str, name: str):
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- make-corpus -----------------------------------------------------------------


def cmd_make_corpus(args) -> int:
    if args.size < 3:
        raise ConfigError(f"--size {args.size} is below 3: the train, val and test splits "
                          f"need a scene each")
    out_dir = args.out
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not args.force:
        raise FileExistsError(f"{out_dir} is not empty (use --force to overwrite)")
    records = corpus_mod.generate_synthetic_corpus(
        _check_seed(args.seed), args.size, max_objects=args.max_objects, noise=args.noise)
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    entries = []
    for rec in records:
        rel = os.path.join("features", rec["id"] + ".pfv")
        corpus_mod.save_features(os.path.join(out_dir, rel), rec["features"])
        entries.append({"id": rec["id"], "feature_path": rel, "paragraph": rec["paragraph"]})

    shuffled = [entries[i] for i in corpus_mod.shuffle_order(args.seed, len(entries))]
    n_val = n_test = max(1, args.size // 10)
    n_train = args.size - n_val - n_test
    splits = {"train": shuffled[:n_train],
              "val": shuffled[n_train:n_train + n_val],
              "test": shuffled[n_train + n_val:]}
    for name, part in splits.items():
        corpus_mod.write_manifest(os.path.join(out_dir, f"{name}.jsonl"), part)
    corpus_mod.write_manifest(os.path.join(out_dir, "manifest.jsonl"), entries)
    _write_resolved_config({"seed": args.seed, "size": args.size,
                            "max_objects": args.max_objects, "noise": args.noise,
                            "split": {k: len(v) for k, v in splits.items()}},
                           out_dir, "corpus_config.json")
    print(f"wrote {args.size} scenes to {out_dir} "
          f"(train/val/test = {n_train}/{n_val}/{n_test})")
    return 0


# -- train ------------------------------------------------------------------------


def build_trainer(run: RunConfig, vocab) -> TwinTrainer:
    return TwinTrainer(run.model, run.twin, run.seed, run.train.lr,
                       start_index=vocab.start)


def cmd_train(args) -> int:
    data_dir = args.data
    train_entries = corpus_mod.read_manifest(os.path.join(data_dir, "train.jsonl"))
    val_entries = corpus_mod.read_manifest(os.path.join(data_dir, "val.jsonl"))

    vocab = corpus_mod.build_vocab([e["paragraph"] for e in train_entries])

    first_path = os.path.join(data_dir, train_entries[0]["feature_path"])
    feat_dim = corpus_mod.load_features(first_path).shape[1]
    run = load_run_config(args.config, args.set or [], default_vocab_size=len(vocab),
                          default_visual_dim=feat_dim)
    if run.model.vocab_size != len(vocab):
        raise ConfigError(f"config vocab_size {run.model.vocab_size} != corpus vocabulary "
                          f"{len(vocab)}")
    if run.model.visual_dim != feat_dim:
        raise corpus_mod.FeatureFileError(f"{first_path}: feature dim {feat_dim} != model "
                                          f"visual_dim {run.model.visual_dim}")

    trainer = build_trainer(run, vocab)
    done = _resume(trainer, args.resume, run, vocab) if args.resume else 0

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    # The kernel releases a flock when its holder exits, killed or not. A run
    # that ends removes .lock before it closes it, so a lock taken on a file no
    # longer at the path is refused like a held one.
    lock_path = os.path.join(out_dir, ".lock")
    with open(lock_path, "a") as lock_fh:
        try:
            fcntl.flock(lock_fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            ours = os.path.samestat(os.fstat(lock_fh.fileno()), os.stat(lock_path))
        except (BlockingIOError, FileNotFoundError):
            ours = False
        if not ours:
            raise BlockingIOError(f"{out_dir} is locked by another training run ({lock_path})")
        try:
            return _train_loop(run, vocab, trainer, done, train_entries, val_entries,
                               data_dir, out_dir, args.quiet)
        finally:
            os.remove(lock_path)


def _resume(trainer, path, run, vocab) -> int:
    """Load checkpoint ``path`` into ``trainer``; returns its epoch. Nothing read is kept.

    The checkpoint's run config must be ``run`` but for ``train.epochs``, so that
    the resumed run is the one that wrote it, and ``train.epochs`` must not end
    the run before the checkpoint's epoch.
    """
    meta, arrays, saved = _checkpoint_run(path)
    if meta["vocab"] != vocab.tokens:
        raise CheckpointError(f"{path}: trained with a different vocabulary")
    load_trainer_arrays(trainer, arrays, path)
    old, new = _flat_config(saved), _flat_config(run)
    changed = sorted(key for key in new if new[key] != old[key] and key != "train.epochs")
    if changed:
        raise ConfigError(f"{path}: a resumed run may change only train.epochs, not {changed}")
    if run.train.epochs < meta["epoch"]:
        raise ConfigError(f"{path}: the checkpoint is of epoch {meta['epoch']}, past "
                          f"train.epochs={run.train.epochs}")
    return meta["epoch"]


def _flat_config(run: RunConfig) -> dict:
    """``run`` as {"seed": ..., "section.key": ...}."""
    config = dataclasses.asdict(run)
    return {"seed": run.seed, **{f"{name}.{key}": value for name in SECTIONS
                                 for key, value in config[name].items()}}


def _truncate_log(log_path, epoch) -> float:
    """Cut a run's ``log.jsonl`` after the record of ``epoch``; returns the
    lowest ``val_ce`` kept (``inf`` for none).

    Each record is flushed before its epoch's checkpoint is written, so a line
    cut short by a killed run comes after the newest checkpoint's record.
    """
    best_val, size = float("inf"), 0
    with open(log_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                rec = json.loads(line)
                if rec["epoch"] > epoch:
                    break
                # min(x, nan) is x, as the epoch loop's strict < never takes a nan
                best_val = min(best_val, float(rec["val_ce"]))
            except (ValueError, TypeError, KeyError) as exc:
                raise CheckpointError(f"{log_path}:{lineno}: not a training log record: "
                                      f"{exc!r}") from exc
            size += len(line)
            if rec["epoch"] == epoch:
                break
    os.truncate(log_path, size)
    return best_val


def _train_loop(run, vocab, trainer, done, train_entries, val_entries, data_dir, out_dir,
                quiet) -> int:
    """Train ``trainer`` from epoch ``done + 1``; a resumed run (``done`` > 0) keeps its log."""
    log_path = os.path.join(out_dir, "log.jsonl")
    best_val = float("inf")
    if done and os.path.exists(log_path):  # keep the run's log and its best so far
        best_val = _truncate_log(log_path, done)
    _write_resolved_config(dataclasses.asdict(run), out_dir, "resolved_config.json")

    best_path = os.path.join(out_dir, "best.pckpt")
    meta_base = {"seed": run.seed, "vocab": vocab.tokens, "config": dataclasses.asdict(run),
                 "rng_algorithm": RngState.ALGORITHM}
    with open(log_path, "a" if done else "w") as log_fh:
        for epoch in range(done + 1, run.train.epochs + 1):
            t0 = time.time()
            try:
                stats = train_epoch(trainer, train_entries, vocab, run.train.batch_size, epoch,
                                    base_dir=data_dir)
            except TrainingDiverged as exc:
                # per-epoch checkpoints from completed epochs stay on disk
                raise TrainingDiverged(f"training diverged in epoch {epoch}: {exc}; "
                                       f"last good checkpoint is from epoch {epoch - 1}") from exc
            val_ce = validation_ce(trainer, val_entries, vocab, run.train.batch_size,
                                   base_dir=data_dir)
            record = dict(dataclasses.asdict(stats), epoch=epoch, val_ce=val_ce,
                          wallclock=round(time.time() - t0, 3))
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            log_fh.flush()

            ckpt_path = os.path.join(out_dir, f"checkpoint_ep{epoch:04d}.pckpt")
            meta = dict(meta_base, epoch=epoch)
            arrays = trainer_arrays(trainer)
            write_checkpoint(ckpt_path, meta, arrays)
            if val_ce < best_val:
                best_val = val_ce
                write_checkpoint(best_path, meta, arrays)
            if not quiet:
                print(f"epoch {epoch}: ce_fwd={stats.ce_fwd:.4f} val_ce={val_ce:.4f}")
    return 0


# -- generate -----------------------------------------------------------------------


# what each metadata key a command reads must hold; type(), as a bool is no count
_META_TYPES = {
    "seed": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "epoch": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "vocab": ("a list of strings", lambda v: type(v) is list and all(type(t) is str for t in v)),
    "config": ("an object", lambda v: type(v) is dict),
}


def _checkpoint_run(path, *prefixes):
    """(meta, arrays, run) of checkpoint ``path``: read_checkpoint, the metadata checked
    against ``_META_TYPES`` (CheckpointError) and the run config it was trained with."""
    meta, arrays = read_checkpoint(path, *prefixes)
    for key, (what, ok) in _META_TYPES.items():
        if key not in meta:
            raise CheckpointError(f"{path}: checkpoint metadata lacks {key!r}")
        if not ok(meta[key]):
            raise CheckpointError(f"{path}: checkpoint metadata {key!r} must be {what}")
    config = meta["config"]
    for name in SECTIONS:
        if not isinstance(config.get(name), dict):
            raise CheckpointError(f"{path}: checkpoint config lacks a {name!r} section")
    try:  # the decode section that older checkpoints carry is ignored
        run = _run_config(meta["seed"], config)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if len(meta["vocab"]) != run.model.vocab_size:
        raise CheckpointError(f"{path}: checkpoint metadata 'vocab' has {len(meta['vocab'])} "
                              f"tokens, not model.vocab_size={run.model.vocab_size}")
    return meta, arrays, run


def load_checkpoint_trainer(path):
    """(trainer, run, vocab) for decoding; the trainer holds no backward network or critic."""
    # decoding runs the forward network and the count predictor and never steps an
    # optimizer: the other entries are checked and skipped, not read
    meta, arrays, run = _checkpoint_run(path, "fwd.", "predictor.")
    try:
        vocab = corpus_mod.Vocab(meta["vocab"])
    except corpus_mod.CorpusError as exc:
        raise CheckpointError(f"{path}: checkpoint metadata 'vocab': {exc}") from exc
    trainer = build_trainer(dataclasses.replace(run, twin=TwinConfig()), vocab)
    load_trainer_arrays(trainer, arrays, path)
    return trainer, run, vocab


def cmd_generate(args) -> int:
    if args.out and (os.path.isdir(args.out) or args.out.endswith(os.sep)):
        raise IsADirectoryError(f"{args.out}: --out names a directory, not a file")
    out_dir = (os.path.dirname(args.out) or ".") if args.out else None
    if out_dir is not None and not os.path.isdir(out_dir):  # both refused before any decoding
        raise FileNotFoundError(f"{out_dir}: no such directory for --out")
    trainer, run, vocab = load_checkpoint_trainer(args.checkpoint)
    flags = {"num_sentences": args.sentences, "adaptive": args.adaptive,
             "min_sentences": args.min, "max_sentences": args.max,
             "rep_penalty": args.rep_penalty, "block_trigrams": args.block_trigrams}
    dc = _build_section(DecodeConfig, {k: v for k, v in flags.items() if v is not None},
                        "decode")

    if args.features.endswith(".jsonl"):
        base = os.path.dirname(args.features)
        paths = [os.path.join(base, e["feature_path"])
                 for e in corpus_mod.read_manifest(args.features)]
    else:
        paths = [args.features]

    paragraphs = []  # written after the last image; only one image's features are held
    for path in paths:
        f = corpus_mod.load_features(path, run.model.visual_dim)
        if dc.adaptive:
            sents = decode_adaptive(trainer.model, trainer.predictor, f, dc, vocab)
        else:
            sents = greedy_decode(trainer.model, f, dc, vocab)
        paragraphs.append(sentence_lines(sents, vocab))

    if args.out:
        with open(args.out, "w") as fh:
            write_paragraphs(paragraphs, fh)
        _write_resolved_config(dict(dataclasses.asdict(run), decode=dataclasses.asdict(dc)),
                               out_dir, "resolved_generate_config.json")
    else:
        write_paragraphs(paragraphs, sys.stdout)
    return 0


# -- eval ----------------------------------------------------------------------------


def cmd_eval(args) -> int:
    with open(args.hypotheses) as fh:
        hyps = read_paragraphs(fh)
    if not hyps:
        raise corpus_mod.CorpusError("empty hypothesis file")
    entries = corpus_mod.read_manifest(args.manifest)
    if len(hyps) != len(entries):
        missing = [e["id"] for e in entries[len(hyps):]]
        extra = len(hyps) - len(entries)
        detail = f"missing hypotheses for ids {missing}" if missing else \
            f"{extra} hypotheses beyond the manifest"
        raise corpus_mod.CorpusError(f"id mismatch: {len(hyps)} hypotheses vs {len(entries)} "
                                     f"manifest entries ({detail})")

    pairs = []
    for hyp_sents, entry in zip(hyps, entries):
        ref_tokens = corpus_mod.tokenize(entry["paragraph"])
        if not ref_tokens:
            raise corpus_mod.CorpusError(f"{args.manifest}: entry {entry['id']!r} has a "
                                         f"reference paragraph with no words")
        pairs.append(metrics_mod.EvalPair(corpus_mod.tokenize(" ".join(hyp_sents)), ref_tokens))

    scores = metrics_mod.evaluate_all(pairs)
    display = {k: (v * 100.0 if k != "CIDEr" else v * 10.0) for k, v in scores.items()}
    payload = json.dumps({"raw": scores, "display": display}, sort_keys=True)
    if args.json:  # before the table, so a refused path prints nothing to stdout
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    width = max(len(k) for k in display)
    print(f"{'metric'.ljust(width)}  score")
    for key in ("BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4", "ROUGE-L", "CIDEr"):
        print(f"{key.ljust(width)}  {display[key]:6.1f}")
    if not args.json:
        print(payload)
    return 0


# -- gradcheck ------------------------------------------------------------------------


def gradcheck_report(seed: int = 0):
    """Finite-difference checks for every layer type and the full CE loss.

    Returns a list of (component, max_rel_error) covering each parameterized
    component of the generator, the critic, and the count predictor. The
    critic's rows check the W-GAN critic loss a critic step trains on, two
    fake and two real sequences scored in one pass.
    """
    from . import layers as L
    from .model import ParagraphModel, SentenceCountPredictor
    from .training import Critic, critic_loss

    cfg = ModelConfig(vocab_size=11, max_sentences=2, max_words=4, visual_dim=6,
                      proj_dim=8, topic_dim=8, embed_dim=8, context_dim=8, channels=8,
                      topic_kernel=3, word_kernel=3, topic_depth=2, word_depth=3,
                      pooling="self_attention", attn_layers=(2,), attn_heads=2)
    root = RngState(seed)
    report = []

    def check(name, f, x):
        report.append((name, grad_check(f, x)))

    rng = root.child(90)
    conv = L.CausalConvBlock(rng, 4, 3)
    x = Tensor(rng.normal((1, 5, 4)), requires_grad=True)
    check("layer.causal_conv", lambda t: (conv(t) * conv(t)).sum(), x)

    emb = L.Embedding(rng, 7, 6)
    check("layer.embedding", lambda t: (emb([1, 3, 5]) @ t).sum().tanh(),
          Tensor(rng.normal((6, 2)), requires_grad=True))

    att = L.VisualAttention(rng, 6, 5, 4)
    hq = Tensor(rng.normal((1, 1, 6)), requires_grad=True)
    regions = Tensor(rng.normal((1, 3, 5)))
    check("layer.visual_attention", lambda t: att(t, regions, att.keys(regions))[0].sum(), hq)

    mha = L.MultiHeadSelfAttention(rng, 6, 2)
    check("layer.self_attention", lambda t: (mha(t) * mha(t)).sum(),
          Tensor(rng.normal((1, 3, 6)), requires_grad=True))

    gru = L.BiGruCell(rng, 4, 3)
    check("layer.bigru", lambda t: gru(t).sum(),
          Tensor(rng.normal((1, 4, 4)), requires_grad=True))

    # full model: CE gradient w.r.t. every parameter tensor, checked at a
    # generic random point (small-init attention is nearly uniform, which
    # leaves some gradients too close to finite-difference noise)
    model = ParagraphModel(cfg, root.child(1))
    shake = root.child(92)
    for p in model.named_parameters().values():
        p.data += shake.normal(p.data.shape, scale=0.3)
    pred = SentenceCountPredictor(root.child(4), cfg.proj_dim, cfg.max_sentences,
                                  hidden1=6, hidden2=5)
    critic = Critic(root.child(3), cfg.channels, 4)

    data_rng = root.child(91)
    tokens = data_rng.integers(4, cfg.vocab_size, (1, 2, 4)).astype(np.int64)
    mask = np.ones((1, 2, 4), dtype=bool)
    mask[0, 1, 3] = False
    tokens[0, 1, 3] = 0
    feats = Tensor(data_rng.normal((1, 3, cfg.visual_dim)))
    gfeat = Tensor(data_rng.normal((1, cfg.proj_dim)))
    fake, real = (Tensor(data_rng.normal((2, 5, cfg.channels))) for _ in range(2))

    losses = [
        ("model", model,
         lambda _: cross_entropy(model.paragraph_forward(tokens, mask, feats)[0], tokens, mask)),
        ("predictor", pred, lambda _: cross_entropy(pred(gfeat), np.array([1]))),
        ("critic", critic, lambda _: critic_loss(critic, fake, real)),
    ]
    for prefix, net, loss in losses:
        for name, p in net.named_parameters().items():
            check(f"{prefix}.{name}", loss, p)

    return report


def cmd_gradcheck(args) -> int:
    report = gradcheck_report(seed=_check_seed(args.seed))
    worst = 0.0
    width = max(len(name) for name, _ in report)
    for name, err in report:
        flag = "ok" if err < 1e-4 else "FAIL"
        print(f"{name.ljust(width)}  {err:.3e}  {flag}")
        worst = max(worst, err)
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < 1e-4 else 1


# -- entry point -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="paracnn",
                                description="hierarchical convolutional paragraph generator")
    sub = p.add_subparsers(dest="command", required=True)

    mc = sub.add_parser("make-corpus", help="generate the synthetic scene corpus")
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--size", type=int, required=True)
    mc.add_argument("--max-objects", type=int, default=3, dest="max_objects")
    mc.add_argument("--noise", type=float, default=0.05)
    mc.add_argument("--out", required=True)
    mc.add_argument("--force", action="store_true")
    mc.set_defaults(func=cmd_make_corpus)

    tr = sub.add_parser("train", help="train on a corpus directory")
    tr.add_argument("--data", required=True, help="directory with train/val/test.jsonl")
    tr.add_argument("--out", required=True)
    tr.add_argument("--config", default=None)
    tr.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    tr.add_argument("--resume", default=None)
    tr.add_argument("--quiet", action="store_true")
    tr.set_defaults(func=cmd_train)

    ge = sub.add_parser("generate", help="decode paragraphs from a checkpoint")
    ge.add_argument("--checkpoint", required=True)
    ge.add_argument("--features", required=True, help="PFV1 file or manifest .jsonl")
    ge.add_argument("--sentences", type=int, default=None)
    ge.add_argument("--adaptive", action="store_true")
    ge.add_argument("--min", type=int, default=None)
    ge.add_argument("--max", type=int, default=None)
    ge.add_argument("--rep-penalty", type=float, default=None, dest="rep_penalty")
    ge.add_argument("--block-trigrams", action=argparse.BooleanOptionalAction,
                    default=None, dest="block_trigrams")
    ge.add_argument("--out", default=None)
    ge.set_defaults(func=cmd_generate)

    ev = sub.add_parser("eval", help="score hypotheses against a manifest")
    ev.add_argument("--hypotheses", required=True)
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--json", default=None, help="write machine-readable scores here")
    ev.set_defaults(func=cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference checks on a tiny config")
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, corpus_mod.CorpusError,
            corpus_mod.FeatureFileError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
