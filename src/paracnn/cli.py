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
                     sentences_to_text, write_paragraphs)
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
    """RunConfig from one raw dict per section (model, twin, train); others are ignored."""
    return RunConfig(
        seed=seed,
        model=_build_section(ModelConfig, sections["model"], "model"),
        twin=_build_section(TwinConfig, sections["twin"], "twin"),
        train=_build_section(TrainConfig, sections["train"], "train"),
    )


def _check_seed(seed):
    """``seed``, or a ConfigError unless it is an integer >= 0 (bools are not)."""
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def load_run_config(path=None, overrides=(), default_vocab_size: int = None,
                    default_visual_dim: int = None) -> RunConfig:
    raw = {}
    if path:
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ConfigError(f"{path}: not a JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    known = {"seed", "model", "twin", "train"}
    unknown = set(raw) - known
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
        if section not in known:
            raise ConfigError(f"unknown config section {section!r}")
        raw.setdefault(section, {})[field] = value

    seed = _check_seed(raw.get("seed", 0))
    sections = {name: dict(raw.get(name, {})) for name in ("model", "twin", "train")}
    model_raw = sections["model"]
    if "vocab_size" not in model_raw:
        if default_vocab_size is None:
            raise ConfigError("model.vocab_size is required (or derivable from data)")
        model_raw["vocab_size"] = default_vocab_size
    if model_raw.get("visual_dim") == 0:
        # 0 means: take the dimension from the data
        if default_visual_dim is None:
            raise ConfigError("model.visual_dim=0 needs feature data to infer from")
        model_raw["visual_dim"] = default_visual_dim
    return _run_config(seed, sections)


def _write_resolved_config(config: dict, out_dir: str, name: str):
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- make-corpus -----------------------------------------------------------------


def cmd_make_corpus(args) -> int:
    if args.size < 3:
        print(f"error: --size {args.size} is below 3: the train, val and test splits "
              f"need a scene each", file=sys.stderr)
        return 1
    out_dir = args.out
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not args.force:
        print(f"error: {out_dir} is not empty (use --force to overwrite)", file=sys.stderr)
        return 1
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
    with open(os.path.join(out_dir, "corpus_config.json"), "w") as fh:
        json.dump({"seed": args.seed, "size": args.size,
                   "max_objects": args.max_objects, "noise": args.noise,
                   "split": {k: len(v) for k, v in splits.items()}},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.size} scenes to {out_dir} "
          f"(train/val/test = {n_train}/{n_val}/{n_test})")
    return 0


# -- train ------------------------------------------------------------------------


def _load_split(data_dir: str, name: str):
    path = os.path.join(data_dir, f"{name}.jsonl")
    return corpus_mod.read_manifest(path)


def build_trainer(run: RunConfig, vocab) -> TwinTrainer:
    return TwinTrainer(run.model, run.twin, run.seed, run.train.lr,
                       start_index=vocab.start)


def cmd_train(args) -> int:
    data_dir = args.data
    train_entries = _load_split(data_dir, "train")
    val_entries = _load_split(data_dir, "val")

    vocab = corpus_mod.build_vocab([e["paragraph"] for e in train_entries])

    feat_dim = corpus_mod.load_features(
        os.path.join(data_dir, train_entries[0]["feature_path"])).shape[1]
    run = load_run_config(args.config, args.set or [], default_vocab_size=len(vocab),
                          default_visual_dim=feat_dim)
    if run.model.vocab_size != len(vocab):
        print(f"error: config vocab_size {run.model.vocab_size} != corpus vocabulary "
              f"{len(vocab)}", file=sys.stderr)
        return 1
    if run.model.visual_dim != feat_dim:
        print(f"error: config visual_dim {run.model.visual_dim} != feature dim "
              f"{feat_dim}", file=sys.stderr)
        return 1

    trainer = build_trainer(run, vocab)
    done = _resume(trainer, args.resume, vocab) if args.resume else 0

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
            print(f"error: {out_dir} is locked by another training run ({lock_path})",
                  file=sys.stderr)
            return 1
        try:
            return _train_loop(run, vocab, trainer, done, train_entries, val_entries,
                               data_dir, out_dir, args.quiet)
        finally:
            os.remove(lock_path)


def _resume(trainer, path, vocab) -> int:
    """Load checkpoint ``path`` into ``trainer``; returns its epoch. Nothing read is kept."""
    meta, arrays = _read_checkpoint_meta(path, ("vocab", "epoch"))
    if meta["vocab"] != vocab.tokens:
        raise CheckpointError(f"{path}: trained with a different vocabulary")
    load_trainer_arrays(trainer, arrays)
    return meta["epoch"]


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
                print(f"error: training diverged in epoch {epoch}: {exc}; "
                      f"last good checkpoint is from epoch {epoch - 1}", file=sys.stderr)
                return 1
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


def _read_checkpoint_meta(path, keys):
    """read_checkpoint, plus CheckpointError when the metadata lacks or mistypes one of ``keys``."""
    meta, arrays = read_checkpoint(path)
    for key in keys:
        if key not in meta:
            raise CheckpointError(f"{path}: checkpoint metadata lacks {key!r}")
        what, ok = _META_TYPES[key]
        if not ok(meta[key]):
            raise CheckpointError(f"{path}: checkpoint metadata {key!r} must be {what}")
    return meta, arrays


def load_checkpoint_trainer(path):
    """(trainer, run, vocab) for decoding; the trainer holds no backward network or critic."""
    meta, arrays = _read_checkpoint_meta(path, ("config", "vocab", "seed"))
    config = meta["config"]
    for name in ("model", "twin", "train"):
        if not isinstance(config.get(name), dict):
            raise CheckpointError(f"{path}: checkpoint config lacks a {name!r} section")
    try:  # the decode section that older checkpoints carry is ignored
        run = _run_config(meta["seed"], config)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if len(meta["vocab"]) != run.model.vocab_size:
        raise CheckpointError(f"{path}: checkpoint metadata 'vocab' has {len(meta['vocab'])} "
                              f"tokens, not model.vocab_size={run.model.vocab_size}")
    try:
        vocab = corpus_mod.Vocab(meta["vocab"])
    except corpus_mod.CorpusError as exc:
        raise CheckpointError(f"{path}: checkpoint metadata 'vocab': {exc}") from exc
    trainer = build_trainer(dataclasses.replace(run, twin=TwinConfig()), vocab)
    # decoding never steps an optimizer, so its state is left as built
    load_trainer_arrays(trainer, {k: v for k, v in arrays.items() if not k.startswith("opt.")})
    return trainer, run, vocab


def cmd_generate(args) -> int:
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

    texts = []  # written after the last image; only one image's features are held
    for path in paths:
        f = corpus_mod.load_features_of_dim(path, run.model.visual_dim)
        if dc.adaptive:
            sents = decode_adaptive(trainer.model, trainer.predictor, f, dc, vocab)
        else:
            sents = greedy_decode(trainer.model, f, dc, vocab)
        texts.append(sentences_to_text(sents, vocab))

    if args.out:
        with open(args.out, "w") as fh:
            write_paragraphs(texts, fh)
        _write_resolved_config(dict(dataclasses.asdict(run), decode=dataclasses.asdict(dc)),
                               os.path.dirname(os.path.abspath(args.out)),
                               "resolved_generate_config.json")
    else:
        write_paragraphs(texts, sys.stdout)
    return 0


# -- eval ----------------------------------------------------------------------------


def cmd_eval(args) -> int:
    with open(args.hypotheses) as fh:
        hyps = read_paragraphs(fh)
    if not hyps:
        print("error: empty hypothesis file", file=sys.stderr)
        return 1
    entries = corpus_mod.read_manifest(args.manifest)
    if len(hyps) != len(entries):
        missing = [e["id"] for e in entries[len(hyps):]]
        extra = len(hyps) - len(entries)
        detail = f"missing hypotheses for ids {missing}" if missing else \
            f"{extra} hypotheses beyond the manifest"
        print(f"error: id mismatch: {len(hyps)} hypotheses vs {len(entries)} "
              f"manifest entries ({detail})", file=sys.stderr)
        return 1

    pairs = []
    for hyp_sents, entry in zip(hyps, entries):
        hyp_tokens = []
        for line in hyp_sents:
            hyp_tokens.extend(corpus_mod.tokenize(line))
        ref_tokens = []
        for sent in corpus_mod.split_sentences(entry["paragraph"]):
            ref_tokens.extend(corpus_mod.tokenize(sent))
        if not ref_tokens:
            raise corpus_mod.CorpusError(f"{args.manifest}: entry {entry['id']!r} has a "
                                         f"reference paragraph with no words")
        pairs.append(metrics_mod.EvalPair(hyp_tokens, ref_tokens))

    scores = metrics_mod.evaluate_all(pairs)
    display = {k: (v * 100.0 if k != "CIDEr" else v * 10.0) for k, v in scores.items()}
    width = max(len(k) for k in display)
    print(f"{'metric'.ljust(width)}  score")
    for key in ("BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4", "ROUGE-L", "CIDEr"):
        print(f"{key.ljust(width)}  {display[key]:6.1f}")
    payload = json.dumps({"raw": scores, "display": display}, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


# -- gradcheck ------------------------------------------------------------------------


def gradcheck_report(seed: int = 0):
    """Finite-difference checks for every layer type and the full CE loss.

    Returns a list of (component, max_rel_error) covering each parameterized
    component of the generator, the critic, and the count predictor.
    """
    from . import layers as L
    from .model import ParagraphModel, SentenceCountPredictor
    from .training import Critic

    cfg = ModelConfig(vocab_size=11, max_sentences=2, max_words=4, visual_dim=6,
                      proj_dim=8, topic_dim=8, embed_dim=8, context_dim=8, channels=8,
                      topic_kernel=3, word_kernel=3, topic_depth=2, word_depth=3,
                      pooling="self_attention", attn_layers=(2,), attn_heads=2)
    root = RngState(seed)
    report = []

    def check(name, f, x):
        report.append((name, grad_check(f, x)))

    rng = root.child(90)
    conv = L.CausalConvBlock(rng, 4, 4, 3)
    x = Tensor(rng.normal((1, 5, 4)), requires_grad=True)
    check("layer.causal_conv", lambda t: (conv(t) * conv(t)).sum(), x)

    emb = L.Embedding(rng, 7, 6)
    check("layer.embedding", lambda t: (emb([1, 3, 5]) @ t).sum().tanh(),
          Tensor(rng.normal((6, 2)), requires_grad=True))

    att = L.VisualAttention(rng, 6, 5, 4)
    hq = Tensor(rng.normal((1, 1, 6)), requires_grad=True)
    regions = Tensor(rng.normal((1, 3, 5)))
    check("layer.visual_attention", lambda t: att(t, regions)[0].sum(), hq)

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
    data_rng = root.child(91)
    tokens = data_rng.integers(4, cfg.vocab_size, (1, 2, 4)).astype(np.int64)
    mask = np.ones((1, 2, 4), dtype=bool)
    mask[0, 1, 3] = False
    tokens[0, 1, 3] = 0
    feats = Tensor(data_rng.normal((1, 3, cfg.visual_dim)))

    def model_loss(_):
        logits, _ = model.paragraph_forward(tokens, mask, feats)
        return cross_entropy(logits, tokens, mask)

    for name, p in model.named_parameters().items():
        check(f"model.{name}", model_loss, p)

    pred = SentenceCountPredictor(root.child(4), cfg.proj_dim, cfg.max_sentences,
                                  hidden1=6, hidden2=5)
    gfeat = Tensor(data_rng.normal((1, cfg.proj_dim)))

    def pred_loss(_):
        return cross_entropy(pred(gfeat), np.array([1]))

    for name, p in pred.named_parameters().items():
        check(f"predictor.{name}", pred_loss, p)

    critic = Critic(root.child(3), cfg.channels, 4)
    hseq = Tensor(data_rng.normal((1, 5, cfg.channels)))

    def critic_loss(_):
        return critic.score(hseq).mean()

    for name, p in critic.named_parameters().items():
        check(f"critic.{name}", critic_loss, p)

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
            corpus_mod.FeatureFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
