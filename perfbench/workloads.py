"""The three benchmark workloads, driven through paracnn's public entry points.

Each workload has a set-up (make inputs from the seed, build or train what the
measured loop needs) and a measured closed loop: one operation after the next
until the run's time share is used, with at least one operation per phase.
``Probe`` records what the end-to-end metrics and the output checks need; it
wraps three public names for the whole run, traced or not.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from paracnn import cli, corpus, decode, training
from paracnn.model import ModelConfig
from paracnn.tensor import RngState
from speed import clock, scaled

# Every measured time is CPU time of this thread, scaled to a reference machine
# speed (speed.py): toy decoding by the interpreter kernel, everything else
# (training, set-up, the full-width GEMMs) by the array kernel. paracnn runs
# here in one thread (BLAS is pinned to one), so on an idle machine CPU time
# equals wall time; unlike wall time, it leaves out the time the process waits
# for a core held by another process or, in a virtual machine, by the host
# (steal time). The run record keeps unscaled CPU and wall times of every
# operation next to it.

# The toy config of scripts/toy_pipeline.sh.
TOY_MODEL = ["model.visual_dim=0", "model.max_sentences=3", "model.max_words=8",
             "model.proj_dim=64", "model.topic_dim=64", "model.embed_dim=64",
             "model.context_dim=64", "model.channels=64", "model.topic_depth=2",
             "model.word_depth=3", "model.attn_layers=[2]", "model.attn_heads=4"]
TWIN = ["twin.mode=l2_plus_adversarial", "twin.critic_hidden=32",
        "train.batch_size=25", "train.lr=0.001"]
GENERATE_MODEL = TOY_MODEL + ["model.max_sentences=6", "model.max_words=10",
                              "model.pooling=self_attention"]
PLAIN = ["twin.mode=none", "train.batch_size=25", "train.lr=0.001"]
# generate flags of scripts/toy_pipeline.sh: every paragraph has three
# sentences of at most max_words, so decode work barely depends on the model
TOY_GENERATE = ["--sentences", "3", "--rep-penalty", "0", "--no-block-trigrams"]

# Sizes per preset. "full" is what the benchmark measures; "smoke" runs every
# workload in a second or two and is also the fixed-input reference case.
SIZES = {
    "full": {
        "toy_twin_train": {"scenes": 124, "epochs": 8},
        "toy_generate": {"scenes": 124, "epochs": 3, "held_out": 200},
        "full_width": {"model": {}, "lexicon": 8664, "regions": (10, 50), "visual_dim": 4096,
                       "batch": 2, "train_batches": 2, "images": 2},
    },
    "smoke": {
        "toy_twin_train": {"scenes": 24, "epochs": 1},
        "toy_generate": {"scenes": 24, "epochs": 1, "held_out": 10},
        "full_width": {"model": {"max_sentences": 3, "max_words": 8, "proj_dim": 16,
                                 "topic_dim": 16, "embed_dim": 16, "context_dim": 16,
                                 "channels": 16, "attn_heads": 2},
                       "lexicon": 60, "regions": (3, 6), "visual_dim": 24,
                       "batch": 2, "train_batches": 2, "images": 1},
    },
}


class OpFailed(RuntimeError):
    """An operation returned a non-zero code or produced no usable output."""


def run_cli(argv):
    """paracnn's CLI in-process, with its printing captured; non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    if rc != 0:
        raise OpFailed(f"paracnn {argv[0]} exited with {rc}: {err.getvalue().strip()}")


def _sets(items):
    return [arg for item in items for arg in ("--set", item)]


def _clean(value):
    return None if value is None or math.isnan(value) else value


class Probe:
    """Per-paragraph decode latency and tokens, and per-step training losses."""

    def __init__(self):
        self.paragraphs = []   # ((start, end) clock, sentences) per decoded paragraph
        self.steps = []        # [ce_fwd, ce_bwd, twin_l2, critic_loss] per train_batch
        self._saved = []

    def install(self):
        probe = self
        train_batch = training.TwinTrainer.train_batch

        def timed(decode_fn):
            def decode_paragraph(*args, **kwargs):
                t0 = clock()
                sentences = decode_fn(*args, **kwargs)
                probe.paragraphs.append(((t0, clock()), sentences))
                return sentences
            return decode_paragraph

        def record_train_batch(trainer, batch, *args, **kwargs):
            s = train_batch(trainer, batch, *args, **kwargs)
            probe.steps.append([_clean(v) for v in (s.ce_fwd, s.ce_bwd, s.twin_l2, s.critic_loss)])
            return s

        # the two names cmd_generate decodes a paragraph with
        self._saved = [(cli, "decode_adaptive", cli.decode_adaptive),
                       (cli, "greedy_decode", cli.greedy_decode),
                       (training.TwinTrainer, "train_batch", train_batch)]
        cli.decode_adaptive = timed(cli.decode_adaptive)
        cli.greedy_decode = timed(cli.greedy_decode)
        training.TwinTrainer.train_batch = record_train_batch
        return self

    def restore(self):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)

    def take(self):
        """Return and clear what was recorded since the last take."""
        paragraphs, steps = self.paragraphs, self.steps
        self.paragraphs, self.steps = [], []
        return paragraphs, steps


@dataclasses.dataclass
class Measurement:
    """What one pass of a measured loop did."""

    train: list = dataclasses.field(default_factory=list)    # (paragraphs, seconds) per phase
    decode: list = dataclasses.field(default_factory=list)   # (words, seconds) per phase
    latencies_s: list = dataclasses.field(default_factory=list)
    op_s: dict = dataclasses.field(default_factory=dict)      # op key -> CPU seconds
    op_walls: dict = dataclasses.field(default_factory=dict)  # op key -> wall seconds
    outputs: dict = dataclasses.field(default_factory=dict)    # op key -> checked output
    failures: dict = dataclasses.field(default_factory=dict)   # op key -> why it failed
    attempted: int = 0


def _tokens(paragraphs):
    return [[list(map(int, s)) for s in sentences] for _, sentences in paragraphs]


def _latencies(paragraphs):
    """Per-paragraph decode times; scaled after the phase, when the samples
    around its last paragraph exist too."""
    return [scaled(t0, t1, "interpreter") for (t0, t1), _ in paragraphs]


def _words(paragraphs):
    return sum(len(s) for _, sentences in paragraphs for s in sentences)


def _read_json_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_scores(path):
    with open(path) as fh:
        return json.load(fh)["raw"]


def _closed_loop(budget_s, op, m, tracer, max_ops=None, kind="op"):
    """Run ``op(i)`` at least once and again while time is left."""
    t0 = time.perf_counter()
    i = 0
    while i == 0 or (time.perf_counter() - t0 < budget_s and (max_ops is None or i < max_ops)):
        m.attempted += 1
        w0 = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                op(i)
            m.op_walls[f"{kind}{i}"] = time.perf_counter() - w0
        except (OpFailed, training.TrainingDiverged) as exc:
            m.failures[f"{kind}{i}"] = str(exc)
        except Exception as exc:  # a broken program fails the op, not the run
            traceback.print_exc(file=sys.stderr)
            m.failures[f"{kind}{i}"] = f"{type(exc).__name__}: {exc}"
        i += 1


class ToyTwinTrain:
    """``paracnn train`` with twin l2_plus_adversarial, then generate and eval."""

    name = "toy_twin_train"
    setup_repeats = 30      # make-corpus alone takes ten to twenty milliseconds
    trains_in_setup = False
    repeats_one_op = True   # every op trains and decodes the same inputs
    # the 124 scenes are decoded twice, so that the decode phase lasts several
    # seconds of a ~20 s operation; both passes must give the same tokens
    DECODE_PASSES = 2

    def __init__(self, sizes):
        self.sizes = sizes[self.name]

    def setup(self, seed, work, probe):
        data = os.path.join(work, "data")
        run_cli(["make-corpus", "--seed", str(seed), "--size", str(self.sizes["scenes"]),
                 "--out", data, "--force"])
        return {"seed": seed, "work": work, "data": data}

    def measure(self, state, seconds, probe, tracer, max_ops=None):
        m = Measurement()
        data, epochs = state["data"], self.sizes["epochs"]
        n_train = len(corpus.read_manifest(os.path.join(data, "train.jsonl")))
        # every scene, so that the p90 decode latency has a dozen samples beyond it
        scenes = os.path.join(data, "manifest.jsonl")

        def op(i):
            out = os.path.join(state["work"], f"run{i}")
            shutil.rmtree(out, ignore_errors=True)
            probe.take()
            t0 = clock()
            try:
                run_cli(["train", "--data", data, "--out", out, "--quiet"]
                        + _sets(TOY_MODEL + TWIN + [f"train.epochs={epochs}",
                                                    f"seed={state['seed']}"]))
                t1 = clock()
                _, steps = probe.take()
                hyp = os.path.join(out, "hyp.txt")
                passes = []
                for _ in range(self.DECODE_PASSES):
                    run_cli(["generate", "--checkpoint", os.path.join(out, "best.pckpt"),
                             "--features", scenes, "--out", hyp] + TOY_GENERATE)
                    passes.append(probe.take()[0])
                t2 = clock()
                scores = os.path.join(out, "scores.json")
                run_cli(["eval", "--hypotheses", hyp, "--manifest", scenes, "--json", scores])
                m.op_s[f"op{i}"] = clock() - t0
                paragraphs = [p for ps in passes for p in ps]
                if any(_tokens(ps) != _tokens(passes[0]) for ps in passes):
                    raise OpFailed("two generate passes over the same scenes disagree")
                m.train.append((epochs * n_train, scaled(t0, t1, "array")))
                m.decode.append((_words(paragraphs), scaled(t1, t2, "interpreter")))
                m.latencies_s += _latencies(paragraphs)
                log = _read_json_lines(os.path.join(out, "log.jsonl"))
                m.outputs[f"op{i}"] = {"steps": steps, "val_ce": [r["val_ce"] for r in log],
                                       "tokens": _tokens(passes[0]),
                                       "scores": _read_scores(scores)}
            finally:
                shutil.rmtree(out, ignore_errors=True)

        _closed_loop(seconds, op, m, tracer, max_ops)
        return m


class ToyGenerate:
    """``paracnn generate --adaptive`` and ``paracnn eval`` over a held-out manifest.

    The checkpoint is the same in every run: its corpus and its training use
    CHECKPOINT_SEED. The seed picks the held-out scenes, so decode time
    depends on the inputs and not on how well a brief training happened to go.
    """

    name = "toy_generate"
    setup_repeats = 3
    trains_in_setup = True  # the checkpoint is trained in set-up
    repeats_one_op = True
    CHECKPOINT_SEED = 0

    def __init__(self, sizes):
        self.sizes = sizes[self.name]

    def setup(self, seed, work, probe):
        data, held, run = (os.path.join(work, d) for d in ("data", "held_out", "run"))
        run_cli(["make-corpus", "--seed", str(self.CHECKPOINT_SEED),
                 "--size", str(self.sizes["scenes"]), "--max-objects", "6", "--out", data,
                 "--force"])
        # seeds are >= 0, so the held-out corpus never repeats the training one
        run_cli(["make-corpus", "--seed", str(seed + 1),
                 "--size", str(self.sizes["held_out"]), "--max-objects", "6",
                 "--out", held, "--force"])
        epochs = self.sizes["epochs"]
        probe.take()
        t0 = clock()
        run_cli(["train", "--data", data, "--out", run, "--quiet"]
                + _sets(GENERATE_MODEL + PLAIN + [f"train.epochs={epochs}",
                                                  f"seed={self.CHECKPOINT_SEED}"]))
        train_s = scaled(t0, clock(), "array")
        n_train = len(corpus.read_manifest(os.path.join(data, "train.jsonl")))
        log = _read_json_lines(os.path.join(run, "log.jsonl"))
        return {"work": work, "held_out": os.path.join(held, "manifest.jsonl"),
                "checkpoint": os.path.join(run, "best.pckpt"),
                "train_items": epochs * n_train, "train_s": train_s,
                "setup_val_ce": log[-1]["val_ce"], "setup_steps": probe.take()[1]}

    def measure(self, state, seconds, probe, tracer, max_ops=None):
        m = Measurement()
        manifest = state["held_out"]

        def op(i):
            hyp = os.path.join(state["work"], "hyp.txt")
            scores = os.path.join(state["work"], "scores.json")
            probe.take()
            t0 = clock()
            run_cli(["generate", "--checkpoint", state["checkpoint"], "--features", manifest,
                     "--adaptive", "--out", hyp])
            t1 = clock()
            run_cli(["eval", "--hypotheses", hyp, "--manifest", manifest, "--json", scores])
            m.op_s[f"op{i}"] = clock() - t0
            paragraphs, _ = probe.take()
            m.decode.append((_words(paragraphs), scaled(t0, t1, "interpreter")))
            m.latencies_s += _latencies(paragraphs)
            m.outputs[f"op{i}"] = {"steps": state["setup_steps"],
                                   "val_ce": [state["setup_val_ce"]],
                                   "tokens": _tokens(paragraphs), "scores": _read_scores(scores)}

        _closed_loop(seconds, op, m, tracer, max_ops)
        return m


class FullWidth:
    """The paper's default model: ``TwinTrainer.train_batch`` and ``greedy_decode``.

    Inputs are PFV1 files with 10 to 50 regions and paragraphs of six 29-word
    sentences drawn from a lexicon in which every word occurs at least twice,
    so ``build_vocab(min_freq=2)`` keeps all of it.
    """

    name = "full_width"
    setup_repeats = 5
    trains_in_setup = False
    repeats_one_op = False  # every train step moves the model on
    DECODE_SENTENCES = 2
    DECODE_SHARE = 0.1   # of the run's seconds; the rest is training

    def __init__(self, sizes):
        self.sizes = sizes[self.name]

    def setup(self, seed, work, probe):
        z = self.sizes
        cfg_kwargs = dict(z["model"], visual_dim=z["visual_dim"])
        M = cfg_kwargs.get("max_sentences", ModelConfig.max_sentences)
        N = cfg_kwargs.get("max_words", ModelConfig.max_words)
        rng = RngState(seed).child(5)
        lexicon = [f"w{i:05d}" for i in range(z["lexicon"])]
        per_paragraph = M * (N - 1)
        stream = [lexicon[i] for i in np.concatenate([rng.permutation(len(lexicon))] * 2)]
        n_items = z["batch"] * z["train_batches"] + z["images"]
        n_par = max(-(-len(stream) // per_paragraph), n_items)
        extra = rng.integers(0, len(lexicon), n_par * per_paragraph - len(stream))
        stream += [lexicon[i] for i in extra]
        paragraphs = []
        for p in range(n_par):
            words = stream[p * per_paragraph:(p + 1) * per_paragraph]
            paragraphs.append(" ".join(" ".join(words[s * (N - 1):(s + 1) * (N - 1)]) + "."
                                       for s in range(M)))
        vocab = corpus.build_vocab(paragraphs, min_freq=2)

        features = os.path.join(work, "features")
        os.makedirs(features, exist_ok=True)
        entries = []
        for i in range(n_items):
            regions = int(rng.integers(z["regions"][0], z["regions"][1] + 1))
            rel = os.path.join("features", f"item{i:03d}.pfv")
            corpus.save_features(os.path.join(work, rel),
                                 rng.normal((regions, z["visual_dim"])))
            entries.append({"id": f"item{i:03d}", "feature_path": rel,
                            "paragraph": paragraphs[i]})
        cfg = ModelConfig(vocab_size=len(vocab), **cfg_kwargs)
        trainer = training.TwinTrainer(cfg, training.TwinConfig(mode="none"), seed, 4e-4,
                                       start_index=vocab.start)
        B, T = z["batch"], z["train_batches"]
        return {"work": work, "vocab": vocab, "trainer": trainer,
                "batches": [entries[b * B:(b + 1) * B] for b in range(T)],
                "images": entries[T * B:]}

    def measure(self, state, seconds, probe, tracer, max_ops=None):
        m = Measurement()
        trainer, vocab, work = state["trainer"], state["vocab"], state["work"]
        cfg = trainer.cfg
        dc = decode.DecodeConfig(num_sentences=self.DECODE_SENTENCES)

        # the decode phase runs first, so it sees the seeded untrained model
        def decode_op(i):
            image = state["images"][i % len(state["images"])]
            t0 = clock()
            feats = corpus.load_features(os.path.join(work, image["feature_path"]))
            sentences = decode.greedy_decode(trainer.model, feats, dc, vocab)
            t1 = clock()
            m.op_s[f"decode{i}"] = t1 - t0
            m.latencies_s.append(scaled(t0, t1, "array"))
            m.decode.append((sum(len(s) for s in sentences), scaled(t0, t1, "array")))
            m.outputs[f"decode{i}"] = {"tokens": [[list(map(int, s)) for s in sentences]]}
            if any(not 0 <= t < cfg.vocab_size for s in sentences for t in s):
                raise OpFailed("decoded token outside the vocabulary")

        _closed_loop(seconds * self.DECODE_SHARE, decode_op, m, tracer, max_ops, "decode")

        def train_op(i):
            """One pass over the training batches, one train_batch each."""
            t0 = clock()
            losses, items = [], 0
            for chunk in state["batches"]:
                batch = corpus.batch_from_entries(chunk, vocab, cfg.max_sentences,
                                                  cfg.max_words, base_dir=work)
                losses.append(trainer.train_batch(batch).ce_fwd)
                items += batch.size
            t1 = clock()
            m.op_s[f"train{i}"] = t1 - t0
            m.train.append((items, scaled(t0, t1, "array")))
            m.outputs[f"train{i}"] = {"steps": losses}
            if not all(math.isfinite(x) for x in losses):
                raise OpFailed(f"non-finite training loss in {losses}")

        _closed_loop(seconds * (1.0 - self.DECODE_SHARE), train_op, m, tracer, max_ops, "train")
        probe.take()
        return m

WORKLOADS = {w.name: w for w in (ToyTwinTrain, ToyGenerate, FullWidth)}
