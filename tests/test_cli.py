import contextlib
import dataclasses
import fcntl
import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from paracnn import cli
from paracnn.checkpoint import read_checkpoint, write_checkpoint
from paracnn.cli import ConfigError, load_run_config, main
from paracnn.corpus import (build_vocab, load_features, read_manifest, save_features, tokenize,
                            write_manifest)
from paracnn.decode import DecodeConfig
from paracnn.metrics import EvalPair, evaluate_all
from paracnn.tensor import Tensor
from paracnn.training import CRITIC_LR, CRITIC_STEPS, WEIGHT_CLIP

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_OVERRIDES = [
    "model.proj_dim=16", "model.topic_dim=16", "model.embed_dim=16",
    "model.context_dim=16", "model.channels=16", "model.max_sentences=3",
    "model.max_words=8", "model.topic_kernel=3", "model.word_kernel=3",
    "model.topic_depth=2", "model.word_depth=3", "model.attn_layers=[2]",
    "model.attn_heads=2", "model.visual_dim=0",
    "train.epochs=2", "train.batch_size=8", "train.lr=0.002",
]


def run_cli(*argv):
    return main(list(argv))


def run_config(path=None, overrides=()):
    """``load_run_config`` as ``train`` calls it on a corpus of 10 tokens and width 6."""
    return load_run_config(path, overrides, default_vocab_size=10, default_visual_dim=6)


def cli_env():
    """The environment for a ``python -m paracnn.cli`` subprocess on this tree's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    assert run_cli("make-corpus", "--seed", "3", "--size", "40", "--noise", "0",
                   "--out", str(d)) == 0
    return d


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, corpus_dir):
    d = tmp_path_factory.mktemp("run")
    args = ["train", "--data", str(corpus_dir), "--out", str(d), "--quiet"]
    for ov in TINY_OVERRIDES:
        args += ["--set", ov]
    assert run_cli(*args) == 0
    return d


@pytest.fixture(scope="module")
def twin_dir(tmp_path_factory, corpus_dir):
    """One epoch of l2_plus_adversarial training: the checkpoint holds every network."""
    d = tmp_path_factory.mktemp("twin_run")
    args = ["train", "--data", str(corpus_dir), "--out", str(d), "--quiet"]
    for ov in TINY_OVERRIDES + ["train.epochs=1", "twin.mode=l2_plus_adversarial",
                                "twin.critic_hidden=4"]:
        args += ["--set", ov]
    assert run_cli(*args) == 0
    return d


ATTN_OVERRIDES = TINY_OVERRIDES + ["model.pooling=self_attention", "train.epochs=1"]


@pytest.fixture(scope="module")
def attn_dir(tmp_path_factory, corpus_dir):
    """One epoch with self-attention pooling: the checkpoint holds ``fwd.ctx_attn``."""
    d = tmp_path_factory.mktemp("attn_run")
    args = ["train", "--data", str(corpus_dir), "--out", str(d), "--quiet"]
    for ov in ATTN_OVERRIDES:
        args += ["--set", ov]
    assert run_cli(*args) == 0
    return d


def generate_bytes(checkpoint, corpus_dir, out):
    assert run_cli("generate", "--checkpoint", str(checkpoint),
                   "--features", str(corpus_dir / "test.jsonl"),
                   "--sentences", "3", "--out", str(out)) == 0
    return out.read_bytes()


class TestMakeCorpus:
    def test_split_sizes(self, corpus_dir):
        train = read_manifest(corpus_dir / "train.jsonl")
        val = read_manifest(corpus_dir / "val.jsonl")
        test = read_manifest(corpus_dir / "test.jsonl")
        assert (len(train), len(val), len(test)) == (32, 4, 4)

    def test_ten_items_split_8_1_1(self, tmp_path):
        out = tmp_path / "ten"
        assert run_cli("make-corpus", "--seed", "1", "--size", "10", "--out", str(out)) == 0
        assert len(read_manifest(out / "train.jsonl")) == 8
        assert len(read_manifest(out / "val.jsonl")) == 1
        assert len(read_manifest(out / "test.jsonl")) == 1

    def test_refuses_nonempty_dir_without_force(self, tmp_path, capsys):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert run_cli("make-corpus", "--seed", "1", "--size", "4", "--out", str(out)) == 1
        assert "--force" in capsys.readouterr().err
        assert run_cli("make-corpus", "--seed", "1", "--size", "4", "--out", str(out),
                       "--force") == 0

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("make-corpus", "--seed", "9", "--size", "12", "--out", str(out)) == 0
        for name in ("manifest.jsonl", "train.jsonl", "val.jsonl", "test.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        for f in sorted(os.listdir(a / "features")):
            assert (a / "features" / f).read_bytes() == (b / "features" / f).read_bytes()

    def test_small_corpus_gives_every_split_a_scene(self, tmp_path):
        data, out = tmp_path / "five", tmp_path / "run"
        assert run_cli("make-corpus", "--seed", "1", "--size", "5", "--out", str(data)) == 0
        assert [len(read_manifest(data / f"{name}.jsonl"))
                for name in ("train", "val", "test")] == [3, 1, 1]
        args = ["train", "--data", str(data), "--out", str(out), "--quiet"]
        for ov in TINY_OVERRIDES + ["train.epochs=1"]:
            args += ["--set", ov]
        assert run_cli(*args) == 0
        assert [json.loads(line)["epoch"] for line in (out / "log.jsonl").open()] == [1]

    def test_feature_files_load(self, corpus_dir):
        entry = read_manifest(corpus_dir / "train.jsonl")[0]
        feats = load_features(corpus_dir / entry["feature_path"])
        assert feats.ndim == 2 and feats.shape[0] >= 2


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"vocab_size": 10, "warp_factor": 9}}))
        with pytest.raises(ConfigError, match="warp_factor"):
            run_config(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"vocab_size": 10}, "extras": {}}))
        with pytest.raises(ConfigError, match="extras"):
            run_config(cfg)

    @pytest.mark.parametrize("config", [None, {"seed": 3}])
    def test_seed_is_not_a_section(self, tmp_path, config):
        path = None
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
        with pytest.raises(ConfigError, match="unknown config section 'seed'"):
            run_config(path, ["seed.x=1"])

    def test_override_parsing(self):
        run = run_config(None, ["model.channels=32", "model.topic_dim=32", "seed=7",
                                "twin.mode=l2"])
        assert run.model.channels == 32
        assert run.seed == 7
        assert run.twin.mode == "l2"

    def test_defaults_mirror_reference_setup(self):
        run = run_config()
        assert run.train.epochs == 40
        assert run.train.lr == 4e-4
        assert run.model.max_sentences == 6
        assert run.model.max_words == 30
        assert run.model.visual_dim == 4096
        assert (run.model.proj_dim, run.model.topic_dim, run.model.embed_dim,
                run.model.context_dim, run.model.channels) == (512,) * 5
        assert (run.model.topic_kernel, run.model.word_kernel) == (5, 5)
        assert (run.model.topic_depth, run.model.word_depth) == (4, 5)
        assert run.model.attn_layers == (2, 4)
        assert (CRITIC_LR, CRITIC_STEPS, WEIGHT_CLIP) == (2e-4, 5, 0.01)
        assert dataclasses.asdict(DecodeConfig()) == {
            "num_sentences": 6, "adaptive": False, "min_sentences": 1, "max_sentences": 6,
            "max_words": None, "rep_penalty": 2.0, "block_trigrams": True}

    def test_removed_twin_alignment_key_rejected(self, corpus_dir, tmp_path, capsys):
        # the twin alignment and the critic schedule are no longer configurable
        for removed in ("twin.reverse_granularity=sentence", "twin.critic_steps=3"):
            args = ["train", "--data", str(corpus_dir), "--out", str(tmp_path / "run"),
                    "--quiet", "--set", removed]
            for ov in TINY_OVERRIDES:
                args += ["--set", ov]
            assert run_cli(*args) == 1
            assert "unknown key(s) in [twin]" in capsys.readouterr().err

    def test_decode_section_rejected(self, corpus_dir, tmp_path, capsys):
        # decode settings are generate flags, not part of a run's config
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"decode": {"rep_penalty": 0}}))
        for extra, message in ((["--set", "decode.rep_penalty=0"], "section 'decode'"),
                               (["--config", str(cfg)], "top-level config key(s): ['decode']")):
            args = ["train", "--data", str(corpus_dir), "--out", str(tmp_path / "run"),
                    "--quiet", *extra]
            for ov in TINY_OVERRIDES:
                args += ["--set", ov]
            assert run_cli(*args) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert not (tmp_path / "run").exists()

    def test_nan_abort_retains_checkpoints(self, corpus_dir, tmp_path, capsys,
                                           monkeypatch):
        from paracnn import cli as cli_module
        from paracnn.training import TrainingDiverged, train_epoch as real_epoch
        calls = {"n": 0}

        def exploding_epoch(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise TrainingDiverged("probe")
            return real_epoch(*args, **kwargs)

        monkeypatch.setattr(cli_module, "train_epoch", exploding_epoch)
        out = tmp_path / "diverge"
        args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet"]
        for ov in TINY_OVERRIDES:
            args += ["--set", ov]
        assert run_cli(*args) == 1
        assert "last good checkpoint is from epoch 1" in capsys.readouterr().err
        assert (out / "checkpoint_ep0001.pckpt").exists()


class TestTrain:
    def test_outputs_exist(self, train_dir):
        assert (train_dir / "log.jsonl").exists()
        assert (train_dir / "resolved_config.json").exists()
        assert (train_dir / "best.pckpt").exists()
        assert (train_dir / "checkpoint_ep0002.pckpt").exists()

    def test_loss_decreases_from_initial(self, train_dir):
        records = [json.loads(l) for l in (train_dir / "log.jsonl").open()]
        assert records[0]["epoch"] == 1
        assert records[-1]["ce_fwd"] < np.log(28)  # below uniform-logits level

    def test_log_fields(self, train_dir):
        rec = json.loads((train_dir / "log.jsonl").open().readline())
        for key in ("epoch", "ce_fwd", "ce_bwd", "twin_l2", "critic_loss", "wallclock",
                    "critic_updates", "generator_updates", "val_ce"):
            assert key in rec

    @pytest.mark.parametrize("mode, computed", [
        ("none", ()),
        ("l2", ("ce_bwd", "twin_l2")),
        ("adversarial", ("ce_bwd", "critic_loss")),
        ("l2_plus_adversarial", ("ce_bwd", "twin_l2", "critic_loss")),
    ])
    def test_log_nulls_the_losses_a_mode_skips(self, corpus_dir, tmp_path, mode, computed):
        out = tmp_path / mode
        args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet"]
        for ov in TINY_OVERRIDES + ["train.epochs=1", f"twin.mode={mode}",
                                    "twin.critic_hidden=4"]:
            args += ["--set", ov]
        assert run_cli(*args) == 0
        (rec,) = [json.loads(line) for line in (out / "log.jsonl").open()]
        assert sorted(rec) == sorted(["epoch", "ce_fwd", "ce_bwd", "twin_l2", "critic_loss",
                                      "critic_updates", "generator_updates", "val_ce",
                                      "wallclock"])
        for key in ("ce_fwd", "ce_bwd", "twin_l2", "critic_loss"):
            if key == "ce_fwd" or key in computed:
                assert type(rec[key]) is float and np.isfinite(rec[key]), key
            else:
                assert rec[key] is None, key

    def test_feature_memory_does_not_grow_with_the_split(self, tmp_path, monkeypatch):
        # feature arrays alive at once, at any split size: one batch of 4, and the
        # next while it is built (train drops the file it reads for the width)
        load = cli.corpus_mod.load_features
        live = {"now": 0, "peak": 0}

        def release():
            live["now"] -= 1

        def counted_load(path, visual_dim=None):
            arr = load(path, visual_dim)
            weakref.finalize(arr, release)
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])
            return arr

        monkeypatch.setattr(cli.corpus_mod, "load_features", counted_load)
        peaks = []
        for size in (20, 60):  # 16 and 48 training scenes, 2 and 6 for validation
            data, out = tmp_path / f"corpus{size}", tmp_path / f"run{size}"
            assert run_cli("make-corpus", "--size", str(size), "--out", str(data)) == 0
            live["peak"] = 0
            args = ["train", "--data", str(data), "--out", str(out), "--quiet"]
            for ov in TINY_OVERRIDES + ["train.epochs=2", "train.batch_size=4"]:
                args += ["--set", ov]
            assert run_cli(*args) == 0
            assert live["now"] == 0
            peaks.append(live["peak"])
        assert peaks[0] == peaks[1] <= 2 * 4

    def test_lockfile_blocks_second_writer(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        with open(out / ".lock", "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run_cli("train", "--data", str(corpus_dir), "--out", str(out), "--quiet",
                           "--set", "model.visual_dim=0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "locked" in err and err.count("\n") == 1
        assert sorted(os.listdir(out)) == [".lock"]

    def test_lock_held_while_training(self, corpus_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        seen = []

        def probe(*_):
            with open(out / ".lock") as fh:
                try:
                    fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    seen.append("held")
            return 0

        monkeypatch.setattr(cli, "_train_loop", probe)
        assert run_cli("train", "--data", str(corpus_dir), "--out", str(out), "--quiet",
                       "--set", "model.visual_dim=0") == 0
        assert seen == ["held"]
        assert not (out / ".lock").exists()

    def test_lock_on_a_replaced_file_refused(self, corpus_dir, tmp_path, monkeypatch,
                                             capsys):
        # a run that ended removed the file this one locked, and a newer run
        # made the path's file
        out = tmp_path / "run"
        flock = fcntl.flock

        def flock_then_replace(fd, op):
            flock(fd, op)
            (out / ".lock").unlink()
            (out / ".lock").touch()

        monkeypatch.setattr(cli.fcntl, "flock", flock_then_replace)
        assert run_cli("train", "--data", str(corpus_dir), "--out", str(out), "--quiet",
                       "--set", "model.visual_dim=0") == 1
        assert "locked" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == [".lock"]

    def test_killed_run_resumes(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        argv = [sys.executable, "-m", "paracnn.cli", "train", "--data", str(corpus_dir),
                "--out", str(out), "--quiet"]
        for ov in TINY_OVERRIDES + ["train.epochs=500"]:
            argv += ["--set", ov]
        ckpt = out / "checkpoint_ep0001.pckpt"
        proc = subprocess.Popen(argv, env=cli_env())
        try:
            deadline = time.monotonic() + 300
            while not ckpt.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        assert ckpt.exists() and (out / ".lock").exists()
        args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet",
                "--resume", str(ckpt)]
        for ov in TINY_OVERRIDES:  # train.epochs=2
            args += ["--set", ov]
        assert run_cli(*args) == 0
        assert not (out / ".lock").exists()
        records = (out / "log.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in records] == [1, 2]

    def test_resume_reproduces_trajectory(self, corpus_dir, tmp_path, monkeypatch):
        # val falls to epoch 2 and rises after it, so epoch 2 stays the best;
        # the corpus has one val batch, so eval_ce runs once per epoch
        val_ce = {1: 3.0, 2: 2.0, 3: 2.5, 4: 2.8}
        epoch = {}

        def scripted_eval_ce(trainer, batch):
            epoch["n"] += 1
            return val_ce[epoch["n"]]

        def train_into(out, resume=None, stop_after=None):
            epoch["n"] = 2 if resume else 0

            def epoch_or_stop(*args, **kwargs):
                if epoch["n"] == stop_after:
                    raise TrainingDiverged("run stopped")
                return real_epoch(*args, **kwargs)

            monkeypatch.setattr(cli, "train_epoch", epoch_or_stop)
            args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet"]
            for ov in TINY_OVERRIDES + ["train.epochs=4"]:
                args += ["--set", ov]
            if resume:
                args += ["--resume", str(resume)]
            return run_cli(*args)

        def log_of(out):
            return [{k: v for k, v in json.loads(line).items() if k != "wallclock"}
                    for line in (out / "log.jsonl").open()]

        from paracnn.training import TrainingDiverged
        real_epoch = cli.train_epoch
        monkeypatch.setattr(cli.TwinTrainer, "eval_ce", scripted_eval_ce)
        full, split, past = tmp_path / "full", tmp_path / "split", tmp_path / "past"
        assert train_into(full) == 0
        # a run that stopped after epoch 2, and one whose log already runs past it
        assert train_into(split, stop_after=2) == 1
        assert train_into(past) == 0
        for out in (split, past):
            assert train_into(out, resume=out / "checkpoint_ep0002.pckpt") == 0
            assert log_of(out) == log_of(full)
            assert [rec["epoch"] for rec in log_of(out)] == [1, 2, 3, 4]
            assert (out / "best.pckpt").read_bytes() == (full / "best.pckpt").read_bytes()
            a = read_checkpoint(full / "checkpoint_ep0004.pckpt")[1]
            b = read_checkpoint(out / "checkpoint_ep0004.pckpt")[1]
            assert set(a) == set(b)
            for name in a:
                assert np.array_equal(a[name], b[name]), name

    def test_resume_log_cut_back_to_checkpoint_epoch(self, tmp_path):
        from paracnn.checkpoint import CheckpointError
        log = tmp_path / "log.jsonl"
        lines = [json.dumps({"epoch": e, "val_ce": v}) + "\n"
                 for e, v in ((1, 3.0), (2, float("nan")), (3, 2.0), (4, 1.0))]
        # a line cut short by a killed run follows the newest checkpoint's record
        log.write_text("".join(lines) + '{"epoch": 5, "val')
        assert cli._truncate_log(str(log), 4) == 1.0
        assert log.read_text() == "".join(lines)
        assert cli._truncate_log(str(log), 2) == 3.0  # a nan val_ce is never the best
        assert log.read_text() == "".join(lines[:2])
        log.write_text(lines[0] + "not json\n" + lines[2])
        with pytest.raises(CheckpointError) as exc:
            cli._truncate_log(str(log), 3)
        assert str(exc.value).startswith(f"{log}:2: not a training log record")


def tree_bytes(root):
    """Every file under ``root`` by relative path, with its bytes."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestResume:
    """``--resume`` loads its checkpoint before it touches the run directory, and keeps
    none of it."""

    @pytest.mark.parametrize("refusal, extra, message", [
        ("shape", ["model.proj_dim=8"], "shape mismatch for 'fwd.feat_proj.W'"),
        ("missing", ["twin.mode=l2"], "checkpoint missing parameter 'bwd."),
        ("log", [], "log.jsonl:1: not a training log record"),
    ])
    def test_refused_resume_leaves_the_run_as_it_was(self, train_dir, corpus_dir, tmp_path,
                                                     capsys, refusal, extra, message):
        out = tmp_path / "run"
        shutil.copytree(train_dir, out)
        if refusal == "log":
            (out / "log.jsonl").write_text("not json\n")
        before = tree_bytes(out)
        args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet",
                "--resume", str(out / "checkpoint_ep0001.pckpt")]
        for ov in TINY_OVERRIDES + ["train.epochs=3"] + extra:  # a longer run than train_dir's
            args += ["--set", ov]
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        if refusal != "log":  # a refused checkpoint is named
            assert err.startswith(f"error: {out / 'checkpoint_ep0001.pckpt'}: {message}")
        assert tree_bytes(out) == before  # no .lock either

    @pytest.mark.parametrize("extra, changed", [
        (["seed=9"], ["seed"]),
        (["train.lr=0.5"], ["train.lr"]),
        (["model.max_words=12"], ["model.max_words"]),
        (["model.pooling=mean"], ["model.pooling"]),  # would drop fwd.ctx_attn's weights
        (["seed=9", "train.batch_size=4", "train.lr=0.5", "model.max_words=12",
          "model.pooling=mean"],
         ["model.max_words", "model.pooling", "seed", "train.batch_size", "train.lr"]),
    ], ids=["seed", "lr", "max_words", "pooling", "all"])
    def test_resume_refuses_a_changed_config(self, attn_dir, corpus_dir, tmp_path, capsys,
                                             extra, changed):
        # only train.epochs may change, as test_killed_run_resumes does
        out = tmp_path / "run"
        shutil.copytree(attn_dir, out)
        before = tree_bytes(out)
        ckpt = out / "checkpoint_ep0001.pckpt"
        args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet",
                "--resume", str(ckpt)]
        for ov in ATTN_OVERRIDES + ["train.epochs=2"] + extra:
            args += ["--set", ov]
        assert run_cli(*args) == 1
        assert capsys.readouterr() == (
            "", f"error: {ckpt}: a resumed run may change only train.epochs, not {changed}\n")
        assert tree_bytes(out) == before

    def test_resumed_run_holds_no_checkpoint_array(self, train_dir, corpus_dir, tmp_path,
                                                   monkeypatch):
        out = tmp_path / "run"
        shutil.copytree(train_dir, out)
        read, epoch = cli.read_checkpoint, cli.train_epoch
        refs, alive = [], []

        def weakly_read(path):
            meta, arrays = read(path)
            refs.extend(weakref.ref(a) for a in arrays.values())
            return meta, arrays

        def checked_epoch(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return epoch(*args, **kwargs)

        monkeypatch.setattr(cli, "read_checkpoint", weakly_read)
        monkeypatch.setattr(cli, "train_epoch", checked_epoch)
        args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet",
                "--resume", str(out / "checkpoint_ep0001.pckpt")]
        for ov in TINY_OVERRIDES:  # train.epochs=2: one epoch after the checkpoint's
            args += ["--set", ov]
        assert run_cli(*args) == 0
        assert refs and alive == [0]


class TestGenerateAndEval:
    def test_generate_fixed_sentence_count(self, train_dir, corpus_dir, tmp_path):
        out = tmp_path / "hyp.txt"
        assert run_cli("generate", "--checkpoint", str(train_dir / "best.pckpt"),
                       "--features", str(corpus_dir / "test.jsonl"),
                       "--sentences", "3", "--rep-penalty", "0",
                       "--no-block-trigrams", "--out", str(out)) == 0
        paragraphs = out.read_text().strip().split("\n\n")
        assert len(paragraphs) == 4
        for p in paragraphs:
            assert len(p.split("\n")) == 3

    def test_generate_beyond_training_length(self, train_dir, corpus_dir, tmp_path):
        out = tmp_path / "hyp7.txt"
        assert run_cli("generate", "--checkpoint", str(train_dir / "best.pckpt"),
                       "--features", str(corpus_dir / "test.jsonl"),
                       "--sentences", "4", "--out", str(out)) == 0
        for p in out.read_text().strip().split("\n\n"):
            assert len(p.split("\n")) == 4

    def test_generate_deterministic(self, train_dir, corpus_dir, tmp_path):
        outs = []
        for name in ("g1.txt", "g2.txt"):
            path = tmp_path / name
            assert run_cli("generate", "--checkpoint", str(train_dir / "best.pckpt"),
                           "--features", str(corpus_dir / "test.jsonl"),
                           "--sentences", "2", "--out", str(path)) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_generate_flags_resolve(self, train_dir, corpus_dir, tmp_path):
        # --adaptive wins over --sentences, which is still recorded
        out = tmp_path / "hyp.txt"
        assert run_cli("generate", "--checkpoint", str(train_dir / "best.pckpt"),
                       "--features", str(corpus_dir / "test.jsonl"), "--sentences", "2",
                       "--adaptive", "--max", "3", "--rep-penalty", "0.5",
                       "--no-block-trigrams", "--out", str(out)) == 0
        resolved = json.loads((tmp_path / "resolved_generate_config.json").read_text())
        assert resolved["decode"] == dataclasses.asdict(DecodeConfig(
            num_sentences=2, adaptive=True, max_sentences=3, rep_penalty=0.5,
            block_trigrams=False))
        for paragraph in out.read_text().strip().split("\n\n"):
            assert 1 <= len(paragraph.split("\n")) <= 3

    def test_generate_decodes_one_image_at_a_time(self, train_dir, corpus_dir, tmp_path,
                                                  monkeypatch):
        events = []
        load, decode = cli.corpus_mod.load_features, cli.greedy_decode
        monkeypatch.setattr(cli.corpus_mod, "load_features",
                            lambda *args: events.append("load") or load(*args))
        monkeypatch.setattr(cli, "greedy_decode",
                            lambda *args: events.append("decode") or decode(*args))
        generate_bytes(train_dir / "best.pckpt", corpus_dir, tmp_path / "hyp.txt")
        assert events == ["load", "decode"] * 4

    def test_generate_single_feature_file_stdout(self, train_dir, corpus_dir, capsys):
        entry = read_manifest(corpus_dir / "test.jsonl")[0]
        assert run_cli("generate", "--checkpoint", str(train_dir / "best.pckpt"),
                       "--features", str(corpus_dir / entry["feature_path"]),
                       "--adaptive", "--min", "2", "--max", "3") == 0
        lines = capsys.readouterr().out.strip("\n").split("\n")
        assert 2 <= len(lines) <= 3

    def test_eval_identity_scores_100(self, corpus_dir, tmp_path, capsys):
        # hypotheses identical to the references
        entries = read_manifest(corpus_dir / "test.jsonl")
        hyp = tmp_path / "ref_as_hyp.txt"
        from paracnn.corpus import split_sentences, tokenize
        blocks = []
        for e in entries:
            blocks.append("\n".join(" ".join(tokenize(s))
                                    for s in split_sentences(e["paragraph"])))
        hyp.write_text("\n\n".join(blocks) + "\n")
        json_out = tmp_path / "scores.json"
        assert run_cli("eval", "--hypotheses", str(hyp),
                       "--manifest", str(corpus_dir / "test.jsonl"),
                       "--json", str(json_out)) == 0
        scores = json.loads(json_out.read_text())
        assert scores["display"]["BLEU-1"] == 100.0
        assert scores["display"]["ROUGE-L"] == 100.0
        out = capsys.readouterr().out
        assert "BLEU-1" in out and "CIDEr" in out

    def test_eval_count_mismatch_errors(self, corpus_dir, tmp_path, capsys):
        hyp = tmp_path / "short.txt"
        hyp.write_text("a red circle\n")
        assert run_cli("eval", "--hypotheses", str(hyp),
                       "--manifest", str(corpus_dir / "test.jsonl")) == 1
        assert "id mismatch" in capsys.readouterr().err

    def test_eval_reads_generated_empty_sentences(self, corpus_dir, tmp_path):
        # this 2-epoch l2 model with self-attention pooling emits <eos> first
        # for some sentence slots
        run = tmp_path / "run"
        args = ["train", "--data", str(corpus_dir), "--out", str(run), "--quiet"]
        for ov in TINY_OVERRIDES + ["twin.mode=l2", "model.pooling=self_attention"]:
            args += ["--set", ov]
        assert run_cli(*args) == 0
        hyp = tmp_path / "hyp.txt"
        assert run_cli("generate", "--checkpoint", str(run / "best.pckpt"),
                       "--features", str(corpus_dir / "test.jsonl"),
                       "--sentences", "3", "--out", str(hyp)) == 0
        paragraphs = hyp.read_text().rstrip("\n").split("\n\n")
        assert "<empty>" in hyp.read_text().split("\n")
        scores = tmp_path / "scores.json"
        assert run_cli("eval", "--hypotheses", str(hyp),
                       "--manifest", str(corpus_dir / "test.jsonl"),
                       "--json", str(scores)) == 0
        # the scores are those of each paragraph's words; empty sentences add none
        pairs = [EvalPair(tokenize(para.replace("<empty>", "")), tokenize(entry["paragraph"]))
                 for para, entry in zip(paragraphs, read_manifest(corpus_dir / "test.jsonl"))]
        assert json.loads(scores.read_text())["raw"] == evaluate_all(pairs)


class TestBadSettings:
    """A setting of the wrong type or out of range ends the command with ``error: ...`` and 1."""

    @pytest.mark.parametrize("flags", [["--max", "0"], ["--sentences", "0"],
                                       ["--min", "5", "--max", "4"], ["--rep-penalty", "-1"],
                                       ["--adaptive", "--min", "0"], ["--rep-penalty", "nan"],
                                       ["--rep-penalty", "inf"]])
    def test_generate(self, train_dir, corpus_dir, tmp_path, capsys, flags):
        out = tmp_path / "hyp.txt"
        assert run_cli("generate", "--checkpoint", str(train_dir / "best.pckpt"),
                       "--features", str(corpus_dir / "test.jsonl"), "--out", str(out),
                       *flags) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid [decode] config: ")
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert os.listdir(tmp_path) == []  # neither the output nor its resolved config

    TRAIN = {
        "seed=abc": "seed must be an integer >= 0, got 'abc'",
        "seed=-3": "seed must be an integer >= 0, got -3",
        "seed=true": "seed must be an integer >= 0, got True",
        "train.epochs=1.5": "[train] config: epochs and batch_size must be integers >= 1",
        "train.batch_size=2.5": "[train] config: epochs and batch_size must be integers",
        "train.lr=-1": "[train] config: lr must be finite and > 0, got -1",
        "train.lr=NaN": "[train] config: lr must be finite and > 0, got nan",
        "train.lr=true": "[train] config: lr must be finite and > 0, got True",
        "twin.mode=adversarial twin.critic_hidden=0":
            "[twin] config: critic_hidden must be an integer >= 1, got 0",
        "twin.lambda_l2=NaN": "[twin] config: lambda_l2 must be finite and >= 0, got nan",
        "twin.lambda_adv=Infinity": "[twin] config: lambda_adv must be finite and >= 0, got inf",
        "twin.lambda_l2=true": "[twin] config: lambda_l2 must be finite and >= 0, got True",
        "model.max_words=2.5": "[model] config: ModelConfig.max_words must be an integer >= 1, "
                               "got 2.5",
        "model.proj_dim=true": "[model] config: ModelConfig.proj_dim must be an integer >= 1, "
                               "got True",
        "model.attn_heads=2.0": "[model] config: ModelConfig.attn_heads must be an integer >= 1, "
                                "got 2.0",
        "model.attn_layers=[1.5]": "[model] config: attention layer indices (1.5,) must be "
                                   "integers in [1, word_depth=3)",
        "model.attn_layers=[2,2]": "[model] config: attention layer indices (2, 2) repeat a "
                                   "layer",
    }

    @pytest.mark.parametrize("overrides", sorted(TRAIN))
    def test_train(self, corpus_dir, tmp_path, capsys, overrides):
        out = tmp_path / "run"
        args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet"]
        for ov in TINY_OVERRIDES + ["train.epochs=1"] + overrides.split():
            args += ["--set", ov]
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and self.TRAIN[overrides] in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    MAKE_CORPUS = {
        "--seed -1": "seed must be an integer >= 0, got -1",
        "--noise -1": "noise -1.0 must be finite and >= 0",
        "--noise nan": "noise nan must be finite and >= 0",
    }

    @pytest.mark.parametrize("flags", sorted(MAKE_CORPUS))
    def test_make_corpus(self, tmp_path, capsys, flags):
        out = tmp_path / "corpus"
        assert run_cli("make-corpus", "--size", "4", "--out", str(out), *flags.split()) == 1
        assert capsys.readouterr().err == f"error: {self.MAKE_CORPUS[flags]}\n"
        assert not out.exists()

    def test_gradcheck_seed(self, capsys):
        assert run_cli("gradcheck", "--seed", "-1") == 1
        assert capsys.readouterr() == ("", "error: seed must be an integer >= 0, got -1\n")

    def test_make_corpus_max_objects(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert run_cli("make-corpus", "--size", "4", "--max-objects", "1",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: max_objects 1 ") and "Traceback" not in err
        assert not out.exists()


def _train_argv(corpus_dir, out, *overrides):
    args = ["train", "--data", str(corpus_dir), "--out", str(out), "--quiet"]
    for ov in TINY_OVERRIDES + list(overrides):
        args += ["--set", ov]
    return args


def _refuse_small_corpus(corpus_dir, tmp_path, held):
    out = tmp_path / "corpus"
    return (["make-corpus", "--size", "2", "--out", str(out)], out, None,
            "--size 2 is below 3: the train, val and test splits need a scene each")


def _refuse_occupied_out(corpus_dir, tmp_path, held):
    out = tmp_path / "corpus"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    return (["make-corpus", "--size", "4", "--out", str(out)], out, ["keep.txt"],
            f"{out} is not empty (use --force to overwrite)")


def _refuse_vocab_size(corpus_dir, tmp_path, held):
    out = tmp_path / "run"
    n = len(build_vocab([e["paragraph"] for e in read_manifest(corpus_dir / "train.jsonl")]))
    return (_train_argv(corpus_dir, out, "model.vocab_size=5"), out, None,
            f"config vocab_size 5 != corpus vocabulary {n}")


def _refuse_feature_width(corpus_dir, tmp_path, held):
    out = tmp_path / "run"
    first = os.path.join(str(corpus_dir),
                         read_manifest(corpus_dir / "train.jsonl")[0]["feature_path"])
    width = load_features(first).shape[1]
    return (_train_argv(corpus_dir, out, f"model.visual_dim={width + 1}"), out, None,
            f"{first}: feature dim {width} != model visual_dim {width + 1}")


def _refuse_locked_run(corpus_dir, tmp_path, held):
    out = tmp_path / "run"
    out.mkdir()
    fcntl.flock(held(open(out / ".lock", "a")), fcntl.LOCK_EX | fcntl.LOCK_NB)
    return (_train_argv(corpus_dir, out), out, [".lock"],
            f"{out} is locked by another training run ({out / '.lock'})")


def _refuse_diverged_epoch(corpus_dir, tmp_path, held):
    from paracnn.training import TrainingDiverged
    out, calls = tmp_path / "run", []

    def diverging_epoch(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise TrainingDiverged("probe")
        return train_epoch(*args, **kwargs)

    train_epoch = cli.train_epoch
    held(pytest.MonkeyPatch.context()).setattr(cli, "train_epoch", diverging_epoch)
    return (_train_argv(corpus_dir, out), out,
            ["best.pckpt", "checkpoint_ep0001.pckpt", "log.jsonl", "resolved_config.json"],
            "training diverged in epoch 2: probe; last good checkpoint is from epoch 1")


def _refuse_empty_hypotheses(corpus_dir, tmp_path, held):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("")
    out = tmp_path / "scores.json"
    return (["eval", "--hypotheses", str(hyp), "--manifest", str(corpus_dir / "test.jsonl"),
             "--json", str(out)], out, None, "empty hypothesis file")


def _refuse_id_mismatch(corpus_dir, tmp_path, held):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a red circle\n")
    out = tmp_path / "scores.json"
    ids = [e["id"] for e in read_manifest(corpus_dir / "test.jsonl")]
    return (["eval", "--hypotheses", str(hyp), "--manifest", str(corpus_dir / "test.jsonl"),
             "--json", str(out)], out, None,
            f"id mismatch: 1 hypotheses vs {len(ids)} manifest entries "
            f"(missing hypotheses for ids {ids[1:]})")


def _generate_argv(corpus_dir, tmp_path, held, out):
    """A ``generate`` whose spies fail the test if the checkpoint is read or an image
    decoded: its ``--out`` is refused first."""
    patch = held(pytest.MonkeyPatch.context())
    for name in ("load_checkpoint_trainer", "greedy_decode"):
        patch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    return ["generate", "--checkpoint", str(tmp_path / "best.pckpt"),
            "--features", str(corpus_dir / "test.jsonl"), "--out", out]


def _refuse_generate_out_dir(corpus_dir, tmp_path, held):
    out = tmp_path / "nodir"
    return (_generate_argv(corpus_dir, tmp_path, held, str(out / "hyp.txt")), out, None,
            f"{out}: no such directory for --out")


def _refuse_generate_out_is_dir(corpus_dir, tmp_path, held):
    out = tmp_path / "hyps"
    out.mkdir()
    return (_generate_argv(corpus_dir, tmp_path, held, str(out)), out, [],
            f"{out}: --out names a directory, not a file")


def _refuse_generate_out_slash(corpus_dir, tmp_path, held):
    out = tmp_path / "hyp.txt"
    return (_generate_argv(corpus_dir, tmp_path, held, f"{out}/"), out, None,
            f"{out}/: --out names a directory, not a file")


def _refuse_eval_json_dir(corpus_dir, tmp_path, held):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("\n\n".join(e["paragraph"] for e in read_manifest(corpus_dir / "test.jsonl")))
    out = tmp_path / "nodir" / "scores.json"
    return (["eval", "--hypotheses", str(hyp), "--manifest", str(corpus_dir / "test.jsonl"),
             "--json", str(out)], out, None, f"[Errno 2] No such file or directory: '{out}'")


class TestRefusals:
    """Each refusal is raised by its command and printed by ``main``: one ``error: ...``
    line on stderr, nothing on stdout, exit status 1, and the output path left as
    listed (None: not made)."""

    CASES = {f.__name__[len("_refuse_"):]: f for f in (
        _refuse_small_corpus, _refuse_occupied_out, _refuse_vocab_size, _refuse_feature_width,
        _refuse_locked_run, _refuse_diverged_epoch, _refuse_empty_hypotheses,
        _refuse_id_mismatch, _refuse_generate_out_dir, _refuse_generate_out_is_dir,
        _refuse_generate_out_slash, _refuse_eval_json_dir)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line(self, corpus_dir, tmp_path, capsys, case):
        with contextlib.ExitStack() as stack:
            argv, out, listing, message = self.CASES[case](corpus_dir, tmp_path,
                                                           stack.enter_context)
            assert run_cli(*argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        if listing is None:
            assert not out.exists()
        else:
            assert sorted(os.listdir(out)) == listing


class TestFileBoundaryErrors:
    """A missing path or a malformed input file ends the command with ``error: ...`` and 1."""

    @staticmethod
    def fails_cleanly(capsys, argv, names):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err

    def test_missing_checkpoint(self, corpus_dir, tmp_path, capsys):
        missing = str(tmp_path / "none.pckpt")
        self.fails_cleanly(capsys, ["generate", "--checkpoint", missing,
                                    "--features", str(corpus_dir / "test.jsonl")], missing)

    def test_missing_feature_file(self, train_dir, tmp_path, capsys):
        missing = str(tmp_path / "none.pfv")
        self.fails_cleanly(capsys, ["generate", "--checkpoint", str(train_dir / "best.pckpt"),
                                    "--features", missing], missing)

    def test_missing_manifest(self, train_dir, tmp_path, capsys):
        missing = str(tmp_path / "none.jsonl")
        self.fails_cleanly(capsys, ["generate", "--checkpoint", str(train_dir / "best.pckpt"),
                                    "--features", missing], missing)

    def test_missing_data_dir(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        self.fails_cleanly(capsys, ["train", "--data", missing, "--out", str(tmp_path / "run")],
                           missing)

    def test_feature_dim_mismatch_in_last_image(self, train_dir, corpus_dir, tmp_path,
                                                capsys):
        entries = read_manifest(corpus_dir / "test.jsonl")
        save_features(tmp_path / "odd.pfv", np.ones((2, 5)))
        manifest = tmp_path / "odd.jsonl"
        # absolute feature paths, then one relative to the manifest
        write_manifest(manifest, [dict(e, feature_path=str(corpus_dir / e["feature_path"]))
                                  for e in entries[:-1]]
                       + [dict(entries[-1], feature_path="odd.pfv")])
        out = tmp_path / "hyp.txt"
        self.fails_cleanly(capsys, ["generate", "--checkpoint", str(train_dir / "best.pckpt"),
                                    "--features", str(manifest), "--sentences", "2",
                                    "--out", str(out)],
                           f"error: {tmp_path / 'odd.pfv'}: feature dim 5 != model visual_dim ")
        assert not out.exists()

    @pytest.mark.parametrize("split, batch_size", [("val", 1), ("train", 8)])
    def test_train_feature_dim_mismatch_names_the_file(self, corpus_dir, tmp_path, capsys,
                                                        split, batch_size):
        # alone in its batch, or beside files of the model's width
        data, odd = tmp_path / "data", tmp_path / "odd.pfv"
        data.mkdir()
        save_features(odd, np.ones((2, 7)))
        for name in ("train", "val", "test"):  # feature paths made absolute
            entries = [dict(e, feature_path=str(corpus_dir / e["feature_path"]))
                       for e in read_manifest(corpus_dir / f"{name}.jsonl")]
            if name == split:  # the last entry: train's first sets the model's width
                entries[-1]["feature_path"] = str(odd)
            write_manifest(data / f"{name}.jsonl", entries)
        args = ["train", "--data", str(data), "--out", str(tmp_path / "run"), "--quiet"]
        for ov in TINY_OVERRIDES + ["train.epochs=1", f"train.batch_size={batch_size}"]:
            args += ["--set", ov]
        assert run_cli(*args) == 1
        assert capsys.readouterr().err == \
            f"error: {odd}: feature dim 7 != model visual_dim 117\n"

    @pytest.mark.parametrize("bad", ["one_nan", "all_inf"])
    def test_non_finite_features(self, train_dir, corpus_dir, tmp_path, capsys, bad):
        entry = read_manifest(corpus_dir / "test.jsonl")[0]
        feats = load_features(corpus_dir / entry["feature_path"])
        if bad == "one_nan":
            feats[-1, 1] = np.nan
        else:
            feats[:] = np.inf
        path, out = tmp_path / "bad.pfv", tmp_path / "hyp.txt"
        # raw PFV1 bytes: save_features refuses non-finite values
        path.write_bytes(b"PFV1" + struct.pack("<II", *feats.shape)
                         + feats.astype("<f4").tobytes())
        assert run_cli("generate", "--checkpoint", str(train_dir / "best.pckpt"),
                       "--features", str(path), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}: non-finite")
        assert os.listdir(tmp_path) == ["bad.pfv"]

    def test_reference_without_words(self, corpus_dir, tmp_path, capsys):
        entries = read_manifest(corpus_dir / "test.jsonl")
        entries[1] = dict(entries[1], paragraph="...")
        manifest = tmp_path / "noword.jsonl"
        write_manifest(manifest, entries)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("\n\n".join(["the red cube is in the north"] * len(entries)) + "\n")
        self.fails_cleanly(capsys, ["eval", "--hypotheses", str(hyp), "--manifest",
                                    str(manifest)], f"{manifest}: entry {entries[1]['id']!r}")

    def test_train_error_closes_log(self, tmp_path):
        # a training feature file missing after the first is found only inside
        # an epoch, once log.jsonl is open; -X dev reports an unclosed file
        data = tmp_path / "corpus"
        assert run_cli("make-corpus", "--seed", "3", "--size", "10", "--out", str(data)) == 0
        os.remove(data / read_manifest(data / "train.jsonl")[-1]["feature_path"])
        argv = [sys.executable, "-X", "dev", "-m", "paracnn.cli", "train", "--data", str(data),
                "--out", str(tmp_path / "run"), "--quiet"]
        for ov in TINY_OVERRIDES + ["train.epochs=1"]:
            argv += ["--set", ov]
        proc = subprocess.run(argv, capture_output=True, text=True, env=cli_env(), timeout=300,
                              check=False)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "ResourceWarning" not in proc.stderr
        assert (tmp_path / "run" / "log.jsonl").exists()

    @pytest.mark.parametrize("text", ["{\"model\": ", "[1, 2]"])
    def test_config_not_a_json_object(self, corpus_dir, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match="bad.json"):
            run_config(cfg)
        self.fails_cleanly(capsys, ["train", "--data", str(corpus_dir), "--config", str(cfg),
                                    "--out", str(tmp_path / "run")], str(cfg))

    @pytest.mark.parametrize("config, overrides", [
        ({"model": 5}, []), ({"model": 5}, ["model.channels=8"]),
        ({"train": [["epochs", 1]]}, [])])
    def test_config_section_not_a_json_object(self, corpus_dir, tmp_path, capsys, config,
                                              overrides):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        message = f"{cfg}: config section {next(iter(config))!r} must be a JSON object"
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_config(cfg, overrides)
        argv = ["train", "--data", str(corpus_dir), "--config", str(cfg),
                "--out", str(tmp_path / "run")]
        for ov in overrides:
            argv += ["--set", ov]
        self.fails_cleanly(capsys, argv, message)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line", ["{\"id\": ", "42"])
    def test_manifest_line_not_a_json_object(self, corpus_dir, tmp_path, capsys, line):
        good = (corpus_dir / "test.jsonl").read_text().splitlines()[0]
        manifest = tmp_path / "bad.jsonl"
        manifest.write_text(good + "\n" + line + "\n")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a red circle\n\na blue cube\n")
        self.fails_cleanly(capsys, ["eval", "--hypotheses", str(hyp), "--manifest",
                                    str(manifest)], f"{manifest}:2:")


    @pytest.mark.parametrize("key,value", [("id", 7), ("feature_path", 5),
                                           ("paragraph", None)])
    def test_manifest_field_not_a_string(self, corpus_dir, tmp_path, capsys, key, value):
        data = tmp_path / "data"
        data.mkdir()
        for split in ("train", "val", "test"):  # feature paths made absolute
            write_manifest(data / f"{split}.jsonl",
                           [dict(e, feature_path=str(corpus_dir / e["feature_path"]))
                            for e in read_manifest(corpus_dir / f"{split}.jsonl")])
        entries = read_manifest(data / "train.jsonl")
        write_manifest(data / "train.jsonl", [dict(entries[0], **{key: value})] + entries[1:])
        names = f"{data / 'train.jsonl'}:1: manifest field {key!r} must be a string, got "
        out = tmp_path / "run"
        self.fails_cleanly(capsys, ["train", "--data", str(data), "--out", str(out)], names)
        assert not out.exists()
        hyp, scores = tmp_path / "hyp.txt", tmp_path / "scores.json"
        hyp.write_text("\n\n".join(["a red cube"] * len(entries)) + "\n")
        self.fails_cleanly(capsys, ["eval", "--hypotheses", str(hyp), "--manifest",
                                    str(data / "train.jsonl"), "--json", str(scores)], names)
        assert not scores.exists()

    @pytest.mark.parametrize("key,value", [
        ("seed", "abc"), ("seed", -3), ("seed", True), ("vocab", {"<pad>": 0}),
        ("vocab", ["<pad>", "<start>", "<eos>", "<unk>", 5]), ("vocab", "specials swapped"),
        ("config", ["model"])])
    def test_malformed_checkpoint_metadata(self, train_dir, corpus_dir, tmp_path, capsys,
                                               key, value):
        meta, arrays = read_checkpoint(train_dir / "best.pckpt")
        if value == "specials swapped":  # a list of strings of the config's size
            value = [meta["vocab"][1], meta["vocab"][0]] + meta["vocab"][2:]
        path, out = tmp_path / "bad.pckpt", tmp_path / "hyp.txt"
        write_checkpoint(path, dict(meta, **{key: value}), arrays)
        self.fails_cleanly(capsys, ["generate", "--checkpoint", str(path), "--features",
                                    str(corpus_dir / "test.jsonl"), "--out", str(out)],
                           f"error: {path}: checkpoint metadata {key!r}")
        assert not out.exists()

    @pytest.mark.parametrize("refusal, message", [
        ("shape", "shape mismatch for 'fwd.feat_proj.W'"),
        ("missing", "checkpoint missing parameter 'fwd.feat_proj.W'")])
    def test_generate_refused_checkpoint_arrays_name_the_file(self, train_dir, corpus_dir,
                                                               tmp_path, capsys, refusal,
                                                               message):
        meta, arrays = read_checkpoint(train_dir / "best.pckpt")
        if refusal == "shape":
            arrays["fwd.feat_proj.W"] = arrays["fwd.feat_proj.W"][:-1]
        else:
            del arrays["fwd.feat_proj.W"]
        path, out = tmp_path / "bad.pckpt", tmp_path / "hyp.txt"
        write_checkpoint(path, meta, arrays)
        self.fails_cleanly(capsys, ["generate", "--checkpoint", str(path), "--features",
                                    str(corpus_dir / "test.jsonl"), "--out", str(out)],
                           f"error: {path}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("change", [-1, 1])
    def test_checkpoint_vocab_not_the_config_size(self, train_dir, corpus_dir, tmp_path,
                                                  capsys, change):
        meta, arrays = read_checkpoint(train_dir / "best.pckpt")
        vocab = meta["vocab"][:-1] if change < 0 else meta["vocab"] + ["zebra"]
        path, out = tmp_path / "bad.pckpt", tmp_path / "hyp.txt"
        write_checkpoint(path, dict(meta, vocab=vocab), arrays)
        self.fails_cleanly(capsys, ["generate", "--checkpoint", str(path), "--features",
                                    str(corpus_dir / "test.jsonl"), "--out", str(out)],
                           f"error: {path}: checkpoint metadata 'vocab' has {len(vocab)} "
                           f"tokens, not model.vocab_size={len(meta['vocab'])}")
        assert not out.exists()

    @pytest.mark.parametrize("epoch", ["3", 0, True])
    def test_resume_epoch_of_wrong_type(self, train_dir, corpus_dir, tmp_path, capsys, epoch):
        meta, arrays = read_checkpoint(train_dir / "checkpoint_ep0001.pckpt")
        path, out = tmp_path / "bad.pckpt", tmp_path / "resumed"
        write_checkpoint(path, dict(meta, epoch=epoch), arrays)
        args = ["train", "--data", str(corpus_dir), "--out", str(out), "--resume", str(path)]
        for ov in TINY_OVERRIDES:
            args += ["--set", ov]
        self.fails_cleanly(capsys, args,
                           f"error: {path}: checkpoint metadata 'epoch' must be an integer >= 1")
        assert not out.exists()


class TestCheckpointFormat:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "best.pckpt"
        write_checkpoint(path, {"epoch": 1}, {"a": np.ones(3)})
        before = path.read_bytes()
        # entries go out in name order: "a" is written before "z" fails to convert
        with pytest.raises(ValueError):
            write_checkpoint(path, {"epoch": 2}, {"a": np.zeros(3), "z": np.array(["x"])})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["best.pckpt"]

    def test_round_trip_bit_exact(self, tmp_path):
        arrays = {"a.W": np.random.RandomState(0).randn(3, 4),
                  "b": np.array([1.5])}
        meta = {"seed": 1, "epoch": 2, "vocab": ["<pad>", "<start>", "<eos>", "<unk>"]}
        path = tmp_path / "x.pckpt"
        write_checkpoint(path, meta, arrays)
        m2, a2 = read_checkpoint(path)
        assert m2 == meta
        for k in arrays:
            assert np.array_equal(a2[k], arrays[k])

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.pckpt"
        from paracnn.checkpoint import CheckpointError
        for magic in (b"NOTCKP", b"PCKPT1"):
            path.write_bytes(magic + b"\x00" * 10)
            with pytest.raises(CheckpointError, match="bad magic, expected b'PCKPT2'"):
                read_checkpoint(path)

    def test_truncated_or_padded_checkpoint_raises(self, train_dir, tmp_path):
        from paracnn.checkpoint import CheckpointError
        blob = (train_dir / "best.pckpt").read_bytes()
        json_end = 10 + int.from_bytes(blob[6:10], "little")
        name_end = json_end + 6 + int.from_bytes(blob[json_end + 4:json_end + 6], "little")
        # inside the magic, the header, the JSON, the entry count, the first
        # entry's name length, name, shape and data, and the last byte
        cuts = [3, 8, (10 + json_end) // 2, json_end + 2, json_end + 5, name_end - 1,
                name_end + 3, name_end + 9, len(blob) - 1]
        cuts += list(range(0, len(blob), max(1, len(blob) // 40)))
        bad = [blob[:cut] for cut in cuts]
        bad += [blob + b"\x00", blob + b"junk" * 10,
                blob[:10] + b"{" * (json_end - 10) + blob[json_end:]]
        path = tmp_path / "bad.pckpt"
        for data in bad:
            path.write_bytes(data)
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    def test_duplicate_entry_raises(self, tmp_path, capsys):
        path = tmp_path / "dup.pckpt"
        write_checkpoint(path, {"epoch": 1}, {"x": np.ones(2), "y": np.ones(3)})
        blob = path.read_bytes()
        y_at = blob.rindex(b"\x01\x00y\x01")  # entry y: name length, name, ndim
        path.write_bytes(blob[:y_at + 2] + b"x" + blob[y_at + 3:])
        assert run_cli("generate", "--checkpoint", str(path), "--features", str(path)) == 1
        assert capsys.readouterr().err == f"error: {path}: duplicate entry 'x'\n"

    def test_checkpoint_meta_without_required_keys_raises(self, train_dir, tmp_path):
        from paracnn.checkpoint import CheckpointError
        meta, arrays = read_checkpoint(train_dir / "best.pckpt")
        path = tmp_path / "nometa.pckpt"
        for key in ("config", "vocab", "seed"):
            write_checkpoint(path, {k: v for k, v in meta.items() if k != key}, arrays)
            with pytest.raises(CheckpointError, match=key):
                cli.load_checkpoint_trainer(str(path))

    def test_resume_from_checkpoint_without_epoch_exits_1(self, train_dir, corpus_dir,
                                                          tmp_path, capsys):
        meta, arrays = read_checkpoint(train_dir / "best.pckpt")
        del meta["epoch"]
        path = tmp_path / "noepoch.pckpt"
        write_checkpoint(path, meta, arrays)
        args = ["train", "--data", str(corpus_dir), "--out", str(tmp_path / "resumed"),
                "--quiet", "--resume", str(path)]
        for ov in TINY_OVERRIDES:
            args += ["--set", ov]
        assert run_cli(*args) == 1
        assert "lacks 'epoch'" in capsys.readouterr().err

    def test_generate_from_truncated_checkpoint_exits_1(self, train_dir, corpus_dir,
                                                        tmp_path, capsys):
        blob = (train_dir / "best.pckpt").read_bytes()
        json_end = 10 + int.from_bytes(blob[6:10], "little")
        path = tmp_path / "cut.pckpt"
        for cut in (8, json_end // 2, len(blob) // 2):  # header, JSON, arrays
            path.write_bytes(blob[:cut])
            assert run_cli("generate", "--checkpoint", str(path),
                           "--features", str(corpus_dir / "test.jsonl")) == 1
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["model", "twin", "train"])
    def test_generate_without_config_section_exits_1(self, train_dir, corpus_dir, tmp_path,
                                                     capsys, section):
        meta, arrays = read_checkpoint(train_dir / "best.pckpt")
        path = tmp_path / "nosection.pckpt"
        for value in (None, ["not", "an", "object"]):
            config = {k: v for k, v in meta["config"].items() if k != section}
            if value is not None:
                config[section] = value
            write_checkpoint(path, dict(meta, config=config), arrays)
            assert run_cli("generate", "--checkpoint", str(path),
                           "--features", str(corpus_dir / "test.jsonl")) == 1
            assert f"error: {path}: checkpoint config lacks a '{section}' section" in \
                capsys.readouterr().err

    def test_forward_only_checkpoint_generates_identically(self, twin_dir, corpus_dir,
                                                           tmp_path):
        # deleting backward/critic entries must not change generation
        meta, arrays = read_checkpoint(twin_dir / "best.pckpt")
        aux = ("bwd.", "critic.", "opt.bwd.", "opt.critic.")
        stripped = {k: v for k, v in arrays.items() if not k.startswith(aux)}
        for prefix in aux:
            assert any(k.startswith(prefix) for k in arrays), prefix
        path = tmp_path / "stripped.pckpt"
        write_checkpoint(path, meta, stripped)
        assert generate_bytes(twin_dir / "best.pckpt", corpus_dir, tmp_path / "full.txt") == \
            generate_bytes(path, corpus_dir, tmp_path / "stripped.txt")

    def test_generate_from_pckpt1_file_exits_1(self, train_dir, corpus_dir, tmp_path,
                                               capsys):
        path = tmp_path / "old.pckpt"
        path.write_bytes(b"PCKPT1" + (train_dir / "best.pckpt").read_bytes()[6:])
        assert run_cli("generate", "--checkpoint", str(path),
                       "--features", str(corpus_dir / "test.jsonl")) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: bad magic, expected b'PCKPT2'\n"

    def test_loading_copies_no_optimizer_state(self, train_dir):
        _, arrays = read_checkpoint(train_dir / "best.pckpt")
        assert np.any(arrays["opt.fwd.word_blocks.0.weight"])
        assert np.any(arrays["opt.predictor.fc1.W"])
        trainer, _, _ = cli.load_checkpoint_trainer(str(train_dir / "best.pckpt"))
        for opt in (trainer.opt, trainer.opt_pred):
            assert opt.state and not any(np.any(v) for v in opt.state.values())

    def test_generate_reads_forward_network_only(self, twin_dir, monkeypatch):
        read, kept = cli.read_checkpoint, []

        def recording(path, *prefixes):
            meta, arrays = read(path, *prefixes)
            kept.extend(arrays)
            return meta, arrays

        monkeypatch.setattr(cli, "read_checkpoint", recording)
        cli.load_checkpoint_trainer(str(twin_dir / "best.pckpt"))
        _, every = read(twin_dir / "best.pckpt")
        assert sorted(kept) == sorted(k for k in every if k.startswith(("fwd.", "predictor.")))

    def test_generate_checks_the_entries_it_skips(self, twin_dir, corpus_dir, tmp_path,
                                                  capsys):
        blob = (twin_dir / "best.pckpt").read_bytes()
        # walk the entries to the first critic entry: its ndim byte, data offset and size
        at = 10 + int.from_bytes(blob[6:10], "little") + 4
        while True:
            n = int.from_bytes(blob[at:at + 2], "little")
            name, at = blob[at + 2:at + 2 + n].decode(), at + 2 + n
            dims = struct.unpack(f"<{blob[at]}I", blob[at + 1:at + 1 + 4 * blob[at]])
            data_at = at + 1 + 4 * len(dims)
            nbytes = 8 * int(np.prod(dims))
            if name.startswith("critic."):
                break
            at = data_at + nbytes
        cut = blob[:data_at + nbytes // 2]  # the file ends inside the entry
        # the entry's first dim claims more data than the file holds
        grown = blob[:at + 1] + struct.pack("<I", 2 ** 31) + blob[at + 5:]
        path = tmp_path / "bad.pckpt"
        for data in (cut, grown):
            path.write_bytes(data)
            assert run_cli("generate", "--checkpoint", str(path),
                           "--features", str(corpus_dir / "test.jsonl")) == 1
            assert capsys.readouterr().err == f"error: {path}: truncated entry {name!r}\n"

    def test_loading_builds_forward_network_only(self, twin_dir):
        trainer, run, _ = cli.load_checkpoint_trainer(str(twin_dir / "best.pckpt"))
        assert trainer.model_bwd is None and trainer.opt_bwd is None
        assert trainer.critic is None and trainer.opt_critic is None
        assert run.twin.mode == "l2_plus_adversarial" and run.twin.critic_hidden == 4

    def test_checkpoint_with_unknown_twin_key_exits_1(self, twin_dir, corpus_dir, tmp_path,
                                                       capsys):
        meta, arrays = read_checkpoint(twin_dir / "best.pckpt")
        config = dict(meta["config"], twin=dict(meta["config"]["twin"], critic_steps=5))
        path = tmp_path / "unknown.pckpt"
        write_checkpoint(path, dict(meta, config=config), arrays)
        assert run_cli("generate", "--checkpoint", str(path),
                       "--features", str(corpus_dir / "test.jsonl")) == 1
        assert f"error: {path}: unknown key(s) in [twin]: ['critic_steps']" in \
            capsys.readouterr().err

    def test_checkpoint_decode_section_ignored(self, train_dir, corpus_dir, tmp_path):
        # checkpoints written while decode settings were part of the run config
        # carry this section, here with the defaults of that time
        old_decode = {"num_sentences": 6, "adaptive": False, "min_sentences": 1,
                      "max_sentences": 6, "max_words": None, "rep_penalty": 2.0,
                      "block_trigrams": True, "penalty_scope": "paragraph"}
        meta, arrays = read_checkpoint(train_dir / "best.pckpt")
        assert set(meta["config"]) == {"seed", "model", "twin", "train"}
        old = tmp_path / "old" / "best.pckpt"
        old.parent.mkdir()
        write_checkpoint(old, dict(meta, config=dict(meta["config"], decode=old_decode)),
                         arrays)
        new_out, old_out = tmp_path / "new.txt", tmp_path / "old" / "gen.txt"
        assert generate_bytes(train_dir / "best.pckpt", corpus_dir, new_out) == \
            generate_bytes(old, corpus_dir, old_out)
        resolved = (tmp_path / "resolved_generate_config.json").read_bytes()
        assert (old.parent / "resolved_generate_config.json").read_bytes() == resolved
        assert json.loads(resolved) == dict(meta["config"],
                                            decode=dataclasses.asdict(DecodeConfig(num_sentences=3)))

    def test_checkpoint_logits_bit_identical_after_reload(self, train_dir, corpus_dir):
        trainer, run, vocab = cli.load_checkpoint_trainer(str(train_dir / "best.pckpt"))
        trainer2, _, _ = cli.load_checkpoint_trainer(str(train_dir / "best.pckpt"))
        entry = read_manifest(corpus_dir / "test.jsonl")[0]
        feats = load_features(corpus_dir / entry["feature_path"])
        from paracnn.corpus import batch_from_entries
        batch = batch_from_entries([entry], vocab, run.model.max_sentences,
                                   run.model.max_words, base_dir=str(corpus_dir))
        from paracnn.corpus import pad_feature_batch
        f, rm = pad_feature_batch(batch.feature_refs)
        l1, _ = trainer.model.paragraph_forward(batch.tokens, batch.mask, Tensor(f), rm)
        l2, _ = trainer2.model.paragraph_forward(batch.tokens, batch.mask, Tensor(f), rm)
        assert np.array_equal(l1.data, l2.data)


class TestGradcheckCommand:
    def test_report_covers_every_component(self, capsys):
        assert run_cli("gradcheck", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        from paracnn.model import ModelConfig, ParagraphModel
        from paracnn.tensor import RngState
        # every generator parameter appears as a report row
        model = ParagraphModel(ModelConfig(
            vocab_size=11, max_sentences=2, max_words=4, visual_dim=6, proj_dim=8,
            topic_dim=8, embed_dim=8, context_dim=8, channels=8, topic_kernel=3,
            word_kernel=3, topic_depth=2, word_depth=3, pooling="self_attention",
            attn_layers=(2,), attn_heads=2), RngState(1).child(1))
        for name in model.named_parameters():
            assert f"model.{name}" in out
        for prefix in ("layer.causal_conv", "layer.embedding", "layer.visual_attention",
                       "layer.self_attention", "layer.bigru", "predictor.", "critic."):
            assert prefix in out

    def test_corrupted_backward_rule_fails(self, monkeypatch):
        # negative control: break one backward rule and the check must trip the gate
        from paracnn import tensor as T

        def bad_tanh(self):
            a = self
            y = np.tanh(self.data)
            return T.Tensor._from_op(y, (a,), lambda g: a._accumulate(g * (1.0 - y)))

        monkeypatch.setattr(T.Tensor, "tanh", bad_tanh)
        x = Tensor(T.RngState(0).normal((3,)), requires_grad=True)
        assert T.grad_check(lambda t: t.tanh().sum(), x) > 1e-4

    def test_failing_row_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gradcheck_report",
                            lambda seed: [("layer.ok", 9.9e-05), ("layer.bad", 1e-4)])
        assert run_cli("gradcheck", "--seed", "0") == 1
        assert capsys.readouterr().out.splitlines() == [
            "layer.ok   9.900e-05  ok", "layer.bad  1.000e-04  FAIL",
            "max relative error: 1.000e-04"]
