"""The benchmark in perfbench/ wraps paracnn names from outside, by attribute.

Each wrapped name must stay a module global or a class attribute, and a
method must be defined on the class itself (the tracer reads the class
``__dict__``). These tests install and restore both sets of hooks, and run
the tracer's wrappers once, so a renamed, removed or inherited name, or a
wrapper whose signature no longer fits its target, fails here instead of in
a benchmark run.
"""

import importlib
import os

import numpy as np
import pytest

from conftest import tiny_config
from paracnn import cli, training
from paracnn.checkpoint import trainer_arrays
from paracnn.corpus import SPECIALS, ParagraphBatch, Vocab
from paracnn.decode import DecodeConfig
from paracnn.tensor import RngState

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def bench_module(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module


def test_tracer_installs_and_restores(bench_module):
    tracer = bench_module("tracer")
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracer.TIMED}
    hooks = tracer.Tracer().install()
    try:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
    finally:
        hooks.restore()
    assert {(owner, attr): owner.__dict__[attr] for owner, attr in before} == before


def test_probe_installs_and_restores(bench_module):
    workloads = bench_module("workloads")

    def names():
        return (cli.decode_adaptive, cli.greedy_decode,
                training.TwinTrainer.__dict__["train_batch"])

    before = names()
    probe = workloads.Probe().install()
    try:
        assert all(a is not b for a, b in zip(names(), before))
    finally:
        probe.restore()
    assert names() == before


def test_tracer_wrappers_record_calls(bench_module, tmp_path):
    hooks = bench_module("tracer").Tracer().install()
    try:
        hooks.enabled = True
        trainer = training.TwinTrainer(tiny_config(), training.TwinConfig(), seed=0, lr=1e-3)
        rng = RngState(0)
        tokens = rng.integers(4, 11, (1, 2, 4)).astype(np.int64)
        trainer.train_batch(ParagraphBatch(tokens, np.ones(tokens.shape, dtype=bool),
                                           np.array([2]), [rng.normal((3, 6))]))
        vocab = Vocab(list(SPECIALS) + [f"w{i}" for i in range(7)])
        cli.greedy_decode(trainer.model, rng.normal((3, 6)), DecodeConfig(num_sentences=1),
                          vocab)
        cli.write_checkpoint(tmp_path / "c.pckpt", {}, trainer_arrays(trainer))
        rows = hooks.layer_metrics()
    finally:
        hooks.restore()
    for name in ("layers.CausalConvBlock.calls", "training.train_batch.calls",
                 "decode.greedy_decode.calls", "checkpoint.write_checkpoint.calls",
                 "checkpoint.bytes_written"):
        assert rows[name][0] > 0, name


def test_benchmark_settings_resolve(bench_module):
    # the overrides and flags the workloads pass must stay valid keys and options
    workloads = bench_module("workloads")
    for overrides in (workloads.TOY_MODEL + workloads.TWIN,
                      workloads.GENERATE_MODEL + workloads.PLAIN):
        cli.load_run_config(None, overrides, default_vocab_size=20, default_visual_dim=6)
    args = cli.build_parser().parse_args(["generate", "--checkpoint", "best.pckpt",
                                          "--features", "manifest.jsonl"]
                                         + workloads.TOY_GENERATE)
    assert args.func is cli.cmd_generate
