"""PCKPT1 layout of causal-conv weights: [2*out, in, kernel] on disk, GEMM layout in memory."""

import numpy as np
import pytest

from conftest import tiny_config
from paracnn import layers
from paracnn.checkpoint import (CheckpointError, load_trainer_arrays, read_checkpoint,
                                trainer_arrays, write_checkpoint)
from paracnn.corpus import ParagraphBatch
from paracnn.tensor import RngState
from paracnn.training import TwinConfig, TwinTrainer

CONV_SHAPE = (16, 8, 3)  # [2*channels, channels, kernel] of tiny_config


def conv_names(arrays):
    """Names of the conv-weight parameter entries (optimizer state excluded)."""
    return sorted(k for k in arrays
                  if "_blocks." in k and k.endswith(".weight") and not k.startswith("opt."))


def trainer(seed=3):
    return TwinTrainer(tiny_config(), TwinConfig(mode="l2_plus_adversarial", critic_hidden=4),
                       seed=seed, lr=1e-3)


def trained(seed=3):
    tr = trainer(seed)
    rng = RngState(seed).child(1)
    tokens = rng.integers(4, 11, (2, 2, 4)).astype(np.int64)
    mask = np.ones(tokens.shape, dtype=bool)
    feats = [rng.normal((3, 6)) for _ in range(2)]
    tr.train_batch(ParagraphBatch(tokens, mask, np.array([2, 2]), feats))
    return tr


def test_conv_entries_are_the_seeded_draws(monkeypatch):
    draws = []
    param = layers._param

    def recording(rng, shape, fan_in):
        p = param(rng, shape, fan_in)
        if len(shape) == 3:
            draws.append(p.data.copy())  # before the re-layout to GEMM order
        return p

    monkeypatch.setattr(layers, "_param", recording)
    arrays = trainer_arrays(trainer())
    # fwd then bwd network; topic blocks, then word blocks, in build order
    names = [f"{net}.{stack}.{i}.weight" for net in ("fwd", "bwd")
             for stack, depth in (("topic_blocks", 2), ("word_blocks", 3)) for i in range(depth)]
    assert sorted(names) == conv_names(arrays)
    assert len(draws) == len(names)
    for name, draw in zip(names, draws):
        assert arrays[name].shape == CONV_SHAPE
        assert np.array_equal(arrays[name], draw), name


def test_conv_optimizer_state_keeps_file_layout():
    tr = trained()
    arrays = trainer_arrays(tr)
    for name in conv_names(arrays):
        prefix, param = name.split(".", 1)
        opt = tr.opt if prefix == "fwd" else tr.opt_bwd
        state = opt.state[param]  # [k*in, 2*out]
        disk = arrays[f"opt.{name}"]
        assert disk.shape == CONV_SHAPE and np.any(disk)
        for o, c, tau in np.ndindex(CONV_SHAPE):
            assert disk[o, c, tau] == state[tau * 8 + c, o]


def test_write_load_write_byte_identical(tmp_path):
    meta = {"seed": 3}
    first, second = tmp_path / "a.pckpt", tmp_path / "b.pckpt"
    write_checkpoint(first, meta, trainer_arrays(trained()))
    _, arrays = read_checkpoint(first)
    fresh = trainer(seed=4)
    load_trainer_arrays(fresh, arrays)
    write_checkpoint(second, meta, trainer_arrays(fresh))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("key", ["fwd.word_blocks.1.weight", "opt.fwd.word_blocks.1.weight",
                                 "bwd.topic_blocks.0.weight"])
@pytest.mark.parametrize("shape", [(9, 16), (16, 8, 2), (16, 24)])
def test_wrong_conv_shape_raises_checkpoint_error(key, shape):
    # (9, 16) has the GEMM layout's shape, (16, 24) its size
    arrays = trainer_arrays(trainer())
    arrays[key] = np.zeros(shape)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        load_trainer_arrays(trainer(), arrays)
