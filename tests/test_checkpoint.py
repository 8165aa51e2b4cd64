"""PCKPT2 entries: every parameter and optimizer-state array in the shape the trainer holds it."""

import io
import struct
import types

import numpy as np
import pytest

from conftest import tiny_config
from paracnn import checkpoint, layers
from paracnn.checkpoint import (CheckpointError, load_trainer_arrays, read_checkpoint,
                                trainer_arrays, write_checkpoint)
from paracnn.corpus import ParagraphBatch
from paracnn.tensor import RngState
from paracnn.training import TwinConfig, TwinTrainer

GEMM_SHAPE = (24, 16)  # [kernel*channels, 2*channels] of tiny_config


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
            draws.append(p.data.copy())  # [2*out, in, k], before the re-layout
        return p

    monkeypatch.setattr(layers, "_param", recording)
    arrays = trainer_arrays(trainer())
    # fwd then bwd network; topic blocks, then word blocks, in build order
    names = [f"{net}.{stack}.{i}.weight" for net in ("fwd", "bwd")
             for stack, depth in (("topic_blocks", 2), ("word_blocks", 3)) for i in range(depth)]
    assert sorted(names) == conv_names(arrays)
    assert len(draws) == len(names)
    for name, draw in zip(names, draws):
        assert arrays[name].shape == GEMM_SHAPE
        for o, c, tau in np.ndindex(draw.shape):
            assert arrays[name][tau * 8 + c, o] == draw[o, c, tau], name


def test_critic_gru_entries_are_the_seeded_draws(monkeypatch):
    draws = []
    param = layers._param

    def recording(rng, shape, fan_in):
        p = param(rng, shape, fan_in)
        if rng._key == (TwinTrainer.CRITIC_RNG,):
            draws.append(p.data.copy())
        return p

    monkeypatch.setattr(layers, "_param", recording)
    arrays = trainer_arrays(trainer())
    # the critic's draws: fwd's nine gate weights, then bwd's, then the head's
    gates = [kind + gate for gate in "zrh" for kind in "WUb"]
    assert len(draws) == 2 * len(gates) + 1
    for k in (0, 1):
        for name, draw in zip(gates, draws[9 * k:9 * (k + 1)]):
            assert np.array_equal(arrays[f"critic.gru.{name}"][k], draw), (name, k)
    assert np.array_equal(arrays["critic.head.W"], draws[-1])
    assert sorted(k for k in arrays if k.startswith("critic.")) == sorted(
        [f"critic.gru.{name}" for name in gates] + ["critic.head.W"])


def test_entries_are_the_trainers_arrays():
    tr = trained()
    arrays = trainer_arrays(tr)
    sections = [("fwd", tr.model, tr.opt), ("predictor", tr.predictor, tr.opt_pred),
                ("bwd", tr.model_bwd, tr.opt_bwd), ("critic", tr.critic, tr.opt_critic)]
    expect = {}
    for prefix, net, opt in sections:
        expect.update({f"{prefix}.{k}": p.data for k, p in net.named_parameters().items()})
        expect.update({f"opt.{prefix}.{k}": v for k, v in opt.state.items()})
    assert arrays.keys() == expect.keys()
    assert all(arrays[k] is v for k, v in expect.items())
    assert all(np.any(arrays[f"opt.{name}"]) for name in conv_names(arrays))


def test_write_load_write_byte_identical(tmp_path):
    meta = {"seed": 3}
    first, second = tmp_path / "a.pckpt", tmp_path / "b.pckpt"
    write_checkpoint(first, meta, trainer_arrays(trained()))
    _, arrays = read_checkpoint(first)
    fresh = trainer(seed=4)
    load_trainer_arrays(fresh, arrays, first)
    write_checkpoint(second, meta, trainer_arrays(fresh))
    assert first.read_bytes() == second.read_bytes()


def test_read_entries_are_read_only_until_loaded(tmp_path):
    path = tmp_path / "a.pckpt"
    write_checkpoint(path, {}, trainer_arrays(trained()))
    _, arrays = read_checkpoint(path)
    assert arrays and not any(a.flags.writeable for a in arrays.values())
    fresh = trainer(seed=4)
    load_trainer_arrays(fresh, arrays, path)
    assert all(a.flags.writeable for a in trainer_arrays(fresh).values())


def test_load_copies_every_entry():
    source = trained()
    arrays = trainer_arrays(source)
    target = trainer(seed=4)
    load_trainer_arrays(target, arrays, "a.pckpt")
    loaded = trainer_arrays(target)
    assert loaded.keys() == arrays.keys()
    for key, arr in arrays.items():
        assert np.array_equal(loaded[key], arr) and not np.shares_memory(loaded[key], arr), key


@pytest.mark.parametrize("key", ["fwd.word_blocks.1.weight", "opt.fwd.word_blocks.1.weight",
                                 "bwd.topic_blocks.0.weight"])
@pytest.mark.parametrize("shape", [(16, 8, 3), (24, 8), (16, 24)])
def test_wrong_conv_shape_raises_checkpoint_error(key, shape):
    # (16, 8, 3) is the [2*out, in, kernel] draw, (16, 24) the transposed weight
    arrays = trainer_arrays(trainer())
    arrays[key] = np.zeros(shape)
    with pytest.raises(CheckpointError, match=rf"^a\.pckpt: shape mismatch for '{key}'"):
        load_trainer_arrays(trainer(), arrays, "a.pckpt")


def test_prefixes_select_entries(tmp_path):
    path = tmp_path / "a.pckpt"
    arrays = trainer_arrays(trained())
    write_checkpoint(path, {"seed": 3}, arrays)
    _, every = read_checkpoint(path)
    assert every.keys() == arrays.keys()
    _, some = read_checkpoint(path, "fwd.", "opt.critic.")
    assert some.keys() == {k for k in arrays if k.startswith(("fwd.", "opt.critic."))}
    assert all(np.array_equal(some[k], arrays[k]) for k in some)


def test_skipped_entries_are_not_read(tmp_path, monkeypatch):
    # every byte read from the file, counted below Python's buffering
    path = tmp_path / "a.pckpt"
    arrays = trainer_arrays(trained())
    write_checkpoint(path, {"seed": 3}, arrays)
    counted = []

    class CountingFile(io.FileIO):
        def read(self, size=-1):
            data = super().read(size)
            counted.append(len(data))
            return data

        def readinto(self, buf):
            n = super().readinto(buf)
            counted.append(n)
            return n

    def counting_open(file, mode="r", buffering=-1):
        raw = CountingFile(file, mode)
        return raw if buffering == 0 else io.BufferedReader(raw)

    monkeypatch.setattr(checkpoint, "open", counting_open, raising=False)
    prefixes = ("fwd.", "predictor.")
    _, kept = read_checkpoint(path, *prefixes)
    assert kept.keys() == {k for k in arrays if k.startswith(prefixes)}
    skipped = sum(a.nbytes for k, a in arrays.items() if not k.startswith(prefixes))
    assert sum(counted) == path.stat().st_size - skipped


def test_short_read_is_truncated(tmp_path, monkeypatch):
    # a file cut after its size was taken passes the bounds check; its read comes up short
    path = tmp_path / "a.pckpt"
    write_checkpoint(path, {}, {"a": np.ones(4)})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: types.SimpleNamespace(st_size=size))
    with pytest.raises(CheckpointError, match="truncated entry 'a'"):
        read_checkpoint(path)


@pytest.mark.parametrize("prefixes", [(), ("b",)])
def test_skipped_entries_are_checked(tmp_path, prefixes):
    path = tmp_path / "a.pckpt"
    write_checkpoint(path, {}, {"a": np.ones(2), "b": np.ones(3)})
    blob = path.read_bytes()
    a_at = blob.index(b"\x01\x00a\x01")  # entry a: name length, name, ndim
    # a's name duplicated as b's, and a's one dim as four of 2**16, whose
    # product is 0 in int64
    path.write_bytes(blob.replace(b"\x01\x00b", b"\x01\x00a"))
    with pytest.raises(CheckpointError, match="duplicate entry 'a'"):
        read_checkpoint(path, *prefixes)
    path.write_bytes(blob[:a_at + 3] + b"\x04" + struct.pack("<4I", *[2 ** 16] * 4)
                     + blob[a_at + 8:])
    with pytest.raises(CheckpointError, match="truncated entry 'a'"):
        read_checkpoint(path, *prefixes)
