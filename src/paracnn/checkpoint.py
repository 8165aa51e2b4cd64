"""Self-describing binary checkpoints.

Layout: magic "PCKPT2", a u32-length-prefixed JSON block (configs, vocabulary,
RNG seed, epoch), then u32-counted named array entries. Array entries carry
the parameters of every network (prefixes fwd./bwd./critic./predictor.) plus
optimizer state (prefix opt.*), each as (u16 name, u8 ndim, u32 dims, f64 LE
data) so round trips are bit-exact and fixtures are language-neutral. Every
array has the shape the trainer holds it in.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

MAGIC = b"PCKPT2"


class CheckpointError(ValueError):
    """Checkpoint file violates the PCKPT2 format or mismatches the model."""


def write_checkpoint(path, meta: dict, arrays: dict):
    """Write a PCKPT2 file through ``path + ".tmp"``, synced then renamed over ``path``.

    A write that fails or is killed part-way leaves any previous file at ``path`` whole.
    """
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name], dtype="<f8")
                nb = name.encode("utf-8")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<B", arr.ndim))
                for d in arr.shape:
                    fh.write(struct.pack("<I", d))
                fh.write(arr.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_exact(fh, n: int, end: int, what: str, keep: bool = True) -> bytes:
    """The next ``n`` bytes, or with ``keep=False`` a seek past them; both bounds-checked.

    A read that returns fewer than ``n`` bytes is truncated too.
    """
    if fh.tell() + n <= end:
        if not keep:
            fh.seek(n, os.SEEK_CUR)
            return b""
        data = fh.read(n)
        if len(data) == n:
            return data
    raise CheckpointError(f"{fh.name}: truncated {what}")


def read_checkpoint(path, *prefixes):
    """Returns (meta dict, name -> read-only float64 array); CheckpointError on any malformed input.

    Given name ``prefixes``, only the entries whose names start with one of them
    are read; every other entry's header is read and checked and its data seeked
    past, so a cut-short skipped entry fails like a read one. Each array is a
    view of the bytes read for it; ``load_trainer_arrays`` makes the one copy.
    """
    prefixes = prefixes or ("",)  # every name starts with ""
    # unbuffered: a skipped entry's header read must not fill a buffer with its data
    with open(path, "rb", buffering=0) as fh:
        end = os.fstat(fh.fileno()).st_size
        if fh.read(6) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, expected {MAGIC!r}")
        (json_len,) = struct.unpack("<I", _read_exact(fh, 4, end, "header"))
        try:
            meta = json.loads(_read_exact(fh, json_len, end, "metadata").decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise CheckpointError(f"{path}: invalid metadata block: {exc}") from exc
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: metadata block is not a JSON object")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, end, "entry count"))
        arrays, names = {}, set()
        for i in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, end, f"entry {i} name"))
            try:
                name = _read_exact(fh, name_len, end, f"entry {i} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: invalid name of entry {i}: {exc}") from exc
            if name in names:
                raise CheckpointError(f"{path}: duplicate entry {name!r}")
            names.add(name)
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, end, f"entry {name!r} shape"))
            shape = struct.unpack("<" + "I" * ndim,
                                  _read_exact(fh, 4 * ndim, end, f"entry {name!r} shape"))
            size = math.prod(shape)  # a Python int: dims that overflow int64 read as truncated
            keep = name.startswith(prefixes)
            raw = _read_exact(fh, 8 * size, end, f"entry {name!r}", keep)
            if keep:
                arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if fh.tell() != end:
            raise CheckpointError(
                f"{path}: {end - fh.tell()} trailing bytes after {count} entries")
    return meta, arrays


def _sections(trainer) -> list:
    """(prefix, network, optimizer) for every network the trainer holds."""
    sections = [("fwd", trainer.model, trainer.opt),
                ("predictor", trainer.predictor, trainer.opt_pred),
                ("bwd", trainer.model_bwd, trainer.opt_bwd),
                ("critic", trainer.critic, trainer.opt_critic)]
    return [(prefix, net, opt) for prefix, net, opt in sections if net is not None]


def trainer_arrays(trainer) -> dict:
    """Every network's parameters and optimizer state in one map; the trainer's own arrays."""
    out = {}
    for prefix, module, opt in _sections(trainer):
        for name, p in module.named_parameters().items():
            out[f"{prefix}.{name}"] = p.data
        for name, v in opt.state.items():
            out[f"opt.{prefix}.{name}"] = v
    return out


def _copy_entry(arrays: dict, key: str, p, path) -> np.ndarray:
    """A copy of entry ``key``, checked against parameter ``p``'s shape."""
    arr = arrays[key]
    if arr.shape != p.data.shape:
        raise CheckpointError(f"{path}: shape mismatch for {key!r}: checkpoint {arr.shape} "
                              f"vs model {p.data.shape}")
    return arr.astype(np.float64, copy=True)


def load_trainer_arrays(trainer, arrays: dict, path):
    """Copy the arrays read from checkpoint ``path`` into a freshly built trainer.

    Every parameter of every network the trainer holds must be in ``arrays``
    (entries of networks it does not hold are ignored). A loaded entry,
    optimizer state included, must have its parameter's shape. Errors name ``path``.
    """
    for prefix, module, opt in _sections(trainer):
        for name, p in module.named_parameters().items():
            key = f"{prefix}.{name}"
            if key not in arrays:
                raise CheckpointError(f"{path}: checkpoint missing parameter {key!r}")
            p.data = _copy_entry(arrays, key, p, path)
            if f"opt.{key}" in arrays:
                opt.state[name] = _copy_entry(arrays, f"opt.{key}", p, path)
