"""Self-describing binary checkpoints.

Layout: magic "PCKPT1", a u32-length-prefixed JSON block (configs, vocabulary,
RNG seed, epoch), then u32-counted named array entries. Array entries carry
the parameters of every network (prefixes fwd./bwd./critic./predictor.) plus
optimizer state (prefix opt.*), each as (u16 name, u8 ndim, u32 dims, f64 LE
data) so round trips are bit-exact and fixtures are language-neutral.

Causal-conv weights (``*.topic_blocks.N.weight``, ``*.word_blocks.N.weight``)
and their optimizer state are stored as [2*out, in, kernel]. In memory they
are held in GEMM layout [kernel*in, 2*out] (see ``layers.CausalConvBlock``);
``trainer_arrays`` and ``load_trainer_arrays`` convert at this boundary, so
the file layout and its bytes do not depend on the in-memory layout.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .layers import conv_weight_from_gemm, conv_weight_to_gemm, conv_weights

MAGIC = b"PCKPT1"


class CheckpointError(ValueError):
    """Checkpoint file violates the PCKPT1 format or mismatches the model."""


def write_checkpoint(path, meta: dict, arrays: dict):
    """Write a PCKPT1 file through ``path + ".tmp"``, synced then renamed over ``path``.

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


def _read_exact(fh, n: int, end: int, what: str) -> bytes:
    if fh.tell() + n > end:
        raise CheckpointError(f"{fh.name}: truncated {what}")
    return fh.read(n)


def read_checkpoint(path):
    """Returns (meta dict, name -> float64 array); CheckpointError on any malformed input."""
    with open(path, "rb") as fh:
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
        arrays = {}
        for i in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, end, f"entry {i} name"))
            try:
                name = _read_exact(fh, name_len, end, f"entry {i} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: invalid name of entry {i}: {exc}") from exc
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, end, f"entry {name!r} shape"))
            shape = struct.unpack("<" + "I" * ndim,
                                  _read_exact(fh, 4 * ndim, end, f"entry {name!r} shape"))
            size = int(np.prod(shape)) if ndim else 1
            raw = _read_exact(fh, 8 * size, end, f"entry {name!r}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
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
    """Flatten every network's parameters and optimizer state into one map (file layout)."""
    out = {}
    for prefix, module, opt in _sections(trainer):
        convs = conv_weights(module)
        for name, p in module.named_parameters().items():
            out[f"{prefix}.{name}"] = _to_file(p.data, convs.get(name))
        for name, v in opt.state.items():
            out[f"opt.{prefix}.{name}"] = _to_file(v, convs.get(name))
    return out


def _to_file(arr: np.ndarray, conv) -> np.ndarray:
    """``arr`` in file layout: [2*out, in, k] for a conv weight or its optimizer state."""
    return arr if conv is None else conv_weight_from_gemm(arr, conv.kernel_size)


def _from_file(arrays: dict, key: str, p, conv) -> np.ndarray:
    """Entry ``key`` checked against parameter ``p``'s file shape, in memory layout."""
    arr = arrays[key]
    shape = p.data.shape if conv is None else conv.conv_shape
    if arr.shape != shape:
        raise CheckpointError(
            f"shape mismatch for {key!r}: checkpoint {arr.shape} vs model {shape}")
    return arr.astype(np.float64, copy=True) if conv is None else conv_weight_to_gemm(arr)


def load_trainer_arrays(trainer, arrays: dict):
    """Copy checkpoint arrays into a freshly built trainer.

    Every parameter of every network the trainer holds must be in ``arrays``
    (entries of networks it does not hold are ignored). A loaded entry,
    optimizer state included, must have its parameter's file shape.
    """
    for prefix, module, opt in _sections(trainer):
        convs = conv_weights(module)
        for name, p in module.named_parameters().items():
            key = f"{prefix}.{name}"
            conv = convs.get(name)
            if key not in arrays:
                raise CheckpointError(f"checkpoint missing parameter {key!r}")
            p.data = _from_file(arrays, key, p, conv)
            if f"opt.{key}" in arrays:
                opt.state[name] = _from_file(arrays, f"opt.{key}", p, conv)
