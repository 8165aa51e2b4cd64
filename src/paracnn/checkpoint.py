"""Self-describing binary checkpoints.

Layout: magic "PCKPT1", a u32-length-prefixed JSON block (configs, vocabulary,
RNG seed, epoch), then u32-counted named array entries. Array entries carry
the parameters of every network (prefixes fwd./bwd./critic./predictor.) plus
optimizer state (prefix opt.*), each as (u16 name, u8 ndim, u32 dims, f64 LE
data) so round trips are bit-exact and fixtures are language-neutral.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

MAGIC = b"PCKPT1"


class CheckpointError(ValueError):
    """Checkpoint file violates the PCKPT1 format or mismatches the model."""


def write_checkpoint(path, meta: dict, arrays: dict):
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
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


def trainer_arrays(trainer) -> dict:
    """Flatten every network's parameters and optimizer state into one map."""
    out = {}
    sections = [("fwd", trainer.model, trainer.opt),
                ("predictor", trainer.predictor, trainer.opt_pred)]
    if trainer.model_bwd is not None:
        sections.append(("bwd", trainer.model_bwd, trainer.opt_bwd))
    if trainer.critic is not None:
        sections.append(("critic", trainer.critic, trainer.opt_critic))
    for prefix, module, opt in sections:
        for name, p in module.named_parameters().items():
            out[f"{prefix}.{name}"] = p.data
        for name, v in opt.state_arrays().items():
            out[f"opt.{prefix}.{name}"] = v
    return out


def load_trainer_arrays(trainer, arrays: dict, require_aux: bool = True):
    """Copy checkpoint arrays into a freshly built trainer.

    With ``require_aux`` false, missing backward-network/critic entries are
    tolerated (only the forward network is needed for inference).
    """
    sections = [("fwd", trainer.model, trainer.opt, True),
                ("predictor", trainer.predictor, trainer.opt_pred, True)]
    if trainer.model_bwd is not None:
        sections.append(("bwd", trainer.model_bwd, trainer.opt_bwd, require_aux))
    if trainer.critic is not None:
        sections.append(("critic", trainer.critic, trainer.opt_critic, require_aux))
    for prefix, module, opt, required in sections:
        params = module.named_parameters()
        opt_state = opt.state_arrays()
        for name, p in params.items():
            key = f"{prefix}.{name}"
            if key not in arrays:
                if required:
                    raise CheckpointError(f"checkpoint missing parameter {key!r}")
                continue
            arr = arrays[key]
            if arr.shape != p.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {key!r}: checkpoint {arr.shape} vs model {p.data.shape}")
            p.data = arr.astype(np.float64, copy=True)
        for name in opt_state:
            key = f"opt.{prefix}.{name}"
            if key in arrays:
                opt_state[name] = arrays[key].astype(np.float64, copy=True).reshape(
                    opt_state[name].shape)
