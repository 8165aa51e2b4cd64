"""Paragraph preprocessing, synthetic scene corpus, and feature file I/O.

The synthetic corpus is the desk-scale stand-in for a real paragraph
dataset: seeded scenes of colored shapes on a 3x3 grid, one templated sentence
per object, and region features that deterministically encode each object's
(shape, color, position) so the text is a learnable function of the features.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import RngState

PAD, START, EOS, UNK = "<pad>", "<start>", "<eos>", "<unk>"
SPECIALS = (PAD, START, EOS, UNK)

FEATURE_MAGIC = b"PFV1"

SHUFFLE_RNG = 11  # the RngState tag of every seeded data order (see shuffle_order)

_SENT_SPLIT = re.compile(r"(?<=[.!?])\s+")


class CorpusError(ValueError):
    """Malformed corpus input (empty text, bad manifest, bad encode request)."""


class FeatureFileError(ValueError):
    """Feature file violates the PFV1 format."""


def tokenize(text: str) -> list:
    """Lowercased whitespace tokens with terminal punctuation stripped."""
    out = []
    for tok in text.lower().split():
        tok = tok.strip(".!?")
        if tok:
            out.append(tok)
    return out


def split_sentences(text: str) -> list:
    """Split on '.', '!', '?' followed by whitespace; drop empty pieces."""
    pieces = _SENT_SPLIT.split(text.strip())
    return [p for p in (s.strip() for s in pieces) if p]


@dataclass
class Vocab:
    """Bidirectional token map; the first four tokens are the specials."""

    tokens: list
    index: dict = field(init=False)
    pad, start, eos, unk = range(len(SPECIALS))  # the indices of SPECIALS

    def __post_init__(self):
        if tuple(self.tokens[:4]) != SPECIALS:
            raise CorpusError(f"vocab must start with the special tokens {SPECIALS}")
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise CorpusError("duplicate tokens in vocab")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode_token(self, tok: str) -> int:
        return self.index.get(tok, self.unk)

    def decode_index(self, idx: int) -> str:
        return self.tokens[idx]


def build_vocab(paragraphs, min_freq: int = 2) -> Vocab:
    """Frequency-thresholded vocabulary, deterministic and order-independent.

    Tokens with corpus frequency below ``min_freq`` are dropped (they encode
    to <unk>); the kept tokens are ordered by descending frequency, ties
    broken lexicographically. On the full-scale visual-paragraph dataset the
    default threshold yields a vocabulary of 8668 words; the synthetic corpus
    stays under 30.
    """
    paragraphs = list(paragraphs)
    if not paragraphs:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    freq = {}
    for p in paragraphs:
        for tok in tokenize(p):
            freq[tok] = freq.get(tok, 0) + 1
    kept = sorted((t for t, c in freq.items() if c >= min_freq),
                  key=lambda t: (-freq[t], t))
    return Vocab(list(SPECIALS) + kept)


def encode_paragraph(text: str, vocab: Vocab, max_sentences: int = 6,
                     max_words: int = 30):
    """Encode one paragraph into a fixed [M, N] grid.

    Drops the sentences without words, then keeps at most M sentences; each
    sentence keeps at most N-1 words plus a trailing <eos>, padded with <pad>.
    Returns (tokens, mask, sentence_count) where the mask covers the words and
    the <eos>.
    """
    sentences = split_sentences(text)
    if not sentences:
        raise CorpusError(f"no sentences after segmentation: {text!r}")
    kept = [words for words in map(tokenize, sentences) if words][:max_sentences]
    if not kept:
        raise CorpusError(f"no tokens after segmentation: {text!r}")
    tokens = np.full((max_sentences, max_words), vocab.pad, dtype=np.int64)
    mask = np.zeros((max_sentences, max_words), dtype=bool)
    for j, words in enumerate(kept):
        ids = [vocab.encode_token(w) for w in words[: max_words - 1]] + [vocab.eos]
        tokens[j, : len(ids)] = ids
        mask[j, : len(ids)] = True
    return tokens, mask, len(kept)


@dataclass
class ParagraphBatch:
    """Padded token grid [B, M, N] with prefix masks and per-item counts."""

    tokens: np.ndarray
    mask: np.ndarray
    sentence_counts: np.ndarray
    feature_refs: list

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.mask = np.asarray(self.mask, dtype=bool)
        self.sentence_counts = np.asarray(self.sentence_counts, dtype=np.int64)
        if self.tokens.ndim != 3 or self.mask.shape != self.tokens.shape:
            raise CorpusError("batch tokens and mask must share a [B, M, N] shape")
        B, M, N = self.tokens.shape
        if self.sentence_counts.shape != (B,) or len(self.feature_refs) != B:
            raise CorpusError("per-item fields must have length B")
        rows = self.mask.any(axis=2).sum(axis=1)
        if (self.sentence_counts != rows).any() or (rows < 1).any():
            raise CorpusError("sentence_counts must be each item's non-empty sentence rows, >= 1")
        # valid positions must form a prefix of each sentence row
        lengths = self.mask.sum(axis=2)
        prefix = np.arange(N)[None, None, :] < lengths[:, :, None]
        if not (prefix == self.mask).all():
            raise CorpusError("mask rows must be prefix-shaped")
        if (self.tokens[~self.mask] != 0).any():
            raise CorpusError("padded positions must hold <pad>")

    @property
    def size(self) -> int:
        return self.tokens.shape[0]


# -- synthetic scenes ------------------------------------------------------------

COLORS = ("blue", "green", "orange", "purple", "red", "yellow")
SHAPES = ("circle", "cone", "cube", "ring", "square", "star")
POSITION_NAMES = ("northwest", "north", "northeast",
                  "west", "center", "east",
                  "southwest", "south", "southeast")  # the 3x3 grid's cells, row-major
CELLS = len(POSITION_NAMES)
# a position block plus one shape and one color block per cell
FEATURE_DIM = CELLS * (1 + len(SHAPES) + len(COLORS))

SENTENCE_TEMPLATE = "the {color} {shape} is in the {position}."


def encode_object(shape_idx: int, color_idx: int, cell: int) -> np.ndarray:
    """Deterministic region feature: position block plus position-tied
    shape and color blocks, so pooled unions keep attribute pairings."""
    vec = np.zeros(FEATURE_DIM)
    vec[cell] = 1.0
    vec[CELLS + cell * len(SHAPES) + shape_idx] = 1.0
    vec[CELLS + CELLS * len(SHAPES) + cell * len(COLORS) + color_idx] = 1.0
    return vec


def generate_synthetic_corpus(seed: int, size: int, max_objects: int = 3,
                              noise: float = 0.05):
    """Seeded dataset of records: id, objects, paragraph and region features.

    A scene's ``objects`` are 2..max_objects (shape, color, cell) triples on
    distinct cells in canonical (row-major cell) order; the paragraph is one
    templated sentence per object and region features carry seeded Gaussian
    noise of the given amplitude.
    """
    if size < 1:
        raise CorpusError("corpus size must be >= 1")
    if max_objects < 2:
        raise CorpusError(f"max_objects {max_objects} is below the 2 objects of every scene")
    if max_objects > CELLS:
        raise CorpusError(f"max_objects {max_objects} exceeds {CELLS} grid cells")
    if not 0 <= noise < np.inf:
        raise CorpusError(f"noise {noise} must be finite and >= 0")
    rng = RngState(seed).child(17)
    records = []
    for i in range(size):
        n = int(rng.integers(2, max_objects + 1))
        chosen = sorted(int(c) for c in rng.choice(np.arange(CELLS), size=n, replace=False))
        objs = []
        feats = np.zeros((n, FEATURE_DIM))
        for r, cell in enumerate(chosen):
            s = int(rng.integers(0, len(SHAPES)))
            c = int(rng.integers(0, len(COLORS)))
            objs.append((SHAPES[s], COLORS[c], cell))
            feats[r] = encode_object(s, c, cell)
        if noise > 0:
            feats = feats + rng.normal(feats.shape, scale=noise)
        paragraph = " ".join(SENTENCE_TEMPLATE.format(color=c, shape=s,
                                                      position=POSITION_NAMES[cell])
                             for s, c, cell in objs)
        records.append({"id": f"scene{i:05d}", "objects": objs,
                        "paragraph": paragraph, "features": feats})
    return records


def synthetic_vocab_paragraphs() -> list:
    """Every template sentence once, repeated so all words clear min_freq=2."""
    sents = [SENTENCE_TEMPLATE.format(color=c, shape=s, position=p)
             for c in COLORS for s in SHAPES for p in POSITION_NAMES]
    return [" ".join(sents)] * 2


# -- feature files -----------------------------------------------------------------

def save_features(path, features: np.ndarray):
    """Write a PFV1 file: magic, u32 region count, u32 dim, f32 row-major data.

    Every value must be finite as float32 (``load_features`` rejects the rest),
    so a value beyond the float32 range is refused too; nothing is written then.
    """
    with np.errstate(over="ignore"):  # an out-of-range value becomes inf, refused below
        arr = np.asarray(features, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise FeatureFileError(f"features must be a non-empty [R, d] matrix, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise FeatureFileError("non-finite feature value (NaN, inf, or beyond the float32 range)")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f4").tobytes())


def load_features(path, visual_dim: int = None) -> np.ndarray:
    """Read a PFV1 file into a float64 [R, d] matrix; every value must be finite,
    and d must be ``visual_dim`` if that is given."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise FeatureFileError(f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise FeatureFileError(f"{path}: truncated header")
        rows, dim = struct.unpack("<II", header)
        if rows == 0 or dim == 0:
            raise FeatureFileError(f"{path}: degenerate dimensions R={rows}, d={dim}")
        expected = rows * dim * 4
        payload = fh.read()
        if len(payload) != expected:
            raise FeatureFileError(f"{path}: wrong data length for R={rows}, d={dim}: "
                                   f"expected {expected} bytes, got {len(payload)}")
    features = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(rows, dim)
    if not np.isfinite(features).all():
        raise FeatureFileError(f"{path}: non-finite feature value (NaN or inf)")
    if visual_dim is not None and dim != visual_dim:
        raise FeatureFileError(f"{path}: feature dim {dim} != model visual_dim {visual_dim}")
    return features


# -- manifests ------------------------------------------------------------------------

def write_manifest(path, entries):
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps({"id": e["id"], "feature_path": e["feature_path"],
                                 "paragraph": e["paragraph"]}, sort_keys=True) + "\n")


def read_manifest(path) -> list:
    entries = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: manifest line is not JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise CorpusError(f"{path}:{lineno}: manifest record is not a JSON object")
            for key in ("id", "feature_path", "paragraph"):
                if key not in rec:
                    raise CorpusError(f"{path}:{lineno}: manifest record missing {key!r}")
                if not isinstance(rec[key], str):
                    raise CorpusError(f"{path}:{lineno}: manifest field {key!r} must be a "
                                      f"string, got {json.dumps(rec[key])}")
            entries.append(rec)
    if not entries:
        raise CorpusError(f"{path}: empty manifest")
    return entries


def batch_from_entries(entries, vocab: Vocab, max_sentences: int, max_words: int,
                       base_dir: str = "", visual_dim: int = None) -> ParagraphBatch:
    """Encode manifest entries into one padded batch with loaded features.

    A ``feature_path`` names a PFV1 file relative to ``base_dir``, which must
    be ``visual_dim`` wide if that is given, or holds an in-memory [R, d]
    feature array.
    """
    toks, masks, counts, feats = [], [], [], []
    for e in entries:
        t, m, c = encode_paragraph(e["paragraph"], vocab, max_sentences, max_words)
        toks.append(t)
        masks.append(m)
        counts.append(c)
        fp = e["feature_path"]
        feats.append(load_features(os.path.join(base_dir, fp), visual_dim)
                     if isinstance(fp, str) else fp)
    return ParagraphBatch(np.stack(toks), np.stack(masks), np.asarray(counts), feats)


def shuffle_order(seed: int, n: int, epoch: int = None) -> np.ndarray:
    """The seeded permutation of ``n`` entries: the corpus split's order, or
    with an ``epoch`` (1, 2, ...) that training epoch's batch order."""
    rng = RngState(seed).child(SHUFFLE_RNG)
    return (rng if epoch is None else rng.child(epoch)).permutation(n)


def make_batches(entries, vocab: Vocab, cfg, batch_size: int, order, base_dir: str):
    """Yield batches of ``batch_size`` entries taken in ``order``; the last may be short.

    Each batch is on the [M, N] grid of the model config ``cfg``, and each
    feature file read must be ``cfg.visual_dim`` wide. A batch is built, and its
    features read, only when the caller asks for it: a loop over the batches
    holds one batch, and the next while it is built.
    """
    for lo in range(0, len(order), batch_size):
        yield batch_from_entries([entries[i] for i in order[lo:lo + batch_size]], vocab,
                                 cfg.max_sentences, cfg.max_words, base_dir=base_dir,
                                 visual_dim=cfg.visual_dim)


def pad_feature_batch(features: list):
    """Stack variable-region feature matrices into [B, R_max, d] plus a mask."""
    dims = {f.shape[1] for f in features}
    if len(dims) != 1:
        raise FeatureFileError(f"feature dimension mismatch across batch: {sorted(dims)}")
    d = dims.pop()
    rmax = max(f.shape[0] for f in features)
    out = np.zeros((len(features), rmax, d))
    mask = np.zeros((len(features), rmax))
    for i, f in enumerate(features):
        out[i, : f.shape[0]] = f
        mask[i, : f.shape[0]] = 1.0
    return out, mask
