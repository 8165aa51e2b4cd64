"""Sequential inference: greedy decoding with optional repetition penalties.

Decoding is deterministic: per sentence, the context pools the previously
*generated* sentence, the topic stack is extended by one slot, and words are
picked by argmax until <eos> or the word budget. Decoding runs the same
``ParagraphModel.topic_forward`` and ``ParagraphModel.sentence_forward`` as
teacher-forced training, for one image at a time; each word step feeds only
the newest token's embedded row and records no tape (``no_grad``). Each
token's row is embedded once per paragraph. A paragraph's ``WordCache`` holds
what its word steps share: the attention keys of the image, computed once per
paragraph, and the word blocks' input histories, emptied per sentence. The
repetition penalty subtracts gamma times a token's emission count from its
logit, and trigram blocking forbids completing any already-emitted trigram;
both apply at inference only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Vocab
from .model import ParagraphModel, SentenceCountPredictor, TopicState, WordCache
from .tensor import Tensor, no_grad

NEG_INF = float("-inf")
# the line standing for a sentence without words in the paragraph text format
EMPTY_SENTENCE = "<empty>"


@dataclass
class DecodeConfig:
    num_sentences: int = 6
    adaptive: bool = False
    min_sentences: int = 1
    max_sentences: int = 6
    max_words: int = None
    rep_penalty: float = 2.0
    block_trigrams: bool = True

    def __post_init__(self):
        if self.num_sentences < 1 or self.min_sentences < 1:
            raise ValueError("num_sentences and min_sentences must be >= 1")
        if self.max_words is not None and self.max_words < 1:
            raise ValueError("max_words must be >= 1, or None for the model's budget")
        if self.min_sentences > self.max_sentences:
            raise ValueError("min_sentences must not exceed max_sentences")
        if not (type(self.rep_penalty) in (int, float) and 0 <= self.rep_penalty < math.inf):
            raise ValueError(f"rep_penalty must be finite and >= 0, got {self.rep_penalty!r}")


def apply_repetition_penalty(logits: np.ndarray, history, gamma: float,
                             block_trigrams: bool) -> np.ndarray:
    """Adjusted copy of ``logits`` given the emitted token history.

    Every token loses gamma times its count in the history; with blocking on,
    any token that would repeat an already-seen trigram is set to -inf.
    """
    out = np.array(logits, dtype=np.float64, copy=True)
    history = list(history)
    if gamma > 0:
        for tok in history:
            out[tok] -= gamma
    if block_trigrams and len(history) >= 2:
        last2 = (history[-2], history[-1])
        for a, b, c in zip(history, history[1:], history[2:]):
            if (a, b) == last2:
                out[c] = NEG_INF
    return out


@no_grad()
def greedy_decode(model: ParagraphModel, features, dc: DecodeConfig, vocab: Vocab,
                  predictor: SentenceCountPredictor = None) -> list:
    """Decode one paragraph as a list of sentences (lists of word indices).

    <eos> ends a sentence early and is kept as its last word; a sentence that
    never emits <eos> stops at the word budget, so every sentence holds at
    least one word.
    ``dc.num_sentences`` sentences are decoded; with a ``predictor``, the count
    is predicted from the projected image instead (class k means k+1 sentences,
    the lowest class wins a tie) and clamped to [dc.min_sentences, dc.max_sentences].
    """
    n_words = min(dc.max_words or model.cfg.max_words, model.cfg.max_words)

    # a batch of one image: [1, proj] global vector, [1, R, proj] regions
    global_feat, regions = model.project_features(Tensor(np.asarray(features)[None]))
    cache = WordCache(model.region_keys(regions))
    if predictor is not None:
        count = int(np.argmax(predictor(global_feat).data)) + 1
        n_sent = min(max(count, dc.min_sentences), dc.max_sentences)
    else:
        n_sent = dc.num_sentences

    state, sentences = TopicState(), []
    history = []  # every token of the paragraph so far
    rows = {}  # token -> its embedded [1, 1, embed] row
    for _ in range(n_sent):
        if sentences:
            prev = np.asarray(sentences[-1:], dtype=np.int64)
            topic = model.topic_forward(state, global_feat, model.embed(prev), np.ones(prev.shape))
        else:
            topic = model.topic_forward(state, global_feat)

        cache.histories.clear()
        tok = vocab.start
        words = []
        for _ in range(n_words):
            if tok not in rows:
                rows[tok] = model.embed([[tok]])
            _, logits = model.sentence_forward(topic, rows[tok], regions, cache=cache)
            row = logits.data[0, -1]
            if dc.rep_penalty > 0 or dc.block_trigrams:
                row = apply_repetition_penalty(row, history, dc.rep_penalty, dc.block_trigrams)
            tok = int(np.argmax(row))
            history.append(tok)
            words.append(tok)
            if tok == vocab.eos:
                break
        sentences.append(words)
    return sentences


def decode_adaptive(model: ParagraphModel, predictor: SentenceCountPredictor, features,
                    dc: DecodeConfig, vocab: Vocab) -> list:
    """Greedy decode with the sentence count predicted then clamped."""
    return greedy_decode(model, features, dc, vocab, predictor=predictor)


def sentence_lines(sentences, vocab: Vocab) -> list:
    """A decoded paragraph as one line of words per sentence, specials dropped."""
    specials = (vocab.pad, vocab.start, vocab.eos, vocab.unk)
    return [" ".join(vocab.decode_index(w) for w in words if w not in specials)
            for words in sentences]


def write_paragraphs(paragraphs, fh):
    """Emit paragraphs, lists of sentence lines as ``read_paragraphs`` returns them.

    Blank lines separate paragraphs, so an empty sentence is the line ``<empty>``
    and a paragraph without sentences is written as one empty sentence.
    """
    for i, lines in enumerate(paragraphs):
        if i:
            fh.write("\n")
        for line in lines or [""]:
            fh.write((line or EMPTY_SENTENCE) + "\n")


def read_paragraphs(fh) -> list:
    """Parse the line-structured format back into lists of sentence strings."""
    paragraphs, current = [], []
    for line in fh:
        line = line.rstrip("\n")
        if line == "":
            if current:
                paragraphs.append(current)
                current = []
        else:
            current.append("" if line == EMPTY_SENTENCE else line)
    if current:
        paragraphs.append(current)
    return paragraphs
