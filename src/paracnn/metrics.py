"""Caption evaluation metrics: corpus BLEU-1..4, ROUGE-L, and CIDEr-D.

Each image has one reference paragraph, as in the Stanford paragraph set.
Hypotheses and references are flat token sequences (paragraphs are scored as
one stream; sentence boundaries never produce n-grams because <eos> tokens
are stripped before scoring). All three metrics are pure functions of the
pair list, invariant to pair order.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

ROUGE_BETA_SQ = 1.2  # beta^2 of ROUGE-L's F-measure
CIDER_ORDERS = 4  # CIDEr-D averages n-gram orders 1..4
CIDER_SIGMA = 6.0  # width of CIDEr-D's Gaussian length penalty


@dataclass
class EvalPair:
    """One hypothesis with its reference token sequence."""

    hypothesis: list
    reference: list

    def __post_init__(self):
        if len(self.reference) == 0:
            raise ValueError("every EvalPair needs a non-empty reference")


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


# -- BLEU ---------------------------------------------------------------------------


def bleu_n(pairs, n: int) -> float:
    """Corpus-level BLEU-n: clipped modified precision, geometric mean over
    orders 1..n, brevity penalty exp(1 - r/c) applied only when c < r."""
    if n not in (1, 2, 3, 4):
        raise ValueError("BLEU order must be in 1..4")
    matched = np.zeros(n)
    total = np.zeros(n)
    c_len = 0
    r_len = 0
    for pair in pairs:
        hyp = list(pair.hypothesis)
        c_len += len(hyp)
        r_len += len(pair.reference)
        for k in range(1, n + 1):
            hyp_counts = _ngrams(hyp, k)
            ref_counts = _ngrams(pair.reference, k)
            total[k - 1] += sum(hyp_counts.values())
            matched[k - 1] += sum(min(cnt, ref_counts[gram]) for gram, cnt in hyp_counts.items())
    if (total == 0).any() or (matched == 0).any():
        return 0.0
    log_prec = np.log(matched / total).mean()
    bp = 1.0 if c_len >= r_len else float(np.exp(1.0 - r_len / max(c_len, 1)))
    return float(bp * np.exp(log_prec))


# -- ROUGE-L --------------------------------------------------------------------------


def _lcs_length(a, b) -> int:
    la, lb = len(a), len(b)
    prev = [0] * (lb + 1)
    for i in range(1, la + 1):
        cur = [0] * (lb + 1)
        ai = a[i - 1]
        for j in range(1, lb + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    return prev[lb]

def rouge_l(pairs) -> float:
    """Corpus-averaged LCS F-measure."""
    scores = []
    for pair in pairs:
        hyp = list(pair.hypothesis)
        lcs = _lcs_length(hyp, pair.reference)
        if lcs == 0:
            scores.append(0.0)
            continue
        prec = lcs / len(hyp)
        rec = lcs / len(pair.reference)
        scores.append((1.0 + ROUGE_BETA_SQ) * prec * rec / (rec + ROUGE_BETA_SQ * prec))
    return float(np.mean(scores)) if scores else 0.0


# -- CIDEr-D ----------------------------------------------------------------------------


def cider(pairs) -> float:
    """CIDEr-D: clipped tf-idf cosine per n-gram order, Gaussian length
    damping, averaged over orders 1..4, scaled by 10. The reference corpus of
    the pair list itself estimates document frequencies."""
    pairs = list(pairs)
    n_docs = len(pairs)
    if n_docs == 0:
        return 0.0
    if n_docs == 1:
        log.warning("single-document corpus: IDF is degenerate, CIDEr is 0 by construction")

    doc_freq = [Counter() for _ in range(CIDER_ORDERS)]
    for pair in pairs:
        for k in range(1, CIDER_ORDERS + 1):
            doc_freq[k - 1].update(_ngrams(pair.reference, k).keys())

    log_n = np.log(float(n_docs))

    def tfidf(counts: Counter, k: int):
        vec = {}
        norm_sq = 0.0
        for gram, cnt in counts.items():
            idf = log_n - np.log(max(1.0, doc_freq[k - 1][gram]))
            w = cnt * idf
            vec[gram] = w
            norm_sq += w * w
        return vec, np.sqrt(norm_sq)

    scores = []
    for pair in pairs:
        hyp, ref = list(pair.hypothesis), pair.reference
        order_scores = np.zeros(CIDER_ORDERS)
        for k in range(1, CIDER_ORDERS + 1):
            hvec, hnorm = tfidf(_ngrams(hyp, k), k)
            rvec, rnorm = tfidf(_ngrams(ref, k), k)
            if hnorm == 0 or rnorm == 0:
                continue
            dot = sum(min(w, rvec[g]) * rvec[g] for g, w in hvec.items() if g in rvec)
            delta = len(hyp) - len(ref)
            order_scores[k - 1] = (dot / (hnorm * rnorm)) * np.exp(
                -delta * delta / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
        scores.append(float(order_scores.mean()))
    return float(10.0 * np.mean(scores))


def evaluate_all(pairs) -> dict:
    """All metrics at once, on the 0..1 (BLEU/ROUGE) and 0..10 (CIDEr) scales."""
    pairs = list(pairs)
    empty = sum(not pair.hypothesis for pair in pairs)
    if empty:
        log.warning("%d of %d hypotheses are empty and score 0 matches", empty, len(pairs))
    out = {f"BLEU-{k}": bleu_n(pairs, k) for k in (1, 2, 3, 4)}
    out["ROUGE-L"] = rouge_l(pairs)
    out["CIDEr"] = cider(pairs)
    return out
