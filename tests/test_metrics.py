import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracnn.metrics import EvalPair, bleu_n, cider, evaluate_all, rouge_l

CIDER_FIXTURE = [
    (["a", "red", "circle", "is", "here"], ["a", "red", "circle", "is", "there"]),
    (["the", "blue", "square", "sits", "low"], ["the", "blue", "square", "sits", "high"]),
    (["a", "green", "star", "is", "here"], ["a", "green", "star", "was", "here"]),
]
# value of the brute-force tf-idf/cosine oracle below, frozen
CIDER_FIXTURE_SCORE = 5.819277130081578


def pairs_of(items):
    return [EvalPair(h, r) for h, r in items]


def brute_force_ngrams(tokens, n):
    out = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i:i + n])
        out[g] = out.get(g, 0) + 1
    return out


def cider_oracle(docs, sigma=6.0):
    """Independent tf-idf + cosine evaluation, written against the metric
    definition rather than the implementation."""
    n_docs = len(docs)
    per_doc = []
    for hyp, ref in docs:
        per_order = []
        for n in range(1, 5):
            df = {}
            for _, r in docs:
                for g in set(brute_force_ngrams(r, n)):
                    df[g] = df.get(g, 0) + 1
            idf = lambda g: np.log(n_docs) - np.log(max(1.0, df.get(g, 0)))
            hvec = {g: c * idf(g) for g, c in brute_force_ngrams(hyp, n).items()}
            rvec = {g: c * idf(g) for g, c in brute_force_ngrams(ref, n).items()}
            hn = np.sqrt(sum(v * v for v in hvec.values()))
            rn = np.sqrt(sum(v * v for v in rvec.values()))
            if hn == 0 or rn == 0:
                per_order.append(0.0)
                continue
            dot = sum(min(hvec[g], rvec[g]) * rvec[g] for g in hvec if g in rvec)
            delta = len(hyp) - len(ref)
            per_order.append(dot / (hn * rn) * np.exp(-delta ** 2 / (2 * sigma ** 2)))
        per_doc.append(np.mean(per_order))
    return 10.0 * float(np.mean(per_doc))


class TestBleu:
    def test_perfect_match_is_one(self):
        p = pairs_of([(list("abcd"), list("abcd"))])
        for n in (1, 2, 3, 4):
            assert bleu_n(p, n) == 1.0

    def test_clipping_and_brevity_hand_case(self):
        # hyp 'the the the the' vs ref 'the cat': clipped unigram count 1 of 4;
        # candidate longer than reference, so no brevity penalty applies
        p = pairs_of([("the the the the".split(), "the cat".split())])
        assert abs(bleu_n(p, 1) - 0.25) < 1e-12

    def test_brevity_penalty_applies_when_shorter(self):
        p = pairs_of([("the cat".split(), "the cat sat on the mat".split())])
        # precisions: unigram 2/2; c=2, r=6 -> bp = exp(1 - 3)
        assert abs(bleu_n(p, 1) - np.exp(1 - 6 / 2)) < 1e-12

    def test_disjoint_vocabulary_is_zero(self):
        p = pairs_of([(list("abc"), list("xyz"))])
        for n in (1, 2, 3, 4):
            assert bleu_n(p, n) == 0.0

    def test_empty_hypothesis_scores_zero(self):
        assert bleu_n(pairs_of([([], list("ab"))]), 1) == 0.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            bleu_n([], 5)

    def test_appending_mismatch_strictly_decreases(self):
        ref = "a b c d e".split()
        perfect = pairs_of([(ref, ref)])
        worse = pairs_of([(ref + ["zzz"], ref)])
        for n in (1, 2, 3, 4):
            assert bleu_n(worse, n) < bleu_n(perfect, n)

    def test_corpus_level_not_mean_of_pairs(self):
        # corpus BLEU pools counts: one bad pair drags totals, not the average
        pairs = pairs_of([(list("ab"), list("ab")), (list("xy"), list("ab"))])
        assert abs(bleu_n(pairs, 1) - 0.5) < 1e-12


class TestRougeL:
    def test_identical_is_one(self):
        assert rouge_l(pairs_of([(list("abc"), list("abc"))])) == 1.0

    def test_lcs_hand_case(self):
        # LCS('a b c', 'a x c') = 2, P = R = 2/3 -> F = 2/3 for any beta
        p = pairs_of([("a b c".split(), "a x c".split())])
        assert abs(rouge_l(p) - 2.0 / 3.0) < 1e-12

    def test_zero_overlap(self):
        assert rouge_l(pairs_of([(list("ab"), list("xy"))])) == 0.0

    def test_one_iff_equal(self):
        near = pairs_of([(list("abcd"), list("abce"))])
        assert rouge_l(near) < 1.0


class TestCider:
    def test_three_document_fixture_matches_oracle(self):
        pairs = pairs_of(CIDER_FIXTURE)
        got = cider(pairs)
        assert abs(got - CIDER_FIXTURE_SCORE) < 1e-10
        assert abs(got - cider_oracle(CIDER_FIXTURE)) < 1e-10

    def test_identical_hypothesis_is_maximal_in_corpus(self):
        docs = [(r, r) for _, r in CIDER_FIXTURE]
        scores = []
        for i in range(len(docs)):
            mixed = list(CIDER_FIXTURE)
            mixed[i] = docs[i]
            one_hot = cider([EvalPair(h, r) for h, r in mixed])
            scores.append(one_hot)
        all_wrong = cider(pairs_of(CIDER_FIXTURE))
        assert all(s > all_wrong for s in scores)

    def test_zero_overlap_is_zero(self):
        docs = [(list("pq"), list("ab")), (list("rs"), list("cd")),
                (list("tu"), list("ef"))]
        assert cider(pairs_of(docs)) == 0.0

    def test_single_document_warns_and_degenerates(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="paracnn.metrics"):
            score = cider(pairs_of([(list("ab"), list("ab"))]))
        assert "degenerate" in caplog.text
        assert score == 0.0  # idf of ever-present n-grams is log(1) = 0

    def test_length_damping(self):
        base = [(list("abcd"), list("abcd")), (list("wxyz"), list("wxyz")),
                (list("mnop"), list("qrst"))]
        long_hyp = [(list("abcd") + list("abcd"), list("abcd"))] + base[1:]
        assert cider(pairs_of(long_hyp)) < cider(pairs_of(base))


class TestEvaluateAll:
    def test_identical_pairs_score_exactly_one(self):
        pairs = pairs_of([(r, r) for _, r in CIDER_FIXTURE])
        scores = evaluate_all(pairs)
        assert scores["BLEU-1"] == 1.0
        assert scores["ROUGE-L"] == 1.0
        assert scores["BLEU-4"] == 1.0

    def test_empty_hypotheses_warn_once(self, caplog):
        import logging
        pairs = pairs_of([([], list("ab"))] * 4)
        with caplog.at_level(logging.WARNING, logger="paracnn.metrics"):
            scores = evaluate_all(pairs)
        assert caplog.messages == ["4 of 4 hypotheses are empty and score 0 matches"]
        assert set(scores.values()) == {0.0}


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(len(CIDER_FIXTURE)))))
def test_metrics_permutation_invariant(order):
    base = pairs_of(CIDER_FIXTURE)
    shuffled = [base[i] for i in order]
    for n in (1, 4):
        assert bleu_n(shuffled, n) == bleu_n(base, n)
    assert rouge_l(shuffled) == rouge_l(base)
    assert abs(cider(shuffled) - cider(base)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=10),
       st.lists(st.sampled_from("abcde"), min_size=1, max_size=10))
def test_bleu_bounded_property(hyp, ref):
    score = bleu_n([EvalPair(hyp, ref)], 2)
    assert 0.0 <= score <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=8))
def test_rouge_identity_property(tokens):
    assert rouge_l([EvalPair(tokens, list(tokens))]) == 1.0
