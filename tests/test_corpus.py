import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from paracnn import corpus
from paracnn.corpus import (CorpusError, FeatureFileError, ParagraphBatch, Vocab,
                            batch_from_entries, build_vocab, encode_paragraph, make_batches,
                            generate_synthetic_corpus, load_features, save_features,
                            read_manifest, write_manifest, pad_feature_batch)
from paracnn.decode import sentence_lines


class TestBuildVocab:
    def test_threshold_boundary(self):
        v = build_vocab(["a a b"], min_freq=2)
        assert "a" in v.index and "b" not in v.index

    def test_min_freq_one_keeps_everything(self):
        v = build_vocab(["a b c"], min_freq=1)
        for t in "abc":
            assert t in v.index

    def test_empty_corpus_raises(self):
        with pytest.raises(CorpusError):
            build_vocab([])

    def test_specials_first_and_dense(self):
        v = build_vocab(["x x y y"], min_freq=2)
        assert v.tokens[:4] == list(corpus.SPECIALS)
        assert v.pad == 0 and v.start == 1 and v.eos == 2 and v.unk == 3
        assert sorted(v.index.values()) == list(range(len(v)))

    def test_order_frequency_then_lexicographic(self):
        v = build_vocab(["b b b a a c c"], min_freq=2)
        assert v.tokens[4:] == ["b", "a", "c"]

    def test_unknown_encodes_to_unk(self):
        v = build_vocab(["a a"], min_freq=2)
        assert v.encode_token("zzz") == v.unk


class TestEncodeParagraph:
    def test_two_sentences(self):
        v = build_vocab(["a cat. a dog. a cat. a dog."], min_freq=2)
        tokens, mask, count = encode_paragraph("a cat. a dog.", v, 6, 30)
        assert count == 2
        assert list(tokens[0, :3]) == [v.index["a"], v.index["cat"], v.eos]
        assert list(tokens[1, :3]) == [v.index["a"], v.index["dog"], v.eos]
        assert mask[0, :3].all() and not mask[0, 3:].any()
        assert not mask[2:].any()

    def test_truncation_keeps_n_minus_one_words(self):
        words = [f"w{i}" for i in range(31)]
        text = " ".join(words) + "."
        v = build_vocab([text, text], min_freq=2)
        tokens, mask, count = encode_paragraph(text, v, 6, 30)
        assert count == 1
        assert mask[0].sum() == 30
        assert tokens[0, 29] == v.eos
        assert [v.decode_index(i) for i in tokens[0, :29]] == words[:29]

    def test_round_trip_up_to_truncation_and_unk(self):
        refs = ["the red circle is in the north. the blue star is in the south."]
        v = build_vocab(refs * 2, min_freq=2)
        tokens, mask, count = encode_paragraph(refs[0], v, 6, 30)
        decoded = sentence_lines([tokens[j][mask[j]] for j in range(count)], v)
        expected = [" ".join(corpus.tokenize(s)) for s in corpus.split_sentences(refs[0])]
        assert decoded == expected

    def test_no_sentences_raises(self):
        v = build_vocab(["a a"], min_freq=2)
        with pytest.raises(CorpusError):
            encode_paragraph("   ", v)

    def test_wordless_sentence_takes_no_slot(self):
        v = build_vocab(["hi. there."] * 2, min_freq=2)
        tokens, mask, count = encode_paragraph("Hi. !. There.", v, max_sentences=2, max_words=4)
        assert count == 2
        assert [list(tokens[j][mask[j]]) for j in range(2)] == \
            [[v.index["hi"], v.eos], [v.index["there"], v.eos]]

    def test_extra_sentences_dropped(self):
        v = build_vocab(["a a. b b. c c."] * 2, min_freq=2)
        tokens, mask, count = encode_paragraph("a a. b b. c c.", v, 2, 5)
        assert count == 2


class TestParagraphBatch:
    def test_prefix_mask_enforced(self):
        tokens = np.zeros((1, 2, 3), dtype=np.int64)
        mask = np.zeros((1, 2, 3), dtype=bool)
        mask[0, 0, 2] = True  # hole before a valid position
        with pytest.raises(CorpusError):
            ParagraphBatch(tokens, mask, np.array([1]), [None])

    def test_pad_discipline_enforced(self):
        tokens = np.full((1, 1, 3), 5, dtype=np.int64)
        mask = np.zeros((1, 1, 3), dtype=bool)
        mask[0, 0, 0] = True
        with pytest.raises(CorpusError):
            ParagraphBatch(tokens, mask, np.array([1]), [None])

    def test_counts_bounded(self):
        tokens = np.zeros((1, 2, 3), dtype=np.int64)
        mask = np.zeros((1, 2, 3), dtype=bool)
        with pytest.raises(CorpusError):
            ParagraphBatch(tokens, mask, np.array([3]), [None])

    def test_counts_are_the_non_empty_rows(self):
        # a count of 0 leaves the sentence-count predictor no class to learn
        tokens, mask = np.zeros((2, 2, 3), dtype=np.int64), np.zeros((2, 2, 3), dtype=bool)
        mask[0, :, 0] = True  # item 1 has no sentence
        for counts in ([2, 0], [2, 1], [1, 0]):
            with pytest.raises(CorpusError, match="each item's non-empty sentence rows, >= 1"):
                ParagraphBatch(tokens, mask, np.array(counts), [None, None])
        mask[1, 0, 0] = True
        assert ParagraphBatch(tokens, mask, np.array([2, 1]), [None, None]).size == 2


class TestSyntheticCorpus:
    def test_same_seed_identical(self):
        a = generate_synthetic_corpus(9, 5, noise=0.05)
        b = generate_synthetic_corpus(9, 5, noise=0.05)
        assert all(x["paragraph"] == y["paragraph"] for x, y in zip(a, b))
        assert all(np.array_equal(x["features"], y["features"]) for x, y in zip(a, b))

    def test_sentence_count_matches_objects(self):
        for rec in generate_synthetic_corpus(11, 10):
            n = len(rec["objects"])
            assert len(corpus.split_sentences(rec["paragraph"])) == n
            assert rec["features"].shape[0] == n

    def test_nearest_neighbor_recovers_attributes_at_zero_noise(self):
        # every (shape, color, cell) encoding is unique: 1-NN over the clean
        # dictionary classifies each region feature exactly
        recs = generate_synthetic_corpus(13, 20, noise=0.0)
        dictionary = {}
        for s in range(len(corpus.SHAPES)):
            for c in range(len(corpus.COLORS)):
                for cell in range(9):
                    dictionary[(s, c, cell)] = corpus.encode_object(s, c, cell)
        keys = list(dictionary)
        mat = np.stack([dictionary[k] for k in keys])
        for rec in recs:
            for row, (shape, color, cell) in zip(rec["features"], rec["objects"]):
                nearest = keys[int(np.argmin(((mat - row) ** 2).sum(axis=1)))]
                assert corpus.SHAPES[nearest[0]] == shape
                assert corpus.COLORS[nearest[1]] == color
                assert nearest[2] == cell

    def test_references_fit_grid_and_vocab(self, toy_vocab):
        recs = generate_synthetic_corpus(17, 30)
        for rec in recs:
            tokens, mask, count = encode_paragraph(rec["paragraph"], toy_vocab, 3, 8)
            assert count == len(rec["objects"])
            assert not (tokens[mask] == toy_vocab.unk).any()

    def test_canonical_order_is_sorted_cells(self):
        for rec in generate_synthetic_corpus(19, 15):
            cells = [cell for _, _, cell in rec["objects"]]
            assert cells == sorted(cells)
            assert len(set(cells)) == len(cells)


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        feats = np.random.RandomState(0).randn(4, 7).astype(np.float32)
        path = tmp_path / "x.pfv"
        save_features(path, feats)
        loaded = load_features(path)
        assert np.array_equal(loaded, feats.astype(np.float64))

    def test_zero_regions_rejected(self, tmp_path):
        path = tmp_path / "bad.pfv"
        with open(path, "wb") as fh:
            fh.write(b"PFV1")
            fh.write((0).to_bytes(4, "little"))
            fh.write((5).to_bytes(4, "little"))
        with pytest.raises(FeatureFileError, match="degenerate"):
            load_features(path)

    def test_truncated_file_names_byte_counts(self, tmp_path):
        feats = np.ones((3, 5), dtype=np.float32)
        path = tmp_path / "t.pfv"
        save_features(path, feats)
        data = path.read_bytes()
        path.write_bytes(data[:-6])
        with pytest.raises(FeatureFileError,
                           match=r"wrong data length for R=3, d=5: expected 60 bytes, got 54"):
            load_features(path)

    def test_trailing_bytes_name_byte_counts(self, tmp_path):
        path = tmp_path / "t.pfv"
        save_features(path, np.ones((3, 5), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FeatureFileError,
                           match=r"wrong data length for R=3, d=5: expected 60 bytes, got 62"):
            load_features(path)

    def test_width_checked_when_given(self, tmp_path):
        path = tmp_path / "w.pfv"
        save_features(path, np.ones((2, 4)))
        with pytest.raises(FeatureFileError) as exc:
            load_features(path, 5)
        assert str(exc.value) == f"{path}: feature dim 4 != model visual_dim 5"
        assert load_features(path).shape == (2, 4)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.pfv"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FeatureFileError, match="magic"):
            load_features(path)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e39])
    def test_non_finite_values_refused_before_writing(self, tmp_path, bad):
        # 1e39 is finite as float64 but inf once cast to float32
        feats = np.ones((2, 3))
        feats[1, 2] = bad
        path = tmp_path / "bad.pfv"
        with pytest.raises(FeatureFileError, match="non-finite"):
            save_features(path, feats)
        assert not path.exists()

    def test_batch_files_checked_against_the_model_width(self, tmp_path, toy_vocab):
        save_features(tmp_path / "a.pfv", np.ones((2, 4)))
        save_features(tmp_path / "b.pfv", np.ones((3, 5)))
        entries = [{"paragraph": "the red cube is in the east.", "feature_path": name}
                   for name in ("a.pfv", "b.pfv")]
        cfg = tiny_config(max_sentences=2, max_words=8, visual_dim=4)
        batches = make_batches(entries, toy_vocab, cfg, 1, [0, 1], str(tmp_path))
        assert next(batches).feature_refs[0].shape == (2, 4)
        with pytest.raises(FeatureFileError) as exc:
            next(batches)
        assert str(exc.value) == f"{tmp_path / 'b.pfv'}: feature dim 5 != model visual_dim 4"
        # without a width, any width loads
        batch = batch_from_entries(entries[1:], toy_vocab, 2, 8, base_dir=str(tmp_path))
        assert batch.feature_refs[0].shape == (3, 5)

    def test_dimension_mismatch_across_batch(self):
        with pytest.raises(FeatureFileError, match="dimension mismatch"):
            pad_feature_batch([np.ones((2, 4)), np.ones((2, 5))])


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [{"id": "a", "feature_path": "f/a.pfv", "paragraph": "a cat."},
                   {"id": "b", "feature_path": "f/b.pfv", "paragraph": "a dog."}]
        path = tmp_path / "m.jsonl"
        write_manifest(path, entries)
        assert read_manifest(path) == entries

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "paragraph": "x."}\n')
        with pytest.raises(CorpusError, match="feature_path"):
            read_manifest(path)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=12),
                min_size=1, max_size=8))
def test_encoder_invariants_property(sentences):
    text = ". ".join(" ".join(s) for s in sentences) + "."
    vocab = build_vocab([text], min_freq=1)
    tokens, mask, count = encode_paragraph(text, vocab, 6, 10)
    assert 1 <= count <= 6
    lengths = mask.sum(axis=1)
    for j in range(6):
        assert mask[j, :lengths[j]].all()
        assert not mask[j, lengths[j]:].any()
    assert (tokens[~mask] == vocab.pad).all()
    ParagraphBatch(tokens[None], mask[None], np.array([count]), [None])


@settings(max_examples=25, deadline=None)
@given(st.permutations(["a cat ran. it was fast.", "a dog sat. a dog ate.",
                        "it was big. a cat sat."]))
def test_vocab_order_independent_property(docs):
    base = build_vocab(["a cat ran. it was fast.", "a dog sat. a dog ate.",
                        "it was big. a cat sat."])
    assert build_vocab(docs).tokens == base.tokens


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_pfv1_truncations_and_byte_flips_property(tmp_path_factory, rows, dim, data):
    """A damaged PFV1 file loads as a float64 [R, d] matrix or raises FeatureFileError."""
    values = data.draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                min_size=rows * dim, max_size=rows * dim))
    path = tmp_path_factory.mktemp("pfv1") / "f.pfv"
    save_features(path, np.array(values, dtype=np.float32).reshape(rows, dim))
    good = path.read_bytes()
    for n in range(len(good)):
        path.write_bytes(good[:n])
        with pytest.raises(FeatureFileError):
            load_features(path)
    offset = data.draw(st.integers(0, len(good) - 1))
    flipped = bytearray(good)
    flipped[offset] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(flipped))
    try:
        loaded = load_features(path)
    except FeatureFileError:
        return
    assert loaded.dtype == np.float64 and loaded.shape == (rows, dim)
