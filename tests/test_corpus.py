"""Corpus pipeline: tokenizer, parsers, views, vocab, batching."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectgate.corpus import (
    HDS_RULES,
    LABELS,
    PAD,
    UNK,
    AspectAnnotation,
    Batch,
    CorpusError,
    Instance,
    RawSentence,
    TaskSpaces,
    build_vocab,
    category_vocab,
    count_stats,
    expand,
    extract_hds,
    hds_qualifies,
    load_jsonl,
    make_batches,
    parse_semeval_opinions_xml,
    parse_semeval_xml,
    scan_embedding_file,
    strip_conflict_sentences,
    term_word_vocab,
    to_jsonl,
    tokenize,
    tokenize_category,
    tokenize_with_spans,
)

TEXT1 = "The appetizers were great but the service was awful."
TEXT2 = "Overpriced Japanese food with mediocre service."


def _term_xml():
    """Two-sentence term-task document with computed char offsets."""
    f1, t1 = TEXT1.find("appetizers"), TEXT1.find("appetizers") + len("appetizers")
    f2, t2 = TEXT1.find("service"), TEXT1.find("service") + len("service")
    return f"""
    <sentences>
      <sentence id="s1">
        <text>{TEXT1}</text>
        <aspectTerms>
          <aspectTerm term="appetizers" polarity="positive" from="{f1}" to="{t1}"/>
          <aspectTerm term="service" polarity="negative" from="{f2}" to="{t2}"/>
        </aspectTerms>
      </sentence>
      <sentence id="s2">
        <text>{TEXT2}</text>
        <aspectTerms>
          <aspectTerm term="Japanese food" polarity="neutral"/>
        </aspectTerms>
      </sentence>
      <sentence id="s3">
        <text>Nothing annotated here.</text>
      </sentence>
    </sentences>
    """


def _category_xml():
    return f"""
    <sentences>
      <sentence id="c1">
        <text>{TEXT1}</text>
        <aspectCategories>
          <aspectCategory category="food" polarity="positive"/>
          <aspectCategory category="service" polarity="negative"/>
        </aspectCategories>
      </sentence>
      <sentence id="c2">
        <text>Good food, good food again.</text>
        <aspectCategories>
          <aspectCategory category="food" polarity="positive"/>
          <aspectCategory category="anecdotes/miscellaneous" polarity="positive"/>
        </aspectCategories>
      </sentence>
      <sentence id="c3">
        <text>Great menu but the price is a crime.</text>
        <aspectCategories>
          <aspectCategory category="food" polarity="positive"/>
          <aspectCategory category="price" polarity="negative"/>
          <aspectCategory category="service" polarity="conflict"/>
        </aspectCategories>
      </sentence>
      <sentence id="c4">
        <text>Just one opinion.</text>
        <aspectCategories>
          <aspectCategory category="ambience" polarity="neutral"/>
        </aspectCategories>
      </sentence>
    </sentences>
    """


# -- tokenizer ---------------------------------------------------------------------


def test_tokenizer_splits_words_and_punct():
    assert tokenize("Overpriced Japanese food with mediocre service.") == [
        "overpriced", "japanese", "food", "with", "mediocre", "service", ".",
    ]
    assert tokenize("fish-and-chips weren't great!!") == [
        "fish", "-", "and", "-", "chips", "weren", "'", "t", "great", "!", "!",
    ]


def test_tokenizer_spans_index_original_text():
    text = "Tasty, cheap."
    for tok, s, e in tokenize_with_spans(text):
        assert text[s:e].lower() == tok


def test_tokenize_category_drops_separators():
    assert tokenize_category("anecdotes/miscellaneous") == ["anecdotes", "miscellaneous"]
    assert tokenize_category("food") == ["food"]
    with pytest.raises(CorpusError):
        tokenize_category("///")


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=80))
def test_tokenizer_properties(text):
    toks = tokenize_with_spans(text)
    for tok, s, e in toks:
        assert tok == text[s:e].lower()
        assert not any(c.isspace() for c in tok)
    # offsets strictly increase and never overlap
    for (_, _, e1), (_, s2, _) in zip(toks, toks[1:]):
        assert e1 <= s2


# -- XML parsing --------------------------------------------------------------------


def test_parse_terms_with_offsets_and_fallback():
    sents = parse_semeval_xml(_term_xml(), task="term")
    assert [s.sid for s in sents] == ["s1", "s2"]  # s3 has no aspects
    s1 = sents[0]
    a1, a2 = s1.aspects
    assert s1.tokens[a1.span[0] : a1.span[1]] == ("appetizers",)
    assert s1.tokens[a2.span[0] : a2.span[1]] == ("service",)
    # offset-free term found by token subsequence search
    s2 = sents[1]
    assert s2.tokens[s2.aspects[0].span[0] : s2.aspects[0].span[1]] == ("japanese", "food")


def test_parse_rejects_bad_input():
    with pytest.raises(CorpusError, match="line"):
        parse_semeval_xml("<sentences><sentence></sentences>", task="term")
    bad = """<sentences><sentence id="x"><text>ok food</text>
      <aspectTerms><aspectTerm term="food" polarity="happy"/></aspectTerms>
      </sentence></sentences>"""
    with pytest.raises(CorpusError, match="polarity"):
        parse_semeval_xml(bad, task="term")
    unfindable = """<sentences><sentence id="x"><text>ok food</text>
      <aspectTerms><aspectTerm term="sushi" polarity="positive"/></aspectTerms>
      </sentence></sentences>"""
    with pytest.raises(CorpusError, match="align"):
        parse_semeval_xml(unfindable, task="term")
    with pytest.raises(CorpusError, match="task"):
        parse_semeval_xml("<sentences/>", task="span")


def test_parse_categories():
    sents = parse_semeval_xml(_category_xml(), task="category")
    assert len(sents) == 4
    assert [a.name for a in sents[0].aspects] == ["food", "service"]
    assert sents[2].aspects[2].label == "conflict"


def test_parse_opinions_schema_folds_categories():
    xml = """
    <Reviews><Review rid="r1"><sentences>
      <sentence id="o1">
        <text>Lovely pasta at a fair price.</text>
        <Opinions>
          <Opinion category="FOOD#QUALITY" polarity="positive"/>
          <Opinion category="FOOD#QUALITY" polarity="positive"/>
          <Opinion category="FOOD#PRICES" polarity="positive"/>
        </Opinions>
      </sentence>
      <sentence id="o2">
        <text>The vibe confuses me.</text>
        <Opinions>
          <Opinion category="AMBIENCE#GENERAL" polarity="positive"/>
          <Opinion category="AMBIENCE#GENERAL" polarity="negative"/>
          <Opinion category="LAPTOP#GENERAL" polarity="neutral"/>
        </Opinions>
      </sentence>
    </sentences></Review></Reviews>
    """
    sents = parse_semeval_opinions_xml(xml)
    s1 = sents[0]
    assert [(a.name, a.label) for a in s1.aspects] == [
        ("food", "positive"),  # duplicates collapsed
        ("price", "positive"),  # PRICES attribute wins over entity
    ]
    s2 = sents[1]
    # ambience had conflicting labels and is dropped; unknown entity -> misc
    assert [(a.name, a.label) for a in s2.aspects] == [("misc", "neutral")]


def test_jsonl_roundtrip():
    sents = parse_semeval_xml(_term_xml(), task="term")
    again = load_jsonl(to_jsonl(sents))
    assert again == sents
    with pytest.raises(CorpusError, match="line 1"):
        load_jsonl("{not json\n")


@pytest.mark.parametrize("span", [[2, 2], [-1, 2], [3, 1], [1, 5], [1], [1, 2, 3], ["a", 2], [0.5, 2]])
def test_jsonl_refuses_bad_term_spans(span):
    aspect = {"kind": "term", "name": "food", "label": "positive", "span": span}
    lines = [
        {"id": "a", "text": "good food", "aspects": []},
        {"id": "b", "text": "the food was good", "aspects": [aspect]},
    ]
    with pytest.raises(CorpusError, match="line 2: term span"):
        load_jsonl("\n".join(json.dumps(obj) for obj in lines))


@pytest.mark.parametrize("aspect, error", [
    ({"kind": "category", "name": "food", "label": "happy"}, "unknown polarity 'happy'"),
    ({"kind": "span", "name": "food", "label": "positive"}, "unknown aspect kind 'span'"),
    ({"kind": "term", "name": "food", "label": "positive"}, "term aspect 'food' is missing"),
], ids=["polarity", "kind", "span"])
def test_jsonl_annotation_errors_name_their_line(aspect, error):
    lines = [
        {"id": "a", "text": "good food", "aspects": []},
        {"id": "b", "text": "", "aspects": []},
        {"id": "c", "text": "the food was good", "aspects": [aspect]},
    ]
    text = "\n".join(json.dumps(obj) for obj in lines[:2]) + "\n\n" + json.dumps(lines[2])
    with pytest.raises(CorpusError, match=f"^line 4: {error}"):
        load_jsonl(text)


def test_category_without_polarity_names_its_sentence_and_tag():
    xml = """<sentences><sentence id="c9"><text>ok food</text>
      <aspectCategories><aspectCategory category="food"/></aspectCategories>
      </sentence></sentences>"""
    with pytest.raises(CorpusError, match="^sentence 'c9': aspectCategory missing"):
        parse_semeval_xml(xml, task="category")


def test_an_empty_xml_term_is_refused_like_its_jsonl_span():
    """A term with no word tokens aligns to the empty span (0, 0), which
    the XML reader refuses as the JSONL reader does."""
    xml = """<sentences><sentence id="e1"><text>ok food</text>
      <aspectTerms><aspectTerm term=" " polarity="positive"/></aspectTerms>
      </sentence></sentences>"""
    with pytest.raises(CorpusError, match=r"^sentence 'e1': term span \[0, 0\]"):
        parse_semeval_xml(xml, task="term")


def test_a_non_integer_xml_term_offset_names_its_sentence():
    xml = """<sentences><sentence id="x1"><text>ok food</text>
      <aspectTerms><aspectTerm term="food" polarity="positive" from="x" to="7"/></aspectTerms>
      </sentence></sentences>"""
    with pytest.raises(CorpusError, match="^sentence 'x1': term offsets must be integers"):
        parse_semeval_xml(xml, task="term")


def test_opinion_with_unknown_polarity_names_its_sentence():
    xml = """<Reviews><Review><sentences><sentence id="o9"><text>ok food</text><Opinions>
      <Opinion category="FOOD#QUALITY" polarity="positive"/>
      <Opinion category="FOOD#QUALITY" polarity="happy"/>
      </Opinions></sentence></sentences></Review></Reviews>"""
    with pytest.raises(CorpusError, match="^sentence 'o9': unknown polarity 'happy'"):
        parse_semeval_opinions_xml(xml)


def test_opinions_keep_first_mention_order_when_categories_repeat():
    xml = """<Reviews><Review><sentences><sentence id="o3"><text>Nice staff, cheap food.</text>
      <Opinions>
        <Opinion category="SERVICE#GENERAL" polarity="positive"/>
        <Opinion category="FOOD#PRICES" polarity="positive"/>
        <Opinion category="FOOD#QUALITY" polarity="negative"/>
        <Opinion category="SERVICE#GENERAL" polarity="positive"/>
        <Opinion category="DRINKS#PRICES" polarity="positive"/>
      </Opinions></sentence></sentences></Review></Reviews>"""
    (sent,) = parse_semeval_opinions_xml(xml)
    assert [(a.name, a.label) for a in sent.aspects] == [
        ("service", "positive"), ("price", "positive"), ("food", "negative"),
    ]


# -- views ---------------------------------------------------------------------------


def test_expand_order_and_counts():
    sents = parse_semeval_xml(_category_xml(), task="category")
    inst = expand(sents)
    assert len(inst) == 8
    assert inst[0].aspect_name == "food" and inst[0].sid == "c1"
    assert inst[1].aspect_name == "service"
    # category aspect tokens come from the name, not the sentence
    misc = [i for i in inst if i.aspect_name == "anecdotes/miscellaneous"][0]
    assert misc.aspect_tokens == ("anecdotes", "miscellaneous")


def test_hds_rules():
    sents = parse_semeval_xml(_category_xml(), task="category")
    by_id = {s.sid: s for s in sents}
    assert hds_qualifies(by_id["c1"])  # pos/neg all distinct
    assert not hds_qualifies(by_id["c2"])  # pos/pos
    assert hds_qualifies(by_id["c3"])  # pos/neg/conflict all distinct
    assert hds_qualifies(by_id["c3"], rule="min-two-labels")
    assert not hds_qualifies(by_id["c4"])  # single aspect
    with pytest.raises(CorpusError):
        hds_qualifies(by_id["c1"], rule="bogus")


def test_nc_views():
    sents = parse_semeval_xml(_category_xml(), task="category")
    stripped = strip_conflict_sentences(sents)
    assert sum(len(s.aspects) for s in stripped) == 7
    nc = expand(stripped)
    assert len(nc) == 7 and all(i.label != "conflict" for i in nc)


def test_bundle_stats():
    """Counts of the views as ``prepare`` builds them from sentences."""
    sents = parse_semeval_xml(_category_xml(), task="category")
    st_ = {
        split: {
            "ds": count_stats(expand(raw)),
            "nc": count_stats(expand(strip_conflict_sentences(raw))),
        }
        for split, raw in (("train", sents), ("test", sents[:1]))
    }
    assert st_["train"]["ds"]["total"] == 8
    assert st_["train"]["nc"]["total"] == 7
    assert st_["test"]["ds"]["total"] == 2
    assert st_["train"]["ds"]["by_label"]["conflict"] == 1
    assert count_stats([])["total"] == 0


# -- vocab ------------------------------------------------------------------------------


EMB = """food 0.1 0.2 0.3
service 0.4 0.5 0.6
great 0.7 0.8 0.9
the -0.1 -0.2 -0.3
japanese 1.0 1.1 1.2
"""


@pytest.fixture
def emb_path(tmp_path):
    p = tmp_path / "vectors.txt"
    p.write_text(EMB)
    return p


def _instances(task="category"):
    sents = parse_semeval_xml(_category_xml() if task == "category" else _term_xml(), task)
    return expand(sents)


def test_scan_embedding_file(emb_path, tmp_path):
    found, dim = scan_embedding_file(emb_path, {"food", "nope"})
    assert dim == 3 and set(found) == {"food"}
    assert np.allclose(found["food"], [0.1, 0.2, 0.3])
    hdr = tmp_path / "w2v.txt"
    hdr.write_text("2 3\nfood 1 2 3\nbar 4 5 6\n")
    found, dim = scan_embedding_file(hdr, {"bar"})
    assert dim == 3 and np.allclose(found["bar"], [4, 5, 6])
    bad = tmp_path / "bad.txt"
    bad.write_text("food 1 2 3\nservice 4 5\n")
    with pytest.raises(CorpusError, match="line 2"):
        scan_embedding_file(bad, {"food"})
    notnum = tmp_path / "nan.txt"
    notnum.write_text("food one 2 3\n")
    with pytest.raises(CorpusError, match="bad number"):
        scan_embedding_file(notnum, {"food"})
    for value in ("nan", "inf", "-inf"):
        nonfinite = tmp_path / "nonfinite.txt"
        nonfinite.write_text(f"bar 1 2 3\nfood {value} 0.1 0.2\n")
        with pytest.raises(CorpusError, match="line 2: non-finite"):
            scan_embedding_file(nonfinite, {"food"})
    spaced = tmp_path / "spaced.txt"
    spaced.write_text("food 1 2 3\n. . . 4 5 6\nbar 7 8 9\n")
    found, dim = scan_embedding_file(spaced, {".", "bar"})
    assert dim == 3 and set(found) == {"bar"} and np.allclose(found["bar"], [7, 8, 9])
    trailing = tmp_path / "trailing.txt"
    trailing.write_text("food 1 2 3 \nbar 4 5 6 \n")
    found, dim = scan_embedding_file(trailing, {"food", "bar"})
    assert dim == 3 and np.allclose(found["food"], [1, 2, 3]) and np.allclose(found["bar"], [4, 5, 6])
    spaced_first = tmp_path / "spaced_first.txt"
    spaced_first.write_text(". . . 1 2 3\nfood 4 5 6\n")
    found, dim = scan_embedding_file(spaced_first, {".", "food"})
    assert dim == 3 and set(found) == {"food"} and np.allclose(found["food"], [4, 5, 6])


def test_build_vocab_rows_and_fallbacks(emb_path):
    train = _instances()[:4]  # sentences c1, c2
    test = _instances()[4:]
    v = build_vocab(train, emb_path, test, seed=7)
    assert v.tokens[PAD] == "<pad>" and v.tokens[UNK] == "<unk>"
    assert np.array_equal(v.embedding[PAD], np.zeros(3))
    assert np.allclose(v.embedding[v.lookup("food")], [0.1, 0.2, 0.3])
    # train token missing from the file gets a bounded random row
    row = v.embedding[v.lookup("appetizers")]
    assert np.all(np.abs(row) <= 0.25) and not np.allclose(row, 0)
    # test-only token covered by the file joins; uncovered one stays unk
    assert v.lookup("menu") != UNK or "menu" not in v.tokens
    assert v.lookup("crime") == UNK or "crime" in EMB
    # aspect tokens of the training split are always present
    assert v.lookup("anecdotes") != UNK


def test_vocab_determinism(emb_path):
    train, test = _instances()[:4], _instances()[4:]
    a = build_vocab(train, emb_path, test, seed=3)
    b = build_vocab(train, emb_path, test, seed=3)
    c = build_vocab(train, emb_path, test, seed=4)
    assert a.digest == b.digest
    assert np.array_equal(a.embedding, b.embedding)
    assert a.digest != c.digest


def test_vocab_lookup_and_ids(emb_path):
    v = build_vocab(_instances(), emb_path, seed=0)
    ids = v.ids(["food", "zzzunseen"])
    assert ids[0] > 1 and ids[1] == UNK
    assert len(v) == v.embedding.shape[0]


# -- target spaces ------------------------------------------------------------------------


def test_category_vocab_sorted():
    cats = category_vocab(_instances())
    assert cats == tuple(sorted(cats))
    assert "anecdotes/miscellaneous" in cats


def test_term_word_vocab_sorted():
    words = term_word_vocab(_instances("term"))
    assert list(words) == sorted(words)
    assert set(words) == {"appetizers", "service", "japanese", "food"}
    assert words[sorted(words)[0]] == 0


def test_task_spaces_labels():
    sp = TaskSpaces.build("category", _instances())
    assert sp.num_labels == 4 and sp.label_id("conflict") == 3
    nc = TaskSpaces.build("category", _instances(), include_conflict=False)
    assert nc.num_labels == 3
    with pytest.raises(CorpusError, match="conflict"):
        nc.label_id("conflict")
    rt = TaskSpaces.from_dict(sp.to_dict())
    assert rt == sp


# -- batching -----------------------------------------------------------------------------


def test_batch_contents_category(emb_path):
    inst = _instances()
    v = build_vocab(inst, emb_path, seed=0)
    sp = TaskSpaces.build("category", inst)
    batches = make_batches(inst, v, sp, token_budget=64, shuffle=False)
    got = [i.sid for b in batches for i in b.instances]
    assert sorted(got) == sorted(i.sid for i in inst)
    b = batches[0]
    assert b.token_ids.shape == b.mask.shape
    assert np.all((b.token_ids == PAD) == (b.mask == 0))
    for r, i in enumerate(b.instances):
        assert b.label_ids[r] == sp.label_id(i.label)
        assert b.recon_target[r].tolist() == [c == i.aspect_name for c in sp.categories]
    assert b.recon_target.dtype == bool and b.recon_known.all()


def test_batch_contents_term(emb_path):
    inst = _instances("term")
    v = build_vocab(inst, emb_path, seed=0)
    sp = TaskSpaces.build("term", inst[:2])  # only appetizers/service known
    batches = make_batches(inst, v, sp, token_budget=64, shuffle=False)
    flat = [(i, b.recon_target[r], b.recon_known[r]) for b in batches for r, i in enumerate(b.instances)]
    for inst_i, row, known in flat:
        missing = [t for t in inst_i.aspect_tokens if t not in sp.term_words]
        assert known == (not missing)
        assert row.dtype == bool and row.shape == (len(sp.term_words),)
        assert set(np.flatnonzero(row)) == {sp.term_words[t] for t in inst_i.aspect_tokens if t in sp.term_words}


def test_unseen_category_is_an_error(emb_path):
    inst = _instances()
    v = build_vocab(inst, emb_path, seed=0)
    sp = TaskSpaces.build("category", inst[:2])  # food, service only
    with pytest.raises(CorpusError, match="missing from the training category set"):
        make_batches(inst, v, sp, token_budget=64, shuffle=False)


def test_batching_requires_rng_when_shuffling(emb_path):
    inst = _instances()
    v = build_vocab(inst, emb_path, seed=0)
    sp = TaskSpaces.build("category", inst)
    with pytest.raises(CorpusError, match="rng"):
        make_batches(inst, v, sp, shuffle=True)


def test_batching_deterministic_orders(emb_path):
    inst = _instances()
    v = build_vocab(inst, emb_path, seed=0)
    sp = TaskSpaces.build("category", inst)
    e1 = make_batches(inst, v, sp, token_budget=32, shuffle=False)
    e2 = make_batches(inst, v, sp, token_budget=32, shuffle=False)
    assert [[i.sid for i in b.instances] for b in e1] == [
        [i.sid for i in b.instances] for b in e2
    ]
    s1 = make_batches(inst, v, sp, 32, np.random.default_rng(5), True)
    s2 = make_batches(inst, v, sp, 32, np.random.default_rng(5), True)
    assert [[i.sid for i in b.instances] for b in s1] == [
        [i.sid for i in b.instances] for b in s2
    ]


def test_oversized_sentence_forms_singleton(emb_path):
    long_inst = Instance("big", tuple(f"w{i}" for i in range(50)), "category", "food", ("food",), "positive")
    small = _instances()[:2]
    v = build_vocab(small + [long_inst], emb_path, seed=0)
    sp = TaskSpaces.build("category", small + [long_inst])
    batches = make_batches(small + [long_inst], v, sp, token_budget=40, shuffle=False)
    solo = [b for b in batches if b.instances[0].sid == "big"]
    assert len(solo) == 1 and solo[0].size == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(8, 64), st.integers(1, 40))
def test_batch_budget_and_multiset_property(seed, budget, n):
    r = np.random.default_rng(seed)
    inst = [
        Instance(
            f"s{i}",
            tuple(f"w{r.integers(0, 9)}" for _ in range(r.integers(1, 12))),
            "category",
            "food",
            ("food",),
            LABELS[r.integers(0, 4)],
        )
        for i in range(n)
    ]
    vocab_rows = np.zeros((2, 3))
    from aspectgate.corpus import Vocab, vocab_digest

    v = Vocab(("<pad>", "<unk>"), vocab_rows, vocab_digest(["<pad>", "<unk>"], vocab_rows))
    sp = TaskSpaces.build("category", inst)
    batches = make_batches(inst, v, sp, budget, np.random.default_rng(seed), True)
    got = sorted((i.sid for b in batches for i in b.instances))
    assert got == sorted(i.sid for i in inst)
    for b in batches:
        cells = b.token_ids.shape[0] * b.token_ids.shape[1]
        assert cells <= budget or b.size == 1
