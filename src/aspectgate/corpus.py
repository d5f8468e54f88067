"""Corpus handling: parsing, dataset construction, vocab, batching.

The pipeline turns annotated review sentences into (sentence, aspect,
label) instances. A sentence with several aspects expands into several
instances. Three views of each split are built: the full dataset (DS),
the hard subset (HDS) of sentences whose aspects disagree, and the
no-conflict view (NC) that drops instances labeled conflict.

Embeddings are read from a text file of "token v1 .. vd" lines and are
never trained; tokens of the training split always get a vocabulary row
(sampled uniformly when the file lacks them), test tokens only when the
file covers them, and everything else maps to the unknown row.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

LABELS = ("positive", "negative", "neutral", "conflict")
PAD, UNK = 0, 1
PAD_TOKEN, UNK_TOKEN = "<pad>", "<unk>"
HDS_RULES = ("pairwise-distinct", "min-two-labels")

# coarse buckets for the entity#attribute categories of the later review
# schema, so the large restaurant set shares one category space
CATEGORY_MAP = {
    "RESTAURANT": "restaurant",
    "FOOD": "food",
    "DRINKS": "drinks",
    "AMBIENCE": "ambience",
    "SERVICE": "service",
    "LOCATION": "location",
}
PRICE_ATTRIBUTE = "PRICES"
# half-width of the uniform draw for the unknown row and for each train
# token the vectors file lacks
OOV_SCALE = 0.25


class CorpusError(ValueError):
    """Malformed or inconsistent corpus data."""


# -- tokenization ----------------------------------------------------------------


def tokenize_with_spans(text: str) -> list[tuple[str, int, int]]:
    """Lowercased tokens with [start, end) character offsets.

    Alphanumeric runs form one token; every other non-space character
    stands alone. Offsets index the original string, so annotation spans
    given in characters can be aligned.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalnum():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            out.append((text[i:j].lower(), i, j))
            i = j
        else:
            out.append((ch.lower(), i, i + 1))
            i += 1
    return out


def tokenize(text: str) -> list[str]:
    return [t for t, _, _ in tokenize_with_spans(text)]


def tokenize_category(name: str) -> list[str]:
    """Split a category name on '/', whitespace, and punctuation.

    Separators are dropped: "anecdotes/miscellaneous" gives two tokens.
    """
    toks = [t for t in tokenize(name) if t[0].isalnum()]
    if not toks:
        raise CorpusError(f"category name {name!r} has no word tokens")
    return toks


# -- data types -------------------------------------------------------------------


@dataclass(frozen=True)
class AspectAnnotation:
    """One aspect of a sentence: a term span or a category name."""

    kind: str  # "term" or "category"
    name: str  # term surface form or category name
    label: str
    span: tuple[int, int] | None = None  # token span for terms

    def __post_init__(self):
        if self.kind not in ("term", "category"):
            raise CorpusError(f"unknown aspect kind {self.kind!r}")
        if self.label not in LABELS:
            raise CorpusError(f"unknown polarity {self.label!r}")
        if self.kind == "term" and self.span is None:
            raise CorpusError(f"term aspect {self.name!r} is missing a token span")


@dataclass(frozen=True)
class RawSentence:
    """A sentence with all of its aspect annotations."""

    sid: str
    text: str
    tokens: tuple[str, ...]
    aspects: tuple[AspectAnnotation, ...]


@dataclass(frozen=True)
class Instance:
    """One (sentence, aspect, label) classification unit."""

    sid: str
    tokens: tuple[str, ...]
    aspect_kind: str
    aspect_name: str
    aspect_tokens: tuple[str, ...]
    label: str


def aspect_tokens_of(sentence: RawSentence, ann: AspectAnnotation) -> tuple[str, ...]:
    if ann.kind == "term":
        lo, hi = ann.span
        return sentence.tokens[lo:hi]
    return tuple(tokenize_category(ann.name))


def _annotation(where: str, kind, name, label, span, n: int) -> AspectAnnotation:
    """The aspect one annotation gives, with a term span checked against
    the sentence's ``n`` tokens; any ``CorpusError`` names ``where`` the
    annotation sits ("sentence 'id'" or "line N")."""
    try:
        ann = AspectAnnotation(kind, name, label, span)
        if kind == "term" and not (
            len(span) == 2 and all(type(x) is int for x in span) and 0 <= span[0] < span[1] <= n
        ):
            raise CorpusError(
                f"term span {list(span)} must be two integers "
                f"0 <= start < end <= {n}, the sentence's token count"
            )
    except CorpusError as e:
        raise CorpusError(f"{where}: {e}") from None
    return ann


# -- XML parsing ---------------------------------------------------------------------


def _align_term(spans, term: str, lo, hi, where: str) -> tuple[int, int]:
    """Token span of a term given the text of its character offsets (or by search)."""
    try:
        lo, hi = (None if x is None else int(x) for x in (lo, hi))
    except ValueError:
        raise CorpusError(f"{where}: term offsets must be integers, got {lo!r}, {hi!r}") from None
    if lo is not None and hi is not None:
        hit = [i for i, (_, s, e) in enumerate(spans) if s < hi and e > lo]
        if hit:
            return hit[0], hit[-1] + 1
    # fall back to the first token-subsequence match
    want = tokenize(term)
    toks = [t for t, _, _ in spans]
    for i in range(len(toks) - len(want) + 1):
        if toks[i : i + len(want)] == want:
            return i, i + len(want)
    raise CorpusError(f"{where}: cannot align term {term!r} to tokens")


def _read_reviews(data: str | bytes, aspects_of) -> list[RawSentence]:
    """The sentences of review XML that have aspects.

    ``aspects_of(node, where, spans)`` gives a sentence node's aspects,
    where "sentence 'id'" names it and ``spans`` are its text's tokens
    with their character offsets. Malformed XML raises ``CorpusError``.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as e:
        raise CorpusError(f"malformed XML at line {e.position[0]}: {e}") from e
    out: list[RawSentence] = []
    for node in root.iter("sentence"):
        sid = node.get("id", f"sentence-{len(out)}")
        text = node.findtext("text") or ""
        spans = tokenize_with_spans(text)
        aspects = aspects_of(node, f"sentence {sid!r}", spans)
        if aspects:
            out.append(RawSentence(sid, text, tuple(t for t, _, _ in spans), tuple(aspects)))
    return out


def parse_semeval_xml(data: str | bytes, task: str) -> list[RawSentence]:
    """Parse the flat review-sentence XML schema for one task.

    ``task`` selects which annotation layer becomes the aspects: "term"
    reads the ``aspectTerm`` spans, "category" the ``aspectCategory``
    names. Sentences with no aspect for the chosen task are dropped.
    Malformed XML, and an annotation with a missing attribute, an
    unknown polarity or a term that cannot be aligned to the tokens,
    raise ``CorpusError``; an annotation's error names its sentence.
    """
    if task not in ("term", "category"):
        raise CorpusError(f"task must be 'term' or 'category', got {task!r}")
    # <aspectTerm term=.. polarity=..> or <aspectCategory category=.. polarity=..>
    tag = "aspectTerm" if task == "term" else "aspectCategory"

    def aspects_of(node, where, spans):
        aspects = []
        for a in node.iter(tag):
            name, label = a.get(task), a.get("polarity")
            if name is None or label is None:
                raise CorpusError(f"{where}: {tag} missing {task}/polarity")
            span = None
            if task == "term":
                span = _align_term(spans, name, a.get("from"), a.get("to"), where)
            aspects.append(_annotation(where, task, name, label, span, len(spans)))
        return aspects

    return _read_reviews(data, aspects_of)


def parse_semeval_opinions_xml(data: str | bytes) -> list[RawSentence]:
    """Parse the review schema whose aspects are entity#attribute opinions.

    Each opinion category is folded to a coarse name: the price attribute
    wins first, then the entity is looked up in ``CATEGORY_MAP``, anything
    else becomes "misc". Within a sentence, duplicate (category, label)
    pairs collapse to one, kept in first-mention order; a category seen
    with conflicting labels in one sentence is dropped as ambiguous. An
    opinion without a category or polarity is skipped; one with an
    unknown polarity raises ``CorpusError`` naming its sentence.
    """

    def aspects_of(node, where, spans):
        seen: dict[str, list[AspectAnnotation]] = {}
        for op in node.iter("Opinion"):
            raw, label = op.get("category"), op.get("polarity")
            if raw is None or label is None:
                continue
            entity, _, attribute = raw.partition("#")
            if attribute.strip().upper() == PRICE_ATTRIBUTE:
                name = "price"
            else:
                name = CATEGORY_MAP.get(entity.strip().upper(), "misc")
            seen.setdefault(name, []).append(
                _annotation(where, "category", name, label, None, len(spans)))
        return [anns[0] for anns in seen.values() if len({a.label for a in anns}) == 1]

    return _read_reviews(data, aspects_of)


# -- JSONL interchange -----------------------------------------------------------------


def to_jsonl(sentences: Iterable[RawSentence]) -> str:
    """Serialize sentences, one JSON object per line."""
    lines = []
    for s in sentences:
        aspects = []
        for a in s.aspects:
            d = {"kind": a.kind, "name": a.name, "label": a.label}
            if a.span is not None:
                d["span"] = list(a.span)
            aspects.append(d)
        lines.append(
            json.dumps(
                {"id": s.sid, "text": s.text, "aspects": aspects},
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def load_jsonl(text: str) -> list[RawSentence]:
    """Inverse of ``to_jsonl``; tokens are recomputed from the text.

    Every error, invalid JSON, a missing field or a bad annotation,
    raises ``CorpusError`` naming its line.
    """
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusError(f"line {ln}: invalid JSON: {e}") from e
        try:
            tokens = tuple(tokenize(obj["text"]))
            aspects = tuple(
                _annotation(f"line {ln}", a["kind"], a["name"], a["label"],
                            tuple(a["span"]) if "span" in a else None, len(tokens))
                for a in obj["aspects"]
            )
            out.append(RawSentence(str(obj["id"]), obj["text"], tokens, aspects))
        except (KeyError, TypeError) as e:
            raise CorpusError(f"line {ln}: missing field: {e}") from e
    return out


# -- dataset construction ------------------------------------------------------------


def expand(sentences: Iterable[RawSentence]) -> list[Instance]:
    """One instance per (sentence, aspect), in document order."""
    out = []
    for s in sentences:
        for a in s.aspects:
            out.append(
                Instance(
                    sid=s.sid,
                    tokens=s.tokens,
                    aspect_kind=a.kind,
                    aspect_name=a.name,
                    aspect_tokens=aspect_tokens_of(s, a),
                    label=a.label,
                )
            )
    return out


def hds_qualifies(sentence: RawSentence, rule: str = HDS_RULES[0]) -> bool:
    """Whether a sentence belongs to the hard subset under ``rule``.

    "pairwise-distinct" (default): at least two aspects, every pair with
    different labels. "min-two-labels": at least two aspects with at
    least two distinct labels among them.
    """
    if rule not in HDS_RULES:
        raise CorpusError(f"unknown hds rule {rule!r}; expected one of {HDS_RULES}")
    labels = [a.label for a in sentence.aspects]
    if len(labels) < 2:
        return False
    if rule == "pairwise-distinct":
        return len(set(labels)) == len(labels)
    return len(set(labels)) >= 2


def extract_hds(sentences: Iterable[RawSentence], rule: str = HDS_RULES[0]) -> list[Instance]:
    return expand(s for s in sentences if hds_qualifies(s, rule))


def strip_conflict_sentences(sentences: Iterable[RawSentence]) -> list[RawSentence]:
    """Sentence-level no-conflict view; aspect-less sentences drop out."""
    out = []
    for s in sentences:
        kept = tuple(a for a in s.aspects if a.label != "conflict")
        if kept:
            out.append(RawSentence(s.sid, s.text, s.tokens, kept))
    return out


def count_stats(instances: Sequence[Instance]) -> dict:
    by = {label: 0 for label in LABELS}
    for i in instances:
        by[i.label] += 1
    return {"total": len(instances), "by_label": by}


# -- vocabulary and embeddings ----------------------------------------------------------


@dataclass
class Vocab:
    """Token ids plus the frozen embedding table; row 0 pad, row 1 unk.

    A corpus token spelled like a reserved name maps onto the reserved
    row rather than getting its own.
    """

    tokens: tuple[str, ...]
    embedding: np.ndarray
    digest: str
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {t: i for i, t in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise CorpusError("vocab tokens are not unique")
        if self.embedding.shape[0] != len(self.tokens):
            raise CorpusError(
                f"embedding rows {self.embedding.shape[0]} != tokens {len(self.tokens)}"
            )
        self.embedding.setflags(write=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self._index.get(token, UNK)

    def ids(self, tokens: Iterable[str]) -> list[int]:
        return [self.lookup(t) for t in tokens]


def vocab_digest(tokens: Sequence[str], embedding: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(embedding.shape).encode())
    h.update("\x00".join(tokens).encode())
    h.update(np.ascontiguousarray(embedding, dtype="<f8"))  # the buffer itself, no bytes copy
    return h.hexdigest()


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _vector_width(rows: list[tuple[int, list[str]]]) -> int | None:
    """The value count that most of ``rows`` fit, ties toward the larger.

    A row of n values fits width k when n == k, or when n > k and the
    field ahead of its last k is not a number: a token holding spaces,
    followed by k values. So a spaced token never outvotes the width,
    and of two conflicting widths the shorter rows are the truncated ones.
    """
    def fits(k: int) -> int:
        return sum(len(p) - 1 == k or (len(p) - 1 > k and not _is_number(p[-k - 1]))
                   for _, p in rows)

    return max({len(p) - 1 for _, p in rows if len(p) > 1}, key=lambda k: (fits(k), k),
               default=None)


def scan_embedding_file(path, wanted: set[str]) -> tuple[dict[str, np.ndarray], int]:
    """Stream a text embedding file, keeping only wanted tokens.

    Returns (token -> vector, dimension). The dimension is the one a
    leading word2vec-style "count dim" header gives, else the value
    count most of the first 100 non-blank rows fit (``_vector_width``).
    Trailing whitespace is skipped. A row's last ``dim`` fields are its
    vector and the rest its token; a token holding a space, which
    ``tokenize`` never produces, is skipped unparsed. Too few values, or
    a wanted row's unparsable or non-finite numbers, and a line that is not
    UTF-8, raise ``CorpusError`` with the line number.
    """

    def lines(fh):
        for ln, raw in enumerate(fh, start=1):
            try:
                yield ln, raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CorpusError(f"embedding file line {ln}: not UTF-8 ({e.reason})") from None

    found: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        rows = ((ln, line.rstrip().split(" ")) for ln, line in lines(fh) if line.strip())
        head = list(itertools.islice(rows, 100))
        first = head[0] if head else (0, [])
        if first[0] == 1 and len(first[1]) == 2 and all(map(str.isdecimal, first[1])):
            dim = int(head.pop(0)[1][1])
        else:
            dim = _vector_width(head)
        for ln, parts in itertools.chain(head, rows):
            if len(parts) < 2:
                raise CorpusError(f"embedding file line {ln}: too few fields")
            if len(parts) - 1 < dim:
                raise CorpusError(
                    f"embedding file line {ln}: expected {dim} values, got {len(parts) - 1}"
                )
            if len(parts) - 1 > dim:
                continue  # a token with spaces in it
            token = parts[0]
            if token in wanted and token not in found:
                try:
                    vec = np.asarray([float(v) for v in parts[1:]], dtype=np.float64)
                except ValueError as e:
                    raise CorpusError(f"embedding file line {ln}: bad number: {e}") from e
                if not np.all(np.isfinite(vec)):
                    raise CorpusError(f"embedding file line {ln}: non-finite value")
                found[token] = vec
    if dim is None:
        raise CorpusError("embedding file is empty")
    return found, dim


def _ordered_tokens(instances: Iterable[Instance]) -> list[str]:
    seen = {}
    for inst in instances:
        for t in inst.tokens:
            seen.setdefault(t, None)
        for t in inst.aspect_tokens:
            seen.setdefault(t, None)
    return list(seen)


def build_vocab(
    train_instances: Sequence[Instance],
    embedding_path,
    test_instances: Sequence[Instance] = (),
    seed: int = 0,
) -> Vocab:
    """Vocabulary over the training split plus covered test tokens.

    Every train token gets a row: the file's vector when present, else a
    fresh uniform(-OOV_SCALE, OOV_SCALE) sample. Test tokens join only
    when the file covers them; everything else hits the unknown row at
    lookup time. Same seed, same inputs: bit-identical table.
    """
    train_tokens, test_tokens = vocab_token_lists(train_instances, test_instances)
    wanted = set(train_tokens) | set(test_tokens)
    found, dim = scan_embedding_file(embedding_path, wanted)
    return assemble_vocab(train_tokens, test_tokens, found, dim, seed)


def vocab_token_lists(
    train_instances: Sequence[Instance], test_instances: Sequence[Instance] = ()
) -> tuple[list[str], list[str]]:
    """The (train, test-only) token lists build_vocab works from.

    Exposed so multi-seed drivers can scan the embedding file once and
    call assemble_vocab per seed.
    """
    train_tokens = _ordered_tokens(train_instances)
    seen = set(train_tokens)
    test_tokens = [t for t in _ordered_tokens(test_instances) if t not in seen]
    return train_tokens, test_tokens


def assemble_vocab(
    train_tokens: Sequence[str],
    test_tokens: Sequence[str],
    found: Mapping[str, np.ndarray],
    dim: int,
    seed: int = 0,
) -> Vocab:
    """Build the table from a pre-scanned embedding map (see build_vocab).

    Split out so experiment drivers can scan the file once and assemble
    per-seed vocabularies cheaply.
    """
    rng = np.random.default_rng(seed)
    tokens: list[str] = [PAD_TOKEN, UNK_TOKEN]
    rows: list[np.ndarray] = [
        np.zeros(dim, dtype=np.float64),
        rng.uniform(-OOV_SCALE, OOV_SCALE, size=dim),
    ]
    taken = set(tokens)
    for t in train_tokens:
        if t in taken:
            continue
        taken.add(t)
        tokens.append(t)
        vec = found.get(t)
        rows.append(
            np.asarray(vec, dtype=np.float64)
            if vec is not None
            else rng.uniform(-OOV_SCALE, OOV_SCALE, size=dim)
        )
    for t in test_tokens:
        if t in taken or t not in found:
            continue
        taken.add(t)
        tokens.append(t)
        rows.append(np.asarray(found[t], dtype=np.float64))
    table = np.vstack(rows)
    return Vocab(tuple(tokens), table, vocab_digest(tokens, table))


# -- target spaces ------------------------------------------------------------------------


def category_vocab(instances: Iterable[Instance]) -> tuple[str, ...]:
    """Sorted category names appearing in the instances."""
    return tuple(sorted({i.aspect_name for i in instances if i.aspect_kind == "category"}))


def term_word_vocab(instances: Iterable[Instance]) -> dict[str, int]:
    """Lexicographically sorted word-to-id map over training term tokens."""
    words = sorted({t for i in instances if i.aspect_kind == "term" for t in i.aspect_tokens})
    return {w: i for i, w in enumerate(words)}


@dataclass(frozen=True)
class TaskSpaces:
    """Label order plus reconstruction target spaces, fixed at train time."""

    labels: tuple[str, ...]
    categories: tuple[str, ...] = ()
    term_words: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, task: str, train_instances: Sequence[Instance], include_conflict=True):
        labels = LABELS if include_conflict else LABELS[:3]
        if task == "category":
            return cls(labels=labels, categories=category_vocab(train_instances))
        return cls(labels=labels, term_words=term_word_vocab(train_instances))

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def num_recon_targets(self) -> int:
        return len(self.categories) if self.categories else len(self.term_words)

    def label_id(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise CorpusError(
                f"label {label!r} is outside the configured label set {self.labels}"
            ) from None

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "categories": list(self.categories),
            "term_words": dict(self.term_words),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TaskSpaces":
        return cls(
            labels=tuple(d["labels"]),
            categories=tuple(d.get("categories", ())),
            term_words=dict(d.get("term_words", {})),
        )


# -- batching ---------------------------------------------------------------------------


@dataclass
class Batch:
    """A token-budgeted batch in padded (B, T) layout.

    ``recon_target`` is the (B, C) 0/1 reconstruction target over the
    task's target space: one-hot category rows, or multi-hot rows over
    the known term words. ``recon_known`` is False for a term aspect
    with words outside the term vocabulary (its known words still
    supervise training, but exact-match evaluation counts it as wrong).
    """

    token_ids: np.ndarray
    mask: np.ndarray
    aspect_tokens: list[tuple[str, ...]]
    label_ids: np.ndarray
    recon_target: np.ndarray
    recon_known: np.ndarray
    instances: list[Instance]

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


def make_batches(
    instances: Sequence[Instance],
    vocab: Vocab,
    spaces: TaskSpaces,
    token_budget: int = 4096,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
) -> list[Batch]:
    """Pack instances into batches of at most ``token_budget`` cells.

    The budget bounds batch_size * padded_length. Instances are length
    sorted (stably, after an optional shuffle) and packed greedily; one
    sentence longer than the whole budget forms a singleton batch, the
    documented exception to the bound. With ``shuffle`` the batch order
    is also shuffled; without it, order is deterministic for evaluation.
    """
    if token_budget < 1:
        raise CorpusError(f"token_budget must be >= 1, got {token_budget}")
    if shuffle and rng is None:
        raise CorpusError("make_batches: shuffling needs an rng")
    items = list(instances)
    for inst in items:
        if len(inst.tokens) == 0:
            raise CorpusError(f"sentence {inst.sid!r} has no tokens")
    order = np.arange(len(items))
    if shuffle:
        order = rng.permutation(len(items))
    ordered = sorted((items[i] for i in order), key=lambda x: len(x.tokens))
    groups: list[list[Instance]] = []
    cur: list[Instance] = []
    cur_t = 0
    for inst in ordered:
        t = max(cur_t, len(inst.tokens))
        if cur and (len(cur) + 1) * t > token_budget:
            groups.append(cur)
            cur, cur_t = [], 0
            t = len(inst.tokens)
        cur.append(inst)
        cur_t = t
    if cur:
        groups.append(cur)
    if shuffle:
        rng.shuffle(groups)
    return [_build_batch(g, vocab, spaces) for g in groups]


def _build_batch(group: list[Instance], vocab: Vocab, spaces: TaskSpaces) -> Batch:
    B = len(group)
    T = max(len(i.tokens) for i in group)
    ids = np.full((B, T), PAD, dtype=np.int64)
    mask = np.zeros((B, T), dtype=np.int64)
    for r, inst in enumerate(group):
        ids[r, : len(inst.tokens)] = vocab.ids(inst.tokens)
        mask[r, : len(inst.tokens)] = 1
    label_ids = np.asarray([spaces.label_id(i.label) for i in group], dtype=np.int64)
    target = np.zeros((B, spaces.num_recon_targets), dtype=bool)
    known = np.ones(B, dtype=bool)
    for r, inst in enumerate(group):
        if spaces.categories:
            if inst.aspect_name not in spaces.categories:
                raise CorpusError(
                    f"category {inst.aspect_name!r} missing from the training category set"
                )
            target[r, spaces.categories.index(inst.aspect_name)] = True
        else:
            words = [spaces.term_words[t] for t in inst.aspect_tokens if t in spaces.term_words]
            target[r, words] = True
            known[r] = len(words) == len(inst.aspect_tokens)
    return Batch(
        token_ids=ids,
        mask=mask,
        aspect_tokens=[tuple(i.aspect_tokens) for i in group],
        label_ids=label_ids,
        recon_target=target,
        recon_known=known,
        instances=group,
    )
