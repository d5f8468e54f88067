"""Checkpoint serialization: round trips, integrity, corruption errors."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

import aspectgate.checkpoint as checkpoint_mod
from aspectgate.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
)
from aspectgate.cli import main
from aspectgate.corpus import Vocab, vocab_digest
from aspectgate.model import ModelConfig, SentimentModel
from aspectgate.tensor import no_grad


def _fixture(seed=11):
    rng = np.random.default_rng(seed)
    tokens = ("<pad>", "<unk>", "good", "food", "bad")
    emb = np.vstack([np.zeros(4), rng.normal(size=(4, 4))])
    vocab = Vocab(tokens, emb, vocab_digest(tokens, emb))
    cfg = ModelConfig(
        hidden_size=3,
        embed_size=4,
        depth=2,
        num_labels=3,
        num_recon_targets=2,
        dropout_input=0.0,
        dropout_hidden=0.0,
    )
    model = SentimentModel(cfg, vocab.embedding, rng)
    return model, vocab


def test_roundtrip_restores_everything(tmp_path):
    model, vocab = _fixture()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, vocab, {"dataset": "toy", "seed": 3})
    loaded, v2, meta = load_checkpoint(p)
    assert meta == {"dataset": "toy", "seed": 3}
    assert v2.tokens == vocab.tokens and v2.digest == vocab.digest
    assert np.array_equal(v2.embedding, vocab.embedding)
    assert loaded.config == model.config
    orig, back = model.parameters(), loaded.parameters()
    assert set(orig) == set(back)
    for name in orig:
        assert np.array_equal(orig[name].data, back[name].data), name


def test_roundtrip_is_byte_identical(tmp_path):
    model, vocab = _fixture()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model, vocab, {"k": 1})
    loaded, v2, meta = load_checkpoint(p1)
    save_checkpoint(p2, loaded, v2, meta)
    assert p1.read_bytes() == p2.read_bytes()


_DATA = Path(__file__).parent / "data"


def test_a_checkpoint_written_by_an_earlier_commit_loads_bitwise(tmp_path):
    """``format1_aspect_dt.ckpt`` was written by commit bbc82fd, when every
    gate was its own parameter tensor: hidden 3, embed 2, depth 2, aspect-dt
    with biases, bidirectional, so every stack kind and both directions are
    in it, with every weight drawn uniform in [-1, 1). Its outputs on the
    padded batch below were saved beside it. The file loads, reproduces
    those outputs bit for bit, taped and grad-free, and saves back to the
    same bytes."""
    path = _DATA / "format1_aspect_dt.ckpt"
    model, vocab, meta = load_checkpoint(path)
    ids = np.array([[2, 3, 4, 3], [4, 3, 2, 0], [3, 0, 0, 0]])
    mask = (ids != 0).astype(np.int64)
    aspects = vocab.embedding[[3, 3, 2]]
    with no_grad():
        free = model.forward(ids, mask, aspects)
    taped = model.forward(ids, mask, aspects)
    assert taped.sent_logits.requires_grad
    with np.load(_DATA / "format1_aspect_dt_outputs.npz") as want:
        for out in (free, taped):
            assert out.sent_logits.data.tobytes() == want["sent_logits"].tobytes()
            assert out.recon_logits.data.tobytes() == want["recon_logits"].tobytes()
            assert out.gates.tobytes() == want["gates"].tobytes()
    save_checkpoint(tmp_path / "again.ckpt", model, vocab, meta)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_a_load_draws_no_init(tmp_path, monkeypatch):
    """Every weight is read from the file, so a load makes no generator and
    draws nothing."""
    model, vocab = _fixture()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, vocab)

    def refuse(*args, **kwargs):
        raise AssertionError("a load made a random generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    loaded, _, _ = load_checkpoint(p)
    for name, t in model.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, t.data), name


def test_loaded_model_predicts_identically(tmp_path):
    model, vocab = _fixture()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, vocab)
    loaded, _, _ = load_checkpoint(p)
    ids = [2, 3, 4]
    aspect = vocab.embedding[3]
    a = model.forward_one(ids, aspect).sent_logits.data
    b = loaded.forward_one(ids, aspect).sent_logits.data
    assert np.array_equal(a, b)


def test_meta_peek_skips_tensors(tmp_path):
    model, vocab = _fixture()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, vocab, {"dataset": "toy"})
    header = read_checkpoint_meta(p)
    assert header["meta"]["dataset"] == "toy"
    assert header["vocab_digest"] == vocab.digest
    assert header["config"]["hidden_size"] == 3


def test_meta_peek_reads_only_the_header(tmp_path, monkeypatch):
    """The peek reads the magic, the length and the header, even with the blobs cut off."""
    model, vocab = _fixture()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, vocab, {"dataset": "toy"})
    raw = p.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 4)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[: 12 + hlen])
    read = []

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def read(self, n=-1):
            data = self.fh.read(n)
            read.append(len(data))
            return data

    monkeypatch.setattr(checkpoint_mod, "open", lambda *a, **k: Counting(open(*a, **k)),
                        raising=False)
    for path in (p, cut):
        read.clear()
        assert read_checkpoint_meta(path) == json.loads(raw[12 : 12 + hlen])
        assert sum(read) == 12 + hlen
    with pytest.raises(CheckpointError, match="truncated tensor"):
        load_checkpoint(cut)


def test_rejects_garbage_and_truncation(tmp_path):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        load_checkpoint(junk)
    model, vocab = _fixture()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, vocab)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(p.read_bytes()[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(cut)


def test_detects_embedding_tampering(tmp_path):
    model, vocab = _fixture()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, vocab)
    raw = bytearray(p.read_bytes())
    raw[-3] ^= 0xFF  # embedding is the last buffer in the file
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        load_checkpoint(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_a_non_finite_weight(tmp_path, value):
    """A weight the digest does not cover, set to NaN or infinity in the
    saved bytes, is refused by name rather than loaded into NaN logits."""
    model, vocab = _fixture()
    good = tmp_path / "m.ckpt"
    save_checkpoint(good, model, vocab)
    raw = bytearray(good.read_bytes())
    (hlen,) = struct.unpack_from("<Q", raw, 4)
    table = json.loads(raw[12 : 12 + hlen])["tensors"]
    i = next(k for k, e in enumerate(table) if e["name"] == "head/cls")
    at = 12 + hlen + 8 * (sum(int(np.prod(e["shape"])) for e in table[:i]) + 1)
    raw[at : at + 8] = struct.pack("<d", value)  # the tensor's second entry
    bad = tmp_path / "nonfinite.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="'head/cls' holds a non-finite value") as e:
        load_checkpoint(bad)
    assert str(bad) in str(e.value)


def test_rejects_future_format(tmp_path):
    model, vocab = _fixture()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, vocab)
    raw = p.read_bytes().replace(b'"format":1', b'"format":9', 1)
    bad = tmp_path / "v9.ckpt"
    bad.write_bytes(raw)
    with pytest.raises(CheckpointError, match="unsupported format"):
        load_checkpoint(bad)


def _with_header(src, dst, edit):
    """Copy a checkpoint, replacing its JSON header by ``edit(header)``."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 4)
    header = json.loads(raw[12 : 12 + hlen])
    head = json.dumps(edit(header)).encode("utf-8")
    dst.write_bytes(raw[:4] + struct.pack("<Q", len(head)) + head + raw[12 + hlen :])
    return dst


def test_rejects_a_tensor_listed_twice(tmp_path):
    model, vocab = _fixture()
    good = tmp_path / "m.ckpt"
    save_checkpoint(good, model, vocab)
    raw = good.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 4)
    header = json.loads(raw[12 : 12 + hlen])
    table = header["tensors"]
    i = next(k for k, e in enumerate(table) if e["name"] == "head/cls")
    body = raw[12 + hlen :]
    start = 8 * sum(int(np.prod(e["shape"])) for e in table[:i])
    end = start + 8 * int(np.prod(table[i]["shape"]))
    head = json.dumps({**header, "tensors": [*table[: i + 1], *table[i:]]}).encode("utf-8")
    bad = tmp_path / "twice.ckpt"  # both copies' bytes present, so only the table is wrong
    bad.write_bytes(raw[:4] + struct.pack("<Q", len(head)) + head + body[:end] + body[start:])
    with pytest.raises(CheckpointError, match="'head/cls' is listed twice") as e:
        load_checkpoint(bad)
    assert str(bad) in str(e.value)


def test_a_repeated_vocab_token_is_a_checkpoint_error_naming_the_file(tmp_path, capsys):
    """A header whose tokens repeat one, its digest recomputed to match, is
    refused by name, both by the load and by ``eval``."""
    path = _DATA / "format1_aspect_dt.ckpt"
    _, vocab, _ = load_checkpoint(path)
    tokens = [*vocab.tokens[:-1], vocab.tokens[2]]
    digest = vocab_digest(tokens, vocab.embedding)
    bad = _with_header(path, tmp_path / "repeated.ckpt",
                       lambda h: {**h, "vocab_tokens": tokens, "vocab_digest": digest})
    with pytest.raises(CheckpointError, match="vocab tokens are not unique") as e:
        load_checkpoint(bad)
    assert str(bad) in str(e.value)
    assert main(["eval", "--checkpoint", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _set(key, **changes):
    return lambda h: {**h, key: {**h[key], **changes}}


def _negative_first_shape(h):
    return {**h, "tensors": [{**h["tensors"][0], "shape": [-1, -2]}, *h["tensors"][1:]]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop("tensors"), "missing entry 'tensors'"),
        (_drop("vocab_tokens"), "missing entry 'vocab_tokens'"),
        (_drop("config"), "missing entry 'config'"),
        (_set("config", colour="red"), "colour"),
        (lambda h: [h], "not an object"),
        (_set("config", depth=0), "depth must be >= 1"),
        (_set("config", embed_size=5), "does not build a model"),
        (lambda h: {**h, "vocab_tokens": [0, *h["vocab_tokens"][1:]]}, "not all strings"),
        (_negative_first_shape, "negative shape"),
    ],
    ids=[
        "no-tensors", "no-vocab-tokens", "no-config", "unknown-config-key", "not-an-object",
        "bad-config-value", "config-unfit-for-embedding", "non-string-token", "negative-shape",
    ],
)
def test_malformed_header_is_a_checkpoint_error_naming_the_file(tmp_path, capsys, edit, message):
    model, vocab = _fixture()
    good = tmp_path / "m.ckpt"
    save_checkpoint(good, model, vocab)
    bad = _with_header(good, tmp_path / "bad.ckpt", edit)
    with pytest.raises(CheckpointError, match=message) as e:
        load_checkpoint(bad)
    assert str(bad) in str(e.value)
    argv = ["inspect", "--checkpoint", str(bad), "--sentence", "good food", "--aspect", "food"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
