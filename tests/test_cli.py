"""End-to-end CLI workflow on a small synthetic corpus."""

import argparse
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path
from string import Template

import numpy as np
import pytest

import aspectgate.cli as cli_mod
from aspectgate.cli import (
    DATASETS,
    RunConfig,
    build_parser,
    config_digest,
    main,
    parse_config_file,
    resolve_config,
)
from aspectgate.checkpoint import load_checkpoint, save_checkpoint
from aspectgate.corpus import (
    Instance,
    RawSentence,
    TaskSpaces,
    expand,
    load_jsonl,
    make_batches,
    to_jsonl,
)
from aspectgate.model import SentimentModel
from aspectgate.synth import ALL_WORDS, EMBED_DIM, write_embedding_file

XML = """
<sentences>
  <sentence id="s1">
    <text>The food was great but the service was awful.</text>
    <aspectCategories>
      <aspectCategory category="food" polarity="positive"/>
      <aspectCategory category="service" polarity="negative"/>
    </aspectCategories>
  </sentence>
  <sentence id="s2">
    <text>The service was lovely but the food was stale.</text>
    <aspectCategories>
      <aspectCategory category="service" polarity="positive"/>
      <aspectCategory category="food" polarity="negative"/>
    </aspectCategories>
  </sentence>
  <sentence id="s3">
    <text>The food was tasty but the service was rude.</text>
    <aspectCategories>
      <aspectCategory category="food" polarity="positive"/>
      <aspectCategory category="service" polarity="negative"/>
      <aspectCategory category="ambience" polarity="conflict"/>
    </aspectCategories>
  </sentence>
  <sentence id="s4">
    <text>The food was fresh but the service was bland.</text>
    <aspectCategories>
      <aspectCategory category="food" polarity="positive"/>
      <aspectCategory category="service" polarity="negative"/>
    </aspectCategories>
  </sentence>
</sentences>
"""


@pytest.fixture()
def workspace(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "train.xml").write_text(XML)
    (raw / "test.xml").write_text(XML)
    emb = write_embedding_file(
        tmp_path / "vectors.txt", words=ALL_WORDS + ("ambience",)
    )
    return tmp_path, raw, emb


def run(argv):
    return main(argv)


def prepare(tmp_path, raw, extra=()):
    out = tmp_path / "prepared"
    code = run(
        [
            "prepare",
            "--train", str(raw / "train.xml"),
            "--test", str(raw / "test.xml"),
            "--out", str(out),
            "--nc",
            *extra,
        ]
    )
    assert code == 0
    return out


def train(tmp_path, data, emb, extra=()):
    out = tmp_path / "run"
    code = run(
        [
            "train",
            "--data-dir", str(data),
            "--embeddings", str(emb),
            "--out", str(out),
            "--seeds", "1",
            "--epochs", "2",
            "--hidden", "6",
            "--embed-dim", str(EMBED_DIM),
            "--depth", "2",
            "--dropout-input", "0.1",
            "--dropout-hidden", "0.1",
            *extra,
        ]
    )
    assert code == 0
    return out


# -- config plumbing ---------------------------------------------------------------


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "depth = 3\n"
        "lam = 0.7\n"
        "seeds = 4,5\n"
        "ablate = ac,ar\n"
        "nc = true\n"
    )
    assert parse_config_file(cfg)["depth"] == "3"
    ns = build_args(["train", "--config", str(cfg), "--depth", "5"])
    problems = []
    rc = resolve_config(ns, problems)
    assert not problems
    assert rc.depth == 5  # flag beats file
    assert rc.lam == 0.7 and rc.seeds == (4, 5)
    assert rc.ablate == ("ac", "ar") and rc.nc is True


def build_args(argv):
    return build_parser().parse_args(argv)


SETTING_TEXTS = [
    ("seeds", "4,5", (4, 5)),
    ("values", "1,2.5", (1, 2.5)),
    ("lam", "none", None),
    ("lam", "0.3", 0.3),
    ("depth", "3", 3),
    ("dropout_input", "0.2", 0.2),
    ("pool", "max", "max"),
    ("use_bias", "true", True),
    ("ablate", "ac,ar", ("ac", "ar")),
]


def _as_flags(name, text):
    if name == "use_bias":
        return ["--use-bias"]
    if name == "ablate":
        return [x for a in text.split(",") for x in ("--ablate", a)]
    return ["--lambda" if name == "lam" else "--" + name.replace("_", "-"), text]


@pytest.mark.parametrize("name, text, value", SETTING_TEXTS)
def test_config_file_and_flags_give_the_same_settings(tmp_path, name, text, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {text}\n")
    problems = []
    from_file = resolve_config(build_args(["sweep", "--config", str(cfg)]), problems)
    from_flags = resolve_config(build_args(["sweep", *_as_flags(name, text)]), problems)
    assert not problems
    assert getattr(from_file, name) == value
    assert from_file == from_flags


def test_lambda_none_flag_overrides_the_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam = 0.3\n")
    problems = []
    rc = resolve_config(build_args(["train", "--config", str(cfg), "--lambda", "none"]), problems)
    assert not problems and rc.lam is None


def test_every_flag_is_a_run_setting():
    settings = {f.name for f in fields(RunConfig)}
    inputs = {"config", "train", "test", "sentence", "aspect"}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in settings | inputs, (command, action.dest)


def test_bad_flag_value_names_the_flag(capsys):
    assert run(["train", "--seeds", "1,x"]) == 1
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, file_text, named",
    [
        ("train", ["--lambda", "nan"], None, "--lambda"),
        ("train", ["--lambda", "inf"], None, "--lambda"),
        ("train", ["--lr", "inf"], None, "--lr"),
        ("train", ["--clip", "inf"], None, "--clip"),
        ("train", [], "lam = nan\n", "bad value for lam"),
        ("sweep", ["--axis", "lambda", "--values", "0.1,nan"], None, "--values"),
    ],
    ids=["lambda-nan", "lambda-inf", "lr-inf", "clip-inf", "file-lam-nan", "sweep-values-nan"],
)
def test_non_finite_numbers_are_refused(workspace, capsys, command, flags, file_text, named):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    argv = [
        command,
        "--data-dir", str(data),
        "--embeddings", str(emb),
        "--out", str(tmp_path / "run"),
        "--seeds", "1",
        "--epochs", "2",
        "--hidden", "6",
        "--embed-dim", str(EMBED_DIM),
        "--depth", "1",
        *flags,
    ]
    if file_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(file_text)
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    assert run(argv) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(cli_mod.CHOICES))
def test_a_value_outside_its_choices_is_refused_from_the_file_and_the_flag(
    tmp_path, capsys, name
):
    command = "prepare" if name == "hds_rule" else "sweep"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = bogus\n")
    assert run([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: bad value for {name}: 'bogus'"), err
    assert run([command, *_as_flags(name, "bogus")]) == 1
    assert "invalid choice: 'bogus' (choose from " in capsys.readouterr().err


def test_config_file_errors_are_validation_problems(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\ndepth = x\n")
    problems = []
    resolve_config(build_args(["train", "--config", str(cfg)]), problems)
    assert len(problems) == 2
    assert any("nonsense" in p for p in problems)
    assert any("depth" in p for p in problems)


@pytest.mark.parametrize("body, named", [
    (b"depth = 2\nhidden 300\n", "line 2: expected key=value, got 'hidden 300'"),
    (b"depth = 2\n# caf\xe9\n", "line 2: not UTF-8"),
], ids=["no-equals-sign", "not-utf8"])
def test_a_malformed_config_file_is_an_error_naming_its_line(tmp_path, capsys, body, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(body)
    assert run(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {named}") and err.count("\n") == 1


def test_config_digest_ignores_paths_and_is_stable():
    a = RunConfig(data_dir="/x", out="/y", embeddings="/z", checkpoint="/w")
    b = RunConfig()
    assert config_digest(a) == config_digest(b)
    assert config_digest(RunConfig(depth=5)) != config_digest(b)
    # lam=None resolves to the dataset default before hashing
    assert config_digest(RunConfig(lam=0.4)) == config_digest(b)
    assert len(config_digest(b)) == 16


def test_dataset_registry_defaults():
    assert DATASETS["restaurant-14"].lam == 0.4
    assert DATASETS["restaurant-large"].lam == 0.4
    assert DATASETS["restaurant-term"].lam == 0.2
    assert DATASETS["laptop-term"].lam == 0.5
    assert DATASETS["restaurant-term"].task == "term"
    assert DATASETS["restaurant-large"].schema == "opinions"


# -- validation behavior --------------------------------------------------------------


def test_validation_reports_all_problems_at_once(tmp_path, capsys):
    code = run(
        [
            "train",
            "--data-dir", str(tmp_path / "missing"),
            "--seeds", "1,1",
            "--pool", "last",
            "--depth", "0",
            "--epochs", "0",
            "--embeddings", str(tmp_path / "nope.txt"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "duplicate seeds" in err
    assert "epochs" in err
    assert "not found" in err
    assert "depth" in err


def test_a_negative_seed_is_refused_before_any_file_is_read(workspace, capsys, monkeypatch):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)

    def no_read(*args):
        raise AssertionError("a file was read")

    monkeypatch.setattr(cli_mod, "_read_raw", no_read)
    code = run(["train", "--data-dir", str(data), "--embeddings", str(emb),
                "--out", str(tmp_path / "run"), "--seeds", "1,-1"])
    assert code == 1
    assert "seeds must be >= 0, got seed -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_bad_sweep_value_is_refused_before_any_file_is_read(workspace, capsys, monkeypatch):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)

    def no_read(*args):
        raise AssertionError("a file was read")

    monkeypatch.setattr(cli_mod, "_read_raw", no_read)
    code = run(["sweep", "--axis", "depth", "--values", "2,0", "--data-dir", str(data),
                "--embeddings", str(emb), "--out", str(tmp_path / "sweepout")])
    assert code == 1
    assert "depth=0: invalid model config: depth must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweepout").exists()


def test_unknown_flag_is_exit_1(capsys):
    assert run(["train", "--bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_contradictory_ablation(tmp_path, capsys):
    code = run(
        [
            "train",
            "--ablate", "ag",
            "--encoder", "aspect-dt",
            "--data-dir", str(tmp_path),
            "--embeddings", str(tmp_path / "v.txt"),
        ]
    )
    assert code == 1
    assert "contradicts" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, setting",
    [
        ("eval", ["--token-budget", "0"], r"token.budget"),
        ("eval", ["--threshold", "1.5"], r"threshold"),
        ("train", ["--token-budget", "0"], r"token.budget"),
        ("train", ["--depth", "0"], r"depth"),
        ("train", ["--dropout-input", "1.0"], r"dropout.input"),
        ("train", ["--config", "pool = bogus"], r"pool"),
        ("train", ["--config", "encoder = bogus\nablate = ag"], r"encoder"),
    ],
)
def test_bad_setting_is_one_validation_error(workspace, capsys, command, flags, setting):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    if flags[0] == "--config":  # the case's text is the config file's
        (tmp_path / "run.cfg").write_text(flags[1] + "\n")
        flags = ["--config", str(tmp_path / "run.cfg")]
    if command == "eval":
        ckpt = train(tmp_path, data, emb) / "model-seed1.ckpt"
        argv = ["eval", "--checkpoint", str(ckpt), "--data-dir", str(data)]
    else:
        argv = ["train", "--data-dir", str(data), "--embeddings", str(emb)]
    capsys.readouterr()
    assert run([*argv, *flags]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len([e for e in errors if re.search(setting, e)]) == 1, errors


# -- prepare ---------------------------------------------------------------------------


def test_prepare_writes_views_and_stats(workspace):
    tmp_path, raw, emb = workspace
    out = prepare(tmp_path, raw)
    for name in (
        "train.ds.jsonl",
        "train.hds.jsonl",
        "train.nc.jsonl",
        "test.ds.jsonl",
        "test.hds.jsonl",
        "test.nc.jsonl",
        "stats.json",
    ):
        assert (out / name).is_file(), name
    stats = json.loads((out / "stats.json").read_text())
    assert stats["dataset"] == "restaurant-14"
    assert stats["splits"]["train"]["ds"]["total"] == 9
    assert stats["splits"]["train"]["hds"]["total"] == 9  # every sentence qualifies
    assert stats["splits"]["train"]["nc"]["total"] == 8
    assert stats["splits"]["train"]["ds"]["by_label"]["conflict"] == 1


def test_prepare_is_idempotent_on_its_own_output(workspace):
    tmp_path, raw, emb = workspace
    first = prepare(tmp_path, raw)
    second = tmp_path / "again"
    code = run(
        [
            "prepare",
            "--train", str(first / "train.ds.jsonl"),
            "--test", str(first / "test.ds.jsonl"),
            "--out", str(second),
            "--nc",
        ]
    )
    assert code == 0
    for name in ("train.ds.jsonl", "test.ds.jsonl", "train.hds.jsonl", "train.nc.jsonl"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def test_prepare_surfaces_parse_errors(workspace, capsys):
    tmp_path, raw, emb = workspace
    bad = tmp_path / "bad.xml"
    bad.write_text("<sentences><sentence></sentences>")
    code = run(
        ["prepare", "--train", str(bad), "--test", str(bad), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_prepare_names_the_file_and_sentence_of_a_non_integer_term_offset(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text(
        '<sentences><sentence id="x1"><text>ok food</text><aspectTerms>'
        '<aspectTerm term="food" polarity="positive" from="x" to="7"/>'
        "</aspectTerms></sentence></sentences>"
    )
    code = run(["prepare", "--dataset", "restaurant-term", "--train", str(bad),
                "--test", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: sentence 'x1': term offsets")


@pytest.mark.parametrize("suffix, named", [(".xml", "malformed XML at line"), (".jsonl", "line")],
                         ids=["xml", "jsonl"])
def test_prepare_names_the_file_of_a_byte_that_is_not_utf8(workspace, capsys, suffix, named):
    tmp_path, raw, emb = workspace
    good = prepare(tmp_path, raw) / "train.ds.jsonl"
    text = (raw / "train.xml" if suffix == ".xml" else good).read_bytes()
    bad = tmp_path / f"bad{suffix}"
    bad.write_bytes(text.replace(b"lovely", b"caf\xe9"))
    line = text.count(b"\n", 0, text.index(b"lovely")) + 1
    assert line > 1
    capsys.readouterr()
    code = run(["prepare", "--train", str(bad), "--test", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {named} {line}")


def test_prepare_reads_xml_in_its_declared_encoding(workspace):
    tmp_path, raw, emb = workspace
    latin = b'<?xml version="1.0" encoding="ISO-8859-1"?>' + XML.replace(
        "The food was great", "The caf\u00e9 food was great").encode("latin-1")
    (raw / "train.xml").write_bytes(latin)
    out = prepare(tmp_path, raw)
    first = json.loads((out / "train.ds.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert first["text"].startswith("The caf\u00e9 food")


def test_prepare_names_the_bad_jsonl_file(workspace, capsys):
    tmp_path, raw, emb = workspace
    good = prepare(tmp_path, raw) / "train.ds.jsonl"
    lines = good.read_text().splitlines()
    bad_obj = json.loads(lines[1])
    bad_obj["aspects"] = [{"kind": "term", "name": "food", "label": "positive", "span": [2, 2]}]
    bad = tmp_path / "test.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(bad_obj), *lines[2:]]) + "\n")
    capsys.readouterr()
    code = run(["prepare", "--train", str(good), "--test", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: term span [2, 2]")
    assert str(good) not in err


# -- train -----------------------------------------------------------------------------


def test_train_writes_checkpoint_and_metrics(workspace):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out = train(tmp_path, data, emb)
    assert (out / "model-seed1.ckpt").is_file()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["dataset"] == "restaurant-14"
    assert metrics["metrics"]["std"]["acc_ds"] is None  # one seed
    assert set(metrics["metrics"]["seeds"]) == {"1"}
    assert "acc_ds" in metrics["metrics"]["mean"]
    assert "acc_hds" in metrics["metrics"]["mean"]
    assert "recon_ds" in metrics["metrics"]["mean"]
    assert len(metrics["epoch_losses"]["1"]) == 2  # every one of --epochs 2
    assert set(metrics["train_config"]) == {"epochs", "lr", "clip_norm", "token_budget"}
    assert metrics["model_config"]["lam"] == 0.4  # dataset default


def test_train_determinism_bitwise(workspace):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out1 = train(tmp_path, data, emb)
    m1 = (out1 / "metrics.json").read_bytes()
    c1 = (out1 / "model-seed1.ckpt").read_bytes()
    out2 = tmp_path / "run2"
    code = run(
        [
            "train",
            "--data-dir", str(data),
            "--embeddings", str(emb),
            "--out", str(out2),
            "--seeds", "1",
            "--epochs", "2",
            "--hidden", "6",
            "--embed-dim", str(EMBED_DIM),
            "--depth", "2",
            "--dropout-input", "0.1",
            "--dropout-hidden", "0.1",
        ]
    )
    assert code == 0
    assert (out2 / "metrics.json").read_bytes() == m1
    assert (out2 / "model-seed1.ckpt").read_bytes() == c1


def test_train_ablate_ag_uses_gru(workspace):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out = train(tmp_path, data, emb, extra=("--ablate", "ag"))
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["model_config"]["encoder"] == "gru"


def test_train_nc_view(workspace):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out = train(tmp_path, data, emb, extra=("--view", "nc"))
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["view"] == "nc"
    assert metrics["model_config"]["num_labels"] == 3
    assert "acc_nc" in metrics["metrics"]["mean"]


# -- eval ------------------------------------------------------------------------------


def test_eval_matches_training_metrics(workspace, capsys):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out = train(tmp_path, data, emb)
    metrics = json.loads((out / "metrics.json").read_text())
    capsys.readouterr()
    code = run(
        [
            "eval",
            "--checkpoint", str(out / "model-seed1.ckpt"),
            "--data-dir", str(data),
            "--view", "ds",
        ]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["accuracy"] == metrics["metrics"]["seeds"]["1"]["acc_ds"]
    assert result["reconstruction"] == metrics["metrics"]["seeds"]["1"]["recon_ds"]
    assert result["view"] == "ds" and result["seed"] == 1


def test_train_scores_reconstruction_at_the_eval_threshold(workspace, capsys):
    tmp_path, raw, emb = workspace
    term_xml = (
        XML.replace('<aspectCategory category="ambience" polarity="conflict"/>', "")
        .replace("aspectCategories", "aspectTerms")
        .replace("aspectCategory category=", "aspectTerm term=")
    )
    (raw / "terms.xml").write_text(term_xml)
    data = tmp_path / "prepared"
    dataset = ["--dataset", "laptop-term"]
    terms = str(raw / "terms.xml")
    assert run(["prepare", *dataset, "--train", terms, "--test", terms, "--out", str(data)]) == 0
    recorded = []
    for threshold in ("0.001", "0.999"):
        out = train(tmp_path, data, emb, extra=(*dataset, "--threshold", threshold))
        metrics = json.loads((out / "metrics.json").read_text())
        capsys.readouterr()
        ckpt = str(out / "model-seed1.ckpt")
        eval_flags = ["--data-dir", str(data), "--threshold", threshold]
        assert run(["eval", "--checkpoint", ckpt, *eval_flags]) == 0
        result = json.loads(capsys.readouterr().out)
        assert metrics["metrics"]["seeds"]["1"]["recon_ds"] == result["reconstruction"]
        recorded.append(result["reconstruction"])
    assert recorded[0] != recorded[1]  # the threshold decides the score here


def test_eval_refuses_mismatched_data(workspace, capsys):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out = train(tmp_path, data, emb)
    # tamper with the prepared training file
    f = data / "train.ds.jsonl"
    text = f.read_text().replace("great", "grand")
    f.write_text(text)
    code = run(
        ["eval", "--checkpoint", str(out / "model-seed1.ckpt"), "--data-dir", str(data)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "stored digest" in err and "recomputed" in err


@pytest.mark.parametrize(
    "keep, lacking",
    [((), "data_digest, data_files, spaces"), (("data_digest", "data_files"), "spaces")],
    ids=["no-meta", "no-spaces"],
)
def test_eval_refuses_a_checkpoint_without_a_run_record(workspace, capsys, keep, lacking):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    model, vocab, meta = load_checkpoint(train(tmp_path, data, emb) / "model-seed1.ckpt")
    ckpt = save_checkpoint(tmp_path / "bare.ckpt", model, vocab, {k: meta[k] for k in keep})
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(ckpt), "--data-dir", str(data)]) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"meta lacks {lacking}" in err


@pytest.mark.parametrize(
    "entry, bad",
    [
        ("data_files", lambda meta: [*meta["data_files"], 5]),
        ("data_files", lambda meta: [*meta["data_files"], "/" + meta["data_files"][0]]),
        ("data_files", lambda meta: [*meta["data_files"], "../" + meta["data_files"][0]]),
        ("spaces", lambda meta: 5),
        ("spaces", lambda meta: {"categories": meta["spaces"]["categories"]}),
        ("spaces", lambda meta: {**meta["spaces"], "labels": meta["spaces"]["labels"][:2]}),
    ],
    ids=["file-name-not-a-string", "absolute-file-name", "file-name-with-dotdot",
         "spaces-not-a-map", "spaces-without-labels",
         "labels-do-not-fit-the-model"],
)
def test_eval_refuses_a_malformed_run_record(workspace, capsys, entry, bad):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    model, vocab, meta = load_checkpoint(train(tmp_path, data, emb) / "model-seed1.ckpt")
    ckpt = save_checkpoint(tmp_path / "bad.ckpt", model, vocab, {**meta, entry: bad(meta)})
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(ckpt), "--data-dir", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"{ckpt}: meta {entry} " in err


def _record_refusal(workspace, capsys, edit):
    """``eval``'s exit code and stderr on a trained checkpoint whose meta is ``edit(meta, data)``."""
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    model, vocab, meta = load_checkpoint(train(tmp_path, data, emb) / "model-seed1.ckpt")
    ckpt = save_checkpoint(tmp_path / "crafted.ckpt", model, vocab, edit(meta, data))
    capsys.readouterr()
    code = run(["eval", "--checkpoint", str(ckpt), "--data-dir", str(data)])
    return code, capsys.readouterr().err, ckpt


@pytest.mark.parametrize("entry", ["labels", "categories"])
def test_eval_refuses_spaces_in_another_order(workspace, capsys, entry):
    """The same labels or categories in another order fit the model's counts,
    but would score its outputs against the wrong names."""

    def permute(meta, data):
        assert len(meta["spaces"][entry]) >= 3
        return {**meta, "spaces": {**meta["spaces"], entry: meta["spaces"][entry][::-1]}}

    code, err, ckpt = _record_refusal(workspace, capsys, permute)
    assert code == 2
    assert err.count("error:") == 1 and f"{ckpt}: meta spaces " in err


def test_eval_refuses_data_files_of_another_view(workspace, capsys):
    """A ds run's record naming the hds files, its digest recomputed over
    them, is refused: a ds run reads train.ds and is scored on ds and hds."""

    def hds_files(meta, data):
        assert meta["view"] == "ds"
        names = ["train.hds.jsonl", "test.hds.jsonl"]
        digest = cli_mod.data_digest([data / n for n in names])
        return {**meta, "data_files": names, "data_digest": digest}

    code, err, ckpt = _record_refusal(workspace, capsys, hds_files)
    assert code == 2
    assert err.count("error:") == 1 and f"{ckpt}: meta data_files " in err


def test_eval_refuses_an_empty_test_view_by_name(workspace, capsys, monkeypatch):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    ckpt = train(tmp_path, data, emb) / "model-seed1.ckpt"
    (data / "test.nc.jsonl").write_text("")
    forwards = []
    monkeypatch.setattr(SentimentModel, "forward", lambda *a, **k: forwards.append(1))
    capsys.readouterr()
    argv = ["eval", "--checkpoint", str(ckpt), "--data-dir", str(data), "--view", "nc"]
    assert run(argv) == 1
    assert f"error: {data / 'test.nc.jsonl'}: no instances" in capsys.readouterr().err
    assert forwards == []


def test_eval_refuses_a_test_view_outside_the_checkpoints_spaces(workspace, capsys, monkeypatch):
    """An nc run never saw the conflict label, nor the ambience category that
    only a conflict aspect has; its checkpoint scored on the ds view is
    refused before any forward, naming the file and both views."""
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    ckpt = train(tmp_path, data, emb, extra=("--view", "nc")) / "model-seed1.ckpt"
    forwards = []
    monkeypatch.setattr(SentimentModel, "forward", lambda *a, **k: forwards.append(1))
    capsys.readouterr()
    argv = ["eval", "--checkpoint", str(ckpt), "--data-dir", str(data), "--view", "ds"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert (f"error: {data / 'test.ds.jsonl'}: the ds test view holds label 'conflict', "
            f"category 'ambience', outside the spaces of {ckpt}, trained on the nc view") in err
    assert forwards == []


def test_eval_missing_checkpoint(tmp_path, capsys):
    assert run(["eval", "--checkpoint", str(tmp_path / "no.ckpt")]) == 1
    assert "not found" in capsys.readouterr().err


def test_eval_takes_view_and_out_from_a_config_file(workspace, capsys):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    ckpt = str(train(tmp_path, data, emb, extra=("--view", "hds")) / "model-seed1.ckpt")
    base = ["eval", "--checkpoint", ckpt, "--data-dir", str(data)]
    capsys.readouterr()
    assert run(base) == 0
    assert json.loads(capsys.readouterr().out)["view"] == "hds"  # the checkpoint's view
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"view = ds\nout = {tmp_path / 'from-file'}\n")
    assert run([*base, "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["view"] == "ds"
    assert run([*base, "--view", "ds", "--out", str(tmp_path / "from-flags")]) == 0
    from_file = (tmp_path / "from-file" / "eval.json").read_bytes()
    assert from_file == (tmp_path / "from-flags" / "eval.json").read_bytes()


def test_eval_makes_one_forward_per_batch(workspace, capsys, monkeypatch):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    ckpt = train(tmp_path, data, emb) / "model-seed1.ckpt"
    real_forward = SentimentModel.forward
    calls = []

    def counting_forward(self, *args, **kwargs):
        calls.append(1)
        return real_forward(self, *args, **kwargs)

    monkeypatch.setattr(SentimentModel, "forward", counting_forward)
    argv = ["eval", "--checkpoint", str(ckpt), "--data-dir", str(data), "--token-budget", "20"]
    capsys.readouterr()
    assert run(argv) == 0
    assert "reconstruction" in json.loads(capsys.readouterr().out)
    _, vocab, meta = load_checkpoint(ckpt)
    instances = expand(load_jsonl((data / "test.ds.jsonl").read_text()))
    spaces = TaskSpaces.from_dict(meta["spaces"])
    batches = make_batches(instances, vocab, spaces, 20, shuffle=False)
    assert len(batches) >= 2
    assert len(calls) == len(batches)


# -- sweep -----------------------------------------------------------------------------


def test_sweep_lambda_writes_table(workspace, capsys):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out = tmp_path / "sweepout"
    code = run(
        [
            "sweep",
            "--axis", "lambda",
            "--values", "0.0,0.5",
            "--data-dir", str(data),
            "--embeddings", str(emb),
            "--out", str(out),
            "--seeds", "1",
            "--epochs", "1",
            "--hidden", "6",
            "--embed-dim", str(EMBED_DIM),
            "--depth", "1",
            "--dev-fraction", "0.25",
            "--dropout-input", "0.0",
            "--dropout-hidden", "0.0",
        ]
    )
    assert code == 0
    table = json.loads((out / "sweep-lambda.json").read_text())
    assert table["axis"] == "lambda"
    assert [r["value"] for r in table["rows"]] == [0.0, 0.5]
    assert table["best"] in (0.0, 0.5)
    for r in table["rows"]:
        assert 0.0 <= r["acc_dev_mean"] <= 1.0
    assert "best lambda=" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_empty_train_view_has_no_instances(workspace, capsys, command):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    (data / "train.ds.jsonl").write_text("")
    assert run([command, "--data-dir", str(data), "--embeddings", str(emb)]) == 1
    assert "no instances" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_train_view_without_reconstruction_targets_is_a_validation_error(
    workspace, capsys, command
):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)  # category aspects only, so a term task has no target
    argv = [command, "--dataset", "laptop-term", "--data-dir", str(data), "--embeddings", str(emb)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"{data / 'train.ds.jsonl'}: invalid model config: num_recon_targets must be >= 1" in err


def test_sweep_depth_default_values_are_1_to_6():
    from aspectgate.cli import DEFAULT_DEPTH_VALUES

    assert DEFAULT_DEPTH_VALUES == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize(
    "axis, values, named",
    [
        ("depth", "1,0", "depth=0: invalid model config: depth must be >= 1, got 0"),
        ("lambda", "0.2,-1", "lambda=-1: invalid model config: lam must be >= 0"),
        ("depth", "2,2", "duplicate values in [2, 2]"),
    ],
    ids=["depth-0", "lambda-negative", "duplicate"],
)
def test_sweep_checks_every_value_before_training(workspace, capsys, axis, values, named):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out = tmp_path / "sweepout"
    capsys.readouterr()
    code = run(
        [
            "sweep", "--axis", axis, "--values", values,
            "--data-dir", str(data), "--embeddings", str(emb), "--out", str(out),
            "--seeds", "1,2", "--epochs", "1", "--hidden", "4", "--embed-dim", str(EMBED_DIM),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and "train instances" not in err
    assert not list(out.glob("sweep-*.json"))


def test_sweep_rejects_float_depth(workspace, capsys):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    code = run(
        [
            "sweep",
            "--axis", "depth",
            "--values", "1.5,2",
            "--data-dir", str(data),
            "--embeddings", str(emb),
        ]
    )
    assert code == 1
    assert "depth=1.5: invalid model config: depth must be an integer, got 1.5" in (
        capsys.readouterr().err
    )


# -- inspect ---------------------------------------------------------------------------


def test_inspect_emits_one_record_per_token(workspace, capsys):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out = train(tmp_path, data, emb)
    capsys.readouterr()
    code = run(
        [
            "inspect",
            "--checkpoint", str(out / "model-seed1.ckpt"),
            "--sentence", "overpriced Japanese food with mediocre service.",
            "--aspect", "service",
        ]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 7
    records = [json.loads(l) for l in lines]
    assert [r["token"] for r in records] == [
        "overpriced", "japanese", "food", "with", "mediocre", "service", ".",
    ]
    for r in records:
        assert r["aspect"] == "service"
        assert r["gate_min"] >= 0.0


def test_inspect_takes_out_from_a_config_file(workspace, capsys):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    ckpt = str(train(tmp_path, data, emb) / "model-seed1.ckpt")
    argv = ["inspect", "--checkpoint", ckpt, "--sentence", "the food was great", "--aspect", "food"]
    cfg = tmp_path / "inspect.cfg"
    cfg.write_text(f"out = {tmp_path / 'from-file'}\n")
    assert run([*argv, "--config", str(cfg)]) == 0
    assert run([*argv, "--out", str(tmp_path / "from-flags")]) == 0
    from_file = (tmp_path / "from-file" / "gates.jsonl").read_bytes()
    assert from_file == (tmp_path / "from-flags" / "gates.jsonl").read_bytes()


def test_inspect_rejects_gateless_encoder(workspace, capsys):
    tmp_path, raw, emb = workspace
    data = prepare(tmp_path, raw)
    out = train(tmp_path, data, emb, extra=("--ablate", "ag"))
    code = run(
        [
            "inspect",
            "--checkpoint", str(out / "model-seed1.ckpt"),
            "--sentence", "the food",
            "--aspect", "food",
        ]
    )
    assert code == 2
    assert "gates" in capsys.readouterr().err


def test_inspect_requires_sentence_and_aspect(workspace, capsys):
    tmp_path, raw, emb = workspace
    code = run(["inspect", "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "sentence" in err and "aspect" in err and "not found" in err


# -- shell scripts ---------------------------------------------------------------------

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script_invocations():
    """(script, argv) for each ``aspectgate`` command in scripts/*.sh.

    Continuation lines are joined, and each shell variable is replaced
    by the default its script gives it (``NAME="${NAME:-default}"``).
    """
    for script in sorted(SCRIPTS.glob("*.sh")):
        defaults = {}
        for line in script.read_text().replace("\\\n", " ").splitlines():
            line = line.strip()
            m = re.fullmatch(r'(\w+)="\$\{\1:-(.*)\}"', line)
            if m:
                defaults[m[1]] = Template(m[2]).substitute(defaults)
            elif line.startswith("aspectgate "):
                yield script.name, shlex.split(Template(line).substitute(defaults))[1:]


INVOCATIONS = list(_script_invocations())


def test_the_scripts_call_aspectgate():
    assert {name for name, _ in INVOCATIONS} == {p.name for p in SCRIPTS.glob("*.sh")}


@pytest.mark.parametrize(
    "argv", [argv for _, argv in INVOCATIONS],
    ids=[f"{name}-{argv[0]}-{i}" for i, (name, argv) in enumerate(INVOCATIONS)],
)
def test_script_invocation_parses(argv):
    assert build_parser().parse_args(argv).command == argv[0]
