"""Command-line workflow: prepare, train, eval, sweep, inspect.

Every command resolves its configuration from defaults, an optional
key=value config file, and CLI flags (flags win), checks the settings
it reads, and only then reads any file; a model setting, and each sweep
value, is checked by building the run's ``ModelConfig``. Outputs are
written atomically. Exit codes: 0 success, 1 validation error, 2
runtime failure.

Each setting is one ``RunConfig`` field: its config-file key is the
field name, its flag is the name with dashes (``lam`` is ``--lambda``),
and both parse their text through ``parse_value``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .corpus import (
    HDS_RULES,
    CorpusError,
    RawSentence,
    TaskSpaces,
    count_stats,
    expand,
    hds_qualifies,
    load_jsonl,
    parse_semeval_opinions_xml,
    parse_semeval_xml,
    strip_conflict_sentences,
    to_jsonl,
    tokenize,
    tokenize_category,
)
from .ioutil import canonical_json, write_atomic_json, write_atomic_text
from .model import ENCODERS, POOLING_MODES, CapabilityError, ModelConfig
from .trainer import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    experiment_problems,
    inspect_gates,
    run_experiment,
)
from .trainer import sweep as run_sweep


@dataclass(frozen=True)
class DatasetInfo:
    task: str
    lam: float
    schema: str  # flat | opinions


DATASETS = {
    "restaurant-14": DatasetInfo("category", 0.4, "flat"),
    "restaurant-large": DatasetInfo("category", 0.4, "opinions"),
    "restaurant-term": DatasetInfo("term", 0.2, "flat"),
    "laptop-term": DatasetInfo("term", 0.5, "flat"),
}

VIEWS = ("ds", "hds", "nc")
ABLATIONS = ("ac", "ag", "ar")
SWEEP_AXIS_FLAGS = {"depth": "depth", "lambda": "lam"}
DEFAULT_DEPTH_VALUES = (1, 2, 3, 4, 5, 6)
DEFAULT_LAMBDA_VALUES = tuple(round(0.1 * i, 1) for i in range(11))


@dataclass
class RunConfig:
    """Union of model/training knobs, file paths, and dataset identity."""

    dataset: str = "restaurant-14"
    data_dir: str = "data"
    embeddings: str = ""
    out: str = "out"
    checkpoint: str = ""
    view: str = "ds"
    hds_rule: str = HDS_RULES[0]
    nc: bool = False
    seeds: tuple = (1, 2, 3, 4, 5)
    hidden: int = 300
    embed_dim: int = 300
    depth: int = 4
    lam: float | None = None  # None picks the dataset default
    encoder: str = ""  # empty = aspect-dt unless ablated
    ablate: tuple = ()
    pool: str = "last"
    bidirectional: bool = False
    use_bias: bool = False
    epochs: int = 20
    lr: float = 0.01
    clip: float = 5.0
    token_budget: int = 4096
    dropout_input: float = 0.5
    dropout_hidden: float = 0.3
    dev_fraction: float = 0.1
    threshold: float = 0.5
    axis: str = "depth"
    values: tuple = ()

    def resolved_lam(self) -> float:
        if self.lam is not None:
            return self.lam
        return DATASETS[self.dataset].lam if self.dataset in DATASETS else 0.0

    def effective_encoder(self) -> str:
        if "ag" in self.ablate and self.encoder in ("", "aspect-dt"):
            return "gru"
        return self.encoder or "aspect-dt"


# the values a setting may take, whether a flag or the config file gives it
CHOICES = {
    "dataset": sorted(DATASETS),
    "view": VIEWS,
    "hds_rule": HDS_RULES,
    "encoder": ENCODERS,
    "ablate": ABLATIONS,
    "pool": POOLING_MODES,
    "axis": sorted(SWEEP_AXIS_FLAGS),
}

# paths are machine-local; everything else defines the experiment
_PATH_FIELDS = ("data_dir", "embeddings", "out", "checkpoint")


def config_digest(rc: RunConfig) -> str:
    """Stable hash of the semantic config (paths excluded)."""
    d = {f.name: getattr(rc, f.name) for f in fields(rc) if f.name not in _PATH_FIELDS}
    d["lam"] = rc.resolved_lam()
    d["encoder"] = rc.effective_encoder()
    d["ablate"] = sorted(rc.ablate)
    return hashlib.sha256(canonical_json(d).encode("utf-8")).hexdigest()[:16]


def data_digest(paths) -> str:
    """Fingerprint of the prepared files a run reads (names + bytes)."""
    h = hashlib.sha256()
    for p in paths:
        p = Path(p)
        h.update(p.name.encode("utf-8"))
        h.update(b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]


# -- config resolution -----------------------------------------------------------


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise CorpusError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = body.partition("=")
        out[key.strip()] = value.strip()
    return out


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _split(text: str) -> list[str]:
    return [x for x in text.replace(" ", "").split(",") if x]


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# fields whose text is not spelled like their default's type
_TEXT_PARSERS = {
    "seeds": lambda text: tuple(int(x) for x in _split(text)),
    "values": lambda text: tuple(
        int(x) if x.lstrip("+-").isdigit() else _float(x) for x in _split(text)
    ),
    "ablate": lambda text: tuple(_split(text)),
    "lam": lambda text: None if text.lower() == "none" else _float(text),
}

_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def parse_value(name: str, text: str):
    """A setting's value from its text, as a config file or a flag spells it.

    Raises ValueError on text the field cannot take, nan and inf included.
    """
    if name in _TEXT_PARSERS:
        return _TEXT_PARSERS[name](text)
    default = _DEFAULTS[name]
    if isinstance(default, bool):
        return _parse_bool(text)
    if isinstance(default, float):
        return _float(text)
    return type(default)(text)


def resolve_config(args: argparse.Namespace, problems: list[str]) -> RunConfig:
    """defaults < config file < CLI flags.

    The file's settings join ``args`` beneath its flags, so a setting is
    in ``vars(args)`` exactly when the file or a flag gives it.
    """
    given = vars(args)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            problems.append(f"config file not found: {path}")
            return RunConfig()
        for key, text in parse_config_file(path).items():
            if key not in _DEFAULTS:
                problems.append(f"{path}: unknown config key {key!r}")
                continue
            try:
                value = parse_value(key, text)
                allowed = CHOICES.get(key)
                if allowed and not set(value if key == "ablate" else [value]) <= set(allowed):
                    raise ValueError(f"{text!r} is not one of {list(allowed)}")
            except ValueError as e:
                problems.append(f"{path}: bad value for {key}: {e}")
                continue
            given.setdefault(key, value)
    rc = RunConfig(**{k: v for k, v in given.items() if k in _DEFAULTS})
    rc.ablate = tuple(dict.fromkeys(rc.ablate))
    return rc


def validate_common(rc: RunConfig, problems: list[str]) -> None:
    """Settings checks beyond ``CHOICES``, which ``resolve_config`` and argparse apply."""
    if "ag" in rc.ablate and rc.encoder == "aspect-dt":
        problems.append("--ablate ag contradicts --encoder aspect-dt")
    problems += experiment_problems(rc.seeds, rc.threshold)
    if rc.token_budget < 1:
        problems.append(f"token-budget must be >= 1, got {rc.token_budget}")


def _checked(problems: list[str], prefix: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, or None with ``prefix`` and its ValueError in ``problems``."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        problems.append(prefix + str(e))
        return None


def _configs(rc: RunConfig, problems: list[str]) -> tuple[TrainConfig | None, ModelConfig | None]:
    """The run's training and model settings; ``_training_inputs`` fills in
    the model's task and counts."""
    tc = _checked(
        problems, "", TrainConfig,
        epochs=rc.epochs, lr=rc.lr, clip_norm=rc.clip, token_budget=rc.token_budget,
    )
    cfg = _checked(
        problems, "", ModelConfig,
        hidden_size=rc.hidden,
        embed_size=rc.embed_dim,
        depth=rc.depth,
        lam=rc.resolved_lam(),
        encoder=rc.effective_encoder(),
        aspect_concat="ac" not in rc.ablate,
        reconstruct="ar" not in rc.ablate,
        dropout_input=rc.dropout_input,
        dropout_hidden=rc.dropout_hidden,
        pooling=rc.pool,
        bidirectional=rc.bidirectional,
        use_bias=rc.use_bias,
    )
    return tc, cfg


# -- prepared-data access -----------------------------------------------------------


def _view_file(data_dir, split: str, view: str) -> Path:
    return Path(data_dir) / f"{split}.{view}.jsonl"


def _run_files(data_dir, view: str) -> dict[str, Path]:
    """The prepared files a training run on ``view`` reads, in digest order:
    the train view under "train", then each test view it is scored on (ds
    and hds for ds, otherwise its own view) under its view's name."""
    tests = ("ds", "hds") if view == "ds" else (view,)
    return {"train": _view_file(data_dir, "train", view),
            **{v: _view_file(data_dir, "test", v) for v in tests}}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _require_file(path, flag: str, problems: list[str]) -> bool:
    """True when the file a flag names exists; else a problem says why not."""
    if not path:
        problems.append(f"--{flag} is required")
    elif not Path(path).is_file():
        problems.append(f"--{flag} file not found: {path}")
    else:
        return True
    return False


# -- prepare -----------------------------------------------------------------------


def _read_raw(path: Path, info: DatasetInfo | None = None) -> list[RawSentence]:
    """Parse one corpus file: JSONL, or SemEval XML in ``info``'s schema.

    A ``CorpusError`` from the parser is re-raised naming the file.
    """
    text = path.read_text()
    try:
        if path.suffix == ".jsonl":
            return load_jsonl(text)
        if info.schema == "opinions":
            return parse_semeval_opinions_xml(text)
        return parse_semeval_xml(text, info.task)
    except CorpusError as e:
        raise CorpusError(f"{path}: {e}") from e


def cmd_prepare(rc: RunConfig, args) -> int:
    problems: list[str] = []
    validate_common(rc, problems)
    raw = {"train": getattr(args, "train", None), "test": getattr(args, "test", None)}
    for split, p in raw.items():
        if _require_file(p, split, problems) and Path(p).suffix not in (".xml", ".jsonl"):
            problems.append(f"--{split} must be .xml or .jsonl, got {p}")
    if problems:
        return _report(problems)
    info = DATASETS[rc.dataset]
    out = Path(rc.out)
    splits: dict[str, dict] = {}
    for split, p in raw.items():
        sentences = _read_raw(Path(p), info)
        hds = [s for s in sentences if hds_qualifies(s, rc.hds_rule)]
        write_atomic_text(_view_file(out, split, "ds"), to_jsonl(sentences))
        write_atomic_text(_view_file(out, split, "hds"), to_jsonl(hds))
        stats = {"ds": count_stats(expand(sentences)), "hds": count_stats(expand(hds))}
        if rc.nc:
            ncs = strip_conflict_sentences(sentences)
            write_atomic_text(_view_file(out, split, "nc"), to_jsonl(ncs))
            stats["nc"] = count_stats(expand(ncs))
        splits[split] = stats
    report = {
        "dataset": rc.dataset,
        "task": info.task,
        "hds_rule": rc.hds_rule,
        "tokenizer": "lowercase alphanumeric runs and single punctuation marks",
        "config_digest": config_digest(rc),
        "splits": splits,
    }
    write_atomic_json(out / "stats.json", report)
    for split, stats in splits.items():
        shown = ", ".join(f"{view}={s['total']}" for view, s in stats.items())
        print(f"{split}: {shown}")
    print(f"wrote {out}/stats.json")
    return 0


# -- train -------------------------------------------------------------------------


def _training_inputs(rc: RunConfig, cfg: ModelConfig | None, files, problems: list[str]):
    """Check that each of ``files`` exists, then load the first, the train view.

    Returns (train instances, spaces, model config), the config's task
    and counts filled in. It stops at the first stage that adds to
    ``problems``, or at once if the caller's checks did, so read it only
    when ``problems`` is empty.
    """
    for p in files:
        if not p.is_file():
            problems.append(f"prepared file not found: {p} (run prepare first)")
    _require_file(rc.embeddings, "embeddings", problems)
    if problems:
        return None
    train_inst = expand(_read_raw(files[0]))
    if not train_inst:
        problems.append(f"{files[0]}: no instances")
        return None
    task = DATASETS[rc.dataset].task
    spaces = TaskSpaces.build(task, train_inst, rc.view != "nc")
    counts = {"num_labels": spaces.num_labels, "num_recon_targets": spaces.num_recon_targets}
    # refused, for one, when the train view has no reconstruction target
    cfg = _checked(problems, f"{files[0]}: ", replace, cfg, task=task, **counts)
    if cfg is None:
        return None
    return train_inst, spaces, cfg


def cmd_train(rc: RunConfig, args) -> int:
    problems: list[str] = []
    validate_common(rc, problems)
    tc, cfg = _configs(rc, problems)
    files = _run_files(rc.data_dir, rc.view)
    inputs = _training_inputs(rc, cfg, list(files.values()), problems)
    if problems:
        return _report(problems)
    train_inst, spaces, cfg = inputs
    eval_sets = {v: expand(_read_raw(f)) for v, f in files.items() if v != "train"}
    # what names the run, in each checkpoint's meta and in metrics.json
    run_entries = {
        "dataset": rc.dataset,
        "view": rc.view,
        "config_digest": config_digest(rc),
        "data_digest": data_digest(files.values()),
    }
    report, runs = run_experiment(
        train_inst, eval_sets, rc.embeddings, cfg, tc, spaces, rc.seeds, rc.threshold, log=_log
    )
    out = Path(rc.out)
    ckpt_names = []
    for run in runs:
        name = f"model-seed{run.seed}.ckpt"
        meta = {
            **run_entries,
            "seed": run.seed,
            "data_files": [f.name for f in files.values()],
            "spaces": spaces.to_dict(),
            "train": tc.to_dict(),
        }
        save_checkpoint(out / name, run.model, run.vocab, meta)
        ckpt_names.append(name)
    metrics = {
        **run_entries,
        "task": DATASETS[rc.dataset].task,
        "model_config": cfg.to_dict(),
        "train_config": tc.to_dict(),
        "seeds": list(rc.seeds),
        "metrics": report.to_dict(),
        "epoch_losses": {str(r.seed): r.epoch_losses for r in runs},
        "checkpoints": ckpt_names,
    }
    write_atomic_json(out / "metrics.json", metrics)
    for name in report.metric_names():
        print(f"{name}: {_mean_std(report, name)}")
    print(f"wrote {out}/metrics.json and {len(ckpt_names)} checkpoint(s)")
    return 0


def _mean_std(report, name: str) -> str:
    """A metric's mean over seeds, with its spread when there is one."""
    std = report.std(name)
    return f"{report.mean(name):.4f}" + ("" if std is None else f" ± {std:.4f}")


# -- eval --------------------------------------------------------------------------


def cmd_eval(rc: RunConfig, args) -> int:
    problems: list[str] = []
    validate_common(rc, problems)
    _require_file(rc.checkpoint, "checkpoint", problems)
    if problems:
        return _report(problems)
    model, vocab, meta = load_checkpoint(rc.checkpoint)
    lacking = [k for k in ("data_digest", "data_files", "spaces") if k not in meta]
    if lacking:
        return _report(
            [f"{rc.checkpoint}: no training-run record, meta lacks {', '.join(lacking)}"]
        )
    # the record must be what a run on its view recomputes: eval opens no path it spells
    run_view = meta.get("view", "ds")
    if run_view not in VIEWS:
        return _report([f"checkpoint view must be one of {VIEWS}, got {run_view!r}"])
    files = _run_files(rc.data_dir, run_view)
    if meta["data_files"] != [p.name for p in files.values()]:
        raise CheckpointError(f"{rc.checkpoint}: meta data_files are not those of a "
                              f"{run_view} run: {meta['data_files']!r}")
    missing = [str(p) for p in files.values() if not p.is_file()]
    if missing:
        return _report([f"cannot verify data digest, missing: {m}" for m in missing])
    stored, recomputed = meta["data_digest"], data_digest(files.values())
    if recomputed != stored:
        return _report(
            [
                "data does not match the checkpoint's training data: "
                f"stored digest {stored}, recomputed {recomputed}"
            ]
        )
    cfg = model.config
    spaces = TaskSpaces.build(cfg.task, expand(_read_raw(files["train"])), run_view != "nc")
    counts = (spaces.num_labels, spaces.num_recon_targets)
    if meta["spaces"] != spaces.to_dict() or counts != (cfg.num_labels, cfg.num_recon_targets):
        raise CheckpointError(
            f"{rc.checkpoint}: meta spaces is not what {files['train']} gives, {counts[0]} labels "
            f"and {counts[1]} targets; the model has {cfg.num_labels} and {cfg.num_recon_targets}")
    view = rc.view if "view" in vars(args) else run_view
    test_file = _view_file(rc.data_dir, "test", view)
    if not test_file.is_file():
        return _report([f"prepared file not found: {test_file}"])
    instances = expand(_read_raw(test_file))
    if not instances:
        return _report([f"{test_file}: no instances"])
    result = {
        "checkpoint": Path(rc.checkpoint).name,
        "dataset": meta.get("dataset"),
        "seed": meta.get("seed"),
        "view": view,
        "config_digest": meta.get("config_digest"),
        "count": len(instances),
        **evaluate(model, instances, vocab, spaces, rc.token_budget, rc.threshold),
    }
    print(canonical_json(result, indent=2))
    if "out" in vars(args):
        write_atomic_json(Path(rc.out) / "eval.json", result)
    return 0


# -- sweep -------------------------------------------------------------------------


def cmd_sweep(rc: RunConfig, args) -> int:
    problems: list[str] = []
    validate_common(rc, problems)
    tc, cfg = _configs(rc, problems)
    if not 0.0 < rc.dev_fraction < 1.0:
        problems.append(f"dev-fraction must be in (0, 1), got {rc.dev_fraction}")
    values = rc.values or (
        DEFAULT_DEPTH_VALUES if rc.axis == "depth" else DEFAULT_LAMBDA_VALUES
    )
    if len(set(values)) != len(values):
        problems.append(f"duplicate values in {list(values)}")
    field = SWEEP_AXIS_FLAGS[rc.axis]  # the ModelConfig field the sweep sets
    for value in values if cfg is not None else ():
        _checked(problems, f"{rc.axis}={value}: ", replace, cfg, **{field: value})
    inputs = _training_inputs(rc, cfg, [_run_files(rc.data_dir, rc.view)["train"]], problems)
    if problems:
        return _report(problems)
    train_inst, spaces, cfg = inputs
    out = run_sweep(
        field,
        values,
        train_inst,
        rc.embeddings,
        cfg,
        tc,
        spaces,
        rc.seeds,
        dev_fraction=rc.dev_fraction,
        threshold=rc.threshold,
        log=_log,
    )
    rows = []
    for value, report in out["values"].items():
        rows.append(
            {
                "value": value,
                "acc_dev_mean": report.mean("acc_dev"),
                "acc_dev_std": report.std("acc_dev"),
                "seeds": report.to_dict()["seeds"],
            }
        )
        print(f"{rc.axis}={value}: dev accuracy {_mean_std(report, 'acc_dev')}")
    table = {
        "axis": rc.axis,
        "view": rc.view,
        "pool": rc.pool,
        "dev_size": out["dev_size"],
        "dev_fraction": rc.dev_fraction,
        "config_digest": config_digest(rc),
        "rows": rows,
        "best": out["best"],
    }
    path = Path(rc.out) / f"sweep-{rc.axis}.json"
    write_atomic_json(path, table)
    print(f"best {rc.axis}={out['best']}; wrote {path}")
    return 0


# -- inspect -----------------------------------------------------------------------


def cmd_inspect(rc: RunConfig, args) -> int:
    problems: list[str] = []
    _require_file(rc.checkpoint, "checkpoint", problems)
    sentence = getattr(args, "sentence", None)
    aspect = getattr(args, "aspect", None)
    if not sentence:
        problems.append("--sentence is required")
    if not aspect:
        problems.append("--aspect is required")
    if problems:
        return _report(problems)
    model, vocab, meta = load_checkpoint(rc.checkpoint)
    tokens = tokenize(sentence)
    if not tokens:
        return _report([f"sentence has no tokens: {sentence!r}"])
    if model.config.task == "category":
        aspect_tokens = tokenize_category(aspect)
    else:
        aspect_tokens = tokenize(aspect)
    records = inspect_gates(model, vocab, tokens, aspect_tokens)
    lines = []
    for rec in records:
        rec = {"aspect": aspect, **rec}
        lines.append(canonical_json(rec))
        print(lines[-1])
    if "out" in vars(args):
        write_atomic_text(Path(rc.out) / "gates.jsonl", "\n".join(lines) + "\n")
    return 0


# -- argument parsing ----------------------------------------------------------------


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise CliUsageError(message)


_FLAG_OPTIONS = {
    "ablate": dict(action="append", type=str),  # one name per flag
    "lam": dict(metavar="LAMBDA"),
}


def _flag_type(name: str):
    parse = functools.partial(parse_value, name)
    parse.__name__ = name  # argparse names it in "invalid <name> value"
    return parse


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """``--config`` plus one flag per named RunConfig field.

    A flag left off the command line stays out of the namespace.
    """
    p.add_argument("--config", metavar="FILE")
    for name in names:
        aliases = ["--lambda", "--lam"] if name == "lam" else ["--" + name.replace("_", "-")]
        if isinstance(_DEFAULTS[name], bool):
            kw = dict(action="store_true")
        else:
            kw = {"type": _flag_type(name), "choices": CHOICES.get(name)}
            kw.update(_FLAG_OPTIONS.get(name, {}))
        p.add_argument(*aliases, dest=name, default=argparse.SUPPRESS, **kw)


# train and sweep take every setting but those only the other commands read
_MODEL_TRAIN_FLAGS = tuple(
    f.name
    for f in fields(RunConfig)
    if f.name not in ("checkpoint", "hds_rule", "nc", "axis", "values", "dev_fraction")
)


def build_parser() -> _Parser:
    parser = _Parser(prog="aspectgate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse raw data into canonical JSONL views")
    p.add_argument("--train", metavar="FILE", help="raw train split (.xml or .jsonl)")
    p.add_argument("--test", metavar="FILE", help="raw test split (.xml or .jsonl)")
    _add_config_flags(p, "dataset", "out", "hds_rule", "nc")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train one model per seed and report metrics")
    _add_config_flags(p, *_MODEL_TRAIN_FLAGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="measure a checkpoint on a prepared test view")
    _add_config_flags(p, "checkpoint", "data_dir", "out", "view", "token_budget", "threshold")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid-search depth or lambda against a dev split")
    _add_config_flags(p, *_MODEL_TRAIN_FLAGS, "axis", "values", "dev_fraction")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect", help="emit per-token aspect-gate records for a sentence")
    p.add_argument("--sentence", metavar="TEXT")
    p.add_argument("--aspect", metavar="TEXT")
    _add_config_flags(p, "checkpoint", "out")
    p.set_defaults(func=cmd_inspect)
    return parser


def _report(problems: list[str]) -> int:
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as e:
        return _report([str(e)])
    problems: list[str] = []
    rc = resolve_config(args, problems)
    if problems:
        return _report(problems)
    try:
        return args.func(rc, args)
    except (
        CorpusError,
        CheckpointError,
        CapabilityError,
        TrainingDiverged,
        OSError,
        ValueError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
