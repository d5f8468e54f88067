"""Acceptance gate: every criterion prints one verdict line.

Criteria that need user-supplied corpora or pretrained vectors (5, 6,
the desk-scale half of 8, and 9) look under $AG_DATA_DIR (default
./data) and skip with an explicit reason when the files are absent.
Everything else runs on built-in or synthetic data.
"""

import inspect
import itertools
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import FD_EPS_CHECK, KINK_RADIUS, TOL_CHECK, weighted_sum

from aspectgate import cells as cells_mod
from aspectgate import tensor as tensor_mod
from aspectgate.cells import (
    CellParams,
    affine,
    aspect_gru_step,
    gate_arrays,
    init_block,
    run_block_batch,
    transition_gru_step,
)
from aspectgate.cli import main as cli_main
from aspectgate.corpus import (
    HDS_RULES,
    Instance,
    TaskSpaces,
    assemble_vocab,
    expand,
    extract_hds,
    parse_semeval_xml,
    strip_conflict_sentences,
)
from aspectgate.model import (
    ENCODERS,
    POOLING_MODES,
    ModelConfig,
    SentimentModel,
    batch_joint_loss,
    embed_aspect,
)
from aspectgate.synth import ASPECTS, NEG_WORDS, POS_WORDS, write_embedding_file
from aspectgate.tensor import (
    CHECK_DTYPE,
    Tensor,
    concat,
    dropout,
    grad_errors,
    iter_nodes,
    joint_loss,
    pool_columns,
    relu_kink_margin,
)
from aspectgate.trainer import (
    TrainConfig,
    evaluate,
    run_experiment,
    train,
)

N_POINTS = 10

_CAPMAN = None


@pytest.fixture(autouse=True)
def _route_verdicts_to_terminal(request):
    """Verdict lines must reach the terminal even under fd-level capture."""
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _verdict(num: int, name: str, status: str, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    line = f"criterion {num:2d} [{status}] {name}{tail}\n"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)


def conclude(num: int, name: str, ok: bool, detail: str = "") -> None:
    _verdict(num, name, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {num} ({name}): {detail}"


def skip(num: int, name: str, reason: str) -> None:
    _verdict(num, name, "SKIP", reason)
    pytest.skip(reason)


# -- external data discovery ---------------------------------------------------------

_RAW_NAMES = {
    "restaurant_train": ("Restaurants_Train_v2.xml", "Restaurants_Train.xml", "restaurants-train.xml"),
    "restaurant_test": ("Restaurants_Test_Gold.xml", "Restaurants_Test.xml", "restaurants-test.xml"),
    "laptop_train": ("Laptop_Train_v2.xml", "Laptops_Train.xml", "laptops-train.xml"),
    "laptop_test": ("Laptops_Test_Gold.xml", "Laptops_Test.xml", "laptops-test.xml"),
    "glove": ("glove.840B.300d.txt", "glove.42B.300d.txt", "glove.6B.300d.txt"),
}


def _data_dir() -> Path:
    return Path(os.environ.get("AG_DATA_DIR", "data"))


def _find_raw(key: str) -> Path | None:
    root = _data_dir()
    for name in _RAW_NAMES[key]:
        p = root / name
        if p.is_file():
            return p
    return None


def _missing(*keys: str) -> list[str]:
    return [k for k in keys if _find_raw(k) is None]


@pytest.fixture(scope="module")
def restaurant_xml():
    if _missing("restaurant_train", "restaurant_test"):
        return None
    return (
        _find_raw("restaurant_train").read_text(),
        _find_raw("restaurant_test").read_text(),
    )


_DESK_CACHE: dict = {}


def _desk_experiment(encoder: str, restaurant_xml):
    """Reference-hyperparameter restaurant-14 run, shared across criteria 6, 8, 9."""
    if encoder in _DESK_CACHE:
        return _DESK_CACHE[encoder]
    train_sents = parse_semeval_xml(restaurant_xml[0], "category")
    test_sents = parse_semeval_xml(restaurant_xml[1], "category")
    train_inst = expand(train_sents)
    spaces = TaskSpaces.build("category", train_inst)
    cfg = ModelConfig(
        hidden_size=300,
        embed_size=300,
        depth=4,
        num_labels=spaces.num_labels,
        num_recon_targets=spaces.num_recon_targets,
        task="category",
        lam=0.4,
        encoder=encoder,
        dropout_input=0.5,
        dropout_hidden=0.3,
    )
    tc = TrainConfig(epochs=20, lr=0.01, clip_norm=5.0, token_budget=4096)
    eval_sets = {
        "ds": expand(test_sents),
        "hds": extract_hds(test_sents),
    }
    report, _ = run_experiment(
        train_inst,
        eval_sets,
        _find_raw("glove"),
        cfg,
        tc,
        spaces,
        seeds=(1, 2, 3, 4, 5),
        log=lambda m: print(m, file=sys.stderr),
    )
    _DESK_CACHE[encoder] = report
    return report


# -- criterion 1: gradient fidelity ----------------------------------------------------


def _pt(rng, *shape, scale=1.0):
    data = ((rng.random(shape) - 0.5) * 2 * scale).astype(CHECK_DTYPE)
    return Tensor(data, requires_grad=True)


_LENGTHS = np.array([3, 2])  # over T=3 steps: the second column pads its last step


def _block_case(rng, kind):
    """A depth-2 block over a padded B=2 batch, first cell ``kind``, biases off zero,
    input and aspect on the tape, away from relu kinks."""
    for _ in range(100):
        block = init_block("aspect" if kind == "aspect" else "dt", 3, 2, 2, 2, rng,
                           CHECK_DTYPE, bias=True)
        if kind == "gru":
            first = CellParams.init("gru", 3, rng, d_x=2, dtype=CHECK_DTYPE, bias=True)
            block = (first, *block[1:])
        for cell in block:
            cell.bias.data[...] = (rng.random(cell.bias.shape) - 0.5).astype(CHECK_DTYPE)
        x, asp = _pt(rng, 3, 2, 2), _pt(rng, 2, 2)
        aspect = asp if kind == "aspect" else None

        def f():
            # the loss weights every state, the padded step's included
            states, _ = run_block_batch(block, x, aspect, _LENGTHS)
            return weighted_sum(states, seed=0)

        if relu_kink_margin(f()) > KINK_RADIUS:
            stacks = [t for cell in block for t in cell.tensors("").values()]
            return f, [*stacks, x, *([asp] if aspect is not None else [])]
    pytest.fail(f"could not sample a {kind} block away from relu kinks")


def _pool_case(rng, mode):
    """Pooling of padded (T, d, B) states, columns out of length order, away from max ties."""
    lengths = np.array([2, 3, 1])
    for _ in range(100):
        states = _pt(rng, 3, 2, 3)

        def f():
            return weighted_sum(pool_columns(states, lengths, mode), seed=0)

        if relu_kink_margin(f()) > KINK_RADIUS:
            return f, [states]
    pytest.fail(f"could not sample {mode} pooling away from ties")


def _op_cases(rng):
    a = _pt(rng, 3, 4)
    b = _pt(rng, 3, 4)
    w = _pt(rng, 2, 3)
    bias = _pt(rng, 2, 1)
    z = _pt(rng, 3, 4, scale=2.0)  # (B, C) logits
    rz = _pt(rng, 3, 5, scale=2.0)
    labels = np.eye(4, dtype=CHECK_DTYPE)[[2, 0, 3]]
    cats = np.eye(5, dtype=CHECK_DTYPE)[[1, 4, 0]]
    terms = (rng.random((3, 5)) < 0.5).astype(CHECK_DTYPE)

    def drop_case():
        r = np.random.default_rng(1234)
        return weighted_sum(dropout(a, 0.4, True, r), seed=0)

    return [
        ("concat", lambda: weighted_sum(concat(a, b), concat(b, a), seed=0), [a, b]),
        ("affine", lambda: weighted_sum(affine(w, a, None), seed=0), [w, a]),
        ("affine[bias]", lambda: weighted_sum(affine(w, a, bias), seed=0), [w, a, bias]),
        ("joint_loss[category]", lambda: joint_loss(z, labels, rz, cats, 0.4, "softmax")[0],
         [z, rz]),
        ("joint_loss[term]", lambda: joint_loss(z, labels, rz, terms, 0.4, "sigmoid")[0],
         [z, rz]),
        ("joint_loss[no recon]", lambda: joint_loss(z, labels, None, None, 0.4, "softmax")[0],
         [z]),
        ("dropout", drop_case, [a]),
        *((f"block[{kind}]", *_block_case(rng, kind)) for kind in ("aspect", "dt", "gru")),
        *((f"pool[{mode}]", *_pool_case(rng, mode)) for mode in POOLING_MODES),
    ]


def _e2e_case(rng, task):
    cfg = ModelConfig(
        hidden_size=2,
        embed_size=2,
        depth=2,
        num_labels=3,
        num_recon_targets=2 if task == "category" else 3,
        task=task,
        lam=0.5,
        dropout_input=0.0,
        dropout_hidden=0.0,
    )
    for _ in range(200):
        emb = (rng.random((6, 2)) - 0.5).astype(CHECK_DTYPE)
        emb[0] = 0.0
        model = SentimentModel(cfg, emb, rng)
        ids = rng.integers(1, 6, size=(1, 2))
        mask = np.ones((1, 2), dtype=np.int64)
        aspects = (rng.random((1, 2)) - 0.5).astype(CHECK_DTYPE)
        labels = np.array([1])
        targets = np.array([[False, True]] if task == "category" else [[True, False, True]])

        def f():
            out = model.forward(ids, mask, aspects)
            return batch_joint_loss(out, labels, targets, cfg)[0]

        if relu_kink_margin(f()) > KINK_RADIUS:
            return f, list(model.parameters().values())
    pytest.fail("could not sample a model away from relu kinks")


def test_criterion_01_gradient_fidelity():
    worst_name, worst = "every case within resolution", 0.0
    raw: dict[str, float] = {}  # each case's largest |analytic - numeric|
    floor = 0.0

    def check(name, point, f, tensors):
        nonlocal worst_name, worst, floor
        err, diff, res = grad_errors(f, tensors, FD_EPS_CHECK)
        if err > worst:
            worst_name, worst = f"{name}@{point}", err
        raw[name] = max(raw.get(name, 0.0), diff)
        floor = max(floor, res)

    for point in range(N_POINTS):
        rng = np.random.default_rng(1000 + point)
        for name, f, tensors in _op_cases(rng):
            check(name, point, f, tensors)
    for task in ("category", "term"):
        for point in range(N_POINTS):
            check(f"e2e-{task}", point, *_e2e_case(np.random.default_rng(2000 + point), task))
    diffs = ", ".join(f"{name} {d:.1e}" for name, d in raw.items())
    conclude(
        1,
        "gradient fidelity",
        worst <= TOL_CHECK,
        f"max rel err {worst:.3g} ({worst_name}) over {N_POINTS} points, tol {TOL_CHECK}; "
        f"largest |analytic - numeric| against the floor {floor:.1e}: {diffs}",
    )


def _model_tape_ops(task, encoder, pooling, bidirectional, use_bias) -> set[str]:
    """Op tags on the tape of one training-mode joint loss over a padded batch."""
    rng = np.random.default_rng(7)
    cfg = ModelConfig(
        hidden_size=3, embed_size=2, depth=2, num_labels=3, num_recon_targets=3,
        task=task, encoder=encoder, pooling=pooling, bidirectional=bidirectional,
        use_bias=use_bias, dropout_input=0.5, dropout_hidden=0.3,
    )
    emb = rng.random((6, 2)) - 0.5
    emb[0] = 0.0
    model = SentimentModel(cfg, emb, rng)
    mask = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
    ids = rng.integers(1, 6, size=mask.shape) * mask
    out = model.forward(ids, mask, rng.random((3, 2)) - 0.5, training=True, rng=rng)
    targets = np.eye(3, dtype=bool)[[0, 2, 1]]
    if task == "term":
        targets[0, 1] = True
    loss = batch_joint_loss(out, np.array([0, 1, 2]), targets, cfg)[0]
    return {node.op for node in iter_nodes(loss)}


def test_op_set_is_what_the_model_runs():
    """Every op the model puts on a tape is grad-checked, and every op defined is used.

    The ops are those tensor.py and cells.py define. ``leaf`` is no op.
    """
    checked = {name.split("[")[0] for name, _, _ in _op_cases(np.random.default_rng(0))}
    on_tape: set[str] = set()
    for combo in itertools.product(
        ("category", "term"), ENCODERS, POOLING_MODES, (False, True), (False, True)
    ):
        ops = _model_tape_ops(*combo) - {"leaf"}
        assert ops <= checked, f"{combo}: ops not grad-checked by criterion 1: {ops - checked}"
        on_tape |= ops
    source = inspect.getsource(tensor_mod) + inspect.getsource(cells_mod)
    defined = set(re.findall(r'_node\([^"\n]*"(\w+)"', source))
    assert defined >= checked
    assert defined == on_tape, f"unused: {defined - on_tape}, undeclared: {on_tape - defined}"


# -- criterion 2: zero fixed points ------------------------------------------------------


def test_criterion_02_zero_fixed_points():
    rng = np.random.default_rng(0)
    problems = []
    p = CellParams.init("aspect", 4, rng, d_x=3, d_a=3)
    for t in p.tensors("").values():
        t.data[...] = 0.0
    x, asp = rng.random((3, 1)), rng.random((3, 1))
    h, g, _ = aspect_gru_step(p, p.stacks["x"].data @ x, np.zeros((4, 1)), p.stacks["a"].data @ asp)
    if not (np.all(h == 0) and np.all(g == 0)):
        problems.append("a-gru non-zero")
    tp = CellParams.init("transition", 4, rng)
    for t in tp.tensors("").values():
        t.data[...] = 0.0
    if not np.all(transition_gru_step(tp, None, np.zeros((4, 1)))[0] == 0):
        problems.append("t-gru non-zero")
    block = init_block("aspect", 4, 3, 3, 3, rng)
    for cell in block:
        for t in cell.tensors("").values():
            t.data[...] = 0.0
    states, _ = run_block_batch(
        block, Tensor(rng.random((3, 3, 2))), Tensor(rng.random((3, 2))),
        np.array([3, 3]),
    )
    if not np.all(states.data == 0):
        problems.append("block non-zero")
    cfg = ModelConfig(
        hidden_size=4, embed_size=3, depth=2, num_labels=4, num_recon_targets=2,
        dropout_input=0.0, dropout_hidden=0.0,
    )
    emb = rng.random((5, 3))
    emb[0] = 0.0
    model = SentimentModel(cfg, emb, rng)
    for t in model.parameters().values():
        t.data[...] = 0.0
    out = model.forward_one([1, 2, 3], rng.random(3))
    z = out.sent_logits.data
    if not np.all(z == 0):
        problems.append("model logits non-zero")
    probs = np.exp(z[0]) / np.exp(z[0]).sum()
    if not np.all(probs == 1.0 / cfg.num_labels):
        problems.append("softmax not uniform")
    conclude(2, "zero fixed points", not problems, "; ".join(problems) or "all exactly zero")


# -- criterion 3: aspect independence ----------------------------------------------------


def test_criterion_03_aspect_independence():
    rng = np.random.default_rng(7)
    problems = []
    cfg = ModelConfig(
        hidden_size=5, embed_size=3, depth=2, num_labels=3, num_recon_targets=2,
        encoder="gru", aspect_concat=False, reconstruct=False,
        dropout_input=0.0, dropout_hidden=0.0,
    )
    emb = rng.random((8, 3))
    emb[0] = 0.0
    model = SentimentModel(cfg, emb, rng)
    ids = rng.integers(1, 8, size=(2, 4))
    mask = np.ones((2, 4), dtype=np.int64)
    a1, a2 = rng.random((2, 3)), rng.random((2, 3)) * -3.0
    z1 = model.forward(ids, mask, a1).sent_logits.data
    z2 = model.forward(ids, mask, a2).sent_logits.data
    if not np.array_equal(z1, z2):
        problems.append("ablated model depends on the aspect")
    block = init_block("aspect", 5, 3, 3, 2, rng)
    block[0].stacks["a"].data[...] = 0.0
    gate_arrays(block[0])["w_hg"][...] = 0.0
    steps = Tensor(rng.random((4, 3, 2)))
    lengths = np.array([4, 4])
    s1, _ = run_block_batch(block, steps, Tensor(rng.random((3, 2))), lengths)
    s2, _ = run_block_batch(block, steps, Tensor(rng.random((3, 2)) * 5), lengths)
    if not np.array_equal(s1.data, s2.data):
        problems.append("zeroed-gate encoder states depend on the aspect")
    conclude(3, "aspect independence", not problems, "; ".join(problems) or "bit-identical")


# -- criterion 4: padding invariance ------------------------------------------------------


def test_criterion_04_padding_invariance():
    rng = np.random.default_rng(21)
    problems = []
    variants = [
        (enc, pool, False) for enc in ("aspect-dt", "plain-dt", "gru") for pool in ("last", "max", "mean")
    ] + [("aspect-dt", "last", True)]
    for encoder, pooling, bidi in variants:
        cfg = ModelConfig(
            hidden_size=4, embed_size=3, depth=2, num_labels=3, num_recon_targets=2,
            encoder=encoder, pooling=pooling, bidirectional=bidi,
            dropout_input=0.0, dropout_hidden=0.0,
        )
        emb = rng.random((9, 3))
        emb[0] = 0.0
        model = SentimentModel(cfg, emb, rng)
        ids = rng.integers(1, 9, size=(3, 4))
        mask = np.zeros((3, 4), dtype=np.int64)
        for i, L in enumerate((4, 3, 2)):
            mask[i, :L] = 1
            ids[i, L:] = 0
        aspects = rng.random((3, 3))
        base = model.forward(ids, mask, aspects).sent_logits.data
        ids_pad = np.concatenate([ids, np.zeros((3, 3), dtype=np.int64)], axis=1)
        mask_pad = np.concatenate([mask, np.zeros((3, 3), dtype=np.int64)], axis=1)
        padded = model.forward(ids_pad, mask_pad, aspects).sent_logits.data
        if not np.array_equal(base, padded):
            problems.append(f"{encoder}/{pooling}{'/bidi' if bidi else ''}")
    conclude(
        4,
        "padding invariance",
        not problems,
        ("differs for: " + ", ".join(problems)) if problems else "bit-identical for all modes",
    )


# -- criterion 5: dataset reproduction -----------------------------------------------------


_EXPECTED_COUNTS = {
    # dataset key -> split -> view -> expected instance count
    "restaurant-category": {"train": {"ds": 3713, "hds": 365}, "test": {"ds": 1025, "hds": 89}},
    "restaurant-term": {
        "train": {"ds": 3693, "hds": 1038, "nc": 3602},
        "test": {"ds": 1134, "hds": 245, "nc": 1120},
    },
    "laptop-term": {
        "train": {"ds": 2358, "hds": 496, "nc": 2313},
        "test": {"ds": 654, "hds": 108, "nc": 638},
    },
}


def test_criterion_05_dataset_reproduction():
    missing = _missing("restaurant_train", "restaurant_test", "laptop_train", "laptop_test")
    if missing:
        skip(
            5,
            "dataset reproduction",
            f"raw SemEval XML not found under {_data_dir()}/ (missing: {', '.join(missing)})",
        )
    texts = {
        "restaurant": (_find_raw("restaurant_train").read_text(), _find_raw("restaurant_test").read_text()),
        "laptop": (_find_raw("laptop_train").read_text(), _find_raw("laptop_test").read_text()),
    }
    results = {}
    for rule in HDS_RULES:
        got = {}
        for key, task in (
            ("restaurant-category", "category"),
            ("restaurant-term", "term"),
            ("laptop-term", "term"),
        ):
            src = texts["laptop" if key.startswith("laptop") else "restaurant"]
            counts = {}
            for split, text in zip(("train", "test"), src):
                sents = parse_semeval_xml(text, task)
                view = {"ds": len(expand(sents)), "hds": len(extract_hds(sents, rule))}
                if key != "restaurant-category":
                    view["nc"] = len(expand(strip_conflict_sentences(sents)))
                counts[split] = view
            got[key] = counts
        results[rule] = got
    matching = [
        rule
        for rule, got in results.items()
        if all(
            got[k][split][v] == n
            for k, table in _EXPECTED_COUNTS.items()
            for split, views in table.items()
            for v, n in views.items()
        )
    ]
    detail = f"rule(s) matching every published count: {matching or 'none'}"
    if not matching:
        diffs = []
        for k, table in _EXPECTED_COUNTS.items():
            for split, views in table.items():
                for v, n in views.items():
                    seen = {rule: results[rule][k][split][v] for rule in HDS_RULES}
                    if all(s != n for s in seen.values()):
                        diffs.append(f"{k} {split}.{v}: want {n}, got {seen}")
        detail += "; " + "; ".join(diffs[:6])
    conclude(5, "dataset reproduction", bool(matching), detail)


# -- criterion 6: desk-scale end-to-end ------------------------------------------------------


def test_criterion_06_desk_scale(restaurant_xml):
    missing = _missing("restaurant_train", "restaurant_test", "glove")
    if missing:
        skip(
            6,
            "desk-scale end-to-end",
            f"needs SemEval restaurant XML and GloVe 300d under {_data_dir()}/ "
            f"(missing: {', '.join(missing)})",
        )
    report = _desk_experiment("aspect-dt", restaurant_xml)
    ds, hds = report.mean("acc_ds"), report.mean("acc_hds")
    conclude(
        6,
        "desk-scale end-to-end",
        ds >= 0.785 and hds >= 0.55,
        f"DS {ds:.4f} (>=0.785), HDS {hds:.4f} (>=0.55), 5 seeds x 20 epochs",
    )


# -- criterion 7: overfit sanity --------------------------------------------------------------


def _overfit_corpus():
    out = []
    rng = np.random.default_rng(3)
    for i in range(50):
        label = "positive" if i < 25 else "negative"
        cue = (POS_WORDS if label == "positive" else NEG_WORDS)[rng.integers(4)]
        aspect = ASPECTS[i % 2]
        tokens = ("the", aspect, "was", cue, f"u{i}")
        out.append(Instance(f"o{i}", tokens, "category", aspect, (aspect,), label))
    return out


def test_criterion_07_overfit_sanity():
    inst = _overfit_corpus()
    spaces = TaskSpaces.build("category", inst)
    tokens = sorted({t for i in inst for t in i.tokens})
    vocab = assemble_vocab(tokens, [], {}, dim=6, seed=1)
    failures = []
    for ac, ag, ar in itertools.product((True, False), repeat=3):
        cfg = ModelConfig(
            hidden_size=10,
            embed_size=6,
            depth=2,
            num_labels=spaces.num_labels,
            num_recon_targets=spaces.num_recon_targets,
            lam=0.4,
            encoder="aspect-dt" if ag else "gru",
            aspect_concat=ac,
            reconstruct=ar,
            dropout_input=0.0,
            dropout_hidden=0.0,
        )
        model = SentimentModel(cfg, vocab.embedding, np.random.default_rng(11))
        tc = TrainConfig(epochs=200, lr=0.05)
        train(model, inst, vocab, spaces, tc, np.random.default_rng(12))
        acc = evaluate(model, inst, vocab, spaces)["accuracy"]
        if acc < 0.99:
            failures.append(f"ac={ac},ag={ag},ar={ar}: {acc:.3f}")
    conclude(
        7,
        "overfit sanity",
        not failures,
        "all 8 ablation configs reach >=99% on 50 instances within 200 epochs"
        if not failures
        else "under 99%: " + "; ".join(failures),
    )


# -- criterion 8: reconstruction metric --------------------------------------------------------


def test_criterion_08_reconstruction_metric(restaurant_xml):
    # exact-match rule, verified against an independent per-instance scoring
    rng = np.random.default_rng(42)
    known = [
        Instance(
            f"k{i}",
            ("the", ASPECTS[i % 2], "was", POS_WORDS[i % 4]),
            "term",
            ASPECTS[i % 2],
            (ASPECTS[i % 2],),
            "positive",
        )
        for i in range(12)
    ]
    multi = [
        Instance(
            f"m{i}",
            ("great", "food", "and", "service", "here"),
            "term",
            "food service",
            ("food", "service"),
            "neutral",
        )
        for i in range(4)
    ]
    oov = [
        Instance(
            f"v{i}", ("the", "food", "was", "fresh"), "term", "sushi", ("sushi",), "positive"
        )
        for i in range(4)
    ]
    sample = known + multi + oov
    assert len(sample) == 20
    spaces = TaskSpaces.build("term", known + multi)
    tokens = sorted({t for i in sample for t in i.tokens} | {"sushi"})
    vocab = assemble_vocab(tokens, [], {}, dim=6, seed=2)
    cfg = ModelConfig(
        hidden_size=6, embed_size=6, depth=2, num_labels=4, task="term",
        num_recon_targets=spaces.num_recon_targets, lam=0.2,
        dropout_input=0.0, dropout_hidden=0.0,
    )
    model = SentimentModel(cfg, vocab.embedding, rng)
    hand = 0
    for inst in sample:
        res = model.forward_one(vocab.ids(inst.tokens), embed_aspect(inst.aspect_tokens, vocab))
        z = res.recon_logits.data[0]
        decoded = {i for i in range(len(z)) if 1.0 / (1.0 + np.exp(-z[i])) >= 0.5}
        gold = [spaces.term_words.get(t) for t in inst.aspect_tokens]
        if None not in gold and set(gold) <= decoded:
            hand += 1
    metric = evaluate(model, sample, vocab, spaces)["reconstruction"]
    rule_ok = metric == hand / 20
    detail = f"term rule agrees with hand scoring on 20/20 ({hand} correct)"
    if not rule_ok:
        detail = f"metric {metric} != hand-scored {hand / 20}"
    if _missing("restaurant_train", "restaurant_test", "glove"):
        conclude(
            8,
            "reconstruction metric",
            rule_ok,
            detail + "; desk-scale category half skipped (no SemEval/GloVe data)",
        )
    else:
        report = _desk_experiment("aspect-dt", restaurant_xml)
        recon = report.mean("recon_ds")
        conclude(
            8,
            "reconstruction metric",
            rule_ok and recon >= 0.95,
            detail + f"; desk-scale category reconstruction {recon:.4f} (>=0.95)",
        )


# -- criterion 9: ablation ordering ------------------------------------------------------------


def test_criterion_09_ablation_ordering(restaurant_xml):
    missing = _missing("restaurant_train", "restaurant_test", "glove")
    if missing:
        skip(
            9,
            "ablation ordering",
            f"needs SemEval restaurant XML and GloVe 300d under {_data_dir()}/ "
            f"(missing: {', '.join(missing)})",
        )
    full = _desk_experiment("aspect-dt", restaurant_xml)
    plain = _desk_experiment("plain-dt", restaurant_xml)
    a, b = full.mean("acc_hds"), plain.mean("acc_hds")
    conclude(
        9,
        "ablation ordering",
        a >= b,
        f"full HDS mean {a:.4f} vs aspect-blind deep transition {b:.4f} (margin {a - b:+.4f})",
    )


# -- criterion 10: determinism -----------------------------------------------------------------


_XML = """
<sentences>
  <sentence id="d1">
    <text>The food was great but the service was awful.</text>
    <aspectCategories>
      <aspectCategory category="food" polarity="positive"/>
      <aspectCategory category="service" polarity="negative"/>
    </aspectCategories>
  </sentence>
  <sentence id="d2">
    <text>The service was lovely but the food was stale.</text>
    <aspectCategories>
      <aspectCategory category="service" polarity="positive"/>
      <aspectCategory category="food" polarity="negative"/>
    </aspectCategories>
  </sentence>
  <sentence id="d3">
    <text>The food was tasty but the service was rude.</text>
    <aspectCategories>
      <aspectCategory category="food" polarity="positive"/>
      <aspectCategory category="service" polarity="negative"/>
    </aspectCategories>
  </sentence>
</sentences>
"""


def test_criterion_10_determinism(tmp_path):
    raw = tmp_path / "train.xml"
    raw.write_text(_XML)
    emb = write_embedding_file(tmp_path / "vectors.txt")
    data = tmp_path / "prepared"
    assert (
        cli_main(["prepare", "--train", str(raw), "--test", str(raw), "--out", str(data)]) == 0
    )
    outs = []
    for run_dir in ("run1", "run2"):
        out = tmp_path / run_dir
        code = cli_main(
            [
                "train",
                "--data-dir", str(data),
                "--embeddings", str(emb),
                "--out", str(out),
                "--seeds", "3",
                "--epochs", "2",
                "--hidden", "5",
                "--embed-dim", "6",
                "--depth", "2",
            ]
        )
        assert code == 0
        outs.append(out)
    same_metrics = (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()
    same_ckpt = (outs[0] / "model-seed3.ckpt").read_bytes() == (outs[1] / "model-seed3.ckpt").read_bytes()
    detail = []
    if not same_metrics:
        detail.append("metrics.json differs")
    if not same_ckpt:
        detail.append("checkpoint differs")
    conclude(
        10,
        "determinism",
        same_metrics and same_ckpt,
        "; ".join(detail) or "checkpoint and metrics bit-identical across reruns",
    )
