#!/usr/bin/env python3
"""Minute-scale pipeline check on generated data; no downloads needed.

Builds a tiny synthetic category corpus where the correct label depends
on which aspect is queried, trains two seeds of the full model and an
aspect-blind baseline, and prints both reports. The full model should
approach 1.0 while the baseline stays near chance.
"""

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from aspectgate.corpus import TaskSpaces
from aspectgate.model import ModelConfig
from aspectgate.synth import synthetic_instances, write_embedding_file
from aspectgate.trainer import TrainConfig, run_experiment


def main() -> int:
    train_inst = synthetic_instances(40, seed=1)
    test_inst = synthetic_instances(10, seed=2)
    spaces = TaskSpaces.build("category", train_inst)
    full = ModelConfig(
        hidden_size=16,
        embed_size=12,
        depth=2,
        num_labels=spaces.num_labels,
        num_recon_targets=spaces.num_recon_targets,
        lam=0.4,
        dropout_input=0.0,
        dropout_hidden=0.0,
    )
    blind = replace(full, encoder="gru", aspect_concat=False, reconstruct=False)
    tc = TrainConfig(epochs=60, lr=0.02)
    with tempfile.TemporaryDirectory() as tmp:
        vectors = write_embedding_file(Path(tmp) / "vectors.txt", dim=12, seed=7)
        for name, cfg in (("aspect-gated", full), ("aspect-blind", blind)):
            report, _ = run_experiment(
                train_inst, {"test": test_inst}, vectors, cfg, tc, spaces, seeds=(1, 2)
            )
            mean, std = report.mean("acc_test"), report.std("acc_test")
            print(f"{name:13s} test accuracy {mean:.3f} +/- {std:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
