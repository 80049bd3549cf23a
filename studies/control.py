"""Criterion 5's shuffled-label control over several shuffle seeds.

The acceptance suite's criterion 5 trains vfnet on the default benchmark,
then trains it again, for at most 3 epochs, on the same training pairs with
their labels permuted by one shuffle seed (606), and requires the control's
held-out EER to lie in 0.45-0.55. Model selection reads the true-label
validation EER, so the control keeps the epoch that leaks least chance
structure, and one shuffle draw can land outside the band for any trainer.
This study repeats the acceptance fixture's steps (``trained_model`` in
``tests/test_acceptance.py``) and reports the held-out EER, the control's
held-out EER for each shuffle seed, and how many of them fall below 0.45 or
above 0.55.

It gates nothing. Run from the repository root (about 15 s on one core):

    PYTHONPATH=src python studies/control.py --out studies/control.json
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from avsrkit.metrics import _eer_arrays
from avsrkit.pipeline import split_identities
from avsrkit.store import TrialSet, build_crossmodal_trials
from avsrkit.synth import GenConfig, generate
from avsrkit.training import TrainConfig, _gather_pairs, _pair_scores, train

SHUFFLE_SEEDS = range(600, 612)  # the acceptance suite's control uses 606
BAND = (0.45, 0.55)  # criterion 5's bound on the control EER


def held_out_eer(params, test):
    rows, voice_at, face_at, same, _ = test
    scores = _pair_scores(params, rows, voice_at, face_at)
    return _eer_arrays(scores[same], scores[~same])


def run_study(gen: GenConfig, shuffle_seeds, config: TrainConfig = TrainConfig()):
    """The fixture's model and held-out EER, then one control per shuffle seed."""
    train_store, test_store, _ = generate(gen)
    fit_store, valid_store = split_identities(train_store, 0.1, gen.rng_seed)
    train_trials = build_crossmodal_trials(fit_store, 1, gen.rng_seed)
    valid_trials = build_crossmodal_trials(valid_store, 1, gen.rng_seed + 1)
    report = train(train_store, train_trials, valid_trials, config)
    test = _gather_pairs(test_store, build_crossmodal_trials(test_store, 1, gen.rng_seed + 2))

    control_config = replace(config, max_epochs=3, patience=3)
    controls = {}
    for seed in shuffle_seeds:
        perm = np.random.default_rng(seed).permutation(len(train_trials))
        shuffled = TrialSet.from_columns(train_trials.enroll_ids, train_trials.test_ids,
                                         [train_trials.labels[i] for i in perm])
        control = train(train_store, shuffled, valid_trials, control_config)
        controls[str(seed)] = held_out_eer(control.final_params, test)
    values = list(controls.values())
    return {
        "generator": "GenConfig()" if gen == GenConfig() else repr(gen),
        "epochs": len(report.train_loss),
        "held_out_eer": held_out_eer(report.final_params, test),
        "control_eer": controls,
        "control_range": [min(values), max(values)],
        "below_band": sum(v < BAND[0] for v in values),
        "above_band": sum(v > BAND[1] for v in values),
        "band": list(BAND),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--out", default="studies/control.json")
    args = p.parse_args(argv)
    text = json.dumps(run_study(GenConfig(), SHUFFLE_SEEDS), indent=1)
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)


if __name__ == "__main__":
    main()
