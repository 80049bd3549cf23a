"""Headline study: the spread of vfnet's relative EER reduction over the
audio-visual fusion, across training seeds and eval draws.

The paper's one number is the relative eval EER reduction of
audio-visual+vfnet over audio-visual (16.54 % on SRE19 eval). On the
synthetic benchmark one eval draw has 300 target trials, so EER moves in
steps of 1/300 and one run's reduction says little. This study:

- fits LDA/PLDA once on the default train split, and scores and fuses on the
  default dev split, as ``run_pipeline`` does;
- trains vfnet at each training seed under each early-stopping patience
  given (``main`` gives the default one), with the seed's own validation
  split and trial lists, as ``run_pipeline`` does;
- scores fresh eval draws (``synth._make_split``, 4+4 sessions, streams the
  benchmark does not use) of 300 and of 3000 identities, plus the default
  eval split;
- reports the headline per patience (mean, sd, range, and the sd of the seed
  means and of the draw means), the paired difference when two patiences are
  given, the epochs each patience trains, how often audio-visual beats audio
  alone, each system's mean EER, minDCF and actDCF (the EER reduction cannot
  see calibration), and its EER next to the EER of the Bayes-optimal scorer
  of its inputs (``perfbench/references.BayesIdentityScorer``).

It gates nothing. Run from the repository root (about 40 s on one core):

    PYTHONPATH=src python studies/headline.py --out studies/headline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import references as ref  # noqa: E402
from avsrkit import backend, fusion, metrics, pipeline, store, synth, training  # noqa: E402

HEADLINE = ("audio-visual", "audio-visual+vfnet")
SYSTEMS = dict(pipeline.REPORT_SYSTEMS)
NONTARGETS_PER_TARGET = 20  # identity-level trials, as the acceptance suite builds them
DEV_EVAL_SESSIONS = 4
SMALL_STREAM, LARGE_STREAM = 100, 200  # first generator stream of each draw size
DEFAULT_EVAL_STREAM = 4  # synth.generate_av_benchmark's eval split
# modalities each system's score reads on the enrollment and on the test side
READS = {"audio": ({"voice"}, {"voice"}), "visual": ({"face"}, {"face"}),
         "vfnet": ({"voice"}, {"face"})}


def summary(values):
    values = np.asarray(values, dtype=np.float64)
    return {"mean": float(values.mean()), "sd": float(values.std(ddof=1)) if values.size > 1
            else 0.0, "min": float(values.min()), "max": float(values.max())}


def spread(table):
    """Summary of a (seeds, draws) table, with the sd of its seed means and
    of its draw means."""
    table = np.asarray(table, dtype=np.float64)
    out = summary(table)
    for name, axis in (("sd_of_seed_means", 1), ("sd_of_draw_means", 0)):
        means = table.mean(axis=axis)
        out[name] = float(means.std(ddof=1)) if means.size > 1 else 0.0
    return out


def bayes_eers(scorer, enroll, test, trials):
    """Eval EER of the Bayes-optimal scorer of each report system's inputs."""
    stats = []
    for side in (enroll, test):
        rows = {m: side.identity_rows(m) for m in ("voice", "face")}
        stats.append({m: {i: scorer.stats({m: side.vectors[r]}) for i, r in by_id.items()}
                      for m, by_id in rows.items()})
    is_target = np.asarray(trials.labels) == "target"
    out = {}
    for name, systems in SYSTEMS.items():
        seen = [set().union(*(READS[s][k] for s in systems)) for k in (0, 1)]
        sides = []
        for k, ids in enumerate((trials.enroll_ids, trials.test_ids)):
            h = sum(np.array([stats[k][m][i][0] for i in ids]) for m in seen[k])
            n = sum(np.array([stats[k][m][i][1] for i in ids]) for m in seen[k])
            sides += [h, n]
        llr = scorer.llr(*sides)
        out[name] = ref.detection_metrics(llr[is_target], llr[~is_target])["eer"]
    return out


class Draw:
    """One dev or eval split: its trials, audio and visual scores and Bayes EERs."""

    def __init__(self, split, trial_seed, lda, plda, rule, scorer):
        self.enroll, self.test = pipeline.split_enroll_test(split)
        self.trials = pipeline.build_identity_trials(split, NONTARGETS_PER_TARGET, trial_seed)
        self.scores = pipeline.score_trials(self.trials, self.enroll, self.test, lda, plda,
                                            None, rule, systems=("audio", "visual"))
        self.bayes = bayes_eers(scorer, self.enroll, self.test, self.trials)


def fused_metrics(models, scores, dcf):
    """Each report system's eval MetricReport."""
    return {name: metrics.compute_metrics(
        fusion.apply_fusion(models[name], [scores[s] for s in systems]), dcf)
        for name, systems in SYSTEMS.items()}


def reduction(reports):
    """Relative EER reduction of audio-visual+vfnet over audio-visual, in %."""
    av, avv = (reports[name].eer for name in HEADLINE)
    return 100.0 * (av - avv) / av


def run_study(gen: synth.GenConfig, seeds, patiences, small_draws: int, large_draws: int,
              large_identities: int, train_config: training.TrainConfig | None = None,
              log=print):
    seeds = list(seeds)
    config = pipeline.PipelineConfig()
    train_config = train_config or config.train
    dcf, rule = config.dcf, backend.PoolingRule(config.pool_fraction)
    train_store, dev_store, _ = synth.generate_av_benchmark(gen, DEV_EVAL_SESSIONS)
    a_voice, a_face = synth.mixing_maps(gen)
    de_gen = replace(gen, voice_sessions_per_identity=DEV_EVAL_SESSIONS,
                     face_sessions_per_identity=DEV_EVAL_SESSIONS)
    scorer = ref.BayesIdentityScorer(a_voice, a_face, gen.session_noise_sigma)

    voices = train_store.restrict("voice")
    lda = backend.fit_lda(voices, config.lda_dim, config.length_norm)
    plda = backend.fit_plda(backend.project_store(lda, voices))
    dev = Draw(dev_store, gen.rng_seed + 1, lda, plda, rule, scorer)

    def draw(stream, n_identities, trial_seed):
        split = synth._make_split(de_gen, a_voice, a_face, "evl", n_identities, stream)
        return Draw(split, trial_seed, lda, plda, rule, scorer)

    t0 = time.perf_counter()
    draws = {"small": [draw(SMALL_STREAM + i, gen.n_identities_test, SMALL_STREAM + i)
                       for i in range(small_draws)],
             "large": [draw(LARGE_STREAM + i, large_identities, LARGE_STREAM + i)
                       for i in range(large_draws)],
             # the pipeline's own eval split and trials, for comparison with report.tsv
             "default": [draw(DEFAULT_EVAL_STREAM, gen.n_identities_test, gen.rng_seed + 2)]}
    log(f"drew and scored {sum(map(len, draws.values()))} eval splits "
        f"({time.perf_counter() - t0:.1f} s)")

    # audio, visual and audio-visual fusions do not depend on vfnet
    fixed = {name: fusion.fit_fusion([dev.scores[s] for s in systems], dcf)
             for name, systems in SYSTEMS.items() if "vfnet" not in systems}

    runs = {}  # patience -> seed -> {"report": TrainReport, size: [metrics per draw]}
    for patience in patiences:
        for seed in seeds:
            t0 = time.perf_counter()
            fit_store, valid_store = pipeline.split_identities(train_store, 0.1, seed)
            npp = config.negatives_per_positive
            report = training.train(
                train_store, store.build_crossmodal_trials(fit_store, npp, seed),
                store.build_crossmodal_trials(valid_store, npp, seed + 1),
                replace(train_config, rng_seed=seed, patience=patience))
            params = report.final_params
            train_s = time.perf_counter() - t0

            def scored(d):
                vf = pipeline.score_trials(d.trials, d.enroll, d.test, lda, plda, params, rule,
                                           systems=("vfnet",))
                return {**d.scores, **vf}

            dev_scores = scored(dev)
            models = {**fixed, **{name: fusion.fit_fusion([dev_scores[s] for s in systems], dcf)
                                  for name, systems in SYSTEMS.items() if "vfnet" in systems}}
            run = {"report": report, "train_s": train_s}
            for size, group in draws.items():
                run[size] = [fused_metrics(models, scored(d), dcf) for d in group]
            runs.setdefault(patience, {})[seed] = run
            log(f"patience {patience} seed {seed}: {len(report.train_loss)} epochs "
                f"(best {report.best_epoch}), train {train_s:.1f} s, headline "
                f"{np.mean([reduction(e) for e in run['small']]):.2f} % over "
                f"{len(run['small'])} draws")
    return summarize(gen, seeds, patiences, draws, runs, large_identities)


def summarize(gen, seeds, patiences, draws, runs, large_identities):
    def table(patience, size, fn):
        return [[fn(e) for e in runs[patience][seed][size]] for seed in seeds]

    sizes = {"small": gen.n_identities_test, "large": large_identities}
    result = {
        "generator": asdict(gen),
        "seeds": list(seeds),
        # one target trial per identity, NONTARGETS_PER_TARGET nontargets
        "draws": {size: {"identities": n, "count": len(draws[size])}
                  for size, n in sizes.items()},
        "patience": {},
    }
    for patience in patiences:
        per = runs[patience]
        entry = {
            "epochs": [len(per[s]["report"].train_loss) for s in seeds],
            "best_epoch": [per[s]["report"].best_epoch for s in seeds],
            "best_validation_eer": [min(per[s]["report"].validation_eer) for s in seeds],
            "train_s": [round(per[s]["train_s"], 2) for s in seeds],
            "default_eval_seed_%d" % seeds[0]: {
                name: per[seeds[0]]["default"][0][name].eer for name in HEADLINE},
        }
        entry["epochs_total"] = sum(entry["epochs"])
        for size in sizes:
            entry[f"headline_{size}"] = spread(table(patience, size, reduction))
            for metric in ("eer", "min_dcf", "act_dcf"):
                entry[f"{metric}_{size}"] = {
                    name: float(np.mean(table(patience, size,
                                              lambda e: getattr(e[name], metric))))
                    for name in SYSTEMS}
        result["patience"][str(patience)] = entry
    if len(patiences) == 2:
        short, long = sorted(patiences)
        # the batch stream does not depend on patience: the shorter run is a prefix
        result["shorter_run_is_prefix"] = all(
            runs[long][s]["report"].validation_eer[:len(runs[short][s]["report"].train_loss)]
            == runs[short][s]["report"].validation_eer for s in seeds)
        for size in sizes:
            diff = (np.array(table(short, size, reduction))
                    - np.array(table(long, size, reduction)))
            result[f"paired_difference_{size}"] = {
                "what": f"headline at patience {short} minus at patience {long}, %",
                **spread(diff)}
    first = runs[patiences[0]][seeds[0]]  # audio and audio-visual do not depend on vfnet
    for size in sizes:
        av_wins = [e["audio-visual"].eer < e["audio"].eer for e in first[size]]
        result[f"av_beats_audio_{size}"] = f"{sum(av_wins)} of {len(av_wins)}"
        result[f"bayes_eer_{size}"] = {name: float(np.mean([d.bayes[name] for d in draws[size]]))
                                       for name in SYSTEMS}
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--out", default="studies/headline.json")
    args = p.parse_args(argv)
    result = run_study(synth.GenConfig(), seeds=range(8),
                       patiences=[training.TrainConfig().patience], small_draws=10,
                       large_draws=3, large_identities=3000)
    text = json.dumps(result, indent=1)
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)


if __name__ == "__main__":
    main()
