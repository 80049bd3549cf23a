"""Command-line interface.

Subcommands: synth, train-vfnet, fit-backend, score, fuse, eval, pipeline.
Exit codes: 0 success, 1 validation error (bad flags, malformed or missing
files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from . import backend, fusion, metrics, pipeline, store, synth, training, vfnet
from .checkpoint import CheckpointError
from .config import ConfigError, build, config_keys, parse_kv_file


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_dcf_flags(p):
    p.add_argument("--p-target", type=float, default=None, help="target prior")
    p.add_argument("--c-miss", type=float, default=None, help="miss cost")
    p.add_argument("--c-fa", type=float, default=None, help="false-alarm cost")


# synth flag -> the GenConfig keys it sets
_SYNTH_FLAGS = {"seed": ("rng_seed",), "sigma": ("session_noise_sigma",),
                "n_train": ("n_identities_train",), "n_test": ("n_identities_test",),
                "sessions": ("voice_sessions_per_identity", "face_sessions_per_identity")}


def _config(cls, args, flags=None):
    """cls built from the --config file of args, if any, then from its flags: flags
    maps a flag's dest to the keys it sets (default: each key of cls that args has)."""
    path = getattr(args, "config", None)
    base = build(cls, parse_kv_file(path), path) if path else None
    flags = flags or {key: (key,) for key in config_keys(cls) if hasattr(args, key)}
    entries = {key: (getattr(args, flag), None) for flag, keys in flags.items()
               if getattr(args, flag) is not None for key in keys}
    return build(cls, entries, "command line", base)


def build_parser():
    parser = _Parser(prog="avsrkit",
                     description="Audio-visual speaker recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic embedding benchmark")
    p.add_argument("--config", help="key = value generator config file")
    p.add_argument("--seed", type=int, default=None, help="generator seed")
    p.add_argument("--sigma", type=float, default=None, help="session noise sigma")
    p.add_argument("--n-train", type=int, default=None, help="training identities")
    p.add_argument("--n-test", type=int, default=None, help="dev/eval identities")
    p.add_argument("--sessions", type=int, default=None,
                   help="voice and face sessions per identity")
    p.add_argument("--negatives-per-positive", type=int, default=20,
                   help="nontarget trials per target in dev/eval trial lists")
    p.add_argument("--out-dir", required=True, help="output directory")

    p = sub.add_parser("train-vfnet", help="train the cross-modal network")
    p.add_argument("--embeddings", required=True, help="training embedding file")
    p.add_argument("--train-trials", required=True, help="labeled cross-modal trials")
    p.add_argument("--valid-trials", required=True, help="labeled validation trials")
    p.add_argument("--config", help="key = value training config file")
    p.add_argument("--lr", type=float, default=None, help="learning rate override")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-params", required=True, help="checkpoint output path")
    p.add_argument("--out-report", help="per-epoch TSV output path")

    p = sub.add_parser("fit-backend", help="fit LDA and PLDA on voice embeddings")
    p.add_argument("--embeddings", required=True, help="training embedding file")
    p.add_argument("--lda-dim", type=int, default=pipeline.PipelineConfig.lda_dim,
                   help="LDA output dimension")
    p.add_argument("--no-length-norm", action="store_true",
                   help="skip length normalization after LDA (saved in --out-lda)")
    p.add_argument("--out-lda", required=True)
    p.add_argument("--out-plda", required=True)

    p = sub.add_parser("score", help="score identity-level trials for one system")
    p.add_argument("--system", required=True, choices=["audio", "visual", "vfnet"])
    p.add_argument("--enroll", required=True, help="enrollment embedding file")
    p.add_argument("--test", required=True, help="test embedding file")
    p.add_argument("--trials", required=True, help="trial file")
    p.add_argument("--lda", help="LDA checkpoint (audio)")
    p.add_argument("--plda", help="PLDA checkpoint (audio)")
    p.add_argument("--params", help="network checkpoint (vfnet)")
    p.add_argument("--pool-fraction", type=float, default=pipeline.PipelineConfig.pool_fraction)
    p.add_argument("--out", required=True, help="score file output path")

    p = sub.add_parser("fuse", help="fit fusion on dev scores and apply to eval")
    p.add_argument("--dev-scores", required=True, nargs="+",
                   help="labeled development score files, one per system")
    p.add_argument("--eval-scores", required=True, nargs="+",
                   help="evaluation score files, aligned with --dev-scores")
    _add_dcf_flags(p)
    p.add_argument("--out-model", required=True, help="fusion model output path")
    p.add_argument("--out-scores", required=True, help="fused score file output path")

    p = sub.add_parser("eval", help="compute metrics for a labeled score file")
    p.add_argument("--scores", required=True, help="labeled score file")
    _add_dcf_flags(p)
    p.add_argument("--out", help="one-line TSV report output path")
    p.add_argument("--det-points", help="write the full (threshold, p_miss, p_fa) table")

    p = sub.add_parser("pipeline", help="run the full experiment")
    p.add_argument("--config", required=True, help="key = value pipeline config file")
    p.add_argument("--markdown", action="store_true", help="print the report as markdown")

    return parser


def _cmd_synth(args):
    config = _config(synth.GenConfig, args, _SYNTH_FLAGS)
    train, dev, eval_ = synth.generate_av_benchmark(config)
    # build the trial lists first: a request they cannot meet writes no file
    npp = args.negatives_per_positive
    dev_trials = pipeline.build_identity_trials(dev, npp, config.rng_seed + 1)
    eval_trials = pipeline.build_identity_trials(eval_, npp, config.rng_seed + 2)
    os.makedirs(args.out_dir, exist_ok=True)
    store.save_embeddings(train, os.path.join(args.out_dir, "train.embeddings"))
    store.save_embeddings(dev, os.path.join(args.out_dir, "dev.embeddings"))
    store.save_embeddings(eval_, os.path.join(args.out_dir, "eval.embeddings"))
    store.save_trials(dev_trials, os.path.join(args.out_dir, "dev.trials"))
    store.save_trials(eval_trials, os.path.join(args.out_dir, "eval.trials"))
    gt_path = os.path.join(args.out_dir, "ground_truth.config")
    with open(gt_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{f.name} = {getattr(config, f.name)}\n" for f in dataclasses.fields(config))
    print(f"wrote synthetic benchmark to {args.out_dir}")
    return 0


def _cmd_train_vfnet(args):
    config = _config(training.TrainConfig, args)
    emb = store.load_embeddings(args.embeddings)
    train_trials, valid_trials = map(store.load_trials, (args.train_trials, args.valid_trials))
    for path, trials in ((args.train_trials, train_trials), (args.valid_trials, valid_trials)):
        if not len(trials):
            raise store.FormatError(f"{path}: holds no trials")
    report = training.train(emb, train_trials, valid_trials, config)
    vfnet.save_params(report.final_params, args.out_params)
    if args.out_report:
        training.save_report(report, args.out_report)
    print(f"best epoch {report.best_epoch}: "
          f"validation EER {report.validation_eer[report.best_epoch]:.4f}")
    return 0


def _cmd_fit_backend(args):
    lda, plda = pipeline.fit_backend(store.load_embeddings(args.embeddings), args.lda_dim,
                                     not args.no_length_norm, args.out_lda, args.out_plda)
    print(f"LDA output dimension {lda.output_dim}; PLDA fit: {plda.describe_fit()}")
    return 0


def _cmd_score(args):
    enroll, test = map(store.load_embeddings, (args.enroll, args.test))
    trials = store.load_trials(args.trials)
    rule = backend.PoolingRule(args.pool_fraction)
    lda = plda = params = None
    if args.system == "audio":
        if not args.lda or not args.plda:
            raise UsageError("--system audio requires --lda and --plda")
        lda, plda = backend.load_lda(args.lda), backend.load_plda(args.plda)
    if args.system == "vfnet":
        if not args.params:
            raise UsageError("--system vfnet requires --params")
        params = vfnet.load_params(args.params)
    scored = pipeline.score_trials(trials, enroll, test, lda, plda, params, rule,
                                   systems=(args.system,))
    store.save_scores(scored[args.system], args.out)
    print(f"wrote {len(scored[args.system])} {args.system} scores to {args.out}")
    return 0


@contextlib.contextmanager
def _naming_files(paths):
    """Prefix a disagreement between two score files with their paths."""
    try:
        yield
    except fusion.MismatchError as exc:
        raise ValueError(f"{paths[exc.system - 1]} vs {paths[0]}: {exc}") from exc


def _cmd_fuse(args):
    if len(args.dev_scores) != len(args.eval_scores):
        raise UsageError("--dev-scores and --eval-scores must list the same systems")
    params = _config(metrics.DcfParams, args)
    # the fit takes its labels from the first system
    dev = [store.load_scores(p, require_labels=k == 0) for k, p in enumerate(args.dev_scores)]
    eval_ = [store.load_scores(p) for p in args.eval_scores]
    with _naming_files(args.dev_scores):
        model = fusion.fit_fusion(dev, params)
    with _naming_files(args.eval_scores):
        fused = fusion.apply_fusion(model, eval_)
    fusion.save_fusion(model, args.out_model)
    store.save_scores(fused, args.out_scores)
    weights = ", ".join(f"{w:.4f}" for w in model.weights)
    print(f"fusion weights [{weights}], bias {model.bias:.4f}")
    return 0


def _cmd_eval(args):
    params = _config(metrics.DcfParams, args)
    scores = store.load_scores(args.scores, require_labels=True)
    report = metrics.compute_metrics(scores, params)
    header = "eer\tauc\tmin_dcf\tact_dcf\tmin_dcf_threshold\tbayes_threshold"
    line = (f"{report.eer:.6f}\t{report.auc:.6f}\t{report.min_dcf:.6f}\t"
            f"{report.act_dcf:.6f}\t{report.min_dcf_threshold:.6f}\t"
            f"{params.bayes_threshold:.6f}")
    print(header)
    print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + line + "\n")
    if args.det_points:
        columns = (a.tolist() for a in (report.thresholds, report.p_miss, report.p_fa))
        with open(args.det_points, "w", encoding="utf-8") as fh:
            fh.write("threshold\tp_miss\tp_fa\n" + "".join(
                f"{t!r}\t{pm!r}\t{pf!r}\n" for t, pm, pf in zip(*columns)))
    return 0


def _cmd_pipeline(args):
    config = _config(pipeline.PipelineConfig, args)
    for key in ("train_embeddings", "dev_embeddings", "eval_embeddings",
                "dev_trials", "eval_trials"):
        path = getattr(config, key)
        if not path or not os.path.exists(path):
            raise UsageError(f"config key {key} does not name an existing file: {path!r}")
    report_path = pipeline.run_pipeline(config)
    print(f"report written to {report_path}")
    if args.markdown:
        print(pipeline.render_markdown(report_path))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train-vfnet": _cmd_train_vfnet,
    "fit-backend": _cmd_fit_backend,
    "score": _cmd_score,
    "fuse": _cmd_fuse,
    "eval": _cmd_eval,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        # a pipeline stage reports bad input like a subcommand does
        cause = exc.cause if isinstance(exc, pipeline.PipelineError) else exc
        if isinstance(cause, (UsageError, ConfigError, store.FormatError, CheckpointError,
                              FileNotFoundError, ValueError)):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
