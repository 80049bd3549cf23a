"""Command-line interface.

Subcommands: synth, train-vfnet, fit-backend, score, fuse, eval, pipeline.
Exit codes: 0 success, 1 validation error (bad flags, malformed or missing
files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys


from . import backend, fusion, metrics, pipeline, store, synth, training, vfnet
from .checkpoint import CheckpointError
from .config import (DCF_KEYS, TRAIN_KEYS, ConfigError, dcf_params_from_dict,
                     parse_bool, parse_kv_file, reject_unknown_keys,
                     train_config_from_dict)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_dcf_flags(p):
    p.add_argument("--p-target", type=float, default=None, help="target prior")
    p.add_argument("--c-miss", type=float, default=None, help="miss cost")
    p.add_argument("--c-fa", type=float, default=None, help="false-alarm cost")


def _dcf_from_args(args, base=None):
    params = base or metrics.DcfParams()
    updates = {}
    if args.p_target is not None:
        updates["p_target"] = args.p_target
    if args.c_miss is not None:
        updates["c_miss"] = args.c_miss
    if args.c_fa is not None:
        updates["c_fa"] = args.c_fa
    return dataclasses.replace(params, **updates)


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
    p.add_argument("--optimizer", choices=["adam", "sgd"], default=None)
    p.add_argument("--out-params", required=True, help="checkpoint output path")
    p.add_argument("--out-report", help="per-epoch TSV output path")

    p = sub.add_parser("fit-backend", help="fit LDA and PLDA on voice embeddings")
    p.add_argument("--embeddings", required=True, help="training embedding file")
    p.add_argument("--lda-dim", type=int, default=150, help="LDA output dimension")
    p.add_argument("--no-length-norm", action="store_true",
                   help="skip length normalization after LDA")
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
    p.add_argument("--pool-fraction", type=float, default=0.2)
    p.add_argument("--no-length-norm", action="store_true")
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
    kv = parse_kv_file(args.config) if args.config else {}
    reject_unknown_keys(args.config, kv, {f.name for f in dataclasses.fields(synth.GenConfig)})
    updates = {key: type(getattr(synth.GenConfig(), key))(value)
               for key, value in kv.items()}
    if args.seed is not None:
        updates["rng_seed"] = args.seed
    if args.sigma is not None:
        updates["session_noise_sigma"] = args.sigma
    if args.n_train is not None:
        updates["n_identities_train"] = args.n_train
    if args.n_test is not None:
        updates["n_identities_test"] = args.n_test
    if args.sessions is not None:
        updates["voice_sessions_per_identity"] = args.sessions
        updates["face_sessions_per_identity"] = args.sessions
    config = synth.GenConfig(**updates)

    os.makedirs(args.out_dir, exist_ok=True)
    train, dev, eval_ = synth.generate_av_benchmark(config)
    store.save_embeddings(train, os.path.join(args.out_dir, "train.embeddings"))
    store.save_embeddings(dev, os.path.join(args.out_dir, "dev.embeddings"))
    store.save_embeddings(eval_, os.path.join(args.out_dir, "eval.embeddings"))
    npp = args.negatives_per_positive
    store.save_trials(pipeline.build_identity_trials(dev, npp, config.rng_seed + 1),
                      os.path.join(args.out_dir, "dev.trials"))
    store.save_trials(pipeline.build_identity_trials(eval_, npp, config.rng_seed + 2),
                      os.path.join(args.out_dir, "eval.trials"))
    gt_path = os.path.join(args.out_dir, "ground_truth.config")
    with open(gt_path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(config):
            fh.write(f"{f.name} = {getattr(config, f.name)}\n")
    print(f"wrote synthetic benchmark to {args.out_dir}")
    return 0


def _cmd_train_vfnet(args):
    kv = parse_kv_file(args.config) if args.config else {}
    reject_unknown_keys(args.config, kv, TRAIN_KEYS)
    config = train_config_from_dict(kv)
    overrides = {}
    for flag, field in [("lr", "learning_rate"), ("batch_size", "batch_size"),
                        ("max_epochs", "max_epochs"), ("patience", "patience"),
                        ("seed", "rng_seed"), ("optimizer", "optimizer")]:
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    config = dataclasses.replace(config, **overrides)

    emb = store.load_embeddings(args.embeddings)
    train_trials = store.load_trials(args.train_trials)
    valid_trials = store.load_trials(args.valid_trials)
    report = training.train(emb, train_trials, valid_trials, config)
    vfnet.save_params(report.final_params, args.out_params)
    if args.out_report:
        training.save_report(report, args.out_report)
    print(f"best epoch {report.best_epoch}: "
          f"validation EER {report.validation_eer[report.best_epoch]:.4f}")
    return 0


def _cmd_fit_backend(args):
    emb = store.load_embeddings(args.embeddings).restrict("voice")
    lda = backend.fit_lda(emb, args.lda_dim)
    plda = backend.fit_plda(backend.project_store(lda, emb, not args.no_length_norm))
    backend.save_lda(lda, args.out_lda)
    backend.save_plda(plda, args.out_plda)
    n_iter = len(plda.loglik_history)
    status = "converged" if n_iter < backend.PLDA_MAX_ITER else "stopped without converging"
    print(f"LDA output dimension {lda.output_dim}; PLDA {status} after {n_iter} EM iterations")
    return 0


def _cmd_score(args):
    enroll = store.load_embeddings(args.enroll)
    test = store.load_embeddings(args.test)
    trials = store.load_trials(args.trials)
    rule = backend.PoolingRule(args.pool_fraction)
    lda = plda = params = None
    if args.system == "audio":
        if not args.lda or not args.plda:
            raise UsageError("--system audio requires --lda and --plda")
        lda = backend.load_lda(args.lda)
        plda = backend.load_plda(args.plda)
    if args.system == "vfnet":
        if not args.params:
            raise UsageError("--system vfnet requires --params")
        params = vfnet.load_params(args.params)
    scored = pipeline.score_trials(trials, enroll, test, lda, plda, params, rule,
                                   not args.no_length_norm, systems=(args.system,))
    store.save_scores(scored[args.system], args.out)
    print(f"wrote {len(scored[args.system])} {args.system} scores to {args.out}")
    return 0


def _cmd_fuse(args):
    if len(args.dev_scores) != len(args.eval_scores):
        raise UsageError("--dev-scores and --eval-scores must list the same systems")
    dev = [store.load_scores(p) for p in args.dev_scores]
    eval_ = [store.load_scores(p) for p in args.eval_scores]
    params = _dcf_from_args(args)
    model = fusion.fit_fusion(dev, params)
    fused = fusion.apply_fusion(model, eval_)
    fusion.save_fusion(model, args.out_model)
    store.save_scores(fused, args.out_scores)
    weights = ", ".join(f"{w:.4f}" for w in model.weights)
    print(f"fusion weights [{weights}], bias {model.bias:.4f}")
    return 0


def _cmd_eval(args):
    scores = store.load_scores(args.scores)
    params = _dcf_from_args(args)
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
        with open(args.det_points, "w", encoding="utf-8") as fh:
            fh.write("threshold\tp_miss\tp_fa\n")
            for t, pm, pf in metrics.roc_points(scores):
                fh.write(f"{t}\t{pm}\t{pf}\n")
    return 0


def _pipeline_config_from_file(path):
    kv = parse_kv_file(path)
    known_paths = ("train_embeddings", "dev_embeddings", "eval_embeddings",
                   "dev_trials", "eval_trials", "out_dir")
    updates = {}
    for key in known_paths:
        if key in kv:
            updates[key] = kv.pop(key)
    if "lda_dim" in kv:
        updates["lda_dim"] = int(kv.pop("lda_dim"))
    if "length_norm" in kv:
        updates["length_norm"] = parse_bool(kv.pop("length_norm"))
    if "pool_fraction" in kv:
        updates["pool_fraction"] = float(kv.pop("pool_fraction"))
    if "negatives_per_positive" in kv:
        updates["negatives_per_positive"] = int(kv.pop("negatives_per_positive"))
    if "systems" in kv:
        updates["systems"] = tuple(s.strip() for s in kv.pop("systems").split(","))
    reject_unknown_keys(path, kv, TRAIN_KEYS.keys() | DCF_KEYS.keys())
    updates["train"] = train_config_from_dict(kv)
    updates["dcf"] = dcf_params_from_dict(kv)
    return pipeline.PipelineConfig(**updates)


def _cmd_pipeline(args):
    config = _pipeline_config_from_file(args.config)
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
    except (UsageError, ConfigError, store.FormatError, CheckpointError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
