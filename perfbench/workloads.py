"""The benchmark's three workloads: inputs, timed pass and output checks.

Every workload makes its inputs from the seed alone, runs whole passes of
the same operations, and checks a pass's outputs against ``references``
(computations made apart from avsrkit) or against properties the outputs
must have. ``check`` raises CheckFailed on a wrong output and returns the
number of operations of the pass that failed outright. Each pass writes its
files into its own directory; ``run.py`` compares those files byte for byte
across passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math

import numpy as np

import references as ref
from avsrkit import backend, cli, fusion, metrics, pipeline, store, synth, training
from avsrkit.store import ScoreEntry, ScoreSet

DCF = metrics.DcfParams()          # the pipeline's default operating point
BASE = synth.GenConfig()           # the default benchmark
DEV_EVAL_SESSIONS = 4              # per identity and modality, as generate_av_benchmark
NONTARGETS_PER_TARGET = 20         # identity-level trials, as in the acceptance suite

# enrollment-side and test-side modalities each system's score is computed from
SYSTEM_INPUTS = {"audio": (("voice",), ("voice",)), "visual": (("face",), ("face",)),
                 "vfnet": (("voice",), ("face",))}
# Sampling slack for "no system beats the Bayes-optimal scorer of its inputs":
# on 300 target trials the EER moves in steps of 1/300; this is three steps.
BAYES_EER_SLACK = 0.01
LLR_TOL = 1e-9                     # |audio score - reference| / (1 + |reference|)
SCORE_TOL = 1e-12                  # visual and vfnet scores, fused scores
METRIC_TOL = 1e-12                 # metrics against the sort-based reference


class CheckFailed(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def draw_split(prefix, seed):
    """A dev/eval split of the default benchmark's generator (its mixing maps,
    noise and sizes) whose identities and sessions are drawn from the seed."""
    a_voice, a_face = synth.mixing_maps(BASE)
    rng = np.random.default_rng([seed, 17, {"dev": 3, "evl": 4}[prefix]])
    width = len(str(BASE.n_identities_test - 1))
    records = []
    for i in range(BASE.n_identities_test):
        identity = f"{prefix}{i:0{width}d}"
        z = rng.standard_normal(BASE.d_id)
        for tag, a in (("v", a_voice), ("f", a_face)):
            noise = BASE.session_noise_sigma * rng.standard_normal((DEV_EVAL_SESSIONS, len(a)))
            records += [store.EmbeddingRecord(f"{identity}_{tag}{j}", identity,
                                              "voice" if tag == "v" else "face", a @ z + e)
                        for j, e in enumerate(noise)]
    return store.EmbeddingStore(records)


def identity_trials(split_store, seed):
    return pipeline.build_identity_trials(split_store, NONTARGETS_PER_TARGET, seed)


def enroll_test_halves(split_store):
    """identity -> modality -> (enroll rows, test rows), split as the pipeline
    documents it: per identity and modality, the first ceil(n/2) records by
    record id enroll and the rest test."""
    grouped = {}
    for rec in split_store:
        grouped.setdefault(rec.identity_id, {}).setdefault(rec.modality, []).append(rec)
    halves = {}
    for identity, by_modality in grouped.items():
        halves[identity] = {}
        for modality, recs in by_modality.items():
            recs = sorted(recs, key=lambda r: r.record_id)
            cut = math.ceil(len(recs) / 2)
            halves[identity][modality] = (np.array([r.vector for r in recs[:cut]]),
                                          np.array([r.vector for r in recs[cut:]]))
    return halves


def read_scores(path):
    """(scores, is_target) of a labeled score file, parsed here."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    return (np.array([float(r[2]) for r in rows]),
            np.array([r[3] == "target" for r in rows]))


# ---------------------------------------------------------------------------


class Experiment:
    """One full run_pipeline on the default benchmark, from files on disk.

    Train and dev are the default benchmark's, so the fits do the same work
    on every seed (early stopping and the fusion fits' iteration counts
    depend on them); the eval split and its trials come from the seed.
    """

    name = "experiment"
    operations_per_pass = 1  # one pipeline run

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.inputs = work_dir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)

    def setup(self):
        train, dev, _ = synth.generate_av_benchmark(BASE)
        eval_ = draw_split("evl", self.seed)
        for split, split_store in (("train", train), ("dev", dev), ("eval", eval_)):
            store.save_embeddings(split_store, self.inputs / f"{split}.embeddings")
        dev_trials = identity_trials(dev, BASE.rng_seed + 1)
        eval_trials = identity_trials(eval_, self.seed + 2)
        store.save_trials(dev_trials, self.inputs / "dev.trials")
        store.save_trials(eval_trials, self.inputs / "eval.trials")
        self.eval_store, self.eval_trials = eval_, eval_trials
        self.trials_per_pass = len(dev_trials) + len(eval_trials)

    def run_pass(self, out_dir):
        config = pipeline.PipelineConfig(
            **{f"{split}_embeddings": str(self.inputs / f"{split}.embeddings")
               for split in ("train", "dev", "eval")},
            dev_trials=str(self.inputs / "dev.trials"),
            eval_trials=str(self.inputs / "eval.trials"),
            out_dir=str(out_dir))
        pipeline.run_pipeline(config)
        return out_dir

    def bayes_eers(self):
        """Eval EER of the Bayes-optimal scorer for each report system, given
        the same embeddings that system sees, on the same trials."""
        a_voice, a_face = synth.mixing_maps(BASE)
        scorer = ref.BayesIdentityScorer(a_voice, a_face, BASE.session_noise_sigma)
        halves = enroll_test_halves(self.eval_store)
        trials = list(self.eval_trials)
        is_target = np.array([t.label == "target" for t in trials])
        out = {}
        for name, systems in pipeline.REPORT_SYSTEMS:
            seen_e = {m for s in systems for m in SYSTEM_INPUTS[s][0]}
            seen_t = {m for s in systems for m in SYSTEM_INPUTS[s][1]}
            enroll = {i: scorer.stats({m: halves[i][m][0] for m in seen_e}) for i in halves}
            test = {i: scorer.stats({m: halves[i][m][1] for m in seen_t}) for i in halves}
            h_e, n_e = map(np.array, zip(*(enroll[t.enroll_id] for t in trials)))
            h_t, n_t = map(np.array, zip(*(test[t.test_id] for t in trials)))
            llr = scorer.llr(h_e, n_e, h_t, n_t)
            out[name] = ref.detection_metrics(llr[is_target], llr[~is_target])["eer"]
        return out

    def check(self, out_dir):
        lines = (out_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
        require(lines[0] == "system\teer\tmin_dcf\tact_dcf", f"report header {lines[0]!r}")
        rows = [line.split("\t") for line in lines[1:]]
        names = [name for name, _ in pipeline.REPORT_SYSTEMS]
        require([r[0] for r in rows] == names, f"report systems {[r[0] for r in rows]}")
        bayes = self.bayes_eers()
        for name, eer_s, min_s, act_s in rows:
            eer, min_dcf, act_dcf = float(eer_s), float(min_s), float(act_s)
            require(act_dcf >= min_dcf, f"{name}: actDCF {act_dcf} < minDCF {min_dcf}")
            require(min_dcf <= 1.0, f"{name}: minDCF {min_dcf} > 1")
            require(eer >= bayes[name] - BAYES_EER_SLACK,
                    f"{name}: EER {eer} below Bayes-optimal {bayes[name]:.6f} less slack")
            scores, is_target = read_scores(out_dir / f"eval_fused_{name}.scores")
            want = ref.detection_metrics(scores[is_target], scores[~is_target])
            for key, got in (("eer", eer), ("min_dcf", min_dcf), ("act_dcf", act_dcf)):
                require(abs(got - want[key]) <= 5e-7,
                        f"{name}: reported {key} {got} vs reference {want[key]}")
            print(f"experiment: {name} eval EER {eer:.6f}, "
                  f"Bayes-optimal EER of its inputs {bayes[name]:.6f}")
        return 0


# ---------------------------------------------------------------------------


class Score:
    """Score the dev and eval identity trials under all three systems."""

    name = "score"
    operations_per_pass = 6  # one score list per split and system
    # A short fit on part of the default train split: scoring cost depends on
    # the model shapes (LDA output 64, vfnet 64-256-128), not on fit quality.
    FIT = dataclasses.replace(BASE, n_identities_train=300)

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.rule = backend.PoolingRule(pipeline.PipelineConfig().pool_fraction)

    def setup(self):
        dev, eval_ = draw_split("dev", self.seed), draw_split("evl", self.seed)
        self.splits = {"dev": (dev, identity_trials(dev, self.seed + 1)),
                       "eval": (eval_, identity_trials(eval_, self.seed + 2))}
        train, _, _ = synth.generate(self.FIT)
        voices = train.restrict("voice")
        self.lda = backend.fit_lda(voices, pipeline.PipelineConfig().lda_dim)
        self.plda = backend.fit_plda(backend.project_store(self.lda, voices), max_iter=10)
        fit_store, valid_store = pipeline.split_identities(train, 0.1, BASE.rng_seed)
        config = training.TrainConfig(max_epochs=2)
        self.params = training.train(
            train, store.build_crossmodal_trials(fit_store, 1, BASE.rng_seed),
            store.build_crossmodal_trials(valid_store, 1, BASE.rng_seed + 1),
            config).final_params
        self.trials_per_pass = sum(len(t) for _, t in self.splits.values())

    def run_pass(self, out_dir):
        scored = {}
        for split, (split_store, trials) in self.splits.items():
            enroll, test = pipeline.split_enroll_test(split_store)
            scored[split] = pipeline.score_trials(trials, enroll, test, self.lda, self.plda,
                                                  self.params, self.rule)
            for system, score_set in scored[split].items():
                store.save_scores(score_set, out_dir / f"{split}_{system}.scores")
        return scored

    def reference_scores(self, split_store, trials):
        halves = enroll_test_halves(split_store)
        lda, plda, p = self.lda, self.plda, self.params
        fraction = self.rule.fraction
        trials = list(trials)

        project = {i: tuple(ref.lda_project(lda.projection, lda.mean, h)
                            for h in by["voice"]) for i, by in halves.items()}
        e_rows, t_rows, owner = [], [], []
        for k, t in enumerate(trials):
            ev, tv = project[t.enroll_id][0], project[t.test_id][1]
            e_rows.append(np.repeat(ev, len(tv), axis=0))
            t_rows.append(np.tile(tv, (len(ev), 1)))
            owner.append(np.full(len(ev) * len(tv), k))
        llr = ref.plda_llr(plda.mu, plda.B, plda.W, np.vstack(e_rows), np.vstack(t_rows))
        owner = np.concatenate(owner)
        audio = np.bincount(owner, llr) / np.bincount(owner)

        visual = np.array([ref.face_trial_score(halves[t.enroll_id]["face"][0],
                                                halves[t.test_id]["face"][1], fraction)
                           for t in trials])
        face_out = {i: ref.vfnet_branch(p.face_w1, p.face_b1, p.face_w2, p.face_b2,
                                        by["face"][1]) for i, by in halves.items()}
        vf = []
        for t in trials:
            template = halves[t.enroll_id]["voice"][0].mean(axis=0)
            u = ref.vfnet_branch(p.voice_w1, p.voice_b1, p.voice_w2, p.voice_b2, template)[0]
            vf.append(ref.top_fraction_mean(ref.vfnet_p_same(u, face_out[t.test_id]), fraction))
        return {"audio": audio, "visual": visual, "vfnet": np.array(vf)}

    def check(self, scored):
        for split, (split_store, trials) in self.splits.items():
            want = self.reference_scores(split_store, trials)
            keys = [(t.enroll_id, t.test_id, t.label) for t in trials]
            for system, expected in want.items():
                got = scored[split][system]
                require([(e.enroll_id, e.test_id, e.label) for e in got] == keys,
                        f"{split} {system}: trial order or labels differ from the trial list")
                got = np.array([e.score for e in got])
                tol = LLR_TOL * (1.0 + np.abs(expected)) if system == "audio" else SCORE_TOL
                bad = np.flatnonzero(np.abs(got - expected) > tol)
                require(bad.size == 0, f"{split} {system}: {bad.size} scores off reference, "
                        f"first trial {keys[bad[0]] if bad.size else None}")
        return 0


# ---------------------------------------------------------------------------


class Evaluate:
    """Apply a dev-fitted fusion to three large eval score lists and evaluate."""

    name = "evaluate"
    operations_per_pass = 7  # 3 loads, apply, save, eval report, DET points
    SYSTEMS = ("audio", "visual", "vfnet")
    N_EVAL, EVAL_TARGETS = 200_000, 20_000  # the scale of an SRE trial list
    N_DEV, DEV_TARGETS = 6300, 300          # the pipeline's dev split size

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.inputs = work_dir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def draw(rng, n, n_targets):
        """Labels plus per-system scores shaped like the pipeline's: an
        audio LLR, a pooled cosine in (-1, 1) and a probability in (0, 1)."""
        is_target = np.zeros(n, bool)
        is_target[rng.choice(n, n_targets, replace=False)] = True
        sign = np.where(is_target, 1.0, -1.0)
        scores = {
            "audio": 2.0 * sign + 2.5 * rng.standard_normal(n),
            "visual": np.tanh(0.25 * sign + 0.3 * rng.standard_normal(n)),
            "vfnet": 1.0 / (1.0 + np.exp(-0.8 * sign - rng.standard_normal(n))),
        }
        return is_target, scores

    def setup(self):
        # the dev scores are fixed, so the fusion fit does the same work on
        # every seed (its iteration count depends on the data)
        dev_target, dev_scores = self.draw(np.random.default_rng(5), self.N_DEV,
                                           self.DEV_TARGETS)
        self.is_target, self.scores = self.draw(np.random.default_rng([self.seed, 5]),
                                                self.N_EVAL, self.EVAL_TARGETS)
        self.enroll = [f"spk{i // 50:05d}" for i in range(self.N_EVAL)]
        self.test = [f"seg{i:06d}" for i in range(self.N_EVAL)]
        labels = np.where(self.is_target, "target", "nontarget").tolist()
        for system in self.SYSTEMS:
            with open(self.inputs / f"eval_{system}.scores", "w", encoding="utf-8") as fh:
                fh.writelines(f"{e}\t{t}\t{s!r}\t{lab}\n" for e, t, s, lab in zip(
                    self.enroll, self.test, self.scores[system].tolist(), labels))
        dev_labels = np.where(dev_target, "target", "nontarget").tolist()
        dev_sets = [ScoreSet(ScoreEntry(f"d{i}", f"d{i}t", s, lab) for i, (s, lab) in
                             enumerate(zip(dev_scores[system].tolist(), dev_labels)))
                    for system in self.SYSTEMS]
        self.model = fusion.fit_fusion(dev_sets, DCF)
        self.trials_per_pass = self.N_EVAL

    def run_pass(self, out_dir):
        """The apply half of ``avsrkit fuse``, then ``avsrkit eval`` with a
        report and the DET points, as a user runs them."""
        loaded = [store.load_scores(self.inputs / f"eval_{s}.scores") for s in self.SYSTEMS]
        fused = fusion.apply_fusion(self.model, loaded)
        store.save_scores(fused, out_dir / "eval_fused.scores")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["eval", "--scores", str(out_dir / "eval_fused.scores"),
                               "--out", str(out_dir / "eval.tsv"),
                               "--det-points", str(out_dir / "eval_det.tsv")])
        if status != 0:
            raise RuntimeError(f"avsrkit eval exited with status {status}")
        return loaded, fused, out_dir

    def check(self, outputs):
        loaded, fused, out_dir = outputs
        labels = np.where(self.is_target, "target", "nontarget").tolist()
        for system, score_set in zip(self.SYSTEMS, loaded):
            got = np.array([e.score for e in score_set])
            require(np.array_equal(got, self.scores[system]),
                    f"{system}: loaded scores differ from the generated ones")
            require([e.label for e in score_set] == labels
                    and [e.test_id for e in score_set] == self.test,
                    f"{system}: loaded trial ids or labels differ")

        w, b = self.model.weights, self.model.bias
        expected = sum(w[k] * self.scores[s] for k, s in enumerate(self.SYSTEMS)) + b
        got = np.array([e.score for e in fused])
        require(np.all(np.abs(got - expected) <= SCORE_TOL * (1.0 + np.abs(expected))),
                "fused scores differ from w . s + b")
        written, _ = read_scores(out_dir / "eval_fused.scores")
        require(np.array_equal(written, got), "saved fused scores differ from the fused set")

        tar, non = got[self.is_target], got[~self.is_target]
        want = ref.detection_metrics(tar, non, DCF.p_target, DCF.c_miss, DCF.c_fa)
        report = metrics.compute_metrics(fused, DCF)
        for key, value in want.items():
            require(abs(getattr(report, key) - value) <= METRIC_TOL,
                    f"compute_metrics {key} {getattr(report, key)} vs reference {value}")
        header, line = (out_dir / "eval.tsv").read_text(encoding="utf-8").splitlines()
        for key, text in zip(header.split("\t"), line.split("\t")):
            if key in want:  # printed to 6 decimals
                require(abs(float(text) - want[key]) <= 5e-7,
                        f"eval report {key} {text} vs reference {want[key]}")

        # the DET table is the one output that can fail on its own: a row
        # that does not read as three numbers makes the operation fail
        try:
            det = np.loadtxt(out_dir / "eval_det.tsv", skiprows=1, ndmin=2)
        except ValueError as exc:
            print(f"evaluate: DET points file is malformed ({exc})")
            return 1
        thresholds, p_miss, p_fa = ref.roc_curve(tar, non)
        require(det.shape == (thresholds.size, 3), f"DET table has {det.shape[0]} rows")
        require(tuple(det[0, 1:]) == (0.0, 1.0) and tuple(det[-1, 1:]) == (1.0, 0.0),
                "DET endpoints are not (0, 1) and (1, 0)")
        require(np.all(np.diff(det[:, 1]) >= 0) and np.all(np.diff(det[:, 2]) <= 0),
                "DET points are not monotone")
        require(np.array_equal(det[:, 0], thresholds) and np.array_equal(det[:, 1], p_miss)
                and np.array_equal(det[:, 2], p_fa), "DET points differ from the reference")
        return 0


WORKLOADS = {w.name: w for w in (Experiment, Score, Evaluate)}
