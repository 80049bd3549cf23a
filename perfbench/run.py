"""avsrkit benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 25 --trace 0

The run sets up the workload's inputs from the seed (three times; the
median is ``setup_s``), then runs whole timed passes until their summed
time reaches ``--seconds``. It checks the first pass's outputs against
independent references and every later pass's files byte for byte against
the first. With ``--trace 1`` it runs one pass with spans around every
public function of avsrkit's layers and reports the per-layer numbers of
that pass. The last line of standard output is the JSON result. See
perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: on a small shared machine
# this is as fast or faster on every layer and much steadier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3

# per-layer metrics of the traced pass (see README for the end-to-end metric
# each one should move)
BUSY = ("store.load_embeddings", "store.build_crossmodal_trials", "store.load_scores",
        "store.save_scores", "backend.fit_lda", "backend.project_store", "backend.fit_plda",
        "backend.plda_llr", "backend.score_face_trial", "backend.score_vfnet_trial",
        "pipeline.split_enroll_test", "pipeline.score_trials", "training.train",
        "vfnet.batch_loss_grad", "fusion.fit_fusion", "fusion.apply_fusion",
        "metrics.compute_metrics", "metrics.roc_points", "checkpoint.save_checkpoint")
CALLS = ("store.ScoreSet.scores_and_labels", "backend.plda_llr", "vfnet.pair_forward",
         "vfnet.batch_loss_grad", "fusion.fit_fusion")
SELF = ("pipeline.score_trials",)
COUNTERS = ("store.load_scores.entries", "backend.fit_plda.em_iters",
            "training.train.epochs")


def _batch_flops(args, kwargs, result):
    """Multiply-add flops of one batch_loss_grad: per branch, the forward
    pass 2n(d*h + h*o) and the backward pass 2n(h*d + 2*h*o)."""
    params, voices = args[0], args[1]
    n = voices.shape[0]
    flops = 0
    for w1, w2 in ((params.voice_w1, params.voice_w2), (params.face_w1, params.face_w2)):
        h, d = w1.shape
        o = w2.shape[0]
        flops += 2 * n * (2 * d * h + 3 * h * o)
    return {"rows": n, "flops": flops}


OBSERVERS = {
    "store.load_scores": lambda a, k, r: {"entries": len(r)},
    "backend.fit_plda": lambda a, k, r: {"em_iters": len(r.loglik_history)},
    "training.train": lambda a, k, r: {"epochs": len(r.train_loss)},
    "vfnet.batch_loss_grad": _batch_flops,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("experiment", "score", "evaluate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def timed_pass(workload, out_dir):
    out_dir.mkdir()
    gc.collect()
    start = time.perf_counter()
    outputs = workload.run_pass(out_dir)
    return outputs, time.perf_counter() - start


def layer_metrics(tracer, traced_wall):
    spans, layer_self = tracer.summary()
    out = {}
    for name in BUSY:
        out[f"{name}.s"] = (spans.get(name, {}).get("s", 0.0), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (spans.get(name, {}).get("calls", 0), "count")
    for name in SELF:
        out[f"{name}.self_s"] = (spans.get(name, {}).get("self_s", 0.0), "s")
    for name in COUNTERS:
        out[name] = (int(tracer.counters.get(name, 0)), "count")
    train_s = out["training.train.s"][0]
    grad_s = out["vfnet.batch_loss_grad.s"][0]
    rows = tracer.counters.get("vfnet.batch_loss_grad.rows", 0)
    flops = tracer.counters.get("vfnet.batch_loss_grad.flops", 0)
    out["training.train.pairs_per_s"] = (rows / train_s if train_s else 0.0, "1/s")
    out["vfnet.batch_loss_grad.gflop_per_s"] = (flops / grad_s / 1e9 if grad_s else 0.0,
                                                "GFLOP/s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    # compare trace.wall_s with the untraced runs' wall_s for the end-to-end
    # overhead; trace.overhead_s is the spans' own measured cost
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (len(tracer) * tracer.span_cost(), "s")
    out["trace.spans"] = (len(tracer), "count")
    return out


def run(args, work):
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(OBSERVERS)
    try:
        outputs, wall = timed_pass(workload, work / "pass0")
    finally:
        if tracer is not None:
            tracer.uninstall()
    walls = [wall]
    correct = True
    failed_per_pass = 0
    try:
        failed_per_pass = workload.check(outputs)
    except workloads.CheckFailed as exc:
        print(f"CHECK FAILED ({args.workload}, pass 0): {exc}", file=sys.stderr)
        correct = False
    del outputs
    first = digest(work / "pass0")

    def next_pass():
        out_dir = work / f"pass{len(walls)}"
        _, wall = timed_pass(workload, out_dir)
        walls.append(wall)
        same = digest(out_dir) == first
        if not same:
            print(f"CHECK FAILED ({args.workload}): {out_dir.name} output files differ "
                  "from pass0", file=sys.stderr)
        shutil.rmtree(out_dir)
        return same

    while tracer is None and sum(walls) < args.seconds:
        correct &= next_pass()

    print(f"{args.workload} seed {args.seed}: output sha256 {first}")
    print(f"{args.workload} seed {args.seed}: setup {setup_times}, passes {walls}")

    if tracer is not None:
        spans_dir = ROOT / ".perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}.json")
        metrics = layer_metrics(tracer, walls[0])
    else:
        wall_s = statistics.median(walls)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "trials_per_s": (workload.trials_per_pass / wall_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {"correct": correct, "attempted": len(walls) * workload.operations_per_pass,
            "failed": len(walls) * failed_per_pass,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "avsrkit" / "__init__.py").is_file():
        print(f"perfbench: no avsrkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
