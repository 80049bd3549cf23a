"""avsrkit runs on numpy alone: its logistic and its generalized symmetric
eigensolver match scipy's, which the tests use only as a reference, and no
command imports scipy."""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.special
from hypothesis import example, given, settings, strategies as st

from avsrkit.backend import eigh
from avsrkit.vfnet import expit


@st.composite
def definite_pencil(draw):
    """(a, b): a symmetric, b symmetric positive definite with condition
    number below about 1e4, of a size from 1 to 12."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    a = rng.standard_normal((n, n))
    m = rng.standard_normal((n, n))
    return scale * (a + a.T), scale * (m @ m.T + 0.01 * n * np.eye(n))


@settings(max_examples=200, deadline=None)
@given(pencil=definite_pencil())
def test_eigh_solves_the_pencil(pencil):
    a, b = pencil
    lam, v = eigh(a, b)
    n = len(lam)
    assert np.all(np.diff(lam) >= 0.0)
    tol = 1e-9 * np.linalg.cond(b)
    np.testing.assert_allclose(v.T @ b @ v, np.eye(n), rtol=0.0, atol=tol)
    scale = np.abs(a).max() + np.abs(b).max() * np.abs(lam).max()
    np.testing.assert_allclose(a @ v, b @ v * lam, rtol=0.0, atol=tol * scale)
    np.testing.assert_allclose(lam, scipy.linalg.eigh(a, b, eigvals_only=True), rtol=0.0,
                               atol=tol * np.abs(lam).max())


X = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(x=st.lists(X, min_size=1, max_size=50))
@example(x=[-1e3, -745.5, -709.0, -1e-300, 0.0, 1e-300, 36.0, 709.0, 1e3])
def test_expit_matches_scipy_without_warning(x):
    x = np.array(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, q = expit(x), expit(-x)
    want = scipy.special.expit(x)
    # scipy's 1 / (1 + exp(-x)) is 0 once exp(-x) overflows, below x = -709.78,
    # where the logistic is subnormal: there both are below the smallest normal
    tiny = np.finfo(np.float64).tiny
    normal = want >= tiny
    assert np.all(np.abs(p - want)[normal] <= 2 * np.spacing(want[normal]))
    assert np.all(p[~normal] < tiny)
    assert np.all(np.abs(q - (1.0 - p)) <= np.finfo(np.float64).eps)


def test_no_command_imports_scipy(tmp_path):
    # synth, pipeline and eval in one interpreter; the pipeline runs every
    # stage: LDA, PLDA, vfnet training, scoring and the six fusion fits
    script = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        from avsrkit.cli import main

        out = Path({str(tmp_path)!r})
        data = out / "data"
        assert main(["synth", "--n-train", "40", "--n-test", "6", "--sessions", "3",
                     "--negatives-per-positive", "2", "--out-dir", str(data)]) == 0
        config = out / "pipeline.config"
        config.write_text("".join(f"{{name}}_embeddings = {{data / name}}.embeddings\\n"
                                  for name in ("train", "dev", "eval"))
                          + f"dev_trials = {{data / 'dev.trials'}}\\n"
                          + f"eval_trials = {{data / 'eval.trials'}}\\n"
                          + f"out_dir = {{out / 'run'}}\\nmax_epochs = 2\\n")
        assert main(["pipeline", "--config", str(config)]) == 0
        assert main(["eval", "--scores", str(out / "run" / "eval_fused_audio.scores")]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "[]"
