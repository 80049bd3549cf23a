"""studies/headline.py runs end to end on a toy generator and reports its
headline and each system's EER, minDCF and actDCF for each patience, with
the paired difference."""

import json
import sys
from pathlib import Path

from avsrkit.synth import GenConfig
from avsrkit.training import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "studies"))

import headline  # noqa: E402

TOY = GenConfig(d_id=4, d_voice=16, d_face=16, n_identities_train=120, n_identities_test=30,
                session_noise_sigma=0.8)


def test_toy_study_reports_each_patience_and_their_difference():
    result = headline.run_study(TOY, range(2), [2, 1], small_draws=2, large_draws=1,
                                large_identities=60,
                                train_config=TrainConfig(batch_size=32, max_epochs=6,
                                                         hidden_dim=16, output_dim=8),
                                log=lambda line: None)
    json.dumps(result, allow_nan=False)
    assert result["shorter_run_is_prefix"] is True
    assert set(result["patience"]) == {"1", "2"}
    for entry in result["patience"].values():
        assert len(entry["epochs"]) == len(entry["best_epoch"]) == 2
        assert entry["epochs_total"] == sum(entry["epochs"])
        for size in ("small", "large"):
            stats = entry[f"headline_{size}"]
            assert stats["min"] <= stats["mean"] <= stats["max"]
            for metric in ("eer", "min_dcf", "act_dcf"):
                assert set(entry[f"{metric}_{size}"]) == set(headline.SYSTEMS)
            assert all(0.0 <= value <= entry[f"act_dcf_{size}"][name]
                       for name, value in entry[f"min_dcf_{size}"].items())
    for size, n in (("small", 2), ("large", 1)):
        assert result["draws"][size]["count"] == n
        assert result[f"paired_difference_{size}"]["what"].startswith("headline at patience 1")
        assert result[f"av_beats_audio_{size}"].endswith(f"of {n}")
        assert all(0.0 <= eer <= 0.5 for eer in result[f"bayes_eer_{size}"].values())
