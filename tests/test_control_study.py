"""studies/control.py runs end to end on a toy generator and reports one
control EER per shuffle seed, with the counts outside criterion 5's band."""

import json
import sys
from pathlib import Path

from avsrkit.synth import GenConfig
from avsrkit.training import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "studies"))

import control  # noqa: E402

TOY = GenConfig(d_id=4, d_voice=16, d_face=16, n_identities_train=60, n_identities_test=20,
                session_noise_sigma=0.8)


def test_toy_study_reports_each_shuffle_seed():
    result = control.run_study(TOY, range(600, 603),
                               TrainConfig(batch_size=64, max_epochs=3, hidden_dim=16,
                                           output_dim=8))
    json.dumps(result, allow_nan=False)
    values = list(result["control_eer"].values())
    assert list(result["control_eer"]) == ["600", "601", "602"]
    assert all(0.0 <= v <= 1.0 for v in values + [result["held_out_eer"]])
    assert result["control_range"] == [min(values), max(values)]
    low, high = result["band"]
    assert result["below_band"] == sum(v < low for v in values)
    assert result["above_band"] == sum(v > high for v in values)
    assert 1 <= result["epochs"] <= 3
