"""Training the voice-face network on a small synthetic benchmark.

Voices and faces share a latent identity vector, so a pair of 2-layer
branches can learn embeddings whose cosine similarity reveals whether a
voice and a face belong to the same person.
"""

import numpy as np

from avsrkit import GenConfig, TrainConfig, generate, oracle_eer, train
from avsrkit.vfnet import matching_accuracy
from avsrkit.store import build_crossmodal_trials
from avsrkit.pipeline import split_identities

config = GenConfig(d_id=4, d_voice=32, d_face=32, n_identities_train=400,
                   n_identities_test=80, rng_seed=1)
train_store, test_store, _ = generate(config)
print(f"benchmark: {len(train_store)} training records, "
      f"{len(test_store)} held-out records")
print(f"Bayes-oracle EER on this benchmark: {oracle_eer(config, 20000):.4f}")

# hold out identities (not just records) for validation, then build labeled
# voice-face trials
fit_store, valid_store = split_identities(train_store, 0.1, seed=0)
train_trials = build_crossmodal_trials(fit_store, 1, rng_seed=0)
valid_trials = build_crossmodal_trials(valid_store, 1, rng_seed=1)
print(f"{len(train_trials)} training trials, {len(valid_trials)} validation trials")

report = train(train_store, train_trials, valid_trials,
               TrainConfig(hidden_dim=64, output_dim=32, max_epochs=15,
                           patience=4, rng_seed=0))

print("\nepoch  train_loss  valid_eer")
for i, (loss, v_eer) in enumerate(zip(report.train_loss, report.validation_eer)):
    marker = "  <- best" if i == report.best_epoch else ""
    print(f"{i:5d}  {loss:10.4f}  {v_eer:9.4f}{marker}")

# the 1-of-2 matching task from the paper: given a voice, pick the face
rng = np.random.default_rng(3)
by_id = {}
for rec in test_store:
    by_id.setdefault(rec.identity_id, {}).setdefault(rec.modality, []).append(rec.vector)
ids = sorted(by_id)
triplets = []
for _ in range(500):
    i, j = rng.choice(len(ids), size=2, replace=False)
    triplets.append((by_id[ids[i]]["voice"][0], by_id[ids[i]]["face"][0],
                     by_id[ids[j]]["face"][0]))
accuracy = matching_accuracy(report.final_params, triplets)
print(f"\n1-of-2 voice->face matching accuracy on held-out identities: "
      f"{accuracy:.3f} (chance = 0.5)")
