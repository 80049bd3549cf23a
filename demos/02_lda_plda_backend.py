"""Speaker-verification backend: LDA projection + two-covariance PLDA.

Generates embeddings from a known two-covariance model, fits the backend,
and checks that PLDA llr scores separate same-identity from cross-identity
pairs.
"""

import numpy as np

from avsrkit import fit_lda, fit_plda, plda_llr, project_store
from avsrkit.store import EmbeddingRecord, EmbeddingStore

rng = np.random.default_rng(7)

# 100 identities, 6 sessions each, 20-d embeddings: identity means spread
# along a few strong directions, session noise isotropic
D, N_ID, N_SESS = 20, 100, 6
identity_scale = np.linspace(3.0, 0.3, D)
records = []
for i in range(N_ID):
    mean = identity_scale * rng.standard_normal(D)
    for j in range(N_SESS):
        vec = mean + 0.8 * rng.standard_normal(D)
        records.append(EmbeddingRecord(f"id{i:03d}_s{j}", f"id{i:03d}", "voice", vec))
store = EmbeddingStore(records)

print("=== LDA ===")
lda = fit_lda(store, target_dim=10, length_norm=True)
print(f"projected {store.dim}-d embeddings to {lda.output_dim}-d")
projected = project_store(lda, store)

print("\n=== PLDA ===")
plda = fit_plda(projected)
# every identity has N_SESS sessions, so the maximum-likelihood fit is one
# generalized eigenproblem; ragged session counts would be fitted by EM
print(f"fit: {plda.describe_fit()} (log-likelihood {plda.loglik_history[-1]:.1f})")

# score some same-identity and cross-identity pairs
by_id = {}
for rec in projected:
    by_id.setdefault(rec.identity_id, []).append(rec.vector)
ids = sorted(by_id)

same = [plda_llr(plda, by_id[i][0], by_id[i][1]) for i in ids[:50]]
diff = [plda_llr(plda, by_id[a][0], by_id[b][0])
        for a, b in zip(ids[:50], ids[50:100])]
print(f"\nmean llr, same identity:  {np.mean(same):+.2f}")
print(f"mean llr, cross identity: {np.mean(diff):+.2f}")
print("positive llr favors the same-identity hypothesis, so the gap is the "
      "whole point of the backend.")
