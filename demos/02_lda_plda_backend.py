"""Speaker-verification backend: LDA projection + two-covariance PLDA.

Generates embeddings from a known two-covariance model, fits the backend,
and checks that PLDA llr scores separate same-identity from cross-identity
pairs.
"""

import numpy as np

from avsrkit import fit_lda, fit_plda, plda_group_llr, project_store
from avsrkit.store import EmbeddingStore

rng = np.random.default_rng(7)

# 100 identities, 6 sessions each, 20-d embeddings: identity means spread
# along a few strong directions, session noise isotropic
D, N_ID, N_SESS = 20, 100, 6
identity_scale = np.linspace(3.0, 0.3, D)
record_ids, identity_ids, vectors = [], [], []
for i in range(N_ID):
    mean = identity_scale * rng.standard_normal(D)
    for j in range(N_SESS):
        record_ids.append(f"id{i:03d}_s{j}")
        identity_ids.append(f"id{i:03d}")
        vectors.append(mean + 0.8 * rng.standard_normal(D))
store = EmbeddingStore.from_columns(record_ids, identity_ids, ["voice"] * len(vectors), vectors)

print("=== LDA ===")
lda = fit_lda(store, target_dim=10, length_norm=True)
print(f"projected {store.dim}-d embeddings to {lda.output_dim}-d")
projected = project_store(lda, store)

print("\n=== PLDA ===")
plda = fit_plda(projected)
# every identity has N_SESS sessions, so the maximum-likelihood fit is one
# generalized eigenproblem; ragged session counts would be fitted by EM
print(f"fit: {plda.describe_fit()} (log-likelihood {plda.loglik_history[-1]:.1f})")

# score some same-identity and cross-identity pairs, each record a group of one:
# identity i's first record against its second, and against identity i + 50's first
by_id = projected.grouped("voice")
ids = sorted(by_id)
firsts, seconds = [by_id[i][:1] for i in ids], [by_id[i][1:2] for i in ids]
same = plda_group_llr(plda, firsts, seconds, np.arange(50), np.arange(50))
diff = plda_group_llr(plda, firsts, firsts, np.arange(50), np.arange(50, 100))
print(f"\nmean llr, same identity:  {np.mean(same):+.2f}")
print(f"mean llr, cross identity: {np.mean(diff):+.2f}")
print("positive llr favors the same-identity hypothesis, so the gap is the "
      "whole point of the backend.")
