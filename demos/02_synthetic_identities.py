"""The synthetic identity generator and the two teacher data splits.

Each identity's prototype spends part of its energy in a subspace shared by
all groups and the rest in its group's private block, so group-specialized
models have something real to specialize on. One group gets extra noise to
play the role of the intrinsically harder sub-population.
"""

import numpy as np

from mstkd import SyntheticDatasetSpec, build_pairs, generate
from mstkd import split_balanced, split_specialized

spec = SyntheticDatasetSpec(seed=7)
train, val, test = generate(spec)
print(f"train: {train.n} samples, {len(np.unique(train.identities))} identities, "
      f"dim {train.dim}")
print(f"validation/test identities are disjoint from training: "
      f"{set(val.identities).isdisjoint(train.identities)} / "
      f"{set(test.identities).isdisjoint(train.identities)}")

# nearest-prototype accuracy using only one group's private coordinates:
# a group's own block separates its identities, foreign blocks do not
def block(g):
    lo = spec.shared_dim + g * spec.group_dim
    return slice(lo, lo + spec.group_dim)

def nearest_prototype_acc(g, coords):
    rows = train.rows_of_group(g)
    x, ids = train.values[rows][:, coords], train.identities[rows]
    keys = np.unique(ids)
    protos = np.stack([x[ids == k].mean(axis=0) for k in keys])
    pred = keys[np.argmin(((x[:, None] - protos[None]) ** 2).sum(-1), axis=1)]
    return np.mean(pred == ids)

print("\nnearest-prototype accuracy for group 0 identities, by coordinate block:")
for g in range(spec.groups):
    marker = "  <- its own private block" if g == 0 else ""
    print(f"  block of group {g}: {nearest_prototype_acc(0, block(g)):.2f}{marker}")

print("\nspecialized split (one group per subset):")
for g, subset in enumerate(split_specialized(train)):
    groups = np.unique(train.groups[train.rows_of_identities(subset)])
    print(f"  subset {g}: {len(subset)} identities, groups present: {groups}")

print("\nbalanced split (every subset mixes all groups equally):")
for j, subset in enumerate(split_balanced(train, seed=1)):
    rows = train.rows_of_identities(subset)
    hist = [int(np.unique(train.identities[rows][train.groups[rows] == g]).size)
            for g in range(spec.groups)]
    print(f"  subset {j}: {len(subset)} identities, per-group counts {hist}")

pairs = build_pairs(test, pairs_per_group=600, genuine_fraction=0.5, seed=2)
print(f"\nverification pairs: {pairs.n} total, "
      f"{int(pairs.genuine.sum())} genuine, all within-group")
