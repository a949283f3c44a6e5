"""The pair draw of `mstkd.data.build_pairs` as it first shipped: a frozen
oracle. Every impostor sample is drawn with `rng.choice(arr)`. The
production function draws the same stream more cheaply and must give the
same pairs, bit for bit; the argument checks are left out here.
"""

import numpy as np

from mstkd.data import PairList, SampleSet


def build_pairs(pool: SampleSet, pairs_per_group: int, genuine_fraction: float,
                seed: int) -> PairList:
    rng = np.random.default_rng(seed)
    a_all, b_all, gen_all, grp_all = [], [], [], []
    for g in range(len(pool.group_tags)):
        rows = pool.rows_of_group(g)
        ids = pool.identities[rows]
        by_identity = {i: rows[ids == i] for i in np.unique(ids)}
        multi = [i for i, r in by_identity.items() if r.size >= 2]
        n_gen = round(pairs_per_group * genuine_fraction)
        n_imp = pairs_per_group - n_gen
        seen: set[tuple[int, int]] = set()

        def draw(n, genuine):
            got = 0
            while got < n:
                if genuine:
                    i = multi[rng.integers(len(multi))]
                    x, y = rng.choice(by_identity[i], size=2, replace=False)
                else:
                    ia, ib = rng.choice(len(by_identity), size=2, replace=False)
                    keys = list(by_identity)
                    x = rng.choice(by_identity[keys[ia]])
                    y = rng.choice(by_identity[keys[ib]])
                key = (min(x, y), max(x, y))
                if key in seen:
                    continue
                seen.add(key)
                a_all.append(x)
                b_all.append(y)
                gen_all.append(genuine)
                grp_all.append(g)
                got += 1

        draw(n_gen, True)
        draw(n_imp, False)
    return PairList(np.array(a_all), np.array(b_all),
                    np.array(gen_all), np.array(grp_all))
