import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstkd import data as d
from mstkd import pipeline
from mstkd.errors import ConfigError, ContractError

import pairs_oracle


def small_spec(**overrides):
    base = dict(groups=4, identities_per_group=10, samples_per_identity=6,
                input_dim=32, shared_dim=8, group_dim=4,
                intra_class_noise=(0.06, 0.04, 0.04, 0.04),
                validation_identities_per_group=4,
                test_identities_per_group=4, seed=123)
    base.update(overrides)
    return d.SyntheticDatasetSpec(**base)


def test_generate_counts_and_labels():
    spec = d.SyntheticDatasetSpec(groups=4, identities_per_group=50,
                                  samples_per_identity=20, input_dim=64,
                                  shared_dim=24, group_dim=8,
                                  intra_class_noise=(0.06, 0.04, 0.04, 0.04),
                                  seed=1)
    train, val, test = d.generate(spec)
    assert train.n == 4000
    assert np.array_equal(np.unique(train.identities), np.arange(200))
    assert set(np.unique(val.identities)).isdisjoint(np.unique(train.identities))
    assert set(np.unique(test.identities)).isdisjoint(
        set(np.unique(train.identities)) | set(np.unique(val.identities)))


def test_generate_deterministic():
    t1, v1, s1 = d.generate(small_spec())
    t2, v2, s2 = d.generate(small_spec())
    for a, b in [(t1, t2), (v1, v2), (s1, s2)]:
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.identities, b.identities)
        assert np.array_equal(a.groups, b.groups)


def test_generate_rejects_bad_spec():
    with pytest.raises(ConfigError):
        d.generate(small_spec(group_dim=10))  # 8 + 4*10 > 32
    with pytest.raises(ConfigError):
        d.generate(small_spec(intra_class_noise=(0.1, 0.1, 0.1, 0.0)))
    for empty in ({"shared_dim": 0}, {"group_dim": 0}):  # rejected before any draw
        with pytest.raises(ConfigError, match="shared_dim and group_dim must be >= 1"):
            d.generate(small_spec(**empty))


def test_no_identity_spans_two_groups():
    train, val, test = d.generate(small_spec())
    for pool in (train, val, test):
        for ident in np.unique(pool.identities):
            assert np.unique(pool.groups[pool.identities == ident]).size == 1


def test_private_subspace_carries_group_information():
    """Nearest-prototype oracle: a group's own private block separates its
    identities better than another group's block."""
    spec = small_spec(samples_per_identity=10, intra_class_noise=(0.05,) * 4)
    train, _, _ = d.generate(spec)

    def block(g):
        lo = spec.shared_dim + g * spec.group_dim
        return slice(lo, lo + spec.group_dim)

    def nearest_prototype_accuracy(g, coords):
        rows = train.rows_of_group(g)
        x = train.values[rows][:, coords]
        ids = train.identities[rows]
        protos = {i: x[ids == i].mean(axis=0) for i in np.unique(ids)}
        keys = list(protos)
        mat = np.stack([protos[k] for k in keys])
        pred = np.array(keys)[
            np.argmin(((x[:, None, :] - mat[None]) ** 2).sum(-1), axis=1)]
        return float(np.mean(pred == ids))

    for g in range(spec.groups):
        own = nearest_prototype_accuracy(g, block(g))
        other = nearest_prototype_accuracy(g, block((g + 1) % spec.groups))
        assert own > other


def test_split_specialized_is_group_pure_partition():
    train, _, _ = d.generate(small_spec())
    subsets = d.split_specialized(train)
    all_ids = np.unique(train.identities)
    union = np.concatenate(subsets)
    assert np.array_equal(np.sort(union), all_ids)
    assert len(union) == len(set(union))
    for g, subset in enumerate(subsets):
        rows = train.rows_of_identities(subset)
        assert np.all(train.groups[rows] == g)


def test_split_balanced_histograms_uniform():
    spec = small_spec(identities_per_group=52)
    train, _, _ = d.generate(spec)
    subsets = d.split_balanced(train, seed=7)
    for subset in subsets:
        rows = train.rows_of_identities(subset)
        per_group = [np.unique(train.identities[rows][train.groups[rows] == g]).size
                     for g in range(4)]
        assert per_group == [13, 13, 13, 13]
    union = np.concatenate(subsets)
    assert np.array_equal(np.sort(union), np.unique(train.identities))


def test_split_balanced_remainder_round_robin():
    spec = small_spec(identities_per_group=10)  # 10 = 4*2 + 2
    train, _, _ = d.generate(spec)
    sizes = sorted(len(s) for s in d.split_balanced(train, seed=0))
    assert sum(sizes) == 40
    assert max(sizes) - min(sizes) <= 4  # at most one extra id per group


def test_split_balanced_seed_changes_assignment_not_histogram():
    spec = small_spec(identities_per_group=12)
    train, _, _ = d.generate(spec)
    s1 = d.split_balanced(train, seed=1)
    s2 = d.split_balanced(train, seed=2)
    assert any(not np.array_equal(a, b) for a, b in zip(s1, s2))
    for split in (s1, s2):
        for subset in split:
            rows = train.rows_of_identities(subset)
            hist = [np.unique(train.identities[rows][train.groups[rows] == g]).size
                    for g in range(4)]
            assert hist == [3, 3, 3, 3]


def test_build_pairs_counts_and_invariants():
    train, _, _ = d.generate(small_spec())
    pairs = d.build_pairs(train, pairs_per_group=100, genuine_fraction=0.5, seed=3)
    assert pairs.n == 400
    for g in range(4):
        pg = pairs.of_group(g)
        assert pg.n == 100
        assert int(pg.genuine.sum()) == 50
    # genuine <=> same identity; same group on both sides; no duplicates
    same_id = train.identities[pairs.a] == train.identities[pairs.b]
    assert np.array_equal(same_id, pairs.genuine)
    assert np.array_equal(train.groups[pairs.a], train.groups[pairs.b])
    assert np.array_equal(train.groups[pairs.a], pairs.group)
    keys = {(min(x, y), max(x, y)) for x, y in zip(pairs.a, pairs.b)}
    assert len(keys) == pairs.n


def test_build_pairs_benchmark_scale_totals():
    spec = small_spec(identities_per_group=40, samples_per_identity=14)
    train, _, _ = d.generate(spec)
    pairs = d.build_pairs(train, pairs_per_group=6000, genuine_fraction=0.5, seed=0)
    assert pairs.n == 24000


def test_build_pairs_insufficient_samples():
    train, _, _ = d.generate(small_spec(samples_per_identity=2,
                                        identities_per_group=2))
    with pytest.raises(ConfigError, match="900 genuine pairs requested, only 2 exist"):
        d.build_pairs(train, pairs_per_group=1000, genuine_fraction=0.9, seed=0)


def test_build_pairs_rejects_more_impostor_pairs_than_exist():
    """Two identities of two samples hold 4 impostor pairs per group; asking
    for 98 raises before drawing instead of searching for ever."""
    _, val, _ = d.generate(small_spec(validation_identities_per_group=2,
                                      samples_per_identity=2))

    def hung(signum, frame):
        raise TimeoutError("build_pairs did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        with pytest.raises(ConfigError, match="98 impostor pairs requested, only 4 exist"):
            d.build_pairs(val, 100, 0.02, seed=1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_pair_capacity_counts_every_distinct_pair():
    sizes = [3, 1, 4, 2]
    genuine = sum(s * (s - 1) // 2 for s in sizes)
    impostor = sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1:])
    assert d.pair_capacity(sum(sizes), sum(s * s for s in sizes)) == (genuine, impostor)


@pytest.mark.parametrize("genuine_fraction", [0.5, 0.2])
def test_build_pairs_draws_what_the_frozen_oracle_draws(genuine_fraction):
    """The validation and test pools of the tiny pipeline config over 20
    data seeds, and those of the default config (20 samples per identity,
    600 pairs per group) over 3: the same pairs, in the same order and
    dtypes, as `rng.choice(arr)` gave."""
    tiny = pipeline.config_from_dict({
        "dataset": {"identities_per_group": 8, "samples_per_identity": 6,
                    "validation_identities_per_group": 4,
                    "test_identities_per_group": 4},
        "pairs_per_group": 80})
    default = pipeline.config_from_dict({})
    for cfg, seeds in ((tiny, range(20)), (default, range(3))):
        spec, n = cfg.dataset, cfg.pairs_per_group
        for seed in seeds:
            spec.seed = seed
            _, val, test = d.generate(spec)
            for k, pool in enumerate((val, test)):
                got = d.build_pairs(pool, n, genuine_fraction, seed=seed + k)
                want = pairs_oracle.build_pairs(pool, n, genuine_fraction,
                                                seed=seed + k)
                for field in ("a", "b", "genuine", "group"):
                    x, y = getattr(got, field), getattr(want, field)
                    assert x.dtype == y.dtype and np.array_equal(x, y)


# both sides of numpy's 32-bit bounded draws; 2**31 + 1 rejects about half
# of its raw outputs
DRAW_SIZES = [1, 2, 3, 20, 48, 1000, 10001, 2**31 + 1, 2**32 - 1, 2**32]


def _same_draw(ours, theirs, pair, n):
    if pair and n >= 2:
        assert ours.choice2(n) == tuple(theirs.choice(n, 2, replace=False).tolist())
    else:
        assert ours.integers(n) == theirs.integers(n)


@given(seed=st.integers(0, 2**64 - 1),
       lead=st.sampled_from([0, 1, d._Draws._BLOCK - 1, d._Draws._BLOCK + 7]),
       calls=st.lists(st.tuples(st.booleans(),
                                st.sampled_from(DRAW_SIZES) | st.integers(1, 2**32)),
                      min_size=1, max_size=40))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_bulk_draws_equal_numpys_draws(seed, lead, calls):
    """`_Draws` gives what `rng.integers(n)` and `rng.choice(n, 2,
    replace=False)` give, call for call, over interleaved sequences that
    start `lead` raw outputs in, across a block's end; the draws that
    follow still agree."""
    ours, theirs = d._Draws(np.random.default_rng(seed)), np.random.default_rng(seed)
    assert [ours.integers(2**32) for _ in range(lead)] == theirs.integers(
        0, 2**32, size=lead, dtype=np.uint32).tolist()
    for pair, n in calls:
        _same_draw(ours, theirs, pair, n)
    for n in DRAW_SIZES:
        _same_draw(ours, theirs, False, n)


def test_bulk_draws_refuse_numpys_64_bit_ranges():
    draws = d._Draws(np.random.default_rng(0))
    for n in (0, 2**32 + 1):
        with pytest.raises(ContractError):
            draws.integers(n)
