"""Synthetic group-structured identity data: generation, splits, pair lists.

Each identity owns a prototype vector whose discriminative energy is split
between a subspace shared by all groups and a private subspace owned by the
identity's group. Samples are prototypes plus isotropic Gaussian noise with
a per-group noise level, so one group can be made intrinsically harder.
Everything is a pure function of (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class GroupTag:
    index: int
    name: str


@dataclass
class SampleSet:
    """Row-aligned feature matrix with identity labels and group indices.

    Holds raw input vectors or unit-norm embeddings; the binary container
    in `mstkd.store` serializes either.
    """

    values: np.ndarray        # [n, dim] float64
    identities: np.ndarray    # [n] int64
    groups: np.ndarray        # [n] int64 group index per row
    group_tags: list[GroupTag] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.identities = np.asarray(self.identities, dtype=np.int64)
        self.groups = np.asarray(self.groups, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def select(self, rows: np.ndarray) -> "SampleSet":
        return SampleSet(self.values[rows], self.identities[rows],
                         self.groups[rows], self.group_tags)

    def rows_of_group(self, g: int) -> np.ndarray:
        return np.nonzero(self.groups == g)[0]

    def rows_of_identities(self, ids: np.ndarray) -> np.ndarray:
        return np.nonzero(np.isin(self.identities, ids))[0]


@dataclass
class SyntheticDatasetSpec:
    groups: int = 4
    identities_per_group: int = 50
    samples_per_identity: int = 20
    input_dim: int = 64
    shared_dim: int = 6
    group_dim: int = 4
    shared_energy: float = 0.4
    intra_class_noise: tuple[float, ...] = (0.17, 0.15, 0.15, 0.15)
    validation_identities_per_group: int = 12
    test_identities_per_group: int = 12
    group_names: tuple[str, ...] | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.groups < 2:
            raise ConfigError("need at least 2 groups")
        if min(self.shared_dim, self.group_dim) < 1:   # _prototype normalizes each
            raise ConfigError("shared_dim and group_dim must be >= 1")
        if self.shared_dim + self.groups * self.group_dim > self.input_dim:
            raise ConfigError(
                "shared_dim + groups*group_dim exceeds input_dim "
                f"({self.shared_dim} + {self.groups}*{self.group_dim} > {self.input_dim})")
        if len(self.intra_class_noise) != self.groups:
            raise ConfigError("intra_class_noise needs one value per group")
        if any(s <= 0 for s in self.intra_class_noise):
            raise ConfigError("intra_class_noise values must be > 0")
        if min(self.identities_per_group, self.samples_per_identity,
               self.validation_identities_per_group,
               self.test_identities_per_group) < 1:
            raise ConfigError("counts must be positive")
        if not 0.0 < self.shared_energy < 1.0:
            raise ConfigError("shared_energy must lie in (0, 1)")
        if self.group_names is not None and len(set(self.group_names)) != self.groups:
            raise ConfigError("group_names must be unique, one per group")

    def tags(self) -> list[GroupTag]:
        names = self.group_names or tuple(f"g{i}" for i in range(self.groups))
        return [GroupTag(i, names[i]) for i in range(self.groups)]


@dataclass
class PairList:
    """Verification pairs referencing rows of one sample pool."""

    a: np.ndarray          # [n] row index of first sample
    b: np.ndarray          # [n] row index of second sample
    genuine: np.ndarray    # [n] bool
    group: np.ndarray      # [n] group index (both samples share it)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.int64)
        self.b = np.asarray(self.b, dtype=np.int64)
        self.genuine = np.asarray(self.genuine, dtype=bool)
        self.group = np.asarray(self.group, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def of_group(self, g: int) -> "PairList":
        m = self.group == g
        return PairList(self.a[m], self.b[m], self.genuine[m], self.group[m])


def _prototype(rng: np.random.Generator, spec: SyntheticDatasetSpec,
               g: int) -> np.ndarray:
    proto = np.zeros(spec.input_dim)
    shared = rng.normal(size=spec.shared_dim)
    shared *= np.sqrt(spec.shared_energy) / np.linalg.norm(shared)
    proto[:spec.shared_dim] = shared
    private = rng.normal(size=spec.group_dim)
    private *= np.sqrt(1.0 - spec.shared_energy) / np.linalg.norm(private)
    lo = spec.shared_dim + g * spec.group_dim
    proto[lo:lo + spec.group_dim] = private
    return proto


def _pool(rng, spec, tags, ids_per_group, first_identity) -> SampleSet:
    rows, ids, grp = [], [], []
    next_id = first_identity
    for g in range(spec.groups):
        for _ in range(ids_per_group):
            proto = _prototype(rng, spec, g)
            noise = rng.normal(size=(spec.samples_per_identity, spec.input_dim))
            rows.append(proto + spec.intra_class_noise[g] * noise)
            ids.extend([next_id] * spec.samples_per_identity)
            grp.extend([g] * spec.samples_per_identity)
            next_id += 1
    return SampleSet(np.concatenate(rows), np.array(ids), np.array(grp), tags)


def generate(spec: SyntheticDatasetSpec) -> tuple[SampleSet, SampleSet, SampleSet]:
    """Build (train, validation, test) pools with globally unique identities.

    Train identities are numbered group-major starting at 0; validation and
    test identities continue the numbering and are disjoint from training.
    """
    spec.validate()
    tags = spec.tags()
    rng = np.random.default_rng(spec.seed)
    train = _pool(rng, spec, tags, spec.identities_per_group, 0)
    n_train_ids = spec.groups * spec.identities_per_group
    val = _pool(rng, spec, tags, spec.validation_identities_per_group, n_train_ids)
    n_val_ids = spec.groups * spec.validation_identities_per_group
    test = _pool(rng, spec, tags, spec.test_identities_per_group,
                 n_train_ids + n_val_ids)
    return train, val, test


def split_specialized(train: SampleSet) -> list[np.ndarray]:
    """One subset per group, containing exactly that group's identities."""
    subsets = []
    for g in range(len(train.group_tags)):
        ids = np.unique(train.identities[train.groups == g])
        if ids.size == 0:
            raise ContractError(f"group {g} has no identities")
        subsets.append(ids)
    return subsets


def split_balanced(train: SampleSet, seed: int) -> list[np.ndarray]:
    """G subsets, each holding an equal share of every group's identities.

    Each group's `split_specialized` subset is dealt round-robin after a
    seeded shuffle, so remainders land on the lowest-index subsets.
    """
    g_count = len(train.group_tags)
    rng = np.random.default_rng(seed)
    subsets: list[list[int]] = [[] for _ in range(g_count)]
    for ids in split_specialized(train):
        rng.shuffle(ids)
        for j in range(g_count):
            subsets[j].extend(ids[j::g_count])
    return [np.sort(np.array(s)) for s in subsets]


def pair_capacity(samples: int, sum_sq: int) -> tuple[int, int]:
    """(genuine, impostor) distinct pairs of a group of `samples` samples
    whose per-identity sample counts have squares summing to `sum_sq`."""
    return (sum_sq - samples) // 2, (samples * samples - sum_sq) // 2


class _Draws:
    """The draws of `rng.integers(n)` and `rng.choice(n, 2, replace=False)`
    for n <= 2**32, value for value, made from the generator's raw 32-bit
    outputs, which are read in blocks: numpy spends one Python call per
    draw, and `build_pairs` makes thousands. The blocks run past the last
    draw used, so the generator must not be drawn from directly after."""

    _BLOCK = 4096

    def __init__(self, rng: np.random.Generator):
        self._rng, self._raw = rng, iter(())

    def integers(self, n: int) -> int:
        """Lemire's multiply-and-reject, as numpy does for n <= 2**32: the
        high word of `output * n` for the first raw output whose low word
        is >= n or, failing that, >= (2**32 - n) % n. n == 1 draws nothing."""
        if not 1 <= n <= 2**32:
            raise ContractError(f"n must lie in [1, 2**32], got {n}")
        if n == 1:
            return 0
        while True:
            u = next(self._raw, None)
            if u is None:   # the block is used up: read the next one
                self._raw = iter(self._rng.integers(0, 2**32, size=self._BLOCK,
                                                    dtype=np.uint32).tolist())
                continue
            m = u * n
            if m & 0xFFFFFFFF >= n or m & 0xFFFFFFFF >= (2**32 - n) % n:
                return m >> 32

    def choice2(self, n: int) -> tuple[int, int]:
        """Floyd's two picks of distinct values, then numpy's shuffle of
        the two."""
        a = self.integers(n - 1)
        b = self.integers(n)
        if b == a:
            b = n - 1
        return (b, a) if self.integers(2) == 0 else (a, b)


def build_pairs(pool: SampleSet, pairs_per_group: int, genuine_fraction: float,
                seed: int) -> PairList:
    """Per group: `pairs_per_group` pairs, a fixed fraction genuine.

    Genuine pairs are two distinct samples of one identity; impostor pairs
    are samples of two identities from the same group (random within-group
    sampling). No unordered pair appears twice. The pairs are those that
    `rng.integers` and `rng.choice` on `default_rng(seed)` give, drawn in
    bulk through `_Draws`.
    """
    if not 0.0 <= genuine_fraction <= 1.0:
        raise ConfigError("genuine_fraction must lie in [0, 1]")
    draws = _Draws(np.random.default_rng(seed))
    a_all, b_all, gen_all, grp_all = [], [], [], []
    for g in range(len(pool.group_tags)):
        rows = pool.rows_of_group(g)
        if rows.size == 0:
            raise ContractError(f"group {g} has no samples in the pool")
        ids = pool.identities[rows]
        members = [rows[ids == i].tolist() for i in np.unique(ids)]  # per identity
        multi = [r for r in members if len(r) >= 2]
        n_gen = round(pairs_per_group * genuine_fraction)
        n_imp = pairs_per_group - n_gen
        capacity = pair_capacity(rows.size,
                                 sum(len(r) ** 2 for r in members))
        for n, cap, kind in zip((n_gen, n_imp), capacity, ("genuine", "impostor")):
            if n > cap:   # checked first: drawing more than exist never ends
                raise ConfigError(
                    f"group {g}: {n} {kind} pairs requested, only {cap} exist")

        seen: set[tuple[int, int]] = set()

        def draw(n, genuine):
            got = 0
            while got < n:
                if genuine:
                    r = multi[draws.integers(len(multi))]
                    ia, ib = draws.choice2(len(r))
                    x, y = r[ia], r[ib]
                else:
                    ia, ib = draws.choice2(len(members))
                    ra, rb = members[ia], members[ib]
                    x = ra[draws.integers(len(ra))]
                    y = rb[draws.integers(len(rb))]
                key = (x, y) if x < y else (y, x)
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
