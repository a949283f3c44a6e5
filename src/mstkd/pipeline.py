"""Experiment orchestration: config, run manifest, and pipeline stages.

One JSON config drives every stage. `STAGES` is the pipeline as data, in
run order gen-data -> train-teachers -> extract -> train-adaptor ->
train-student -> evaluate: each stage names its upstream stages, the
artifacts it writes and the body that writes them. One driver runs every
stage the same way: it checks that the upstream stages' manifest records
are current (`_stale`), skips the stage when its own is (unless forced),
and records the digests of what the body wrote; a record that differs
from the stage's old one drops the records of every later stage. Within
one `run_all` call the manifest is opened once and each artifact is
hashed once. Each kind of trained model has one list of stems, and its
training stage runs one job per stem, in one pool of forked workers per
command; the command writes every result in job order, under the job's
stem. Every file of a run, its logs and manifest too, is a pure function
of the config, the same at any worker count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
import signal
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import data, models, store, training
from .errors import ConfigError, ContractError, FormatError, MissingArtifactError, naming
from .evaluation import (FairnessReport, compare_reports, evaluate_embeddings,
                         render_table, report_from_json, report_to_json)
from .losses import EafConfig


@dataclass
class Seeds:
    data: int = 0
    init: int = 1
    train: int = 2


@dataclass
class ExperimentConfig:
    """The config schema: every key, its default and its type.

    `config_from_dict` and `config_to_dict` read and write these fields
    (and those of the nested dataclasses) as JSON, `lam` under the key
    "lambda". `dataset.seed` and the backbones' `input_dim` are not
    written: they follow `seeds.data` and `dataset.input_dim`.
    """

    dataset: data.SyntheticDatasetSpec = field(
        default_factory=data.SyntheticDatasetSpec)
    split: str = "specialized"
    backbone: models.BackboneConfig = field(default_factory=models.BackboneConfig)
    teacher_backbone: Optional[models.BackboneConfig] = None
    adaptors: tuple[str, ...] = models.ADAPTOR_KINDS
    student_modes: tuple[str, ...] = models.STUDENT_MODES
    schedule_scale: float = 0.25
    batch_size: int = 128
    momentum: float = 0.9
    decay_factor: float = 10.0
    eaf: EafConfig = field(default_factory=EafConfig)
    lam: float = 10000.0
    fusion_order: Optional[tuple[int, ...]] = None
    pairs_per_group: int = 600
    genuine_fraction: float = 0.5
    seeds: Seeds = field(default_factory=Seeds)
    out_dir: str = "runs/default"

    def __post_init__(self):
        self.dataset.seed = self.seeds.data
        for backbone in (self.backbone, self.teacher_backbone):
            if backbone is not None:
                backbone.input_dim = self.dataset.input_dim

    def validate(self) -> None:
        self.dataset.validate()
        # gen-data's output is bounded: 8 bytes per pool value, 32 per pair
        d = self.dataset
        values = d.groups * d.samples_per_identity * d.input_dim * (
            d.identities_per_group + d.validation_identities_per_group
            + d.test_identities_per_group)
        size = 8 * values + 32 * 2 * d.groups * self.pairs_per_group
        if size > 2 ** 30:
            raise ConfigError(f"gen-data's pools and pair lists come to {size} "
                              "bytes, over the limit of 2**30")
        if self.split not in ("specialized", "balanced"):
            raise ConfigError(f"split must be specialized|balanced, got {self.split!r}")
        self.backbone.validate()
        self.teacher_cfg().validate()
        # the student mimics the adaptor, whose output has the teachers' width
        if self.teacher_cfg().embedding_dim != self.backbone.embedding_dim:
            raise ConfigError(
                f"teacher_backbone.embedding_dim {self.teacher_cfg().embedding_dim} "
                f"must equal backbone.embedding_dim {self.backbone.embedding_dim}")
        if min(dataclasses.astuple(self.seeds)) < 0:
            raise ConfigError(f"seeds must be non-negative, got {self.seeds}")
        for key, known in (("adaptors", models.ADAPTOR_KINDS),
                           ("student_modes", models.STUDENT_MODES)):
            values = list(getattr(self, key))
            unknown = [v for v in values if v not in known]
            if unknown or not values:
                raise ConfigError(f"{key} must be one or more of {list(known)}, "
                                  f"not {unknown or values}")
            if len(set(values)) < len(values):   # else two models share a stem
                raise ConfigError(f"{key} must not repeat an entry, got {values}")
        # every network a run draws is bounded too: 8 bytes per parameter,
        # counted on undrawn models with one header row per training identity
        ids = range(d.groups * d.identities_per_group)
        emb = self.backbone.embedding_dim
        networks = {
            "teacher": models._shapes(
                models.TeacherModel(self.teacher_cfg(), {}, None, ids)),
            "student": models._shapes(models.StudentModel(self.backbone, None, {}, ids)),
            **{f"{kind} adaptor": {   # with the header it trains alongside
                **models._shapes(models.AdaptorModel(kind, d.groups, emb, {})),
                "header.W": (len(ids), emb)} for kind in self.adaptors}}
        for name, shapes in networks.items():
            size = 8 * sum(map(math.prod, shapes.values()))
            if size > 2 ** 30:
                raise ConfigError(f"the {name} network comes to {size} bytes, "
                                  "over the limit of 2**30")
        self.eaf.validate()
        if self.lam <= 0:
            raise ConfigError("lambda must be > 0")
        # data.build_pairs draws this many genuine pairs per group, the rest impostors
        n_genuine = round(self.pairs_per_group * self.genuine_fraction)
        if not 1 <= n_genuine < self.pairs_per_group:
            raise ConfigError("pairs_per_group and genuine_fraction must give "
                              "each group at least one genuine and one impostor pair")
        s = self.dataset.samples_per_identity
        for pool in ("validation", "test"):
            k = getattr(self.dataset, f"{pool}_identities_per_group")
            for n, cap, kind in zip((n_genuine, self.pairs_per_group - n_genuine),
                                    data.pair_capacity(k * s, k * s * s),
                                    ("genuine", "impostor")):
                if n > cap:
                    raise ConfigError(f"{n} {kind} pairs per group requested, the "
                                      f"{pool} pool has only {cap}")
        if self.fusion_order is not None and (
                sorted(self.fusion_order) != list(range(self.dataset.groups))):
            raise ConfigError("fusion_order must be a permutation of the teachers")
        for phase in ("teacher", "adaptor", "student"):
            self.optim(phase, 0).validate()

    def teacher_cfg(self) -> models.BackboneConfig:
        return self.teacher_backbone or self.backbone

    def model_seeds(self, phase: str, k: int) -> tuple[int, int]:
        """(init seed, training seed) of job `k` of `phase`'s training stage:
        teacher k, adaptor k, or student k, which distills adaptor
        k // modes in mode k % modes."""
        i, j = divmod(k, len(self.student_modes))
        offset = {"teacher": k, "adaptor": 100 + k, "student": 200 + 10 * i + j}[phase]
        return self.seeds.init + offset, self.seeds.train + offset

    def optim(self, phase: str, seed: int) -> training.OptimConfig:
        base = {"teacher": training.TEACHER_PHASE,
                "adaptor": training.ADAPTOR_PHASE,
                "student": training.STUDENT_PHASE}[phase]
        lr0, epochs, decays = training.scale_phase(*base, self.schedule_scale)
        return training.OptimConfig(lr0, epochs, decays, self.decay_factor,
                                    self.momentum, self.batch_size, seed)


# --- config codec: the dataclasses above are the schema ----------------------

_JSON_KEYS = {"lam": "lambda"}
# set by ExperimentConfig.__post_init__, so neither read nor written
_DERIVED = {(data.SyntheticDatasetSpec, "seed"), (models.BackboneConfig, "input_dim")}


@functools.cache
def _schema(cls) -> tuple[tuple[str, str, object], ...]:
    """(JSON key, field name, annotation) of each field `cls` keeps in JSON."""
    hints = typing.get_type_hints(cls)
    return tuple((_JSON_KEYS.get(f.name, f.name), f.name, hints[f.name])
                 for f in dataclasses.fields(cls) if (cls, f.name) not in _DERIVED)


def _decode(tp, value, where: str):
    """`value` checked against the annotation `tp`; dataclasses are built
    from JSON objects (null or a missing key takes the default)."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # Optional
        if value is None:
            return None
        (tp,) = (arg for arg in typing.get_args(tp) if arg is not type(None))
    if dataclasses.is_dataclass(tp):
        value = {} if value is None else value
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object, got {value!r}")
        schema = _schema(tp)
        unknown = set(value) - {key for key, _, _ in schema}
        if unknown:
            raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
        return tp(**{name: _decode(sub, value[key], f"{where}.{key}")
                     for key, name, sub in schema if key in value})
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    # a float field takes an int as it is (the config hash sees what was given)
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if tp is float else tp):
        raise ConfigError(f"{where} must be {tp.__name__}, got {value!r}")
    if tp is float and not -math.inf < value < math.inf:  # JSON admits NaN, Infinity
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def _encode(value):
    """JSON-ready copy of a decoded value: dataclasses become dicts, tuples lists."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return {key: _encode(getattr(value, name))
            for key, name, _ in _schema(type(value))}


def default_config_dict() -> dict:
    """The desk-scale default experiment, as a plain JSON-ready dict."""
    return config_to_dict(ExperimentConfig())


def config_from_dict(doc: dict) -> ExperimentConfig:
    cfg = _decode(ExperimentConfig, doc, "config")
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _encode(cfg)


def load_config(path, seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    if seed_override is not None:
        doc["seeds"] = dataclasses.asdict(
            Seeds(seed_override, seed_override + 1, seed_override + 2))
    if out_override is not None:
        doc["out_dir"] = out_override
    return config_from_dict(doc)


def _run_config(cfg: ExperimentConfig) -> dict:
    """The config without `out_dir`, which a run's hash and its config copy
    hold: runs are relocatable."""
    doc = config_to_dict(cfg)
    doc.pop("out_dir")
    return doc


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(_run_config(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --- run files: every run-relative path is spelled here once -----------------

MANIFEST, CONFIG_COPY = "manifest.json", "config.json"
POOLS = ("train", "validation", "test")
PAIR_LISTS = ("validation", "test")


def _pool(name: str) -> str:
    return f"dataset/{name}.mste"


def _pairs(name: str) -> str:
    return f"dataset/pairs_{name}.txt"


# The trained models of each kind, as stems in job order: training job i
# writes stem i's checkpoint and log.

def _teachers(cfg: ExperimentConfig) -> list[str]:
    return [f"teachers/teacher_{g}" for g in range(cfg.dataset.groups)]


def _adaptors(cfg: ExperimentConfig) -> list[str]:
    return [f"adaptors/{kind}" for kind in cfg.adaptors]


def _students(cfg: ExperimentConfig) -> list[str]:
    """Student k distills adaptor k // modes in mode k % modes."""
    return [f"students/{kind}_{mode}"
            for kind in cfg.adaptors for mode in cfg.student_modes]


def _trained(stem: str) -> tuple[str, str]:
    """(checkpoint, training log) of one trained model."""
    return f"{stem}.ckpt", f"{stem}.log.jsonl"


def _embeddings(teacher: str) -> str:
    return teacher.replace("teachers/", "embeddings/", 1) + ".mste"


def _report(student: str) -> tuple[str, str]:
    """(JSON report, text table) of one student."""
    stem = student.replace("students/", "reports/", 1)
    return f"{stem}.json", f"{stem}.txt"


# --- manifest ----------------------------------------------------------------

_MANIFEST = {"config_hash": store.is_str,
             "stages": {"*": {"artifacts": {"*": store.is_str}}}}


def load_manifest(out: Path) -> Optional[dict]:
    path = out / MANIFEST
    if not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return store.checked(json.load(fh), _MANIFEST, "manifest")
    except (ValueError, FormatError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path} is not a run manifest ({exc}); "
                          "run-all --force rebuilds the run") from exc


def _open_manifest(out: Path, cfg: ExperimentConfig, reset: bool) -> dict:
    h = config_hash(cfg)
    manifest = None if reset else load_manifest(out)
    if manifest is None:
        return {"config_hash": h, "stages": {}}
    if manifest["config_hash"] != h:
        raise ConfigError(
            f"config hash mismatch for {out}: manifest has "
            f"{manifest['config_hash'][:12]}..., config gives {h[:12]}...; "
            "use a fresh --out directory (or run-all --force) for a new config")
    return manifest


# --- stage bodies: each writes its stage's artifacts, returns its summary ----

def _load_pool(cfg: ExperimentConfig, out: Path, name: str) -> data.SampleSet:
    return store.load_sample_set(out / _pool(name), cfg.dataset.tags())


def _load_embedding_sets(cfg: ExperimentConfig, out: Path,
                         train: data.SampleSet) -> list[data.SampleSet]:
    """The teachers' embeddings of the train pool `train`, in the fusion
    order the trainers take; a set that does not hold train's rows (count,
    identities and groups, in order) at the teachers' embedding width is a
    FormatError naming its file."""
    teachers, tags = _teachers(cfg), cfg.dataset.tags()
    width, sets = cfg.teacher_cfg().embedding_dim, []
    for g in cfg.fusion_order or range(cfg.dataset.groups):
        path = out / _embeddings(teachers[g])
        s = store.load_sample_set(path, tags)
        if (s.n, s.dim) != (train.n, width):
            raise FormatError(f"{path}: {s.n} x {s.dim} embeddings, the train pool "
                              f"embedded at the teachers' width is {train.n} x {width}")
        if not (np.array_equal(s.identities, train.identities)
                and np.array_equal(s.groups, train.groups)):
            raise FormatError(f"{path}: the identities or groups of its rows are "
                              "not those of the train pool")
        sets.append(s)
    return sets


def _stem_check(path: Path, what: str, have, want) -> None:
    """A model loaded from `path` must be the one its stem names: its
    `what` (group index, adaptor kind or student mode) is `want`."""
    if have != want:
        raise FormatError(f"{path}: checkpoint holds the model of {what} {have!r}, "
                          f"its file name stands for {what} {want!r}")


def _gen_data(cfg: ExperimentConfig, out: Path, run: _Run) -> str:
    train, val, test = data.generate(cfg.dataset)
    pair_lists = [data.build_pairs(pool, cfg.pairs_per_group,
                                   cfg.genuine_fraction, seed=cfg.seeds.data + k)
                  for k, pool in ((1, val), (2, test))]
    for name, pool in zip(POOLS, (train, val, test)):
        store.save_sample_set(pool, out / _pool(name))
    for name, pairs in zip(PAIR_LISTS, pair_lists):
        store.save_pairs(pairs, out / _pairs(name))
    return (f"wrote {train.n} train / {val.n} validation / {test.n} test "
            f"samples to {(out / _pool('train')).parent}")


# Each training stage is one per-model job for each stem of its kind's
# model list. A job is a pure function of (validated config, run directory,
# index): it loads its inputs from the run directory and returns (model,
# epoch log), which the stage body saves under the stem of that index, in
# job order, so every write happens in the command's own process. Only the
# training call is named after the stem: a fault in an input that every job
# reads names its file, not the first model.

def _train_one_teacher(cfg: ExperimentConfig, out: Path, g: int):
    train, val = _load_pool(cfg, out, "train"), _load_pool(cfg, out, "validation")
    empty = set(range(cfg.dataset.groups)) - set(train.groups.tolist())
    if empty:   # a rewritten pool: every generated group has samples
        raise FormatError(f"{out / _pool('train')}: group {min(empty)} has no samples")
    val_pairs = store.load_pairs(out / _pairs("validation"), val)
    split = (data.split_specialized(train) if cfg.split == "specialized"
             else data.split_balanced(train, cfg.seeds.data))
    subset = train.select(train.rows_of_identities(split[g]))
    init_seed, train_seed = cfg.model_seeds("teacher", g)
    with naming(_teachers(cfg)[g]):
        return training.train_teacher(
            subset, train.group_tags[g], cfg.teacher_cfg(), cfg.eaf,
            cfg.optim("teacher", train_seed), val, val_pairs, init_seed)


def _train_one_adaptor(cfg: ExperimentConfig, out: Path, i: int):
    sets = _load_embedding_sets(cfg, out, _load_pool(cfg, out, "train"))
    init_seed, train_seed = cfg.model_seeds("adaptor", i)
    with naming(_adaptors(cfg)[i]):
        return training.train_adaptor(cfg.adaptors[i], sets, cfg.eaf,
                                      cfg.optim("adaptor", train_seed), init_seed)


def _train_one_student(cfg: ExperimentConfig, out: Path, k: int):
    i, j = divmod(k, len(cfg.student_modes))
    path = out / _trained(_adaptors(cfg)[i])[0]
    adaptor = models.load_adaptor(path)
    _stem_check(path, "kind", adaptor.kind, cfg.adaptors[i])
    train = _load_pool(cfg, out, "train")
    sets = _load_embedding_sets(cfg, out, train)
    init_seed, train_seed = cfg.model_seeds("student", k)
    with naming(_students(cfg)[k]):
        return training.train_student(
            cfg.student_modes[j], adaptor, sets, train, cfg.lam, cfg.eaf,
            cfg.backbone, cfg.optim("student", train_seed), init_seed)


def _training_stage(stems_of, job, save):
    """(artifacts, body) of the stage that trains the models `stems_of(cfg)`:
    job i's model and log are saved under stem i."""
    def artifacts(cfg: ExperimentConfig) -> list[str]:
        return [p for stem in stems_of(cfg) for p in _trained(stem)]

    def body(cfg: ExperimentConfig, out: Path, run: _Run) -> str:
        stems = stems_of(cfg)
        for stem, (model, records) in zip(stems, run.map(job, cfg, range(len(stems)))):
            ckpt, log = _trained(stem)
            save(model, out / ckpt)
            training.write_log(records, out / log)
        return f"{len(stems)} models -> {(out / stems[0]).parent}"
    return artifacts, body


def _extract(cfg: ExperimentConfig, out: Path, run: _Run) -> str:
    train = _load_pool(cfg, out, "train")
    stems = _teachers(cfg)
    for g, stem in enumerate(stems):   # one teacher and its embeddings at a time
        path = out / _trained(stem)[0]
        teacher = models.load_teacher(path)
        _stem_check(path, "group index", teacher.assigned_group.index, g)
        with naming(stem):
            (embedded,) = training.extract_embeddings([teacher], train)
        store.save_sample_set(embedded, out / _embeddings(stem))
        del teacher, embedded
    return (f"{len(stems)} x {train.n} embeddings -> "
            f"{(out / _embeddings(stems[0])).parent}")


def _evaluate(cfg: ExperimentConfig, out: Path, run: _Run) -> str:
    test = _load_pool(cfg, out, "test")
    test_pairs = store.load_pairs(out / _pairs("test"), test)
    modes = len(cfg.student_modes)
    for k, stem in enumerate(_students(cfg)):
        path = out / _trained(stem)[0]
        student = models.load_student(path)
        _stem_check(path, "mode", student.mode, cfg.student_modes[k % modes])
        with naming(stem):
            report = evaluate_embeddings(student.embed(test.values), test, test_pairs)
        jpath, tpath = _report(stem)
        label = f"{cfg.adaptors[k // modes]} ({cfg.student_modes[k % modes]})"
        store.write_text_atomic(out / jpath, report_to_json(report))
        store.write_text_atomic(out / tpath, render_table([(label, report)]))
    return f"reports -> {(out / jpath).parent}"


# --- the stage table and its driver ------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One pipeline stage. `artifacts(cfg)` lists the run-relative paths
    the stage writes, logs included; `body(cfg, out, run)` writes them and
    returns the text of the stage's summary line. A training body runs its
    per-model jobs through `run.map`."""

    name: str
    upstream: tuple[str, ...]
    artifacts: Callable[[ExperimentConfig], list[str]]
    body: Callable[[ExperimentConfig, Path, _Run], str]


# in run order; every stage's upstream comes before it
STAGES = {stage.name: stage for stage in (
    Stage("gen-data", (),
          lambda cfg: [_pool(p) for p in POOLS] + [_pairs(p) for p in PAIR_LISTS],
          _gen_data),
    Stage("train-teachers", ("gen-data",),
          *_training_stage(_teachers, _train_one_teacher, models.save_teacher)),
    Stage("extract", ("gen-data", "train-teachers"),
          lambda cfg: [_embeddings(t) for t in _teachers(cfg)],
          _extract),
    Stage("train-adaptor", ("extract",),
          *_training_stage(_adaptors, _train_one_adaptor, models.save_adaptor)),
    Stage("train-student", ("gen-data", "extract", "train-adaptor"),
          *_training_stage(_students, _train_one_student, models.save_student)),
    Stage("evaluate", ("gen-data", "train-student"),
          lambda cfg: [p for s in _students(cfg) for p in _report(s)],
          _evaluate),
)}


def _worker_limit() -> int:
    """The most worker processes one job list may use: the usable cores
    (all cores where the OS has no affinity call), capped by MSTKD_WORKERS
    when it is set."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    raw = os.environ.get("MSTKD_WORKERS")
    if raw is None:
        return cores
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"MSTKD_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"MSTKD_WORKERS must be at least 1, got {workers}")
    return min(workers, cores)


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """`workers` forked processes, which start without re-importing numpy
    and mstkd. A fork-context pool forks every worker when it takes its
    first job, before it starts threads of its own. The workers ignore
    SIGINT: an interrupt reaches the command's own process, which shuts
    the pool down."""
    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=signal.signal,
                               initargs=(signal.SIGINT, signal.SIG_IGN))


# getter/setter name patterns of the OpenBLAS builds numpy wheels link
_OPENBLAS_THREADS = ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "scipy_openblas_{}_num_threads64_")


@functools.cache
def _openblas_threads():
    """The `(get, set)` thread-count functions of the OpenBLAS numpy links,
    or None when numpy links another BLAS; looked up on first use. The
    lookup goes through numpy's own linalg extension, which finds the
    library it links even when scipy has loaded an OpenBLAS of its own."""
    # local imports: at module level they moved the bench's `reembed` peak
    # RSS to its higher heap-layout mode
    import ctypes
    from numpy.linalg import _umath_linalg
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for pattern in _OPENBLAS_THREADS:
        get = getattr(lib, pattern.format("get"), None)
        set_ = getattr(lib, pattern.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@dataclass
class _Run:
    """A run directory as the stages of one command see it: the manifest,
    opened by the first stage, each artifact's digest, hashed at most once
    per command, and the worker pool of the command's training jobs. The
    worker limit is read when the command starts, before any write; the
    pool is made on the first job list that can use two workers. The
    first job list pins the command to one OpenBLAS thread, before any
    worker forks, for the rest of the command, its inference included.
    Leaving the `with` block shuts the pool down and then restores the
    caller's count, also when the command fails or is interrupted; a
    command that trains nothing keeps the caller's count."""

    out: Path
    manifest: Optional[dict] = None
    digests: dict[str, str] = field(default_factory=dict)
    workers: int = field(default_factory=_worker_limit)
    pool: Optional[ProcessPoolExecutor] = None
    _pinned: bool = False
    # undone last in, first out: the pool's shutdown, then the BLAS pin
    _cleanup: contextlib.ExitStack = field(default_factory=contextlib.ExitStack)

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, *exc) -> None:
        self._cleanup.close()
        self.pool = None

    def map(self, job, cfg: ExperimentConfig, indices: range):
        """`job(cfg, run directory, i)` for each i in `indices`, results in
        that order; in this process when one worker is all the list can use."""
        if not self._pinned and _openblas_threads() is not None:
            get, set_ = _openblas_threads()
            self._cleanup.callback(set_, get())
            set_(1)
        self._pinned = True
        fn = functools.partial(job, cfg, self.out)
        workers = min(self.workers, len(indices))
        if workers < 2:
            return map(fn, indices)
        if self.pool is None:
            self.pool = _new_pool(workers)
            self._cleanup.callback(self.pool.shutdown, cancel_futures=True)
        return self.pool.map(fn, indices)

    def digest(self, rel: str) -> Optional[str]:
        """sha256 of the artifact `rel` (None if it is not a file)."""
        if rel not in self.digests:
            path = self.out / rel
            if not path.is_file():
                return None
            self.digests[rel] = store.sha256_file(path)
        return self.digests[rel]


def _stale(stage: Stage, cfg: ExperimentConfig, run: _Run) -> list[str]:
    """The artifacts that keep `stage`'s manifest record from being current:
    each declared artifact that is unrecorded, missing or changed, then each
    recorded path that the stage does not declare, which is never hashed.
    A stage with no record has every declared artifact unrecorded."""
    recorded = run.manifest["stages"].get(stage.name, {"artifacts": {}})["artifacts"]
    declared = stage.artifacts(cfg)
    return ([rel for rel in declared
             if recorded.get(rel) is None or recorded[rel] != run.digest(rel)]
            + [rel for rel in recorded if rel not in declared])


def _drive(stage: Stage, cfg: ExperimentConfig, force: bool, run: _Run) -> Path:
    """Run `stage` in `cfg.out_dir`, or skip it when its record is current.

    Fails, writing nothing, when an upstream stage's record is absent or
    not current (`_stale`); every directory is made just before the first
    write. A run records the digest of every declared artifact in the
    manifest; a declared artifact the body did not write is a ContractError.
    A run whose record differs from the one it replaces drops the record of
    every later stage, so nothing built from the old artifacts stays current.
    """
    out = run.out
    if run.manifest is None:
        # forcing a stage that has no upstream starts a fresh manifest
        run.manifest = _open_manifest(out, cfg, reset=force and not stage.upstream)
    records = run.manifest["stages"]
    for up in stage.upstream:
        missing = _stale(STAGES[up], cfg, run)
        if missing:
            raise MissingArtifactError(
                f"stage {stage.name!r} needs {up!r}, whose artifacts in {out} are "
                f"unrecorded, missing or modified: {missing}")
    if not force and not _stale(stage, cfg, run):
        print(f"[mstkd] {stage.name}: up to date in {out}, skipping "
              "(use --force to redo)")
        return out
    artifacts = stage.artifacts(cfg)
    for directory in sorted({(out / rel).parent for rel in artifacts}):
        directory.mkdir(parents=True, exist_ok=True)
    store.write_json_atomic(out / CONFIG_COPY, _run_config(cfg))
    store.write_json_atomic(out / MANIFEST, run.manifest)
    summary = stage.body(cfg, out, run)
    missing = [rel for rel in artifacts if not (out / rel).exists()]
    if missing:
        raise ContractError(f"stage {stage.name!r} did not write {missing}")
    fresh = {rel: store.sha256_file(out / rel) for rel in artifacts}
    run.digests.update(fresh)
    if records.get(stage.name) != {"artifacts": fresh}:
        # every stage's upstream comes before it, so its dependents are among these
        names = list(STAGES)
        for name in names[names.index(stage.name) + 1:]:
            records.pop(name, None)
    records[stage.name] = {"artifacts": fresh}
    store.write_json_atomic(out / MANIFEST, run.manifest)
    print(f"[mstkd] {stage.name}: {summary}")
    return out


def _command(name: str):
    def cmd(cfg: ExperimentConfig, force: bool = False,
            run: Optional[_Run] = None) -> Path:
        # a stage run alone is a command of its own, with its own pool
        own = _Run(Path(cfg.out_dir)) if run is None else contextlib.nullcontext(run)
        with own as run:
            return _drive(STAGES[name], cfg, force, run)

    cmd.__name__ = cmd.__qualname__ = "cmd_" + name.replace("-", "_")
    return cmd


def run_all(cfg: ExperimentConfig, force: bool = False) -> Path:
    """Every stage in order, sharing one manifest, one digest cache and
    one worker pool."""
    with _Run(Path(cfg.out_dir)) as run:
        for name in STAGES:
            COMMANDS[name](cfg, force, run)
    return run.out


# The CLI's subcommands. Callers reach the stage commands through this dict
# or the module names below, never through a saved reference, so that a
# wrapper installed here (a tracer, a test double) sees every call.
COMMANDS = {**{name: _command(name) for name in STAGES}, "run-all": run_all}
cmd_gen_data = COMMANDS["gen-data"]
cmd_train_teachers = COMMANDS["train-teachers"]
cmd_extract = COMMANDS["extract"]
cmd_train_adaptor = COMMANDS["train-adaptor"]
cmd_train_student = COMMANDS["train-student"]
cmd_evaluate = COMMANDS["evaluate"]


# --- cross-run report --------------------------------------------------------

def load_report(path: Path) -> FairnessReport:
    try:
        return report_from_json(path.read_text(encoding="utf-8"))
    except (ValueError, FormatError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path} is not a fairness report ({exc})") from exc


def _run_label(run_dir: Path) -> str:
    path = run_dir / CONFIG_COPY
    if not path.exists():
        raise MissingArtifactError(f"{run_dir} has no {CONFIG_COPY}; run stages first")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        store.checked(doc, {"split": lambda v: v in ("specialized", "balanced")}, "config")
    except (ValueError, FormatError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path} is not a run config ({exc})") from exc
    return "Ours" if doc["split"] == "specialized" else "Baseline"


def cmd_report(cfg: ExperimentConfig, run_dirs: list[str],
               out_override: Optional[str] = None) -> Path:
    """Combine evaluated runs into per-mode comparison tables.

    Rows are grouped by run (specialized runs labeled Ours, balanced runs
    Baseline) with one row per adaptor kind, mirroring the per-mode student
    result tables; the best value per column is starred within each block.
    """
    runs = [Path(r) for r in run_dirs]
    if not runs:
        raise ConfigError("report needs at least one evaluated run directory")
    labels = [_run_label(run) for run in runs]
    # every report is read before anything is written
    modes = len(cfg.student_modes)
    rows_of_mode: dict[str, list[tuple[str, FairnessReport]]] = {}
    for j, mode in enumerate(cfg.student_modes):
        rows = rows_of_mode[mode] = []
        for run, label in zip(runs, labels):
            for kind, student in zip(cfg.adaptors, _students(cfg)[j::modes]):
                path = run / _report(student)[0]
                if not path.exists():
                    raise MissingArtifactError(
                        f"missing report {path}; run evaluate on {run} first")
                rows.append((f"{label}-{kind}", load_report(path)))
    out = Path(out_override) if out_override else Path(cfg.out_dir) / "comparison"
    out.mkdir(parents=True, exist_ok=True)
    for mode, rows in rows_of_mode.items():
        table = render_table(rows, blocks=[len(cfg.adaptors)] * len(runs))
        store.write_text_atomic(out / f"students_{mode}.txt", table)
        # per-adaptor deltas between the first specialized and first balanced
        # run: reversed, so the first row of each label is the one kept
        by_label = dict(reversed(rows))
        deltas = {}
        for kind in cfg.adaptors:
            ours, base = by_label.get(f"Ours-{kind}"), by_label.get(f"Baseline-{kind}")
            if ours is not None and base is not None:
                deltas[kind] = compare_reports(ours, base)
        store.write_json_atomic(out / f"students_{mode}.json", {
            "mode": mode,
            "rows": [{"label": label, "report": json.loads(report_to_json(r))}
                     for label, r in rows],
            "ours_minus_baseline": deltas})
        print(f"[mstkd] report ({mode}):\n{table}", end="")
    return out
