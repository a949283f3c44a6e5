"""Experiment orchestration: config, run manifest, and pipeline stages.

One JSON config drives every stage. Stages run in the order
gen-data -> train-teachers -> extract -> train-adaptor -> train-student ->
evaluate (their inputs are listed in `UPSTREAM`); each stage checks that
its upstream artifacts exist on disk with the hashes recorded in the
manifest, skips itself when its own artifacts are already present (unless
forced), and registers everything it writes. Within one `run_all` call
each artifact is hashed once. All artifacts are pure functions of
(config, seeds), so re-runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import __version__, data, models, store, training
from .errors import ConfigError, ContractError, FormatError, MissingArtifactError
from .evaluation import (FairnessReport, compare_reports, evaluate_embeddings,
                         render_table, report_from_json, report_to_json)
from .losses import EafConfig, StudentLossConfig

STAGES = ("gen-data", "train-teachers", "extract", "train-adaptor",
          "train-student", "evaluate")
UPSTREAM = {
    "gen-data": (),
    "train-teachers": ("gen-data",),
    "extract": ("gen-data", "train-teachers"),
    "train-adaptor": ("extract",),
    "train-student": ("gen-data", "extract", "train-adaptor"),
    "evaluate": ("gen-data", "train-student"),
}


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
    student_modes: tuple[str, ...] = ("eaf_kd", "a_kd")
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
        if self.split not in ("specialized", "balanced"):
            raise ConfigError(f"split must be specialized|balanced, got {self.split!r}")
        self.backbone.validate()
        self.teacher_cfg().validate()
        for kind in self.adaptors:
            if kind not in models.ADAPTOR_KINDS:
                raise ConfigError(f"unknown adaptor kind {kind!r}")
        for mode in self.student_modes:
            if mode not in ("eaf_kd", "a_kd"):
                raise ConfigError(f"unknown student mode {mode!r}")
        if not self.adaptors or not self.student_modes:
            raise ConfigError("need at least one adaptor kind and one student mode")
        try:
            self.eaf.validate()
        except ContractError as exc:
            raise ConfigError(f"eaf: {exc}") from None
        if self.lam <= 0:
            raise ConfigError("lambda must be > 0")
        if self.fusion_order is not None and (
                sorted(self.fusion_order) != list(range(self.dataset.groups))):
            raise ConfigError("fusion_order must be a permutation of the teachers")
        for phase in ("teacher", "adaptor", "student"):
            self.optim(phase, 0).validate()

    def teacher_cfg(self) -> models.BackboneConfig:
        return self.teacher_backbone or self.backbone

    def resolved_fusion_order(self) -> list[int]:
        return list(self.fusion_order or range(self.dataset.groups))

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


def config_hash(cfg: ExperimentConfig) -> str:
    doc = config_to_dict(cfg)
    doc.pop("out_dir")  # runs are relocatable
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --- manifest ----------------------------------------------------------------

def _manifest_path(out: Path) -> Path:
    return out / "manifest.json"


def load_manifest(out: Path) -> Optional[dict]:
    path = _manifest_path(out)
    if not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path} is not valid JSON ({exc}); "
                          "run-all --force rebuilds the run") from exc
    if not (isinstance(manifest, dict) and "config_hash" in manifest
            and isinstance(manifest.get("stages"), dict)
            and all(isinstance(record, dict)
                    and isinstance(record.get("artifacts"), dict)
                    for record in manifest["stages"].values())):
        raise FormatError(f"{path} lacks config_hash or per-stage artifacts; "
                          "run-all --force rebuilds the run")
    return manifest


def _save_manifest(out: Path, manifest: dict) -> None:
    with open(_manifest_path(out), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _open_manifest(out: Path, cfg: ExperimentConfig, reset: bool = False) -> dict:
    h = config_hash(cfg)
    manifest = None if reset else load_manifest(out)
    if manifest is None:
        return {"config_hash": h, "tool_version": __version__,
                "fusion_order": cfg.resolved_fusion_order(), "stages": {}}
    if manifest["config_hash"] != h:
        raise ConfigError(
            f"config hash mismatch for {out}: manifest has "
            f"{manifest['config_hash'][:12]}..., config gives {h[:12]}...; "
            "use a fresh --out directory (or run-all --force) for a new config")
    return manifest


def _digest(digests: dict[Path, str], path: Path) -> Optional[str]:
    """sha256 of `path` (None if absent), hashed at most once per `digests`."""
    if path not in digests:
        if not path.exists():
            return None
        digests[path] = store.sha256_file(path)
    return digests[path]


def _stage_ok(manifest: dict, stage: str, out: Path,
              digests: dict[Path, str]) -> bool:
    record = manifest["stages"].get(stage)
    return record is not None and all(
        _digest(digests, out / rel) == digest
        for rel, digest in record["artifacts"].items())


def _expected_artifacts(cfg: ExperimentConfig, stage: str) -> list[str]:
    if stage == "gen-data":
        return [f"dataset/{n}" for n in ("train.mste", "validation.mste",
                                         "test.mste", "pairs_validation.txt",
                                         "pairs_test.txt")]
    if stage == "train-teachers":
        return [f"teachers/teacher_{g}.ckpt" for g in range(cfg.dataset.groups)]
    if stage == "extract":
        return [f"embeddings/teacher_{g}.mste" for g in range(cfg.dataset.groups)]
    if stage == "train-adaptor":
        return [f"adaptors/{k}.ckpt" for k in cfg.adaptors]
    if stage == "train-student":
        return [f"students/{k}_{m}.ckpt" for k in cfg.adaptors
                for m in cfg.student_modes]
    return [f"reports/{k}_{m}.json" for k in cfg.adaptors
            for m in cfg.student_modes]


def _require_upstream(manifest: dict, stage: str, out: Path,
                      cfg: ExperimentConfig, digests: dict[Path, str]) -> None:
    for up in UPSTREAM[stage]:
        record = manifest["stages"].get(up)
        if record is None:
            raise MissingArtifactError(
                f"stage {stage!r} needs {up!r}, which has not run in {out}; "
                f"expected artifacts: {_expected_artifacts(cfg, up)}")
        missing = [rel for rel, digest in record["artifacts"].items()
                   if _digest(digests, out / rel) != digest]
        if missing:
            raise MissingArtifactError(
                f"stage {stage!r} needs {up!r} artifacts, but these are "
                f"missing or modified: {missing}")


def _record_stage(stage: str, out: Path, paths: list[Path],
                  digests: Optional[dict[Path, str]]) -> None:
    """Hash what the stage just wrote into the manifest that `_run_stage`
    opened; the new digests replace cached ones."""
    fresh = {p: store.sha256_file(p) for p in sorted(paths)}
    if digests is not None:
        digests.update(fresh)
    manifest = load_manifest(out)
    manifest["stages"][stage] = {
        "artifacts": {str(p.relative_to(out)): d for p, d in fresh.items()}}
    _save_manifest(out, manifest)


def _write_config_copy(out: Path, cfg: ExperimentConfig) -> None:
    doc = config_to_dict(cfg)
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- stage bodies ------------------------------------------------------------

def _dataset_paths(out: Path) -> dict[str, Path]:
    d_dir = out / "dataset"
    return {"train": d_dir / "train.mste",
            "validation": d_dir / "validation.mste",
            "test": d_dir / "test.mste",
            "pairs_validation": d_dir / "pairs_validation.txt",
            "pairs_test": d_dir / "pairs_test.txt"}


def _load_pools(cfg: ExperimentConfig, out: Path):
    paths = _dataset_paths(out)
    tags = cfg.dataset.tags()
    train = store.load_sample_set(paths["train"], tags)
    val = store.load_sample_set(paths["validation"], tags)
    test = store.load_sample_set(paths["test"], tags)
    val_pairs = store.load_pairs(paths["pairs_validation"])
    test_pairs = store.load_pairs(paths["pairs_test"])
    return train, val, test, val_pairs, test_pairs


def _split_of(cfg: ExperimentConfig, train: data.SampleSet) -> data.DataSplit:
    if cfg.split == "specialized":
        return data.split_specialized(train)
    return data.split_balanced(train, cfg.seeds.data)


def _teacher_path(out: Path, g: int) -> Path:
    return out / "teachers" / f"teacher_{g}.ckpt"


def _run_stage(stage: str, cfg: ExperimentConfig, out: Path, force: bool,
               digests: Optional[dict[Path, str]], reset: bool = False) -> bool:
    """Common prologue; returns False when the stage can be skipped.

    `digests` caches artifact hashes across the stages of one `run_all`
    call; a stage run on its own passes None and hashes afresh."""
    digests = {} if digests is None else digests
    out.mkdir(parents=True, exist_ok=True)
    manifest = _open_manifest(out, cfg, reset=reset)
    _require_upstream(manifest, stage, out, cfg, digests)
    if not force and _stage_ok(manifest, stage, out, digests):
        print(f"[mstkd] {stage}: up to date in {out}, skipping (use --force to redo)")
        return False
    _write_config_copy(out, cfg)
    _save_manifest(out, manifest)
    return True


def cmd_gen_data(cfg: ExperimentConfig, force: bool = False,
                 digests: Optional[dict[Path, str]] = None) -> Path:
    out = Path(cfg.out_dir)
    if not _run_stage("gen-data", cfg, out, force, digests, reset=force):
        return out
    train, val, test = data.generate(cfg.dataset)
    val_pairs = data.build_pairs(val, cfg.pairs_per_group, cfg.genuine_fraction,
                                 seed=cfg.seeds.data + 1)
    test_pairs = data.build_pairs(test, cfg.pairs_per_group, cfg.genuine_fraction,
                                  seed=cfg.seeds.data + 2)
    paths = _dataset_paths(out)
    store.ensure_dir(out / "dataset")
    store.save_sample_set(train, paths["train"])
    store.save_sample_set(val, paths["validation"])
    store.save_sample_set(test, paths["test"])
    store.save_pairs(val_pairs, paths["pairs_validation"])
    store.save_pairs(test_pairs, paths["pairs_test"])
    _record_stage("gen-data", out, list(paths.values()), digests)
    print(f"[mstkd] gen-data: wrote {train.n} train / {val.n} validation / "
          f"{test.n} test samples to {out / 'dataset'}")
    return out


def _train_one_teacher(cfg_doc: dict, out_dir: str, g: int) -> list[str]:
    """Worker body for one teacher; safe to run in a separate process."""
    cfg = config_from_dict(cfg_doc)
    out = Path(out_dir)
    train, val, _, val_pairs, _ = _load_pools(cfg, out)
    split = _split_of(cfg, train)
    subset = train.select(train.rows_of_identities(split.subsets[g]))
    optim = cfg.optim("teacher", cfg.seeds.train + g)
    teacher, records = training.train_teacher(
        subset, train.group_tags[g], cfg.teacher_cfg(), cfg.eaf, optim,
        val, val_pairs, init_seed=cfg.seeds.init + g)
    ckpt = _teacher_path(out, g)
    log = out / "teachers" / f"teacher_{g}.log.jsonl"
    models.save_teacher(teacher, ckpt)
    training.write_log(records, log)
    return [str(ckpt), str(log)]


def cmd_train_teachers(cfg: ExperimentConfig, force: bool = False,
                       digests: Optional[dict[Path, str]] = None) -> Path:
    out = Path(cfg.out_dir)
    if not _run_stage("train-teachers", cfg, out, force, digests):
        return out
    store.ensure_dir(out / "teachers")
    try:
        workers = int(os.environ.get("MSTKD_WORKERS", "1"))
    except ValueError:
        raise ConfigError("MSTKD_WORKERS must be an integer, got "
                          f"{os.environ['MSTKD_WORKERS']!r}") from None
    doc = config_to_dict(cfg)
    written: list[Path] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, cfg.dataset.groups)) as ex:
            futures = [ex.submit(_train_one_teacher, doc, str(out), g)
                       for g in range(cfg.dataset.groups)]
            for fut in futures:
                written.extend(Path(p) for p in fut.result())
    else:
        for g in range(cfg.dataset.groups):
            written.extend(Path(p) for p in _train_one_teacher(doc, str(out), g))
    _record_stage("train-teachers", out, written, digests)
    print(f"[mstkd] train-teachers: {cfg.dataset.groups} {cfg.split} teachers -> "
          f"{out / 'teachers'}")
    return out


def cmd_extract(cfg: ExperimentConfig, force: bool = False,
                digests: Optional[dict[Path, str]] = None) -> Path:
    out = Path(cfg.out_dir)
    if not _run_stage("extract", cfg, out, force, digests):
        return out
    train, _, _, _, _ = _load_pools(cfg, out)
    teachers = [models.load_teacher(_teacher_path(out, g))
                for g in range(cfg.dataset.groups)]
    sets = training.extract_embeddings(teachers, train)
    store.ensure_dir(out / "embeddings")
    written = []
    for g, s in enumerate(sets):
        path = out / "embeddings" / f"teacher_{g}.mste"
        store.save_sample_set(s, path)
        written.append(path)
    _record_stage("extract", out, written, digests)
    print(f"[mstkd] extract: {len(sets)} x {sets[0].n} embeddings -> "
          f"{out / 'embeddings'}")
    return out


def _load_embedding_sets(cfg: ExperimentConfig, out: Path) -> list[data.SampleSet]:
    tags = cfg.dataset.tags()
    return [store.load_sample_set(out / "embeddings" / f"teacher_{g}.mste", tags)
            for g in range(cfg.dataset.groups)]


def cmd_train_adaptor(cfg: ExperimentConfig, force: bool = False,
                      digests: Optional[dict[Path, str]] = None) -> Path:
    out = Path(cfg.out_dir)
    if not _run_stage("train-adaptor", cfg, out, force, digests):
        return out
    sets = _load_embedding_sets(cfg, out)
    store.ensure_dir(out / "adaptors")
    written = []
    for i, kind in enumerate(cfg.adaptors):
        optim = cfg.optim("adaptor", cfg.seeds.train + 100 + i)
        adaptor, records = training.train_adaptor(
            kind, sets, cfg.eaf, optim, init_seed=cfg.seeds.init + 100 + i,
            fusion_order=cfg.resolved_fusion_order())
        ckpt = out / "adaptors" / f"{kind}.ckpt"
        log = out / "adaptors" / f"{kind}.log.jsonl"
        models.save_adaptor(adaptor, ckpt)
        training.write_log(records, log)
        written.extend([ckpt, log])
    _record_stage("train-adaptor", out, written, digests)
    print(f"[mstkd] train-adaptor: {list(cfg.adaptors)} -> {out / 'adaptors'}")
    return out


def cmd_train_student(cfg: ExperimentConfig, force: bool = False,
                      digests: Optional[dict[Path, str]] = None) -> Path:
    out = Path(cfg.out_dir)
    if not _run_stage("train-student", cfg, out, force, digests):
        return out
    train, _, _, _, _ = _load_pools(cfg, out)
    sets = _load_embedding_sets(cfg, out)
    store.ensure_dir(out / "students")
    written = []
    for i, kind in enumerate(cfg.adaptors):
        adaptor = models.load_adaptor(out / "adaptors" / f"{kind}.ckpt")
        for j, mode in enumerate(cfg.student_modes):
            optim = cfg.optim("student", cfg.seeds.train + 200 + 10 * i + j)
            student, records = training.train_student(
                mode, adaptor, sets, train,
                StudentLossConfig(cfg.lam, mode), cfg.eaf, cfg.backbone, optim,
                init_seed=cfg.seeds.init + 200 + 10 * i + j,
                fusion_order=cfg.resolved_fusion_order())
            ckpt = out / "students" / f"{kind}_{mode}.ckpt"
            log = out / "students" / f"{kind}_{mode}.log.jsonl"
            models.save_student(student, ckpt)
            training.write_log(records, log)
            written.extend([ckpt, log])
    _record_stage("train-student", out, written, digests)
    print(f"[mstkd] train-student: {len(cfg.adaptors) * len(cfg.student_modes)} "
          f"students -> {out / 'students'}")
    return out


def cmd_evaluate(cfg: ExperimentConfig, force: bool = False,
                 digests: Optional[dict[Path, str]] = None) -> Path:
    out = Path(cfg.out_dir)
    if not _run_stage("evaluate", cfg, out, force, digests):
        return out
    _, _, test, _, test_pairs = _load_pools(cfg, out)
    store.ensure_dir(out / "reports")
    written = []
    for kind in cfg.adaptors:
        for mode in cfg.student_modes:
            student = models.load_student(out / "students" / f"{kind}_{mode}.ckpt")
            report = evaluate_embeddings(student.embed(test.values), test,
                                         test_pairs)
            jpath = out / "reports" / f"{kind}_{mode}.json"
            tpath = out / "reports" / f"{kind}_{mode}.txt"
            jpath.write_text(report_to_json(report), encoding="utf-8")
            tpath.write_text(render_table([(f"{kind} ({mode})", report)]),
                             encoding="utf-8")
            written.extend([jpath, tpath])
    _record_stage("evaluate", out, written, digests)
    print(f"[mstkd] evaluate: reports -> {out / 'reports'}")
    return out


def _run_label(run_dir: Path) -> str:
    with open(run_dir / "config.json", encoding="utf-8") as fh:
        split = json.load(fh)["split"]
    return "Ours" if split == "specialized" else "Baseline"


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
    for run in runs:
        if not (run / "config.json").exists():
            raise MissingArtifactError(f"{run} has no config.json; run stages first")
    out = Path(out_override) if out_override else Path(cfg.out_dir) / "comparison"
    store.ensure_dir(out)
    written = []
    for mode in cfg.student_modes:
        rows: list[tuple[str, FairnessReport]] = []
        blocks = []
        for run in runs:
            label = _run_label(run)
            block = 0
            for kind in cfg.adaptors:
                path = run / "reports" / f"{kind}_{mode}.json"
                if not path.exists():
                    raise MissingArtifactError(
                        f"missing report {path}; run evaluate on {run} first")
                rows.append((f"{label}-{kind}",
                             report_from_json(path.read_text(encoding="utf-8"))))
                block += 1
            blocks.append(block)
        table = render_table(rows, blocks=blocks)
        tpath = out / f"students_{mode}.txt"
        tpath.write_text(table, encoding="utf-8")
        doc = {"mode": mode,
               "rows": [{"label": label, "report": json.loads(report_to_json(r))}
                        for label, r in rows]}
        # per-adaptor deltas between the first specialized and first balanced run
        by_label = dict(rows)
        deltas = {}
        for kind in cfg.adaptors:
            ours, base = by_label.get(f"Ours-{kind}"), by_label.get(f"Baseline-{kind}")
            if ours is not None and base is not None:
                deltas[kind] = compare_reports(ours, base)["deltas"]
        doc["ours_minus_baseline"] = deltas
        jpath = out / f"students_{mode}.json"
        with open(jpath, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.extend([tpath, jpath])
        print(f"[mstkd] report ({mode}):\n{table}", end="")
    return out


def run_all(cfg: ExperimentConfig, force: bool = False) -> Path:
    digests: dict[Path, str] = {}  # lives for this call only
    for cmd in (cmd_gen_data, cmd_train_teachers, cmd_extract,
                cmd_train_adaptor, cmd_train_student, cmd_evaluate):
        cmd(cfg, force, digests)
    return Path(cfg.out_dir)
