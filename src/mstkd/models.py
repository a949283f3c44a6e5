"""Network assemblies: teacher, the three fusion adaptors, and the student.

Backbones are multilayer perceptrons with leaky-relu activations whose final
affine output is L2-normalized onto the unit hypersphere. Classification
headers are bias-free weight matrices whose rows are normalized at use time,
so header logits are cosine similarities in [-1, 1].

Parameters live in plain float64 arrays keyed by dotted names. Every
network is one `autodiff` layer stack: inference runs its `forward`, and
training runs the same `forward` keeping what its hand-written `backward`
needs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import store
from .autodiff import forward
from .data import GroupTag, SampleSet
from .errors import ConfigError, ContractError, FormatError

ADAPTOR_KINDS = ("SL", "DuL", "DLDPO")
STUDENT_MODES = ("eaf_kd", "a_kd")   # with / without the classification term
DROPOUT_P = 0.2


@dataclass
class BackboneConfig:
    input_dim: int = 64
    hidden: tuple[int, ...] = (128,)
    embedding_dim: int = 32
    slope: float = 0.01

    def __post_init__(self):
        self.hidden = tuple(self.hidden)

    def validate(self) -> None:
        if self.embedding_dim < 2:
            raise ConfigError("embedding_dim must be >= 2")
        if not self.hidden:
            raise ConfigError("backbone needs at least one hidden layer")
        if min((self.input_dim,) + tuple(self.hidden)) < 1:
            raise ConfigError("layer sizes must be positive")
        if not 0.0 <= self.slope < 1.0:
            raise ConfigError(f"backbone slope must lie in [0, 1), got {self.slope}")


@dataclass
class TeacherModel:
    cfg: BackboneConfig
    params: dict[str, np.ndarray]
    assigned_group: GroupTag
    class_ids: np.ndarray          # global identity per local class index
    best_epoch: int = 0

    def embed(self, x: np.ndarray) -> np.ndarray:
        return forward(self.params, "backbone", self.cfg.slope, x)


@dataclass
class AdaptorModel:
    kind: str
    n_teachers: int
    emb_dim: int
    params: dict[str, np.ndarray]
    slope: float = 0.01
    dropout_p: float = DROPOUT_P
    best_epoch: int = 0


@dataclass
class StudentModel:
    cfg: BackboneConfig
    mode: str                      # one of STUDENT_MODES
    params: dict[str, np.ndarray]
    class_ids: Optional[np.ndarray] = None   # None in a_kd mode

    def embed(self, x: np.ndarray) -> np.ndarray:
        return forward(self.params, "backbone", self.cfg.slope, x)


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _shapes(model) -> dict[str, tuple[int, ...]]:
    """The parameter shapes of `model`'s network, in draw order: its layer
    stack, then the classification header of a model with `class_ids`."""
    if isinstance(model, AdaptorModel):
        prefix, dims = "adaptor", [model.n_teachers * model.emb_dim, model.emb_dim]
        dims += [model.emb_dim] if model.kind in ("DuL", "DLDPO") else []
    else:
        cfg = model.cfg
        prefix, dims = "backbone", [cfg.input_dim, *cfg.hidden, cfg.embedding_dim]
    shapes = {}
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        shapes[f"{prefix}.{i}.W"], shapes[f"{prefix}.{i}.b"] = (din, dout), (dout,)
    if getattr(model, "class_ids", None) is not None:
        shapes["header.W"] = (len(model.class_ids), model.cfg.embedding_dim)
    return shapes


def _drawn(model, seed: int):
    """`model` with new parameters, drawn in order from one stream:
    Kaiming-uniform weights, zero biases and a row-normalized header."""
    rng = np.random.default_rng(seed)
    for name, shape in _shapes(model).items():
        if name == "header.W":
            model.params[name] = init_header(rng, *shape)
        elif name.endswith(".W"):
            model.params[name] = _kaiming_uniform(rng, shape[0], shape)
        else:
            model.params[name] = np.zeros(shape)
    return model


def init_header(rng: np.random.Generator, n_classes: int, dim: int) -> np.ndarray:
    """Classification header rows: unit Gaussian draws, row-normalized."""
    w = rng.normal(size=(n_classes, dim))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def new_teacher(cfg: BackboneConfig, class_ids: np.ndarray, group: GroupTag,
                seed: int) -> TeacherModel:
    cfg.validate()
    return _drawn(TeacherModel(cfg, {}, group, np.asarray(class_ids, dtype=np.int64)),
                  seed)


def new_adaptor(kind: str, n_teachers: int, emb_dim: int, seed: int) -> AdaptorModel:
    if kind not in ADAPTOR_KINDS:
        raise ConfigError(f"unknown adaptor kind {kind!r}; expected {ADAPTOR_KINDS}")
    return _drawn(AdaptorModel(kind, n_teachers, emb_dim, {}), seed)


def new_student(cfg: BackboneConfig, mode: str,
                class_ids: Optional[np.ndarray], seed: int) -> StudentModel:
    cfg.validate()
    if mode not in STUDENT_MODES:
        raise ConfigError(f"unknown student mode {mode!r}; expected {STUDENT_MODES}")
    if mode == "eaf_kd":
        if class_ids is None:
            raise ConfigError("eaf_kd student needs the training identity list")
        class_ids = np.asarray(class_ids, dtype=np.int64)
    else:
        class_ids = None
    return _drawn(StudentModel(cfg, mode, {}, class_ids), seed)


def adaptor_forward(a: AdaptorModel, fused: np.ndarray) -> np.ndarray:
    """Frozen adaptor: the unit-norm fused embedding of each row."""
    return forward(a.params, "adaptor", a.slope, fused)


def fuse_inputs(sets: list[SampleSet]) -> np.ndarray:
    """Concatenate aligned teacher embedding sets into [n, G*D] rows, one
    block per set in the caller's order. All sets must cover the same
    samples in the same row order."""
    if not sets:
        raise ContractError("fuse_inputs needs at least one embedding set")
    n = sets[0].n
    for s in sets[1:]:
        if s.n != n:
            raise ContractError("embedding sets are not aligned (row counts differ)")
        if not np.array_equal(s.identities, sets[0].identities):
            raise ContractError("embedding sets are not aligned (labels differ)")
    return np.concatenate([s.values for s in sets], axis=1)


# --- checkpoint persistence ------------------------------------------------

def save_teacher(t: TeacherModel, path) -> None:
    meta = {"kind": "teacher", "backbone": asdict(t.cfg),
            "group_index": t.assigned_group.index, "group_name": t.assigned_group.name,
            "class_ids": t.class_ids.tolist(), "best_epoch": t.best_epoch}
    store.save_params(path, t.params, meta)


def load_teacher(path) -> TeacherModel:
    params, m = _checked_meta(path, "teacher", _TEACHER_META)
    return _checked_params(TeacherModel(
        BackboneConfig(**m["backbone"]), params,
        GroupTag(m["group_index"], m["group_name"]),
        np.array(m["class_ids"], dtype=np.int64), m["best_epoch"]), path)


def save_adaptor(a: AdaptorModel, path) -> None:
    meta = {"kind": "adaptor", "adaptor_kind": a.kind, "n_teachers": a.n_teachers,
            "emb_dim": a.emb_dim, "slope": a.slope, "dropout_p": a.dropout_p,
            "best_epoch": a.best_epoch}
    store.save_params(path, a.params, meta)


def load_adaptor(path) -> AdaptorModel:
    params, m = _checked_meta(path, "adaptor", _ADAPTOR_META)
    return _checked_params(AdaptorModel(
        m["adaptor_kind"], m["n_teachers"], m["emb_dim"], params, m["slope"],
        m["dropout_p"], m["best_epoch"]), path)


def save_student(s: StudentModel, path) -> None:
    meta = {"kind": "student", "backbone": asdict(s.cfg), "mode": s.mode,
            "class_ids": None if s.class_ids is None else s.class_ids.tolist()}
    store.save_params(path, s.params, meta)


def load_student(path) -> StudentModel:
    params, m = _checked_meta(path, "student", _STUDENT_META)
    ids = m["class_ids"]
    if (m["mode"] == "eaf_kd") != (ids is not None):   # only eaf_kd keeps its ids
        raise FormatError(f"{path}: checkpoint meta.mode {m['mode']!r} does not "
                          "match meta.class_ids")
    return _checked_params(StudentModel(
        BackboneConfig(**m["backbone"]), m["mode"], params,
        None if ids is None else np.array(ids, dtype=np.int64)), path)


# the field table of each kind's checkpoint meta (`store.checked`)
def _is_fraction(v) -> bool:   # a slope or a dropout probability
    return store.is_number(v) and 0 <= v < 1


_IDS = store.list_of(store.is_int)
_BACKBONE_META = {"input_dim": store.is_int, "hidden": _IDS,
                  "embedding_dim": store.is_int, "slope": _is_fraction}
_TEACHER_META = {"backbone": _BACKBONE_META, "group_index": store.is_int,
                 "group_name": store.is_str, "class_ids": _IDS,
                 "best_epoch": store.is_int}
_ADAPTOR_META = {"adaptor_kind": lambda v: v in ADAPTOR_KINDS,
                 "n_teachers": store.is_int, "emb_dim": store.is_int,
                 "slope": _is_fraction, "dropout_p": _is_fraction,
                 "best_epoch": store.is_int}
_STUDENT_META = {"backbone": _BACKBONE_META, "mode": lambda v: v in STUDENT_MODES,
                 "class_ids": lambda v: v is None or _IDS(v)}


def _checked_meta(path, kind: str, fields: dict) -> tuple[dict, dict]:
    """(parameters, the checked `fields` of the meta) of the checkpoint at
    `path`; a checkpoint of another kind is a FormatError naming the file."""
    params, meta = store.load_params(path)
    if meta.get("kind") != kind:
        raise FormatError(f"{path}: checkpoint holds a {meta.get('kind')!r}, "
                          f"expected a {kind}")
    return params, store.checked(meta, fields, f"{path}: checkpoint meta")


def _checked_params(model, path):
    """A loaded `model`, whose parameters must be those of the network its
    meta describes (`_shapes`): a missing, extra or misshapen parameter is
    a FormatError naming the file and the parameter."""
    shapes = _shapes(model)
    for name in {**shapes, **model.params}:
        have = model.params[name].shape if name in model.params else "absent"
        want = shapes.get(name, "absent")
        if have != want:
            raise FormatError(f"{path}: parameter {name} is {have} in the file, "
                              f"{want} in the network its meta describes")
    return model
