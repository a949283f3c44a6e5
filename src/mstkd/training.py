"""Optimization engine: SGD with momentum, stepwise LR decay, and the three
training procedures (teachers, adaptor, student).

Teachers train under the angular-margin loss and keep the epoch checkpoint
with the best verification accuracy on their assigned group's validation
pairs (ties go to the earliest epoch). Adaptors train on concatenated
frozen-teacher embeddings with their own disposable classification header
and keep the epoch with the lowest mean training loss. Students mimic the
fused target space, computed once from the same teacher embeddings
(optionally plus classification), and keep the final epoch. One loop logs
and keeps epochs for all three; a trainer gives it its step and its score.
Each model's parameters live in one flat buffer, so an SGD step is three
vector operations and a kept epoch one copy. Each step runs its network's
`autodiff.forward` keeping what the hand-written `autodiff.backward` needs;
frozen networks run the same forward keeping nothing. The loop has one
divergence rule: the first non-finite loss or gradient stops training with
`DivergenceError` (exit 4); no batch is ever skipped. All shuffling,
margins, and dropout draw from generators derived from the configured
seeds, so a full run is bit-reproducible.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import losses, models, store
from .autodiff import backward, forward
from .data import GroupTag, PairList, SampleSet
from .errors import ConfigError, ContractError, DivergenceError
from .evaluation import verification_accuracy
from .losses import EafConfig
from .models import AdaptorModel, BackboneConfig, StudentModel, TeacherModel


@dataclass
class OptimConfig:
    lr0: float
    epochs: int
    decay_epochs: tuple[int, ...]
    decay_factor: float = 10.0
    momentum: float = 0.9
    batch_size: int = 128
    seed: int = 0

    def validate(self) -> None:
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be > 0")
        if not self.decay_factor > 0:
            raise ConfigError("decay_factor must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if any(b <= a for a, b in zip(self.decay_epochs, self.decay_epochs[1:])):
            raise ConfigError("decay_epochs must be strictly increasing")
        if any(d < 1 or d >= self.epochs for d in self.decay_epochs):
            raise ConfigError("decay_epochs must lie in [1, epochs)")


# published schedules: (lr0, epochs, decay epochs)
TEACHER_PHASE = (0.1, 52, (16, 28, 40, 50))
STUDENT_PHASE = (0.1, 26, (8, 14, 20, 25))
ADAPTOR_PHASE = (1.0, 26, (8, 14, 20, 25))


def scale_phase(lr0: float, epochs: int, decay_epochs: tuple[int, ...],
                scale: float) -> tuple[float, int, tuple[int, ...]]:
    """Shrink a schedule proportionally for desk-scale runs.

    Epoch counts and decay epochs scale and round down; decay epochs are
    kept strictly increasing (at least 1 apart) and must stay below the
    final epoch count, dropping any that cannot.
    """
    if not 0 < scale <= 1:
        raise ConfigError(f"schedule scale {scale} must lie in (0, 1]")
    new_epochs = max(1, math.floor(epochs * scale))
    scaled = []
    prev = 0
    for d in decay_epochs:
        nd = max(math.floor(d * scale), prev + 1)
        if nd < new_epochs:
            scaled.append(nd)
            prev = nd
    return lr0, new_epochs, tuple(scaled)


def lr_at_epoch(cfg: OptimConfig, epoch: int) -> float:
    """lr0 divided by decay_factor once per decay epoch reached (1-based)."""
    return cfg.lr0 / cfg.decay_factor ** sum(1 for d in cfg.decay_epochs
                                             if d <= epoch)


class SgdMomentum:
    """Heavy-ball SGD over one flat buffer: v <- momentum*v + g; p <- p - lr*v.

    The parameters are concatenated once into `flat` and each `params[name]`
    is rebound to its view of it, so a step is three vector operations
    however many parameters the model has.
    """

    def __init__(self, params: dict[str, np.ndarray], momentum: float = 0.9):
        self.params = params
        self.momentum = momentum
        self.flat = np.concatenate([p.ravel() for p in params.values()],
                                   dtype=np.float64)
        self.velocity = np.zeros_like(self.flat)
        offset = 0
        for name, p in params.items():
            params[name] = self.flat[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        """One update in place; a wrongly shaped or non-finite gradient
        raises naming its parameter and leaves every parameter as it was."""
        for name, p in self.params.items():
            if grads[name].shape != p.shape:
                raise ContractError(f"gradient shape mismatch for {name}")
        g = np.concatenate([grads[name].ravel() for name in self.params])
        if not np.isfinite(g).all():
            bad = next(n for n in self.params if not np.isfinite(grads[n]).all())
            raise DivergenceError(f"non-finite gradient in {bad}")
        self.velocity *= self.momentum
        self.velocity += g
        self.flat -= lr * self.velocity


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Seeded shuffle covering every index exactly once; last batch kept."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


@dataclass
class TrainLogRecord:
    epoch: int
    mean_loss: float
    lr: float
    val_acc: Optional[dict[str, float]] = None
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {"epoch": self.epoch, "mean_loss": self.mean_loss, "lr": self.lr,
               "val_acc": self.val_acc, "wall_time": self.wall_time}
        doc.update(self.extras)
        return json.dumps(doc, sort_keys=True)


def write_log(records: list[TrainLogRecord], path) -> None:
    store.write_text_atomic(path, "".join(rec.to_json() + "\n" for rec in records))


def _rng_streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _train_loop(params: dict[str, np.ndarray], optim: OptimConfig, n: int,
                shuffle_rng: np.random.Generator, step, score=None,
                ) -> tuple[list[TrainLogRecord], int]:
    """The one training loop; returns the epoch log and the kept epoch,
    whose values `params` (rebound to views of one flat buffer) then hold.

    `step(params, batch)` returns one batch's `(loss, terms, grads)`: the
    loss to minimize, scalar terms logged as `mean_<term>` and every
    parameter's gradient. The first non-finite loss raises `DivergenceError`
    naming its epoch and batch (both 1-based). `score(means)` returns an
    epoch's `(value, val_acc)`; the highest value is kept (ties: earliest),
    and without `score` the final epoch.
    """
    optim.validate()
    if n < 1:
        raise ContractError("training needs at least one sample")
    opt = SgdMomentum(params, optim.momentum)
    records, best, kept_epoch, kept = [], -np.inf, optim.epochs, None
    for epoch in range(1, optim.epochs + 1):
        t0 = time.perf_counter()
        lr = lr_at_epoch(optim, epoch)
        logged: dict[str, list[float]] = {}
        batches = epoch_batches(n, optim.batch_size, shuffle_rng)
        for i, batch in enumerate(batches, 1):
            loss, terms, grads = step(params, batch)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss ({loss}) at epoch {epoch}, batch {i}")
            for key, value in {"loss": loss, **terms}.items():
                logged.setdefault(key, []).append(value)
            opt.step(grads, lr)
        means = {key: float(np.mean(v)) for key, v in logged.items()}
        value, val_acc = score(means) if score else (-np.inf, None)
        if value > best:
            best, kept_epoch, kept = value, epoch, opt.flat.copy()
        extras = {f"mean_{key}": v for key, v in means.items() if key != "loss"}
        records.append(TrainLogRecord(epoch, means["loss"], lr, val_acc,
                                      time.perf_counter() - t0, extras))
    if kept is not None:
        opt.flat[:] = kept
    return records, kept_epoch


def _margin_step(prefix: str, slope: float, inputs: np.ndarray,
                 labels: np.ndarray, eaf_cfg: EafConfig,
                 margin_rng: np.random.Generator, dropout_p: float = 0.0,
                 dropout_rng: Optional[np.random.Generator] = None):
    """The training step of a `prefix` stack under the angular-margin loss
    against the classification header `header.W`."""
    def step(params, batch):
        emb, saved = forward(params, prefix, slope, inputs[batch], True,
                             dropout_p, dropout_rng)
        loss, g_emb, g_header = losses.elastic_arcface(
            emb, params["header.W"], labels[batch], eaf_cfg, rng=margin_rng)
        grads = backward(params, prefix, saved, g_emb)
        grads["header.W"] = g_header
        return loss, {}, grads
    return step


def train_teacher(subset: SampleSet, group: GroupTag, backbone_cfg: BackboneConfig,
                  eaf_cfg: EafConfig, optim: OptimConfig, val_pool: SampleSet,
                  val_pairs: PairList, init_seed: int,
                  ) -> tuple[TeacherModel, list[TrainLogRecord]]:
    """Train one teacher on its subset; keep the epoch checkpoint with the
    best own-group validation verification accuracy (ties: earliest)."""
    class_ids, local_labels = np.unique(subset.identities, return_inverse=True)
    model = models.new_teacher(backbone_cfg, class_ids, group, init_seed)
    shuffle_rng, margin_rng = _rng_streams(optim.seed, 2)
    own_pairs = val_pairs.of_group(group.index)

    def score(means):
        acc, _ = verification_accuracy(model.embed(val_pool.values), own_pairs)
        return acc, {group.name: acc}

    step = _margin_step("backbone", backbone_cfg.slope, subset.values,
                        local_labels, eaf_cfg, margin_rng)
    records, model.best_epoch = _train_loop(model.params, optim, subset.n,
                                            shuffle_rng, step, score)
    return model, records


def extract_embeddings(teachers: list[TeacherModel],
                       dataset: SampleSet) -> list[SampleSet]:
    """Every teacher embeds every sample; outputs stay row-aligned."""
    out = []
    for t in teachers:
        emb = t.embed(dataset.values)
        out.append(SampleSet(emb, dataset.identities.copy(),
                             dataset.groups.copy(), dataset.group_tags))
    return out


def train_adaptor(kind: str, embedding_sets: list[SampleSet], eaf_cfg: EafConfig,
                  optim: OptimConfig, init_seed: int,
                  fusion_order: Optional[list[int]] = None,
                  ) -> tuple[AdaptorModel, list[TrainLogRecord]]:
    """Train a fusion adaptor on concatenated teacher embeddings.

    Uses identity labels only (no group information). The classification
    header trained alongside is discarded; the returned adaptor is the
    epoch checkpoint with the lowest epoch-mean training loss.
    """
    fused = models.fuse_inputs(embedding_sets, fusion_order)
    class_ids, local_labels = np.unique(embedding_sets[0].identities,
                                        return_inverse=True)
    emb_dim = embedding_sets[0].dim
    model = models.new_adaptor(kind, len(embedding_sets), emb_dim, init_seed)
    header_rng = np.random.default_rng(np.random.SeedSequence(init_seed).spawn(1)[0])
    params = {**model.params,
              "header.W": models.init_header(header_rng, len(class_ids), emb_dim)}
    shuffle_rng, margin_rng, dropout_rng = _rng_streams(optim.seed, 3)

    # DLDPO drops before the activation; the other kinds never drop
    dropout_p = model.dropout_p if kind == "DLDPO" else 0.0
    step = _margin_step("adaptor", model.slope, fused, local_labels, eaf_cfg,
                        margin_rng, dropout_p, dropout_rng)
    records, model.best_epoch = _train_loop(
        params, optim, fused.shape[0], shuffle_rng, step,
        lambda means: (-means["loss"], None))
    model.params = {name: params[name] for name in model.params}
    return model, records


def fused_target(adaptor: AdaptorModel, embedding_sets: list[SampleSet],
                 fusion_order: Optional[list[int]] = None) -> np.ndarray:
    """Frozen-network mimicry target: fuse the row-aligned teacher embeddings
    of a pool and adapt them; row i is the target of sample i."""
    return models.adaptor_forward(
        adaptor, models.fuse_inputs(embedding_sets, fusion_order))


def train_student(mode: str, adaptor: AdaptorModel,
                  embedding_sets: list[SampleSet], dataset: SampleSet,
                  lam: float, eaf_cfg: EafConfig, backbone_cfg: BackboneConfig,
                  optim: OptimConfig, init_seed: int,
                  fusion_order: Optional[list[int]] = None,
                  ) -> tuple[StudentModel, list[TrainLogRecord]]:
    """Distill the fused teacher space into a student; returns the
    final-epoch model.

    `embedding_sets` are the teachers' embeddings of `dataset`, row-aligned
    with it (the extract stage's output). The target of every sample is
    computed once, before the first epoch; the adaptor stays frozen
    (verified)."""
    if not lam > 0:
        raise ContractError(f"lambda must be > 0, got {lam}")
    frozen_before = _param_bytes(adaptor)
    targets = fused_target(adaptor, embedding_sets, fusion_order)
    if targets.shape[0] != dataset.n:
        raise ContractError(f"{targets.shape[0]} target rows for "
                            f"{dataset.n} training samples")
    class_ids = local_labels = None
    if mode == "eaf_kd":
        class_ids, local_labels = np.unique(dataset.identities, return_inverse=True)
    model = models.new_student(backbone_cfg, mode, class_ids, init_seed)
    shuffle_rng, margin_rng = _rng_streams(optim.seed, 2)

    def step(params, batch):
        emb, saved = forward(params, "backbone", backbone_cfg.slope,
                             dataset.values[batch], True)
        kd = losses.kd_mse(targets[batch], emb, lam)
        terms, grads, eaf = {"kd": kd[0]}, {}, None
        if mode == "eaf_kd":
            value, g_emb, grads["header.W"] = losses.elastic_arcface(
                emb, params["header.W"], local_labels[batch], eaf_cfg,
                rng=margin_rng)
            terms["eaf"], eaf = value, (value, g_emb)
        loss, g_emb = losses.student_loss(eaf, kd, lam)
        grads.update(backward(params, "backbone", saved, g_emb))
        return loss, terms, grads

    records, _ = _train_loop(model.params, optim, dataset.n, shuffle_rng, step)
    if _param_bytes(adaptor) != frozen_before:
        raise ContractError("frozen adaptor parameters changed "
                            "during student training")
    return model, records


def _param_bytes(adaptor: AdaptorModel) -> bytes:
    return b"".join(adaptor.params[n].tobytes() for n in sorted(adaptor.params))
