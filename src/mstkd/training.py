"""Optimization engine: SGD with momentum, stepwise LR decay, and the three
training procedures (teachers, adaptor, student).

Teachers train under the angular-margin loss and keep the epoch checkpoint
with the best verification accuracy on their assigned group's validation
pairs (ties go to the earliest epoch). Adaptors train on concatenated
frozen-teacher embeddings with their own disposable classification header
and keep the epoch with the lowest mean training loss. Students mimic the
fused target space, computed once from the same teacher embeddings
(optionally plus classification), and keep the final epoch. All three
train through one `_fit`, which makes the optimizer and the seeded streams
and runs one loop, logging and keeping epochs by the trainer's score, with
one step for every model: `autodiff.forward`, the sum of the loss terms the
model has, and `autodiff.backward` writing each gradient into its view.
Each model's parameters and gradients live in two flat buffers with a
checkpoint's data layout (`store.lay_out`), so an SGD step is three vector
operations and a kept epoch one copy; frozen networks, read-only once
loaded, run the same forward keeping nothing. The loop has one divergence
rule: the first non-finite loss or gradient, or an output row that cannot
be normalized, stops training with `DivergenceError` (exit 4); no batch
is ever skipped. All shuffling, margins, and dropout draw from generators
derived from the configured seeds, and a log record holds no time, so a
full run is bit-reproducible, logs included. Nothing here sets the BLAS
thread count: a trainer runs at its caller's, which a training command
sets (`pipeline._Run`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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

    The parameters are copied once into `flat`, and `params[name]` is
    rebound to its view of it; `grads[name]` is the view of `grad` that a
    training step writes the same parameter's gradient into. A step is then
    three vector operations however many parameters the model has.
    """

    def __init__(self, params: dict[str, np.ndarray], momentum: float = 0.9):
        shapes = {name: p.shape for name, p in params.items()}
        self.params, self.momentum = params, momentum
        self.flat = np.concatenate([p.ravel() for p in params.values()],
                                   dtype=np.float64)
        self.grad = np.zeros_like(self.flat)
        self.velocity = np.zeros_like(self.flat)
        params.update(store.lay_out(self.flat, shapes))
        self.grads = store.lay_out(self.grad, shapes)

    def step(self, lr: float) -> None:
        """One update in place from `grad`; a non-finite gradient raises
        naming its parameter and leaves every parameter as it was."""
        if not np.isfinite(self.grad).all():
            bad = next(n for n, g in self.grads.items() if not np.isfinite(g).all())
            raise DivergenceError(f"non-finite gradient in {bad}")
        self.velocity *= self.momentum
        self.velocity += self.grad
        self.flat -= lr * self.velocity


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Seeded shuffle covering every index exactly once; last batch kept."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def write_log(records: list[dict], path) -> None:
    """The epoch records as JSON lines with sorted keys."""
    store.write_text_atomic(path, "".join(json.dumps(rec, sort_keys=True) + "\n"
                                          for rec in records))


def _rng_streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _train_loop(opt: SgdMomentum, optim: OptimConfig, n: int,
                shuffle_rng: np.random.Generator, step, score=None,
                ) -> tuple[list[dict], int]:
    """The one training loop; returns the epoch log and the kept epoch,
    whose values `opt.params` then hold.

    `step(batch)` writes every gradient into `opt.grads` and returns one
    batch's `(loss, terms)`: the loss to minimize and scalar terms logged
    as `mean_<term>`. The first non-finite loss, like a `DivergenceError`
    raised inside the step, raises `DivergenceError` naming its epoch and
    batch (both 1-based).
    `score(means)` returns an epoch's `(value, val_acc)`; the highest value
    is kept (ties: earliest), and without `score` the final epoch.
    """
    optim.validate()
    if n < 1:
        raise ContractError("training needs at least one sample")
    records, best, kept_epoch, kept = [], -np.inf, optim.epochs, None
    for epoch in range(1, optim.epochs + 1):
        lr = lr_at_epoch(optim, epoch)
        logged: dict[str, list[float]] = {}
        batches = epoch_batches(n, optim.batch_size, shuffle_rng)
        for i, batch in enumerate(batches, 1):
            try:
                loss, terms = step(batch)
                if not math.isfinite(loss):
                    raise DivergenceError(f"non-finite loss ({loss})")
            except DivergenceError as exc:
                raise DivergenceError(f"{exc} at epoch {epoch}, batch {i}") from None
            for key, value in {"loss": loss, **terms}.items():
                logged.setdefault(key, []).append(value)
            opt.step(lr)
        means = {key: float(np.mean(v)) for key, v in logged.items()}
        value, val_acc = score(means) if score else (-np.inf, None)
        if value > best:
            best, kept_epoch, kept = value, epoch, opt.flat.copy()
        records.append({"epoch": epoch, "lr": lr, "val_acc": val_acc,
                        **{f"mean_{key}": v for key, v in means.items()}})
    if kept is not None:
        opt.flat[:] = kept
    return records, kept_epoch


def _fit(model, prefix: str, slope: float, inputs: np.ndarray,
         optim: OptimConfig, eaf_cfg: EafConfig, labels=None, targets=None,
         lam: float = 1.0, dropout_p: float = 0.0, score=None):
    """Train the `prefix` stack of `model.params` on the rows of `inputs`
    and return `_train_loop`'s log and kept epoch. A step sums the loss
    terms the model has: the mimicry of `targets` at weight `lam` when they
    are given, then the angular margin against `labels` when the parameters
    hold the classification header `header.W`. A student, the model with
    targets, logs its terms; the other models log none."""
    opt = SgdMomentum(model.params, optim.momentum)
    shuffle_rng, margin_rng, dropout_rng = _rng_streams(optim.seed, 3)
    params, grads = opt.params, opt.grads

    def step(batch):
        emb, saved = forward(params, prefix, slope, inputs[batch], True,
                             dropout_p, dropout_rng)
        terms, kd, eaf = {}, None, None
        if targets is not None:
            kd = losses.kd_mse(targets[batch], emb, lam)
            terms["kd"] = kd[0]
        if "header.W" in params:
            eaf = losses.elastic_arcface(emb, params["header.W"], labels[batch],
                                         eaf_cfg, rng=margin_rng,
                                         out=grads["header.W"])[:2]
            if kd is not None:
                terms["eaf"] = eaf[0]
        loss, g_emb = eaf if kd is None else losses.student_loss(eaf, kd, lam)
        backward(params, prefix, saved, g_emb, grads)
        return loss, terms

    return _train_loop(opt, optim, len(inputs), shuffle_rng, step, score)


def train_teacher(subset: SampleSet, group: GroupTag, backbone_cfg: BackboneConfig,
                  eaf_cfg: EafConfig, optim: OptimConfig, val_pool: SampleSet,
                  val_pairs: PairList, init_seed: int,
                  ) -> tuple[TeacherModel, list[dict]]:
    """Train one teacher on its subset; keep the epoch checkpoint with the
    best own-group validation verification accuracy (ties: earliest)."""
    class_ids, local_labels = np.unique(subset.identities, return_inverse=True)
    model = models.new_teacher(backbone_cfg, class_ids, group, init_seed)
    own_pairs = val_pairs.of_group(group.index)

    def score(means):
        acc, _ = verification_accuracy(model.embed(val_pool.values), own_pairs)
        return acc, {group.name: acc}

    records, model.best_epoch = _fit(model, "backbone", backbone_cfg.slope,
                                     subset.values, optim, eaf_cfg,
                                     labels=local_labels, score=score)
    return model, records


def extract_embeddings(teachers: list[TeacherModel],
                       dataset: SampleSet) -> list[SampleSet]:
    """Every teacher embeds every sample; outputs stay row-aligned."""
    return [SampleSet(t.embed(dataset.values), dataset.identities.copy(),
                      dataset.groups.copy(), dataset.group_tags) for t in teachers]


def train_adaptor(kind: str, embedding_sets: list[SampleSet], eaf_cfg: EafConfig,
                  optim: OptimConfig, init_seed: int,
                  ) -> tuple[AdaptorModel, list[dict]]:
    """Train a fusion adaptor on the teacher embeddings fused in list order.

    Uses identity labels only (no group information). The classification
    header trained alongside, laid last in the same buffer, is discarded;
    the returned adaptor is the epoch checkpoint with the lowest epoch-mean
    training loss, whose parameters are views of the buffer's leading part.
    """
    fused = models.fuse_inputs(embedding_sets)
    class_ids, local_labels = np.unique(embedding_sets[0].identities,
                                        return_inverse=True)
    emb_dim = embedding_sets[0].dim
    model = models.new_adaptor(kind, len(embedding_sets), emb_dim, init_seed)
    (header_rng,) = _rng_streams(init_seed, 1)
    model.params["header.W"] = models.init_header(header_rng, len(class_ids), emb_dim)
    # DLDPO drops before the activation; the other kinds never drop
    records, model.best_epoch = _fit(
        model, "adaptor", model.slope, fused, optim, eaf_cfg, labels=local_labels,
        dropout_p=model.dropout_p if kind == "DLDPO" else 0.0,
        score=lambda means: (-means["loss"], None))
    del model.params["header.W"]
    return model, records


def fused_target(adaptor: AdaptorModel, embedding_sets: list[SampleSet]) -> np.ndarray:
    """Frozen-network mimicry target: fuse the row-aligned teacher embeddings
    of a pool, in list order, and adapt them; row i is the target of sample i."""
    return models.adaptor_forward(adaptor, models.fuse_inputs(embedding_sets))


def train_student(mode: str, adaptor: AdaptorModel,
                  embedding_sets: list[SampleSet], dataset: SampleSet,
                  lam: float, eaf_cfg: EafConfig, backbone_cfg: BackboneConfig,
                  optim: OptimConfig, init_seed: int,
                  ) -> tuple[StudentModel, list[dict]]:
    """Distill the fused teacher space into a student; returns the
    final-epoch model.

    `embedding_sets` are the teachers' embeddings of `dataset`, row-aligned
    with it (the extract stage's output), in the adaptor's order. The target
    of every sample is computed once, before the first epoch, and the frozen
    adaptor is not read again; a loaded adaptor is read-only."""
    if not lam > 0:
        raise ContractError(f"lambda must be > 0, got {lam}")
    targets = fused_target(adaptor, embedding_sets)
    if targets.shape[0] != dataset.n:
        raise ContractError(f"{targets.shape[0]} target rows for "
                            f"{dataset.n} training samples")
    class_ids = local_labels = None
    if mode == "eaf_kd":
        class_ids, local_labels = np.unique(dataset.identities, return_inverse=True)
    model = models.new_student(backbone_cfg, mode, class_ids, init_seed)
    records, _ = _fit(model, "backbone", backbone_cfg.slope, dataset.values,
                      optim, eaf_cfg, labels=local_labels, targets=targets, lam=lam)
    return model, records
