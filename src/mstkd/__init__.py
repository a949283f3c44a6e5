"""Desk-scale multi-specialized-teacher knowledge distillation with fairness metrics.

The library is organized around seven pieces: the layer stack every model
shares, a plain-numpy forward with its hand-written backward (`autodiff`),
a synthetic group-structured identity generator (`data`), binary
persistence (`store`), the margin and distillation losses with their
gradients (`losses`), the teacher/adaptor/student assemblies (`models`),
the training engine (`training`), and verification-protocol scoring with
fairness summaries (`evaluation`).
`pipeline` wires them into reproducible staged experiments, exposed on the
command line as `mstkd`.
"""

__version__ = "0.1.0"

from .autodiff import backward, forward
from .data import (GroupTag, PairList, SampleSet, SyntheticDatasetSpec,
                   build_pairs, generate, split_balanced, split_specialized)
from .evaluation import (FairnessReport, best_threshold_accuracy,
                         compare_reports, evaluate_embeddings,
                         fairness_metrics, render_table, verification_accuracy)
from .losses import EafConfig, elastic_arcface, kd_mse, student_loss
from .models import (ADAPTOR_KINDS, AdaptorModel, BackboneConfig, StudentModel,
                     TeacherModel, adaptor_forward, fuse_inputs,
                     new_adaptor, new_student, new_teacher)
from .training import (OptimConfig, SgdMomentum, extract_embeddings,
                       fused_target, lr_at_epoch, scale_phase, train_adaptor,
                       train_student, train_teacher)

__all__ = [name for name in dir() if not name.startswith("_")]
