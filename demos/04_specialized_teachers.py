"""Train four group-specialized teachers and inspect the accuracy matrix.

Each teacher sees only its own group's identities, so it should verify its
own group best; the cross-group accuracy matrix makes the specialization
(and its cost on foreign groups) visible. Takes a few seconds.
"""

import numpy as np

from mstkd import (BackboneConfig, EafConfig, OptimConfig, SyntheticDatasetSpec,
                   build_pairs, fairness_metrics, generate, scale_phase,
                   split_specialized, train_teacher, verification_accuracy)
from mstkd.training import TEACHER_PHASE

spec = SyntheticDatasetSpec(seed=0)
train, val, test = generate(spec)
split = split_specialized(train)
val_pairs = build_pairs(val, 600, 0.5, seed=1)
test_pairs = build_pairs(test, 600, 0.5, seed=2)

backbone = BackboneConfig(input_dim=spec.input_dim, hidden=(128,), embedding_dim=32)
lr0, epochs, decays = scale_phase(*TEACHER_PHASE, 0.25)
print(f"schedule: lr {lr0}, {epochs} epochs, decays at {decays}\n")

teachers = []
for g in range(spec.groups):
    subset = train.select(train.rows_of_identities(split[g]))
    optim = OptimConfig(lr0, epochs, decays, batch_size=128, seed=10 + g)
    teacher, records = train_teacher(subset, train.group_tags[g], backbone,
                                     EafConfig(), optim, val, val_pairs,
                                     init_seed=100 + g)
    print(f"teacher {g}: {subset.n} samples, best epoch {teacher.best_epoch}, "
          f"final train loss {records[-1]['mean_loss']:.2f}")
    teachers.append(teacher)

print("\ntest verification accuracy (rows: teachers, columns: groups):")
matrix = np.zeros((spec.groups, spec.groups))
for g, teacher in enumerate(teachers):
    emb = teacher.embed(test.values)
    for h in range(spec.groups):
        matrix[g, h], _ = verification_accuracy(emb, test_pairs.of_group(h))
header = "          " + "".join(f"{t.name:>8}" for t in train.group_tags)
print(header)
for g in range(spec.groups):
    own = matrix[g, g]
    row = "".join(f"{matrix[g, h]:8.2f}" for h in range(spec.groups))
    glob, std, ser = fairness_metrics(matrix[g])
    print(f"teacher {g}:{row}   | global {glob:5.2f}  STD {std:4.2f}  SER {ser:4.2f}")
print("\nthe diagonal dominates: every teacher is best on its own group,")
print("and its high STD/SER quantify how biased that specialization is.")
