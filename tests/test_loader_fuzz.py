"""Corrupted artifacts: each loader either loads the bytes or raises
FormatError, never anything else.

The originals are real files of a tiny run: the gen-data stage's sample set,
pair list and manifest, a saved teacher checkpoint and a fairness report.
Each example flips a few bytes, truncates the file or inserts bytes into it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstkd import models, pipeline, store
from mstkd.data import GroupTag
from mstkd.errors import FormatError
from mstkd.evaluation import FairnessReport, fairness_metrics, report_to_json
from mstkd.models import BackboneConfig

LOADERS = {
    "sample-set": ("dataset/train.mste", store.load_sample_set),
    "pair-list": ("dataset/pairs_test.txt", store.load_pairs),
    "checkpoint": ("teacher.ckpt", models.load_teacher),
    "manifest": (pipeline.MANIFEST, lambda path: pipeline.load_manifest(path.parent)),
    "report": ("reports/SL_a_kd.json", pipeline.load_report),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = pipeline.config_from_dict({
        "dataset": {"groups": 2, "identities_per_group": 3, "samples_per_identity": 3,
                    "input_dim": 8, "shared_dim": 2, "group_dim": 2,
                    "intra_class_noise": [0.1, 0.1],
                    "validation_identities_per_group": 2,
                    "test_identities_per_group": 2},
        "pairs_per_group": 4, "out_dir": str(out)})
    pipeline.cmd_gen_data(cfg)
    teacher = models.new_teacher(BackboneConfig(input_dim=8, hidden=(4,),
                                                embedding_dim=3),
                                 np.arange(3), GroupTag(0, "g0"), seed=0)
    models.save_teacher(teacher, out / "teacher.ckpt")
    (out / "reports").mkdir()
    report = FairnessReport(["g0", "g1"], [90.0, 80.0], [0.5, 0.4],
                            *fairness_metrics([90.0, 80.0]))
    (out / "reports" / "SL_a_kd.json").write_text(report_to_json(report))
    for rel, load in LOADERS.values():
        load(out / rel)   # each file as written loads
    return out


@pytest.mark.parametrize("name", LOADERS)
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_corrupted_artifact_raises_only_format_error(run_dir, name, data):
    rel, load = LOADERS[name]
    path = run_dir / rel
    original = path.read_bytes()
    blob = bytearray(original)
    how = data.draw(st.sampled_from(["mutate", "truncate", "insert"]))
    if how == "mutate":
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    elif how == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        at = data.draw(st.integers(0, len(blob)))
        blob[at:at] = data.draw(st.binary(min_size=1, max_size=8))
    path.write_bytes(bytes(blob))
    try:
        load(path)
    except FormatError:
        pass
    finally:
        path.write_bytes(original)
