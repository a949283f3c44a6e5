import dataclasses
import errno
import json
import math
import multiprocessing
import os
import shutil
import signal

import numpy as np
import pytest

from mstkd import cli, data, losses, models, pipeline, store, training
from mstkd.errors import (ConfigError, ContractError, DivergenceError, FormatError,
                          MissingArtifactError, MstkdError)
from mstkd.evaluation import FairnessReport, fairness_metrics, report_to_json

from rundirs import differing_files, run_files


# a test that needs the training jobs to run in worker processes
needs_two_cores = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="one usable core: every job list runs in this process")


def tiny_config(out_dir, split="specialized", **overrides):
    doc = {
        "dataset": {"identities_per_group": 8, "samples_per_identity": 6,
                    "validation_identities_per_group": 4,
                    "test_identities_per_group": 4},
        "backbone": {"hidden": [48], "embedding_dim": 16},
        "schedule_scale": 0.12,   # teacher 6 epochs, adaptor/student 3
        "batch_size": 64,
        "pairs_per_group": 80,
        "split": split,
        "out_dir": str(out_dir),
    }
    doc.update(overrides)
    return pipeline.config_from_dict(doc)


def test_default_config_round_trips():
    cfg = pipeline.config_from_dict(pipeline.default_config_dict())
    doc = pipeline.config_to_dict(cfg)
    assert doc == pipeline.default_config_dict()
    assert pipeline.config_from_dict(doc).lam == cfg.lam


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError):
        pipeline.config_from_dict({"lambda_weight": 1.0})
    with pytest.raises(ConfigError):
        pipeline.config_from_dict({"dataset": {"groups": 4, "typo": 1}})
    # derived fields are not keys
    for doc in ({"dataset": {"seed": 3}}, {"backbone": {"input_dim": 64}},
                {"teacher_backbone": {"input_dim": 64}}):
        with pytest.raises(ConfigError, match="unknown"):
            pipeline.config_from_dict(doc)


# `mstkd init-config` output and the default config's hash; every existing
# run directory's manifest check depends on both staying exactly as they are
DEFAULT_CONFIG_JSON = """\
{
  "adaptors": [
    "SL",
    "DuL",
    "DLDPO"
  ],
  "backbone": {
    "embedding_dim": 32,
    "hidden": [
      128
    ],
    "slope": 0.01
  },
  "batch_size": 128,
  "dataset": {
    "group_dim": 4,
    "group_names": null,
    "groups": 4,
    "identities_per_group": 50,
    "input_dim": 64,
    "intra_class_noise": [
      0.17,
      0.15,
      0.15,
      0.15
    ],
    "samples_per_identity": 20,
    "shared_dim": 6,
    "shared_energy": 0.4,
    "test_identities_per_group": 12,
    "validation_identities_per_group": 12
  },
  "decay_factor": 10.0,
  "eaf": {
    "m": 0.5,
    "s": 64.0,
    "sigma": 0.05
  },
  "fusion_order": null,
  "genuine_fraction": 0.5,
  "lambda": 10000.0,
  "momentum": 0.9,
  "out_dir": "runs/default",
  "pairs_per_group": 600,
  "schedule_scale": 0.25,
  "seeds": {
    "data": 0,
    "init": 1,
    "train": 2
  },
  "split": "specialized",
  "student_modes": [
    "eaf_kd",
    "a_kd"
  ],
  "teacher_backbone": null
}
"""
DEFAULT_CONFIG_HASH = (
    "e69ec4d2e936375a94f4f12d0076f0f941403985512daf4dc0e15fad36f6fcc2")


def test_config_contract_is_pinned(tmp_path, capsys):
    assert pipeline.config_hash(pipeline.ExperimentConfig()) == DEFAULT_CONFIG_HASH
    path = tmp_path / "default.json"
    assert cli.main(["init-config", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == DEFAULT_CONFIG_JSON
    assert pipeline.config_hash(pipeline.load_config(path)) == DEFAULT_CONFIG_HASH
    capsys.readouterr()


@pytest.mark.parametrize("bad, message", [
    ({"dataset": 5}, "config.dataset must be a JSON object"),
    ({"dataset": {"groups": "four"}}, "config.dataset.groups must be int"),
    ({"batch_size": "x"}, "config.batch_size must be int"),
    ({"lambda": "big"}, "config.lambda must be float"),
    ({"dataset": {"intra_class_noise": 0.1}},
     "config.dataset.intra_class_noise must be a list"),
    ({"backbone": {"hidden": 32}}, "config.backbone.hidden must be a list"),
    ({"adaptors": "SL"}, "config.adaptors must be a list"),
    ({"batch_size": True}, "config.batch_size must be int"),
    ({"momentum": False}, "config.momentum must be float"),
    ({"backbone": {"hidden": [32.0]}}, "config.backbone.hidden[0] must be int"),
    ({"eaf": {"s": -1.0}}, "EafConfig requires s > 0"),
    ({"schedule_scale": math.inf}, "config.schedule_scale must be finite"),
    ({"decay_factor": 0}, "decay_factor must be > 0"),
    ({"decay_factor": -10}, "decay_factor must be > 0"),
    ({"eaf": {"sigma": math.inf}}, "config.eaf.sigma must be finite"),
    ({"eaf": {"s": math.inf}}, "config.eaf.s must be finite"),
    ({"dataset": {"intra_class_noise": [math.nan, 0.1, 0.1, 0.1]}},
     "config.dataset.intra_class_noise[0] must be finite"),
    ({"backbone": {"slope": 1.5}}, "backbone slope must lie in [0, 1), got 1.5"),
    ({"teacher_backbone": {"slope": -0.5}},
     "backbone slope must lie in [0, 1), got -0.5"),
    ({"schedule_scale": 1e307}, "schedule scale 1e+307 must lie in (0, 1]"),
    ({"schedule_scale": 1e300}, "schedule scale 1e+300 must lie in (0, 1]"),
    ({"schedule_scale": 1.5}, "schedule scale 1.5 must lie in (0, 1]"),
    ({"pairs_per_group": 0}, "at least one genuine and one impostor pair"),
    ({"pairs_per_group": 1}, "at least one genuine and one impostor pair"),
    ({"genuine_fraction": 1.5}, "at least one genuine and one impostor pair"),
    ({"genuine_fraction": 0.0}, "at least one genuine and one impostor pair"),
    ({"pairs_per_group": 100000},
     "50000 genuine pairs per group requested, the validation pool has only 2280"),
    ({"pairs_per_group": 30000, "genuine_fraction": 0.01},
     "29700 impostor pairs per group requested, the validation pool has only 26400"),
    ({"dataset": {"validation_identities_per_group": 40}, "pairs_per_group": 9000},
     "4500 genuine pairs per group requested, the test pool has only 2280"),
    ({"adaptors": ["SL", "SL"]}, "adaptors must not repeat an entry"),
    ({"student_modes": ["a_kd", "a_kd"]}, "student_modes must not repeat an entry"),
    ({"seeds": {"init": -3}}, "seeds must be non-negative"),
    ({"teacher_backbone": {"hidden": [16], "embedding_dim": 12}},
     "teacher_backbone.embedding_dim 12 must equal backbone.embedding_dim 32"),
    ({"dataset": {"shared_dim": 0}}, "shared_dim and group_dim must be >= 1"),
    ({"dataset": {"group_dim": 0}}, "shared_dim and group_dim must be >= 1"),
    # 8 bytes per pool value, 32 per pair: 8*4*(10**9+24)*20*64 + 32*2*4*600
    ({"dataset": {"identities_per_group": 10 ** 9}},
     "pools and pair lists come to 40960001136640 bytes, over the limit of 2**30"),
    ({"dataset": {"validation_identities_per_group": 10 ** 4,
                  "test_identities_per_group": 10 ** 4},
      "pairs_per_group": 10 ** 9, "genuine_fraction": 0.001},
     "pools and pair lists come to 256821248000 bytes, over the limit of 2**30"),
    ({"adaptors": ["SL", "XXL"]},
     "adaptors must be one or more of ['SL', 'DuL', 'DLDPO'], not ['XXL']"),
    ({"student_modes": ["zzz"]},
     "student_modes must be one or more of ['eaf_kd', 'a_kd'], not ['zzz']"),
    ({"adaptors": []},
     "adaptors must be one or more of ['SL', 'DuL', 'DLDPO'], not []"),
    ({"student_modes": []},
     "student_modes must be one or more of ['eaf_kd', 'a_kd'], not []"),
    # 8 bytes per parameter: 64*10**12 + 10**12 + 10**12*32 + 32, and a header
    # row of 32 per training identity
    ({"backbone": {"hidden": [10 ** 12]}},
     "the teacher network comes to 776000000051456 bytes, over the limit of 2**30"),
    ({"teacher_backbone": {"hidden": [10 ** 12]}},
     "the teacher network comes to 776000000051456 bytes, over the limit of 2**30"),
    ({"backbone": {"hidden": [10 ** 12]}, "teacher_backbone": {}},
     "the student network comes to 776000000051456 bytes, over the limit of 2**30"),
    ({"backbone": {"embedding_dim": 8192}},
     "the SL adaptor network comes to 2160656384 bytes, over the limit of 2**30"),
    ({"dataset": {"groups": 1}}, "need at least 2 groups"),
    ({"dataset": {"intra_class_noise": [0.1, 0.1]}},
     "intra_class_noise needs one value per group"),
    ({"dataset": {"identities_per_group": 0}}, "counts must be positive"),
    ({"dataset": {"shared_energy": 1.0}}, "shared_energy must lie in (0, 1)"),
    ({"dataset": {"group_names": ["a", "a", "b", "c"]}},
     "group_names must be unique, one per group"),
    ({"backbone": {"embedding_dim": 1}}, "embedding_dim must be >= 2"),
    ({"teacher_backbone": {"embedding_dim": 1}}, "embedding_dim must be >= 2"),
    ({"backbone": {"hidden": []}}, "backbone needs at least one hidden layer"),
    ({"backbone": {"hidden": [0]}}, "layer sizes must be positive"),
    ({"lambda": 0}, "lambda must be > 0"),
    ({"momentum": 1.0}, "momentum must lie in [0, 1)"),
    ({"batch_size": 0}, "epochs and batch_size must be positive"),
])
def test_cli_bad_config_value_exits_2_before_any_stage(tmp_path, capsys,
                                                       bad, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**bad, "out_dir": str(tmp_path / "run")}))
    capsys.readouterr()
    assert cli.main(["gen-data", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "run").exists()


def test_cli_negative_seed_override_exits_2_before_any_write(tmp_path, capsys):
    cfg_path = _cli_config(tmp_path)
    capsys.readouterr()
    assert cli.main(["run-all", "--config", cfg_path, "--seed-override", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seeds must be non-negative" in err
    assert not (tmp_path / "run").exists()


def test_float_field_keeps_an_int_as_given():
    cfg = pipeline.config_from_dict({"lambda": 5000, "eaf": {"s": 32}})
    assert type(cfg.lam) is int and type(cfg.eaf.s) is int
    assert pipeline.config_to_dict(cfg)["lambda"] == 5000


def test_seed_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(pipeline.default_config_dict()))
    cfg = pipeline.load_config(path, seed_override=42, out_override=str(tmp_path))
    assert (cfg.seeds.data, cfg.seeds.init, cfg.seeds.train) == (42, 43, 44)
    assert cfg.dataset.seed == 42
    assert cfg.out_dir == str(tmp_path)


def test_config_hash_ignores_out_dir_but_not_params(tmp_path):
    a = tiny_config(tmp_path / "a")
    b = tiny_config(tmp_path / "b")
    assert pipeline.config_hash(a) == pipeline.config_hash(b)
    c = tiny_config(tmp_path / "a", **{"lambda": 5000.0})
    assert pipeline.config_hash(a) != pipeline.config_hash(c)


@pytest.mark.parametrize("pairs, valid", [(80, True), (81, False)])
def test_gen_data_size_bound_is_inclusive(pairs, valid):
    """Two groups of 524,283 identities of 2 samples at width 64 take
    2**30 - 80*128 bytes, and each pair 2*2*32 more; nothing is generated."""
    doc = {"dataset": {"groups": 2, "identities_per_group": 524083,
                       "samples_per_identity": 2, "intra_class_noise": [0.1, 0.1],
                       "validation_identities_per_group": 100,
                       "test_identities_per_group": 100},
           "pairs_per_group": pairs}
    if valid:
        pipeline.config_from_dict(doc)
    else:
        with pytest.raises(ConfigError, match=r"come to 1073741952 bytes"):
            pipeline.config_from_dict(doc)


@pytest.mark.parametrize("hidden, valid", [(1383621, True), (1383622, False)])
def test_model_size_bound_is_inclusive(hidden, valid):
    """A default-width backbone with one hidden layer of h units and a header
    of 200 training identities holds 97*h + 6432 parameters: 2**30 bytes
    allow h = 1383621. Nothing is drawn."""
    doc = {"backbone": {"hidden": [hidden]}}
    if valid:
        pipeline.config_from_dict(doc)
    else:
        with pytest.raises(ConfigError, match=r"teacher network comes to 1073742128 "):
            pipeline.config_from_dict(doc)


def test_invalid_config_values():
    with pytest.raises(ConfigError):
        pipeline.config_from_dict({"split": "stratified"})
    with pytest.raises(ConfigError):
        pipeline.config_from_dict({"adaptors": ["SL", "XXL"]})
    with pytest.raises(ConfigError):
        pipeline.config_from_dict({"fusion_order": [0, 1, 2]})  # not a permutation


def test_stage_order_enforced(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    pipeline.cmd_gen_data(cfg)
    with pytest.raises(MissingArtifactError) as err:
        pipeline.cmd_evaluate(cfg)
    assert "students/SL_eaf_kd.ckpt" in str(err.value)
    with pytest.raises(MissingArtifactError):
        pipeline.cmd_extract(cfg)


def test_full_tiny_pipeline_and_idempotency(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tiny_config(out)
    pipeline.run_all(cfg)
    for kind in ("SL", "DuL", "DLDPO"):
        for mode in ("eaf_kd", "a_kd"):
            assert (out / "students" / f"{kind}_{mode}.ckpt").exists()
            report = json.loads(
                (out / "reports" / f"{kind}_{mode}.json").read_text())
            accs = report["per_group_acc"]
            assert report["global_acc"] == pytest.approx(np.mean(accs))
            assert report["ser"] == "undefined" or report["ser"] >= 1.0
    manifest = pipeline.load_manifest(out)
    assert set(manifest["stages"]) == set(pipeline.STAGES)
    # second invocation skips every stage
    capsys.readouterr()
    pipeline.run_all(cfg)
    assert capsys.readouterr().out.count("skipping") == 6


def test_run_all_on_current_run_leaves_config_copy_untouched(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tiny_config(out)
    pipeline.run_all(cfg)
    copy = out / "config.json"
    before = copy.read_bytes()
    os.utime(copy, ns=(10**9, 10**9))  # any rewrite moves the mtime to now
    capsys.readouterr()
    pipeline.run_all(cfg)
    assert capsys.readouterr().out.count("skipping") == 6
    assert copy.stat().st_mtime_ns == 10**9
    assert copy.read_bytes() == before


def _stats(out):
    """{relative path: (inode, mtime in ns)} of every file of a run directory."""
    return {str(p.relative_to(out)): (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_forced_reembed_that_reproduces_every_artifact_renames_nothing(
        tmp_path, monkeypatch):
    out = tmp_path / "run"
    cfg = tiny_config(out)
    pipeline.run_all(cfg)
    before = _stats(out)
    replaced = []
    monkeypatch.setattr(store.os, "replace", lambda src, dst: replaced.append(dst))
    pipeline.cmd_extract(cfg, force=True)
    pipeline.cmd_evaluate(cfg, force=True)
    assert replaced == []
    assert _stats(out) == before


def test_forced_extract_restores_a_modified_embedding(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_config(out)
    pipeline.run_all(cfg)
    rel = "embeddings/teacher_0.mste"
    path = out / rel
    original = path.read_bytes()
    path.write_bytes(original[:-1] + bytes([original[-1] ^ 1]))  # same size
    inode = path.stat().st_ino
    pipeline.cmd_extract(cfg, force=True)
    assert path.read_bytes() == original
    assert path.stat().st_ino != inode   # renamed into place, not patched
    digest = pipeline.load_manifest(out)["stages"]["extract"]["artifacts"][rel]
    assert digest == store.sha256_file(path)


def test_rerun_after_delete_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_config(out)
    pipeline.run_all(cfg)
    ckpt = out / "adaptors" / "SL.ckpt"
    report = out / "reports" / "SL_a_kd.json"
    before_ckpt, before_report = ckpt.read_bytes(), report.read_bytes()
    ckpt.unlink()
    # deleting an artifact invalidates the stage and its downstream
    with pytest.raises(MissingArtifactError):
        pipeline.cmd_train_student(cfg)
    pipeline.cmd_train_adaptor(cfg)
    pipeline.cmd_train_student(cfg, force=True)
    pipeline.cmd_evaluate(cfg, force=True)
    assert ckpt.read_bytes() == before_ckpt
    assert report.read_bytes() == before_report


def test_run_all_is_byte_identical_at_one_and_two_inference_threads(
        tmp_path, set_blas_threads):
    """A command that trains runs at one BLAS thread; a lone `extract` or
    `evaluate` runs its inference at the caller's count, which must not
    change a byte of the run directory."""
    files = []
    for threads in (1, 2):
        out = tmp_path / f"threads_{threads}"
        cfg = tiny_config(out)
        pipeline.run_all(cfg)
        set_blas_threads(threads)
        pipeline.cmd_extract(cfg, force=True)
        pipeline.cmd_evaluate(cfg, force=True)
        files.append(run_files(out))
    assert {name.split("/")[0] for name in files[0]} == {
        "dataset", "teachers", "embeddings", "adaptors", "students", "reports",
        "config.json", "manifest.json"}
    assert differing_files(files[0], files[1]) == []


def test_full_disk_at_a_write_then_rerun_equals_a_clean_run(tmp_path, capsys,
                                                            monkeypatch):
    """`run-all` stopped by a full disk at a sampled write of its artifacts
    exits 1 with one line; running it again exits 0 and leaves every file
    of the run directory as a clean run does."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(pipeline.config_to_dict(tiny_config(tmp_path))))
    real, calls, fail_at = store.write_atomic, [], [0]

    def write_atomic(target, chunks):
        calls.append(target)
        if len(calls) == fail_at[0]:
            raise OSError(errno.ENOSPC, "No space left on device", str(target))
        real(target, chunks)

    def run_all(out):
        calls.clear()
        return cli.main(["run-all", "--config", str(path), "--out", str(out)])

    monkeypatch.setattr(store, "write_atomic", write_atomic)
    assert run_all(tmp_path / "clean") == 0
    clean = run_files(tmp_path / "clean")
    writes = len(calls)
    for k in sorted({*range(1, writes + 1, 5), writes}):
        out = tmp_path / f"full_at_{k}"
        fail_at[0] = k
        capsys.readouterr()
        assert run_all(out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "No space left on device" in err
        fail_at[0] = 0
        assert run_all(out) == 0
        assert differing_files(run_files(out), clean) == []


def test_config_hash_mismatch_rejected(tmp_path):
    out = tmp_path / "run"
    pipeline.cmd_gen_data(tiny_config(out))
    changed = tiny_config(out, **{"lambda": 123.0})
    with pytest.raises(ConfigError):
        pipeline.cmd_gen_data(changed)
    # forcing the root stage resets the manifest for the new config
    pipeline.cmd_gen_data(changed, force=True)
    assert pipeline.load_manifest(out)["config_hash"] == pipeline.config_hash(changed)


def test_report_layout_and_deltas(tmp_path):
    spec_out, bal_out = tmp_path / "spec", tmp_path / "bal"
    cfg_s = tiny_config(spec_out, split="specialized")
    cfg_b = tiny_config(bal_out, split="balanced")
    pipeline.run_all(cfg_s)
    pipeline.run_all(cfg_b)
    comp = pipeline.cmd_report(cfg_s, [str(spec_out), str(bal_out)],
                               out_override=str(tmp_path / "cmp"))
    for mode in ("eaf_kd", "a_kd"):
        table = (comp / f"students_{mode}.txt").read_text()
        lines = [ln for ln in table.splitlines() if ln.strip()]
        assert len(lines) == 1 + 6  # header + 3 adaptors x 2 origins
        assert sum(ln.lstrip().startswith("Ours-") for ln in lines) == 3
        assert sum(ln.lstrip().startswith("Baseline-") for ln in lines) == 3
        doc = json.loads((comp / f"students_{mode}.json").read_text())
        assert set(doc["ours_minus_baseline"]) == {"SL", "DuL", "DLDPO"}
        for deltas in doc["ours_minus_baseline"].values():
            assert len(deltas["per_group_acc"]) == 4
    # a second specialized run, passed after the first, with other accuracies:
    # the deltas still come from the first specialized run
    copy_out = tmp_path / "spec_copy"
    shutil.copytree(spec_out, copy_out)
    for report in (copy_out / "reports").glob("*.json"):
        doc = json.loads(report.read_text())
        doc["per_group_acc"] = [acc - 10.0 for acc in doc["per_group_acc"]]
        doc["global_acc"], doc["std"], doc["ser"] = fairness_metrics(doc["per_group_acc"])
        report.write_text(json.dumps(doc))
    comp2 = pipeline.cmd_report(cfg_s, [str(spec_out), str(bal_out), str(copy_out)],
                                out_override=str(tmp_path / "cmp2"))
    for mode in ("eaf_kd", "a_kd"):
        first = json.loads((comp / f"students_{mode}.json").read_text())
        both = json.loads((comp2 / f"students_{mode}.json").read_text())
        assert [row["label"] for row in both["rows"]].count("Ours-SL") == 2
        assert both["ours_minus_baseline"] == first["ours_minus_baseline"]


def test_report_requires_evaluated_runs(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    pipeline.cmd_gen_data(cfg)
    with pytest.raises(MissingArtifactError):
        pipeline.cmd_report(cfg, [str(tmp_path / "run")])


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"identities_per_group": 4, "samples_per_identity": 4,
                    "validation_identities_per_group": 2,
                    "test_identities_per_group": 2},
        "backbone": {"hidden": [16], "embedding_dim": 8},
        "schedule_scale": 0.04, "batch_size": 32, "pairs_per_group": 20,
        "out_dir": str(tmp_path / "run")}))
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    # evaluate before training -> missing artifact
    assert cli.main(["evaluate", "--config", str(cfg_path)]) == 5
    # malformed config -> config error
    bad = tmp_path / "bad.json"
    bad.write_text("{\"split\": \"nope\"}")
    assert cli.main(["gen-data", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["gen-data", "--config", str(missing)]) == 2
    listed = tmp_path / "list.json"
    listed.write_text('["split", "specialized"]')
    capsys.readouterr()
    assert cli.main(["gen-data", "--config", str(listed)]) == 2
    assert capsys.readouterr().err == (
        "[mstkd] error: config file must hold a JSON object\n")
    capsys.readouterr()


def test_cli_calls_parse_independently(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(pipeline, "load_config",
                        lambda path, seed, out: (path, seed, out))
    monkeypatch.setitem(pipeline.COMMANDS, "gen-data",
                        lambda cfg, force: seen.append((cfg, force)))
    assert cli.main(["gen-data", "--config", "a.json", "--force",
                     "--seed-override", "7", "--out", "o"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-data"])           # --config is required
    assert exc.value.code == 2
    assert cli.main(["gen-data", "--config", "b.json"]) == 0
    assert seen == [(("a.json", 7, "o"), True), (("b.json", None, None), False)]
    assert cli._parser() is cli._parser()
    capsys.readouterr()


def test_cli_init_config_and_full_run(tmp_path):
    cfg_path = tmp_path / "default.json"
    assert cli.main(["init-config", "--out", str(cfg_path)]) == 0
    doc = json.loads(cfg_path.read_text())
    assert doc == pipeline.default_config_dict()


def test_train_student_reads_embeddings_not_teachers(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_config(out)
    pipeline.run_all(cfg)
    student = out / "students" / "DuL_eaf_kd.ckpt"
    before = student.read_bytes()
    for ckpt in (out / "teachers").glob("*.ckpt"):
        ckpt.unlink()
    pipeline.cmd_train_student(cfg, force=True)
    assert student.read_bytes() == before
    emb = out / "embeddings" / "teacher_0.mste"
    emb.write_bytes(emb.read_bytes()[:-1] + b"\x07")
    with pytest.raises(MissingArtifactError) as err:
        pipeline.cmd_train_student(cfg)
    assert "embeddings/teacher_0.mste" in str(err.value)
    emb.unlink()
    with pytest.raises(MissingArtifactError) as err:
        pipeline.cmd_train_student(cfg)
    assert "embeddings/teacher_0.mste" in str(err.value)


def test_a_fusion_order_reaches_the_trained_models(tmp_path):
    """`fusion_order` [3, 1, 0, 2], which is not its own inverse, orders the
    blocks that the SL adaptor and its a_kd student train on: each equals
    the trainer called directly, with its job's seeds, on the embeddings
    listed in that order, and the identity order trains other parameters."""
    order = [3, 1, 0, 2]
    out = tmp_path / "run"
    cfg = tiny_config(out, fusion_order=order)
    pipeline.run_all(cfg)
    tags = cfg.dataset.tags()
    train = store.load_sample_set(out / "dataset" / "train.mste", tags)
    sets = [store.load_sample_set(out / "embeddings" / f"teacher_{g}.mste", tags)
            for g in range(4)]
    i, j = cfg.adaptors.index("SL"), cfg.student_modes.index("a_kd")
    adaptor = models.load_adaptor(out / "adaptors" / "SL.ckpt")
    student = models.load_student(out / "students" / "SL_a_kd.ckpt")

    def direct(listed):
        a, _ = training.train_adaptor(
            "SL", listed, cfg.eaf, cfg.optim("adaptor", cfg.seeds.train + 100 + i),
            init_seed=cfg.seeds.init + 100 + i)
        s, _ = training.train_student(
            "a_kd", adaptor, listed, train, cfg.lam, cfg.eaf, cfg.backbone,
            cfg.optim("student", cfg.seeds.train + 200 + 10 * i + j),
            init_seed=cfg.seeds.init + 200 + 10 * i + j)
        return a, s

    def same(a, b):
        return all(a.params[n].tobytes() == b.params[n].tobytes() for n in a.params)

    ordered = direct([sets[g] for g in order])
    identity = direct(sets)
    assert same(adaptor, ordered[0]) and same(student, ordered[1])
    assert not same(adaptor, identity[0]) and not same(student, identity[1])


def test_run_all_hashes_each_artifact_once_per_call(tmp_path, monkeypatch,
                                                    capsys):
    out = tmp_path / "run"
    cfg = tiny_config(out)
    pipeline.run_all(cfg)
    stages = pipeline.load_manifest(out)["stages"].values()
    artifacts = [out / rel for record in stages for rel in record["artifacts"]]
    hashed = []
    real_sha256 = store.sha256_file
    monkeypatch.setattr(store, "sha256_file",
                        lambda path: hashed.append(path) or real_sha256(path))
    capsys.readouterr()
    pipeline.run_all(cfg)
    assert capsys.readouterr().out.count("skipping") == 6
    assert sorted(hashed) == sorted(artifacts)
    # a file changed between two calls is caught by the next call
    student = out / "students" / "SL_a_kd.ckpt"
    before = student.read_bytes()
    student.write_bytes(b"tampered")
    pipeline.run_all(cfg)
    assert capsys.readouterr().out.count("skipping") == 5
    assert student.read_bytes() == before


def _cli_config(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = tiny_config(tmp_path / "run")
    path.write_text(json.dumps(pipeline.config_to_dict(cfg)))
    return str(path)


def test_cli_rejects_non_integer_workers(tmp_path, monkeypatch, capsys):
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    monkeypatch.setenv("MSTKD_WORKERS", "two")
    capsys.readouterr()
    assert cli.main(["train-teachers", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MSTKD_WORKERS" in err and "'two'" in err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_rejects_non_positive_workers(tmp_path, monkeypatch, capsys, workers):
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    monkeypatch.setenv("MSTKD_WORKERS", workers)
    capsys.readouterr()
    assert cli.main(["train-teachers", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MSTKD_WORKERS" in err and workers in err
    assert not list((tmp_path / "run").rglob("*.ckpt"))


def test_teacher_pool_writes_what_one_process_writes(tmp_path, monkeypatch):
    """A whole `run-all` at one worker, two workers and the default count
    writes every file of the run directory byte for byte alike, the logs
    and the manifest included."""
    cfg_path = _cli_config(tmp_path)
    files = []
    for workers in ("1", "2", None):
        out = tmp_path / f"workers_{workers}"
        if workers is None:
            monkeypatch.delenv("MSTKD_WORKERS", raising=False)
        else:
            monkeypatch.setenv("MSTKD_WORKERS", workers)
        assert cli.main(["run-all", "--config", cfg_path, "--out", str(out)]) == 0
        files.append(run_files(out))
    assert {name.split("/")[0] for name in files[0]} == {
        "dataset", "teachers", "embeddings", "adaptors", "students", "reports",
        "config.json", "manifest.json"}
    assert sum(name.endswith(".log.jsonl") for name in files[0]) == 4 + 3 + 6
    assert differing_files(files[0], files[1]) == []
    assert differing_files(files[0], files[2]) == []


def test_bad_workers_value_exits_2_before_any_write(tmp_path, monkeypatch, capsys):
    cfg_path = _cli_config(tmp_path)
    monkeypatch.setenv("MSTKD_WORKERS", "two")
    capsys.readouterr()
    assert cli.main(["run-all", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MSTKD_WORKERS" in err
    assert not (tmp_path / "run").exists()


def test_an_output_that_overflows_exits_4_with_one_line(tmp_path, monkeypatch,
                                                        capsys):
    """Each student takes one step at lambda 1e308 and keeps finite
    parameters, but its inference overflows: `evaluate` rejects the
    non-finite rows, and no report is computed from them."""
    doc = pipeline.default_config_dict()
    doc.update({"dataset": {"identities_per_group": 4, "samples_per_identity": 3,
                            "validation_identities_per_group": 3,
                            "test_identities_per_group": 3},
                "pairs_per_group": 8, "schedule_scale": 0.05, "lambda": 1e308,
                "out_dir": str(tmp_path / "run")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("MSTKD_WORKERS", "1")
    capsys.readouterr()
    assert cli.main(["run-all", "--config", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("[mstkd] error: students/SL_eaf_kd: row norm at or "
                            "below 1e-12 or not finite; cannot normalize\n")
    assert "train-student: " in captured.out
    assert not list((tmp_path / "run" / "reports").glob("*"))


@pytest.mark.parametrize("noise", [1e300, 1e200, 1e160])
def test_an_input_that_overflows_in_training_exits_4_with_one_line(
        tmp_path, monkeypatch, capsys, noise):
    """Samples drawn at an intra-class noise this large overflow the first
    training forward: its output rows cannot be normalized, which stops
    training like a non-finite loss does, naming the epoch and batch."""
    doc = pipeline.default_config_dict()
    doc.update({"dataset": {"identities_per_group": 4, "samples_per_identity": 3,
                            "validation_identities_per_group": 3,
                            "test_identities_per_group": 3,
                            "intra_class_noise": [noise] * 4},
                "pairs_per_group": 8, "schedule_scale": 0.05,
                "out_dir": str(tmp_path / "run")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("MSTKD_WORKERS", "1")
    capsys.readouterr()
    assert cli.main(["run-all", "--config", str(path)]) == 4
    assert capsys.readouterr().err == (
        "[mstkd] error: teachers/teacher_0: row norm at or below 1e-12 or not "
        "finite; cannot normalize at epoch 1, batch 1\n")


@pytest.mark.parametrize("workers", [None, "1"])
def test_a_diverging_run_exits_4_with_one_line(tmp_path, monkeypatch, capsys,
                                               workers):
    """At lambda 1e308 the tiny config's students overflow in training: the
    first output row that cannot be normalized stops the command with one
    stderr line and no numpy warning, at the default worker count and in
    one process."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(pipeline.config_to_dict(
        tiny_config(tmp_path / "run", **{"lambda": 1e308}))))
    if workers is None:
        monkeypatch.delenv("MSTKD_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MSTKD_WORKERS", workers)
    capsys.readouterr()
    assert cli.main(["run-all", "--config", str(path)]) == 4
    assert capsys.readouterr().err == (
        "[mstkd] error: students/SL_eaf_kd: row norm at or below 1e-12 or not "
        "finite; cannot normalize at epoch 1, batch 2\n")


@pytest.mark.parametrize("workers", [None, "64"])
def test_workers_never_exceed_the_usable_cores(tmp_path, monkeypatch, workers):
    if workers is None:
        monkeypatch.delenv("MSTKD_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MSTKD_WORKERS", workers)
    assert pipeline._Run(tmp_path).workers == len(os.sched_getaffinity(0))


def test_commands_run_where_the_os_has_no_affinity_call(tmp_path, monkeypatch,
                                                        capsys):
    """Without `os.sched_getaffinity` (macOS, Windows) a command counts
    every core as usable."""
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delenv("MSTKD_WORKERS", raising=False)
    assert pipeline._Run(tmp_path).workers == (os.cpu_count() or 1)
    assert cli.main(["gen-data", "--config", _cli_config(tmp_path)]) == 0
    capsys.readouterr()


def _kill_own_worker(*args, **kwargs):
    """A trainer whose worker process is killed by a signal."""
    assert multiprocessing.parent_process() is not None, "ran in the test process"
    os.kill(os.getpid(), signal.SIGKILL)


@needs_two_cores
def test_killed_worker_is_one_internal_error_line(tmp_path, monkeypatch, capsys):
    cfg_path = _cli_config(tmp_path)
    monkeypatch.delenv("MSTKD_WORKERS", raising=False)
    monkeypatch.setattr(training, "train_adaptor", _kill_own_worker)
    capsys.readouterr()
    assert cli.main(["run-all", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("[mstkd] internal error: BrokenProcessPool: ")
    stages = pipeline.load_manifest(tmp_path / "run")["stages"]
    assert set(stages) == {"gen-data", "train-teachers", "extract"}


@needs_two_cores
def test_divergence_in_a_worker_exits_4(tmp_path, monkeypatch, capsys):
    real = losses.elastic_arcface

    def nan_in_a_worker(*args, **kwargs):
        value, *grads = real(*args, **kwargs)
        if multiprocessing.parent_process() is not None:
            value = math.nan
        return (value, *grads)

    cfg_path = _cli_config(tmp_path)
    monkeypatch.delenv("MSTKD_WORKERS", raising=False)
    monkeypatch.setattr(losses, "elastic_arcface", nan_in_a_worker)
    capsys.readouterr()
    assert cli.main(["run-all", "--config", cfg_path]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.rstrip("\n").endswith("non-finite loss (nan) at epoch 1, batch 1")
    assert set(pipeline.load_manifest(tmp_path / "run")["stages"]) == {"gen-data"}


@pytest.mark.parametrize("workers", [
    pytest.param(None, marks=needs_two_cores, id="pool"),
    pytest.param("1", id="one-process")])
def test_a_non_finite_gradient_names_its_model_epoch_and_batch(
        tmp_path, monkeypatch, capsys, workers):
    """A NaN in the header gradient with a finite loss: the optimizer's
    refusal names the parameter, the model, the epoch and the batch."""
    real = losses.elastic_arcface

    def nan_header_gradient(*args, **kwargs):
        loss, g_emb, g_header = real(*args, **kwargs)
        g_header[0, 0] = math.nan
        return loss, g_emb, g_header

    cfg_path = _cli_config(tmp_path)
    if workers is None:
        monkeypatch.delenv("MSTKD_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MSTKD_WORKERS", workers)
    monkeypatch.setattr(losses, "elastic_arcface", nan_header_gradient)
    capsys.readouterr()
    assert cli.main(["run-all", "--config", cfg_path]) == 4
    assert capsys.readouterr().err == (
        "[mstkd] error: teachers/teacher_0: non-finite gradient in header.W at "
        "epoch 1, batch 1\n")
    assert set(pipeline.load_manifest(tmp_path / "run")["stages"]) == {"gen-data"}


def _blas_threads():
    return pipeline._openblas_threads()[0]()


def _note_blas_threads(monkeypatch, notes):
    """Make inference and every trainer append (what, pid, OpenBLAS
    threads on entry) to the file `notes`, from any process."""
    def noting(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            with open(notes, "a") as fh:
                fh.write(f"{name} {os.getpid()} {_blas_threads()}\n")
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    for name in ("extract_embeddings", "train_teacher", "train_adaptor",
                 "train_student"):
        noting(training, name)
    noting(pipeline, "evaluate_embeddings")


@pytest.mark.parametrize("workers, diverge", [
    pytest.param(None, False, marks=needs_two_cores, id="pool"),
    pytest.param(None, True, marks=needs_two_cores, id="pool-diverges"),
    pytest.param("1", False, id="one-worker"),
    pytest.param("1", True, id="one-worker-diverges"),
])
def test_a_pool_pins_the_command_to_one_blas_thread(
        tmp_path, monkeypatch, capsys, set_blas_threads, workers, diverge):
    """From its first training job on, a command runs at one OpenBLAS
    thread: every job, in a worker or in the command's process, and the
    inference after it. The caller's count is back after the command,
    also when a job raises `DivergenceError`."""
    cfg_path, notes = _cli_config(tmp_path), tmp_path / "notes"
    if workers is None:
        monkeypatch.delenv("MSTKD_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MSTKD_WORKERS", workers)
    _note_blas_threads(monkeypatch, notes)
    if diverge:
        real = losses.elastic_arcface

        def nan_loss(*args, **kwargs):
            value, *grads = real(*args, **kwargs)
            return (math.nan, *grads)
        monkeypatch.setattr(losses, "elastic_arcface", nan_loss)
    set_blas_threads(2)
    assert cli.main(["run-all", "--config", cfg_path]) == (4 if diverge else 0)
    assert _blas_threads() == 2
    seen = [line.split() for line in notes.read_text().splitlines()]
    inference = [(int(pid), int(n)) for name, pid, n in seen
                 if not name.startswith("train_")]
    jobs = [(int(pid), int(n)) for name, pid, n in seen if name.startswith("train_")]
    # `extract` embeds with each of 4 teachers, `evaluate` scores 6 students
    assert len(inference) == (0 if diverge else 4 + 6)
    assert len(jobs) >= (1 if diverge else 4 + 3 + 6)
    if workers is None:
        assert set(inference) <= {(os.getpid(), 1)}
        assert {n for _, n in jobs} == {1}
        assert os.getpid() not in {pid for pid, _ in jobs}
    else:
        assert set(inference) <= set(jobs) == {(os.getpid(), 1)}


def _blas_threads_of_job(cfg, out, i):
    return os.getpid(), _blas_threads()


@needs_two_cores
def test_an_interrupt_shuts_the_pool_down_then_restores_the_blas_count(
        tmp_path, monkeypatch, set_blas_threads):
    monkeypatch.delenv("MSTKD_WORKERS", raising=False)
    set_blas_threads(2)
    with pytest.raises(KeyboardInterrupt):
        with pipeline._Run(tmp_path) as run:
            assert _blas_threads() == 2  # no pool yet
            jobs = list(run.map(_blas_threads_of_job, None, range(2)))
            assert _blas_threads() == 1
            raise KeyboardInterrupt
    assert run.pool is None and multiprocessing.active_children() == []
    assert _blas_threads() == 2
    assert {n for _, n in jobs} == {1} and os.getpid() not in {p for p, _ in jobs}


def test_resume_and_reembed_make_no_worker_pool(tmp_path, monkeypatch, capsys,
                                               set_blas_threads):
    """A resume and a lone forced `extract` or `evaluate` train nothing: they
    make no pool and run at the caller's OpenBLAS count, which they leave
    unchanged."""
    cfg_path, notes = _cli_config(tmp_path), tmp_path / "notes"
    assert cli.main(["run-all", "--config", cfg_path]) == 0

    def no_pool(workers):
        raise AssertionError("a worker pool was made")

    monkeypatch.setattr(pipeline, "_new_pool", no_pool)
    _note_blas_threads(monkeypatch, notes)
    set_blas_threads(2)
    capsys.readouterr()
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    assert capsys.readouterr().out.count("skipping") == 6
    assert _blas_threads() == 2
    for command in ("extract", "evaluate"):
        assert cli.main([command, "--config", cfg_path, "--force"]) == 0
        assert _blas_threads() == 2
    assert "skipping" not in capsys.readouterr().out
    seen = [line.split() for line in notes.read_text().splitlines()]
    # `extract` embeds with each of 4 teachers, `evaluate` scores 6 students
    assert len(seen) == 4 + 6
    assert {(int(pid), int(n)) for _, pid, n in seen} == {(os.getpid(), 2)}


@pytest.mark.parametrize("exc, code, line", [
    (KeyboardInterrupt(), 130, "[mstkd] interrupted"),
    (ValueError("bad\nvalue"), 1, "[mstkd] internal error: ValueError: bad value"),
], ids=["interrupt", "bug"])
def test_cli_reports_an_unexpected_exception_in_one_line(monkeypatch, capsys,
                                                        exc, code, line):
    def command(cfg, force):
        raise exc

    monkeypatch.setattr(pipeline, "load_config", lambda path, seed, out: None)
    monkeypatch.setitem(pipeline.COMMANDS, "gen-data", command)
    capsys.readouterr()
    try:
        rc = cli.main(["gen-data", "--config", "a.json"])
    except KeyboardInterrupt:  # escaping, it would stop the test session
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert rc == code
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("klass, code", [
    (MstkdError, 1), (ContractError, 1), (ConfigError, 2), (FormatError, 3),
    (DivergenceError, 4), (MissingArtifactError, 5)])
def test_each_error_class_exits_with_its_code_on_one_line(monkeypatch, capsys,
                                                          klass, code):
    def command(cfg, force):
        raise klass("the stage failed")

    monkeypatch.setattr(pipeline, "load_config", lambda path, seed, out: None)
    monkeypatch.setitem(pipeline.COMMANDS, "evaluate", command)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", "a.json"]) == klass.exit_code == code
    assert capsys.readouterr().err == "[mstkd] error: the stage failed\n"


@pytest.mark.parametrize("damage", [
    lambda good: good[:40],                                      # truncated
    lambda good: b'{"config_hash": "0", "stages": {"gen-data": {}}}',
    lambda good: json.dumps({**json.loads(good), "config_hash": 5}).encode(),
])
def test_cli_malformed_manifest_is_a_format_error(tmp_path, capsys, damage):
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    manifest = tmp_path / "run" / "manifest.json"
    manifest.write_bytes(damage(manifest.read_bytes()))
    capsys.readouterr()
    assert cli.main(["extract", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "manifest.json" in err
    # forcing the root stage starts a fresh manifest
    assert cli.main(["gen-data", "--config", cfg_path, "--force"]) == 0
    assert set(pipeline.load_manifest(tmp_path / "run")["stages"]) == {"gen-data"}


def test_init_config_into_missing_directory_exits_cleanly(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.json"
    assert cli.main(["init-config", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[mstkd] error:") and err.count("\n") == 1
    assert "missing/dir" in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("content", [
    '{"split": "specialized", "out_',   # truncated
    '["specialized"]',                  # not a JSON object
    '{"out_dir": "run"}',               # no split
    '{"split": 7}',                     # neither specialized nor balanced
])
def test_report_on_a_bad_config_copy_is_a_format_error(tmp_path, capsys, content):
    cfg_path = _cli_config(tmp_path)
    run = tmp_path / "evaluated"
    run.mkdir()
    (run / "config.json").write_text(content)
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg_path, str(run)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(run / "config.json") in err


def _run_with_reports(tmp_path):
    """A run directory that holds every report of the default config."""
    run = tmp_path / "evaluated"
    (run / "reports").mkdir(parents=True)
    (run / "config.json").write_text('{"split": "specialized"}')
    report = FairnessReport(["g0", "g1"], [90.0, 80.0], [0.5, 0.4],
                            *fairness_metrics([90.0, 80.0]))
    for kind in models.ADAPTOR_KINDS:
        for mode in ("eaf_kd", "a_kd"):
            (run / "reports" / f"{kind}_{mode}.json").write_text(report_to_json(report))
    return run


@pytest.mark.parametrize("content", [
    '{"groups": ["g0"]}', "not json",
    pytest.param(report_to_json(FairnessReport(["g0", "g1"], [90.0, 80.0], [0.5, 0.4],
                                               math.nan, 7.1, 2.0)), id="nan-global-acc"),
    pytest.param(report_to_json(FairnessReport(["g0", "g1"], [1e9, 80.0], [0.5, 0.4],
                                               85.0, 7.1, 2.0)), id="acc-above-100"),
    pytest.param(report_to_json(FairnessReport(["g0", "g1"], [90.0, 80.0], [0.5, 0.4],
                                               12.0, *fairness_metrics([90, 80])[1:])),
                 id="global-acc-12"),
    pytest.param(report_to_json(FairnessReport(["g0", "g1"], [90.0, 80.0], [0.5, 0.4],
                                               85.0, -math.sqrt(50), 2.0)),
                 id="negative-std")])
def test_report_on_a_malformed_report_is_a_format_error(tmp_path, capsys, content):
    cfg_path = _cli_config(tmp_path)
    run = _run_with_reports(tmp_path)
    bad = run / "reports" / "SL_a_kd.json"
    bad.write_text(content)
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg_path, str(run)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(bad) in err


def test_report_reads_every_report_before_it_writes(tmp_path, capsys):
    """A malformed report of the later mode leaves no comparison file of
    the earlier one behind."""
    cfg_path = _cli_config(tmp_path)
    run = _run_with_reports(tmp_path)
    (run / "reports" / "SL_a_kd.json").write_text("not json")
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg_path, str(run)]) == 3
    assert capsys.readouterr().out == ""
    assert not list(tmp_path.glob("**/students_*"))


@pytest.mark.parametrize("key, value", [
    ("groups", ["g0", 1]), ("per_group_acc", "90"), ("thresholds", [0.5, None]),
    ("global_acc", True), ("std", "7.07"), ("ser", "undef"), ("protocol", 5)])
def test_a_mistyped_report_key_is_named(tmp_path, capsys, key, value):
    cfg_path = _cli_config(tmp_path)
    run = _run_with_reports(tmp_path)
    bad = run / "reports" / "DuL_eaf_kd.json"
    bad.write_text(json.dumps({**json.loads(bad.read_text()), key: value}))
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg_path, str(run)]) == 3
    assert capsys.readouterr().err == (
        f"[mstkd] error: {bad} is not a fairness report (report.{key} has the bad "
        f"value {value!r})\n")


@pytest.mark.parametrize("edit, fault", [
    (lambda m: m.update(config_hash=5), "manifest.config_hash has the bad value 5"),
    (lambda m: m.update(stages=[]), "manifest.stages is not an object"),
    (lambda m: m["stages"]["gen-data"].pop("artifacts"),
     "manifest.stages.gen-data lacks 'artifacts'"),
    (lambda m: m["stages"]["gen-data"]["artifacts"].update({"dataset/test.mste": 7}),
     "manifest.stages.gen-data.artifacts.dataset/test.mste has the bad value 7"),
    (lambda m: m["stages"].update({"two\nlines": {}}),   # still one line of stderr
     "manifest.stages.two lines lacks 'artifacts'")],
    ids=["config-hash", "stages", "artifacts", "digest", "key-with-a-newline"])
def test_a_mistyped_manifest_key_is_named(tmp_path, capsys, edit, fault):
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["train-teachers", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == (
        f"[mstkd] error: {path} is not a run manifest ({fault}); "
        "run-all --force rebuilds the run\n")


def test_a_config_copy_without_a_known_split_names_the_key(tmp_path, capsys):
    cfg_path = _cli_config(tmp_path)
    run = _run_with_reports(tmp_path)
    (run / "config.json").write_text('{"split": "fair"}')
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg_path, str(run)]) == 3
    assert capsys.readouterr().err == (
        f"[mstkd] error: {run / 'config.json'} is not a run config "
        "(config.split has the bad value 'fair')\n")


def test_stage_that_skips_a_declared_artifact_is_not_recorded(tmp_path, monkeypatch):
    out = tmp_path / "run"
    cfg = tiny_config(out)
    stage = pipeline.STAGES["gen-data"]

    def body(cfg, out, run):
        summary = stage.body(cfg, out, run)
        (out / "dataset" / "pairs_test.txt").unlink()
        return summary

    monkeypatch.setitem(pipeline.STAGES, "gen-data",
                        dataclasses.replace(stage, body=body))
    with pytest.raises(ContractError, match="pairs_test.txt"):
        pipeline.cmd_gen_data(cfg)
    assert pipeline.load_manifest(out)["stages"] == {}
    with pytest.raises(MissingArtifactError):
        pipeline.cmd_train_teachers(cfg)


@pytest.mark.parametrize("key, value", [("tool_version", "0.1.0"),
                                        ("fusion_order", [0, 1, 2, 3])],
                         ids=["tool_version", "fusion_order"])
def test_a_manifest_with_an_unread_key_still_loads(tmp_path, capsys, key, value):
    """Manifests once recorded `tool_version` and `fusion_order` keys,
    which nothing read."""
    out = tmp_path / "run"
    cfg = tiny_config(out)
    pipeline.cmd_gen_data(cfg)
    manifest = pipeline.load_manifest(out)
    assert manifest.keys() == {"config_hash", "stages"}
    store.write_json_atomic(out / "manifest.json", {**manifest, key: value})
    capsys.readouterr()
    pipeline.cmd_gen_data(cfg)
    assert "gen-data: up to date" in capsys.readouterr().out


def test_a_manifest_entry_that_names_a_directory_is_missing(tmp_path, capsys):
    """An upstream artifact that is a directory, not a file, is a missing
    artifact (exit 5, naming it), not an OS error."""
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["stages"]["gen-data"]["artifacts"]["dataset"] = "0" * 64
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["train-teachers", "--config", cfg_path]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing or modified: ['dataset']" in err


def test_a_train_pool_with_an_empty_group_is_a_format_error(tmp_path, capsys):
    """A train pool rewritten so that group 1 has no samples, with its
    manifest digest updated to match: `train-teachers` exits 3 naming the
    file, before any split of the pool."""
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    run = tmp_path / "run"
    path = run / "dataset" / "train.mste"
    groups = store.load_sample_set(path).groups
    raw = path.read_bytes()
    path.write_bytes(raw[:-groups.size]
                     + np.where(groups == 1, 0, groups).astype(np.uint8).tobytes())
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["stages"]["gen-data"]["artifacts"]["dataset/train.mste"] = \
        store.sha256_file(path)
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["train-teachers", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == (
        f"[mstkd] error: {path}: group 1 has no samples\n")


def test_a_train_pool_row_whose_group_has_no_tag_is_a_format_error(tmp_path,
                                                                   capsys):
    """Two group-1 rows of the train pool rewritten to group 9, which no tag
    names, with the manifest digest updated to match: `train-teachers`
    exits 3 naming the file, and nothing copies group 9 onwards."""
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    run = tmp_path / "run"
    path = run / "dataset" / "train.mste"
    groups = store.load_sample_set(path).groups.copy()
    groups[np.flatnonzero(groups == 1)[:2]] = 9
    path.write_bytes(path.read_bytes()[:-groups.size]
                     + groups.astype(np.uint8).tobytes())
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["stages"]["gen-data"]["artifacts"]["dataset/train.mste"] = \
        store.sha256_file(path)
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["train-teachers", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == (
        f"[mstkd] error: {path}: a row has group 9, but only "
        "4 groups are tagged\n")
    assert set(pipeline.load_manifest(run)["stages"]) == {"gen-data"}


@pytest.fixture(scope="module")
def evaluated_run(tmp_path_factory):
    """A tiny run with every stage done, which a test copies to damage."""
    out = tmp_path_factory.mktemp("evaluated") / "run"
    pipeline.run_all(tiny_config(out))
    return out


def _damaged_copy(tmp_path, evaluated_run, stage, damages):
    """A copy of `evaluated_run` at `tmp_path / "run"` whose artifacts of
    `stage` are rewritten, {rel: bytes}, with the manifest digests updated
    to match, so that only the bytes are at fault; the copy's config path."""
    run = tmp_path / "run"
    shutil.copytree(evaluated_run, run)
    manifest = json.loads((run / "manifest.json").read_text())
    for rel, blob in damages.items():
        (run / rel).write_bytes(blob)
        manifest["stages"][stage]["artifacts"][rel] = store.sha256_file(run / rel)
    (run / "manifest.json").write_text(json.dumps(manifest))
    return _cli_config(tmp_path)


@pytest.mark.parametrize("workers", [
    pytest.param(None, marks=needs_two_cores, id="pool"),
    pytest.param("1", id="one-process")])
def test_a_fault_in_an_input_every_job_reads_names_only_the_file(
        tmp_path, monkeypatch, capsys, evaluated_run, workers):
    """A truncated embedding set fails every adaptor job: the one line
    names the file, not the first adaptor."""
    rel = "embeddings/teacher_2.mste"
    cfg_path = _damaged_copy(tmp_path, evaluated_run, "extract",
                             {rel: (evaluated_run / rel).read_bytes()[:-7]})
    if workers is None:
        monkeypatch.delenv("MSTKD_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MSTKD_WORKERS", workers)
    capsys.readouterr()
    assert cli.main(["train-adaptor", "--config", cfg_path, "--force"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"[mstkd] error: {tmp_path / 'run' / rel}: header implies ")


@pytest.mark.parametrize("column, value, fault", [
    (0, 999999, "references a row outside the pool's 96 rows"),
    (1, -1, "references a row outside the pool's 96 rows"),
    (3, 3, "has a group other than its rows' group"),
    (3, 7, "has a group other than its rows' group"),
    (2, 0, "has a genuine flag other than whether its rows share an identity")],
    ids=["index-999999", "index-minus-1", "group-3", "group-7", "impostor-flag"])
@pytest.mark.parametrize("name, command", [("validation", "train-teachers"),
                                           ("test", "evaluate")])
def test_a_pair_that_is_not_two_rows_of_its_pool_is_a_format_error(
        tmp_path, monkeypatch, capsys, evaluated_run, name, command, column, value,
        fault):
    """The first pair of a pair list, a genuine pair of group 0, damaged in
    one column: the stage that reads the list exits 3 naming the file and
    the pair. An index outside the pool exited 1 before, naming a model,
    and a wrong group or flag exited 0."""
    monkeypatch.setenv("MSTKD_WORKERS", "1")
    rel = f"dataset/pairs_{name}.txt"
    first, *rest = (evaluated_run / rel).read_text().splitlines(keepends=True)
    fields = first.split()
    assert fields[2:] == ["1", "0"]
    fields[column] = str(value)
    cfg_path = _damaged_copy(tmp_path, evaluated_run, "gen-data",
                             {rel: (" ".join(fields) + "\n" + "".join(rest)).encode()})
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path, "--force"]) == 3
    assert capsys.readouterr().err == (
        f"[mstkd] error: {tmp_path / 'run' / rel}: pair 1 {fault}\n")


def _relabelled(s):
    identities = s.identities.copy()
    identities[0] = 999
    return data.SampleSet(s.values, identities, s.groups, s.group_tags)


def _regrouped(s):
    return data.SampleSet(s.values, s.identities, np.where(s.groups == 0, 1, s.groups),
                          s.group_tags)


@pytest.mark.parametrize("damage, fault", [
    (lambda s: s.select(np.arange(s.n - 5)),
     "187 x 16 embeddings, the train pool embedded at the teachers' width is 192 x 16"),
    (lambda s: data.SampleSet(s.values[:, :8], s.identities, s.groups, s.group_tags),
     "192 x 8 embeddings, the train pool embedded at the teachers' width is 192 x 16"),
    (_relabelled, "the identities or groups of its rows are not those of the train pool"),
    (_regrouped, "the identities or groups of its rows are not those of the train pool")],
    ids=["cut-by-5-rows", "width-8", "one-identity-changed", "group-0-as-1"])
@pytest.mark.parametrize("command", ["train-adaptor", "train-student"])
def test_embedding_sets_that_are_not_the_train_pools_are_a_format_error(
        tmp_path, monkeypatch, capsys, evaluated_run, command, damage, fault):
    """Every teacher's embedding set damaged alike, so that the sets still
    agree with each other: a stage that fuses them exits 3 naming the
    first set in fusion order. Before, `train-adaptor` exited 0 on each of
    these sets, training on what it was given."""
    monkeypatch.setenv("MSTKD_WORKERS", "1")
    sets = {}
    for g in range(4):
        rel = f"embeddings/teacher_{g}.mste"
        store.save_sample_set(damage(store.load_sample_set(evaluated_run / rel)),
                              tmp_path / "set.mste")
        sets[rel] = (tmp_path / "set.mste").read_bytes()
    cfg_path = _damaged_copy(tmp_path, evaluated_run, "extract", sets)
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path, "--force"]) == 3
    assert capsys.readouterr().err == (
        f"[mstkd] error: {tmp_path / 'run' / 'embeddings' / 'teacher_0.mste'}: "
        f"{fault}\n")


def test_a_command_that_fails_its_upstream_check_writes_nothing(tmp_path, capsys):
    """`evaluate` on a fresh run directory exits 5 with one line and
    leaves no directory behind."""
    cfg_path = _cli_config(tmp_path)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs 'gen-data'" in err
    assert not (tmp_path / "run").exists()


def test_an_unrecorded_declared_artifact_makes_its_stage_stale(tmp_path, capsys):
    """A student checkpoint missing from disk and from its stage's record:
    `evaluate` exits 5 naming it, and `run-all` re-runs `train-student`,
    which writes the same bytes again."""
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    run = tmp_path / "run"
    ckpt = run / "students" / "SL_eaf_kd.ckpt"
    before = ckpt.read_bytes()
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["stages"]["train-student"]["artifacts"]["students/SL_eaf_kd.ckpt"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    ckpt.unlink()
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path, "--force"]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "['students/SL_eaf_kd.ckpt']" in err
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "train-student: up to date" not in out and out.count("skipping") == 4
    assert ckpt.read_bytes() == before
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    assert capsys.readouterr().out.count("skipping") == 6


def test_stale_reports_a_stage_with_no_record_without_hashing(tmp_path,
                                                              monkeypatch):
    """On a fresh manifest every stage's declared artifacts are all
    unrecorded, gen-data's too though its files are on disk, and nothing
    is hashed to say so."""
    cfg = tiny_config(tmp_path / "run")
    pipeline.cmd_gen_data(cfg)
    hashed = []
    monkeypatch.setattr(store, "sha256_file", hashed.append)
    run = pipeline._Run(tmp_path / "run", manifest={
        "config_hash": pipeline.config_hash(cfg), "stages": {}})
    for stage in pipeline.STAGES.values():
        assert pipeline._stale(stage, cfg, run) == stage.artifacts(cfg)
    assert hashed == []


def test_a_stage_whose_upstream_never_ran_exits_5_naming_its_artifacts(tmp_path,
                                                                      capsys):
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert cli.main(["extract", "--config", cfg_path]) == 5
    err = capsys.readouterr().err
    declared = pipeline.STAGES["train-teachers"].artifacts(tiny_config(tmp_path / "run"))
    assert err.count("\n") == 1 and "needs 'train-teachers'" in err
    assert f"missing or modified: {declared}" in err


def test_a_changed_stage_drops_the_records_built_on_it(tmp_path, monkeypatch,
                                                      capsys):
    """Forced stages that rewrite the same bytes keep every record. Teachers
    retrained by changed code drop the records of every later stage: a lone
    `evaluate` then exits 5 naming `train-student`, and `run-all` re-runs
    the four stages after `train-teachers`."""
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    manifest = pipeline.load_manifest(tmp_path / "run")
    for command in ("extract", "evaluate"):
        assert cli.main([command, "--config", cfg_path, "--force"]) == 0
    assert pipeline.load_manifest(tmp_path / "run") == manifest
    monkeypatch.setattr(training, "TEACHER_PHASE", (0.05, *training.TEACHER_PHASE[1:]))
    assert cli.main(["train-teachers", "--config", cfg_path, "--force"]) == 0
    assert set(pipeline.load_manifest(tmp_path / "run")["stages"]) == {
        "gen-data", "train-teachers"}
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs 'train-student'" in err
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    assert capsys.readouterr().out.count("skipping") == 2
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    assert capsys.readouterr().out.count("skipping") == 6


def test_an_undeclared_manifest_entry_is_stale_and_never_hashed(tmp_path, capsys,
                                                                monkeypatch):
    """A record entry that names a file outside the run directory, with that
    file's digest, is not an artifact of the stage: the upstream check fails
    on it and the skip check re-runs the stage, and neither hashes it."""
    cfg_path = _cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    outside = tmp_path / "outside.txt"
    outside.write_text("not an artifact\n")
    path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["stages"]["gen-data"]["artifacts"]["../outside.txt"] = \
        store.sha256_file(outside)
    path.write_text(json.dumps(manifest))
    hashed = []
    real = store.sha256_file
    monkeypatch.setattr(store, "sha256_file",
                        lambda p: hashed.append(str(p)) or real(p))
    capsys.readouterr()
    assert cli.main(["train-teachers", "--config", cfg_path]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing or modified: ['../outside.txt']" in err
    assert cli.main(["gen-data", "--config", cfg_path]) == 0
    assert "gen-data: wrote" in capsys.readouterr().out
    assert hashed and not [p for p in hashed if p.endswith("outside.txt")]
    assert "../outside.txt" not in pipeline.load_manifest(tmp_path / "run")[
        "stages"]["gen-data"]["artifacts"]


def test_manifest_records_exactly_the_declared_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_config(out, adaptors=["SL", "DLDPO"], student_modes=["a_kd"])
    pipeline.run_all(cfg)
    records = pipeline.load_manifest(out)["stages"]
    assert set(records) == set(pipeline.STAGES)
    for name, stage in pipeline.STAGES.items():
        assert sorted(records[name]["artifacts"]) == sorted(stage.artifacts(cfg))
