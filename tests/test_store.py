import errno
import io
import os

import numpy as np
import pytest

from mstkd import data as d
from mstkd import store, training
from mstkd.errors import FormatError


def make_set(n=7, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    return d.SampleSet(rng.normal(size=(n, dim)),
                       rng.integers(0, 50, size=n),
                       rng.integers(0, 4, size=n),
                       [d.GroupTag(i, f"g{i}") for i in range(4)])


def test_sample_set_round_trip_bit_exact(tmp_path):
    s = make_set()
    path = tmp_path / "s.mste"
    store.save_sample_set(s, path)
    loaded = store.load_sample_set(path, s.group_tags)
    assert np.array_equal(loaded.values, s.values)
    assert np.array_equal(loaded.identities, s.identities)
    assert np.array_equal(loaded.groups, s.groups)


def test_empty_set_round_trip(tmp_path):
    s = d.SampleSet(np.zeros((0, 512)), np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64), [])
    path = tmp_path / "empty.mste"
    store.save_sample_set(s, path)
    loaded = store.load_sample_set(path)
    assert loaded.n == 0
    assert loaded.dim == 512


def test_corrupted_magic_rejected(tmp_path):
    s = make_set()
    path = tmp_path / "s.mste"
    store.save_sample_set(s, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        store.load_sample_set(path)


def test_truncated_file_rejected(tmp_path):
    s = make_set()
    path = tmp_path / "s.mste"
    store.save_sample_set(s, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError):
        store.load_sample_set(path)


def test_trailing_bytes_rejected(tmp_path):
    s = make_set()
    path = tmp_path / "s.mste"
    store.save_sample_set(s, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        store.load_sample_set(path)


@pytest.mark.parametrize("n,rows,dim", [
    (7, 2**40, 5), (7, 7, 2**40), (7, 2**63, 5),
    (0, 0, 2**63 - 1), (0, 0, 2**63), (0, 0, 2**64 - 1)])
def test_header_counts_beyond_the_file_rejected_before_allocating(tmp_path, n, rows,
                                                                  dim):
    path = tmp_path / "s.mste"
    store.save_sample_set(make_set(n=n), path)
    raw = bytearray(path.read_bytes())
    raw[9:25] = np.array([rows, dim], dtype="<u8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        store.load_sample_set(path)


def test_truncated_values_rejected(tmp_path):
    s = make_set(n=6, dim=4)
    path = tmp_path / "s.mste"
    store.save_sample_set(s, path)
    raw = path.read_bytes()
    values_end = 25 + 6 * 4 * 8
    path.write_bytes(raw[:values_end - 5])
    with pytest.raises(FormatError):
        store.load_sample_set(path)
    path.write_bytes(raw[:values_end - 5] + raw[values_end:])
    with pytest.raises(FormatError):
        store.load_sample_set(path)


def test_version_mismatch_rejected(tmp_path):
    s = make_set()
    path = tmp_path / "s.mste"
    store.save_sample_set(s, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        store.load_sample_set(path)


def test_label_overflow_rejected(tmp_path):
    s = make_set()
    s.identities[0] = 1 << 33
    with pytest.raises(FormatError):
        store.save_sample_set(s, tmp_path / "s.mste")


def test_f32_container_rejected(tmp_path):
    """Sample sets are f64 (dtype code 1); the f32 code 0 is a format error."""
    path = tmp_path / "s32.mste"
    store.save_sample_set(make_set(), path)
    raw = bytearray(path.read_bytes())
    assert raw[8] == 1
    raw[8] = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="dtype code 0"):
        store.load_sample_set(path)


def test_a_row_whose_group_has_no_tag_rejected(tmp_path):
    """Every row's group indexes the tags a set is loaded with; loaded
    without tags, a set gets one for each group up to its largest."""
    s = make_set()
    s.groups[0] = 3
    path = tmp_path / "s.mste"
    store.save_sample_set(s, path)
    with pytest.raises(FormatError) as err:
        store.load_sample_set(path, s.group_tags[:3])
    assert str(err.value) == f"{path}: a row has group 3, but only 3 groups are tagged"
    assert store.load_sample_set(path, s.group_tags).group_tags == s.group_tags
    assert len(store.load_sample_set(path).group_tags) == 4


def test_pair_list_round_trip(tmp_path):
    train, _, _ = d.generate(d.SyntheticDatasetSpec(
        groups=2, identities_per_group=5, samples_per_identity=4,
        input_dim=16, shared_dim=4, group_dim=2,
        intra_class_noise=(0.05, 0.05), seed=0))
    pairs = d.build_pairs(train, 20, 0.5, seed=1)
    path = tmp_path / "pairs.txt"
    store.save_pairs(pairs, path)
    loaded = store.load_pairs(path)
    assert np.array_equal(loaded.a, pairs.a)
    assert np.array_equal(loaded.b, pairs.b)
    assert np.array_equal(loaded.genuine, pairs.genuine)
    assert np.array_equal(loaded.group, pairs.group)
    first = path.read_text().splitlines()[0].split()
    assert len(first) == 4 and first[2] in ("0", "1")


def test_pair_list_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 1\n")
    with pytest.raises(FormatError):
        store.load_pairs(path)


def test_pair_list_index_over_64_bits_names_its_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(f"0 1 1 0\n2 {2 ** 63} 0 1\n4 5 7 0\n")
    with pytest.raises(FormatError, match=r"bad.txt:2: an index does not fit 64 bits"):
        store.load_pairs(path)


def test_pair_list_not_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1 1 0\n\xff 2 0 1\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        store.load_pairs(path)


def test_params_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    params = {"backbone.0.W": rng.normal(size=(8, 4)),
              "backbone.0.b": rng.normal(size=4),
              "header.W": rng.normal(size=(10, 4))}
    meta = {"kind": "teacher", "group": 2, "best_epoch": 7}
    path = tmp_path / "t.ckpt"
    store.save_params(path, params, meta)
    loaded, loaded_meta = store.load_params(path)
    assert loaded_meta == meta
    assert list(loaded) == list(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name])


def test_save_is_deterministic(tmp_path):
    train, _, _ = d.generate(d.SyntheticDatasetSpec(
        groups=2, identities_per_group=4, samples_per_identity=3,
        input_dim=16, shared_dim=4, group_dim=2,
        intra_class_noise=(0.05, 0.05), seed=9))
    p1, p2 = tmp_path / "a.mste", tmp_path / "b.mste"
    store.save_sample_set(train, p1)
    store.save_sample_set(train, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _checkpoint(manifest=b'meta {"kind": "t"}\nw 2x3 0\nb 3 6\n', values=9,
                extra=b"", manifest_len=None):
    """Checkpoint bytes with the given manifest and `values` f64 values."""
    n = len(manifest) if manifest_len is None else manifest_len
    return (store.MAGIC + np.uint32(store.VERSION).tobytes() + np.uint8(1).tobytes()
            + np.uint64(n).tobytes() + manifest + np.arange(float(values)).tobytes()
            + extra)


@pytest.mark.parametrize("blob", [
    pytest.param(_checkpoint(values=10), id="trailing-data"),
    pytest.param(_checkpoint(b"meta {}\nw 2x3 0\nb 3 3\n", values=6), id="overlap"),
    pytest.param(_checkpoint(b"meta [1]\nw 2x3 0\nb 3 6\n"), id="meta-not-object"),
    pytest.param(_checkpoint(extra=b"\0\0\0"), id="data-not-whole-f64"),
    pytest.param(_checkpoint(b"meta {}\nw 2x3 -1\nb 3 5\n", values=8),
                 id="negative-offset"),
    pytest.param(_checkpoint(b"meta {}\nw -2x3 0\nb 3 6\n"), id="negative-dim"),
    pytest.param(_checkpoint(b'meta {"kind": t}\nw 2x3 0\nb 3 6\n'), id="bad-meta-json"),
    pytest.param(_checkpoint(b"meta {}\nw\xff 2x3 0\nb 3 6\n"), id="manifest-not-utf8"),
    pytest.param(_checkpoint(manifest_len=2**62), id="manifest-length-2**62"),
    pytest.param(_checkpoint(b"meta {}\nw 3 0\nw 6 3\n"), id="duplicate-name"),
])
def test_malformed_checkpoint_raises_format_error(tmp_path, blob):
    path = tmp_path / "t.ckpt"
    path.write_bytes(_checkpoint())
    params, meta = store.load_params(path)   # the uncorrupted layout loads
    assert meta == {"kind": "t"} and params["b"].tolist() == [6.0, 7.0, 8.0]
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        store.load_params(path)


class DiskFull(io.FileIO):
    """A file that takes half of a write, then fails as a full disk does."""

    def write(self, chunk):
        chunk = bytes(chunk)
        super().write(chunk[:len(chunk) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


PAIRS = d.PairList(np.array([0, 1]), np.array([1, 2]), np.array([True, False]),
                   np.array([0, 1]))
WRITERS = {
    "write_text_atomic": lambda p: store.write_text_atomic(p, "new text\n"),
    "save_sample_set": lambda p: store.save_sample_set(make_set(), p),
    "save_pairs": lambda p: store.save_pairs(PAIRS, p),
    "save_params": lambda p: store.save_params(p, {"w": np.ones((2, 3))}, {"k": 1}),
    "write_log": lambda p: training.write_log([{"epoch": 0, "mean_loss": 1.5}], p),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_full_disk_keeps_the_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    with monkeypatch.context() as patch:
        patch.setattr(store, "open", lambda p, mode: DiskFull(p, "w"), raising=False)
        with pytest.raises(OSError):
            WRITERS[writer](path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    WRITERS[writer](path)
    assert path.read_bytes() != b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_atomic_write_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "manifest.json"
    store.write_json_atomic(path, {"a": [1, 2]})
    assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ]\n}\n'
    with pytest.raises(UnicodeEncodeError):
        store.write_text_atomic(path, "partial \ud800 text")  # fails mid-write
    assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ]\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_write_atomic_leaves_a_file_with_the_same_bytes_in_place(tmp_path, monkeypatch):
    path = tmp_path / "s.mste"
    store.save_sample_set(make_set(), path)
    os.utime(path, ns=(10**9, 10**9))   # any rewrite moves the mtime to now
    inode = path.stat().st_ino
    monkeypatch.setattr(store.os, "replace", lambda *_: pytest.fail("renamed"))
    store.save_sample_set(make_set(), path)
    assert (path.stat().st_ino, path.stat().st_mtime_ns) == (inode, 10**9)
    assert [p.name for p in tmp_path.iterdir()] == ["s.mste"]


@pytest.mark.parametrize("at", [0, 3 + (1 << 20), 4 + (1 << 20), -1])
def test_write_atomic_replaces_a_file_of_the_same_size_with_other_bytes(tmp_path, at):
    """Each chunk is compared in 1 MiB blocks; a differing byte in the first
    chunk, at either side of a block boundary or at the end of the file
    makes a rewrite."""
    new = np.arange(3 << 17, dtype="<f8")   # 3 MiB in one chunk
    path = tmp_path / "blob"
    blob = bytearray(b"head" + new.tobytes())
    blob[at] ^= 0xFF
    path.write_bytes(bytes(blob))
    store.write_atomic(path, [b"head", new.data])
    assert path.read_bytes() == b"head" + new.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["blob"]
