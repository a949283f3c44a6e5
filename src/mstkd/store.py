"""Binary persistence for sample/embedding sets, pair lists, and checkpoints.

Sample container layout (little-endian throughout):
    magic "MSTE" | format version u32 | dtype u8 (1=f64, the only one) |
    row count u64 | dimension u64 | row-major values |
    identity label u32 per row | group tag u8 per row

Pair lists are UTF-8 text, one `idx_a idx_b genuine(0|1) group_index` line
per pair.

Checkpoints reuse the container preamble, then a text manifest (one line of
JSON metadata, then `name dims offset` per parameter) followed by the raw
f64 parameter data, which the parameters tile exactly, in manifest order.
That data block is the training layout too (`lay_out`); loaded parameters
are views of the file's bytes, so they are read-only.

Every file is written through `write_atomic`, which renames a complete
temporary file into place and leaves a file that already holds the same
bytes untouched; the loaders reject malformed files with `FormatError` and
check sizes against the file before allocating.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .data import GroupTag, PairList, SampleSet
from .errors import FormatError

MAGIC = b"MSTE"
VERSION = 1
_HEAD = MAGIC + VERSION.to_bytes(4, "little") + b"\x01"   # dtype code 1: f64
_BLOCK = 1 << 20   # bytes read per step when hashing or comparing a file


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"{fh.name}: truncated file while reading {what}")
    return buf


def _read_preamble(fh, kind: str, counts: tuple[str, ...]) -> list[int]:
    """Check the container's magic, version and dtype code (`kind` names
    the files in its error), then read the u64 `counts` that follow."""
    if _read_exact(fh, 4, "magic") != MAGIC:
        raise FormatError(f"{fh.name}: bad magic")
    version = int(np.frombuffer(_read_exact(fh, 4, "version"), "<u4")[0])
    if version != VERSION:
        raise FormatError(f"{fh.name}: unsupported format version {version}")
    code = int(np.frombuffer(_read_exact(fh, 1, "dtype"), "<u1")[0])
    if code != 1:
        raise FormatError(f"{fh.name}: unknown dtype code {code}; {kind} are f64")
    return [int(np.frombuffer(_read_exact(fh, 8, what), "<u8")[0]) for what in counts]


def save_sample_set(s: SampleSet, path) -> None:
    if s.n and (s.identities.min() < 0 or s.identities.max() > 0xFFFFFFFF):
        raise FormatError("identity labels overflow u32")
    if s.n and (s.groups.min() < 0 or s.groups.max() > 0xFF):
        raise FormatError("group tags overflow u8")
    write_atomic(path, [
        _HEAD, np.uint64(s.n).tobytes(), np.uint64(s.dim).tobytes(),
        np.ascontiguousarray(s.values, dtype="<f8").data,
        s.identities.astype("<u4").data, s.groups.astype("<u1").data])


def load_sample_set(path, group_tags: list[GroupTag] | None = None) -> SampleSet:
    with open(path, "rb") as fh:
        rows, dim = _read_preamble(fh, "sample sets", ("row count", "dimension"))
        # values, u32 labels and u8 groups must fill the rest of the file
        # exactly; checked before anything is allocated from the counts
        expected = fh.tell() + rows * dim * 8 + 5 * rows
        actual = os.fstat(fh.fileno()).st_size
        if expected != actual:
            raise FormatError(f"{path}: header implies {expected} bytes "
                              f"({rows} rows x {dim}), file has {actual}")
        if dim * 8 > np.iinfo(np.intp).max:   # only with zero rows
            raise FormatError(f"{path}: dimension {dim} is too large")
        values = np.empty((rows, dim), "<f8")
        if fh.readinto(values) != values.nbytes:
            raise FormatError(f"{path}: truncated file while reading values")
        idents = np.frombuffer(_read_exact(fh, rows * 4, "labels"), "<u4")
        groups = np.frombuffer(_read_exact(fh, rows, "groups"), "<u1")
    if group_tags is None:
        n_groups = int(groups.max()) + 1 if rows else 0
        group_tags = [GroupTag(i, f"g{i}") for i in range(n_groups)]
    if rows and groups.max() >= len(group_tags):
        raise FormatError(f"{path}: a row has group {groups.max()}, but only "
                          f"{len(group_tags)} groups are tagged")
    return SampleSet(values, idents, groups, group_tags)


def save_pairs(pairs: PairList, path) -> None:
    write_text_atomic(path, "".join(
        f"{pairs.a[i]} {pairs.b[i]} {1 if pairs.genuine[i] else 0} {pairs.group[i]}\n"
        for i in range(pairs.n)))


def load_pairs(path, pool: SampleSet | None = None) -> PairList:
    """The pair list at `path`; with a `pool`, every pair must be two of its
    rows, in the group of both, genuine exactly when the two rows share an
    identity, and `FormatError` names the first pair that is not."""
    pairs = _read_pairs(path)
    if pool is not None:
        inside = ((np.minimum(pairs.a, pairs.b) >= 0)
                  & (np.maximum(pairs.a, pairs.b) < pool.n))
        a, b = pairs.a * inside, pairs.b * inside   # a pair outside reads row 0 twice
        for bad, what in (
                (~inside, f"references a row outside the pool's {pool.n} rows"),
                ((pool.groups[a] != pairs.group) | (pool.groups[b] != pairs.group),
                 "has a group other than its rows' group"),
                ((pool.identities[a] == pool.identities[b]) != pairs.genuine,
                 "has a genuine flag other than whether its rows share an identity")):
            if bad.any():
                raise FormatError(f"{path}: pair {np.argmax(bad) + 1} {what}")
    return pairs


def _read_pairs(path) -> PairList:
    """A well-formed file is split into lines once and its integers are
    parsed in one numpy call; any other file is read line by line, and
    `FormatError` names its first bad line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: pair list is not UTF-8 ({exc})") from exc
    fields = np.fromiter(map(len, map(str.split, text.split("\n"))), np.intp)
    if np.all((fields == 0) | (fields == 4)):
        try:
            values = np.array(text.split(), dtype=np.int64)   # int() on each token
        except (ValueError, OverflowError):
            pass
        else:
            a, b, flag, group = np.ascontiguousarray(values.reshape(-1, 4).T)
            if np.all((flag == 0) | (flag == 1)):
                return PairList(a, b, flag == 1, group)
    for lineno, line in enumerate(text.split("\n"), 1):
        tokens = line.split()
        try:
            if len(tokens) not in (0, 4):
                raise ValueError("expected 4 fields")
            row = [int(token) for token in tokens]
            if row and row[2] not in (0, 1):
                raise ValueError("genuine flag must be 0 or 1")
            if not all(-2 ** 63 <= v < 2 ** 63 for v in row):
                raise ValueError("an index does not fit 64 bits")
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    raise FormatError(f"{path}: not a pair list")   # not reached: numpy parses as int()


def save_params(path, params: dict[str, np.ndarray], meta: dict) -> None:
    """Checkpoint: container preamble + text manifest + raw f64 data."""
    lines, offset = ["meta " + json.dumps(meta, sort_keys=True)], 0
    for name, arr in params.items():
        if " " in name:
            raise FormatError(f"parameter name {name!r} contains a space")
        lines.append(f"{name} {'x'.join(map(str, np.shape(arr)))} {offset}")
        offset += np.size(arr)
    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    write_atomic(path, [_HEAD, np.uint64(len(manifest)).tobytes(), manifest]
                 + [np.ascontiguousarray(a, dtype="<f8").data for a in params.values()])


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        (manifest_len,) = _read_preamble(fh, "checkpoints", ("manifest length",))
        room = os.fstat(fh.fileno()).st_size - fh.tell()
        if manifest_len > room:   # checked before the manifest is allocated
            raise FormatError(f"{path}: manifest length {manifest_len} exceeds "
                              f"the {room} bytes left in the file")
        manifest = _read_exact(fh, manifest_len, "manifest")
        data = fh.read()
    try:
        lines = [ln for ln in manifest.decode("utf-8").splitlines() if ln]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not UTF-8 ({exc})") from exc
    if not lines or not lines[0].startswith("meta "):
        raise FormatError(f"{path}: manifest missing meta line")
    try:
        meta = json.loads(lines[0][5:])
    except ValueError as exc:
        raise FormatError(f"{path}: meta line is not JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta line is not a JSON object")
    if len(data) % 8:
        raise FormatError(f"{path}: data block of {len(data)} bytes is not whole f64 values")
    flat = np.frombuffer(data, "<f8")
    shapes: dict[str, tuple[int, ...]] = {}
    end = 0   # the parameters tile the data block, in manifest order
    for ln in lines[1:]:
        try:
            name, dims, offset = ln.split(" ")
            shape = tuple(int(d) for d in dims.split("x")) if dims else ()
            offset = int(offset)
        except ValueError as exc:
            raise FormatError(f"{path}: bad manifest line {ln!r}") from exc
        if any(d < 0 for d in shape):
            raise FormatError(f"{path}: parameter {name} has a negative dimension")
        if name in shapes:
            raise FormatError(f"{path}: parameter {name} is listed twice")
        if offset != end:
            raise FormatError(f"{path}: parameter {name} starts at {offset}, not "
                              f"where the previous one ends ({end})")
        end = offset + math.prod(shape)
        shapes[name] = shape
    if end != flat.size:   # checked before any view is made
        raise FormatError(f"{path}: the parameters take {end} values, the data "
                          f"block holds {flat.size}")
    return lay_out(flat, shapes), meta


def lay_out(flat: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """Views of `flat` with the named shapes, end to end in order: the one
    parameter layout of checkpoints and of training."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        views[name] = flat[offset:offset + math.prod(shape)].reshape(shape)
        offset += math.prod(shape)
    return views


def sha256_file(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_BLOCK), b""):
            h.update(chunk)
    return h.hexdigest()


def write_atomic(path, chunks) -> None:
    """Write the byte chunks to a temporary file beside `path`, then rename
    it over `path`: a killed or failed writer leaves the old file or the new
    one, never a truncated one. Every artifact is written through here.

    A file that already holds exactly these bytes is left in place, inode
    and mtime included, so a re-run that reproduces an artifact writes
    nothing."""
    path = Path(path)
    views = [np.frombuffer(chunk, np.uint8) for chunk in chunks]
    if _holds(path, views):
        return
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for view in views:
                fh.write(view)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _holds(path: Path, views: list[np.ndarray]) -> bool:
    """Whether the file at `path` holds exactly the bytes of `views` (flat
    u8 views). Sizes are compared first, then bytes in blocks of at most
    1 MiB, up to the first block that differs; `bytes ==` is a memcmp,
    where `memoryview ==` compares item by item. A file that is missing or
    cannot be read holds nothing."""
    try:
        if os.stat(path).st_size != sum(v.size for v in views):
            return False
        with open(path, "rb") as fh:
            for view in views:
                for at in range(0, view.size, _BLOCK):
                    block = view[at:at + _BLOCK]
                    if fh.read(block.size) != block.tobytes():
                        return False
    except OSError:
        return False
    return True


def write_text_atomic(path, text: str) -> None:
    """`text` as UTF-8, written atomically."""
    write_atomic(path, [text.encode("utf-8")])


def write_json_atomic(path, doc) -> None:
    """`doc` as indented, key-sorted JSON with a final newline, written atomically."""
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --- JSON read back (checkpoint meta, reports, the manifest, the config copy):
# each reader has a table of fields, which `checked` checks with these rules

def is_int(v) -> bool:   # fits 64 bits; a bool is not one
    return type(v) is int and abs(v) < 2 ** 63


def is_number(v) -> bool:   # finite; a bool is not one
    return is_int(v) or type(v) is float and math.isfinite(v)


def is_str(v) -> bool:
    return type(v) is str


class _BadValue(Exception):
    """(suffix, value): the part of a field's value that fails its rule,
    raised by a `list_of` rule to `checked`, which names and quotes it."""


def list_of(rule):
    """The rule of a list whose every item passes `rule`: the first item
    that fails is the bad value, named by its index."""
    def test(v) -> bool:
        if type(v) is not list:
            return False
        for i, item in enumerate(v):
            if not rule(item):
                raise _BadValue(f"[{i}]", item)
        return True
    return test


def checked(doc, fields: dict, where: str) -> dict:
    """The `fields` of the JSON object `doc`, each checked by its rule: a
    test of the value, or the table of a nested object, where the key "*"
    stands for every key. A non-object, a missing field or a value that
    fails its test is a FormatError starting with `where`, naming the key
    and quoting the bad value (in a list, only the first bad item)."""
    if type(doc) is not dict:
        raise FormatError(f"{where} is not an object")
    out = {}
    for field, rule in fields.items():
        for key in doc if field == "*" else [field]:
            if key not in doc:
                raise FormatError(f"{where} lacks {key!r}")
            value = doc[key]
            if isinstance(rule, dict):
                value = checked(value, rule, f"{where}.{key}")
            else:
                try:
                    if not rule(value):
                        raise _BadValue("", value)
                except _BadValue as bad:
                    at, item = bad.args
                    raise FormatError(f"{where}.{key}{at} has the bad value "
                                      f"{item!r}") from None
            out[key] = value
    return out
