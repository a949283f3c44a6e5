"""Whole-run-directory comparison shared by the determinism tests.

Every file a run writes, its epoch logs and `manifest.json` included, is a
pure function of the config: two runs of one config, in any two
directories and at any worker or BLAS thread count, hold the same paths
with the same bytes. A file that may differ between two runs would be
left out here, and only here.
"""

from pathlib import Path


def run_files(out) -> dict[str, bytes]:
    """Every file under the run directory `out`: {relative path: bytes}."""
    out = Path(out)
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def differing_files(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """The paths of two `run_files` results that only one holds, or that
    both hold with different bytes, sorted."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
