"""Command-line entry point.

    mstkd <subcommand> --config <path> [--force] [--seed-override N] [--out DIR]

Subcommands: gen-data, train-teachers, extract, train-adaptor,
train-student, evaluate, report (takes evaluated run directories as
positional arguments), run-all, and init-config (writes the default
config). Training always runs at one BLAS thread and inference at the
process's count. MSTKD_WORKERS=N trains the teachers in N processes, each
at one BLAS thread; on 2 cores, 2 workers run the stage in about three
quarters of the serial time.

Exit codes: 0 success, 2 config error, 3 data/format error, 4 divergence
(the first non-finite loss or gradient in training), 5 missing upstream
artifact, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import pipeline, store
from .errors import (ConfigError, DataError, DivergenceError, FormatError,
                     MissingArtifactError, MstkdError)

EXIT_CODES = [
    (ConfigError, 2),
    (DataError, 3),
    (FormatError, 3),
    (DivergenceError, 4),
    (MissingArtifactError, 5),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstkd",
        description="Multi-specialized-teacher distillation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_force=True):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed-override", type=int, default=None, metavar="N",
                       help="replace seeds with (N, N+1, N+2)")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="override the config's output directory")
        if with_force:
            p.add_argument("--force", action="store_true",
                           help="re-run even when artifacts are up to date")

    for name in pipeline.COMMANDS:
        add_common(sub.add_parser(name))
    report = sub.add_parser("report")
    add_common(report, with_force=False)
    report.add_argument("runs", nargs="+", metavar="RUN_DIR",
                        help="evaluated run directories to combine")
    init = sub.add_parser("init-config",
                          help="write the desk-scale default config")
    init.add_argument("--out", default="mstkd-config.json", metavar="PATH")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "init-config":
            store.write_json_atomic(args.out, pipeline.default_config_dict())
            print(f"[mstkd] wrote default config to {args.out}")
            return 0
        cfg = pipeline.load_config(args.config, args.seed_override, args.out)
        if args.command == "report":
            pipeline.cmd_report(cfg, args.runs, args.out)
        else:
            pipeline.COMMANDS[args.command](cfg, args.force)
        return 0
    except (MstkdError, OSError) as exc:
        print(f"[mstkd] error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
