"""Command-line entry point.

    mstkd <subcommand> --config <path> [--force] [--seed-override N] [--out DIR]

Subcommands: gen-data, train-teachers, extract, train-adaptor,
train-student, evaluate, report (takes evaluated run directories as
positional arguments), run-all, and init-config (writes the default
config).

The training stages are lists of independent per-model jobs, one per
entry of each kind's model list: 4 teachers, one adaptor per kind and one
student per (adaptor, mode), 13 at the default config. A job takes the
validated config, the run directory and its index. Each command runs the
jobs in one pool of forked worker processes, made on its first job list
that can use two workers and shut down when the command ends, also when
it fails. By default a job list uses min(usable cores, jobs) workers;
MSTKD_WORKERS=N lowers that cap (it is never raised above the usable
cores), and MSTKD_WORKERS=1 trains in this process. gen-data, extract and
evaluate, and a run-all that skips every stage, make no pool. Workers
return each model and its epoch log, and this process writes every file,
in job order, so the output is byte-identical at any worker count.
A command that trains runs at one thread of numpy's own OpenBLAS from
its first training job to its end, inference included, and then
restores the caller's count; a command that trains nothing keeps it.

Exit codes, each the `exit_code` of its `mstkd.errors` class: 0 success,
2 ConfigError (MSTKD_WORKERS is read before any write; an empty, repeated
or unknown adaptor kind or student mode; a gen-data output or a network
over 2**30 bytes), 3 FormatError (a malformed artifact or report, a
sample-set row whose group has no tag, a pair that is not two rows of
its pool, or a teacher embedding set that is not the train pool's rows at
the teachers' width; the message names the file, and in a JSON file the
key at fault), 4 DivergenceError (the first
non-finite loss or gradient in training, or an output that cannot be
normalized; the message names the model, and in training the epoch and
batch), 5 MissingArtifactError (a missing upstream artifact, or an
upstream stage with no current record, found before the stage writes
anything), 130
interrupted, 1 anything else: a ContractError, an OS error, or an
internal error (a bug, or a worker killed by a signal) reported as one
`[mstkd] internal error: ...` line. A command and its workers run with
numpy's float warnings off; loss, gradient and output norm are checked.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import pipeline, store
from .errors import MstkdError


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
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
    except (MstkdError, OSError) as exc:   # one line, even where it quotes a file
        print(f"[mstkd] error: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    except KeyboardInterrupt:
        print("[mstkd] interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # a bug, or a worker process that was killed
        message = " ".join(str(exc).splitlines())
        print(f"[mstkd] internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
