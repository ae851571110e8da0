"""Command-line front end: ``regsel <subcommand> --config PATH``.

Subcommands run one pipeline stage each (``all`` runs every stage in
order).  Exit code 0 on success; configuration problems exit 2, stage
failures exit 1 with a stage-tagged message.
"""

from __future__ import annotations

import argparse
import sys

from .pipeline import STAGES, PipelineError, _parse_value, read_config, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsel",
        description="Feature-selection and regression-diagnostics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGES, "all"):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "all" else "run every stage")
        p.add_argument("--config", required=True, help="path to the key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override cv_seed")
        p.add_argument("--exclude-rows", default=None,
                       help="override exclude_rows (comma-separated 1-based row numbers)")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"cv_seed": args.seed, "out_dir": args.out}
    try:
        if args.exclude_rows is not None:
            overrides["exclude_rows"] = _parse_value("exclude_rows", args.exclude_rows,
                                                     source="option --exclude-rows")
        cfg = read_config(args.config, overrides=overrides)
    except (OSError, ValueError) as exc:
        print(f"regsel: config error: {exc}", file=sys.stderr)
        return 2

    stages = STAGES if args.command == "all" else (args.command,)
    for stage in stages:
        try:
            paths = run_stage(stage, cfg)
        except PipelineError as exc:
            print(f"regsel: {exc}", file=sys.stderr)
            return 1
        print(f"{stage}: wrote {len(paths)} file(s) to {cfg.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
