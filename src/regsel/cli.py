"""Command-line front end: ``regsel <subcommand> --config PATH``.

Subcommands run one pipeline stage each (``all`` runs every stage in
order).  Exit code 0 on success; configuration problems exit 2, stage
failures exit 1 with a stage-tagged message.
"""

from __future__ import annotations

import argparse
import sys

from .pipeline import STAGES, PipelineError, _parse_value, read_config, run_stage


# each option that overrides a config key, whose value parses as that key's does
_KEY_OPTIONS = {"--seed": "cv_seed", "--exclude-rows": "exclude_rows"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsel",
        description="Feature-selection and regression-diagnostics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGES, "all"):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "all" else "run every stage")
        p.add_argument("--config", required=True, help="path to the key=value config file")
        for flag, key in _KEY_OPTIONS.items():
            p.add_argument(flag, dest=key, help=f"override the config key {key}")
        p.add_argument("--out", help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {key: _parse_value(key, getattr(args, key), source=f"option {flag}")
                     for flag, key in _KEY_OPTIONS.items() if getattr(args, key) is not None}
        cfg = read_config(args.config, overrides={**overrides, "out_dir": args.out})
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
