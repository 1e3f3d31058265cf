"""Command line entry point.

Verbs:
  run <config.json> [--workers N] [--out DIR]   execute a campaign
  validate <config.json>                        check a config, print problems or cost
  preset <name> --out <dir>                     write a built-in config file

Exit codes: 0 success, 1 one or more runs failed, 2 invalid config or bad
arguments (a worker count that is not a positive integer, or an output
directory or subdirectory that cannot be created, among them).
SKEWLAB_WORKERS overrides the default worker count when --workers is absent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .campaign import build_runs, prepare_outputs, resolve_workers, run_campaign
from .config import PRESET_NAMES, ConfigError, largest_arrays, load_config, preset_dict
from .ioutil import write_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlab",
        description="Class-imbalanced semi-supervised learning experiments on 2-D data.")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute every run in a campaign config")
    run_p.add_argument("config", type=Path, help="path to a campaign JSON file")
    run_p.add_argument("--workers", type=int, default=None,
                       help="process pool size (default: SKEWLAB_WORKERS or 1)")
    run_p.add_argument("--out", type=Path, default=None,
                       help="override the config's output directory")

    val_p = sub.add_parser("validate", help="validate a config and exit")
    val_p.add_argument("config", type=Path)

    pre_p = sub.add_parser("preset", help="write a built-in campaign config")
    pre_p.add_argument("name", choices=list(PRESET_NAMES))
    pre_p.add_argument("--out", type=Path, required=True,
                       help="directory to write <name>.json into")
    return parser


def _load(path: Path):
    try:
        return load_config(str(path))
    except FileNotFoundError:
        print(f"config file not found: {path}", file=sys.stderr)
        return None
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {path}: {exc}", file=sys.stderr)
        return None
    except ConfigError as exc:
        print("config is invalid:", file=sys.stderr)
        for error in exc.errors:
            print(f"  {error}", file=sys.stderr)
        return None


def _cannot_write(path: Path, exc: OSError) -> int:
    print(f"cannot write outputs: {path}: {exc}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.verb == "validate":
        config = _load(args.config)
        if config is None:
            return 2
        print(f"OK: {config.name} ({len(config.datasets)} datasets x "
              f"{len(config.algorithms)} algorithms x {len(config.seeds)} seeds)")
        n_runs = len(build_runs(config))
        cost = f"{n_runs} runs, {n_runs * config.schedule.total_iters} steps"
        largest = max(largest_arrays(config), key=lambda array: array[2], default=None)
        if largest is not None:
            path, array, count = largest
            cost += (f"; the largest array is {array} of {count} elements "
                     f"({8 * count} bytes), set by {path}")  # all float64
        print(cost)
        return 0

    if args.verb == "preset":
        target = args.out / f"{args.name}.json"
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            write_text(target, json.dumps(preset_dict(args.name), indent=2) + "\n")
        except OSError as exc:
            return _cannot_write(args.out, exc)
        print(target)
        return 0

    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    config = _load(args.config)
    if config is None:
        return 2
    out_dir = args.out if args.out is not None else Path(config.output_dir)
    try:
        prepare_outputs(config, out_dir)
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    failures = run_campaign(config, workers=workers, out_dir=out_dir)
    n_runs = len(build_runs(config))
    print(f"{config.name}: {n_runs - len(failures)}/{n_runs} runs succeeded; "
          f"outputs in {out_dir}")
    if failures:
        for run_id in sorted(failures):
            print(f"  failed: {run_id}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
