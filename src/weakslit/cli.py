"""Command-line front end: one subcommand per analysis command.

Config layering, lowest to highest precedence: built-in defaults,
``--preset``, ``--config`` file, repeated ``--set key=value`` overrides.

Exit codes: 0 success, 2 configuration errors, 3 numeric-domain errors,
4 I/O errors.
"""

import argparse
import json
import sys
from pathlib import Path

from .config import DEFAULTS, PRESETS, from_dict, merge, parse_override
from .errors import (ConfigError, GridMismatchError, MomentUndefinedError,
                     OutputError, ResolutionError, WindowRangeError)
from .outputs import emit_outputs
from .runner import COMMANDS, run

__all__ = ["main", "build_parser"]

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_NUMERIC_ERRORS = (ResolutionError, WindowRangeError, MomentUndefinedError,
                   GridMismatchError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakslit",
        description="Weak-valued momentum-transfer analysis of a double slit "
                    "with polarization which-way marking.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} analysis")
        cmd.add_argument("--config", metavar="PATH",
                         help="JSON config file merged over the preset")
        cmd.add_argument("--preset", metavar="NAME", choices=sorted(PRESETS),
                         help="named base scenario "
                              f"({', '.join(sorted(PRESETS))})")
        cmd.add_argument("--out", metavar="DIR",
                         help="output directory (overrides config)")
        cmd.add_argument("--set", metavar="KEY=VALUE", action="append",
                         dest="overrides", default=[],
                         help="dotted-path config override; repeatable")
    return parser


def _load_raw_config(args) -> dict:
    raw = DEFAULTS
    if args.preset:
        raw = merge(raw, PRESETS[args.preset])
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        if text.strip():
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{args.config} is not valid JSON: {exc}") from None
            if not isinstance(payload, dict):
                raise ConfigError(f"{args.config}: config root must be a "
                                  "JSON object")
            raw = merge(raw, payload)
    for assignment in args.overrides:
        raw = merge(raw, parse_override(assignment))
    if args.out:
        raw = merge(raw, {"output_dir": args.out})
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = from_dict(_load_raw_config(args))
        bundle = run(config, args.command)
        written = emit_outputs(bundle, config.output_dir())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OutputError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
