"""Command-line front end: one subcommand per analysis command.

Config layering, lowest to highest precedence: built-in defaults,
``--preset``, ``--config`` file, repeated ``--set key=value`` overrides.

Exit codes: 0 success, 2 configuration errors, 3 numeric-domain errors
and running out of memory, 4 I/O errors.
"""

import argparse
import contextlib
import os
import sys
from typing import NoReturn

from .config import (DEFAULTS, PRESETS, from_dict, merge, parse_json_object,
                     parse_override)
from .errors import ConfigError, NumericError, OutputError
from .outputs import emit_outputs
from .runner import COMMANDS, run

__all__ = ["main", "console_entry", "build_parser"]

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


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
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as file:
                text = file.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8: {exc}") from None
        raw = merge(raw, parse_json_object(text, args.config))
    for assignment in args.overrides:
        raw = merge(raw, parse_override(assignment))
    if args.out is not None:
        raw = merge(raw, {"output_dir": args.out})
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = from_dict(_load_raw_config(args))
        bundle = run(config, args.command)
        # a closed stdout pipe raises here when stdout is unbuffered
        for path in emit_outputs(bundle, config.output_dir):
            print(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print("numeric error: out of memory; lower grid.n_points",
              file=sys.stderr)
        return EXIT_NUMERIC
    except (OutputError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


def console_entry(argv=None) -> NoReturn:
    """Run :func:`main`, flush stdout and stderr, and end the process.

    Every output file is closed before ``main`` returns, so all that is
    left is interpreter finalization, mostly tearing numpy down (about
    20 ms for paper ``wvp``); ``os._exit`` skips it.  argparse's
    ``SystemExit`` and unexpected exceptions propagate and take the
    normal exit path.  A flush that fails, e.g. on a closed stdout pipe,
    exits 4.  A stream closed before the process started is None and is
    skipped, so it does not change the code.
    """
    code = main(argv)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start
                stream.flush()
    except OSError as exc:
        code = EXIT_IO
        with contextlib.suppress(OSError):
            print(f"i/o error: cannot flush output: {exc}", file=sys.stderr,
                  flush=True)
    os._exit(code)


if __name__ == "__main__":
    console_entry()
