"""The benchmark's workloads: fixed lists of ``weakslit`` CLI commands.

A round runs every command of a workload once.  The seed shuffles the
command order of each round and picks the two kicks of the
``full-tiling`` kick channel; neither changes the cost of a round.
"""

import json
import random
from dataclasses import dataclass

#: windows.count that tiles the whole 2^14 default grid: range(-574, 575).
FULL_TILING = 1149

#: 32 log-spaced pointer ratios from 0.3 down to 1e-3.
SWEEP_RATIOS = [round(0.3 * (1e-3 / 0.3) ** (k / 31), 6) for k in range(32)]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the summary invariants its outputs must meet.

    ``fixed`` commands have seed-independent inputs, so their outputs are
    also compared with the recorded references.  Each invariant is
    ``(summary key, op, value)`` with op ``approx`` (within 1e-6), ``le``
    or ``is``.
    """

    label: str
    argv: tuple
    invariants: tuple = ()
    fixed: bool = True


def _cli(command, *overrides, preset=True):
    argv = [command] + (["--preset", "paper"] if preset else [])
    for item in overrides:
        argv += ["--set", item]
    return tuple(argv)


def _transfer_checks(integral, windows):
    return (("integral", "approx", integral), ("n_windows", "is", windows))


_PARTITION = (("partition_max_abs", "le", 1e-12),)
_POINTER = (("marginal_max_abs_dev", "le", 1e-2),)
_SWEEP = (("monotone_decreasing", "is", True),)

_FULL = f"windows.count={FULL_TILING}"
_LARGE = "grid.n_points=65536"


def _paper_cli(rng):
    return [
        Command("wvp", _cli("wvp")),
        Command("transfer", _cli("transfer"), _transfer_checks(1.0, 15)),
        Command("variance", _cli("variance")),
        Command("eraser", _cli("eraser"), _PARTITION),
        Command("pointer", _cli("pointer"), _POINTER),
        Command("sweep", _cli("sweep"), _SWEEP),
    ]


def _full_tiling(rng):
    prob = rng.choice((0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8))
    kicks = [[rng.choice((-1, 1)) * round(rng.uniform(0.3, 3.0), 3), weight]
             for weight in (prob, round(1.0 - prob, 10))]
    return [
        Command("transfer", _cli("transfer", _FULL),
                _transfer_checks(1.0, FULL_TILING)),
        Command("variance", _cli("variance", _FULL)),
        Command("transfer-kick2",
                _cli("transfer", _FULL, "channel.kind=kick",
                     "channel.kicks=" + json.dumps(kicks), preset=False),
                _transfer_checks(1.0, FULL_TILING), fixed=False),
        # The marker leaves equal H and V weight, so each eraser port
        # passes half of the mass.
        Command("transfer-minus45", _cli("transfer", _FULL, "eraser=minus45"),
                _transfer_checks(0.5, FULL_TILING)),
    ]


def _large_grid(rng):
    return [
        Command("wvp", _cli("wvp", _LARGE)),
        Command("eraser", _cli("eraser", _LARGE), _PARTITION),
        Command("pointer", _cli("pointer", _LARGE), _POINTER),
        Command("sweep", _cli("sweep", _LARGE, "pointer.ratios="
                              + json.dumps(SWEEP_RATIOS)), _SWEEP),
    ]


WORKLOADS = {
    "paper-cli": _paper_cli,
    "full-tiling": _full_tiling,
    "large-grid": _large_grid,
}


class Plan:
    """Commands of one workload and the seeded order of each round."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(seed)
        self.commands = WORKLOADS[workload](self.rng)

    def round(self) -> list:
        return self.rng.sample(self.commands, len(self.commands))
