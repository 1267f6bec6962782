"""Record ``refs.json``: the outputs every benchmark command must reproduce.

    python3 perfbench/record_refs.py

Runs each workload's commands once (seed 0) on the checkout's ``src/``
and stores, per command, the output file list and, for commands with
fixed inputs, the flattened summary and the CSV column digests that
``gate.py`` compares against.  Re-record only when a change is meant to
alter the outputs, and say so in the change.
"""

import json
import sys

from gate import digest
from run import REFS, WORK, environment, run_command
from workloads import WORKLOADS, Plan


def main() -> int:
    refs = {"environment": environment()}
    for workload in WORKLOADS:
        refs[workload] = {}
        for cmd in Plan(workload, 0).commands:
            out_dir = WORK / "refs" / workload / cmd.label
            code, _, _, stderr = run_command(cmd, out_dir)
            if code != 0:
                print(f"{workload}/{cmd.label} exited {code}: {stderr}",
                      file=sys.stderr)
                return 1
            found = digest(out_dir, with_csv=cmd.fixed)
            refs[workload][cmd.label] = (found if cmd.fixed
                                         else {"files": found["files"]})
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
