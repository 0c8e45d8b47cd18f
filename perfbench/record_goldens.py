"""Write perfbench/goldens.json from the program in `src/`.

    python3 perfbench/record_goldens.py

Runs every benchmark operation once and records its exit status, error
code, whether stderr holds a traceback, and the size and sha256 of its
stdout.  The committed goldens were recorded from the commit that
introduced the benchmark; re-record only when a change to the output is
intended, and say so.
"""

import json
import platform
import sys
import time

import run


def main() -> int:
    runner = run.Runner(time.monotonic() + 3600)
    ops = {}
    for op in [op for ops in run.WORKLOADS.values() for op in ops] + [run.QUINTIC_PAIR]:
        outcome = runner.run(op)
        ops[op.name] = outcome.record()
        print(f"{outcome.wall_s:8.3f}s  {ops[op.name]['exit']}  {op.name}", file=sys.stderr)
    data = {"python": platform.python_version(), "ops": ops}
    run.GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
