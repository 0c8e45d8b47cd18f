"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py [--trace SPANS.json] cli ARGS...
    python3 perfbench/child.py [--trace SPANS.json] pair POLYNOMIAL

`cli` runs `bhmirror.cli.main(ARGS)` and exits with its status, as the
`bhmirror` console script does.  `pair` builds the mirror pair of
POLYNOMIAL with trivial K, runs the pair-duality and LG-mirror checks, and
prints a JSON summary: sector and entry counts, a digest of each sorted
state table, and the pass flags and cell counts of both reports.

With `--trace`, the layer functions are wrapped first (see spans.py) and
the spans are written to SPANS.json when the operation ends, also when it
ends in an exception.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction


def _frac(x) -> str:
    return str(Fraction(x))


def table_digest(table) -> str:
    """sha256 over the sorted entries, each written out field by field, so
    the digest does not depend on how a label is represented in memory."""
    rows = []
    for lab, dim in table.entries.items():
        rows.append("|".join([
            ",".join(_frac(x) for x in lab.sector),
            ",".join(_frac(x) for x in lab.key),
            _frac(lab.p), _frac(lab.q), _frac(lab.dj), _frac(lab.ds),
            _frac(lab.qj), _frac(lab.qs), str(lab.weight), lab.side,
            str(lab.x), str(lab.y), str(lab.z), str(dim)]))
    rows.sort()
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def run_pair(polynomial: str) -> int:
    from bhmirror.mirror import build_mirror_pair, verify_lg_mirror, verify_pair_duality
    from bhmirror.poly import parse_polynomial

    pair = build_mirror_pair(parse_polynomial(polynomial), ())
    duality = verify_pair_duality(pair)
    lg = verify_lg_mirror(pair)
    summary = {
        "source_sectors": pair.source.group_order,
        "mirror_sectors": pair.target.group_order,
        "source_entries": len(pair.source_table.entries),
        "mirror_entries": len(pair.target_table.entries),
        "source_digest": table_digest(pair.source_table),
        "mirror_digest": table_digest(pair.target_table),
        "pair_duality": {"passed": duality.passed, "cells": duality.cells_checked},
        "lg_mirror": {"passed": lg.passed, "cells": lg.cells_checked},
    }
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    recorder = None
    if argv[:1] == ["--trace"]:
        import spans
        recorder = spans.install()
        out, argv = argv[1], argv[2:]
    try:
        if argv[0] == "pair":
            return run_pair(argv[1])
        from bhmirror.cli import main as cli_main
        return cli_main(argv[1:])
    finally:
        if recorder is not None:
            recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
