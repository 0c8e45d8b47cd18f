"""Command-line interface.

Commands: analyze, mirror, table, verify, k3.  Output formats: text
(default), json (schema "bhmirror/1"), csv (table only).  All output is
deterministic: identical invocations produce byte-identical output.
`verify` only formats `mirror.check_pair` and, for a K3 case,
`geometry.k3_read_off`, the K3 fits and relations that `k3` prints.

Exit status: 0 success / all checks pass, 1 verification failure,
2 input error, 3 internal check failure.  `-h` prints help and exits 0,
and a usage error exits 2; both come from argparse, which is imported only
for a command line that the grammar `COMMANDS` does not read as well formed.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from . import catalog as cat
from .errors import BHMirrorError, InputError, InternalError
from .geometry import (
    K3_ORDERS,
    SectorGrid,
    k3_read_off,
    require_k3_shape,
    sector_grid,
)
from .mirror import build_mirror_pair, check_pair, verify_krawitz
from .poly import (
    InvertiblePolynomial,
    format_polynomial,
    format_ratio,
    format_vector,
    grading_code,
    is_calabi_yau,
    parse_polynomial,
    split_cyclic,
    transpose,
)
from .statespace import build_state_space
from .symmetry import (
    SymmetryGroup,
    admissible_setup,
    aut_group,
    dual_group,
    enumerate_group,
    grading_group,
    group_cap,
    require_within_cap,
    sl_subgroup,
)

SCHEMA = "bhmirror/1"


def _print_json(data) -> None:
    import json  # only JSON output pays for the import

    print(json.dumps(data, indent=2, sort_keys=True))


def parse_group_spec(spec: str, P: InvertiblePolynomial) -> SymmetryGroup:
    """The group of P that a spec names: a preset J | SL | full | trivial,
    or the group spanned by explicit `gen:[..];gen:[..]`; a spec with
    neither, blank ones included, is an InputError."""
    spec = spec.strip()
    if spec == "trivial":
        return enumerate_group(P, ())
    if spec == "J":
        return grading_group(P)
    if spec == "SL":
        return sl_subgroup(P)
    if spec == "full":
        return aut_group(P)
    gens = []
    for part in [part for part in map(str.strip, spec.split(";")) if part] or [spec]:
        if not part.startswith("gen:"):  # a blank spec, or one of only ';', names no group
            raise InputError(
                f"bad group spec {part!r}: expected gen:[...] or a preset "
                "J | SL | full | trivial")
        gens.append(cat.parse_vector(part[4:]))
    return enumerate_group(P, gens)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    P = parse_polynomial(args.polynomial)
    require_within_cap(P)  # |Aut| = |det E|, so Aut is not enumerated to print its order
    N = P.N
    j = grading_code(P)
    try:
        k, _ = split_cyclic(P)
        s = (N // k,) + (0,) * (P.num_vars - 1)
    except BHMirrorError:
        k, s = None, None
    data = {
        "schema": SCHEMA,
        "command": "analyze",
        "polynomial": format_polynomial(P),
        "variables": list(P.var_names),
        "weights": list(P.weights),
        "degree": P.degree,
        "calabi_yau": is_calabi_yau(P),
        "atoms": [{"kind": a.kind,
                   "variables": [P.var_names[v] for v in a.variables],
                   "exponents": list(a.exponents)} for a in P.atoms],
        "aut_order": N,
        "sl_order": sl_subgroup(P).order,
        "j": [format_ratio(x, N) for x in j],
        "s": [format_ratio(x, N) for x in s] if s else None,
        "k": k,
    }
    if args.format == "json":
        _print_json(data)
        return 0
    print(f"polynomial: {data['polynomial']}")
    print(f"variables:  {' '.join(data['variables'])}")
    print(f"weights:    ({', '.join(map(str, data['weights']))})   degree: {data['degree']}")
    print(f"calabi_yau: {'yes' if data['calabi_yau'] else 'no'}")
    atoms = ", ".join(
        f"{a['kind']}({'*'.join(a['variables'])}; {','.join(map(str, a['exponents']))})"
        for a in data["atoms"])
    print(f"atoms:      {atoms}")
    print(f"aut_order:  {data['aut_order']}   sl_order: {data['sl_order']}")
    print(f"j:          {format_vector(j, N)}")
    if s is not None:
        print(f"s:          {format_vector(s, N)}   (k = {k})")
    else:
        print("s:          none (not of the split form x0^k + f)")
    return 0


# ---------------------------------------------------------------------------
# mirror
# ---------------------------------------------------------------------------

def cmd_mirror(args) -> int:
    P = parse_polynomial(args.polynomial)
    Pv = transpose(P)
    H = parse_group_spec(args.group, P)
    Hv = dual_group(H)
    N = Pv.N  # the dual group's codes are numerators over N
    data = {
        "schema": SCHEMA,
        "command": "mirror",
        "polynomial": format_polynomial(P),
        "transpose": format_polynomial(Pv),
        "group_order": H.order,
        "dual_group_order": Hv.order,
        "dual_group_elements": [[format_ratio(x, N) for x in g] for g in Hv.codes],
    }
    if args.format == "json":
        _print_json(data)
        return 0
    print(f"W          = {data['polynomial']}")
    print(f"transpose  = {data['transpose']}")
    print(f"group H    : order {H.order}")
    print(f"dual H'    : order {Hv.order}, elements:")
    for g in Hv.codes:
        print(f"  {format_vector(g, N)}")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

# The cell views of a sector grid, as (JSON name, text title, cell reader);
# a reader maps (grid, b, a) to {(p, q) or (p, q, weight): dim}
GRID_VIEWS = (("diamond", "diamonds (p, q) -> dim:", SectorGrid.cell),
              ("weights", "weights (p, q, w) -> dim:", SectorGrid.weighted_cell))


def _grid_json(grid: SectorGrid, views: list) -> list:
    rows = []
    for b in range(grid.k):
        cells = []
        for a in range(grid.k):
            cell: dict = {"a": a, "total": grid.total(b, a)}
            for name, _, read in views:
                cell[name] = []
                for (p, q, *weight), dim in sorted(read(grid, b, a).items()):
                    entry = {"p": str(p), "q": str(q), "dim": dim}
                    if weight:
                        entry["weight"] = weight[0]
                    cell[name].append(entry)
            cells.append(cell)
        rows.append({"b": b, "cells": cells})
    return rows


def _print_grid_text(grid: SectorGrid, setup, views: list) -> None:
    k = grid.k
    print(f"W = {format_polynomial(setup.W)}")
    print(f"k = {k}   K-order = {setup.K_inner.order}   "
          f"calabi_yau = {'yes' if grid.calabi_yau else 'no'}")
    print("rows: d_s = b/k (the H[s^b] slice); columns: d_j = a/k; "
          "entries: dim of the Q_j = 0 state space")
    totals = grid.row_totals()
    width = max(5, max(len(str(v)) for row in totals for v in row) + 2)
    header = " " * 8 + "".join(f"{'a=' + str(a):>{width}}" for a in range(k))
    print(header)
    for b in range(k):
        label = "H[id]" if b == 0 else f"H[s^{b}]"
        print(f"{label:8s}" + "".join(f"{v:>{width}}" for v in totals[b]))
    for _, title, read in views:
        print(title)
        for b in range(k):
            for a in range(k):
                cell = read(grid, b, a)
                if cell:
                    body = "  ".join("(" + ",".join(map(str, pos)) + f"):{d}"
                                     for pos, d in sorted(cell.items()))
                    print(f"  [b={b},a={a}] {body}")


def cmd_table(args) -> int:
    W = parse_polynomial(args.polynomial)
    _, f = split_cyclic(W)
    setup = admissible_setup(W, parse_group_spec(args.K, f))
    N_f = f.N
    grid = sector_grid(build_state_space(setup))
    views = [view for view, wanted in zip(GRID_VIEWS, (args.diamonds, args.weights)) if wanted]
    if args.format == "json":
        data = {
            "schema": SCHEMA,
            "command": "table",
            "polynomial": format_polynomial(W),
            "k": grid.k,
            "K_order": setup.K_inner.order,
            "K_generators": [format_vector(g, N_f) for g in setup.K_inner.generators],
            "calabi_yau": grid.calabi_yau,
            "rows": _grid_json(grid, views),
        }
        _print_json(data)
        return 0
    if args.format == "csv":
        print("b,a,p,q,weight,dim")
        for b in range(grid.k):
            for a in range(grid.k):
                for (p, q, w), dim in sorted(grid.weighted_cell(b, a).items()):
                    print(f"{b},{a},{p},{q},{w},{dim}")
        return 0
    _print_grid_text(grid, setup, views)
    return 0


# ---------------------------------------------------------------------------
# k3
# ---------------------------------------------------------------------------

def cmd_k3(args) -> int:
    W = parse_polynomial(args.polynomial)
    k, f = split_cyclic(W)
    require_k3_shape(is_calabi_yau(W), W.num_vars, k)
    pair = build_mirror_pair(W, parse_group_spec(args.K, f))
    N_f = f.N
    report, mirror_report, (inv, minv, lattice, _) = k3_read_off(pair)
    data = {
        "schema": SCHEMA,
        "command": "k3",
        "polynomial": format_polynomial(W),
        "mirror_polynomial": format_polynomial(pair.target.W),
        "K_order": pair.source.K_inner.order,
        "K_generators": [format_vector(g, N_f) for g in pair.source.K_inner.generators],
        "mirror_K_order": pair.target.K_inner.order,
        "order": report.order,
        "kind": report.kind,
        "parameters": dict(sorted(report.params.items())),
        "mirror_parameters": dict(sorted(mirror_report.params.items())),
        "invariants": inv._asdict(),
        "mirror_invariants": minv._asdict(),
        "lattice": lattice,
    }
    if args.format == "json":
        _print_json(data)
        return 0
    print(f"W      = {data['polynomial']}")
    print(f"mirror = {data['mirror_polynomial']}")
    print(f"order k = {report.order}   pattern = {report.kind}")
    print("parameters:        " + "  ".join(f"{n}={v}" for n, v in sorted(report.params.items())))
    print("mirror parameters: " + "  ".join(f"{n}={v}" for n, v in sorted(mirror_report.params.items())))
    print(f"fixed locus:        f1={inv.f1} isolated points, N1={inv.N1} curves, total genus g1={inv.g1}")
    print(f"mirror fixed locus: f1={minv.f1} isolated points, N1={minv.N1} curves, total genus g1={minv.g1}")
    if lattice is not None:
        verdict = "mirror lattices" if lattice["mirror_ok"] else "NOT mirror lattices"
        print(f"lattice invariants: (r, a) = ({lattice['r']}, {lattice['a']}); "
              f"mirror (r, a) = ({lattice['r_mirror']}, {lattice['a_mirror']}) -> {verdict}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cells_json(report, N: int) -> list[dict]:
    """The compared cells of a report, each formatted from numerators over N."""
    return [{"statement": item.statement,
             "cell": [format_ratio(x, N) for x in item.cell],
             "lhs": item.lhs, "rhs": item.rhs,
             "pass": item.ok} for item in report.items]


def _report_detail(report, N: int) -> str:
    """"N cells" for a passing report; else its first five violations, each
    as statement, cell and both sides.  A cell prints as vectors over N: a
    duality cell's sector and key, then the bidegree (p, q)."""
    if report.passed:
        return f"{report.cells_checked} cells"

    def cell_text(cell) -> str:
        return "".join(format_vector(part, N) for part in (*cell[:-2], cell[-2:]))

    return "; ".join(f"{v.statement}{cell_text(v.cell)}: {v.lhs} != {v.rhs}"
                     for v in report.violations[:5])


def _check_detail(check: str, report, setup) -> str:
    """The detail of a `check_pair` report: the sectors of a failing Milnor
    check, else the sector count of the series checks; the violation count
    of a failing vanishing check; else `_report_detail`."""
    if check == "milnor-dimensions" and not report.passed:
        return f"bad: {[format_vector(h, setup.N) for h in sorted(v.cell for v in report.violations)]}"
    if check in ("milnor-dimensions", "fermat-oracle"):
        return f"{len(setup.labels)} sectors"
    if check == "vanishing":
        return "" if report.passed else f"{len(report.violations)} violations"
    return _report_detail(report, setup.N)


def _check_case(case: cat.CatalogCase) -> list[dict]:
    """The results of one case: the checks of its mirror pair, then the K3
    corollaries of a K3 case of a K3 order."""
    W = case.parse()
    pair = build_mirror_pair(W, case.K_group(W))
    setup = pair.source
    results = []
    for check, report in check_pair(pair):
        results.append({"case": case.name, "check": check, "passed": report.passed,
                        "detail": _check_detail(check, report, setup)})
        if check in ("lg-mirror", "order2-exchange"):
            results[-1]["cells"] = _cells_json(report, setup.N)
    if "k3" in case.tags and setup.k in K3_ORDERS:
        try:
            _, _, (inv, minv, lattice, passed) = k3_read_off(pair)
            detail = f"N1={inv.N1} g1'={minv.g1}" + (
                " 2a+b+2a'+b'=24" if lattice is None else f" lattice=({lattice['r']},{lattice['a']})")
        except InputError as exc:  # a grid off the pattern; an InternalError exits 3
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"case": case.name, "check": "k3-corollaries",
                        "passed": passed, "detail": detail})
    return results


def cmd_verify(args) -> int:
    if args.catalog:
        cases = cat.load_catalog(args.catalog)
    else:
        cases = cat.ADMISSIBLE_CASES
    if args.case is not None:
        cases = tuple(c for c in cases if c.name == args.case)
        if not cases and args.case != cat.KRAWITZ_SCAN:
            raise InputError(f"no catalog case named {args.case!r}")

    results = []
    for case in cases:
        try:
            results += _check_case(case)
        except BHMirrorError as exc:
            exc.args = (f"case {case.name!r}: {exc}",)
            raise

    if args.case is None or args.case == cat.KRAWITZ_SCAN:
        failing = []
        checked = 0
        for text in cat.KRAWITZ_POLYNOMIALS:
            P = parse_polynomial(text)
            rep = verify_krawitz(P)
            checked += rep.cells_checked
            if not rep.passed:
                failing.append(f"{text}: {_report_detail(rep, P.N)}")
        results.append({"case": cat.KRAWITZ_SCAN, "check": "krawitz",
                        "passed": not failing,
                        "detail": f"{len(cat.KRAWITZ_POLYNOMIALS)} polynomials, {checked} cells"
                        if not failing else "failing: " + "; ".join(failing)})

    all_pass = all(r["passed"] for r in results)
    if args.format == "json":
        _print_json({"schema": SCHEMA, "command": "verify",
                     "passed": all_pass, "results": results})
    else:
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            detail = f"  [{r['detail']}]" if r["detail"] else ""
            print(f"{status}  {r['case']}: {r['check']}{detail}")
        n_fail = sum(1 for r in results if not r["passed"])
        print(f"{'ALL CHECKS PASSED' if all_pass else f'{n_fail} CHECKS FAILED'} "
              f"({len(results)} checks)")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# The command-line grammar, the one source of both readers: `_read_argv`
# reads a well-formed command line from it, and `build_parser` builds the
# argparse parser that prints help and usage errors.  Each command has its
# help line, whether it takes `polynomial`, and its options in help order;
# an option is (name, default, choices, help), and a False default marks a
# flag.
FORMATS = ("text", "json")
COMMANDS = {
    "analyze": ("weights, atoms, symmetry groups", True, (
        ("format", "text", FORMATS, None),
    )),
    "mirror": ("transpose polynomial and dual group", True, (
        ("group", "J", None, "subgroup of Aut: gen:[..];gen:[..] or J | SL | full | trivial"),
        ("format", "text", FORMATS, None),
    )),
    "table": ("sector grid of the state space", True, (
        ("K", "trivial", None, "inner invariance group over the non-cyclic variables"),
        ("weights", False, None, "weight-resolved cells"),
        ("diamonds", False, None, "bidegree-resolved cells"),
        ("format", "text", (*FORMATS, "csv"), None),
    )),
    "k3": ("K3 pattern fit, fixed-locus and lattice invariants", True, (
        ("K", "trivial", None, None),
        ("format", "text", FORMATS, None),
    )),
    "verify": ("run the verification suite over a catalog", False, (
        ("catalog", None, None, "path to a JSON catalog file"),
        ("case", None, None, "run a single named case"),
        ("format", "text", FORMATS, None),
    )),
}


def build_parser():
    """The argparse parser of `COMMANDS`, which `main` runs only on a command
    line that `_read_argv` declines: it prints help and usage errors."""
    import argparse  # only help and usage errors pay for argparse, gettext and locale

    parser = argparse.ArgumentParser(
        prog="bhmirror",
        description="Exact mirror-symmetry computations for invertible "
                    "polynomials with a cyclic automorphism.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, takes_polynomial, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        if takes_polynomial:
            p.add_argument("polynomial")
        for name, default, choices, text in options:
            if default is False:
                p.add_argument(f"--{name}", action="store_true", help=text)
            else:
                p.add_argument(f"--{name}", default=default, choices=choices, help=text)
    return parser


def _read_argv(argv):
    """The namespace that `build_parser()` makes of `argv`, read straight off
    `COMMANDS`, or None for any command line argparse may read otherwise.

    `argv[0]` is a command; each `--name` is one of its options, given at
    most once; a valued option is followed by a value that does not start
    with "-" and is one of its choices, where it has choices; the one other
    token is the polynomial, where the command takes one.  Help, `--`,
    `--name=value`, abbreviations, repeats, dash-leading tokens and missing
    or extra tokens all return None.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, takes_polynomial, options = COMMANDS[argv[0]]
    declared = {f"--{name}": (name, default, choices) for name, default, choices, _ in options}
    values = {name: default for name, default, _ in declared.values()}
    positional = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positional.append(token)
            continue
        if token not in declared:  # popped when first given, so a repeat lands here too
            return None
        name, default, choices = declared.pop(token)
        if default is False:
            values[name] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-") or choices is not None and value not in choices:
            return None
        values[name] = value
    if len(positional) != int(takes_polynomial):
        return None
    if takes_polynomial:
        values["polynomial"] = positional[0]
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    """Run one `bhmirror` command and return its exit status.

    A well-formed command line is read by `_read_argv` without argparse;
    any other, help included, goes to `build_parser()`, so argparse alone
    prints help (its `SystemExit(0)`) and usage errors (`SystemExit(2)`).
    With `argv=None` (the console script, `python -m bhmirror.cli`) the
    arguments are `sys.argv[1:]` and `main` owns the process: whichever way
    it ends, exit status or argparse's `SystemExit`, it then freezes the
    garbage collector, so the interpreter's shutdown collections skip what
    the import and the command left alive and the OS reclaims it instead.
    A caller that passes `argv` is a library user or a test that goes on
    running, and its collector is left as it was.
    """
    try:
        words = sys.argv[1:] if argv is None else list(argv)
        args = _read_argv(words)
        return _run(build_parser().parse_args(words) if args is None else args)
    finally:
        if argv is None:
            gc.freeze()


def _run(args) -> int:
    handlers = {
        "analyze": cmd_analyze,
        "mirror": cmd_mirror,
        "table": cmd_table,
        "k3": cmd_k3,
        "verify": cmd_verify,
    }
    try:
        group_cap()  # a bad BHMIRROR_MAX_GROUP fails every command first
        return handlers[args.command](args)
    except InternalError as exc:
        print(f"internal error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except BHMirrorError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error [IO]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
