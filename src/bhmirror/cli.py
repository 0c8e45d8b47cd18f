"""Command-line interface.

Commands: analyze, mirror, table, verify, k3.  Output formats: text
(default), json (schema "bhmirror/1"), csv (table only).  All output is
deterministic: identical invocations produce byte-identical output.

Exit status: 0 success / all checks pass, 1 verification failure,
2 input error, 3 internal check failure.
"""

from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction

from . import catalog as cat
from .errors import BHMirrorError, InputError, InternalError
from .geometry import (
    K3_ORDERS,
    SectorGrid,
    fit_k3_pattern,
    k3_invariants,
    lattice_mirror_verdict,
    require_k3_shape,
    sector_grid,
)
from .milnor import equivariant_hilbert, fermat_monomial_basis
from .mirror import (
    build_mirror_pair,
    verify_krawitz,
    verify_lg_mirror,
    verify_order2_exchange,
    verify_pair_duality,
)
from .poly import (
    InvertiblePolynomial,
    exponent_determinant,
    fixed_variables,
    format_polynomial,
    format_vector,
    is_calabi_yau,
    is_fermat_diagonal,
    parse_polynomial,
    restrict,
    split_cyclic,
    transpose,
)
from .statespace import build_state_space, moving_vanishing_violations
from .symmetry import (
    SymmetryGroup,
    admissible_setup,
    aut_group,
    dual_group,
    enumerate_group,
    group_cap,
    j_element,
    require_within_cap,
    s_element,
    sl_subgroup,
)

SCHEMA = "bhmirror/1"


def _fmt_frac(x) -> str:
    return str(Fraction(x))


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
        return enumerate_group(P, (j_element(P),))
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
    require_within_cap(P)  # |Aut| = |det E|, so Aut is not closed to print its order
    try:
        k, _ = split_cyclic(P)
        s = s_element(P)
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
        "aut_order": exponent_determinant(P),
        "sl_order": sl_subgroup(P).order,
        "j": [_fmt_frac(x) for x in j_element(P)],
        "s": [_fmt_frac(x) for x in s] if s else None,
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
    print(f"j:          {format_vector(j_element(P))}")
    if s is not None:
        print(f"s:          {format_vector(s)}   (k = {k})")
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
    elements = Hv.elements  # decoded once, for output
    data = {
        "schema": SCHEMA,
        "command": "mirror",
        "polynomial": format_polynomial(P),
        "transpose": format_polynomial(Pv),
        "group_order": H.order,
        "dual_group_order": Hv.order,
        "dual_group_elements": [[_fmt_frac(x) for x in g] for g in elements],
    }
    if args.format == "json":
        _print_json(data)
        return 0
    print(f"W          = {data['polynomial']}")
    print(f"transpose  = {data['transpose']}")
    print(f"group H    : order {H.order}")
    print(f"dual H'    : order {Hv.order}, elements:")
    for g in elements:
        print(f"  {format_vector(g)}")
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
                    entry = {"p": _fmt_frac(p), "q": _fmt_frac(q), "dim": dim}
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
                    body = "  ".join("(" + ",".join(map(_fmt_frac, pos)) + f"):{d}"
                                     for pos, d in sorted(cell.items()))
                    print(f"  [b={b},a={a}] {body}")


def cmd_table(args) -> int:
    W = parse_polynomial(args.polynomial)
    _, f = split_cyclic(W)
    setup = admissible_setup(W, parse_group_spec(args.K, f))
    N_f = exponent_determinant(f)
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
                    print(f"{b},{a},{_fmt_frac(p)},{_fmt_frac(q)},{w},{dim}")
        return 0
    _print_grid_text(grid, setup, views)
    return 0


# ---------------------------------------------------------------------------
# k3
# ---------------------------------------------------------------------------

def _k3_read_off(pair):
    """Both grids' K3 fits: (report, mirror report, inv, mirror inv, lattice or None)."""
    report = fit_k3_pattern(sector_grid(pair.source_table))
    mirror_report = fit_k3_pattern(sector_grid(pair.target_table))
    lattice = lattice_mirror_verdict(report, mirror_report) if report.kind == "prime" else None
    return report, mirror_report, k3_invariants(report), k3_invariants(mirror_report), lattice


def cmd_k3(args) -> int:
    W = parse_polynomial(args.polynomial)
    k, f = split_cyclic(W)
    require_k3_shape(is_calabi_yau(W), W.num_vars, k)
    pair = build_mirror_pair(W, parse_group_spec(args.K, f))
    N_f = exponent_determinant(f)
    report, mirror_report, inv, minv, lattice = _k3_read_off(pair)
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
    """The compared cells of a report, each decoded from numerators over N."""
    return [{"statement": item.statement,
             "cell": [str(Fraction(x, N)) for x in item.cell],
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


def _check_case(case: cat.CatalogCase) -> list[dict]:
    results = []

    def record(check: str, passed: bool, detail: str = "", cells=None) -> None:
        entry = {"case": case.name, "check": check,
                 "passed": bool(passed), "detail": detail}
        if cells is not None:
            entry["cells"] = cells
        results.append(entry)

    W = case.parse()
    pair = build_mirror_pair(W, case.K_group(W))
    setup = pair.source

    # Totals against the Milnor numbers, and the series engine against
    # direct monomial enumeration for Fermat W.  Both sides of each check
    # depend on the sector's fixed set only, so each distinct one is checked
    # once.
    sectors = setup.labels
    fermat = is_fermat_diagonal(W)
    by_fixed_set: dict = {}
    for h in sectors:
        by_fixed_set.setdefault(fixed_variables(h), []).append(h)
    mismatch = []
    oracle_ok = True
    for hs in by_fixed_set.values():
        R = restrict(W, hs[0])
        series = equivariant_hilbert(R)
        if series.total_dimension != R.milnor_dimension:
            mismatch += hs
        if fermat:
            oracle: dict = {}
            for _, key, degree in fermat_monomial_basis(R):
                bucket = oracle.setdefault(degree, {})
                bucket[key] = bucket.get(key, 0) + 1
            oracle_ok = oracle_ok and oracle == series.coefficients
    record("milnor-dimensions", not mismatch,
           f"{len(sectors)} sectors" if not mismatch
           else f"bad: {[format_vector(h, setup.N) for h in sorted(mismatch)]}")
    if fermat:
        record("fermat-oracle", oracle_ok, f"{len(sectors)} sectors")

    violations = moving_vanishing_violations(pair.source_table)
    record("vanishing", not violations, f"{len(violations)} violations" if violations else "")

    dual = verify_pair_duality(pair)
    record("pair-duality", dual.passed, _report_detail(dual, setup.N))

    lg = verify_lg_mirror(pair)
    record("lg-mirror", lg.passed, _report_detail(lg, setup.N), cells=_cells_json(lg, setup.N))

    if setup.k == 2:
        o2 = verify_order2_exchange(pair)
        record("order2-exchange", o2.passed, _report_detail(o2, setup.N),
               cells=_cells_json(o2, setup.N))

    if "k3" in case.tags and setup.k in K3_ORDERS:
        try:
            rep, _, inv, minv, lattice = _k3_read_off(pair)
            ok = inv.N1 == minv.g1 + 1 and minv.N1 == inv.g1 + 1
            detail = f"N1={inv.N1} g1'={minv.g1}"
            if rep.kind == "order4":
                p4 = rep.params
                ok = ok and 2 * p4["a"] + p4["b"] + 2 * p4["a_dual"] + p4["b_dual"] == 24
                detail += " 2a+b+2a'+b'=24"
            else:
                p = rep.order
                ok = ok and inv.f1 + minv.f1 + 4 == 24 * (p - 2) // (p - 1)
                ok = ok and lattice["mirror_ok"]
                detail += f" lattice=({lattice['r']},{lattice['a']})"
            record("k3-corollaries", ok, detail)
        except InputError as exc:  # a grid off the pattern; an InternalError exits 3
            record("k3-corollaries", False, f"{type(exc).__name__}: {exc}")
    return results


def cmd_verify(args) -> int:
    if args.catalog:
        cases = cat.load_catalog(args.catalog)
    else:
        cases = cat.ADMISSIBLE_CASES
    if args.case is not None:
        cases = tuple(c for c in cases if c.name == args.case)
        if not cases and args.case != "krawitz-scan":
            raise InputError(f"no catalog case named {args.case!r}")

    results = []
    for case in cases:
        try:
            results += _check_case(case)
        except BHMirrorError as exc:
            exc.args = (f"case {case.name!r}: {exc}",)
            raise

    if args.case is None or args.case == "krawitz-scan":
        failing = []
        checked = 0
        for text in cat.KRAWITZ_POLYNOMIALS:
            P = parse_polynomial(text)
            rep = verify_krawitz(P)
            checked += rep.cells_checked
            if not rep.passed:
                failing.append(f"{text}: {_report_detail(rep, exponent_determinant(P))}")
        results.append({"case": "krawitz-scan", "check": "krawitz",
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhmirror",
        description="Exact mirror-symmetry computations for invertible "
                    "polynomials with a cyclic automorphism.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("analyze", help="weights, atoms, symmetry groups")
    p.add_argument("polynomial")
    add_common(p)

    p = sub.add_parser("mirror", help="transpose polynomial and dual group")
    p.add_argument("polynomial")
    p.add_argument("--group", default="J",
                   help="subgroup of Aut: gen:[..];gen:[..] or J | SL | full | trivial")
    add_common(p)

    p = sub.add_parser("table", help="sector grid of the state space")
    p.add_argument("polynomial")
    p.add_argument("--K", default="trivial",
                   help="inner invariance group over the non-cyclic variables")
    p.add_argument("--weights", action="store_true", help="weight-resolved cells")
    p.add_argument("--diamonds", action="store_true", help="bidegree-resolved cells")
    add_common(p, ("text", "json", "csv"))

    p = sub.add_parser("k3", help="K3 pattern fit, fixed-locus and lattice invariants")
    p.add_argument("polynomial")
    p.add_argument("--K", default="trivial")
    add_common(p)

    p = sub.add_parser("verify", help="run the verification suite over a catalog")
    p.add_argument("--catalog", help="path to a JSON catalog file")
    p.add_argument("--case", help="run a single named case")
    add_common(p)
    return parser


def main(argv=None) -> int:
    """Run one `bhmirror` command and return its exit status.

    With `argv=None` (the console script, `python -m bhmirror.cli`) the
    arguments are `sys.argv[1:]` and `main` owns the process: whichever way
    it ends, exit status or argparse's `SystemExit`, it then freezes the
    garbage collector, so the interpreter's shutdown collections skip what
    the import and the command left alive and the OS reclaims it instead.
    A caller that passes `argv` is a library user or a test that goes on
    running, and its collector is left as it was.
    """
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if argv is None:
            gc.freeze()


def _run(args: argparse.Namespace) -> int:
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
