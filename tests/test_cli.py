import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bhmirror
from bhmirror import cli, geometry
from bhmirror.catalog import parse_vector
from bhmirror.cli import main
from bhmirror.errors import DualityViolationError, InputError
from bhmirror.milnor import GroupRingSeries
from bhmirror.statespace import StateTable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "x0^6+x1^3+x2^2")
        assert code == 0
        assert "weights:    (1, 2, 3)   degree: 6" in out
        assert "calabi_yau: yes" in out
        assert "aut_order:  36" in out

    def test_not_cy(self, capsys):
        code, out, _ = run(capsys, "analyze", "x^5+y^5")
        assert code == 0 and "calabi_yau: no" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "x0^6+x1^3+x2^2", "--format", "json")
        data = json.loads(out)
        assert data["schema"] == "bhmirror/1"
        assert data["weights"] == [1, 2, 3] and data["k"] == 6

    def test_syntax_error_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "x0^6+*y")
        assert code == 2 and "SyntaxError" in err

    def test_inadmissible_exit_code(self, capsys):
        code, _, err = run(capsys, "table", "x0^3+x1^3+x2^4+x3^12")
        assert code == 2 and "NotAdmissible" in err


class TestTable:
    def test_elliptic_text_rows(self, capsys):
        code, out, _ = run(capsys, "table", "x0^6+x1^3+x2^2")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("H[")]
        values = [list(map(int, line.split()[1:])) for line in rows]
        assert values == [
            [2, 1, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 1, 1],
            [0, 1, 0, 2, 0, 1],
            [0, 1, 1, 0, 0, 1],
            [0, 0, 0, 0, 0, 1],
        ]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "table", "x0^4+x1^4+x2^4+x3^4",
                          "--weights", "--diamonds")
        _, second, _ = run(capsys, "table", "x0^4+x1^4+x2^4+x3^4",
                           "--weights", "--diamonds")
        assert first == second

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "table", "x0^6+x1^3+x2^2",
                           "--format", "json", "--diamonds")
        data = json.loads(out)
        assert data["schema"] == "bhmirror/1" and data["k"] == 6
        totals = [[cell["total"] for cell in row["cells"]] for row in data["rows"]]
        assert totals[0] == [2, 1, 0, 0, 0, 1]
        cell = data["rows"][0]["cells"][0]
        assert sum(d["dim"] for d in cell["diamond"]) == cell["total"]

    def test_csv_counts_nonzero_cells(self, capsys):
        code, out, _ = run(capsys, "table", "x0^6+x1^3+x2^2", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "b,a,p,q,weight,dim"
        assert all(int(line.rsplit(",", 1)[1]) > 0 for line in lines[1:])
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total == 16  # total dimension over all slices

    @pytest.mark.parametrize("value, error", [
        ("10", "GroupTooLarge"), ("abc", "Input"), ("0", "Input"), ("-3", "Input"),
        # more digits than `int` converts from text
        pytest.param("9" * 5000, "Input", id="5000digits-Input"),
    ])
    def test_group_cap_env(self, capsys, monkeypatch, value, error):
        monkeypatch.setenv("BHMIRROR_MAX_GROUP", value)
        code, _, err = run(capsys, "analyze", "x0^4+x1^4+x2^4+x3^4")
        assert code == 2 and f"error [{error}]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "x0^2000+x1^2000+x2^2000"],
        ["table", "x0^2000+x1^2000+x2^2000"],
        ["mirror", "x^100000000", "--group", "J"],
        ["mirror", "x^999999+y^2", "--group", "J"],
        ["table", "x0^2+x1^3000000", "--K", "gen:[1/3000000]"],
    ], ids=["analyze", "table", "mirror-one-variable", "mirror-two-variables", "table-big-K"])
    def test_group_too_large_fails_fast(self, capsys, argv):
        # |det E| above the cap bounds every group of the command: rejected
        # from |det E|, before any subgroup, coset or dual is closed
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "error [GroupTooLarge]" in err and out == ""

    @pytest.mark.parametrize("digits, error", [
        (5000, "SyntaxError"),     # more digits than `int` converts from text
        (4000, "GroupTooLarge"),   # read, then rejected from |det E|
    ])
    def test_huge_exponent_fails_fast(self, capsys, digits, error):
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", "x^" + "9" * digits + "+y^2")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and f"error [{error}]" in err and out == ""
        assert "Traceback" not in err

    def test_too_many_variables_fails_fast(self, capsys):
        # a 150-variable chain: the count is rejected before the weights
        # are solved by an elimination cubic in the number of variables
        chain = "+".join(f"x{i}^2*x{i + 1}" for i in range(149)) + "+x149^3"
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", chain)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "error [TooManyVariables]" in err and out == ""

    @pytest.mark.parametrize("polynomial, spec, vector", [
        ("x0^3+x1^3+x2^3", "gen:[1/3]", "[1/3]"),                # NotInGroup
        ("x0^2+x1^2", "J", "[1/2]"),                             # outside SL_f
        ("x0^2+x1^4+x2^4", "trivial", "[1/2, 1/2]"),             # j_f^k not in K
    ])
    def test_error_messages_print_exact_vectors(self, capsys, polynomial, spec, vector):
        code, out, err = run(capsys, "table", polynomial, "--K", spec)
        assert code == 2 and out == ""
        assert vector in err and "Fraction(" not in err

    @pytest.mark.parametrize("argv, message", [
        (("mirror", "x^3+y^3", "--group", "gen:[1/0,0]"),
         "error [Input]: cannot parse rational vector '[1/0,0]': zero denominator"),
        (("mirror", "x^3+y^3", "--group", "gen:[1/3]"),
         "error [NotInGroup]: [1/3] has 1 entries for 2 variables"),
        (("table", "x0^3+x1^3+x2^3", "--K", "gen:[1/3]"),
         "error [NotInGroup]: [1/3] has 1 entries for 2 variables"),
        (("mirror", "x0^3+x1^3", "--group", "gen:[1/3,,0]"),
         "error [Input]: cannot parse rational vector '[1/3,,0]': empty entry"),
        (("mirror", "x0^3+x1^3", "--group", "gen:[,1/3,0,]"),
         "error [Input]: cannot parse rational vector '[,1/3,0,]': empty entry"),
        (("mirror", "x^3+y^3", "--group", "gen:[1E3,0]"),
         "error [Input]: cannot parse rational vector '[1E3,0]': entry '1E3' "
         "is not an integer, p/q or plain decimal"),
        (("table", "x0^3+x1^3+x2^3", "--K", "gen:[0, 2.5e-1]"),
         "error [Input]: cannot parse rational vector '[0, 2.5e-1]': entry '2.5e-1' "
         "is not an integer, p/q or plain decimal"),
        (("mirror", "x^3+y^3", "--group", ""),
         "error [Input]: bad group spec '': expected gen:[...] or a preset J | SL | full | trivial"),
        (("mirror", "x^3+y^3", "--group", ";"),
         "error [Input]: bad group spec ';': expected gen:[...] or a preset J | SL | full | trivial"),
        (("table", "x0^3+x1^3+x2^3", "--K", " "),
         "error [Input]: bad group spec '': expected gen:[...] or a preset J | SL | full | trivial"),
    ], ids=["zero-denominator", "mirror-short-vector", "table-short-vector",
            "inner-empty-entry", "outer-empty-entries", "mirror-exponent", "table-exponent",
            "blank-group", "semicolon-group", "blank-K"])
    def test_bad_vectors_name_their_fault(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err and "Fraction(" not in err

    @pytest.mark.parametrize("argv, polynomial", [
        (("analyze", "x*y+y^3"), "x*y + y^3"),
        (("table", "x0^3+x1*x2+x2^3"), "x0^3 + x1*x2 + x2^3"),
        (("mirror", "x*y+y^3", "--group", "trivial"), "x*y + y^3"),
    ], ids=["analyze", "table", "mirror"])
    def test_degenerate_transpose_names_the_transpose(self, capsys, argv, polynomial):
        # the input is fine; the weight error belongs to its transpose
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"error [NonPositiveWeight]: transpose of {polynomial}: weight vector" in err
        assert "Traceback" not in err

    def test_sl_invariance_gives_the_mirror_grid(self, capsys):
        # invariance under the inner determinant-one group reproduces the
        # table of the dual setup of the plain quartic
        code, out, _ = run(capsys, "table", "x0^4+x1^4+x2^4+x3^4",
                           "--K", "SL", "--format", "json")
        data = json.loads(out)
        totals = [[cell["total"] for cell in row["cells"]] for row in data["rows"]]
        assert totals == [[3, 7, 7, 7], [6, 7, 7, 0], [6, 7, 0, 7], [6, 0, 7, 7]]


class TestMirror:
    def test_chain_transpose(self, capsys):
        code, out, _ = run(capsys, "mirror", "x^3*y+y^4")
        assert code == 0
        assert "transpose  = x^3 + x*y^4" in out

    def test_dual_group_spec(self, capsys):
        code, out, _ = run(capsys, "mirror", "x0^4+x1^4+x2^4+x3^4",
                           "--group", "J", "--format", "json")
        data = json.loads(out)
        assert data["group_order"] == 4 and data["dual_group_order"] == 64

    def test_explicit_generators(self, capsys):
        code, out, _ = run(capsys, "mirror", "x0^4+x1^4+x2^4+x3^4",
                           "--group", "gen:[1/4,3/4,0,0];gen:[0,0,1/2,1/2]",
                           "--format", "json")
        data = json.loads(out)
        assert data["group_order"] == 8 and data["dual_group_order"] == 32

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "mirror", "x^2", "--group", "nonsense")
        assert code == 2

    def test_trailing_semicolon_after_a_generator(self, capsys):
        code, out, _ = run(capsys, "mirror", "x0^4+x1^4+x2^4+x3^4",
                           "--group", "gen:[1/4,3/4,0,0];", "--format", "json")
        assert code == 0 and json.loads(out)["group_order"] == 4

    def test_many_generators_close_fast(self, capsys):
        # --group SL is the kernel's SL group, whose 2,401 elements are all
        # its generators; it is not closed again, and its dual reads each one
        start = time.perf_counter()
        code, out, _ = run(capsys, "mirror", "x0^7+x1^7+x2^7+x3^7+x4^7",
                           "--group", "SL", "--format", "json")
        assert time.perf_counter() - start < 3.0
        assert code == 0 and json.loads(out)["dual_group_order"] == 7


class TestK3Command:
    def test_quartic(self, capsys):
        code, out, _ = run(capsys, "k3", "x0^4+x1^4+x2^4+x3^4", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["parameters"] == {"a": 7, "a_dual": 1, "b": 7, "b_dual": 1,
                                      "c": 0, "c_dual": 0, "g": 3, "g_dual": 0}
        assert data["mirror_invariants"]["f1"] == 12
        assert data["mirror_invariants"]["N1"] == 4
        assert data["lattice"] is None

    def test_prime_lattice_verdict(self, capsys):
        code, out, _ = run(capsys, "k3", "x0^13+x1^3*x2+x2^2*x3+x3^2*x1")
        assert code == 0
        assert "mirror lattices" in out and "(10, 1)" in out

    def test_unsupported_order_fails_before_the_pair(self, capsys, monkeypatch):
        def build(*args):
            pytest.fail("k3 built the mirror pair of an order-9 setup")

        monkeypatch.setattr(cli, "build_mirror_pair", build)
        code, out, err = run(capsys, "k3", "x0^9+x1^2+x2^3+x3^18",
                             "--K", "gen:[1/2,0,1/2]")
        assert code == 2 and "error [PatternMismatch]" in err and out == ""


class TestVerify:
    def test_single_case(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "elliptic-sextic")
        assert code == 0
        assert "ALL CHECKS PASSED" in out
        assert "lg-mirror" in out

    def test_unknown_case(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "no-such-case")
        assert code == 2

    def test_empty_case_name_is_unknown(self, capsys):
        # an empty name is a name, not a missing --case: it selects no case
        code, out, err = run(capsys, "verify", "--case", "")
        assert code == 2 and out == ""
        assert err == "error [Input]: no catalog case named ''\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "toy-k2",
                           "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["passed"] is True
        assert data["schema"] == "bhmirror/1"
        assert all(r["passed"] for r in data["results"])

    def test_catalog_file(self, capsys, tmp_path):
        path = tmp_path / "cases.json"
        path.write_text(json.dumps([
            {"name": "local", "polynomial": "x0^6+x1^3+x2^2", "tags": ["cy"]},
        ]))
        code, out, _ = run(capsys, "verify", "--catalog", str(path), "--case", "local")
        assert code == 0 and "local: lg-mirror" in out

    @pytest.mark.parametrize("content", [
        "[{",
        "5",
        '[{"name": "bad", "polynomial": 5}]',
        '[{"name": "bad", "polynomial": "x0^2+x1^2", "K": [5]}]',
        "{}",
        '{"case": []}',
    ], ids=["invalid-json", "scalar", "polynomial-not-string", "K-not-strings",
            "empty-object", "cases-misspelt"])
    def test_malformed_catalog_is_an_input_error(self, capsys, tmp_path, content):
        path = tmp_path / "cases.json"
        path.write_text(content)
        code, out, err = run(capsys, "verify", "--catalog", str(path))
        assert code == 2 and "error [Input]" in err
        assert "Traceback" not in err and out == ""

    def test_repeated_case_name_is_an_input_error(self, capsys, tmp_path):
        # two cases named alike would print blocks and errors that cannot be told apart
        path = tmp_path / "cases.json"
        path.write_text(json.dumps([
            {"name": "a", "polynomial": "x0^6+x1^3+x2^2"},
            {"name": "a", "polynomial": "x0^3+x1^3+x2^3"},
        ]))
        code, out, err = run(capsys, "verify", "--catalog", str(path), "--case", "a")
        assert code == 2 and out == ""
        assert err == f"error [Input]: catalog {path} names case 'a' more than once\n"

    @pytest.mark.parametrize("name", ["", "  "], ids=["empty", "spaces"])
    def test_blank_case_name_is_an_input_error(self, capsys, tmp_path, name):
        # a blank name prints as "PASS  : ..." with nothing to tell the case by
        path = tmp_path / "cases.json"
        path.write_text(json.dumps([{"name": name, "polynomial": "x0^6+x1^3+x2^2"}]))
        code, out, err = run(capsys, "verify", "--catalog", str(path))
        assert code == 2 and out == ""
        assert err == f"error [Input]: catalog {path} has a case with a blank name\n"

    def test_scan_name_is_reserved(self, capsys, tmp_path):
        # a case named like the built-in Krawitz scan would run beside it and
        # print under the same label
        path = tmp_path / "cases.json"
        path.write_text(json.dumps([{"name": "krawitz-scan", "polynomial": "x0^6+x1^3+x2^2"}]))
        code, out, err = run(capsys, "verify", "--catalog", str(path), "--case", "krawitz-scan")
        assert code == 2 and out == ""
        assert err == (f"error [Input]: catalog {path} names a case 'krawitz-scan', "
                       "the name of the built-in Krawitz scan\n")

    @pytest.mark.parametrize("polynomial, error", [
        ("x0^3+*x1", "SyntaxError"),
        ("x0^3+x1^3+x2", "DegenerateShape"),
    ], ids=["syntax", "shape"])
    def test_bad_case_is_named(self, capsys, tmp_path, polynomial, error):
        path = tmp_path / "cases.json"
        path.write_text(json.dumps([{"name": "bad-one", "polynomial": polynomial}]))
        code, out, err = run(capsys, "verify", "--catalog", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error [{error}]: case 'bad-one': ")

    def test_series_faults_are_reported(self, capsys, monkeypatch):
        # one restriction's series one too large: the sectors that share it
        # are named, sorted, and the Fermat oracle disagrees with it
        from bhmirror import mirror
        real = mirror.equivariant_hilbert

        def off_by_one(R):
            series = real(R)
            if R.fixed_vars != (1, 2):  # the sectors s and s^2 fix x1 and x2
                return series
            m, keys = min(series.coefficients.items())
            key, c = min(keys.items())
            return GroupRingSeries({**series.coefficients, m: {**keys, key: c + 1}})

        monkeypatch.setattr(mirror, "equivariant_hilbert", off_by_one)
        code, out, _ = run(capsys, "verify", "--case", "elliptic-cubic")
        assert code == 1
        assert "FAIL  elliptic-cubic: milnor-dimensions  [bad: ['[1/3, 0, 0]', '[2/3, 0, 0]']]" in out
        assert "FAIL  elliptic-cubic: fermat-oracle" in out
        assert "2 CHECKS FAILED" in out

    def test_series_off_its_milnor_number_exits_3(self, capsys, monkeypatch):
        # the engine checks each series' total against the Milnor number as
        # it makes it, so a real mismatch ends `verify` as an internal error
        # before the milnor-dimensions check, a second reading, is printed
        from bhmirror import milnor
        real = milnor.milnor_number
        monkeypatch.setattr(milnor, "milnor_number",
                            lambda P, block: real(P, block) + (len(block) == 2))
        caches = (milnor._block_series, milnor.equivariant_hilbert)
        for cache in caches:
            cache.cache_clear()
        try:
            code, out, err = run(capsys, "verify", "--case", "k2-chain")
        finally:
            for cache in caches:
                cache.cache_clear()
        assert code == 3 and out == ""
        assert err == ("internal error [Internal]: case 'k2-chain': "
                       "series dimension 9 is not the Milnor number 10\n")

    def test_lg_mirror_fault_names_its_cell(self, capsys, monkeypatch):
        # one source cell of the untwisted Q_j = 0, weight-0 part raised by 1:
        # LG part 1 fails at that cell, printed as rationals; pair duality
        # (sector [1/2, 1/2], key [0, 0]) and the order-2 exchange fail
        # with it, and each names its cell and both sides
        real = cli.build_mirror_pair

        def bumped(W, K=None):
            pair = real(W, K)
            setup, cells = pair.source, dict(pair.source_table.cells)
            cell = next(c for c in cells
                        if setup.keys[c[1]] == (0, 0) and setup.labels[c[0]][1] == 0)
            cells[cell] += 1
            return pair._replace(source_table=StateTable(setup, cells))

        monkeypatch.setattr(cli, "build_mirror_pair", bumped)
        code, out, _ = run(capsys, "verify", "--case", "toy-k2")
        assert code == 1
        assert "FAIL  toy-k2: lg-mirror  [part1[1, 1]: 2 != 1]" in out
        assert "FAIL  toy-k2: pair-duality  [pair-duality[1/2, 1/2][0, 0][1, 1]: 2 != 1]" in out
        assert "FAIL  toy-k2: order2-exchange  [exchange[plus][1, 1]: 2 != 1]" in out
        assert "3 CHECKS FAILED (6 checks)" in out

    def test_vanishing_fault_counts_its_cells(self, capsys, monkeypatch):
        # two moving Q_j = 0 cells put at X = 1 with nonzero weights t = Z,
        # where k = 3 divides no X*t: the vanishing check counts them
        real = cli.build_mirror_pair

        def seeded(W, K=None):
            pair = real(W, K)
            setup, cells = pair.source, dict(pair.source_table.cells)
            sector = next(h for h, (x, _) in setup.labels.items() if x == 1)
            keys = [key for key, (kqj, weight) in setup.keys.items() if kqj == 0 and weight]
            for key in keys[:2]:
                cells[(sector, key, 0, 0)] = cells.get((sector, key, 0, 0), 0) + 1
            return pair._replace(source_table=StateTable(setup, cells))

        monkeypatch.setattr(cli, "build_mirror_pair", seeded)
        code, out, _ = run(capsys, "verify", "--case", "elliptic-cubic")
        assert code == 1
        assert "FAIL  elliptic-cubic: vanishing  [2 violations]\n" in out

    def test_k3_grid_off_the_pattern_fails_its_check(self, capsys, monkeypatch):
        # a stray class in cell (0, 1) of each grid: the fit rejects the
        # grid, and the check fails with the error's name and message after
        # the case's other checks have printed
        real = geometry.sector_grid

        def stray(table):
            grid = real(table)
            return grid._replace(weighted={**grid.weighted, (0, 1): {(5, 5, 0): 1}})

        monkeypatch.setattr(geometry, "sector_grid", stray)
        code, out, _ = run(capsys, "verify", "--case", "k3-p3")
        assert code == 1
        lines = out.splitlines()
        assert [line.split("  [")[0] for line in lines[:5]] == [
            f"PASS  k3-p3: {check}" for check in
            ("milnor-dimensions", "fermat-oracle", "vanishing", "pair-duality", "lg-mirror")]
        assert lines[5].startswith(
            "FAIL  k3-p3: k3-corollaries  [PatternMismatchError: cell (0, 1): computed [((5, 5, 0), 1)]")
        assert lines[6] == "1 CHECKS FAILED (6 checks)"

    def test_broken_k3_relation_keeps_its_detail(self, capsys, monkeypatch):
        # b raised by 1 in both fits of the Fermat quartic: 2a+b+2a'+b' is
        # 25, so the order-4 relation fails; the fixed curves are unchanged
        # and so is the detail
        real = geometry.fit_k3_pattern

        def raised(grid):
            report = real(grid)
            return report._replace(params={**report.params, "b": report.params["b"] + 1})

        monkeypatch.setattr(geometry, "fit_k3_pattern", raised)
        code, out, _ = run(capsys, "verify", "--case", "fermat-quartic")
        assert code == 1
        assert "FAIL  fermat-quartic: k3-corollaries  [N1=1 g1'=0 2a+b+2a'+b'=24]\n" in out
        assert "1 CHECKS FAILED (6 checks)" in out

    def test_krawitz_fault_names_its_cell(self, capsys, monkeypatch):
        # one cell of the self-transposed quartic's unprojected map raised by
        # 1: the one map stands on both sides of its Krawitz check, which
        # fails at that cell and at its mirror cell and names the polynomial,
        # then each cell (sector, key, bidegree) and both sides
        from bhmirror import mirror
        real = mirror.unprojected_cells
        cell = ((0, 0, 0, 0), (64, 64, 64, 64), 768, 256)  # codes and numerators over 256

        def bumped(P):
            cells = real(P)
            if str(P) == "x^4 + y^4 + z^4 + w^4":
                cells[cell] += 1
            return cells

        monkeypatch.setattr(mirror, "unprojected_cells", bumped)
        code, out, _ = run(capsys, "verify", "--case", "krawitz-scan")
        assert code == 1
        assert out == ("FAIL  krawitz-scan: krawitz  [failing: x^4+y^4+z^4+w^4: "
                       "krawitz[0, 0, 0, 0][1/4, 1/4, 1/4, 1/4][3, 1]: 2 != 1; "
                       "krawitz[1/4, 1/4, 1/4, 1/4][0, 0, 0, 0][1, 1]: 1 != 2]\n"
                       "1 CHECKS FAILED (1 checks)\n")

    def test_k3_read_off_internal_error_exits_3(self, capsys, monkeypatch):
        # a duality violation inside the K3 read-off is a defect, not a
        # failing check: it ends the run as `bhmirror k3` would
        def broken(table):
            raise DualityViolationError("non-integral display bidegree")

        monkeypatch.setattr(geometry, "sector_grid", broken)
        code, out, err = run(capsys, "verify", "--case", "fermat-quartic")
        assert code == 3 and out == ""
        assert err == ("internal error [DualityViolation]: case 'fermat-quartic': "
                       "non-integral display bidegree\n")

    def test_failure_exit_code(self, capsys, tmp_path):
        # an admissible setup that breaks the theorem's weight hypothesis
        path = tmp_path / "cases.json"
        path.write_text(json.dumps([
            {"name": "bad", "polynomial": "x0^3+x1^3"},
        ]))
        code, _, err = run(capsys, "verify", "--catalog", str(path), "--case", "bad")
        assert code == 2  # surfaced as an input error by the hypothesis guard


def test_vector_entries_are_integers_fractions_or_decimals():
    assert parse_vector("[1, -2/4, 0.25, 1_0, +.5]") == (1, Fraction(-1, 2), Fraction(1, 4), 10,
                                                         Fraction(1, 2))
    for text in ("[1e3]", "[0,2E0]", "[.5e-1]", "[1/2e1]"):
        with pytest.raises(InputError, match="is not an integer, p/q or plain decimal"):
            parse_vector(text)


SRC = Path(bhmirror.__file__).resolve().parent.parent


def _fresh(argv, *, hook_dir=None, timeout=60):
    """A fresh interpreter running `argv` with the library on its path and,
    with `hook_dir`, that directory's `sitecustomize` loaded first."""
    path = [str(hook_dir)] if hook_dir else []
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*path, str(SRC)])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_exponent_notation_is_rejected_before_it_is_expanded():
    # `Fraction("1e999999999")` builds an integer of a billion digits; the
    # entry must be refused before that, also from a fresh process
    proc = _fresh(["-m", "bhmirror.cli", "mirror", "x0^3+x1^3+x2^3",
                   "--group", "gen:[1e999999999,0,0]"], timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error [Input]: cannot parse rational vector")


class TestProcessOwnership:
    """`main()` with no `argv` owns its process and freezes the collector on
    the way out, so shutdown skips collecting what the OS reclaims anyway;
    `main(argv)` leaves the caller's collector as it was."""

    @pytest.mark.parametrize("argv, status", [
        (["analyze", "x0^6+x1^3+x2^2"], 0),
        (["analyze", "2*x0^3+x1^3"], 2),
    ], ids=["pass", "coded-exit"])
    def test_in_process_call_keeps_the_collector(self, capsys, argv, status):
        before = gc.get_freeze_count()
        assert main(argv) == status
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, status", [
        (["analyze"], 2),
        (["-h"], 0),
    ], ids=["usage-error", "help"])
    def test_in_process_argparse_exit_keeps_the_collector(self, capsys, argv, status):
        before = gc.get_freeze_count()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
        assert gc.get_freeze_count() == before

    # what the `bhmirror` console script and the benchmark run, and `-m`
    ENTRY_POINTS = {
        "script": ["-c", "import sys; from bhmirror.cli import main; sys.exit(main())"],
        "module": ["-m", "bhmirror.cli"],
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("argv, status", [
        (["analyze", "x0^6+x1^3+x2^2"], 0),
        (["analyze", "2*x0^3+x1^3"], 2),
        (["analyze"], 2),
        (["-h"], 0),
    ], ids=["pass", "coded-exit", "usage-error", "help"])
    def test_fresh_process_ends_frozen(self, tmp_path, entry, argv, status):
        # an exit hook, run after `main` returns or raises SystemExit,
        # writes the freeze count where the test reads it
        count = tmp_path / "freeze_count"
        (tmp_path / "sitecustomize.py").write_text(
            "import atexit, gc\n"
            f"atexit.register(lambda: open({str(count)!r}, 'w').write(str(gc.get_freeze_count())))\n")
        proc = _fresh([*self.ENTRY_POINTS[entry], *argv], hook_dir=tmp_path)
        assert proc.returncode == status, proc.stderr
        assert "Traceback" not in proc.stderr
        assert int(count.read_text()) > 0

    @pytest.mark.parametrize("argv", [
        ["mirror", "x0^6+x1^3+x2^2", "--group", "SL"],
        ["k3", "x0^4+x1^3*x2+x2^3*x1+x3^4", "--format", "json"],
        ["table", "x0^3+x1^3+x2^4+x3^12", "--K", "gen:[0,3/4,1/4]", "--format", "csv"],
        ["table", "x0^4+x1^4+x2^4+x3^4", "--K", "gen:[1/4,0,0]"],
    ], ids=["text", "json", "csv", "reject"])
    def test_fresh_process_prints_what_an_in_process_call_prints(self, capsys, argv):
        proc = _fresh(["-m", "bhmirror.cli", *argv])
        code = main(argv)
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def ref_build_parser() -> argparse.ArgumentParser:
    """The argparse parser as it was written out before the grammar became
    `cli.COMMANDS`: the reference for help, usage errors and namespaces."""
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


def _parse(build, argv):
    """What the parser `build()` makes of `argv`: ("exit", status, stdout,
    stderr) when argparse exits, else its namespace as a dict."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace = build().parse_args(argv)
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())
    return vars(namespace)


# A command line is a command name, or some other token, followed by
# phrases: option names and their prefixes with a value or without, `=`
# forms, help, `--`, `-`, dash-leading tokens, empty strings and values in
# and out of the options' choices; a phrase may repeat
_VALUES = ["", "-", "-1", "-x0^2", "x0^6+x1^3+x2^2", "text", "json", "csv", "xml", "SL",
           "gen:[1/3,0]"]
_PHRASES = sorted({
    *((value,) for value in _VALUES), ("-h",), ("--help",), ("--",), ("--=x",),
    *(phrase for _, _, options in cli.COMMANDS.values() for name, *_ in options
      for spelled in (f"--{name}", f"--{name[:3]}", f"-{name}")
      for phrase in ((spelled,), *((spelled, value) for value in _VALUES),
                     (f"{spelled}=json",), (f"{spelled}=",))),
})


@st.composite
def _command_lines(draw):
    """A first token, then in any order: some of its options with values
    they take (when it is a command), polynomials, and other phrases."""
    first = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["frob", "-h", "--", "x0^6+x1^3+x2^2"]))
    _, _, options = cli.COMMANDS.get(first, (None, None, ()))
    own = sorted({(f"--{name}",) if default is False else (f"--{name}", value)
                  for name, default, choices, _ in options for value in choices or ("SL", "")})
    phrases = draw(st.lists(st.sampled_from(own), max_size=3)) if own else []
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        phrases.append(draw(st.sampled_from([("x0^6+x1^3+x2^2",), ("",)])))
    phrases += draw(st.lists(st.sampled_from(_PHRASES), max_size=1))
    return [first, *(token for phrase in draw(st.permutations(phrases)) for token in phrase)]


_COMMAND_LINES = _command_lines() | st.lists(st.sampled_from(_VALUES), max_size=2)


class TestCommandLine:
    """`main` reads a well-formed command line off `cli.COMMANDS` without
    argparse and hands any other to `build_parser()`: help, usage errors and
    what either reader makes of a command line match the reference parser."""

    ELLIPTIC = "x0^6+x1^3+x2^2"

    @staticmethod
    def outcome(capsys, call):
        try:
            status = call()
        except SystemExit as exc:
            status = ("exit", exc.code)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def check_against_reference(self, capsys, argv):
        got = self.outcome(capsys, lambda: main(list(argv)))
        want = self.outcome(capsys, lambda: cli._run(ref_build_parser().parse_args(list(argv))))
        assert got == want

    @pytest.mark.parametrize("columns", ["80", "200"])
    @pytest.mark.parametrize("argv", [
        ["-h"], ["analyze", "-h"], ["mirror", "-h"], ["table", "-h"], ["k3", "-h"], ["verify", "-h"],
    ], ids=["top", "analyze", "mirror", "table", "k3", "verify"])
    def test_help(self, capsys, monkeypatch, columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        assert cli._read_argv(argv) is None
        self.check_against_reference(capsys, argv)

    @pytest.mark.parametrize("argv", [
        [],
        ["frob", ELLIPTIC],
        ["analyze"],
        ["table", ELLIPTIC, "--format", "xml"],
        ["analyze", ELLIPTIC, "--bogus"],
        ["mirror", ELLIPTIC, "--group"],
        ["analyze", ELLIPTIC, "x0^3+x1^3"],
    ], ids=["no-command", "unknown-command", "missing-polynomial", "bad-choice",
            "unknown-option", "no-value", "extra-positional"])
    def test_usage_errors(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli._read_argv(argv) is None
        self.check_against_reference(capsys, argv)

    @pytest.mark.parametrize("argv", [
        ["analyze", ELLIPTIC, "--form", "json"],
        ["table", ELLIPTIC, "--K=SL"],
        ["analyze", ELLIPTIC, "--format", "json", "--format", "text"],
    ], ids=["abbreviation", "equals-form", "repeat"])
    def test_forms_the_reader_declines_run_through_argparse(self, capsys, argv):
        assert cli._read_argv(argv) is None
        self.check_against_reference(capsys, argv)

    @pytest.mark.parametrize("argv", [
        ["analyze", ""],
        ["mirror", ELLIPTIC, "--group", ""],
        ["table", "--weights", ELLIPTIC, "--K", "gen:[1/3,0]", "--diamonds", "--format", "csv"],
        ["k3", "--format", "json", "x0^4+x1^4+x2^4+x3^4"],
        ["verify"],
        ["verify", "--case", "toy-k2", "--catalog", "cases.json"],
        ["analyze", "verify"],
    ])
    def test_well_formed_lines_are_read_without_argparse(self, argv):
        read = cli._read_argv(argv)
        assert read is not None and vars(read) == _parse(ref_build_parser, argv)

    def test_argv_may_be_any_iterable(self, capsys):
        # argparse takes any iterable of words; so does the reader before it
        assert self.outcome(capsys, lambda: main(iter(["analyze", self.ELLIPTIC]))) \
            == self.outcome(capsys, lambda: main(["analyze", self.ELLIPTIC]))

    @settings(max_examples=600, deadline=None)
    @given(argv=_COMMAND_LINES)
    def test_reader_is_argparse_or_declines(self, argv):
        want = _parse(ref_build_parser, argv)
        read = cli._read_argv(argv)
        if isinstance(want, tuple):  # argparse exits: help or a usage error
            assert read is None
        else:
            assert read is None or vars(read) == want
        assert _parse(cli.build_parser, argv) == want
