"""Source-level rules for the library."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bhmirror


def _library_trees():
    root = Path(bhmirror.__file__).parent
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(root.rglob("*.py"))]


def test_no_assert_statements():
    # `python -O` strips asserts; every invariant check must raise instead.
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_no_cap_parameters():
    # the cap is read where it is checked, `symmetry.require_within_cap`;
    # no function threads it through
    found = []
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                if any(param is not None and param.arg == "cap" for param in params):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"functions with a cap parameter: {found}"


def test_one_reader_of_the_environment():
    # BHMIRROR_MAX_GROUP is the only variable the library reads, and
    # `symmetry.group_cap` is the only function that reads it
    readers = set()
    for path, tree in _library_trees():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    or isinstance(node, ast.ImportFrom) and node.module == "os"):
                owner = node
                while owner in parents and not isinstance(owner, ast.FunctionDef):
                    owner = parents[owner]
                readers.add(f"{path.stem}.{getattr(owner, 'name', '<module>')}")
    assert readers == {"symmetry.group_cap"}


def _owners(tree):
    """Map each node to its enclosing function as `Class.function` or `function`."""
    owners = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            owners[child] = inner
            visit(child, inner)

    visit(tree, "")
    return owners


def test_library_raises_only_its_errors():
    # errors.py: every error raised by the library derives from BHMirrorError,
    # so the CLI maps each to a coded exit, never a traceback
    from bhmirror import errors
    allowed = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.BHMirrorError)}
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and not (isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
                      and node.exc.func.id in allowed)]
    assert not found, f"raises of classes outside bhmirror.errors: {found}"


def _callers(name):
    """The functions, as `module.owner`, that call `name` by its bare name."""
    callers = set()
    for path, tree in _library_trees():
        owners = _owners(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == name):
                callers.add(f"{path.stem}.{owners[node]}")
    return callers


def test_decoder_only_where_results_leave():
    # codes stay codes inside the engine; `decoder` makes the `Fraction`
    # view only where a group's elements, a state label, a non-Calabi-Yau
    # grid cell or a cell of the public unprojected map leave it; building a
    # state table, and checking it, decodes nothing
    allowed = {"symmetry.SymmetryGroup.elements", "statespace.unprojected_state_space",
               "statespace._labeler", "geometry.sector_grid"}
    callers = _callers("decoder")
    assert callers <= allowed, f"decoder called in {sorted(callers - allowed)}"


def test_check_items_are_made_only_by_the_report():
    # a report keeps the maps it compared; its cells become `CheckItem`s only
    # when `items` is read, so no check builds one per cell as it compares
    assert _callers("CheckItem") == {"mirror.VerificationReport.items"}


def test_one_label_assembly():
    # every `StateLabel` of the library, a table entry or the image of a twist
    # or an elevator, is assembled in the one labeler from per-sector and
    # per-key parts
    assert _callers("StateLabel") == {"statespace._labeler.label"}


def test_one_copy_of_the_twist_and_elevators():
    # the twist and both elevators share one body, the only place that
    # checks an entry's side and target level
    assert _callers("SideMismatchError") == _callers("ZOutOfRangeError") == {"statespace._relabel"}


def test_annihilator_has_two_callers():
    # Ann(K) is made once, graded in the setup: the mirror's K is read off
    # its keys, and SL is the dual of <j^T>
    assert _callers("annihilator") == {"symmetry.dual_group", "symmetry.admissible_setup"}


def test_atoms_are_classified_once_per_polynomial():
    # a restriction keeps whole chain tails and loops of the parent's atoms,
    # so `restrict` reads its blocks off them instead of searching again;
    # f of W = x0^k + f reads its atoms off W's
    assert _callers("classify_atoms") == {"poly.from_exponents", "poly.transpose"}


def test_a_polynomial_is_built_with_its_checked_inverse():
    # every record is made where its inverse is checked: a parse eliminates
    # once, and a transpose or an inner f takes its inverse from the parent
    assert _callers("InvertiblePolynomial") == {"poly.from_exponents", "poly.transpose",
                                                "poly.split_cyclic"}
    assert _callers("adjugate") == {"poly._eliminate"}
    assert _callers("_eliminate") == {"poly.from_exponents", "poly.solve_weights"}


def test_atom_keeps_kind_variables_and_exponents():
    from bhmirror.poly import Atom
    assert Atom._fields == ("kind", "variables", "exponents")


def test_no_poly_function_calls_itself():
    # the atoms are one product of readings and a forward walk, not a
    # recursive search; the Fermat oracle is one product over the fixed
    # variables' exponents
    for module in ("poly", "milnor"):
        path = Path(bhmirror.__file__).parent / f"{module}.py"
        tree = ast.parse(path.read_text(), str(path))
        owners = _owners(tree)
        found = [f"{owners[node]}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and owners.get(node, "").split(".")[-1] == node.func.id]
        assert not found, f"recursive calls in {module}: {found}"


def test_one_builder_of_a_sectors_cells():
    # a sector's cells are its fixed set's series terms shifted by its age,
    # made in one place: the tables take them from `milnor.shifted_cells`,
    # and only the Milnor and oracle checks read a series themselves
    from bhmirror import milnor
    assert _callers("equivariant_hilbert") == {"milnor.shifted_cells", "mirror.check_pair"}
    assert _callers("shifted_cells") == {"milnor.sector_algebra", "statespace.unprojected_cells",
                                         "statespace.build_state_space"}
    assert not hasattr(milnor, "algebra_by_fixed_set")


def test_verify_checks_live_in_the_library():
    # `verify` formats the reports of `mirror.check_pair` and the K3
    # relations of `geometry.k3_read_off`; no CLI function restricts,
    # expands a series, reads vanishing cells or fixed loci or fits a grid
    # itself
    for name in ("fermat_monomial_basis", "equivariant_hilbert", "restrict",
                 "moving_vanishing_violations", "k3_invariants", "fit_k3_pattern"):
        callers = {caller for caller in _callers(name) if caller.startswith("cli.")}
        assert not callers, f"{name} called in {sorted(callers)}"
    assert _callers("fermat_monomial_basis") == {"mirror.check_pair"}


def test_one_k3_grid_rule():
    # the order-4 and prime sector grids are one pattern, rebuilt by the one fit
    assert _callers("_expected_grid") == {"geometry.fit_k3_pattern"}

def test_annihilator_closes_no_aut_group():
    # Ann(K) is the image of a kernel basis, closed in work proportional to
    # |Ann|; the transpose's whole group is never closed to be filtered
    for name in ("aut_group", "enumerate_group"):
        assert "symmetry.annihilator" not in _callers(name), name


def test_codes_read_off_the_inverse_are_not_checked_again():
    # `fixes` tests only outside vectors, in `encode`; the codes of Aut's
    # generators, of j_f, j and s, and the series keys, sums of dual
    # characters, are read off N*E^{-1}, whose one check covers them
    assert _callers("fixes") == {"poly.encode"}


def test_fractions_enter_the_engine_once():
    # a rational vector becomes a code only where outside generators span a
    # group; j, <j>, SL and Aut are spanned by codes read off N*E^{-1}, and
    # `j_element` and `s_element` are `Fraction` views for library callers:
    # `analyze` prints j and s from their codes
    assert _callers("encode") == {"symmetry.enumerate_group"}
    for name in ("j_element", "s_element"):
        assert _callers(name) == set(), name


def test_one_group_constructor():
    # every `SymmetryGroup` closed from generators is closed by `_span`; the
    # annihilator closes its kernel images, and a setup its coset group
    assert _callers("_closure") == {"symmetry._span", "symmetry.annihilator",
                                    "symmetry.admissible_setup"}


def _items_loop(node):
    """The name whose items() the loop `node` walks, if it walks a map's items."""
    if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Attribute) and node.iter.func.attr == "items"
            and isinstance(node.iter.func.value, ast.Name)):
        return node.iter.func.value.id
    return None


def _convolutions():
    """The functions, as `module.owner`, that convolve two maps: a loop over
    one map's items() around a loop over the items() of a map that the
    outer loop does not bind."""
    found = set()
    for path, tree in _library_trees():
        owners = _owners(tree)
        for outer in ast.walk(tree):
            if _items_loop(outer) is None:
                continue
            bound = {node.id for node in ast.walk(outer.target) if isinstance(node, ast.Name)}
            if any(_items_loop(inner) not in (None, *bound)
                   for inner in ast.walk(outer) if inner is not outer):
                found.add(f"{path.stem}.{owners[outer]}")
    return found


def test_no_truncated_convolution():
    # a block's series is its numerator divided exactly by each variable's
    # 1 - chi t^w, one pass over the occupied degrees; the convolutions left
    # are exact products (of disjoint blocks' series, and of unprojected
    # maps), which take the two maps and no bound to truncate at
    convolutions = _convolutions()
    assert convolutions == {"milnor._product", "mirror.thom_sebastiani_convolution"}
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and f"{path.stem}.{node.name}" in convolutions:
                assert len(node.args.args) == 2, node.name


def test_memoized_functions_are_the_measured_set():
    # each cache is kept because a run's calls hit it (the one transpose
    # object, block and fixed-set series); a polynomial's inverse is a field;
    # a new cache needs measured hits, and a cache no call reuses is removed.
    # `decoder`'s per-instance entry cache is a call, not a decorator
    memoized = set()
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(target, "id", getattr(target, "attr", None)) in ("lru_cache", "cache"):
                        memoized.add(f"{path.stem}.{node.name}")
    assert memoized == {"poly.transpose", "milnor._block_series", "milnor.equivariant_hilbert"}


def test_no_dataclasses():
    # records are `collections.namedtuple` classes; `dataclasses` and the
    # decorations cost each CLI process tens of milliseconds of start-up
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(alias.name.partition(".")[0] == "dataclasses" for alias in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").partition(".")[0] == "dataclasses"]
    assert not found, f"dataclasses imported in the library: {found}"


def test_no_typing():
    # records are `collections.namedtuple` classes, with their field types in
    # comments, and the abstract types come from `collections.abc`: a
    # `typing.NamedTuple` turns each annotation into a `ForwardRef` at import
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(alias.name.partition(".")[0] == "typing" for alias in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").partition(".")[0] == "typing"]
    assert not found, f"typing imported in the library: {found}"


def test_cli_import_leaves_out_typing():
    # without `site`, which may load `typing` itself, importing the CLI
    # loads no `typing`; this counts modules, not time
    src = str(Path(bhmirror.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-S", "-c",
                           "import bhmirror.cli, sys; print('typing' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_collector_frozen_only_by_main():
    # `cli.main` freezes the collector when it owns the process; a
    # module-level freeze, `gc.disable()` or a threshold setting would
    # change the collector of every library caller
    importers, uses = [], []
    for path, tree in _library_trees():
        owners = _owners(tree)
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "gc"):
                importers.append(f"{path.stem}:{ast.unparse(node)}")
            elif isinstance(node, ast.Name) and node.id == "gc":
                attr = parents[node]
                called = (isinstance(attr, ast.Attribute) and isinstance(parents[attr], ast.Call)
                          and parents[attr].func is attr and not parents[attr].args)
                uses.append(f"{path.stem}.{owners[node]}:"
                            f"{ast.unparse(parents[attr] if called else attr)}")
    assert importers == ["cli:import gc"]
    assert uses == ["cli.main:gc.freeze()"]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter without `site`, so that nothing but bhmirror.cli
    # decides what is loaded; `json` loads only for JSON output or a catalog
    # file, and `fractions` (with `decimal` and `numbers`) only for a rational
    # input or a `Fraction` view
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "json",
             "argparse", "gettext", "locale", "fractions", "decimal", "numbers"]
    code = (f"import sys; sys.path.insert(0, {str(Path(bhmirror.__file__).parent.parent)!r}); "
            f"import bhmirror.cli; print([m for m in {heavy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# argparse and what its messages load: a command line only pays for them
# when it asks for help or is a usage error
ARGPARSE_MODULES = ("argparse", "gettext", "locale")


@pytest.mark.parametrize("argv, status", [
    (["analyze", "x0^6+x1^3+x2^2"], 0),
    (["table", "x0^3+x1^3+x2^4+x3^12", "--K", "gen:[0,3/4,1/4]", "--format", "csv"], 0),
    (["verify", "--case", "toy-k2", "--format", "json"], 0),
    (["analyze", "2*x0^3+x1^3"], 2),
    (["-h"], 0),
], ids=["text", "csv", "verify-json", "coded-reject", "help"])
def test_cli_command_loads_argparse_only_for_help(argv, status):
    # a fresh interpreter without `site` runs the command as the console
    # script does, then names on its last stderr line the argparse modules
    # it has loaded
    code = (f"import sys; sys.path.insert(0, {str(Path(bhmirror.__file__).parent.parent)!r})\n"
            "from bhmirror.cli import main\n"
            "try: sys.exit(main())\n"
            f"finally: print([m for m in {ARGPARSE_MODULES!r} if m in sys.modules], file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == status, proc.stderr
    loaded = ast.literal_eval(proc.stderr.splitlines()[-1])
    if argv == ["-h"]:
        assert "argparse" in loaded
    else:
        assert loaded == []


@pytest.mark.parametrize("argv, status, loads", [
    (["analyze", "x0^7+x1^5*x2+x2^2*x3+x3^2*x1"], 0, False),
    (["mirror", "x0^6+x1^3+x2^2", "--group", "SL", "--format", "json"], 0, False),
    (["table", "x0^6+x1^6+x2^3+x3^3", "--diamonds", "--weights"], 0, False),
    (["k3", "x0^4+x1^3*x2+x2^3*x1+x3^4", "--format", "json"], 0, False),
    (["verify", "--case", "toy-k2"], 0, False),
    (["analyze", "2*x0^3+x1^3"], 2, False),
    (["table", "x0^3+x1^3+x2^4+x3^12", "--K", "gen:[0,3/4,1/4]", "--format", "csv"], 0, True),
], ids=["analyze", "mirror-SL", "table", "k3", "verify", "coded-reject", "rational-K"])
def test_cli_command_loads_fractions_only_for_a_rational_input(argv, status, loads):
    # the CLI formats numerators over N on integers: only a command that
    # parses a rational vector loads `fractions`, and with it `decimal` and
    # `numbers`; a fresh interpreter without `site` names them on its last
    # stderr line
    modules = ("fractions", "decimal", "numbers")
    code = (f"import sys; sys.path.insert(0, {str(Path(bhmirror.__file__).parent.parent)!r})\n"
            "from bhmirror.cli import main\n"
            "try: sys.exit(main())\n"
            f"finally: print([m for m in {modules!r} if m in sys.modules], file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == status, proc.stderr
    loaded = ast.literal_eval(proc.stderr.splitlines()[-1])
    assert loaded == (list(modules) if loads else [])


def test_fractions_imported_only_inside_functions():
    # a `Fraction` is made only for a rational input or a library view, and
    # the function that makes it imports `fractions`, so no module or class
    # body loads it
    found = []
    for path, tree in _library_trees():
        in_functions = {id(node) for function in ast.walk(tree)
                        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(function)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in in_functions
                  and (isinstance(node, ast.Import)
                       and any(alias.name == "fractions" for alias in node.names)
                       or isinstance(node, ast.ImportFrom) and node.module == "fractions")]
    assert not found, f"fractions imported when a module loads: {found}"


def test_argparse_is_imported_only_to_build_the_parser():
    # `cli.main` reads a well-formed command line off `cli.COMMANDS`; only
    # `build_parser`, for help and usage errors, imports argparse
    importers = []
    for path, tree in _library_trees():
        owners = _owners(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name == "argparse" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "argparse"):
                importers.append(f"{path.stem}.{owners[node]}")
    assert importers == ["cli.build_parser"]


def test_one_grammar():
    # `cli.COMMANDS` declares each command's polynomial and options once;
    # each handler `cmd_<command>` reads exactly what its command declares,
    # and elsewhere only `args.command` is read, so an option cannot reach
    # one reader of the command line and not the other
    from bhmirror import cli
    tree = ast.parse(Path(cli.__file__).read_text())
    owners = _owners(tree)
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            reads.setdefault(owners[node], set()).add(node.attr)
    for command, (_, takes_polynomial, options) in cli.COMMANDS.items():
        declared = {name for name, *_ in options} | ({"polynomial"} if takes_polynomial else set())
        assert reads.pop(f"cmd_{command}") == declared, command
    assert set().union(*reads.values()) == {"command"}, reads


def _load_spans():
    path = Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_layers_exist():
    # perfbench/spans.py looks these names up to wrap them; a renamed
    # function breaks the traced benchmark run, which this suite never starts
    spans = _load_spans()
    missing = [f"{module}.{name}"
               for module, names in spans.LAYERS.items()
               for name in names
               if not hasattr(importlib.import_module(f"bhmirror.{module}"), name)]
    assert not missing, f"benchmark layers missing from bhmirror: {missing}"


# The exact per-layer counters of the traced octic pair (64 and 512 sectors);
# no `aut_group` call: each setup's Ann(K) is enumerated from a kernel basis,
# and the mirror's K is read off the source's keys.  One `enumerate_group`,
# the trivial K of the source:
# Aut of the self-transpose W closes the columns of N*E^{-1} without it, and
# the mirror's K is key codes, not closed again.
# Each table fetches the series of each of its fixed sets once: 24 series
# over the 16 distinct fixed sets, not one per sector
OCTIC_COUNTERS = {
    "symmetry.aut_group.calls": 0,
    "symmetry.enumerate_group.calls": 1,
    "symmetry.enumerate_group.elements": 1,
    "symmetry.admissible_setup.calls": 2,
    "milnor.equivariant_hilbert.calls": 24,
    "milnor.equivariant_hilbert.distinct_fixed_sets": 16,
    "milnor.equivariant_hilbert.series_terms": 720,
    "statespace.build_state_space.entries": 840,
    "statespace.build_state_space.sectors": 576,
    "mirror.verify_pair_duality.cells": 420,
    "mirror.verify_lg_mirror.cells": 80,
}


def test_traced_benchmark_pair_matches_its_golden(tmp_path):
    # perfbench reads the state-table label fields, `series.coefficients`,
    # `table.entries` and `setup.labels`; a reshaped record breaks its traced
    # run, which the rest of this suite never starts
    root = Path(__file__).parent.parent
    op = "pair x0^8+x1^8+x2^4+x3^2"
    golden = json.loads((root / "perfbench" / "goldens.json").read_text())["ops"][op]
    spans = tmp_path / "spans.json"
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("BHMIRROR_MAX_GROUP", None)
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "child.py"),
                           "--trace", str(spans), *op.split()],
                          capture_output=True, cwd=root, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans.read_text())["spans"]
    assert traced
    assert hashlib.sha256(proc.stdout).hexdigest() == golden["stdout_sha256"]
    layer = _load_spans().summarize([traced])
    assert {name: layer[name] for name in OCTIC_COUNTERS} == OCTIC_COUNTERS

