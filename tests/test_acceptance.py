"""End-to-end acceptance gate: one test per headline requirement.

Each test prints nothing special on its own; the pass/fail line that
pytest -v emits for it is the record.  Goldens here are frozen from
independent oracles exercised in the per-module test files.
"""

import ast
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import liepar
from cli_demo import DEMO_EXPECTED, DEMO_SCRIPT
from conftest import GRID, make_ic
from liepar import (RatVecModZ, duality_check, dual_tau, enumerate_form,
                    enumerate_X, enumerate_Z, fiber_space, real_weyl,
                    sp2n_count, strong_real_forms, twisted_involutions)
from liepar.intlinalg import mat_mul
from props import (all_elements, check_cayley_roundtrip,
                   check_cross_action, check_cross_involutive,
                   check_fiber_power_two, check_form_partition,
                   check_grading_transfer, check_projection_surjective,
                   check_tits_lifts)
from test_kgb import SP4_SPLIT_ROWS, SP11_ROWS, decoration, parse_rows, \
    tables_isomorphic


def rv(*entries):
    return RatVecModZ.reduce([Fraction(e) for e in entries])


# extra inner classes used to push the property suites and the
# brute-force oracle comparisons beyond the small standard grid
LARGE = [
    ("A1.A1.A1", "sc", "c"),
    ("A1.A1.A1", "ad", "c"),
    ("B3", "sc", "c"),
    ("B3", "ad", "c"),
    ("C3", "sc", "c"),
    ("C3", "ad", "c"),
    ("A4", "sc", "c"),
    ("A4", "ad", "c"),
    ("A4", "sc", (3, 2, 1, 0)),
    ("D4", "sc", "c"),
    ("D4", "sc", (0, 1, 3, 2)),
    ("B4", "sc", "c"),
]


def test_symplectic_strong_form_counts():
    start = time.perf_counter()
    counts = [sp2n_count(n) for n in range(1, 6)]
    elapsed = time.perf_counter() - start
    assert counts == [4, 18, 88, 460, 2544]
    assert elapsed < 60.0, f"rank 1..5 took {elapsed:.1f}s"
    assert sp2n_count(6) == 14776


def test_rank_one_golden_suite():
    start = time.perf_counter()

    sl2 = make_ic("A1", "sc")
    table = enumerate_X(sl2)
    assert len(table) == 5
    forms = strong_real_forms(sl2)
    assert sorted(len(f.element_ids) for f in forms) == [1, 1, 3]

    pgl2 = make_ic("A1", "ad")
    tbl2 = enumerate_X(pgl2)
    assert len(tbl2) == 3
    forms2 = strong_real_forms(pgl2)
    assert sorted(len(f.element_ids) for f in forms2) == [1, 2]

    # fiber contents over both central squares at tau = e and tau = s
    inv = twisted_involutions(sl2)
    fs_e = fiber_space(inv.elements[0], sl2)
    fs_s = fiber_space(inv.elements[1], sl2)
    assert tuple(fs_e.elements(rv(0))) == (rv(0), rv("1/2"))
    assert tuple(fs_e.elements(rv("1/2"))) == (rv("1/4"), rv("3/4"))
    assert tuple(fs_s.elements(rv(0))) == ()
    assert tuple(fs_s.elements(rv("1/2"))) == (rv(0),)

    # the six pairs of the two-sided space, as a multiset
    pairs = enumerate_Z(sl2)
    assert sorted(p.line() for p in pairs) == sorted([
        "0 2 0 0 e", "1 2 0 0 e", "2 2 1/2 0 e",
        "3 2 1/2 0 e", "4 0 1/2 0 1", "4 1 1/2 0 1",
    ])

    # real Weyl group orders, element by element
    assert [real_weyl(x).total for x in table] == [2, 2, 1, 1, 2]
    assert [real_weyl(x).total for x in tbl2] == [2, 2, 2]

    assert time.perf_counter() - start < 1.0


def test_rank_two_symplectic_form_listings():
    start = time.perf_counter()
    ic = make_ic("C2", "sc")
    table = enumerate_X(ic)
    forms = strong_real_forms(ic)
    assert [len(f.element_ids) for f in forms] == [1, 4, 1, 11]

    def multiset(lines):
        return sorted(decoration(r) for r in parse_rows(lines).values())

    split = enumerate_form(ic, table[forms[3].element_ids[0]])
    assert tables_isomorphic(split.lines(), SP4_SPLIT_ROWS)
    assert multiset(split.lines()) == multiset(SP4_SPLIT_ROWS)

    quat = enumerate_form(ic, table[forms[1].element_ids[0]])
    assert tables_isomorphic(quat.lines(), SP11_ROWS)
    assert multiset(quat.lines()) == multiset(SP11_ROWS)

    assert time.perf_counter() - start < 1.0


def test_property_suites_at_scale():
    totals = {"cross_inv": 0, "cross_act": 0, "cayley": 0, "grading": 0,
              "fibers": 0, "surj": 0, "partition": 0, "tits": 0}
    rng = random.Random(20260823)
    for spec in GRID + LARGE:
        ic = make_ic(*spec)
        totals["cross_inv"] += check_cross_involutive(ic)
        elements = all_elements(ic.weyl)
        pairs = [(rng.choice(elements), rng.choice(elements))
                 for _ in range(5)]
        totals["cross_act"] += check_cross_action(ic, pairs)
        totals["cayley"] += check_cayley_roundtrip(ic)
        totals["grading"] += check_grading_transfer(ic)
        totals["fibers"] += check_fiber_power_two(ic)
        totals["surj"] += check_projection_surjective(ic)
        totals["partition"] += check_form_partition(ic)
        totals["tits"] += check_tits_lifts(ic, rng, n_words=40)
    for name, n in totals.items():
        assert n >= 1000, f"suite {name} only reached {n} cases"


def test_duality_named_pairs():
    # simply connected rank 1 against its adjoint dual
    assert duality_check(make_ic("A1", "sc")).ok
    # rank-2 symplectic against odd orthogonal
    assert duality_check(make_ic("C2", "sc")).ok
    # rank-2 special linear with the nontrivial diagram twist
    twisted = make_ic("A2", "sc", (1, 0))
    assert twisted.diagram_perm == (1, 0)
    assert duality_check(twisted).ok


def test_brute_force_oracles_small_weyl_groups():
    for spec in GRID + LARGE:
        ic = make_ic(*spec)
        wg = ic.weyl
        assert wg.order() <= 384
        elements = all_elements(wg)

        # twisted involutions = {w : w * gamma(w) = identity}
        brute = {w.word for w in elements
                 if mat_mul(w.mat, ic.twist_weyl(w).mat) == wg.identity.mat}
        tbl = twisted_involutions(ic)
        assert {tau.w.word for tau in tbl.elements} == brute

        # duality on involutions = the unique negative-transpose match
        dtbl = twisted_involutions(ic.dual)
        index = {}
        for s in dtbl.elements:
            index[s.theta_X] = s
        for tau in tbl.elements:
            neg_t = tuple(zip(*[tuple(-v for v in row)
                                for row in tau.theta_X]))
            assert dual_tau(tau, ic).theta_X == index[neg_t].theta_X

        # real Weyl order = size of the cross-action stabilizer
        from liepar import cross_by_word
        for x in enumerate_X(ic):
            stab = sum(1 for w in elements
                       if cross_by_word(w.word, x) == x)
            assert stab == real_weyl(x).total


def test_cli_batch_replay_deterministic(tmp_path):
    # replays under different hash seeds, and one with assertions
    # stripped (-O), must all reproduce the golden transcript
    script = tmp_path / "cmds.txt"
    script.write_text(DEMO_SCRIPT)
    runs = [("0", []), ("1", []), ("12345", []), ("0", ["-O"])]
    for seed, flags in runs:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "liepar.cli",
             "--cmd-file", str(script)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == DEMO_EXPECTED, (seed, flags)


def test_import_generates_no_record_code():
    # records are named tuples and plain classes: importing the library
    # and its CLI in a fresh process loads neither dataclasses nor the
    # inspect module it pulls in
    proc = subprocess.run(
        [sys.executable, "-c",
         "import liepar, liepar.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_library_has_no_assert_statements():
    # invariants must be explicit checks that survive python -O
    src = Path(liepar.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_kernels_do_not_sum_over_zip():
    # one kernel form: a dot product is sum(map(mul, a, b)), whose loop
    # runs in C, not sum(x * y for x, y in zip(a, b)), one interpreted
    # step per entry; a list comprehension over zip is the same idiom
    src = Path(liepar.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "sum"
             and node.args
             and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
             and any(isinstance(g.iter, ast.Call)
                     and isinstance(g.iter.func, ast.Name)
                     and g.iter.func.id == "zip"
                     for g in node.args[0].generators)]
    assert found == []


def test_only_rational_modules_import_fractions():
    # Fraction is for rational vectors mod Z (intlinalg) and parsing
    # rational input (cli); root data, Weyl groups, fibers and the
    # searches run on integers
    src = Path(liepar.__file__).parent
    found = {path.stem for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import)
             and any(a.name == "fractions" for a in node.names)}
    assert sorted(found - {"intlinalg", "cli"}) == []


def test_only_the_probe_shim_modules_name_intmatrix():
    # a matrix is a tuple of integer rows; the IntMatrix shim is defined
    # in intlinalg, returned by fiber.theta_matrix and exported
    src = Path(liepar.__file__).parent
    found = {path.stem for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if "IntMatrix" in (getattr(node, "id", None),
                                getattr(node, "attr", None),
                                getattr(node, "name", None))}
    assert "fiber" in found
    assert sorted(found - {"intlinalg", "fiber", "__init__"}) == []


def test_library_has_no_unused_imports():
    # a name a module imports must be used there; __init__.py re-exports
    # and imports on a line marked "# noqa: F401" are exempt
    src = Path(liepar.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    (isinstance(node, ast.ImportFrom)
                     and node.module == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and \
                        "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{path.name}:{alias.lineno} {name}")
    assert found == []


def test_library_has_no_unreferenced_definitions():
    # every module-level function and class is named somewhere in the
    # library outside its own definition, or is exported in __all__ and
    # named as a whole word in README.md or bench/run.py (being in __all__
    # alone is not a reader); every
    # method but a dunder or a cli cmd_* handler (Session.handle finds
    # those by name) is read as an attribute (x.name) outside its own
    # definition, since a local variable of the same name does not call
    # it: code only the tests call belongs in the tests.  Every attribute
    # an __init__ assigns on self is read as x.name (not assigned) in the
    # library, or named as a whole word in README.md
    src = Path(liepar.__file__).parent
    root = Path(__file__).resolve().parents[1]

    def words(name):
        return set(re.findall(r"\w+", (root / name).read_text()))

    readme_words = words("README.md")
    doc_words = readme_words | words("bench/run.py")
    defined = []  # (file, owner, name, documented, method)
    uses = {}     # name -> set of (file, owner) naming it
    attr_uses = {}  # name -> set of (file, owner) reading it as x.name
    attr_reads = set()  # names loaded as x.name anywhere in the library
    fields = []   # (file, class, name) of each self.name an __init__ sets
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def record(path, owner, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                attr_uses.setdefault(sub.attr, set()).add((path.name, owner))
                if isinstance(sub.ctx, ast.Load):
                    attr_reads.add(sub.attr)
            name = sub.id if isinstance(sub, ast.Name) else \
                sub.attr if isinstance(sub, ast.Attribute) else None
            if name:
                uses.setdefault(name, set()).add((path.name, owner))

    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, functions + (ast.ClassDef,)):
                record(path, None, stmt)
                continue
            defined.append((path.name, stmt.name, stmt.name,
                            stmt.name in liepar.__all__
                            and stmt.name in doc_words, False))
            if not isinstance(stmt, ast.ClassDef):
                record(path, stmt.name, stmt)
                continue
            for item in stmt.body:
                owner = stmt.name
                if isinstance(item, functions):
                    owner = f"{stmt.name}.{item.name}"
                    if not (item.name.startswith("__")
                            and item.name.endswith("__")
                            or item.name.startswith("cmd_")):
                        defined.append((path.name, owner, item.name, False,
                                        True))
                    if item.name == "__init__":
                        fields.extend(
                            (path.name, stmt.name, sub.attr)
                            for sub in ast.walk(item)
                            if isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self")
                record(path, owner, item)
            for base in stmt.bases + stmt.decorator_list:
                record(path, stmt.name, base)
    found = [f"{file}: {owner}"
             for file, owner, name, documented, method in defined
             if not documented and not (attr_uses if method else uses)
             .get(name, set()) - {(file, owner)}]
    found += [f"{file}: {owner}.{name}" for file, owner, name in fields
              if name not in attr_reads and name not in readme_words]
    assert found == []
