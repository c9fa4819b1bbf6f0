"""Every function in `src/pkh` is run by a command, or is listed with its reason.

`cli.main` runs in this process under `sys.setprofile` over every command
form on small corpus diagrams, the three oracles and two error paths.  The
code objects it calls are matched with every `def` in the package, nested
ones included, by (file, first line); a decorated function's code starts at
its first decorator, so that line matches too.  A function no command
reaches must be in `UNREACHED`, with the reason it stays: the open ROADMAP
item that will call it, the test that compares it with the engine, or the
`khbench` file that reads it.  The list cannot go stale: a listed name that
a command now reaches, or that no longer exists, fails the test too.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import pkh
from pkh import cli

PACKAGE = Path(pkh.__file__).resolve().parent
CORPUS = PACKAGE / "corpus_data"

# corpus diagram -> its rotation order n
DIAGRAMS = {"hopf": 2, "trefoil": 1, "t3_2": 2, "t4_2": 2, "borromean_n3": 3,
            "unknot2_n2": 2, "trivial_p4_k1_f2": 4, "unknot0": 1}
CROSSINGLESS = {"trivial_p4_k1_f2", "unknot0"}  # `ss` resolves a crossing orbit

_ITEM_2 = "ROADMAP item 2: the E_1 check of the sector pages"
_ITEM_3 = "ROADMAP item 3: `verify --theorems`"
_ITEM_7 = "ROADMAP item 7: the Lefschetz sector checks"
_CORPUS = ("ROADMAP item 10: builds `corpus_data/` and the diagrams of the tests "
           "(tests/test_cli.py pins the files to it)")
_TRACED = "khbench/traced.py reads it"

UNREACHED = {
    "action.s_exponent": _ITEM_7 + "; tests/test_action.py checks it against the iterated psi",
    "action.fixed_state_sign": _ITEM_7 + "; tests/test_action.py checks it against the "
                                         "iterated psi",
    "diagram.isotropy": _ITEM_7 + " (fixed_state_sign reads it)",
    "complexes.SliceComplex.basis": _TRACED,
    "homalg.SparseIntMatrix.nnz": _TRACED,
    "equivariant.total_comparison": _ITEM_3,
    "equivariant.tail_checks": _ITEM_3,
    "equivariant.hom_cohomology": "tests/test_acceptance.py criterion 2: the plain Hom "
                                  "discrepancy",
    "polynomials._Polynomial.__bool__": "the truth protocol: without it the zero polynomial "
                                        "would test true",
    "oracles.brute_orbit_qdims": "tests/test_oracles.py checks the qdim_M oracle against it",
    "spectral.resolve_diagram": _ITEM_2,
    "spectral.resolve_diagram.find": _ITEM_2,
    "spectral._walk": _ITEM_2,
    "spectral._propagate_directions": _ITEM_2,
    "spectral.e1_oracle": _ITEM_2,
    "diagram.PeriodicDiagram.to_dict": _CORPUS,
    "diagram.PeriodicDiagram.to_json": _CORPUS,
    **{f"corpus.{name}": _CORPUS for name in (
        "braid_tangle", "torus_2periodic", "torus_flat", "trivial_link",
        "unknot_crossingless", "unknot_fixed_n", "unknot_two_crossing",
        "borromean_3periodic", "corpus_specs", "corpus_names", "load", "build",
        "write_corpus")},
}


def command_forms():
    """Every command form, on every diagram it applies to: `ss` needs a
    crossing, and `ss --d` pages sectors of 2-periodic input only."""
    for name, n in DIAGRAMS.items():
        f = str(CORPUS / f"{name}.json")
        yield ["kh", f]
        yield ["kh", f, "--coeffs", "q"]
        yield ["kh", f, "--format", "table"]
        yield ["poly", f]
        for d in (d for d in range(1, n + 1) if n % d == 0):
            yield ["poly", f, "--d", str(d)]
            yield ["ekh", f, "--d", str(d)]
            yield ["ekh", f, "--d", str(d), "--coeffs", "q"]
            yield ["ekh", f, "--d", str(d), "--window", "6"]
            if n == 2:
                yield ["ss", f, "--d", str(d)]
        if name not in CROSSINGLESS:
            yield ["ss", f]
            yield ["ss", f, "--orbit", "1"]
        yield ["verify", f]
        yield ["verify", f, "--format", "table"]
    yield ["oracle", "torus", "--n", "4"]
    yield ["oracle", "poly-p", "--p", "2", "--n", "2"]
    yield ["oracle", "trivial", "--p", "2", "--n", "1", "--k", "1", "--f", "1", "--u", "0"]


ERROR_FORMS = [
    (["kh", str(CORPUS / "no_such_diagram.json")], cli.IO_EXIT),
    (["ekh", str(CORPUS / "hopf.json"), "--d", "3"], cli.USAGE_EXIT),
]


def reached_code() -> tuple[set[tuple[str, int]], list]:
    """(file, first line) of every code object the commands call, and each exit code."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    runs = []  # (argv, exit code, the code it must have)
    previous = sys.getprofile()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv in command_forms():
                runs.append((argv, cli.main(argv), 0))
            for argv, want in ERROR_FORMS:
                runs.append((argv, cli.main(argv), want))
        finally:
            sys.setprofile(previous)
    real = {name: str(Path(name).resolve()) for name in {code.co_filename for code in seen}}
    return {(real[code.co_filename], code.co_firstlineno) for code in seen}, runs


def package_defs() -> dict[str, tuple[str, set[int]]]:
    """Every def in the package: dotted name -> (file, the lines its code may start at)."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = {child.lineno} | {dec.lineno for dec in child.decorator_list}
                assert name not in out, f"{name} is defined twice"
                out[name] = (str(path), lines)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, path.stem + ".")
    return out


def test_every_function_is_reached_or_listed():
    reached, runs = reached_code()
    for argv, code, want in runs:
        assert code == want, argv
    defs = package_defs()
    unreached = {name for name, (path, lines) in defs.items()
                 if not any((path, line) in reached for line in lines)}
    assert sorted(unreached - UNREACHED.keys()) == [], "reached by no command and not listed"
    assert sorted(UNREACHED.keys() & (defs.keys() - unreached)) == [], \
        "listed as unreached, but a command reaches it"
    assert sorted(UNREACHED.keys() - defs.keys()) == [], "listed, but no longer defined"
