"""The package uses only the standard library and no floating point, and
its oracles share no code with the engine: neither imports the other.

Read from the source with `ast`, so nothing here depends on what a run
happens to reach.
"""

import ast
import sys
from pathlib import Path

import pkh

PACKAGE = Path(pkh.__file__).resolve().parent
ENGINE = {"homalg", "complexes", "equivariant", "spectral", "action", "diagram"}
# the one true division that is not arithmetic: a path join
PATH_JOINS = {("corpus.py", "write_corpus")}


def imports(node) -> tuple[int, str, list[str]]:
    """(relative level, module, the names it imports) of an import statement."""
    if isinstance(node, ast.Import):
        return 0, "", [alias.name for alias in node.names]
    return node.level, node.module or "", [alias.name for alias in node.names]


def violations(path: Path) -> list[str]:
    out = []

    def visit(node, func):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            level, module, names = imports(node)
            for full in ([module] if module else names):
                top = full.split(".")[0]
                if level == 0 and top != "pkh" and top not in sys.stdlib_module_names:
                    out.append(f"{where}: imports {full}, outside the standard library")
            # the package's own modules it names: `from .homalg import x`,
            # `from . import homalg`, `from pkh import homalg`, `import pkh.homalg`
            parts = {p for full in [module, *names] for p in full.split(".")}
            if path.name == "oracles.py" and (level or "pkh" in parts) and parts & ENGINE:
                out.append(f"{where}: an oracle imports the engine: {sorted(parts & ENGINE)}")
            if path.stem in ENGINE and (level or "pkh" in parts) and "oracles" in parts:
                out.append(f"{where}: the engine imports the oracles")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"{where}: floating-point literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append(f"{where}: uses float")
        elif (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
              and (path.name, func) not in PATH_JOINS):
            out.append(f"{where}: true division")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), str(path)), None)
    return out


def test_standard_library_only_no_floating_point_and_oracles_apart():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in violations(path)]
    assert found == []
