"""Every top-level name in the package has a reader.

A name defined at the top level of a package module must be read outside
its own definition: by code in the package (the `__init__` re-exports do not
count), in `bench/`, or in `tests/test_acceptance.py`.  A read is a loaded
name, an attribute access or a string; docstrings and comments are not
readers.  `UNREAD` is the one allow-list, each exception with its reason.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "magicbroadcast"

UNREAD = {
    ("cloners", "wz_output"):
        "the WZ machine's reference output state, read by tests/test_cloners.py; "
        "it stays until one WZ convention remains",
}


def _sources() -> dict:
    """Source text by path: the package modules and the other readers."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    return {path: path.read_text() for path in paths}


def _defined(statement) -> list:
    """The names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read(statement) -> set:
    """Loaded names, loaded attributes, and strings outside docstrings (the
    bench names the functions it wraps by string)."""
    nodes = list(ast.walk(statement))
    docstrings = {id(n.value) for n in nodes if isinstance(n, ast.Expr)}
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            names.add(node.value)
    return names


def unread_names(sources: dict) -> set:
    """(module, name) for each package top-level name that nothing reads."""
    statements = [(path, s, _read(s)) for path, text in sources.items()
                  for s in ast.parse(text).body]
    unread = set()
    for path, statement, _ in statements:
        if path.parent != PACKAGE:
            continue
        for name in _defined(statement):
            if not any(name in reads for _, other, reads in statements if other is not statement):
                unread.add((path.stem, name))
    return unread


def test_every_top_level_name_is_read():
    assert unread_names(_sources()) == set(UNREAD)


def test_an_unread_constant_fails_the_rule():
    sources = _sources()
    sources[PACKAGE / "tolerances.py"] += "PLANTED = 1e-3          # read by nothing\n"
    assert unread_names(sources) == set(UNREAD) | {("tolerances", "PLANTED")}
