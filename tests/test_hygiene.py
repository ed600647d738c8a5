"""Source hygiene of the package and its tests, checked on the syntax
tree: no module imports a name it never uses, and no f-string lacks a
placeholder."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/milalign/*.py"), *ROOT.glob("tests/*.py")])


def _trees():
    for path in SOURCES:
        yield path.relative_to(ROOT), ast.parse(path.read_text("utf-8"))


def unused_imports(tree) -> list:
    """(line, name) of each imported name that the module never reads
    and does not list in `__all__`."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def placeholder_free_fstrings(tree) -> list:
    """Line of each f-string with no `{}` field. The format spec after a
    field's colon is itself a JoinedStr node, and is not counted."""
    specs = {id(n.format_spec) for n in ast.walk(tree)
             if isinstance(n, ast.FormattedValue) and n.format_spec}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.JoinedStr) and id(n) not in specs
                  and not any(isinstance(v, ast.FormattedValue)
                              for v in n.values))


def test_no_unused_imports():
    found = [(str(path), line, name) for path, tree in _trees()
             for line, name in unused_imports(tree)]
    assert found == []


def test_no_fstring_without_a_placeholder():
    found = [(str(path), line) for path, tree in _trees()
             for line in placeholder_free_fstrings(tree)]
    assert found == []


def test_the_checks_find_what_they_look_for():
    tree = ast.parse("import os\nimport json as j\nfrom a import b, c\n"
                     "x = f'{c:>{4}.2f}'\ny = f'plain'\n__all__ = ['b']\n")
    assert unused_imports(tree) == [(1, "os"), (2, "j")]
    assert placeholder_free_fstrings(tree) == [5]
