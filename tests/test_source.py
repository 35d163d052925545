"""Checks on the source tree itself."""

import ast
import pathlib

import loadlens

SRC = pathlib.Path(loadlens.__file__).parent


def referenced_names(tree: ast.Module, module: str) -> list[tuple[str, tuple[str, str | None]]]:
    """(name, owner) of each ``Name``, ``Attribute`` and ``from ... import``
    in a module; owner is (module, the name of the top-level definition the
    reference sits in, or None)."""
    refs = []
    for node in tree.body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                refs.append((sub.id, (module, owner)))
            elif isinstance(sub, ast.Attribute):
                refs.append((sub.attr, (module, owner)))
            elif isinstance(sub, ast.ImportFrom):
                refs += [(alias.name, (module, owner)) for alias in sub.names]
    return refs


def test_every_public_function_and_class_is_used_by_src():
    """Each public top-level function and class of ``loadlens`` is referenced
    by src code outside its own definition: no code that only tests reach."""
    defined, refs = [], []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        defined += [(node.name, module) for node in tree.body if isinstance(node, defs) and not node.name.startswith("_")]
        refs += referenced_names(tree, module)
    assert defined
    unused = [
        f"{module}: {name}"
        for name, module in defined
        if not any(ref == name and owner != (module, name) for ref, owner in refs)
    ]
    assert unused == []
