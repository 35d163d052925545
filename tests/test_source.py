"""Checks on the source tree itself."""

import ast
import pathlib

import loadlens

SRC = pathlib.Path(loadlens.__file__).parent


def referenced_names(tree: ast.Module, module: str) -> list[tuple[str, tuple[str, str | None]]]:
    """(name, owner) of each ``Name`` and ``Attribute`` that is read, and of
    each ``from ... import``, in a module; owner is (module, the name of the
    top-level definition the reference sits in, or None)."""
    refs = []
    for node in tree.body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                refs.append((sub.id, (module, owner)))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                refs.append((sub.attr, (module, owner)))
            elif isinstance(sub, ast.ImportFrom):
                refs += [(alias.name, (module, owner)) for alias in sub.names]
    return refs


def checked_names(tree: ast.Module) -> list[str]:
    """The top-level names of a module that src code must use: each public
    function and class, and each private function, class and constant."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("_") and not t.id.startswith("__")]
    return names


def test_every_public_function_and_class_is_used_by_src():
    """Each public top-level function and class of ``loadlens``, and each
    private top-level function, class and constant, is referenced by src
    code outside its own definition: no code that only tests reach."""
    defined, refs = [], []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(name, module) for name in checked_names(tree)]
        refs += referenced_names(tree, module)
    assert any(name.startswith("_") for name, _ in defined)
    unused = [
        f"{module}: {name}"
        for name, module in defined
        if not any(ref == name and owner != (module, name) for ref, owner in refs)
    ]
    assert unused == []
