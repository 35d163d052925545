"""Checks on the source tree itself."""

import ast
import pathlib
import re

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


def test_only_manifest_decides_how_work_is_split():
    """No module but ``manifest`` names ``SPLIT_ROWS`` or ``_worker_count``,
    in code or in an import: the others cut a large piece of work with
    ``manifest._runs`` and hand tasks to ``manifest._fork_map``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "manifest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ("SPLIT_ROWS", "_worker_count"):
                found.append(f"{module}: {name}")
    assert found == []


def test_only_rows_spells_a_table_row():
    """No f-string in src ends in ``\\r\\n``: the rows of the accel, rr and
    window tables are spelled through ``ingest._rows``, the one place that
    spells a row of a streamed table."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.JoinedStr) and node.values:
                last = node.values[-1]
                if isinstance(last, ast.Constant) and last.value.endswith("\r\n"):
                    found.append(f"{module}: line {node.lineno}")
    assert found == []


#: A printf-style ``%`` conversion, once ``%%`` is dropped.
PERCENT_CONVERSION = re.compile(r"%(\([^)]*\))?[-#0 +]*(\*|\d+)?(\.(\*|\d+))?[diouxXeEfFgGcrsa]")


def test_only_the_table_writers_build_a_row_template():
    """No src string constant but a docstring holds a ``%`` conversion
    outside ``ingest._write_table`` and ``momentplane._json_list``, which
    build each streamed table's row template from its header or keys: a
    table states its layout once, and no table keeps a template of its
    own, for a row with a missing value or any other."""
    writers = {("ingest.py", "_write_table"), ("momentplane.py", "_json_list")}
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
        }
        for node in tree.body:
            if (module, getattr(node, "name", None)) in writers:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in docstrings:
                    if PERCENT_CONVERSION.search(sub.value.replace("%%", "")):
                        found.append(f"{module}: line {sub.lineno}")
    assert found == []


def changes_pointers(text: str) -> list[str]:
    """The title of each ``CHANGES.md line "..."`` pointer in a source file,
    its lines joined with their indentation and ``#:``/``#`` comment markers
    dropped, so that a title may wrap across comment or docstring lines."""
    joined = " ".join(re.sub(r"^\s*(#:?)?", "", line) for line in text.splitlines())
    joined = re.sub(r"\s+", " ", joined).replace("``", "`")
    pointers = re.findall(r'CHANGES\.md line "([^"]+)"', joined)
    assert len(pointers) == joined.count("CHANGES.md line"), "a pointer without a quoted title"
    return pointers


def test_every_changes_pointer_names_an_entry():
    """Each title that a ``CHANGES.md line "..."`` pointer in src quotes
    starts a line of CHANGES.md, after the ``- `` of a list entry."""
    changes = (pathlib.Path(__file__).resolve().parents[1] / "CHANGES.md").read_text(encoding="utf-8")
    entries = [line.removeprefix("- ") for line in changes.splitlines()]
    found = [
        (path.name, title)
        for path in sorted(SRC.rglob("*.py"))
        for title in changes_pointers(path.read_text(encoding="utf-8"))
    ]
    assert found
    assert [(name, title) for name, title in found if not any(e.startswith(title) for e in entries)] == []
