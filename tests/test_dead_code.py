"""No private helper of the package is left behind.

Every module-level function or class of ``src/ncplab`` whose name starts
with one underscore is read somewhere in the package outside its own
definition: as a name or as an attribute.  An import alone, or a mention in
a docstring, does not count.  The CLI's ``_cmd_*`` handlers are exempt,
because ``main`` looks them up by name."""

import ast
from pathlib import Path

import ncplab

PACKAGE = Path(ncplab.__file__).parent


def unreferenced(package: Path) -> list[str]:
    """``module.name`` of each private module-level function or class of the
    package that no other top-level statement of the package reads."""
    defined, read = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_") and not own.startswith("__"):
                if not (path.stem == "cli" and own.startswith("_cmd_")):
                    defined.append((path.stem, own))
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
                if name is not None and name != own:
                    read.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_private_helper_is_read():
    assert unreferenced(PACKAGE) == []


def test_the_scan_finds_a_helper_nobody_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _alone():\n    return _alone()\n\n\n"
        "class _Kept:\n    pass\n\n\n"
        "def public():\n    return _used(), _Kept\n"
    )
    (tmp_path / "b.py").write_text('from .a import _imported_only\n"""_in_a_docstring"""\n')
    (tmp_path / "cli.py").write_text("def _cmd_run():\n    pass\n")
    (tmp_path / "c.py").write_text("def _imported_only():\n    pass\n\n\ndef _in_a_docstring():\n    pass\n")
    assert unreferenced(tmp_path) == ["a._alone", "c._imported_only", "c._in_a_docstring"]
