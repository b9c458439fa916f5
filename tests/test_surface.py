"""The package's surface is what the program reads: every module-level name
and every non-dunder method defined under ``src/rindler_ferm`` must be read,
by a name or an attribute, somewhere in ``src/`` or ``perfbench/``. A name
only the tests read belongs in the tests, or nowhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rindler_ferm"


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(path):
    """(qualified name, bare name) of every module-level name and every
    non-dunder method defined in the module at ``path``."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in names:
            if not is_dunder(name):
                yield f"{module}.{name}", name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name


def reads(paths):
    """Every identifier loaded as a name or an attribute in ``paths``."""
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(node.attr)
    return seen


def test_every_definition_is_read_by_the_program():
    program = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("perfbench/**/*.py"))
    read = reads(program)
    unread = [
        qualified
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in definitions(path)
        if name not in read
    ]
    assert not unread, f"read only by tests, or by nothing: {', '.join(unread)}"
