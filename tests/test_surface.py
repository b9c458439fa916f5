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


def test_a_scenario_is_a_kind_on_a_field():
    # the kinds take the field, so no per-family factory is left, and the
    # block checks' families come as they are, with nothing to regroup
    gone = {"vac_one_dirac", "bell_dirac", "vac_one_spinless", "_families"}
    program = sorted(PACKAGE.glob("*.py"))
    defined = {name for path in program for _, name in definitions(path)}
    assert not gone & (defined | reads(program))


#: Where the builtin ``sum`` may be called, by module or module.function.
#: The integer sums: every count of ``combinatorics``, the excited-mode
#: masks and the entry count of ``density.analytic_layout``, the
#: reserved-mode counts of ``entanglement.block_row`` and
#: ``verify.check_combinatorics``. The float sums ``fock.norm`` and
#: ``rindler.annihilation_residuals`` reach only the ``verify`` report.
SUM_ALLOWED = {
    "combinatorics",
    "density.analytic_layout",
    "entanglement.block_row",
    "verify.check_combinatorics",
    "fock.norm",
    "rindler.annihilation_residuals",
}


def builtin_sum_calls(path):
    """(module.function, line) of every call of the builtin ``sum`` in the
    module at ``path``, by its enclosing module-level function."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        name = f"{module}.{node.name}" if isinstance(node, ast.FunctionDef) else module
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "sum"
            ):
                yield name, call.lineno


def test_builtin_sum_only_where_allowed():
    # sum() over floats is compensated from Python 3.12 on, so on a CSV path
    # it would move bytes with the interpreter; the CSV paths add in order
    calls = [
        (name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in builtin_sum_calls(path)
    ]
    assert calls, "the walk found no call at all"
    # a call is allowed by its function's entry or by its whole module's
    allowed = [name if name in SUM_ALLOWED else name.split(".")[0] for name, _ in calls]
    stray = [f"{name}:{line}" for (name, line), entry in zip(calls, allowed)
             if entry not in SUM_ALLOWED]
    assert not stray, f"builtin sum() outside the allowlist: {', '.join(stray)}"
    # every entry of the allowlist still holds a call
    assert set(allowed) == SUM_ALLOWED
