"""Every name the package and the benchmark define has a caller outside tests.

A module-level function or class, public or private, or a non-dunder method
or property of a class in ``src/finitebath``, counts as reached when its
name appears as an
``ast.Name``, an ``ast.Attribute`` or an import alias anywhere in
``src/finitebath`` or ``perfbench`` outside its own definition.  String
constants in ``perfbench`` count too, because the tracer names the methods
it wraps by string.  Code that only tests can reach is deleted; the
exceptions are closed-form oracles that the acceptance suite compares the
solvers against.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "finitebath").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

ORACLES = (
    ("stationary_populations", "volume-product steady state of criterion 9 and the EMME tests"),
    ("relative_entropy_cg", "left side of the Gibbs identity of criterion 8"),
    ("gibbs_joint", "coarse-grained Gibbs state of the identity of criterion 8"),
)


def referenced_names(node: ast.AST, strings: bool = False) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
            if sub.asname:
                names[sub.asname] += 1
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names


def is_checked_def(node: ast.AST) -> bool:
    is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    return is_def and not (node.name.startswith("__") and node.name.endswith("__"))


def unreached_names() -> list[str]:
    """Definitions whose name nothing else references; methods as Class.method."""
    total: Counter = Counter()
    defs = []  # (reported name, referenced name, references inside the definition)
    for path in PACKAGE + BENCHMARK:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = referenced_names(stmt, strings=path in BENCHMARK)
            total.update(own)
            if is_checked_def(stmt):
                defs.append((stmt.name, stmt.name, own[stmt.name]))
            if isinstance(stmt, ast.ClassDef) and path in PACKAGE:
                defs += [
                    (f"{stmt.name}.{m.name}", m.name, referenced_names(m)[m.name])
                    for m in stmt.body if is_checked_def(m)
                ]
    return sorted(label for label, name, own in defs if total[name] == own)


def test_every_public_name_has_a_caller_outside_tests():
    oracles = {name for name, _ in ORACLES}
    unreached = unreached_names()
    assert [name for name in unreached if name not in oracles] == []
    # an oracle that gained a caller no longer needs its exception
    assert sorted(oracles) == [name for name in unreached if name in oracles]
