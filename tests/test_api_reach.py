"""Every public name of the package and of the benchmark has a caller outside tests.

A module-level function or class counts as reached when its name appears as
an ``ast.Name``, an ``ast.Attribute`` or an import alias anywhere in
``src/finitebath`` or ``perfbench`` outside its own definition.  Code that
only tests can reach is deleted; the exceptions are closed-form oracles that
the acceptance suite compares the solvers against.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [*sorted((ROOT / "src" / "finitebath").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

ORACLES = (
    ("stationary_populations", "volume-product steady state of criterion 9 and the EMME tests"),
    ("relative_entropy_cg", "left side of the Gibbs identity of criterion 8"),
    ("gibbs_joint", "coarse-grained Gibbs state of the identity of criterion 8"),
)


def referenced_names(node: ast.AST) -> Counter:
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
    return names


def unreached_names() -> list[str]:
    """Public module-level definitions whose name nothing else references."""
    total: Counter = Counter()
    defs = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = referenced_names(stmt)
            total.update(own)
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not stmt.name.startswith("_"):
                defs.append((stmt.name, own[stmt.name]))
    return sorted(name for name, own in defs if total[name] == own)


def test_every_public_name_has_a_caller_outside_tests():
    oracles = {name for name, _ in ORACLES}
    unreached = unreached_names()
    assert [name for name in unreached if name not in oracles] == []
    # an oracle that gained a caller no longer needs its exception
    assert sorted(oracles) == [name for name in unreached if name in oracles]
