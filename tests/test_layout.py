"""Guards on the package's module layout, read from the source with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qalcove"


def imported_modules(path):
    """Top-level names of the modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_one_point_model_and_one_lock():
    # alcove points are integer vectors scaled by a common denominator, so no
    # module needs fractions; lazy per-system tables take no lock, so only
    # rootsys (the cache of named root systems) imports threading
    modules = {path.stem: imported_modules(path) for path in sorted(SRC.glob("*.py"))}
    assert "alcove" in modules and "rootsys" in modules
    assert [name for name, imports in modules.items() if "fractions" in imports] == []
    locking = [name for name, imports in modules.items() if "threading" in imports]
    assert set(locking) <= {"rootsys"}
