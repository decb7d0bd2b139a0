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


def test_genfun_is_the_module():
    # the package does not re-export the function genfun over its module
    import sys

    import qalcove
    from qalcove.genfun import genfun, table_json

    assert qalcove.genfun is sys.modules["qalcove.genfun"]
    assert qalcove.genfun.table_json is table_json and qalcove.genfun.genfun is genfun


def test_benchmark_names_resolve():
    # perfbench's tracer patches the SPAN_POINTS functions by name, its
    # set-up calls qbg.out_edges, and its checks read .terms and to_json of
    # G, Ghat and the character expansion
    import importlib
    import importlib.util

    from qalcove import qbg
    from qalcove.charident import FormalChar
    from qalcove.genfun import GenFun

    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for short, points in tracing.SPAN_POINTS.items():
        module = importlib.import_module(f"qalcove.{short}")
        for name in points:
            assert callable(getattr(module, name, None)), f"qalcove.{short}.{name}"
    assert callable(qbg.out_edges)
    for cls in (GenFun, FormalChar):
        assert callable(cls.to_json) and isinstance(cls.terms, property)


def test_no_module_imports_dataclasses():
    # the records are plain slotted classes (qalcove.records): running the
    # dataclass decorators and importing dataclasses with inspect took most
    # of a command's start-up
    modules = {path.stem: imported_modules(path) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, imports in modules.items() if "dataclasses" in imports] == []


def test_cli_cold_start_imports():
    # a fresh interpreter without site imports the CLI and none of the
    # modules only a golden check or a debug traceback needs, nor typing,
    # which annotations alone do not need; the golden check then loads its
    # modules and passes
    import json
    import subprocess
    import sys

    script = "\n".join((
        "import json, sys",
        f"sys.path.insert(0, {str(SRC.parent)!r})",
        "import qalcove.cli",
        "late = ('dataclasses', 'inspect', 'hashlib', 'importlib.resources', 'traceback', 'typing')",
        "loaded = [name for name in late if name in sys.modules]",
        "from qalcove import build_root_system, qbops",
        "print(json.dumps([loaded, qbops.check_golden(build_root_system('C2'))]))",
    ))
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, timeout=60, check=True
    )
    loaded, golden = json.loads(out.stdout)
    assert loaded == []
    assert golden and all(ok for _, ok in golden), golden
