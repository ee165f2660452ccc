import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

import numpy as np
import pytest

import jetmorse

MODULES = ["jetmorse"] + [f"jetmorse.{m.name}"
                          for m in pkgutil.iter_modules(jetmorse.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_cli_imports_numpy_and_stdlib_alone():
    # every command and bench workload imports jetmorse.cli; mpmath used to
    # come with it for two floats of epsilon_ratio, at 3.9 MB of resident memory
    code = ("import sys; before = set(sys.modules); import jetmorse.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names)), 'mpmath' in sys.modules)")
    src = str(pathlib.Path(jetmorse.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "['jetmorse', 'numpy'] False\n"


# imported only so that bench/tracing.py can wrap them by name
_WRAP_TARGETS = {"jetmorse.morse_mc": {"g_k_batch", "sample_sphere_batch"}}


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", ()))
    unused = imported - used - _WRAP_TARGETS.get(name, set())
    assert unused == set()


def test_bench_trace_targets_exist(monkeypatch):
    # bench/tracing.py wraps jetmorse names by attribute; a renamed or deleted
    # target raises AttributeError here, not only in a traced bench run
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    jm = types.SimpleNamespace(
        **{m: importlib.import_module("jetmorse." + m) for m in run.MODULES})
    # install patches np.linalg.eigvalsh early; monkeypatch restores it even
    # when a later name is missing and install raises before returning
    monkeypatch.setattr(np.linalg, "eigvalsh", np.linalg.eigvalsh)
    real = jm.hermitian.det_diff_bound_holds
    patches = tracing.install(tracing.Tracer(), jm)
    try:
        assert jm.hermitian.det_diff_bound_holds.__wrapped__ is real
    finally:
        patches.undo()
    assert jm.hermitian.det_diff_bound_holds is real


def _module_private_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    # loads, attributes, imported names and strings (monkeypatch and
    # bench/tracing.py name their targets as strings)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_no_unreferenced_private_names():
    # a module-level private name that nothing in src/, tests/ or bench/
    # uses is dead code left behind by a refactor
    root = pathlib.Path(__file__).resolve().parent.parent
    refs = set()
    for pattern in ("src/**/*.py", "tests/*.py", "bench/*.py"):
        for path in root.glob(pattern):
            refs |= _references(ast.parse(path.read_text(encoding="utf-8")))
    unused = {f"{path.stem}.{name}" for path in root.glob("src/jetmorse/*.py")
              for name in _module_private_names(ast.parse(path.read_text(encoding="utf-8")))
              if name not in refs}
    assert unused == set()
