import ast
import importlib
import inspect
import pkgutil

import pytest

import jetmorse

MODULES = ["jetmorse"] + [f"jetmorse.{m.name}"
                          for m in pkgutil.iter_modules(jetmorse.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


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
