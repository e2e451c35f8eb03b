"""The ``seamkit`` names the benchmark in ``perfbench/`` reaches must exist.

``perfbench/worker.py`` wraps every key of its ``TRACED`` table
(``"<module>.<function>"``) in a span, and ``perfbench/workloads.py`` calls
``seamkit`` directly.  A rename or removal in ``src`` would break the
benchmark only when it runs; these tests read both files with ``ast`` (the
worker sets thread-cap environment variables when imported) and resolve
every name they use.
"""

import ast
import importlib
import importlib.util
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _tree(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _traced_keys():
    for node in ast.walk(_tree("worker.py")):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [ast.literal_eval(k) for k in node.value.keys]
    raise AssertionError("perfbench/worker.py has no TRACED table")


def _workload_names():
    """Dotted name of each seamkit name workloads.py imports, and of each
    attribute it reads from an imported seamkit module."""
    tree = _tree("workloads.py")
    modules = {}  # local name -> imported seamkit module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "seamkit":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                if node.module == "seamkit":
                    modules[alias.asname or alias.name] = f"seamkit.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(names)


@pytest.mark.parametrize("key", _traced_keys())
def test_traced_name_is_a_seamkit_function(key):
    module, _, function = key.rpartition(".")
    assert callable(getattr(importlib.import_module(f"seamkit.{module}"), function, None)), key


@pytest.mark.parametrize("name", _workload_names())
def test_workload_name_resolves_in_seamkit(name):
    module, _, attr = name.rpartition(".")
    assert hasattr(importlib.import_module(module), attr) or importlib.util.find_spec(name), name


def _kwargs_read_by(function):
    """The string keys ``function`` in perfbench/worker.py reads from its
    ``kwargs`` argument."""
    for node in ast.walk(_tree("worker.py")):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {
                sub.slice.value
                for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "kwargs"
                and isinstance(sub.slice, ast.Constant)
            }
    raise AssertionError(f"perfbench/worker.py has no {function}")


def test_dpo_train_binds_dataset_and_config_by_keyword():
    # the traced pass reads dpo_train's dataset through _observe_dpo, which
    # takes it by keyword, and seamkit dpo passes dataset= and config=
    from seamkit import dpo

    signature = inspect.signature(dpo.dpo_train)
    assert _kwargs_read_by("_observe_dpo") == {"dataset"}
    bound = signature.bind("policy", dataset="pairs", config="config")
    assert bound.arguments == {"policy": "policy", "dataset": "pairs", "config": "config"}
