"""Every homogeo name that the benchmark harness (perfbench/) and the
tools (tools/) use exists in the package.

Those scripts run outside the test suite, so a rename or a deleted
wrapper that they still call (say `expr.eval_exact`, which the
curvature oracle evaluates with) would pass every other test and fail
only when the scripts run.  The scripts are read with `ast`, not run.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")])


def _submodule(module: str, name: str):
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _homogeo_names(tree):
    """(module name, attribute) for each name taken by `from homogeo...
    import name` and each `alias.attribute` read through a name bound to a
    homogeo module (`import homogeo.cli as cli`, `from homogeo import expr
    as ex`)."""
    aliases, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "homogeo":
                    aliases[a.asname or "homogeo"] = a.name if a.asname else "homogeo"
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "homogeo"):
            for a in node.names:
                if _submodule(node.module, a.name) is not None:
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
                else:
                    used.append((node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.append((aliases[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_uses_only_existing_homogeo_names(path):
    used = _homogeo_names(ast.parse(path.read_text(encoding="utf-8")))
    missing = [f"{module}.{name}" for module, name in used
               if not hasattr(importlib.import_module(module), name)
               and _submodule(module, name) is None]
    assert missing == []


def test_the_scan_sees_the_oracle_calls():
    # the names the curvature oracle depends on are among those checked
    used = _homogeo_names(ast.parse((ROOT / "perfbench" / "oracle.py").read_text()))
    assert {("homogeo.expr", "eval_exact"), ("homogeo.linebundle", "LineBundleScenario"),
            ("homogeo.metric", "riemann")} <= set(used)
