"""Every public name of the package has a reader, and every homogeo name
that the benchmark harness (perfbench/) and the tools (tools/) use exists.

Those scripts run outside the test suite, so a rename or a deleted
wrapper that they still call (say `expr.eval_exact`, which the
curvature oracle evaluates with) would pass every other test and fail
only when the scripts run.  The scripts are read with `ast`, not run.

A name in a module's `__all__` stays public only while something reads
it: code in the package, a perfbench/ or tools/ script, or a row of the
README "Library API" table, which names the paper statement or
acceptance criterion the name reproduces and the test that checks it.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")])
PACKAGE = ROOT / "src" / "homogeo"


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


def _references(module, tree):
    """(module, name) for each package name that `module`'s code reads: a
    bare name, its own or one it imported, and `alias.name` through an
    alias bound to a package module.  The package's modules import each
    other relatively (`from . import expr as ex`, `from .groups import SP`).
    The `__all__` assignment does not count, nor does a name read inside
    its own top-level definition (a recursive call)."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for a in node.names:
                if node.module:
                    imported[a.asname or a.name] = (node.module, a.name)
                else:
                    modules[a.asname or a.name] = a.name
    refs = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = {stmt.name}
        elif isinstance(stmt, ast.Assign):
            own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        else:
            own = set()
        if "__all__" in own:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = imported.get(node.id, (module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                ref = (modules[node.value.id], node.attr)
            else:
                continue
            if not (ref[0] == module and ref[1] in own):
                refs.add(ref)
    return refs


def unused_public_names(sources):
    """(module, name) for each name in a module's `__all__` that no module
    reads, given {module name: source text} of one package."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(_references(m, tree) for m, tree in trees.items()))
    public = [(module, name) for module, tree in trees.items() for stmt in tree.body
              if isinstance(stmt, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
              for name in ast.literal_eval(stmt.value)]
    return sorted(set(public) - read)


def _library_api_rows():
    """{(module, name): (statement, [test ids])} from the README "Library
    API" table: the first column lists `module.name` entries, the middle
    one the paper statement or criterion, the last the tests."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        if not line.startswith("|") or len(cells) < 3 or cells[0].startswith(("Name", "-")):
            continue
        tests = re.findall(r"`(tests/\w+\.py::\w+)`", cells[-1])
        for name in re.findall(r"`(\w+)\.(\w+)`", cells[0]):
            rows[name] = (cells[1], tests)
    return rows


def test_every_public_name_has_a_reader():
    scripts = {(module.removeprefix("homogeo."), name) for path in SCRIPTS
               for module, name in _homogeo_names(ast.parse(path.read_text(encoding="utf-8")))}
    documented = _library_api_rows()
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    unread = [f"{module}.{name}" for module, name in unused_public_names(sources)
              if (module, name) not in scripts and (module, name) not in documented]
    assert unread == []


def test_library_api_rows_name_public_names_and_existing_tests():
    rows = _library_api_rows()
    assert rows
    for (module, name), (statement, tests) in rows.items():
        assert name in importlib.import_module(f"homogeo.{module}").__all__, (module, name)
        # a name that reproduces nothing of the paper has no row to keep it
        assert statement and not re.match(r"none\b", statement, re.I), (module, name)
        assert tests, (module, name)
        for test in tests:
            path, func = test.split("::")
            defined = {node.name for node in ast.walk(ast.parse((ROOT / path).read_text()))
                       if isinstance(node, ast.FunctionDef)}
            assert func in defined, test


def test_the_guard_flags_a_name_nothing_reads():
    sources = {
        "a": "__all__ = ['used', 'table_entry', 'unused', 'recursive']\n"
             "def used(): pass\n"
             "def table_entry(): pass\n"
             "def unused(): pass\n"
             "def recursive(n): return recursive(n - 1)\n",
        "b": "from .a import used\n"
             "from . import a as aa\n"
             "TABLE = {'entry': aa.table_entry}\n"
             "def caller(obj): return used(), obj.unused, 'unused'\n",
    }
    assert unused_public_names(sources) == [("a", "recursive"), ("a", "unused")]
