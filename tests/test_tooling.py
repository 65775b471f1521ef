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
The same holds for each method, property and dataclass field of a public
class (`module.Class.member`): something must read an attribute of that
name, or a row must name it.  Dunders are left out, since an operator
cannot be matched to a name.
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


def _all(tree):
    """The names in a module's `__all__`."""
    return {name for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for name in ast.literal_eval(stmt.value)}


def unused_public_names(sources):
    """(module, name) for each name in a module's `__all__` that no module
    reads, given {module name: source text} of one package."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(_references(m, tree) for m, tree in trees.items()))
    public = {(module, name) for module, tree in trees.items() for name in _all(tree)}
    return sorted(public - read)


def _module_aliases(tree):
    """The names that `tree` binds to a module: every `import` and each
    `from ... import name` that names a submodule (`from . import expr as
    ex` in the package, `from homogeo import expr` in a script)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            aliases.update(a.asname or a.name for a in node.names
                           if node.module is None
                           or (not node.level and _submodule(node.module, a.name)))
    return aliases


def _attribute_reads(tree):
    """(attribute, owner) for each `value.attribute` read in `tree`, but
    not one through a module alias; owner is (class, method) when the read
    is inside the body of a method, else None."""
    aliases, reads = _module_aliases(tree), []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                    and not (isinstance(child.value, ast.Name) and child.value.id in aliases)):
                reads.append((child.attr, owner))
            inner = owner
            if isinstance(node, ast.ClassDef) and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (node.name, child.name)
            visit(child, inner)

    visit(tree, None)
    return reads


def unread_members(sources, scripts=()):
    """(module, "Class.member") for each method, property or dataclass
    field, not beginning with `_`, of a class in a module's `__all__` whose
    name no module of the package ({module name: source text}) and no
    script (source texts) reads as an attribute.  A read inside the
    member's own body does not count."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {(attr, (module, *owner) if owner else None)
             for module, tree in trees.items() for attr, owner in _attribute_reads(tree)}
    reads |= {(attr, None) for text in scripts for attr, _ in _attribute_reads(ast.parse(text))}
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in _all(tree)):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = stmt.name
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                own = (module, cls.name, name)
                if not name.startswith("_") and not any(
                        attr == name and owner != own for attr, owner in reads):
                    unread.append((module, f"{cls.name}.{name}"))
    return sorted(unread)


def _library_api_rows():
    """{(module, name): (statement, [test ids])} from the README "Library
    API" table: the first column lists `module.name` and
    `module.Class.member` entries, the middle one the paper statement or
    criterion, the last the tests."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        if not line.startswith("|") or len(cells) < 3 or cells[0].startswith(("Name", "-")):
            continue
        tests = re.findall(r"`(tests/\w+\.py::\w+)`", cells[-1])
        for name in re.findall(r"`(\w+)\.(\w+(?:\.\w+)?)`", cells[0]):
            rows[name] = (cells[1], tests)
    return rows


def test_every_public_name_has_a_reader():
    scripts = {(module.removeprefix("homogeo."), name) for path in SCRIPTS
               for module, name in _homogeo_names(ast.parse(path.read_text(encoding="utf-8")))}
    documented = _library_api_rows()
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    unread = [f"{module}.{name}" for module, name in unused_public_names(sources)
              if (module, name) not in scripts and (module, name) not in documented]
    unread += [f"{module}.{name}" for module, name in unread_members(
        sources, [path.read_text(encoding="utf-8") for path in SCRIPTS])
        if (module, name) not in documented]
    assert unread == []


def test_library_api_rows_name_public_names_and_existing_tests():
    rows = _library_api_rows()
    assert rows
    for (module, name), (statement, tests) in rows.items():
        public, _, member = name.partition(".")
        mod = importlib.import_module(f"homogeo.{module}")
        assert public in mod.__all__, (module, name)
        assert not member or hasattr(getattr(mod, public), member), (module, name)
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
        "a": "from dataclasses import dataclass\n"
             "__all__ = ['used', 'table_entry', 'unused', 'recursive', 'Box']\n"
             "def used(): pass\n"
             "def table_entry(): pass\n"
             "def unused(): pass\n"
             "def recursive(n): return recursive(n - 1)\n"
             "@dataclass\n"
             "class Box:\n"
             "    size: int\n"
             "    tag: str\n"
             "    def grow(self): return self.size + 1\n"
             "    def unread(self): pass\n"
             "    def __add__(self, other): pass\n"
             "    def spin(self, n): return self.spin(n - 1)\n"
             "    def table_entry(self): pass\n",
        "b": "from .a import used, Box\n"
             "from . import a as aa\n"
             "TABLE = {'entry': aa.table_entry}\n"
             "def caller(obj): return used(), obj.unused, 'unused', Box(1, 'x').grow()\n",
    }
    assert unused_public_names(sources) == [("a", "recursive"), ("a", "unused")]
    # grow is read through an instance and size inside grow; __add__ is a
    # dunder; spin is read only in its own body, table_entry only through
    # the module alias aa
    assert unread_members(sources) == [("a", "Box.spin"), ("a", "Box.table_entry"),
                                       ("a", "Box.tag"), ("a", "Box.unread")]
    assert unread_members(sources, ["def script(box): return box.spin, box.tag"]) == [
        ("a", "Box.table_entry"), ("a", "Box.unread")]


# -- every node comes from the canonicalizing constructors ---------------------

# the node factories of homogeo.expr below its constructors, and its intern
# table: a node made through them need not be canonical, and `simplify`
# returns a rational node unchanged on the grounds that it is
NODE_INTERNALS = {"_make_sum", "_make_prod", "_finish", "_INTERN"}


def node_internals(tree, classes):
    """(line, text) for each `__new__` called on a class named in `classes`
    (`Rat.__new__`, `ex.Rat.__new__`, `object.__new__(ex.Rat)`) and each
    name of NODE_INTERNALS read or imported in `tree`."""

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            if name(node.value) in classes:
                found.append((node.lineno, f"{name(node.value)}.__new__"))
        elif isinstance(node, ast.Call) and name(node.func) == "__new__":
            if node.args and name(node.args[0]) in classes:
                found.append((node.lineno, f"{name(node.args[0])}.__new__"))
        for text in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None) if isinstance(node, ast.alias) else None):
            if text in NODE_INTERNALS:
                found.append((node.lineno, text))
    return sorted(set(found))


def _expr_classes():
    from homogeo import expr as ex
    return {name for name, obj in vars(ex).items()
            if isinstance(obj, type) and issubclass(obj, ex.Expr)}


def test_nodes_are_made_only_by_the_constructors():
    # no module but expr.py makes a node itself or touches the intern table;
    # a test may read the table (the oracle that every interned rational
    # node is its own rebuild does)
    classes = _expr_classes()
    assert {"Expr", "Rat", "Var", "Sum", "Prod", "Pow", "Fun"} <= classes
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "expr.py"] + SCRIPTS
    found = {str(p.relative_to(ROOT)): node_internals(ast.parse(p.read_text(encoding="utf-8")),
                                                      classes) for p in paths}
    for p in (ROOT / "tests").glob("*.py"):
        hits = node_internals(ast.parse(p.read_text(encoding="utf-8")), classes)
        found[str(p.relative_to(ROOT))] = [h for h in hits if h[1] != "_INTERN"]
    assert {path: hits for path, hits in found.items() if hits} == {}


def test_the_guard_flags_a_node_made_by_hand():
    source = ("from .expr import _make_prod, Rat\n"
              "from . import expr as ex\n"
              "a = Rat.__new__(Rat)\n"
              "b = object.__new__(ex.Sum)\n"
              "ex._finish(a, ('R', 1, 1), 0, frozenset(), True)\n"
              "c = ex.Box.__new__(ex.Box)\n")
    assert node_internals(ast.parse(source), _expr_classes()) == [
        (1, "_make_prod"), (3, "Rat.__new__"), (4, "Sum.__new__"), (5, "_finish")]
