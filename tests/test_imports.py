"""Every module in the package and its tests parses on the oldest Python
the project admits, every module-level import is read, every
module-level name of the package is read by the package or exported, and
every exported name is bound."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dualflow").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


# the oldest Python that pyproject.toml's requires-python admits
OLDEST = tuple(int(v) for v in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())


def test_oldest_grammar_refuses_a_newer_construct():
    except_star = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(except_star)
    with pytest.raises(SyntaxError):
        ast.parse(except_star, feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_parses_on_the_oldest_python(path):
    # the grammar alone: what the standard library accepts at run time,
    # such as a re pattern's syntax, is not checked
    ast.parse(path.read_text(), feature_version=OLDEST)


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that it never reads.

    A read is a loaded name anywhere in the module, or an entry of its
    __all__, which re-exports the name.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in bound if name not in read]


def test_scanner_finds_an_unused_import_and_honours_all():
    assert unused_imports("import math\nimport numpy as np\nnp.zeros(1)\n") == ["math"]
    assert unused_imports("from os import path, sep\n__all__ = ['path']\nsep\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def dead_names(sources: dict) -> list:
    """Module-level functions, classes and assignments that no module reads.

    sources maps module names to their source.  A read is a loaded name,
    an attribute name or a name imported by a relative import, in any of
    the modules; a name that an __all__ exports, or a dunder name, is
    never dead.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level > 0:
                read |= {a.name for a in node.names}
            elif (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{mod}.{name}" for name in names
                     if name not in read and not name.startswith("__")]
    return dead


def test_dead_name_scanner_finds_an_unread_name():
    sources = {"a": "from .b import used\n__all__ = ['api']\ndef api(): pass\n_k = 1\n",
               "b": "def used(): pass\ndef helper(): pass\nclass C: pass\nx = C()\nx.attr\n"
                    "def attr(): pass\n__version__ = '0'\n"}
    assert dead_names(sources) == ["a._k", "b.helper"]


def test_every_package_name_is_read_or_exported():
    assert dead_names({p.stem: p.read_text() for p in PACKAGE}) == []


def unbound_exports(source: str) -> list:
    """Entries of the module's __all__ that no top-level import, def,
    class or assignment of the module binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            bound |= set(names)
            if "__all__" in names:
                exported = [e.value for e in node.value.elts]
    return [name for name in exported if name not in bound]


def test_export_scanner_finds_a_stale_entry():
    assert unbound_exports("from os import path\n__all__ = ['path', 'sep']\n") == ["sep"]
    assert unbound_exports("def f(): pass\nx = 1\n__all__ = ['f', 'x']\n") == []


def test_every_export_is_bound():
    init = ROOT / "src" / "dualflow" / "__init__.py"
    assert unbound_exports(init.read_text()) == []



NORMAL_NAMES = {"d", "normal", "nvec"}


def normal_products(source: str) -> list:
    """The matrix products with a face normal in an operand, as written:
    a name d, normal or nvec, or an attribute .normal, alone, subscripted,
    negated or in arithmetic.  Such a product is a BLAS dot whose last bit
    may depend on the row count; surfaces._along sums it coordinate by
    coordinate instead."""
    def is_normal(node):
        if isinstance(node, ast.Subscript):
            return is_normal(node.value)
        if isinstance(node, ast.UnaryOp):
            return is_normal(node.operand)
        if isinstance(node, ast.BinOp) and not isinstance(node.op, ast.MatMult):
            return is_normal(node.left) or is_normal(node.right)
        return ((isinstance(node, ast.Name) and node.id in NORMAL_NAMES)
                or (isinstance(node, ast.Attribute) and node.attr == "normal"))

    return [ast.get_source_segment(source, node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and (is_normal(node.left) or is_normal(node.right))]


def test_normal_product_scanner_finds_each_operand():
    source = "a @ d\nb.normal @ c\nnormal @ x\nx @ nvec\nx @ y.basis\nd * x\n"
    assert normal_products(source) == ["a @ d", "b.normal @ c", "normal @ x", "x @ nvec"]
    # a normal under a subscript, a sign or arithmetic is still one
    source = "(normal[1:] / normal[0]) @ r\nx @ -d\n2.0 * s.normal @ x\nx[1:] @ y[0]\n"
    assert normal_products(source) == ["(normal[1:] / normal[0]) @ r", "x @ -d",
                                       "2.0 * s.normal @ x"]


# LogisticDrift.orthogonal_to multiplies the data rows by a candidate
# normal and compares the sum of their absolute values with 1e-8
ALLOWED_NORMAL_PRODUCTS = {"core.py": ["self.inputs @ normal"]}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_normal_products_go_through_along(path):
    assert normal_products(path.read_text()) == ALLOWED_NORMAL_PRODUCTS.get(path.name, [])


FAMILY_CLASSES = {"IntervalState", "WedgeState", "SlabState"}


def family_ladders(source: str) -> list:
    """The functions that hold two or more family tests, each with its count.

    A family test is an isinstance against a dual-state class or a tuple
    holding one, or a comparison of a .family attribute with a string
    literal.  A nested function's tests are its own, not its parent's.
    Reading a config's "family" key is not a family test.
    """
    def names(node):
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        return {e.id if isinstance(e, ast.Name) else getattr(e, "attr", None) for e in elts}

    def is_family_test(node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            return bool(names(node.args[1]) & FAMILY_CLASSES)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            return (any(isinstance(o, ast.Attribute) and o.attr == "family" for o in operands)
                    and any(isinstance(o, ast.Constant) and isinstance(o.value, str)
                            for o in operands))
        return False

    def own_nodes(func):
        todo = list(ast.iter_child_nodes(func))
        while todo:
            node = todo.pop()
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield node
                todo.extend(ast.iter_child_nodes(node))

    ladders = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count = sum(map(is_family_test, own_nodes(func)))
            if count >= 2:
                ladders.append((func.name, count))
    return ladders


def test_family_ladder_scanner_counts_each_kind_of_test():
    source = (
        "def ladder(s):\n"
        "    if isinstance(s, IntervalState):\n        return 1\n"
        "    if isinstance(s, (WedgeState, SlabState)):\n        return 2\n"
        "    return s.family == 'slab' or t.family != \"wedge\"\n"
        "def one(s):\n    return isinstance(s, duals.SlabState)\n"
        "def outer(s):\n"
        "    def inner(s):\n        return isinstance(s, SlabState)\n"
        "    return isinstance(s, WedgeState), inner\n"
        "def config(model, s):\n"
        "    return model['family'] == 'slab', s.family, isinstance(s, ConstantDrift)\n"
    )
    assert family_ladders(source) == [("ladder", 4)]
    # a class read as a module attribute counts, and so does the sum of two kinds
    assert family_ladders("def two(s):\n    x = isinstance(s, duals.SlabState)\n"
                          "    return x and s.family == 'wedge'\n") == [("two", 2)]


def test_no_function_dispatches_on_the_dual_family():
    # each family's pieces are methods of its state class
    ladders = {path.name: family_ladders(path.read_text()) for path in PACKAGE}
    assert {name: found for name, found in ladders.items() if found} == {}


def implicit_overrides(source: str) -> dict:
    """The module's DriftField subclasses that define solve_implicit, each
    mapped to whether it defines step_floats too.  A subclass derives
    from DriftField, or from such a subclass, by name within the module."""
    drifts, found = {"DriftField"}, {}
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id in drifts for b in node.bases)):
            continue
        drifts.add(node.name)
        methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        if "solve_implicit" in methods:
            found[node.name] = "step_floats" in methods
    return found


def test_implicit_override_scanner_follows_subclasses():
    source = (
        "class DriftField:\n    def solve_implicit(self): pass\n"
        "class A(DriftField):\n    def solve_implicit(self): pass\n"
        "class B(A):\n    def solve_implicit(self): pass\n    def step_floats(self): pass\n"
        "class C(DriftField):\n    def beta(self): pass\n"
        "class D:\n    def solve_implicit(self): pass\n"
    )
    assert implicit_overrides(source) == {"A": False, "B": True}


def test_every_closed_form_steps_on_floats():
    # a closed-form solve without its float step would leave the per-step
    # loops on one-row numpy solves
    found = implicit_overrides((ROOT / "src" / "dualflow" / "core.py").read_text())
    assert found and all(found.values()), found
