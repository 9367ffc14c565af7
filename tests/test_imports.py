"""Code left behind by a deletion does not linger in the package: every
name a module imports is used in that module, every local a function
assigns is read in it, every public function or method is referenced
somewhere else in src/ unless it is library API kept on purpose
(KEPT_API), and so is every private module-level function or class,
every public module-level class and every UPPER_CASE constant.  And
rationals are scaled to integers over one common denominator in one
place only: no code takes an lcm over `.denominator`s outside
`_linalg.common_denominator`.  And a module-level function cached by
`functools.cache` or `lru_cache` says what it returns and returns no list,
dict or set: the cached object is shared by every caller."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shintani_kit"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "TestFunction"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    src = "from typing import Iterable, Sequence\n\ndef f(x: Sequence):\n    return x\n"
    assert _unused_imports(src) == ["Iterable (line 1)"]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(func):
    """Nodes of a function's body, not descending into nested functions."""
    todo = [func]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, _FUNCTIONS)
        )


def _unused_locals(source: str) -> list[str]:
    """Names a function assigns and neither it nor its nested functions
    read; ``_`` and names declared global or nonlocal are exempt."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, _FUNCTIONS):
            continue
        stored = {}
        exempt = {"_"}
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                exempt.update(node.names)
        read = {
            node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        found.extend(
            f"{func.name}: {name} (line {line})" for name, line in stored.items()
            if name not in read and name not in exempt
        )
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert _unused_locals(path.read_text()) == []


def test_guard_sees_an_unused_local():
    src = (
        "def f(xs):\n"
        "    dead = len(xs)\n"
        "    total = 0\n"
        "    for _, x in xs:\n"
        "        total += x\n"
        "    def g():\n"
        "        inner = total\n"
        "        return 1\n"
        "    return g()\n"
    )
    assert _unused_locals(src) == ["f: dead (line 2)", "g: inner (line 7)"]


# public functions no other code in src/ calls, kept as library API
KEPT_API = {
    "haar": "total mass of a test function, the measure the criterion is about",
    "support_class_representatives": "one point per support coset, what haar sums over",
    "gl_act_test": "GL_n(Q) pullback of test functions, half of the equivariance",
    "gl_act_cone": "GL_n(Q) pushforward of cone functions, the other half",
    "field_padic_L": "the p-adic L-function of a real quadratic field, the end product",
    "rational_ideal": "the ideal nO, a constructor beside o_ideal",
    "principal_ideal": "the ideal uO of a field element, a constructor beside o_ideal",
    "full_level_set": "the level set Z_p^n, the m = 0 case of PLevelSet",
    "contains": "OpenCone membership of one point; ConeFunction.evaluate runs its integer form",
    "rational_kernel": "wrapped by perfbench/layers.TRACED, which tests/test_perfbench_names requires",
    "check_moment_identity": "the acceptance gate's moment identity; no selftest row runs it",
}


_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


class _References(ast.NodeVisitor):
    """Public function and method names defined, private module-level
    function and class names defined, public module-level classes and
    UPPER_CASE constants defined, and names read outside the function or
    class of the same name (recursion does not count)."""

    def __init__(self):
        self.defined: set[str] = set()
        self.private: set[str] = set()
        self.named: set[str] = set()
        self.used: set[str] = set()
        self.inside: list[str] = []

    def visit_Module(self, node):
        for item in node.body:
            if isinstance(item, (*_FUNCTIONS, ast.ClassDef)):
                if item.name.startswith("_") and not item.name.startswith("__"):
                    self.private.add(item.name)
                elif isinstance(item, ast.ClassDef):
                    self.named.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                self.named.update(
                    t.id for t in targets
                    if isinstance(t, ast.Name) and _CONSTANT.fullmatch(t.id)
                )
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    def visit_FunctionDef(self, node):
        if not node.name.startswith("_"):
            self.defined.add(node.name)
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _use(self, name):
        if name not in self.inside:
            self.used.add(name)

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _scan(sources) -> _References:
    refs = _References()
    for source in sources:
        refs.visit(ast.parse(source))
    return refs


def _unreferenced(refs: _References) -> list[str]:
    return sorted(name for name in refs.defined if name not in refs.used)


def _unreferenced_private(refs: _References) -> list[str]:
    return sorted(name for name in refs.private if name not in refs.used)


def _unreferenced_named(refs: _References) -> list[str]:
    return sorted(name for name in refs.named if name not in refs.used)


def test_public_functions_are_referenced():
    refs = _scan(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    assert sorted(set(_unreferenced(refs)) - set(KEPT_API)) == []
    # every allowlisted name must still be defined, or the list goes stale
    assert sorted(set(KEPT_API) - refs.defined) == []


def test_guard_sees_an_unreferenced_function():
    src = (
        "class A:\n    def used(self):\n        return 1\n\n"
        "    def stale(self):\n        return self.stale()\n\n"
        "def f(a):\n    return a.used()\n\ndef g():\n    return f(A())\n"
    )
    assert _unreferenced(_scan([src])) == ["g", "stale"]


def test_private_definitions_are_referenced():
    refs = _scan(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    assert _unreferenced_private(refs) == []


def test_guard_sees_an_unreferenced_private_definition():
    src = (
        "def _used():\n    return 1\n\n"
        "def _stale(n):\n    return _stale(n - 1) if n else _used()\n\n"
        "class _Table:\n    def _row(self):\n        return _Table()\n\n"
        "class A:\n    def _helper(self):\n        return 2\n\n"
        "def f():\n    return _used(), A()\n"
    )
    assert _unreferenced_private(_scan([src])) == ["_Table", "_stale"]


def test_classes_and_constants_are_referenced():
    refs = _scan(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    assert _unreferenced_named(refs) == []


def test_guard_sees_an_unreferenced_class_or_constant():
    src = (
        "LIMIT = 10\nSTALE_LIMIT = 20\n_ROWS: int = 3\nlowercase = 1\n\n"
        "class Used(Exception):\n    pass\n\n"
        "class Stale(Used):\n    def again(self):\n        return Stale()\n\n"
        "def f(n):\n    if n > LIMIT:\n        raise Used(n)\n    return n\n"
    )
    assert _unreferenced_named(_scan([src])) == ["STALE_LIMIT", "Stale", "_ROWS"]


def _denominator_lcms(source: str) -> list[str]:
    """Each call of lcm with a `.denominator` in its arguments, as
    "function (line n)"; code outside any function is "<module>"."""
    tree = ast.parse(source)
    scopes = [("<module>", tree)] + [
        (node.name, node) for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)
    ]
    found = []
    for name, scope in scopes:
        for node in _own_nodes(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) != "lcm":
                continue
            if any(
                isinstance(n, ast.Attribute) and n.attr == "denominator"
                for arg in node.args
                for n in ast.walk(arg)
            ):
                found.append(f"{name} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_denominators_are_collected_only_in_common_denominator(path):
    allowed = ["common_denominator"] if path.name == "_linalg.py" else []
    assert [hit.split(" ")[0] for hit in _denominator_lcms(path.read_text())] == allowed


def test_guard_sees_a_hand_rolled_common_denominator():
    src = (
        "import math\nfrom math import lcm\n\n"
        "def scale(xs):\n"
        "    q = math.lcm(*(x.denominator for x in xs))\n"
        "    return [x.numerator * (q // x.denominator) for x in xs]\n\n"
        "def period(ns):\n    return lcm(*ns)\n\n"
        "class A:\n    def both(self, a, b):\n        return lcm(a.denominator, b.denominator)\n\n"
        "D = lcm(*(f.denominator for f in ()))\n"
    )
    assert _denominator_lcms(src) == ["<module> (line 15)", "both (line 13)", "scale (line 5)"]


_CACHES = {"cache", "lru_cache"}
_MUTABLE = {"list", "dict", "set", "List", "Dict", "Set"}


def _cached_mutable_returns(source: str) -> list[str]:
    """Module-level functions under functools.cache or lru_cache whose
    return annotation is missing or names a mutable container anywhere in
    it, as "function (line n)"."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, _FUNCTIONS):
            continue
        targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(t, "id", getattr(t, "attr", None)) in _CACHES for t in targets):
            continue
        ann = node.returns
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann = ast.parse(ann.value, mode="eval")
        names = set() if ann is None else {
            getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(ann)
        }
        if ann is None or names & _MUTABLE:
            found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_cached_functions_return_no_mutable_container(path):
    assert _cached_mutable_returns(path.read_text()) == []


def test_guard_sees_a_cached_mutable_return():
    src = (
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@lru_cache(maxsize=8)\ndef rows(n) -> list[int]:\n    return [n]\n\n"
        "@functools.cache\ndef table(n) -> 'dict[int, int]':\n    return {n: n}\n\n"
        "@functools.lru_cache(maxsize=None)\ndef pair(n) -> tuple[int, set]:\n    return n, {n}\n\n"
        "@cache\ndef bare(n):\n    return n\n\n"
        "@cache\ndef fine(n) -> tuple[int, ...]:\n    return (n,)\n\n"
        "def uncached(n) -> list[int]:\n    return [n]\n\n"
        "class A:\n    @functools.cache\n    def method(self) -> list:\n        return []\n"
    )
    assert _cached_mutable_returns(src) == [
        "rows (line 5)", "table (line 9)", "pair (line 13)", "bare (line 17)",
    ]
