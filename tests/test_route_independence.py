"""hill_eval is the second route that checks hill_cone_function's
extraction, so it must not run the extraction's perturbation code.  The
guard follows, inside cones.py, every reference to a module-level
function, every attribute named like a method or property of a class there
(so ``t._sign`` reaches ``GLTuple._sign``), and the constructor hooks of
every class named, from hill_eval onward."""

import ast
from pathlib import Path

CONES = Path(__file__).resolve().parent.parent / "src" / "shintani_kit" / "cones.py"

EXTRACTION_ONLY = {
    "_functionals",
    "_eps_det",
    "_perturbed_columns",
    "leading_sign",
    "OpenCone.contains",
}


def _reached(source: str, start: str) -> set[str]:
    tree = ast.parse(source)
    defs: dict[str, ast.AST] = {}
    classes: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defs[f"{node.name}.{item.name}"] = item
                    classes.setdefault(node.name, []).append(item.name)
    by_attr: dict[str, list[str]] = {}
    for cls, names in classes.items():
        for name in names:
            by_attr.setdefault(name, []).append(f"{cls}.{name}")
    seen: set[str] = set()
    todo = [start]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
            elif isinstance(node, ast.Name) and node.id in classes:
                todo.extend(
                    f"{node.id}.{hook}" for hook in ("__init__", "__post_init__")
                    if hook in classes[node.id]
                )
            elif isinstance(node, ast.Attribute):
                todo.extend(by_attr.get(node.attr, []))
    return seen


def test_hill_eval_reaches_no_extraction_code():
    reached = _reached(CONES.read_text(), "hill_eval")
    assert "GLTuple._sign" in reached  # the per-tuple cache is followed
    assert reached & EXTRACTION_ONLY == set()


def test_guard_sees_the_extraction_code():
    reached = _reached(CONES.read_text(), "hill_cone_function")
    assert EXTRACTION_ONLY <= reached


def test_guard_follows_properties_and_constructors():
    src = (
        "class C:\n"
        "    def __post_init__(self):\n"
        "        h()\n"
        "    @property\n"
        "    def p(self):\n"
        "        return g()\n"
        "\n"
        "def g():\n"
        "    return 1\n"
        "\n"
        "def h():\n"
        "    return 2\n"
        "\n"
        "def f(c):\n"
        "    return c.p\n"
        "\n"
        "def k():\n"
        "    return C()\n"
    )
    assert _reached(src, "f") == {"f", "C.p", "g"}
    assert _reached(src, "k") == {"k", "C.__post_init__", "h"}
