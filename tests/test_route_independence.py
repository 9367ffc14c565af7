"""Four checks that their routes stay apart.

hill_eval is the second route that checks hill_cone_function's
extraction, so it must not run the extraction's perturbation code, and
the extraction's expansion must not run hill_eval's face rows.  The
p-adic moments are checked against the exact special values of
shintani_zeta and the Bernoulli closed forms, so the p-adic side must not
compute anything from them.  The guard follows, inside one module, every
reference to a module-level function, every attribute named like a method
or property of a class there (so ``t._sign`` reaches ``GLTuple._sign``),
and the constructor hooks of every class named, from the entry points
onward.  And the reference expansion in tests/helpers.py imports from
padic_measures only the data types and the shared set-up it checks the
fast path with, never the fast path's own steps, and from _linalg only
the rational routines, so that its span_coordinates stays a second route
to span_rows.  And the series route of shintani_zeta, the check of
Shintani's closed form, reaches none of the closed form's code and reads
no Bernoulli number or Raabe weight, while the closed form reaches none of
the series route's replica expansion.  And tests/oracles.py, whose values the acceptance gate
hands to the package's own checks, imports nothing from the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shintani_kit"
CONES = PACKAGE / "cones.py"
PADIC = PACKAGE / "padic_measures.py"
HELPERS = Path(__file__).resolve().parent / "helpers.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
SHINTANI = PACKAGE / "shintani_zeta.py"

# entry points of the p-adic side, and the exact side it must not use
PADIC_ENTRIES = (
    "moment", "polynomial_moment", "amice_expand", "evaluate_at_s", "kubota_leopoldt",
    "pushforward_norm",
)
EXACT_SIDE = {"bernoulli_number", "bernoulli_polynomial", "hurwitz_value"}

# the closed form's own code, which the series route must not reach: the
# Raabe weights fold each tile's replicas into its base points
CLOSED_FORM = {
    "_bernoulli_sums", "_closed_form_coefficient", "_closed_form_slices", "_compositions",
    "_raabe_weights", "bernoulli_number",
}

# the series route's own expansion of each base point into its replicas,
# which the closed form must not reach
SERIES_ONLY = {"_replicas", "_slice_series", "_series_slices"}

# what helpers.py may import from padic_measures
HELPERS_MAY_IMPORT = {"PadicScalar", "PseudoMeasure", "_complete_directions", "binomial_row"}

# what helpers.py may import from _linalg: types and rational routines
HELPERS_MAY_IMPORT_LINALG = {"Matrix", "Vector", "_rref", "identity", "inverse", "mat_vec", "vec"}

EXTRACTION_ONLY = {
    "_functionals",
    "_eps_det",
    "_perturbed_columns",
    "leading_sign",
    "OpenCone._contains_integers",
}

# the face rows of hill_eval: each tuple's row cache and the row builder
HILL_EVAL_ONLY = {"GLTuple._face_rows", "_face_row"}

# the extraction's expansion, which must reach none of HILL_EVAL_ONLY
EXPANSION = ("_functionals", "_eps_det", "_perturbed_columns", "leading_sign")


def _definitions(tree: ast.Module) -> tuple[dict[str, ast.AST], dict[str, list[str]]]:
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
    return defs, classes


def _reached(source: str, start: str) -> set[str]:
    defs, classes = _definitions(ast.parse(source))
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


def _face_rows_reached(source: str) -> set[str]:
    return set().union(*(_reached(source, start) for start in EXPANSION)) & HILL_EVAL_ONLY


def test_expansion_reaches_no_face_row_code():
    source = CONES.read_text()
    assert HILL_EVAL_ONLY <= _reached(source, "hill_eval")
    assert _face_rows_reached(source) == set()


def test_guard_sees_face_rows_reached_from_the_expansion():
    src = (
        "class GLTuple:\n"
        "    @property\n"
        "    def _face_rows(self):\n"
        "        return [_face_row()]\n"
        "\n"
        "def _face_row():\n"
        "    return ()\n"
        "\n"
        "def _functionals(t):\n"
        "    return _eps_det(t)\n"
        "\n"
        "def _eps_det(t):\n"
        "    return t._face_rows\n"
        "\n"
        "def _perturbed_columns(t):\n"
        "    return t\n"
        "\n"
        "def leading_sign(p):\n"
        "    return p\n"
    )
    assert _face_rows_reached(src) == HILL_EVAL_ONLY
    assert _reached(src, "leading_sign") & HILL_EVAL_ONLY == set()


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


def _exact_side_references(source: str, starts) -> set[str]:
    """Names from shintani_zeta, or the Bernoulli closed forms, that code
    reached from the entry points refers to."""
    tree = ast.parse(source)
    forbidden = set(EXACT_SIDE)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("shintani_zeta"):
            forbidden.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            forbidden.update(
                alias.asname or alias.name for alias in node.names
                if alias.name.endswith("shintani_zeta")
            )
    defs, _ = _definitions(tree)
    found = set()
    for start in starts:
        for name in _reached(source, start):
            for node in ast.walk(defs[name]):
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
    return found & forbidden


def test_padic_side_reaches_no_exact_side_code():
    source = PADIC.read_text()
    reached = set().union(*(_reached(source, start) for start in PADIC_ENTRIES))
    assert {
        "_stirling_rows", "binomial_row", "_unit_inverse_row", "_falling_sums", "teichmuller",
    } <= reached
    assert _exact_side_references(source, PADIC_ENTRIES) == set()


def test_guard_sees_exact_side_references():
    src = (
        "from .exact_core import TruncSeries, bernoulli_number\n"
        "from .shintani_zeta import special_value as sv\n"
        "from . import shintani_zeta\n"
        "\n"
        "class K:\n"
        "    def value(self):\n"
        "        return sv(1)\n"
        "\n"
        "def moment(k):\n"
        "    return k.value() + helper()\n"
        "\n"
        "def helper():\n"
        "    return shintani_zeta.build_G\n"
        "\n"
        "def clean():\n"
        "    return TruncSeries((1,))\n"
        "\n"
        "def bernoulli():\n"
        "    return bernoulli_number(2)\n"
    )
    assert _exact_side_references(src, ["moment"]) == {"sv", "shintani_zeta"}
    assert _exact_side_references(src, ["bernoulli"]) == {"bernoulli_number"}
    assert _exact_side_references(src, ["clean"]) == set()


def _imports(source: str, module: str) -> set[str]:
    """Names imported from the package module; importing the module itself
    reaches all of it and counts as its own name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith(module):
                names.update(alias.name for alias in node.names)
            else:
                names.update(alias.name for alias in node.names if alias.name == module)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names if alias.name.endswith(module))
    return names


def test_reference_imports_no_fast_path_code():
    assert _imports(HELPERS.read_text(), "padic_measures") <= HELPERS_MAY_IMPORT


def test_guard_sees_fast_path_imports():
    src = (
        "from shintani_kit.padic_measures import PseudoMeasure, _pieces\n"
        "from shintani_kit import padic_measures\n"
        "import shintani_kit.padic_measures as pm\n"
        "from shintani_kit.cones import OpenCone\n"
        "\n"
        "def f():\n"
        "    from shintani_kit.padic_measures import _falling_sums\n"
    )
    assert _imports(src, "padic_measures") - HELPERS_MAY_IMPORT == {
        "_pieces", "padic_measures", "shintani_kit.padic_measures", "_falling_sums",
    }


def test_reference_imports_only_rational_linalg():
    assert _imports(HELPERS.read_text(), "_linalg") <= HELPERS_MAY_IMPORT_LINALG


def test_guard_sees_integer_linalg_imports():
    src = (
        "from shintani_kit._linalg import _rref, span_rows, vec\n"
        "from shintani_kit import _linalg\n"
        "import shintani_kit._linalg as la\n"
        "from shintani_kit.test_functions import parallelepiped_support\n"
        "\n"
        "def f():\n"
        "    from shintani_kit._linalg import hnf_with_transform\n"
    )
    assert _imports(src, "_linalg") - HELPERS_MAY_IMPORT_LINALG == {
        "span_rows", "_linalg", "shintani_kit._linalg", "hnf_with_transform",
    }


def _reached_names(source: str, start: str) -> set[str]:
    """The definitions reached from start, and every name and attribute
    that the reached code refers to (imported names included)."""
    defs, _ = _definitions(ast.parse(source))
    reached = _reached(source, start)
    names = set(reached)
    for name in reached:
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_series_route_reaches_no_closed_form_code():
    names = _reached_names(SHINTANI.read_text(), "_special_value_series")
    assert SERIES_ONLY | {"_cone_value", "build_G"} <= names
    assert names & CLOSED_FORM == set()


def test_closed_form_reaches_no_replica_expansion():
    # the two routes share the enumeration of base points, and each brings
    # the replicas in its own way: Raabe's weights or one point at a time
    names = _reached_names(SHINTANI.read_text(), "special_value")
    assert CLOSED_FORM | {"_cone_value", "build_G"} <= names
    assert names & SERIES_ONLY == set()


def test_guard_sees_closed_form_code():
    src = (
        "from .exact_core import bernoulli_number\n"
        "\n"
        "def _compositions(x):\n"
        "    return [x]\n"
        "\n"
        "def _slices(x):\n"
        "    return _compositions(x)\n"
        "\n"
        "def _series(x):\n"
        "    return _slices(x)\n"
        "\n"
        "def _reads_b(k):\n"
        "    return bernoulli_number(k)\n"
        "\n"
        "def _clean(k):\n"
        "    return k\n"
    )
    assert _reached_names(src, "_series") & CLOSED_FORM == {"_compositions"}
    assert _reached_names(src, "_reads_b") & CLOSED_FORM == {"bernoulli_number"}
    assert _reached_names(src, "_clean") & CLOSED_FORM == set()


def _package_imports(source: str) -> set[str]:
    """The modules of shintani_kit that source imports, at any depth."""
    nodes = list(ast.walk(ast.parse(source)))
    found = {node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)}
    found |= {a.name for node in nodes if isinstance(node, ast.Import) for a in node.names}
    return {name for name in found if name.split(".")[0] == "shintani_kit"}


def test_oracles_import_nothing_from_the_package():
    # the acceptance gate hands these oracles to the package's own checks
    assert _package_imports(ORACLES.read_text()) == set()


def test_guard_sees_package_imports():
    src = (
        "import math, shintani_kit\n"
        "from fractions import Fraction\n"
        "\n"
        "def f():\n"
        "    from shintani_kit.cones import OpenCone\n"
    )
    assert _package_imports(src) == {"shintani_kit", "shintani_kit.cones"}
