"""Every name the traced benchmark wraps must still exist in the package.

perfbench/layers.py patches module attributes and, for methods, entries of
the class __dict__; a refactor that renames or removes one of them would
break ``perfbench/run.py --trace 1``.  This test only reads perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_layers", Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize("qualname", sorted(layers.TRACED))
def test_traced_name_resolves(qualname):
    mod_name, _, attr = qualname.partition(".")
    module = importlib.import_module(f"{layers.PACKAGE}.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
