"""Every layer the benchmark traces still exists in the package.

`perfbench/tracing.py` names its traced functions and counted methods by
module and attribute; a refactor that renames or removes one loses that
layer from the benchmark without failing anything else. This reads the
tracer's tables (without installing it) and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_T = _tracing()
TRACED = [(m, f) for table in (_T.STAGES, _T.KERNELS) for m, fs in table.items() for f in fs]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"revolutio.{module}"), name, None))


@pytest.mark.parametrize("module, cls, attr, metric", _T.COUNTED, ids=[c[3] for c in _T.COUNTED])
def test_counted_attribute_resolves(module, cls, attr, metric):
    mod = importlib.import_module(f"revolutio.{module}")
    # the tracer reads a class's own attribute, not an inherited one
    fn = vars(getattr(mod, cls)).get(attr) if cls else getattr(mod, attr, None)
    assert callable(fn)
