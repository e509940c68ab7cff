"""Every layer the benchmark traces still exists in the package.

`perfbench/tracing.py` names its traced functions and counted methods by
module and attribute; a refactor that renames or removes one loses that
layer from the benchmark without failing anything else. This reads the
tracer's tables (without installing it) and resolves each name, and runs
one seed-1 round of each workload under the tracer: a traced function
that a workload no longer reaches through its module attribute (a kernel
inlined or called under another name) is a layer lost there.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


_T = _load("tracing")
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


def _traced_round_misses(workload, tmp_path) -> list:
    """Expected layers of the workload that one traced seed-1 round never calls."""
    import revolutio.cli as cli

    cases = _load("workloads").build(workload, 1)
    tracer = _T.Tracer()
    tracer.install()
    try:
        for i, case in enumerate(cases):
            argv = list(case.argv)
            if "--out" in argv:
                argv[argv.index("--out") + 1] = str(tmp_path / f"{i}.obj")
            # argparse ends a malformed call with SystemExit, as the benchmark's runner allows
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                    contextlib.suppress(SystemExit):
                cli.main(argv)
    finally:
        tracer.uninstall()
    calls = tracer.layer_metrics()
    assert tracer.missing == []
    return [n for n in _T.EXPECTED_NONZERO[workload] if calls[n]["calls"] == 0]


def test_mesh_export_round_calls_every_expected_layer(tmp_path):
    assert _traced_round_misses("mesh-export", tmp_path) == []


@pytest.mark.parametrize("workload", ["verdict-mix", "elimination"])
def test_round_calls_every_expected_layer(workload, tmp_path):
    assert _traced_round_misses(workload, tmp_path) == []
