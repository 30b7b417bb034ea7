"""The benchmark's tracer patches implisolve's classes and functions by name;
installing it fails when one of those names is renamed or deleted."""

import importlib
import importlib.util
import os
from types import SimpleNamespace

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)
# the modules perfbench/run.py's load_library passes to the tracer
MODULES = ("cli", "config", "dini", "expr", "inverse", "linalg", "scalar_implicit", "verify")


def test_tracer_installs_on_every_name_it_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lib = SimpleNamespace(**{m: importlib.import_module(f"implisolve.{m}") for m in MODULES})
    originals = (lib.expr.ExprFunction.eval, lib.dini.build_system, lib.cli.main)
    tracer = tracing.Tracer()
    try:
        tracer.install(lib)
        assert tracer.installed
    finally:
        tracer.uninstall()
    assert (lib.expr.ExprFunction.eval, lib.dini.build_system, lib.cli.main) == originals
