"""The benchmark's tracer binds zipcone functions by name.  Every boundary it
lists must still resolve, so that deleting or renaming a traced function
fails here rather than in a traced benchmark run."""
import importlib.util
from pathlib import Path

import zipcone.cli  # noqa: F401  (the tracer rebinds names in loaded zipcone modules)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, without installing anything."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracing = load_tracing()
    bindings = tracing.Tracer()._bind()
    originals = {id(original) for _, _, original, _ in bindings}
    assert len(originals) == len(tracing.BOUNDARIES)
    assert set(tracing.AFTER) | set(tracing.BEFORE) <= set(tracing.BOUNDARIES)
