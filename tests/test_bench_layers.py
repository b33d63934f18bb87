"""The benchmark's traced layers must name functions that exist.

`bench/spans.py` wraps each `LAYERS` entry by module and attribute name, so
renaming or deleting a traced function in `src/` would break a traced
benchmark run. This loads the spans module by path, without changing it, and
resolves every entry against the installed package.
"""

import importlib
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_layers() -> dict:
    """LAYERS from the spans module's source, run in a fresh namespace: nothing
    is written next to it and the module is not registered."""
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), namespace)
    return namespace["LAYERS"]


LAYERS = load_layers()


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_traced_layer_resolves(name):
    module_name, attr = LAYERS[name]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{name}: {module_name}.{attr} does not exist"
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module_name}.{attr} is not callable"
