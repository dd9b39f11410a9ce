"""The library names the traced benchmark wraps and calls must exist.

`bench/traced.py` swaps layer functions for timing wrappers by module
attribute and replays some internals directly; a rename in the library
would otherwise only surface when the benchmark runs.
"""
import sys
from pathlib import Path

import pytest

from hslg_lab import multilayer, walk

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import traced  # noqa: E402  (importable only once bench/ is on the path)


def wrapped_targets():
    for name, (targets, _) in traced.LAYERS.items():
        for module, attr in targets:
            yield name, module, attr
    for name, targets in traced.GENERATORS.items():
        for module, attr in targets:
            yield name, module, attr


@pytest.mark.parametrize("name, module, attr", list(wrapped_targets()),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_wrapped_layers_resolve(name, module, attr):
    assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"


def test_replayed_internals_exist():
    assert callable(multilayer.staircase_site)
    assert callable(multilayer.quadrant_exact_table)
    assert callable(multilayer.exact_det)
    assert callable(walk._cdf_table.cache_clear)
