"""Guard for the traced benchmark: every call site it wraps must still exist.

``perfbench/bench_layers.CALL_SITES`` looks functions up by attribute on the
module that calls them (for example the reference ops on
``stereo_costvol.pipeline``).  Removing such an import breaks
``perfbench/run.py --trace 1`` without failing any other test.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import bench_layers  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in bench_layers.CALL_SITES],
                         ids=[f"{m.__name__}.{a}" for m, a, _ in bench_layers.CALL_SITES])
def test_traced_call_site_resolves_to_callable(module, attr):
    assert callable(getattr(module, attr, None))
