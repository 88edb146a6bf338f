"""One randomized sweep of the selftest registry, shared by the test modules.

Each module's ``test_randomized_oracles`` runs the ``selftest.CHECKS``
entries named after an operation that module defines (public, or private
with a leading underscore), with seed 42 and 10 cases.  Entries named after
no single operation (the file-format round trips and ``png_unfilter``) run
with io_formats.  So every entry runs exactly once, and a new check is swept
without a list to extend.
"""

import numpy as np
import pytest

from stereo_costvol import acv, fast_acv, io_formats, metrics, pipeline, selftest, volume_core

_MODULES = (volume_core, acv, fast_acv, pipeline, metrics, io_formats)


def _owner(name):
    for module in _MODULES:
        op = getattr(module, name, None) or getattr(module, "_" + name, None)
        if getattr(op, "__module__", None) == module.__name__:
            return module
    return io_formats


def randomized_oracles(module):
    """The parametrized test of module's share of selftest.CHECKS."""
    @pytest.mark.parametrize("check", [fn for name, fn in selftest.CHECKS
                                       if _owner(name) is module])
    def test_randomized_oracles(check):
        check(np.random.default_rng(42), 10)
    return test_randomized_oracles
