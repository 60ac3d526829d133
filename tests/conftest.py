import os
from pathlib import Path

import pytest

import gch


@pytest.fixture
def gch_subprocess_env():
    """Environment for a child ``python -m gch.cli`` that runs the same
    ``gch`` source tree as this test session.

    The directory the session imported ``gch`` from goes first on
    ``PYTHONPATH`` as an absolute path, ahead of any existing entries, so the
    child imports that tree whatever its working directory and whether or not
    another copy of the package is installed.
    """
    root = str(Path(gch.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + existing if existing else root
    return env


@pytest.fixture
def caps(monkeypatch):
    """set_caps(max_order_N=None, max_inner=None, rel_tol=None): for the
    rest of the test, run the nested sums with each cap given in place of
    its fixed value, and return the ``NestedTruncation()`` record of the
    caps now in force.

    A new inner cap sets the engine's tuple of chain indices too, which
    holds one index per step up to the cap.
    """
    from gch import series

    def set_caps(max_order_N=None, max_inner=None, rel_tol=None):
        if max_order_N is not None:
            monkeypatch.setattr(series, "_MAX_ORDER", max_order_N)
        if max_inner is not None:
            monkeypatch.setattr(series, "_MAX_INNER", max_inner)
            monkeypatch.setattr(series, "_INDICES", tuple(map(float, range(max_inner))))
        if rel_tol is not None:
            monkeypatch.setattr(series, "_REL_TOL", rel_tol)
        return series.NestedTruncation()

    return set_caps
