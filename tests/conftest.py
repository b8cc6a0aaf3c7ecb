import os
import sys
import types
from collections import defaultdict
from pathlib import Path

# The matpop under test is the one PYTHONPATH names, if any; otherwise this
# checkout's src, ahead of an installed copy.  So src goes right after the
# PYTHONPATH entries.
_explicit = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
_after = max((i for i, p in enumerate(sys.path) if os.path.abspath(p) in _explicit), default=-1)
sys.path.insert(_after + 1, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from helpers import plant_model  # noqa: E402
from matpop import model, spectral, structure  # noqa: E402


@pytest.fixture
def plant():
    return plant_model()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record the first argument of every Tarjan pass and every Perron-block iteration.

    Keys are "_analyze_pattern" (one strong-component analysis of a
    pattern) and "_power_root" (one certified Perron root of a block).
    """
    calls = defaultdict(list)
    # spectral and model call _analyze_pattern through their own imported names.
    patched = (
        (structure, "_analyze_pattern"),
        (spectral, "_analyze_pattern"),
        (model, "_analyze_pattern"),
        (spectral, "_power_root"),
    )
    for module, name in patched:
        original = getattr(module, name)

        def counted(first, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(first)
            return _original(first, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def power_passes(monkeypatch):
    """Record (start, iterations) of every power-iteration pass, uncertified and resumed ones included.

    start is None for a cold pass from the uniform vector.  A pass resumed
    at a tighter tolerance is recorded again, with its whole count.
    """
    passes = []
    original = spectral._power_pass

    def recorded(block, tol, max_iterations, start=None, state=None):
        result = original(block, tol, max_iterations, start, state)
        passes.append((start, result[4]))
        return result

    monkeypatch.setattr(spectral, "_power_pass", recorded)
    return passes


@pytest.fixture
def computed_iterations(monkeypatch):
    """Count the power-iteration steps the kernel computes, those past a certifying one included.

    Every step is one np.dot in spectral, so spectral's numpy is replaced
    by a view of numpy whose dot counts its calls.  The count is entry 0
    of the returned list.
    """
    count = [0]
    counting = types.ModuleType("numpy")
    counting.__getattr__ = lambda name: getattr(np, name)

    def dot(*args, **kwargs):
        count[0] += 1
        return np.dot(*args, **kwargs)

    counting.dot = dot
    monkeypatch.setattr(spectral, "np", counting)
    return count
