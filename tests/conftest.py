from collections import defaultdict

import pytest

from helpers import plant_model
from matpop import spectral, structure


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
    # spectral calls _analyze_pattern through its own imported name.
    patched = (
        (structure, "_analyze_pattern"),
        (spectral, "_analyze_pattern"),
        (spectral, "_power_root"),
    )
    for module, name in patched:
        original = getattr(module, name)

        def counted(first, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(first)
            return _original(first, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls
