"""Per-layer tracing of matpop from outside the package.

The tracer replaces each traced public function with a timing wrapper in
every ``matpop`` module namespace that holds it, so calls between modules
(``model`` calling ``spectral.spectral_radius``, ``cli`` calling
``model.analyze``) pass through the wrapper too.  Spans nest: a span's
self time is its wall time minus the wall time of the spans it encloses.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# Layer (module of src/matpop) -> traced public functions.
TRACED = {
    "matrices": ("as_matrix", "as_population_vector"),
    "structure": ("analyze_structure", "next_gen_pattern"),
    "spectral": ("spectral_radius", "perron_pair", "resolvent_inverse"),
    "model": ("validate_model", "analyze", "stabilizing_scale", "target_growth_scale"),
    "leslie": ("assemble", "leslie_growth_rate"),
    "dynamics": ("iterate", "eventual_limit", "periodic_limits"),
    "cli": ("load_model_file", "cmd_analyze", "cmd_scale", "cmd_simulate"),
}

# Spans whose descendants are counted, for the redundancy ratios.
PARENTS = frozenset(
    {"model.analyze", "model.stabilizing_scale", "model.target_growth_scale",
     "cli.cmd_analyze", "cli.cmd_scale"}
)
KERNEL = "spectral.spectral_radius"


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def _matpop_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "matpop" or name.startswith("matpop."))]


class Tracer:
    """Aggregates calls, self time, nested call counts and kernel failures."""

    def __init__(self):
        import importlib

        from matpop.errors import ConvergenceError

        self._convergence_error = ConvergenceError
        self.originals = {}
        for layer, fns in TRACED.items():
            module = importlib.import_module(f"matpop.{layer}")
            for fn in fns:
                self.originals[f"{layer}.{fn}"] = getattr(module, fn)
        self.wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.nested = Counter()  # (parent, name) -> calls made inside a parent span
        self.kernel_failures = 0
        self._stack = []  # one [child seconds] cell per open span
        self._open_parents = []

    def _wrap(self, name, fn):
        is_parent = name in PARENTS
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            for parent in set(tracer._open_parents):
                tracer.nested[(parent, name)] += 1
            cell = [0.0]
            tracer._stack.append(cell)
            if is_parent:
                tracer._open_parents.append(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except tracer._convergence_error:
                if name == KERNEL:
                    tracer.kernel_failures += 1
                raise
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                if is_parent:
                    tracer._open_parents.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - cell[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed

        return wrapper

    def _swap(self, table_from, table_to) -> int:
        by_id = {id(fn): name for name, fn in table_from.items()}
        swapped = 0
        for module in _matpop_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                name = by_id.get(id(value))
                if name is not None and value is table_from[name]:
                    setattr(module, attr, table_to[name])
                    swapped += 1
        return swapped

    def install(self) -> int:
        """Wrap every reference; return how many namespace entries were replaced."""
        return self._swap(self.originals, self.wrappers)

    def uninstall(self) -> int:
        return self._swap(self.wrappers, self.originals)

    def unwrapped_references(self) -> list[str]:
        """Names of matpop namespace entries that still hold an original function."""
        originals = {id(fn) for fn in self.originals.values()}
        return [f"{module.__name__}.{attr}"
                for module in _matpop_modules()
                for attr, value in vars(module).items()
                if id(value) in originals]
