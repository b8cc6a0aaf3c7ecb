"""Zero-pattern analysis of nonnegative matrices.

The positivity digraph of a matrix M has an edge j -> i whenever M[i, j] > 0,
so population moves along directed walks.  Strong components come from an
iterative Tarjan pass; the imprimitivity index of a strongly connected
pattern is the gcd of its cycle lengths, computed from BFS levels: every
edge u -> v contributes gcd-term level(u) + 1 - level(v), and tree edges
contribute nothing.

User-supplied matrices are thresholded at exactly zero.  Computed matrices
(the next generation matrix) carry floating-point fuzz, so their pattern is
extracted with a small positive threshold instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ModelError
from .matrices import as_matrix

# Entries of a computed matrix below this are treated as structural zeros.
COMPUTED_PATTERN_TOL = 1e-12


@dataclass(frozen=True)
class StructureReport:
    """Strong-component decomposition of a matrix pattern.

    ``components`` partitions the (0-based) indices, ordered so that every
    edge of the condensation points from an earlier component to a later
    one.  ``imprimitivity_index`` is defined only for irreducible patterns;
    a primitive pattern is an irreducible one with index 1.
    """

    components: tuple[tuple[int, ...], ...]
    irreducible: bool
    imprimitivity_index: int | None
    primitive: bool


@dataclass(frozen=True)
class QPatternReport:
    """Block pattern of a next generation matrix Q = F (I - T)^-1.

    For an irreducible projection matrix the zero rows of Q are exactly the
    zero rows of F, the principal submatrix on the nonzero rows (Q11) is
    irreducible, and every column of the nonzero-row submatrix has a
    positive entry.  ``permutation`` lists the original indices with the
    nonzero rows first, exhibiting the [[Q11, Q12], [0, 0]] form.
    """

    permutation: tuple[int, ...]
    q11_indices: tuple[int, ...]
    zero_rows: tuple[int, ...]
    q_irreducible: bool


def _successors(pattern: np.ndarray) -> list[np.ndarray]:
    """Adjacency lists of the positivity digraph: succ[j] = rows i with entry (i, j) set."""
    return [np.flatnonzero(pattern[:, j]) for j in range(pattern.shape[1])]


def _strong_components(succ: list[np.ndarray], n: int) -> list[list[int]]:
    """Tarjan's algorithm, iteratively, components in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            v, child = work[-1]
            if child == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            targets = succ[v]
            while child < len(targets):
                w = int(targets[child])
                child += 1
                if index[w] == -1:
                    work[-1][1] = child
                    work.append([w, 0])
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def _levels(succ: list[np.ndarray], vertices: list[int]) -> dict[int, int]:
    """Breadth-first distance from vertices[0] of each vertex of a strongly connected set."""
    level = {v: -1 for v in vertices}
    start = vertices[0]
    level[start] = 0
    queue = [start]
    while queue:
        next_queue = []
        for u in queue:
            for w in succ[u]:
                w = int(w)
                if level[w] == -1:
                    level[w] = level[u] + 1
                    next_queue.append(w)
        queue = next_queue
    return level


def _period(succ: list[np.ndarray], level: dict[int, int]) -> int:
    """gcd of the cycle lengths through a strongly connected vertex set, from its levels."""
    g = 0
    for u in level:
        for w in succ[u]:
            g = math.gcd(g, level[u] + 1 - level[int(w)])
    return g


def _cyclic_classes(pattern: np.ndarray) -> tuple[int, np.ndarray]:
    """Imprimitivity index d and the cyclic class of every vertex of an irreducible pattern.

    A vertex's class is its level mod d, so every edge runs from class k
    to class k + 1 mod d.
    """
    succ = _successors(pattern)
    level = _levels(succ, list(range(pattern.shape[0])))
    period = _period(succ, level)
    return period, np.array([level[v] % period for v in range(pattern.shape[0])])


def _analyze_pattern(pattern: np.ndarray) -> StructureReport:
    n = pattern.shape[0]
    succ = _successors(pattern)
    components = _strong_components(succ, n)
    components.reverse()  # topological order: edges run earlier -> later
    ordered = tuple(tuple(sorted(c)) for c in components)

    # A 1x1 pattern is irreducible only if its single entry is set.
    irreducible = len(ordered) == 1 and (n > 1 or bool(pattern[0, 0]))
    period = _period(succ, _levels(succ, list(ordered[0]))) if irreducible else None
    return StructureReport(
        components=ordered,
        irreducible=irreducible,
        imprimitivity_index=period,
        primitive=irreducible and period == 1,
    )


def analyze_structure(m) -> StructureReport:
    """Strong components, irreducibility, imprimitivity index, and primitivity of a matrix pattern."""
    return _analyze_pattern(as_matrix(m) > 0)


def next_gen_pattern(fertility, next_gen) -> QPatternReport:
    """Block pattern of the next generation matrix of an irreducible model.

    Verifies the pattern laws relating Q to F (matching zero rows, an
    irreducible leading block, no zero column across the nonzero rows,
    and Q irreducible exactly when every row of F is nonzero).  Any
    violation signals upstream numerical corruption or a projection
    matrix that is not irreducible, and raises ConsistencyError.
    """
    f = as_matrix(fertility, name="fertility matrix")
    q = as_matrix(next_gen, name="next generation matrix")
    if f.shape != q.shape:
        raise ModelError(
            f"fertility and next generation matrices differ in order: {f.shape[0]} vs {q.shape[0]}"
        )

    q_pattern = q > COMPUTED_PATTERN_TOL
    f_pattern = f > 0
    q_zero_rows = np.flatnonzero(~q_pattern.any(axis=1))
    f_zero_rows = np.flatnonzero(~f_pattern.any(axis=1))
    if not np.array_equal(q_zero_rows, f_zero_rows):
        raise ConsistencyError(
            "zero rows of the next generation matrix do not match the zero rows "
            f"of the fertility matrix: {q_zero_rows.tolist()} vs {f_zero_rows.tolist()}"
        )

    nonzero = [i for i in range(q.shape[0]) if i not in set(q_zero_rows.tolist())]
    if not nonzero:
        raise ConsistencyError("next generation matrix is entirely zero")
    permutation = tuple(nonzero) + tuple(int(i) for i in q_zero_rows)

    block = _analyze_pattern(q_pattern[np.ix_(nonzero, nonzero)])
    if not block.irreducible:
        raise ConsistencyError(
            "leading block of the next generation matrix is not irreducible; "
            "the projection matrix is likely reducible"
        )
    if not q_pattern[nonzero, :].any(axis=0).all():
        raise ConsistencyError(
            "a column of the nonzero-row submatrix of the next generation matrix is zero"
        )

    q_irreducible = _analyze_pattern(q_pattern).irreducible
    if q_irreducible != bool(f_pattern.any(axis=1).all()):
        raise ConsistencyError(
            "irreducibility of the next generation matrix disagrees with the "
            "all-rows-nonzero test on the fertility matrix"
        )

    return QPatternReport(
        permutation=permutation,
        q11_indices=tuple(nonzero),
        zero_rows=tuple(int(i) for i in q_zero_rows),
        q_irreducible=q_irreducible,
    )
