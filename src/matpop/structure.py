"""Zero-pattern analysis of nonnegative matrices.

The positivity digraph of a matrix M has an edge j -> i whenever M[i, j] > 0,
so population moves along directed walks.  Strong components come from an
iterative Tarjan pass, which also records each vertex's depth in its DFS
tree.  For a strongly connected pattern those depths give its
imprimitivity index d, the gcd of its cycle lengths, and its cyclic
classes: every edge u -> v contributes gcd-term depth(u) + 1 - depth(v),
and a vertex's class is its depth mod d.  Any spanning tree from vertex 0
gives the same d and classes, since every walk from 0 to v has the same
length mod d.  No other module walks a pattern's edges.

Every pattern, of a given or a computed matrix, is read at exactly zero.
The next generation matrix Q = F (I - T)^-1 needs no threshold either:
the model solves it so that every entry that no walk joins is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ModelError
from .matrices import as_matrix


@dataclass(frozen=True)
class StructureReport:
    """Strong-component decomposition of a matrix pattern.

    ``components`` partitions the (0-based) indices, ordered so that every
    edge of the condensation points from an earlier component to a later
    one.  ``imprimitivity_index`` is defined only for irreducible patterns;
    a primitive pattern is an irreducible one with index 1.
    ``cyclic_classes`` (None when reducible) puts index 0 in class 0 and
    every edge from class k to class k + 1 mod d.
    """

    components: tuple[tuple[int, ...], ...]
    irreducible: bool
    imprimitivity_index: int | None
    primitive: bool
    cyclic_classes: tuple[int, ...] | None


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


def _analyze_pattern(pattern: np.ndarray) -> StructureReport:
    """Tarjan's pass, iteratively, over the pattern's digraph; then an irreducible pattern's index and classes.

    A DFS frame is a vertex with the iterator over its successors: a vertex
    is numbered, and given its depth, when it is pushed, and finished when
    its iterator runs out.  A finished component's vertices take index n,
    above every low link, so only an edge to a vertex still on the stack
    lowers one.
    """
    n = pattern.shape[0]
    # Edge sources[e] -> targets[e] for each entry (i, j) set, grouped by source j, i ascending.
    sources, targets = np.nonzero(pattern.T)
    ends = np.cumsum(np.count_nonzero(pattern, axis=0)).tolist()
    flat = targets.tolist()
    succ = [flat[start:end] for start, end in zip([0] + ends, ends)]
    index = [-1] * n
    depth = [0] * n
    low = [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    depth[w] = len(work)
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        index[w] = n
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    components.reverse()  # topological order: edges run earlier -> later
    ordered = tuple(tuple(sorted(c)) for c in components)

    # A 1x1 pattern is irreducible only if its single entry is set.
    irreducible = len(ordered) == 1 and (n > 1 or bool(pattern[0, 0]))
    period = classes = None
    if irreducible:
        depths = np.array(depth)
        period = int(np.gcd.reduce(depths[sources] + 1 - depths[targets]))
        classes = tuple((depths % period).tolist())
    return StructureReport(
        components=ordered,
        irreducible=irreducible,
        imprimitivity_index=period,
        primitive=irreducible and period == 1,
        cyclic_classes=classes,
    )


def analyze_structure(m) -> StructureReport:
    """Strong components, irreducibility, imprimitivity index, and primitivity of a matrix pattern."""
    return _analyze_pattern(as_matrix(m) > 0)


def next_gen_pattern(fertility, next_gen) -> QPatternReport:
    """Block pattern of the next generation matrix of an irreducible model.

    Verifies the pattern laws relating Q to F (matching zero rows, an
    irreducible leading block, no zero column across the nonzero rows).
    Any violation signals upstream numerical corruption or a projection
    matrix that is not irreducible, and raises ConsistencyError.  Q is
    then irreducible exactly when every row of F is nonzero: a zero row
    of Q is a class with no incoming edge, and with no zero row Q is its
    own leading block.
    """
    f = as_matrix(fertility, name="fertility matrix")
    q = as_matrix(next_gen, name="next generation matrix")
    if f.shape != q.shape:
        raise ModelError(
            f"fertility and next generation matrices differ in order: {f.shape[0]} vs {q.shape[0]}"
        )
    return _next_gen_pattern(f, q)


def _next_gen_pattern(f: np.ndarray, q: np.ndarray, block: StructureReport | None = None) -> QPatternReport:
    """next_gen_pattern of validated F and Q of one order, with finite entries, and Q11's report if known."""
    q_pattern = q > 0
    q_zero_rows = np.flatnonzero(~q_pattern.any(axis=1))
    f_zero_rows = np.flatnonzero(~(f > 0).any(axis=1))
    if not np.array_equal(q_zero_rows, f_zero_rows):
        raise ConsistencyError(
            "zero rows of the next generation matrix do not match the zero rows "
            f"of the fertility matrix: {q_zero_rows.tolist()} vs {f_zero_rows.tolist()}"
        )

    nonzero = np.flatnonzero(q_pattern.any(axis=1)).tolist()
    if not nonzero:
        raise ConsistencyError("next generation matrix is entirely zero")
    zero_rows = tuple(int(i) for i in q_zero_rows)

    # A report of Q11 on F's nonzero rows holds here, where Q's nonzero rows are F's.
    block = block or _analyze_pattern(q_pattern[np.ix_(nonzero, nonzero)])
    if not block.irreducible:
        raise ConsistencyError(
            "leading block of the next generation matrix is not irreducible; "
            "the projection matrix is likely reducible"
        )
    if not q_pattern[nonzero, :].any(axis=0).all():
        raise ConsistencyError(
            "a column of the nonzero-row submatrix of the next generation matrix is zero"
        )

    return QPatternReport(
        permutation=tuple(nonzero) + zero_rows,
        q11_indices=tuple(nonzero),
        zero_rows=zero_rows,
        q_irreducible=not zero_rows,
    )
