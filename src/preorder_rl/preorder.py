"""Priority structure over reward objectives.

Objectives are integer indices ``0..n_objectives-1``.  Priorities form a
directed acyclic graph of strict-precedence edges ``(higher, lower)``:
an edge means the first objective strictly outranks the second.  Two
objectives with no directed path between them are mutually incomparable,
which is what makes the structure a preorder rather than a total order.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import ConfigError, CycleError, _integer

# The most objectives a preorder, a learner or an env takes.  The graph's
# topological sort is cubic in the count; the crossing grid uses 5.
MAX_OBJECTIVES = 64


def _objective_count(value) -> int:
    """``value`` as an objective count in 1..MAX_OBJECTIVES; anything
    else raises, naming ``n_objectives``."""
    n = _integer(value, "n_objectives")
    if n < 1:
        raise ConfigError(f"n_objectives must be >= 1, got {n}")
    if n > MAX_OBJECTIVES:
        raise ConfigError(f"n_objectives must be <= {MAX_OBJECTIVES}, got {n}")
    return n


def _edges(edges) -> frozenset[tuple[int, int]]:
    if isinstance(edges, str) or not isinstance(edges, Iterable):
        raise ConfigError(f"edges must be a sequence, got {edges!r}")
    pairs = set()
    for i, edge in enumerate(edges):
        name = f"edges[{i}]"
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ConfigError(f"{name} must be one (higher, lower) pair, got {edge!r}")
        pairs.add((_integer(edge[0], f"{name}[0]"), _integer(edge[1], f"{name}[1]")))
    return frozenset(pairs)


class PreorderGraph:
    """Validated precedence DAG with cached traversal structure.

    Instances are immutable after construction.  The constructor turns
    the edges into one read-only boolean adjacency matrix and derives
    everything else from it: the deterministic topological order (the
    lowest-index objective with no unplaced parent goes next), the
    leaves, and these read-only forms of that structure, shared by
    strict-precedence queries, :mod:`~preorder_rl.relations` and the
    survivor filter:

    * ``ancestors[j, i]`` is True when i strictly precedes j (the
      transposed transitive closure);
    * ``ancestors_or_self`` adds the diagonal;
    * ``walk`` pairs each objective, in topological order, with its
      direct parents in ascending order.

    Raises:
        ConfigError: a field of the wrong form, named: ``n_objectives``
            (an integer in 1..``MAX_OBJECTIVES``) or ``edges[i]`` (one
            (higher, lower) pair of integers).
        IndexError: an edge endpoint is outside ``0..n_objectives-1``.
        CycleError: the edges contain a self-loop or a directed cycle.
    """

    __slots__ = ("n_objectives", "edges", "_adjacency", "_leaves", "_order",
                 "ancestors", "ancestors_or_self", "walk")

    def __init__(self, n_objectives: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        n = _objective_count(n_objectives)
        edge_set = _edges(edges)
        adjacency = np.zeros((n, n), dtype=bool)
        for high, low in edge_set:
            if not (0 <= high < n) or not (0 <= low < n):
                raise IndexError(f"edge ({high}, {low}) references an objective outside 0..{n - 1}")
            if high == low:
                raise CycleError(f"self-loop on objective {high}")
            adjacency[high, low] = True

        order: list[int] = []
        left = np.ones(n, dtype=bool)
        for _ in range(n):
            # Ready: not yet placed, and no parent left to place.
            ready = np.flatnonzero(left & ~adjacency[left].any(axis=0))
            if not ready.size:
                stuck = np.flatnonzero(left).tolist()
                raise CycleError(f"precedence edges contain a cycle through objectives {stuck}")
            order.append(int(ready[0]))
            left[ready[0]] = False
        # In reverse topological order every child's reach row is final
        # before its parents OR it in.
        reach = adjacency.copy()
        for node in reversed(order):
            reach[node] |= reach[adjacency[node]].any(axis=0)

        self.n_objectives = n
        self.edges = edge_set
        self._adjacency = adjacency
        self._leaves = frozenset(np.flatnonzero(~adjacency.any(axis=1)).tolist())
        self._order = tuple(order)
        self.ancestors = np.ascontiguousarray(reach.T)
        self.ancestors_or_self = self.ancestors | np.eye(n, dtype=bool)
        for structure in (adjacency, self.ancestors, self.ancestors_or_self):
            structure.setflags(write=False)
        self.walk = tuple((obj, tuple(np.flatnonzero(adjacency[:, obj]).tolist())) for obj in order)

    def topological_sort(self) -> tuple[int, ...]:
        """All objectives, every parent before each of its children."""
        return self._order

    def parents(self, objective: int) -> frozenset[int]:
        """Direct higher-priority neighbours of ``objective``."""
        return frozenset(np.flatnonzero(self._adjacency[:, self._check(objective)]).tolist())

    def children(self, objective: int) -> frozenset[int]:
        """Direct lower-priority neighbours of ``objective``."""
        return frozenset(np.flatnonzero(self._adjacency[self._check(objective)]).tolist())

    def leaves(self) -> frozenset[int]:
        """Objectives with no lower-priority successors."""
        return self._leaves

    def strictly_precedes(self, higher: int, lower: int) -> bool:
        """True when a directed path of length >= 1 runs ``higher`` -> ``lower``."""
        return bool(self.ancestors[self._check(lower), self._check(higher)])

    def comparable(self, a: int, b: int) -> bool:
        """True when one of the two objectives strictly outranks the other."""
        return self.strictly_precedes(a, b) or self.strictly_precedes(b, a)

    def _check(self, objective: int) -> int:
        i = int(objective)
        if not (0 <= i < self.n_objectives):
            raise IndexError(f"objective {i} outside 0..{self.n_objectives - 1}")
        return i

    def __repr__(self) -> str:
        return f"PreorderGraph(n_objectives={self.n_objectives}, edges={sorted(self.edges)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreorderGraph):
            return NotImplemented
        return self.n_objectives == other.n_objectives and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n_objectives, self.edges))


def build_graph(n_objectives: int, edges: Iterable[tuple[int, int]] = ()) -> PreorderGraph:
    """Build and validate a :class:`PreorderGraph`."""
    return PreorderGraph(n_objectives, edges)
