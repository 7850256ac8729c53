"""Priority structure over reward objectives.

Objectives are integer indices ``0..n_objectives-1``.  Priorities form a
directed acyclic graph of strict-precedence edges ``(higher, lower)``:
an edge means the first objective strictly outranks the second.  Two
objectives with no directed path between them are mutually incomparable,
which is what makes the structure a preorder rather than a total order.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import CycleError

ObjectiveId = int


class PreorderGraph:
    """Validated precedence DAG with cached traversal structure.

    Instances are immutable after construction.  Besides the raw edges,
    the constructor precomputes the deterministic topological order,
    per-node parent and child sets, and these read-only forms of that
    structure, shared by strict-precedence queries and the survivor
    filter:

    * ``ancestors[j, i]`` is True when i strictly precedes j (the
      transposed transitive closure);
    * ``ancestors_or_self`` adds the diagonal;
    * ``walk`` pairs each objective, in topological order, with its
      sorted direct parents.

    Raises:
        IndexError: an edge endpoint is outside ``0..n_objectives-1``.
        CycleError: the edges contain a self-loop or a directed cycle.
    """

    __slots__ = ("n_objectives", "edges", "names", "_parents", "_children", "_order",
                 "ancestors", "ancestors_or_self", "walk")

    def __init__(
        self,
        n_objectives: int,
        edges: Iterable[tuple[int, int]] = (),
        names: Sequence[str] | None = None,
    ) -> None:
        n = int(n_objectives)
        if n < 1:
            raise ValueError(f"need at least one objective, got {n}")
        edge_set = frozenset((int(h), int(l)) for h, l in edges)
        for high, low in edge_set:
            if not (0 <= high < n) or not (0 <= low < n):
                raise IndexError(f"edge ({high}, {low}) references an objective outside 0..{n - 1}")
            if high == low:
                raise CycleError(f"self-loop on objective {high}")
        if names is None:
            names = tuple(f"obj{i}" for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ValueError(f"expected {n} names, got {len(names)}")

        parents: list[set[int]] = [set() for _ in range(n)]
        children: list[set[int]] = [set() for _ in range(n)]
        for high, low in edge_set:
            parents[low].add(high)
            children[high].add(low)

        self.n_objectives = n
        self.edges = edge_set
        self.names = names
        self._parents = tuple(frozenset(p) for p in parents)
        self._children = tuple(frozenset(c) for c in children)
        self._order = self._kahn_order()
        self.ancestors = np.ascontiguousarray(self._transitive_closure().T)
        self.ancestors_or_self = self.ancestors | np.eye(n, dtype=bool)
        for structure in (self.ancestors, self.ancestors_or_self):
            structure.setflags(write=False)
        self.walk = tuple((obj, tuple(sorted(self._parents[obj]))) for obj in self._order)

    def _kahn_order(self) -> tuple[int, ...]:
        # Lowest ready index first, so the order is deterministic.
        indegree = [len(self._parents[i]) for i in range(self.n_objectives)]
        ready = [i for i, d in enumerate(indegree) if d == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in sorted(self._children[node]):
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != self.n_objectives:
            stuck = sorted(set(range(self.n_objectives)) - set(order))
            raise CycleError(f"precedence edges contain a cycle through objectives {stuck}")
        return tuple(order)

    def _transitive_closure(self) -> np.ndarray:
        reach = np.zeros((self.n_objectives, self.n_objectives), dtype=bool)
        for high, low in self.edges:
            reach[high, low] = True
        # Process in reverse topological order so each node's reach set is final
        # before any of its parents read it.
        for node in reversed(self._order):
            for child in self._children[node]:
                reach[node] |= reach[child]
                reach[node, child] = True
        return reach

    def topological_sort(self) -> tuple[int, ...]:
        """All objectives, every parent before each of its children."""
        return self._order

    def parents(self, objective: int) -> frozenset[int]:
        """Direct higher-priority neighbours of ``objective``."""
        return self._parents[self._check(objective)]

    def children(self, objective: int) -> frozenset[int]:
        """Direct lower-priority neighbours of ``objective``."""
        return self._children[self._check(objective)]

    def leaves(self) -> frozenset[int]:
        """Objectives with no lower-priority successors."""
        return frozenset(i for i in range(self.n_objectives) if not self._children[i])

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


def build_graph(n_objectives: int, edges: Iterable[tuple[int, int]] = (),
                names: Sequence[str] | None = None) -> PreorderGraph:
    """Build and validate a :class:`PreorderGraph`."""
    return PreorderGraph(n_objectives, edges, names)
