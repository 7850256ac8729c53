"""Priority structure over reward objectives.

Objectives are integer indices ``0..n_objectives-1``.  Priorities form a
directed acyclic graph of strict-precedence edges ``(higher, lower)``:
an edge means the first objective strictly outranks the second.  Two
objectives with no directed path between them are mutually incomparable,
which is what makes the structure a preorder rather than a total order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .errors import ConfigError, CycleError, _integer, _string

ObjectiveId = int

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


def _items(values, name: str) -> Iterable:
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ConfigError(f"{name} must be a sequence, got {values!r}")
    return values


def _edges(edges) -> frozenset[tuple[int, int]]:
    pairs = set()
    for i, edge in enumerate(_items(edges, "edges")):
        name = f"edges[{i}]"
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ConfigError(f"{name} must be one (higher, lower) pair, got {edge!r}")
        pairs.add((_integer(edge[0], f"{name}[0]"), _integer(edge[1], f"{name}[1]")))
    return frozenset(pairs)


class PreorderGraph:
    """Validated precedence DAG with cached traversal structure.

    Instances are immutable after construction.  The constructor turns
    the edges into one boolean adjacency matrix and derives everything
    else from it: the deterministic topological order (the lowest-index
    objective with no unplaced parent goes next), per-node parent and
    child sets, the leaves, and these read-only forms of that structure,
    shared by strict-precedence queries, :mod:`~preorder_rl.relations`
    and the survivor filter:

    * ``ancestors[j, i]`` is True when i strictly precedes j (the
      transposed transitive closure);
    * ``ancestors_or_self`` adds the diagonal;
    * ``walk`` pairs each objective, in topological order, with its
      direct parents in ascending order.

    Raises:
        ConfigError: a field of the wrong form, named: ``n_objectives``
            (an integer in 1..``MAX_OBJECTIVES``), ``edges[i]`` (one
            (higher, lower) pair of integers) or ``names``.
        IndexError: an edge endpoint is outside ``0..n_objectives-1``.
        CycleError: the edges contain a self-loop or a directed cycle.
    """

    __slots__ = ("n_objectives", "edges", "names", "_parents", "_children", "_leaves",
                 "_order", "ancestors", "ancestors_or_self", "walk")

    def __init__(
        self,
        n_objectives: int,
        edges: Iterable[tuple[int, int]] = (),
        names: Sequence[str] | None = None,
    ) -> None:
        n = _objective_count(n_objectives)
        edge_set = _edges(edges)
        adjacency = np.zeros((n, n), dtype=bool)
        for high, low in edge_set:
            if not (0 <= high < n) or not (0 <= low < n):
                raise IndexError(f"edge ({high}, {low}) references an objective outside 0..{n - 1}")
            if high == low:
                raise CycleError(f"self-loop on objective {high}")
            adjacency[high, low] = True
        if names is None:
            names = tuple(f"obj{i}" for i in range(n))
        else:
            names = tuple(_string(s, f"names[{i}]") for i, s in enumerate(_items(names, "names")))
            if len(names) != n:
                raise ConfigError(f"names must hold {n} values, got {len(names)}")

        rows = adjacency.tolist()
        parents = tuple(frozenset(i for i in range(n) if rows[i][j]) for j in range(n))
        order: list[int] = []
        while len(order) < n:
            ready = [j for j in range(n) if j not in order and parents[j].issubset(order)]
            if not ready:
                stuck = [j for j in range(n) if j not in order]
                raise CycleError(f"precedence edges contain a cycle through objectives {stuck}")
            order.append(ready[0])
        # In reverse topological order every child's reach row is final
        # before its parents OR it in.
        reach = adjacency.copy()
        for node in reversed(order):
            reach[node] |= reach[adjacency[node]].any(axis=0)

        self.n_objectives = n
        self.edges = edge_set
        self.names = names
        self._parents = parents
        self._children = tuple(frozenset(j for j in range(n) if rows[i][j]) for i in range(n))
        self._leaves = frozenset(i for i in range(n) if not any(rows[i]))
        self._order = tuple(order)
        self.ancestors = np.ascontiguousarray(reach.T)
        self.ancestors_or_self = self.ancestors | np.eye(n, dtype=bool)
        for structure in (self.ancestors, self.ancestors_or_self):
            structure.setflags(write=False)
        self.walk = tuple((obj, tuple(sorted(self._parents[obj]))) for obj in order)

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


def build_graph(n_objectives: int, edges: Iterable[tuple[int, int]] = (),
                names: Sequence[str] | None = None) -> PreorderGraph:
    """Build and validate a :class:`PreorderGraph`."""
    return PreorderGraph(n_objectives, edges, names)
