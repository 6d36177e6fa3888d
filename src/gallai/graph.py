"""Simple undirected graphs with the deterministic primitives the decomposer needs.

Vertices are integer ids in a fixed universe [0, n). Derived graphs (edge
removals, component views) keep the same universe so ids stay stable; a vertex
with no remaining edges is simply isolated, never reindexed.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]

_EMPTY: frozenset[int] = frozenset()


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class IdOutOfRange(GraphError):
    pass


class NotTwoDegenerate(GraphError):
    """Peeling got stuck; `stuck` holds the offending induced subgraph's vertices."""

    def __init__(self, stuck: Sequence[int]):
        self.stuck = tuple(sorted(stuck))
        super().__init__(f"no vertex of degree <= 2 in induced subgraph {self.stuck}")


class NoPath(GraphError):
    pass


def norm_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def _tally(
    adj: Sequence[frozenset[int]], vertices: Iterable[int]
) -> tuple[int, frozenset[int]]:
    """Non-isolated count and degree-1-or-2 set of `adj`, given `vertices`
    that include every vertex with edges."""
    count = 0
    low: list[int] = []
    for v in vertices:
        d = len(adj[v])
        if d:
            count += 1
            if d <= 2:
                low.append(v)
    return count, frozenset(low)


class Graph:
    """Immutable undirected simple graph on the vertex universe [0, n).

    Besides the adjacency it keeps its non-isolated vertex count and the set
    of its vertices of degree 1 or 2. Every derived graph updates both from
    the vertices it touches, so reading them never scans the universe.
    """

    __slots__ = ("n", "_adj", "m", "_count", "_low")

    def __init__(
        self,
        n: int,
        adj: tuple[frozenset[int], ...],
        m: int,
        count: int,
        low: frozenset[int],
    ):
        self.n = n
        self._adj = adj
        self.m = m
        self._count = count
        self._low = low

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        """Build a graph, rejecting self-loops, duplicates and out-of-range ids."""
        if n < 0:
            raise IdOutOfRange(f"negative vertex count {n}")
        sets: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise SelfLoop(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise IdOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
            if v in sets[u]:
                raise DuplicateEdge(f"duplicate edge ({u}, {v})")
            sets[u].add(v)
            sets[v].add(u)
            m += 1
        adj = tuple(frozenset(s) if s else _EMPTY for s in sets)
        return cls(n, adj, m, *_tally(adj, range(n)))

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """All edges in (min, max) form, sorted."""
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def non_isolated(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self._adj[v])

    def non_isolated_count(self) -> int:
        return self._count

    def low_vertices(self) -> frozenset[int]:
        """The vertices of degree 1 or 2."""
        return self._low

    def _derived(self, adj: list[frozenset[int]], touched: Iterable[int], m: int) -> "Graph":
        """This graph with the adjacency of the `touched` vertices, each
        listed once, taken from `adj`."""
        old = self._adj
        count = self._count
        flipped: list[int] = []  # vertices entering or leaving the low set
        for w in touched:
            now, before = len(adj[w]), len(old[w])
            count += bool(now) - bool(before)
            if (0 < now <= 2) != (0 < before <= 2):
                flipped.append(w)
        low = self._low
        if flipped:
            # copying the large set first keeps its table compact
            low = frozenset(flipped).symmetric_difference(low)
        return Graph(self.n, tuple(adj), m, count, low)

    def without_edges(self, edges: Iterable[Edge]) -> "Graph":
        """Copy of this graph with the given edges masked out."""
        removal: dict[int, set[int]] = {}
        count = 0
        for u, v in edges:
            if v not in self._adj[u]:
                raise GraphError(f"cannot remove absent edge ({u}, {v})")
            removal.setdefault(u, set()).add(v)
            removal.setdefault(v, set()).add(u)
            count += 1
        if not count:
            return self
        adj = list(self._adj)
        for w, gone in removal.items():
            left = adj[w] - gone
            adj[w] = left if left else _EMPTY
        return self._derived(adj, removal, self.m - count)

    def without_vertex(self, v: int) -> "Graph":
        """Mask every edge incident on v (v stays in the universe, isolated)."""
        return self.without_edges((v, w) for w in self._adj[v])

    def restricted_to(self, vertices: Iterable[int]) -> "Graph":
        """View keeping only edges with both endpoints in `vertices`."""
        keep = set(vertices)
        adj: list[frozenset[int]] = [_EMPTY] * self.n
        m = 0
        for v in keep:
            inside = self._adj[v] & keep
            adj[v] = frozenset(inside) if inside else _EMPTY
            m += len(inside)
        return Graph(self.n, tuple(adj), m // 2, *_tally(adj, keep))

    def with_edges(self, edges: Iterable[Edge]) -> "Graph":
        """Copy with extra edges added (used for small reattachment views)."""
        adj = list(self._adj)
        touched: set[int] = set()
        added = 0
        for u, v in edges:
            if u == v:
                raise SelfLoop(f"self-loop at {u}")
            if v in adj[u]:
                raise DuplicateEdge(f"edge ({u}, {v}) already present")
            adj[u] = adj[u] | {v}
            adj[v] = adj[v] | {u}
            touched.update((u, v))
            added += 1
        return self._derived(adj, touched, self.m + added)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Path:
    """A simple path given by its vertex sequence (one vertex = zero edges)."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise ValueError("path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError(f"repeated vertex in path {self.vertices}")

    def edges(self) -> Iterator[Edge]:
        for a, b in zip(self.vertices, self.vertices[1:]):
            yield norm_edge(a, b)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Cycle:
    """A simple cycle given by its vertex ring (closing edge implied)."""

    ring: tuple[int, ...]

    def __post_init__(self):
        if len(self.ring) < 3:
            raise ValueError("cycle needs at least three vertices")
        if len(set(self.ring)) != len(self.ring):
            raise ValueError(f"repeated vertex in cycle {self.ring}")

    def edges(self) -> Iterator[Edge]:
        ring = self.ring
        for i, a in enumerate(ring):
            yield norm_edge(a, ring[(i + 1) % len(ring)])

    def __len__(self) -> int:
        return len(self.ring)


@dataclass(frozen=True)
class Component:
    """One connected piece of a graph view.

    `graph` is a same-universe view holding only this component's edges.
    Singleton components (no edges) appear when the caller's vertex set
    includes vertices that lost all their edges.
    """

    vertices: tuple[int, ...]
    graph: Graph
    m: int

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def is_triangle(self) -> bool:
        return self.n == 3 and self.m == 3


def connected_components(g: Graph, within: Iterable[int] | None = None) -> list[Component]:
    """Connected components of g, ordered by smallest contained vertex id.

    `within` restricts attention to the given vertices (default: every
    non-isolated vertex of g). Vertices of `within` that have no edges inside
    the set become singleton components.
    """
    restricted = within is not None
    if restricted:
        allowed = set(within)
        universe = sorted(allowed)
    else:
        allowed = set()
        universe = [v for v in range(g.n) if g.neighbors(v)]

    seen: set[int] = set()
    out: list[Component] = []
    for start in universe:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            nbrs = g.neighbors(v) & allowed if restricted else g.neighbors(v)
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        if restricted:
            view = g.restricted_to(comp)
        else:
            # Unrestricted components keep all their vertices' edges, so the
            # view can share the original adjacency sets.
            adj = [_EMPTY] * g.n
            for v in comp:
                adj[v] = g.neighbors(v)
            view = Graph(
                g.n, tuple(adj), sum(g.degree(v) for v in comp) // 2, *_tally(adj, comp)
            )
        out.append(Component(vertices=tuple(comp), graph=view, m=view.m))
    return out


def triangle_components(
    g: Graph, near: Iterable[int] | None = None
) -> list[tuple[int, int, int]]:
    """Vertex triples of the components of g that are exactly triangles,
    ordered by smallest member id.

    With `near`, only the triangle components containing one of those
    vertices are found, by looking at no more than three vertices per probe.
    When g came from a connected graph by deleting edges, passing the deleted
    edges' endpoints finds them all, since every component of g holds one.
    """
    if near is None:
        return [c.vertices for c in connected_components(g) if c.is_triangle]
    found: set[tuple[int, int, int]] = set()
    for v in near:
        # a triangle component is three mutually adjacent vertices of degree 2
        if g.degree(v) == 2:
            a, b = g.neighbors(v)
            if g.degree(a) == 2 and g.degree(b) == 2 and g.has_edge(a, b):
                found.add(tuple(sorted((v, a, b))))
    return sorted(found)


def in_one_component(g: Graph, vertices: Iterable[int]) -> bool:
    """Whether the given vertices that have edges all lie in one component.

    One breadth-first search starts from each such vertex, and the searches
    advance in lockstep, one vertex each per round; searches that meet merge
    (Even & Shiloach, J. ACM 1981). The answer is yes once a single search
    remains, and no as soon as a search runs out of vertices while others
    remain: it has then walked a whole component that misses them. So
    confirming a split costs about k times the smaller side for k starts.
    """
    starts = sorted({v for v in vertices if g.neighbors(v)})
    owner = {v: i for i, v in enumerate(starts)}  # vertex -> search that saw it
    merged_into = list(range(len(starts)))
    queues: list[deque[int] | None] = [deque([v]) for v in starts]
    left = len(starts)

    def root(i: int) -> int:
        while merged_into[i] != i:
            merged_into[i] = i = merged_into[merged_into[i]]
        return i

    while left > 1:
        for i in range(len(starts)):
            q = queues[i]
            if q is None:
                continue
            if not q:
                return False
            for w in g.neighbors(q.popleft()):
                j = owner.get(w)
                if j is None:
                    owner[w] = i
                    q.append(w)
                    continue
                j = root(j)
                if j != i:
                    merged_into[j] = i
                    q.extend(queues[j])
                    queues[j] = None
                    left -= 1
                    if left == 1:
                        return True
    return True


def degeneracy_order(g: Graph) -> tuple[int, ...]:
    """Deterministic 2-degeneracy peel: lowest id among minimum-degree vertices
    with remaining degree <= 2, repeated. Raises NotTwoDegenerate when stuck.
    """
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    heap: list[tuple[int, int]] = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    order: list[int] = []
    remaining = g.n
    while remaining:
        while True:
            d, v = heapq.heappop(heap)
            if alive[v] and d == deg[v]:
                break
        if d > 2:
            raise NotTwoDegenerate([u for u in range(g.n) if alive[u]])
        alive[v] = False
        order.append(v)
        remaining -= 1
        for w in g.neighbors(v):
            if alive[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return tuple(order)


def is_two_degenerate(g: Graph) -> bool:
    try:
        degeneracy_order(g)
    except NotTwoDegenerate:
        return False
    return True


def shortest_path(
    g: Graph,
    source: int,
    target: int,
    forbidden_vertices: Iterable[int] = (),
) -> Path:
    """Deterministic BFS shortest path.

    Neighbors expand in ascending id and a vertex's parent is fixed at first
    discovery, so equal-length paths always resolve the same way. Raises
    NoPath if target is unreachable under the constraints.
    """
    banned_v = set(forbidden_vertices)
    if source in banned_v or target in banned_v:
        raise NoPath(f"endpoint forbidden ({source} -> {target})")
    if source == target:
        return Path((source,))
    parent: dict[int, int] = {source: -1}
    frontier = [source]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in sorted(g.neighbors(v)):
                if w in parent or w in banned_v:
                    continue
                parent[w] = v
                if w == target:
                    seq = [w]
                    while seq[-1] != source:
                        seq.append(parent[seq[-1]])
                    seq.reverse()
                    return Path(tuple(seq))
                nxt.append(w)
        frontier = nxt
    raise NoPath(f"no path {source} -> {target} avoiding {sorted(banned_v)}")


def is_cut_vertex(g: Graph, v: int) -> tuple[bool, tuple[Component, ...]]:
    """Whether removing v disconnects the non-isolated part of g.

    Returns (flag, components of g - v) with the component partition computed
    over g's non-isolated vertices minus v; vertices that lose their last edge
    show up as singleton components.
    """
    rest = [u for u in range(g.n) if g.neighbors(u) and u != v]
    if not rest:
        return (False, ())
    comps = connected_components(g.without_vertex(v), within=rest)
    return (len(comps) > 1, tuple(comps))


# --- edge-list text format ---------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Lines: optional leading `p <n> <m>` header, then one `<u> <v>` pair per
    line; `#` starts a comment; blank lines are ignored. A header's edge count
    must match the edges that follow. Without a header the vertex count is
    1 + the largest id seen (0 for an empty file).
    """
    n_header: int | None = None
    m_header = header_line = 0
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if n_header is not None or edges:
                raise GraphError(f"line {lineno}: stray header")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: header needs `p <n> <m>`")
            try:
                n_header, m_header = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: bad header numbers") from None
            header_line = lineno
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected `<u> <v>`, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id")
        edges.append((u, v))
    if n_header is None:
        n_header = 1 + max((max(u, v) for u, v in edges), default=-1)
    elif m_header != len(edges):
        raise GraphError(
            f"line {header_line}: header says {m_header} edges, file has {len(edges)}"
        )
    try:
        return Graph.from_edges(n_header, edges)
    except GraphError as exc:
        raise GraphError(str(exc)) from None


def format_edge_list(g: Graph) -> str:
    """Serialize with header and edges sorted by (min, max)."""
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
