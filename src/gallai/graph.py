"""Simple undirected graphs with the deterministic primitives the decomposer needs.

Vertices are integer ids in a fixed universe [0, n). Derived graphs (edge
removals, restrictions) keep the same universe so ids stay stable; a vertex
with no remaining edges is simply isolated, never reindexed. The universe
holds at most MAX_VERTICES ids, checked before anything is allocated.

The search primitives read a graph only through `neighbors`, `degree` and
`has_edge`, so they also run on the decomposer's mutable working graph.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Collection, Iterable, Iterator, Sequence

Edge = tuple[int, int]

# Largest vertex universe a graph may have: room for 10^5-vertex inputs with
# ample headroom, while the adjacency of a full universe stays near 220 MB.
MAX_VERTICES = 10**6

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


class Record:
    """Base of the package's records: `__slots__` names the fields, which
    `__init__` sets through `object.__setattr__` (`_init` sets them all in
    order), and `==`, `hash`, `repr`, `copy` and `pickle` go by them. A later
    assignment raises AttributeError unless the record restores
    `object.__setattr__`."""

    __slots__ = ()

    def _init(self, *values: object, _set=object.__setattr__) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through `__init__`, which takes the fields
        # in slot order, since restoring slots one by one would assign them
        return (self.__class__, self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(Record):
    """Immutable undirected simple graph on the vertex universe [0, n)."""

    __slots__ = ("n", "_adj", "m")

    def __init__(self, n: int, adj: tuple[frozenset[int], ...], m: int):
        self._init(n, adj, m)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        """Build a graph, rejecting self-loops, duplicates and out-of-range ids."""
        if n < 0:
            raise IdOutOfRange(f"negative vertex count {n}")
        if n > MAX_VERTICES:
            raise IdOutOfRange(f"vertex count {n} is over the limit of {MAX_VERTICES}")
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
        return cls.from_neighbor_sets(sets, m)

    @classmethod
    def from_neighbor_sets(cls, sets: Sequence[Iterable[int]], m: int) -> "Graph":
        """Freeze neighbour sets that the caller built itself, unchecked: they
        must be symmetric, loop-free, inside the universe and hold m edges."""
        return cls(len(sets), tuple(frozenset(s) if s else _EMPTY for s in sets), m)

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

    def non_isolated_count(self) -> int:
        return sum(1 for nbrs in self._adj if nbrs)

    def low_vertices(self) -> frozenset[int]:
        """The vertices of degree 1 or 2."""
        return frozenset(v for v, nbrs in enumerate(self._adj) if 0 < len(nbrs) <= 2)

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
        return Graph(self.n, tuple(adj), self.m - count)

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
        return Graph(self.n, tuple(adj), m // 2)

    def with_edges(self, edges: Iterable[Edge]) -> "Graph":
        """Copy with extra edges added. No code in `gallai` calls it; it stays
        while the benchmark's tracer binds it as a copy site."""
        adj = list(self._adj)
        added = 0
        for u, v in edges:
            if u == v:
                raise SelfLoop(f"self-loop at {u}")
            if v in adj[u]:
                raise DuplicateEdge(f"edge ({u}, {v}) already present")
            adj[u] = adj[u] | {v}
            adj[v] = adj[v] | {u}
            added += 1
        return Graph(self.n, tuple(adj), self.m + added)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Path(Record):
    """A simple path given by its vertex sequence (one vertex = zero edges)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        if len(vertices) < 1:
            raise ValueError("path needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError(f"repeated vertex in path {vertices}")
        object.__setattr__(self, "vertices", vertices)  # the hottest record: no loop

    def edges(self) -> Iterator[Edge]:
        for a, b in zip(self.vertices, self.vertices[1:]):
            yield norm_edge(a, b)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])

    def __len__(self) -> int:
        return len(self.vertices)


class Cycle(Record):
    """A simple cycle given by its vertex ring (closing edge implied)."""

    __slots__ = ("ring",)

    def __init__(self, ring: tuple[int, ...]):
        if len(ring) < 3:
            raise ValueError("cycle needs at least three vertices")
        if len(set(ring)) != len(ring):
            raise ValueError(f"repeated vertex in cycle {ring}")
        self._init(ring)

    def edges(self) -> Iterator[Edge]:
        ring = self.ring
        for i, a in enumerate(ring):
            yield norm_edge(a, ring[(i + 1) % len(ring)])

    def __len__(self) -> int:
        return len(self.ring)


class Component(Record):
    """One connected piece of a graph: its sorted vertices and edge count."""

    __slots__ = ("vertices", "m")

    def __init__(self, vertices: tuple[int, ...], m: int):
        self._init(vertices, m)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def is_triangle(self) -> bool:
        return self.n == 3 and self.m == 3


def connected_components(g: Graph) -> list[Component]:
    """Connected components of g's non-isolated vertices, ordered by
    smallest contained vertex id."""
    seen: set[int] = set()
    out: list[Component] = []
    for start in range(g.n):
        if start in seen or not g.neighbors(start):
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        ends = 0  # edge ends inside the component
        while queue:
            nbrs = g.neighbors(queue.pop())
            ends += len(nbrs)
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        out.append(Component(vertices=tuple(comp), m=ends // 2))
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
    found = []
    for v in near:
        # a triangle component is three mutually adjacent vertices of degree 2
        if g.degree(v) == 2:
            a, b = g.neighbors(v)
            if g.degree(a) == 2 and g.degree(b) == 2 and g.has_edge(a, b):
                found.append(tuple(sorted((v, a, b))))
    # found once per member among `near`
    return sorted(set(found)) if found else found


def split_off(g, vertices: Iterable[int], skip: Iterable[int] = ()) -> list[list[int]]:
    """The components of g - skip that hold some of the given vertices and
    that a lockstep search walked completely; empty iff those vertices all
    lie in one component.

    Only the given vertices that have edges in g take part, each once. One
    breadth-first search starts from each of them, and the searches advance
    in lockstep, one vertex each per round; searches that meet merge (Even &
    Shiloach, J. ACM 1981). A search that runs out of vertices has walked a
    whole component, which is returned as its vertex list; the searching
    stops when one search is left, whose component is not listed. So a split
    costs about k times the smaller sides for k starts. A vertex whose every
    edge leads into `skip` is a component of its own.
    """
    starts = sorted({v for v in vertices if g.neighbors(v)})
    skip = set(skip)
    owner = {v: i for i, v in enumerate(starts)}  # vertex -> search that saw it
    merged_into = list(range(len(starts)))
    queues: list[deque[int] | None] = [deque([v]) for v in starts]
    found = [[v] for v in starts]
    done: list[list[int]] = []
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
                done.append(found[i])
                queues[i] = None
                left -= 1
                if left == 1:
                    break
                continue
            for w in g.neighbors(q.popleft()):
                if w in skip:
                    continue
                j = owner.get(w)
                if j is None:
                    owner[w] = i
                    found[i].append(w)
                    q.append(w)
                    continue
                j = root(j)
                if j != i:
                    merged_into[j] = i
                    q.extend(queues[j])
                    found[i].extend(found[j])
                    queues[j] = None
                    left -= 1
                    if left == 1:
                        return done
    return done


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


def is_two_degenerate(g: Graph | Sequence[Collection[int]]) -> bool:
    """Whether every subgraph of g has a vertex of degree <= 2.

    g is a `Graph` or a sequence of neighbour sets, one per vertex of the
    universe, such as the working sets that `densify` edits in place.

    A linear stack peel (Matula & Beck, J. ACM 1983): a vertex is pushed
    once its remaining degree is at most 2, and popping it lowers its
    neighbours' degrees. A pushed vertex's degree is at most 2 from then on,
    so only the step from 3 to 2 pushes, and each vertex is pushed once.
    Peeling is confluent, so whatever the order, what is never pushed is the
    3-core, and g is 2-degenerate exactly when that is empty. Unlike
    `degeneracy_order` this builds no order and no error, which is what
    `densify` needs for its many checks and `decompose` for its validation.
    """
    adj = g._adj if isinstance(g, Graph) else g
    deg = list(map(len, adj))
    stack = [v for v, d in enumerate(deg) if d <= 2]
    left = len(deg) - len(stack)  # vertices not yet pushed
    while stack and left:
        for w in adj[stack.pop()]:
            deg[w] -= 1
            if deg[w] == 2:
                stack.append(w)
                left -= 1
    return not left


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


def is_cut_vertex(g, v: int) -> bool:
    """Whether removing v splits the component of g that holds it.

    Local work: a lockstep search (`split_off`) from v's neighbours in
    g - v, so it also runs on the decomposer's working graph.
    """
    return bool(split_off(g, g.neighbors(v), skip=(v,)))


# --- edge-list text format ---------------------------------------------------


def parse_digits(tok: str) -> int:
    """The value of a vertex id or header number, which must be ASCII digits:
    int() alone also takes a sign, `_` separators and non-ASCII digits."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"{tok!r} is not ASCII digits")
    return int(tok)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Lines: optional leading `p <n> <m>` header, then one `<u> <v>` pair per
    line, every number ASCII digits; `#` starts a comment; blank lines are
    ignored. A header's edge count must match the edges that follow. Without
    a header the vertex count is 1 + the largest id seen (0 for an empty
    file).
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
                n_header, m_header = parse_digits(parts[1]), parse_digits(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: bad header numbers") from None
            header_line = lineno
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected `<u> <v>`, got {line!r}")
        try:
            u, v = parse_digits(parts[0]), parse_digits(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: endpoint not ASCII digits in {line!r}") from None
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
