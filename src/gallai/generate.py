"""Seeded construction of 2-degenerate test graphs.

Random instances are built by reverse elimination: vertices are inserted one
at a time and each new vertex attaches to at most two existing ones, so the
insertion order read backwards is a valid elimination order and the output is
2-degenerate by construction.

Named families cover the structured shapes the reduction branches care about
(cycles, thetas, chained and hub-shared triangles) plus five fixed fixtures
whose local neighbourhoods steer the dispatcher into one specific branch
each. `densify` is a post-processor that packs extra edges into a random
graph until only one vertex of degree <= 2 is left, which is the doorway to
the pendant, cut-vertex and neighbourhood-case branches that sparse random
graphs almost never reach.
"""

from __future__ import annotations

import random

# connected_components has no caller here; it stays because bench/tracer.py
# wraps it under this module's name
from .graph import (
    MAX_VERTICES, Graph, IdOutOfRange, Record, connected_components, is_cut_vertex,
    is_two_degenerate,
)

FAMILIES = (
    "path",
    "cycle",
    "star",
    "caterpillar",
    "theta",
    "friendship",
    "triangle-chain",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig5c",
)

# Fixed fixtures. Round vertices carry the exact degrees the branch needs;
# the rest is minimal completion gadgetry keeping every other vertex at
# degree >= 3 so the dispatcher sees a unique low-degree vertex.
_FIXTURES = {
    # pendant 0 on 1, support 1 not a cut vertex in g - 0
    "fig4a": (6, [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]),
    # degree-2 vertex 0 whose degree-3 neighbour 1 is a cut vertex
    "fig4b": (
        11,
        [
            (0, 1), (0, 2), (1, 3), (1, 4), (4, 5), (4, 6), (5, 7), (5, 8),
            (6, 7), (6, 8), (7, 8), (2, 9), (2, 10), (3, 9), (3, 10), (9, 10),
        ],
    ),
    # support 1 of the unique low vertex 0 has a degree-3 neighbour 3
    "fig5a": (
        8,
        [
            (0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (2, 6), (4, 6),
            (5, 6), (6, 7), (4, 7), (5, 7),
        ],
    ),
    # both neighbours of 0 have degree 3, no degree-3 second neighbours,
    # shared vertex 3 completed to degree 4
    "fig5b": (
        9,
        [
            (0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (3, 7),
            (4, 5), (4, 6), (4, 7), (5, 6), (5, 7),
        ],
    ),
    # neighbours 1 (degree 3) and 2 (degree 4) of 0 are adjacent
    "fig5c": (
        7,
        [
            (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (3, 6),
            (4, 5), (4, 6), (5, 6),
        ],
    ),
}


class UnknownFamily(Exception):
    pass


class GenSpec(Record):
    """Parameters for one generated graph."""

    __slots__ = ("n", "seed", "connect", "p2")

    def __init__(self, n: int, seed: int, connect: bool = True, p2: float = 0.6):
        if n < 1:
            raise ValueError("n must be at least 1")
        if n > MAX_VERTICES:
            raise ValueError(f"n must be at most {MAX_VERTICES}")
        if not 0.0 <= p2 <= 1.0:
            raise ValueError("p2 must lie in [0, 1]")
        self._init(n, seed, connect, p2)


# chance that a vertex takes no back-edge at all when connectivity is off
_P_SKIP = 0.2


def _draw(spec: GenSpec) -> list[set[int]]:
    """`generate`'s graph as the neighbour sets its draws fill in."""
    rng = random.Random(spec.seed)
    rand, randrange = rng.random, rng.randrange
    p2, skip = spec.p2, not spec.connect
    # ids go in as `from_edges` adds the edge list (a, v) or (min, v), (max, v)
    # per vertex v, so each set iterates as in the graph built from that list
    nbrs: list[set[int]] = [set() for _ in range(spec.n)]
    ids = list(range(spec.n))  # one int per vertex id, shared by every set naming it
    for v in ids[1:]:
        two = rand() < p2
        if skip and rand() < _P_SKIP:
            continue
        a = randrange(v)
        if not two or v == 1:
            nbrs[a].add(v)
            nbrs[v].add(ids[a])
            continue
        # 21 is sample's pool limit for k <= 5: up to it, sample swaps the
        # first pick out of a list; past it, it redraws until it misses
        if v <= 21:
            b = randrange(v - 1)
            b = v - 1 if b == a else b
        else:
            b = randrange(v)
            while b == a:
                b = randrange(v)
        if b < a:
            a, b = b, a
        nbrs[a].add(v)
        nbrs[b].add(v)
        nbrs[v].update((ids[a], ids[b]))
    return nbrs


def generate(spec: GenSpec) -> Graph:
    """A seeded 2-degenerate graph on spec.n vertices.

    With connect=True every vertex after the first gets at least one
    back-edge, so the result is connected.

    Vertex v draws its k <= 2 back-edges through `rng.randrange`, making
    exactly the draws, in the same order, that `sorted(rng.sample(range(v),
    k))` makes, so each seed gives the graph that sampling gave. The edges go
    straight into neighbour sets as they are drawn (`_draw`), naming each
    vertex by one shared int object, and the graph freezes those sets in
    place without `from_edges`' checks, which no draw can fail.
    """
    nbrs = _draw(spec)
    return Graph.from_neighbor_sets(nbrs, sum(map(len, nbrs)) // 2)


def family(name: str, n: int | None = None) -> Graph:
    """The named structured graph at scale n (fixtures have a fixed size)."""
    if name in _FIXTURES:
        size, edges = _FIXTURES[name]
        if n is not None and n != size:
            raise ValueError(f"family {name} has fixed size {size}")
        return Graph.from_edges(size, edges)
    if name not in FAMILIES:
        raise UnknownFamily(f"unknown family {name!r}")
    if n is None:
        raise ValueError(f"family {name} needs a vertex count")
    if n > MAX_VERTICES:  # before any edge is built, as Graph.from_edges would refuse it
        raise IdOutOfRange(f"vertex count {n} is over the limit of {MAX_VERTICES}")

    if name == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if name == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "star":
        return Graph.from_edges(n, [(0, i) for i in range(1, n)])
    if name == "caterpillar":
        # spine on the first half, legs pinned to spine vertices in turn
        spine = max(1, (n + 1) // 2)
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [((j - spine) % spine, j) for j in range(spine, n)]
        return Graph.from_edges(n, edges)
    if name == "theta":
        if n < 4:
            raise ValueError("theta needs n >= 4")
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 2)]
        return Graph.from_edges(n, edges)
    if name == "friendship":
        if n < 3 or n % 2 == 0:
            raise ValueError("friendship needs odd n >= 3")
        edges = []
        for i in range(n // 2):
            a, b = 2 * i + 1, 2 * i + 2
            edges += [(0, a), (0, b), (a, b)]
        return Graph.from_edges(n, edges)
    if name == "triangle-chain":
        if n < 3 or n % 2 == 0:
            raise ValueError("triangle-chain needs odd n >= 3")
        edges = []
        for i in range(n // 2):
            a = 2 * i
            edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        return Graph.from_edges(n, edges)
    raise UnknownFamily(f"unknown family {name!r}")


def densify(g: Graph, seed: int, max_rounds: int | None = None) -> Graph:
    """Add edges until at most one non-isolated vertex has degree <= 2.

    Tries to keep the result 2-degenerate at every step; each candidate edge
    is validated before it is committed. Vertices that cannot be raised
    without breaking 2-degeneracy are left alone, so the result is best
    effort (tiny graphs such as a bare path on 3 vertices stay as they are).

    The rounds (`_raise_lows`) work on one list of neighbour sets: a
    candidate edge joins them in place, one `is_two_degenerate` peel over
    the sets checks it, and a failed one is taken out again. The result is
    built from the sets once, or is g itself when no edge was added.

    One low vertex, the survivor, is never touched; the rest get new edges
    one at a time. Endpoints that are themselves low come first, so one edge
    can fix two vertices, and distance-2 endpoints beat distant ones, which
    closes triangles instead of welding far-apart regions. A low vertex that
    cannot be raised at all is adopted as the new survivor, freeing the
    machinery to raise the old favourite instead.

    The rounds stop once the graph has 2k - 3 edges, k its non-isolated
    vertices: no 2-degenerate graph on k >= 2 such vertices has more, since
    peeling a vertex of degree <= 2 at a time drops at most 2 edges per
    vertex until the last two, which share at most 1. Edges only join those
    k vertices, so from then on every candidate would fail and no round
    could change the graph; the stop skips only rng draws that no output
    depends on. `_block`'s attempts run the same rounds with one more stop,
    the budget stop described there; densify itself always runs to the end.
    """
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    cap = max_rounds if max_rounds is not None else 4 * g.n + 20
    m, _lows = _raise_lows(nbrs, g.m, random.Random(seed), cap)
    return g if m == g.m else Graph.from_neighbor_sets(nbrs, m)


def _raise_lows(
    nbrs: list[set[int]], m: int, rng: random.Random, cap: int, budget: bool = False
) -> tuple[int, list[int]] | None:
    """`densify`'s rounds on the neighbour sets nbrs (m edges), edited in
    place; returns the final edge count and the low vertices, in id order.

    With budget, returns None at the start of a round in which the 2k - 3
    edge budget (see `densify`) rules out ending with exactly one low vertex,
    of degree 2 (see `_block`).
    """
    # degrees only grow, so the live vertices stay the same and a vertex
    # leaves `lows` for good once it reaches degree 3
    deg = [len(s) for s in nbrs]
    live = [v for v, d in enumerate(deg) if d]
    lows = [v for v in live if deg[v] <= 2]
    most = 2 * len(live) - 3
    unfixable: set[int] = set()
    rounds = 0
    while rounds < cap:
        rounds += 1
        if len(lows) <= 1 or m == most:
            break
        if budget and 2 * (most - m) < sum(3 - deg[w] for w in lows) - 1:
            return None
        survivor = min(lows, key=lambda v: (v not in unfixable, deg[v], v))
        todo = [v for v in lows if v != survivor and v not in unfixable]
        if not todo:
            break
        v = todo[0]
        near = nbrs[v]
        # also holds v and maybe some of near, which are never candidates
        two_away = {u for w in near for u in nbrs[w]}
        # the tiers fill in id order, which the shuffles start from
        tiers: list[list[int]] = [[] for _ in range(4)]
        for u in live:
            if u != v and u != survivor and u not in near:
                tiers[(0 if deg[u] <= 2 else 1) + (0 if u in two_away else 2)].append(u)
        order: list[int] = []
        for t in tiers:
            rng.shuffle(t)
            order += t

        for u in order:
            nbrs[u].add(v)
            near.add(u)
            if is_two_degenerate(nbrs):
                deg[u] += 1
                deg[v] += 1
                m += 1
                lows = [w for w in lows if deg[w] <= 2]
                break
            nbrs[u].remove(v)
            near.remove(u)
        else:
            unfixable.add(v)
    return m, lows


# -- structured dense instances ---------------------------------------------
#
# A fully densified connected graph has exactly one vertex of degree <= 2,
# and in that state the graph's own 2-degeneracy pins everything around a
# low vertex to degree exactly 3. The rare dispatch shapes (a unique low
# vertex that is, or sits next to, an articulation point) follow from how
# such pieces are glued, so the dense fuzz mode assembles them out of
# densified random blocks instead of hoping edge insertion leaves the right
# cuts standing.


def _capped_strip(n: int) -> Graph:
    """Triangle strip rewired so vertex 0 is the unique degree-2 vertex.

    A plain strip of stacked triangles leaves both ends low; dropping one
    rung and tying the far end back to vertex 1 shifts that unit of degree
    where it is needed. Edge count lands on the 2-degenerate maximum 2n-3,
    which is forced: a unique low vertex cannot be had any cheaper.
    """
    if n < 5:
        raise ValueError("a unique degree-2 vertex needs n >= 5")
    if n == 5:
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        return Graph.from_edges(5, edges)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, i + 2) for i in range(n - 2) if (i, i + 2) != (1, 3)]
    edges += [(1, n - 1)]
    return Graph.from_edges(n, edges)


def _block(n: int, seed: int, p2: float) -> tuple[Graph, int]:
    """A densified block with a unique low vertex of degree 2.

    The low vertex must not be an articulation point, so gluing on it never
    entangles pre-existing cut structure. Eight random densified attempts
    come first for variety; the deterministic strip stands in when none of
    them ends clean (full density is a narrow target). Returns (graph, its
    low vertex); requires n >= 5, below which no such graph exists.

    Attempt j is `densify(generate(spec), s)` with s = seed + 1000003j, run
    on the neighbour sets that `generate` draws and judged on them: a `Graph`
    is built only for an attempt left with one low vertex, of degree 2, to
    test that vertex with `is_cut_vertex`. Most attempts fail, and the
    budget stop drops many of them early: an attempt is abandoned at the
    start of a round where 2(2k - 3 - m) < sum(3 - deg w for w low) - 1,
    k the live vertices and m the edges. No attempt it drops could succeed:
    - degrees only rise, so the final low vertices are among the current ones;
    - all of them but one must reach degree 3 and that one exactly 2, and
      each added edge adds 2 to the degree total;
    - no 2-degenerate graph on k non-isolated vertices has over 2k - 3 edges.
    """
    for j in range(8):
        s = seed + 1000003 * j
        nbrs = _draw(GenSpec(n=n, seed=s, connect=True, p2=p2))
        m = sum(map(len, nbrs)) // 2
        done = _raise_lows(nbrs, m, random.Random(s), 4 * n + 20, budget=True)
        if done is None:
            continue
        m, lows = done
        if len(lows) != 1 or len(nbrs[lows[0]]) != 2:
            continue
        g = Graph.from_neighbor_sets(nbrs, m)
        if is_cut_vertex(g, lows[0]):
            continue
        return g, lows[0]
    return _capped_strip(n), 0


def _splice(a: tuple[Graph, int], b: tuple[Graph, int]) -> tuple[Graph, int]:
    """Join two blocks through a fresh degree-2 connector vertex.

    The connector lands on the two block lows, raising both to degree 3; it
    becomes the unique low vertex of the result and is an articulation point
    by construction.
    """
    (ga, la), (gb, lb) = a, b
    c = ga.n + gb.n
    edges = list(ga.edges())
    edges += [(u + ga.n, w + ga.n) for (u, w) in gb.edges()]
    edges += [(la, c), (lb + ga.n, c)]
    return Graph.from_edges(c + 1, edges), c


def _hang(base: tuple[Graph, int]) -> Graph:
    """Attach a pendant to a block's unique low vertex.

    The pendant becomes the unique low vertex and its support has degree
    exactly 3, which is the doorway into the pendant-dispatch shapes.
    """
    g, low = base
    return Graph.from_edges(g.n + 1, list(g.edges()) + [(low, g.n)])


def dense_instance(seed: int, max_n: int, p2: float | None = None) -> Graph:
    """One trial graph for the dense fuzz mode, deterministic in seed.

    Rotates between a plain densified graph and glued-block shapes keyed to
    the unique-low dispatch branches: a connector between two blocks (the
    degree-2 articulation shape), pendants over connectors with side sizes
    chosen odd/odd, odd/even, and odd/(split even) to land each parity case,
    and a degree-2 vertex hanging beside a bridging support (the support
    articulation shape). Falls back to the plain shape when max_n leaves no
    room. Only the blocks the chosen shape glues are built: two for kinds
    1, 2, 3 and 5, three for kind 4.
    """
    rng = random.Random(seed)
    n = rng.randint(4, max_n)
    p = p2 if p2 is not None else rng.choice((0.4, 0.6, 0.8, 0.95))

    def sized(lo: int, budget: int, parity: int) -> int:
        hi = max(lo, budget)
        fits = [k for k in range(lo, hi + 1) if k % 2 == parity]
        return rng.choice(fits) if fits else lo + (lo % 2 != parity)

    kind = rng.randrange(6)
    if kind == 4 and max_n < 19:
        kind = 3
    if kind in (2, 3) and max_n < 13:
        kind = 1
    if kind == 5 and max_n < 12:
        kind = 1
    if max_n < 11:
        kind = 0
    if kind == 0:
        return densify(generate(GenSpec(n=n, seed=seed, connect=True, p2=p)), seed=seed)

    third = max(6, (max_n - 3) // 3)
    odd1 = sized(5, third, 1)
    odd2 = sized(5, third, 1)
    even1 = sized(6, third, 0)
    # all three seeds are drawn whatever the kind, so a block's seed does
    # not depend on which of the others are built
    s1, s2, s3 = (rng.randrange(1 << 30) for _ in range(3))
    b1 = _block(odd1, s1, p)

    if kind == 3:
        # pendant over a connector with an odd and an even side
        return _hang(_splice(b1, _block(even1, s3, p)))
    b2 = _block(odd2, s2, p)
    if kind == 1:
        # degree-2 articulation between two blocks
        return _splice(b1, b2)[0]
    if kind == 2:
        # pendant over a connector with two odd sides
        return _hang(_splice(b1, b2))
    if kind == 4:
        # pendant over a connector whose even side is itself a spliced pair,
        # so the even side splits odd/even under its own connector
        return _hang(_splice(b1, _splice(b2, _block(even1, s3, p))))
    # bridge two blocks with a support x, then hang a degree-2 vertex v off x
    # and an interior vertex y; x stays an articulation point of the result
    g, x = _splice(b1, b2)
    v = x + 1
    y = min(u for u in range(b1[0].n) if u != b1[1])
    return Graph.from_edges(v + 1, list(g.edges()) + [(x, v), (y, v)])
