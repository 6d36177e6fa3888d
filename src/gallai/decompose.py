"""Constructive path decomposition for 2-degenerate graphs.

`decompose` splits a graph's edges into paths, at most floor(n/2) of them per
connected non-triangle component (n counting that component's vertices); a
triangle component costs exactly two paths. The construction is a priority
cascade over the shape of the low-degree vertices:

  two vertices of degree <= 2        -> closest-pair carrier path or cycle
  unique low vertex v, pendant       -> peel through its degree-3 support
  unique low vertex v, articulation  -> split and re-join across v
  v's support x is an articulation   -> split and re-join across x
  otherwise                          -> one of three neighbourhood cases

Each branch removes a small carrier (path or short cycle) and leaves the
pieces that remain on an explicit work stack; once they are decomposed, it
absorbs any triangle components the removal created and reattaches the
removed edges onto a piece's path ending at a known degree-1 vertex. Every
step is logged in a ReductionTrace whose tags name the branch taken.

The pieces are components of one mutable copy of the graph from which the
removed edges are deleted in place; each keeps its own counts, an index of
its closest low pair and a breadth-first tree that shows when a removal did
not split it, so a step costs about its local work.

All tie-breaks are by lowest vertex id, so output is deterministic.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Iterable, Sequence

from .graph import (
    Cycle,
    Edge,
    Graph,
    GraphError,
    NoPath,
    Path,
    Record,
    connected_components,
    degeneracy_order,
    is_cut_vertex,
    is_two_degenerate,
    norm_edge,
    shortest_path,
    split_off,
    triangle_components,
)

BRANCH_TAGS = frozenset(
    {
        "Base",
        "Claim1-Path",
        "Claim1-Cycle3",
        "Claim1-Cycle4",
        "Subclaim1-Merge",
        "Subclaim2-Merge",
        "Lemma1-Case1",
        "Lemma1-Case2",
        "Lemma1-Case3",
        "Claim2-Case1",
        "Claim2-Case2-OddOdd",
        "Claim2-Subcase2.1",
        "Claim2-Subcase2.2",
        "Claim3",
        "Claim4",
        "Case1-Deg3Neighbor",
        "Subcase2.1-Y3",
        "Subcase2.2-Y4",
        "ComponentSplit",
    }
)


class DecomposeError(Exception):
    """Base class for decomposer failures."""


class InternalInvariantViolation(DecomposeError):
    """A structural fact the construction relies on did not hold.

    Carries the trace recorded so far, for post-mortem replay.
    """

    def __init__(self, message: str, steps: Sequence["TraceStep"] = ()):
        self.steps = tuple(steps)
        super().__init__(message)


class TriangleNotComponent(DecomposeError):
    """A supplied triple is not a triangle component of g - E(p)."""


class NoIntersectingPath(DecomposeError):
    """No path of the decomposition meets the cycle to merge into."""


class GeometryMismatch(DecomposeError):
    """Cycle/triangle sharing pattern is not one the merge supports."""


class TraceStep(Record):
    """One branch decision: its tag, the vertices it bound, and the view size.

    Each `detail` value is an int or a tuple of vertices (tuples nest), the
    sequence the engine already holds; JSON writes a tuple as an array.
    """

    __slots__ = ("tag", "vertices", "n", "m", "detail")

    def __init__(self, tag: str, vertices: dict[str, int], n: int, m: int, detail=None):
        if tag not in BRANCH_TAGS:
            raise ValueError(f"unknown branch tag {tag!r}")
        self._init(tag, vertices, n, m, {} if detail is None else detail)

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "vertices": dict(self.vertices),
            "n": self.n,
            "m": self.m,
            "detail": self.detail,
        }


def _record(rows: list[tuple], tag: str, vertices: dict[str, int], n: int, m: int, detail) -> None:
    """Append a trace row, a TraceStep's fields in order, checking its tag
    now; the step itself is built only when the trace is read."""
    if tag not in BRANCH_TAGS:
        raise ValueError(f"unknown branch tag {tag!r}")
    rows.append((tag, vertices, n, m, detail))


def _steps(rows: Iterable[tuple]) -> tuple[TraceStep, ...]:
    return tuple(TraceStep(*row) for row in rows)


class _TraceRows(Record):
    """A trace's rows, kept apart from the fields `==` and `repr` go by."""

    __slots__ = ("_rows",)


class ReductionTrace(_TraceRows):
    """Ordered record of every branch the decomposition took.

    `decompose` hands it the engine's rows; `steps` builds their TraceSteps
    on first read, and `histogram` counts the rows' tags without them.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[TraceStep, ...]):
        self._init(steps)
        object.__setattr__(self, "_rows", [s._values() for s in steps])

    def __getattr__(self, name: str):
        # reached only while the `steps` slot is unset
        if name != "steps":
            raise AttributeError(name)
        steps = _steps(self._rows)
        object.__setattr__(self, "steps", steps)
        return steps

    def histogram(self) -> dict[str, int]:
        return dict(Counter(row[0] for row in self._rows))

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.steps]


class Decomposition(Record):
    """A set of edge-disjoint paths claimed to cover the host graph's edges.

    `claimed_bound` is the certificate's own claim: floor(n/2) over the host's
    non-isolated vertices when every component stays within that target, or
    the honest per-component sum (a triangle component needs 2) otherwise.
    `bound_met` is false iff some component is a triangle, the only shape the
    floor(n/2) target cannot cover.
    """

    __slots__ = ("paths", "claimed_bound", "bound_met")

    def __init__(self, paths: tuple[Path, ...], claimed_bound: int, bound_met: bool = True):
        self._init(paths, claimed_bound, bound_met)

    def to_json(self) -> dict:
        return {
            "paths": tuple(p.vertices for p in self.paths),
            "bound": self.claimed_bound,
            "met": self.bound_met,
        }


# Folds the paths of a plan's pieces, out[start:] in piece order, into the
# planned view's, in place. A finish is the tuple (pairs, merge,
# triangles, *paths), which `_Engine.solve` runs in that order: extend the path
# ending at each (endpoint, new) pair, merge the cycle of merge = (cycle, u, v,
# size) into the first path it meets, then append the paths; with triangles,
# the one path is the carrier, which absorbs them. `solve` pushes it flat, with
# the paths last, so a pending finish costs little more than its paths: one
# tuple nested in the work item put 4% on the peak memory of a long run.
Finish = tuple

# Neighbour scans a tree repair may take before a split is searched for
# directly: a split strands its side, whose levels would only keep growing.
# A repair that goes on once the piece is known whole stops at 2m scans, what
# planting its tree afresh costs, since after a cut through a long cycle the
# levels of a whole arc would climb one step at a time.
_REPAIR_BUDGET = 200

_NO_EDGES: frozenset[int] = frozenset()


class _Piece:
    """A view pending on the work stack: one component of the working graph.

    It keeps the view's non-isolated vertices `verts`, its edge count `m`,
    its set `low` of degree-1-or-2 vertices, the root of its breadth-first
    tree, and a heap of candidates for its closest low pair, each entry
    led by its distance, 1, 2 or 3 (see `_WorkingGraph.closest`). Heap
    entries go stale as the graph changes and are dropped when they surface.
    """

    __slots__ = ("verts", "m", "low", "root", "heap")

    def __init__(self):
        self.verts: set[int] = set()
        self.m = 0
        self.low: set[int] = set()
        self.root = -1
        self.heap: list[tuple[int, ...]] = []

    @property
    def size(self) -> tuple[int, int]:
        """(non-isolated vertices, edges), as a trace step records them."""
        return len(self.verts), self.m


class _WorkingGraph:
    """The host minus the edges already handed to finishes, edited in place.

    Each vertex with edges points at the `_Piece` of its component, so the
    views pending on the work stack are exactly the pieces. Reads go through
    `neighbors`, `degree` and `has_edge`, as on a `Graph`, so the graph
    primitives run on it unchanged.

    Two structures follow the deletions.
    - A breadth-first tree of each piece, repaired as its edges go (Even &
      Shiloach, J. ACM 1981): when every vertex still hangs from the root,
      the piece has not split, and no search is needed to show it. Even and
      Shiloach pair the repair with a lockstep search for the smaller side;
      here that search (`split_off`) runs only once a repair has taken
      `_REPAIR_BUDGET` scans. Alone it would pay at every removal for the
      balls around the removed edges that a detour joins, which grow with n
      on random sparse graphs, whose short cycles are about log n long. A
      deletion queues an endpoint whose tree edge goes only if it keeps one.
    - The closest-pair buckets. Every vertex w keeps `low1[w]` and `low2[w]`,
      its two least neighbours of degree 1 or 2 (n when missing). Edges only
      ever disappear, so a vertex turns low once, when its degree drops to
      2, and stays low until it is isolated. Each deletion records its
      endpoints, and `flush` rescans them and the neighbours of the
      vertices that turned low in one pass, then witnesses, in a second,
      the vertices whose buckets changed.
    """

    def __init__(self, g: Graph):
        n = g.n
        # each slot shares g's frozenset until the vertex first loses an edge
        self.adj: list = list(g._adj)
        self.owner: list[_Piece | None] = [None] * n
        self.level = [0] * n
        self.parent = [-1] * n
        self.orphans: list[tuple[int, int]] = []  # heap of (level, vertex) to re-hang
        self.none = n
        self.low1 = [n] * n
        self.low2 = [n] * n
        self.dirty: list[int] = []  # endpoints of edges deleted since the last flush
        self.entered: list[int] = []  # vertices that turned low since then

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    # -- pieces ---------------------------------------------------------------

    def open(self, vertices: Sequence[int]) -> _Piece:
        """The piece of one component of the host, made editable."""
        self._rescan(vertices)
        return self._fill(_Piece(), vertices)

    def _fill(self, p: _Piece, vertices: Iterable[int]) -> _Piece:
        """Give p the given vertices, which must be whole components, with
        their counts, tree and buckets."""
        adj, owner = self.adj, self.owner
        h: list[tuple[int, ...]] = []
        ends = 0
        for v in vertices:
            owner[v] = p
            nbrs = adj[v]
            if not nbrs:
                continue
            ends += len(nbrs)
            p.verts.add(v)
            if len(nbrs) <= 2:
                p.low.add(v)
                h.extend((1, v, b) for b in nbrs if b > v and len(adj[b]) <= 2)
        # an edge between two vertices with one low neighbour each gets an
        # entry from both ends; the second is harmless
        self._witness(p.verts, h)
        p.m += ends // 2
        heapq.heapify(h)
        p.heap = h
        self.plant(p)
        return p

    def divide(self, p: _Piece, groups: Sequence[Sequence[int]]) -> list[_Piece]:
        """Split p into the given groups, which are the components of p's
        vertices, and return their pieces in order.

        The largest group keeps p; the others are relabelled, so a vertex
        moves O(log n) times in all (Even & Shiloach's smaller-half
        argument).
        """
        self.flush()
        keep = max(range(len(groups)), key=lambda i: len(groups[i]))
        out = []
        for i, group in enumerate(groups):
            if i == keep:
                out.append(p)
                continue
            q = self._fill(_Piece(), group)
            p.verts -= q.verts
            p.m -= q.m
            p.low -= q.low
            out.append(q)
        self.rehang(p)
        return out

    def sides(
        self, starts: Iterable[int], among: set[int], skip: Iterable[int] = ()
    ) -> tuple[tuple[int, ...], ...]:
        """The components that the vertices `among`, less `skip`, fall into,
        when each holds one of the starts: sorted tuples ordered by least
        vertex, or empty when they form one component, which is then not
        walked."""
        done = split_off(self, starts, skip)
        if not done:
            return ()
        rest = among.difference(skip, *done)
        return tuple(sorted(tuple(sorted(c)) for c in done + [rest]))

    # -- edits ----------------------------------------------------------------

    def delete(self, edges: Iterable[Edge]) -> None:
        adj, owner, parent, level = self.adj, self.owner, self.parent, self.level
        orphans, entered = self.orphans, self.entered
        for a, b in edges:
            p = owner[a]
            p.m -= 1
            for u, x in ((a, b), (b, a)):
                nbrs = adj[u]
                if nbrs.__class__ is frozenset:
                    nbrs = adj[u] = set(nbrs)
                nbrs.remove(x)
                d = len(nbrs)
                if not d:
                    # frees the vertex's own set, and its piece with its last vertex
                    adj[u] = _NO_EDGES
                    owner[u] = None
                    p.low.discard(u)
                    p.verts.discard(u)
                    continue  # and stays isolated, so needs no re-hanging
                if d == 2:
                    p.low.add(u)
                    entered.append(u)
                if parent[u] == x:
                    heapq.heappush(orphans, (level[u], u))
            self.dirty += (a, b)

    # -- the breadth-first trees -----------------------------------------------

    def plant(self, p: _Piece) -> None:
        """Lay p's tree out afresh, rooted at a vertex of largest degree and,
        among those, of largest id: the reduction works from the least ids
        up, so this root tends to be the last vertex isolated."""
        adj, level, parent = self.adj, self.level, self.parent
        if not p.verts:
            return
        root = max(p.verts, key=lambda v: (len(adj[v]), v))
        p.root = root
        level[root] = 0
        parent[root] = -1
        seen = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for x in adj[u]:
                    if x not in seen:
                        seen.add(x)
                        level[x] = level[u] + 1
                        parent[x] = u
                        nxt.append(x)
            frontier = nxt

    def repair(self, p: _Piece, budget: int) -> bool:
        """Re-hang the vertices of p whose tree edge was deleted; True when
        every vertex of p hangs from the root again, so p is connected.

        An orphan at level l takes any neighbour at level l - 1 as its
        parent; if it has none it moves down a level and its children become
        orphans, processed in level order. False when the root is isolated,
        when a level passes p's vertex count, or when the neighbour scans
        exceed `budget`: p may have split, and the caller decides. The
        orphans left stay queued, so a later call resumes.
        """
        adj, level, parent, owner = self.adj, self.level, self.parent, self.owner
        if not p.verts:
            return True
        if not adj[p.root]:
            return False
        heap = self.orphans
        work = 0
        while heap:
            lv, y = heap[0]
            up = parent[y]
            if lv != level[y] or owner[y] is not p or not adj[y] or (
                up in adj[y] and level[up] == lv - 1
            ):
                heapq.heappop(heap)
                continue
            if work > budget or lv >= len(p.verts):
                return False
            heapq.heappop(heap)
            for z in adj[y]:
                work += 1
                if level[z] == lv - 1:
                    parent[y] = z
                    break
            else:
                level[y] = lv + 1
                heapq.heappush(heap, (lv + 1, y))
                for c in adj[y]:
                    if parent[c] == y:
                        heapq.heappush(heap, (level[c], c))
                work += len(adj[y])
        return True

    def rehang(self, p: _Piece) -> None:
        """Bring p's tree up to date once p is known to be one component:
        finish the repair if it takes at most 2m scans, what planting afresh
        costs, and plant otherwise or when p's root has left it."""
        if p.root not in p.verts or not self.repair(p, 2 * p.m):
            self.plant(p)

    def flush(self) -> None:
        """Push the bucket entries that the deletions since the last flush
        created: a new low-low edge, and every vertex whose least low
        neighbours changed, witnessed once all of them are rescanned."""
        if not self.dirty:
            return
        adj, owner = self.adj, self.owner
        touched = set(self.dirty)
        for c in self.entered:
            nbrs = adj[c]
            if not nbrs:
                continue
            touched.update(nbrs)
            for b in nbrs:
                if len(adj[b]) <= 2:
                    heapq.heappush(owner[c].heap, (1, c, b) if c < b else (1, b, c))
        self.dirty.clear()
        self.entered.clear()
        fresh: list[tuple[int, ...]] = []
        self._witness(self._rescan(touched), fresh)
        for e in fresh:
            heapq.heappush(owner[e[3]].heap, e)

    # -- the closest-pair index ----------------------------------------------

    def _rescan(self, ws: Iterable[int]) -> list[int]:
        """Set low1[w] and low2[w] of each w in ws afresh, by one scan of its
        neighbours; returns the vertices whose values changed."""
        adj, low1, low2, none = self.adj, self.low1, self.low2, self.none
        changed = []
        for w in ws:
            m1 = m2 = none
            for x in adj[w]:
                if x < m2 and len(adj[x]) <= 2:
                    if x < m1:
                        m1, m2 = x, m1
                    else:
                        m2 = x
            if m1 != low1[w] or m2 != low2[w]:
                low1[w] = m1
                low2[w] = m2
                changed.append(w)
        return changed

    def _witness(self, ws: Iterable[int], out: list[tuple[int, ...]]) -> None:
        """Append the entries at distance 2 or 3 that the least low
        neighbours of each w in ws, low1[w] and low2[w], make, w fourth."""
        adj, low1, low2, none = self.adj, self.low1, self.low2, self.none
        for w in ws:
            a = low1[w]
            if low2[w] < none:
                out.append((2, a, low2[w], w))
            elif a < none:
                # w has just one low neighbour: distance 3 needs its edges to
                # the other vertices with just one
                for b in adj[w]:
                    c = low1[b]
                    if c < none and low2[b] == none and c != a:
                        out.append((3, a, c, w, b) if a < c else (3, c, a, w, b))

    def closest(self, p: _Piece) -> tuple[int, int, int] | None:
        """The closest pair of p's low vertices as (u, v, distance), ties by
        (distance, u, v), as `_closest_pair` finds it; None when it is at
        distance 4 or more.

        - Distance 1: the least edge whose ends are both low.
        - Distance 2, when no such edge exists: for each vertex w with two or
          more low neighbours, its two least ones; the least such pair.
        - Distance 3, when neither applies: now every vertex has at most one
          low neighbour, so the pairs are the edges (a, b) whose ends have
          different low neighbours, low1[a] and low1[b]. Only edges whose
          ends have one low neighbour each get entries.

        The heap keeps an entry for every live candidate, led by its
        distance, so its least live entry is the answer.
        """
        self.flush()
        h = p.heap
        adj, owner, low1, low2 = self.adj, self.owner, self.low1, self.low2
        while h:
            e = h[0]
            k = e[0]
            if k == 1:
                # both ends were low when pushed, and stay low while they touch
                if owner[e[1]] is p and e[2] in adj[e[1]]:
                    return e[1], e[2], 1
            elif k == 2:
                w = e[3]
                if owner[w] is p and low1[w] == e[1] and low2[w] == e[2]:
                    return e[1], e[2], 2
            else:
                a, b = e[3], e[4]
                if owner[a] is p and b in adj[a] and {low1[a], low1[b]} == {e[1], e[2]}:
                    return e[1], e[2], 3
            heapq.heappop(h)
        return None


class _Engine:
    """Runs the reduction from one work stack and keeps the shared trace.

    `plan` handles one view, a piece of the working graph: it logs the
    branch's steps, deletes the removed edges in place and returns the
    pieces left to decompose plus a `Finish` that folds their paths back in.
    A finish is plain data, and `solve` is the one place that runs it.
    """

    def __init__(self, g: Graph):
        self.steps: list[tuple] = []  # trace rows, see `_record`
        self.w = _WorkingGraph(g)

    def fail(self, msg: str) -> InternalInvariantViolation:
        return InternalInvariantViolation(msg, _steps(self.steps))

    def step(self, tag: str, size: tuple[int, int], vertices: dict[str, int], **detail) -> None:
        _record(self.steps, tag, vertices, size[0], size[1], detail)

    def solve(self, piece: _Piece) -> list[Path]:
        """Decompose one connected non-triangle piece, depth first.

        The stack holds pieces still to plan and, under each planned piece's
        sub-pieces, one flat tuple (start, n, *finish): the index of `out`
        where their paths start, the planned piece's vertex count and its
        finish. Sub-pieces are pushed in reverse so they run in order, and
        every step is logged as it runs, a finish's when it is run: the trace
        reads as the induction does. Any failure inside is the construction's,
        so it leaves as an InternalInvariantViolation carrying that trace.
        """
        out: list[Path] = []
        work: list = [piece]
        try:
            while work:
                item = work.pop()
                if isinstance(item, _Piece):
                    n = len(item.verts)
                    if item.m == 3 and n == 3:
                        tri = tuple(sorted(item.low))
                        raise self.fail(f"unexpected triangle component {tri}")
                    pieces, finish = self.plan(item)
                    work.append((len(out), n) + finish)
                    work.extend(reversed(pieces))
                    continue
                start, n, pairs, merge, tris = item[:5]
                if pairs:
                    self.extend(out, start, pairs)
                if merge is not None:
                    cyc, u, v, size = merge
                    into = _merge_cycle(cyc, out, start, u, v)
                    self.step("Subclaim1-Merge", size, {"u": u, "v": v}, cycle=cyc.ring, into=into)
                out.extend(_absorb(item[5], tris, self.steps) if tris else item[5:])
                if len(out) - start > n // 2:
                    raise self.fail(f"{len(out) - start} paths exceed floor({n}/2)")
        except (NoIntersectingPath, GeometryMismatch) as exc:
            raise self.fail(f"cycle merge: {exc}") from exc
        # a failed search or Path/Cycle/TraceStep check, or a fault that reads
        # or deletes what is not there (an InternalInvariantViolation is none)
        except (GraphError, ValueError, LookupError, AttributeError) as exc:
            raise self.fail(f"{type(exc).__name__}: {exc}") from exc
        return out

    # -- main dispatch ------------------------------------------------------

    def plan(self, p: _Piece) -> tuple[Sequence[_Piece], Finish]:
        """Pick the branch for one connected non-triangle piece."""
        g = self.w
        if p.m == 0:
            return (), ((), None, ())
        if p.m == 1:
            u, v = sorted(p.low)
            self.step("Base", p.size, {"u": u, "v": v})
            g.delete([(u, v)])
            return (), ((), None, (), Path((u, v)))
        if len(p.verts) == 3:
            # a connected view on 3 vertices has them all low
            low = sorted(p.low)
            mid = next(v for v in low if g.degree(v) == 2)
            a, b = (v for v in low if v != mid)
            self.step("Base", p.size, {"mid": mid})
            g.delete([(a, mid), (mid, b)])
            return (), ((), None, (), Path((a, mid, b)))

        if len(p.low) >= 2:
            return self.reduce_two_low_degree(p)
        if not p.low:
            raise self.fail("no vertex of degree <= 2 in a 2-degenerate view")
        (v,) = p.low
        if g.degree(v) == 1:
            return self.reduce_pendant(p, v)
        comps = g.sides(g.neighbors(v), p.verts, skip={v})
        if comps:
            return self.reduce_degree2_cut(p, v, comps)
        return self._final_cases(p, v)

    def _final_cases(self, p: _Piece, v: int) -> tuple[Sequence[_Piece], Finish]:
        # v is the unique low vertex, degree 2, not an articulation point.
        g = self.w
        candidates = sorted(u for u in g.neighbors(v) if g.degree(u) == 3)
        if not candidates:
            raise self.fail(f"no degree-3 neighbour of the unique low vertex {v}")

        for x in candidates:
            if is_cut_vertex(g, x):
                return self.reduce_x_cut(p, v, x)

        # Either support vertex with a degree-3 neighbour takes the short route.
        for x in candidates:
            zs = sorted(z for z in g.neighbors(x) if z != v and g.degree(z) == 3)
            if zs:
                return self.reduce_case_deg3_neighbor(p, v, x, zs[0])

        x = candidates[0]
        y = next(iter(g.neighbors(v) - {x}))
        if g.degree(y) == 3:
            return self.reduce_case_y3(p, v, x, y)
        return self.reduce_case_y4(p, v, x, y)

    # -- shared machinery ---------------------------------------------------

    def pieces(self, p: _Piece, near: Iterable[int]) -> list[_Piece]:
        """The pieces p falls into, logging a split.

        p must come from a connected view by deleting edges, and every
        edge-bearing component left must contain a vertex of `near` (an
        endpoint of each deleted edge will do). A repaired tree shows that p
        did not split; only when the repair stalls are the components
        searched for.
        """
        g = self.w
        if g.repair(p, _REPAIR_BUDGET):
            return [p]
        comps = g.sides(near, p.verts)
        if not comps:
            # p has at most one edge-bearing component, so it is the view
            g.rehang(p)
            return [p]
        return self.split(p, p.size, comps)

    def split(
        self, p: _Piece, size: tuple[int, int], sides: Sequence[tuple[int, ...]]
    ) -> list[_Piece]:
        """Log p's split into `sides`, at the view size `size`, and divide it."""
        self.step("ComponentSplit", size, {}, components=sides)
        return self.w.divide(p, sides)

    def two_sides(
        self, comps: tuple[tuple[int, ...], ...], a: int, b: int, what: str
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The components holding a and b, which a cut must have made: exactly
        two, one each, neither a triangle."""
        if len(comps) != 2:
            raise self.fail(f"{what} split into {len(comps) or 1} pieces, expected 2")
        side_a, side_b = comps if a in comps[0] else comps[::-1]
        if b not in side_b:
            raise self.fail(f"{what}: {a} and {b} stayed in one piece")
        if self.is_triangle(side_a) or self.is_triangle(side_b):
            raise self.fail(f"{what}: triangle piece beside {a} or {b}")
        return side_a, side_b

    def only(self, items: Iterable[int], what: str) -> int:
        """The one element of items, which a branch needs to be unique."""
        items = sorted(items)
        if len(items) != 1:
            raise self.fail(f"{what}: found {items}, expected exactly one")
        return items[0]

    def deg3_first(self, nbrs: Iterable[int], what: str) -> tuple[int, int]:
        """The two vertices of nbrs, the least of degree 3 first."""
        pair = sorted(nbrs)
        if len(pair) != 2:
            raise self.fail(f"{what}: found {pair}, expected two")
        a, b = pair
        if self.w.degree(a) == 3:
            return a, b
        if self.w.degree(b) == 3:
            return b, a
        raise self.fail(f"{what}: neither {a} nor {b} has degree 3")

    def is_triangle(self, c: Sequence[int]) -> bool:
        """Whether a component c of the graph less some vertices is a triangle."""
        if len(c) != 3:
            return False
        a, b, d = c
        return self.w.has_edge(a, b) and self.w.has_edge(a, d) and self.w.has_edge(b, d)

    def shortest(self, s: int, t: int, banned: set[int], what: str) -> Path:
        try:
            return shortest_path(self.w, s, t, forbidden_vertices=banned)
        except NoPath:
            raise self.fail(
                f"missing {what}: no {s}->{t} path avoiding {sorted(banned)}"
            ) from None

    def run_plan(
        self,
        p: _Piece,
        tag: str,
        vertices: dict[str, int],
        carrier: Path,
        reattach: tuple[tuple[int, int], ...],
        **detail,
    ) -> tuple[Sequence[_Piece], Finish]:
        """Remove the reattach edges, then the carrier; the finish reattaches,
        then absorbs the triangles the removal left.

        The view is connected, so every component left by a removal contains
        an endpoint of a removed edge: the searches start from those alone.
        """
        g = self.w
        size = p.size
        touched = carrier.vertices
        removed = edges = [(a, b) if a < b else (b, a) for a, b in zip(touched, touched[1:])]
        if reattach:
            pre_removed = self.reattach(reattach)
            removed = edges + pre_removed
            pre_ends = [w for e in pre_removed for w in e]
            if triangle_components(g, near=pre_ends):
                raise self.fail(f"{tag}: edge removal exposed a triangle component")
            touched = pre_ends + list(touched)
        g.delete(edges)
        removed.sort()
        tris = tuple(triangle_components(g, near=touched))
        self.step(
            tag,
            size,
            vertices,
            carrier=carrier.vertices,
            removed=tuple(removed),
            triangles=tris,
            reattach=reattach,
            **detail,
        )
        if tris:
            g.delete(e for t in tris for e in _triangle_edges(t))
        return self.pieces(p, touched), (reattach, None, tris, carrier)

    def reattach(self, pairs: Sequence[tuple[int, int]]) -> list[Edge]:
        """Check a finish's (endpoint, new) pairs against the view, then
        delete their edges, which the finish puts back; returns the edges."""
        for endpoint, new in pairs:
            if not self.w.has_edge(endpoint, new):
                raise self.fail(f"reattach edge ({endpoint}, {new}) missing")
        edges = [norm_edge(a, b) for a, b in pairs]
        self.w.delete(edges)
        return edges

    def extend(self, out: list[Path], start: int, pairs: Sequence[tuple[int, int]]) -> None:
        """Extend, in order, the path of out[start:] ending at each pair's
        endpoint by the pair's new vertex.

        Consecutive pairs that chain (this endpoint is the vertex the previous
        pair appended) keep growing the same path; otherwise exactly one path
        may end at the endpoint.
        """
        prev: tuple[int, int] | None = None  # (index, appended vertex)
        for endpoint, new in pairs:
            if prev is not None and prev[1] == endpoint:
                idx = prev[0]
            else:
                hits = (i for i in range(start, len(out)) if endpoint in out[i].endpoints)
                idx = self.only(hits, f"indices of the paths ending at {endpoint}")
            p = out[idx]
            if new in p.vertices:
                raise self.fail(f"extension vertex {new} already on the path")
            if p.vertices[0] == endpoint:
                out[idx] = Path((new,) + p.vertices)
            else:
                out[idx] = Path(p.vertices + (new,))
            prev = (idx, new)

    # -- the reduction branches ---------------------------------------------

    def reduce_two_low_degree(self, p: _Piece) -> tuple[Sequence[_Piece], Finish]:
        """Two or more degree-<=2 vertices: remove a carrier through the
        closest pair, or merge the short cycle their edges close into."""
        g = self.w
        pair = g.closest(p) or _closest_pair(g, sorted(p.low))
        if pair is None:
            raise self.fail("low vertices share no component")
        u, v, dist = pair
        # the carrier's core as `shortest_path` finds it: a search from u in
        # ascending id meets v at distance 2 through their least common neighbour
        if dist <= 2:
            core = (u, v) if dist == 1 else (u, min(g.neighbors(u) & g.neighbors(v)), v)
        else:
            core = self.shortest(u, v, set(), "Claim 1 carrier").vertices
        ext_u = self.spare_neighbor(u, core[1])
        ext_v = self.spare_neighbor(v, core[-2])

        if dist > 2:
            for e, name in ((ext_u, "u"), (ext_v, "v")):
                if e is not None and e in core:
                    raise self.fail(f"extension at {name} lands on the carrier")
            if ext_u is not None and ext_u == ext_v:
                raise self.fail("extensions coincide on a long carrier")

        if dist > 2 or ext_u is None or ext_v is None or ext_u != ext_v:
            # A long carrier, or a short one whose closed walk stays a path.
            seq = ((ext_u,) if ext_u is not None else ()) + core
            seq = seq + ((ext_v,) if ext_v is not None else ())
            return self.run_plan(
                p,
                "Claim1-Path",
                {"u": u, "v": v},
                Path(seq),
                reattach=(),
                distance=dist,
            )

        ring = (u, v, ext_u) if dist == 1 else (u, core[1], v, ext_u)
        return self._cycle_route(p, Cycle(ring), u, v)

    def spare_neighbor(self, v: int, path_next: int) -> int | None:
        """The neighbour of a degree-<=2 vertex not already used by the carrier."""
        spare = None
        for x in self.w.neighbors(v):
            if x != path_next:
                if spare is not None:
                    raise self.fail(f"vertex {v} is not low-degree")
                spare = x
        return spare

    def _cycle_route(
        self, p: _Piece, cyc: Cycle, u: int, v: int
    ) -> tuple[Sequence[_Piece], Finish]:
        g = self.w
        size = p.size
        tag = "Claim1-Cycle3" if len(cyc) == 3 else "Claim1-Cycle4"
        self.step(tag, size, {"u": u, "v": v}, cycle=cyc.ring)
        g.delete(cyc.edges())
        tris = triangle_components(g, near=cyc.ring)
        if len(tris) > 1:
            raise self.fail("more than one triangle component around the cycle")

        if tris:
            t = tris[0]
            pair = merge_cycle_with_triangle(cyc, t)
            self.step(
                "Subclaim2-Merge",
                size,
                {"u": u, "v": v},
                cycle=cyc.ring,
                triangle=t,
                merged=tuple(q.vertices for q in pair),
            )
            g.delete(_triangle_edges(t))
            return self.pieces(p, cyc.ring), ((), None, (), *pair)
        return self.pieces(p, cyc.ring), ((), (cyc, u, v, size), ())

    def reduce_pendant(self, p: _Piece, v: int) -> tuple[Sequence[_Piece], Finish]:
        """Unique low vertex is a pendant: peel it through its support x."""
        g = self.w
        x = next(iter(g.neighbors(v)))
        if g.degree(x) != 3:
            raise self.fail(f"pendant support {x} has degree {g.degree(x)}, not 3")
        w, z = self.deg3_first(g.neighbors(x) - {v}, f"Claim2: neighbours of the support {x}")

        comps = g.sides((w, z), p.verts, skip={v, x})
        if not comps:
            p0 = self.shortest(w, z, {x}, "pendant support detour")
            carrier = Path(p0.vertices + (x,))
            return self.run_plan(
                p,
                "Claim2-Case1",
                {"v": v, "x": x, "w": w, "z": z},
                carrier,
                reattach=((w, x), (x, v)),
            )
        return self._pendant_split(p, v, x, w, z, comps)

    def _pendant_split(
        self,
        p: _Piece,
        v: int,
        x: int,
        w: int,
        z: int,
        comps: tuple[tuple[int, ...], ...],
    ) -> tuple[Sequence[_Piece], Finish]:
        g = self.w
        comp_j, comp_i = self.two_sides(comps, w, z, f"Claim2: pendant support {x}")
        for t in (w, z):
            if g.degree(t) != 3:
                raise self.fail(f"split neighbour {t} has degree {g.degree(t)}, not 3")
        if len(comp_j) % 2 != 0 and len(comp_i) % 2 == 0:
            w, z = z, w
            comp_i, comp_j = comp_j, comp_i

        if len(comp_j) % 2 == 1:
            # Both sides odd: two extra paths cover the support's star.
            self.step(
                "Claim2-Case2-OddOdd",
                p.size,
                {"v": v, "x": x, "w": w, "z": z},
                sides=(comp_i, comp_j),
            )
            g.delete([norm_edge(v, x), norm_edge(x, w), norm_edge(x, z)])
            return self.pieces(p, (w, z)), ((), None, (), Path((w, x, z)), Path((v, x)))

        sub_comps = g.sides(g.neighbors(w) - {x}, set(comp_j), skip={x, w})
        if sub_comps:
            return self._pendant_even_cut(p, v, x, w, z, comp_i, sub_comps)
        return self._pendant_even_open(p, v, x, w, z)

    def _pendant_even_cut(self, p, v, x, w, z, comp_i, sub_comps):
        g = self.w
        size = p.size
        # w has degree 3, so its neighbours a and b besides x start the cut
        a, b = sorted(g.neighbors(w) - {x})
        j1, j2 = self.two_sides(sub_comps, a, b, f"Claim2-Subcase2.1: even side at {w}")
        if len(j1) % 2 == len(j2) % 2:
            raise self.fail(f"Claim2-Subcase2.1: even side at {w} did not split odd/even")
        if len(j1) % 2 == 0:
            a, b, j1, j2 = b, a, j2, j1
        self.step(
            "Claim2-Subcase2.1",
            size,
            {"v": v, "x": x, "w": w, "z": z, "a": a, "b": b},
            odd_side=j1,
            even_side=j2,
        )
        g.delete([norm_edge(v, x), norm_edge(x, w), norm_edge(x, z), norm_edge(w, a)])
        # Decompose the far side, the odd piece, and the even piece with w.
        sides = (comp_i, j1, tuple(sorted(j2 + (w,))))
        return self.split(p, size, sides), ((), None, (), Path((a, w, x, z)), Path((v, x)))

    def _pendant_even_open(self, p, v, x, w, z):
        a, b = self.deg3_first(
            self.w.neighbors(w) - {x}, f"Claim2-Subcase2.2: neighbours of {w} in the even side"
        )
        p0 = self.shortest(a, b, {w}, "even-side detour")
        carrier = Path(p0.vertices + (w,))
        return self.run_plan(
            p,
            "Claim2-Subcase2.2",
            {"v": v, "x": x, "w": w, "z": z, "a": a, "b": b},
            carrier,
            reattach=((a, w), (w, x), (x, v)),
        )

    def reduce_degree2_cut(
        self, p: _Piece, v: int, comps: tuple[tuple[int, ...], ...]
    ) -> tuple[Sequence[_Piece], Finish]:
        """Unique low vertex of degree 2 is an articulation point."""
        size = p.size
        x, y = sorted(self.w.neighbors(v))
        comp_x, comp_y = self.two_sides(comps, x, y, f"Claim3: degree-2 articulation {v}")
        self.step(
            "Claim3",
            size,
            {"v": v, "x": x, "y": y},
            x_side=comp_x,
            y_side=comp_y,
        )
        # v stays on x's side with the edge vx; vy is reattached.
        pairs = ((v, y),)
        self.reattach(pairs)
        return self.split(p, size, (comp_x + (v,), comp_y)), (pairs, None, ())

    def reduce_x_cut(self, p: _Piece, v: int, x: int) -> tuple[Sequence[_Piece], Finish]:
        """The support vertex x is an articulation point of the whole graph."""
        g = self.w
        y = next(iter(g.neighbors(v) - {x}))
        p0 = self.shortest(x, y, {v}, "support-to-partner detour")
        z = p0.vertices[1]
        w = self.only(g.neighbors(x) - {v, z}, f"Claim4: spare neighbours of {x}")
        size = p.size
        pairs = ((x, z), (v, x))
        self.reattach(pairs)
        comps = g.sides((x, z, v), p.verts)
        comp_a, comp_b = self.two_sides(comps, x, v, f"Claim4: support articulation {x}")
        self.step(
            "Claim4",
            size,
            {"v": v, "x": x, "y": y, "z": z, "w": w},
            a_side=comp_a,
            b_side=comp_b,
        )
        # Extend within the pieces: x's stub picks up xz, v's picks up vx.
        return self.split(p, size, (comp_a, comp_b)), (pairs, None, ())

    def reduce_case_deg3_neighbor(
        self, p: _Piece, v: int, x: int, z: int
    ) -> tuple[Sequence[_Piece], Finish]:
        """The support x has a degree-3 neighbour z: reroute through it."""
        g = self.w
        p0 = self.shortest(z, v, {x}, "low-vertex detour")
        t = self.only(g.neighbors(z) - {x, p0.vertices[1]}, f"Case1-Deg3Neighbor: spares of {z}")
        if t in p0.vertices:
            raise self.fail("spare edge of z lands on a shortest detour")
        carrier = Path((t,) + p0.vertices + (x,))
        return self.run_plan(
            p,
            "Case1-Deg3Neighbor",
            {"v": v, "x": x, "z": z, "t": t},
            carrier,
            reattach=((x, z),),
        )

    def reduce_case_y3(
        self, p: _Piece, v: int, x: int, y: int
    ) -> tuple[Sequence[_Piece], Finish]:
        """Both neighbours of v have degree 3 and no degree-3 contacts of
        their own: they share a degree-4 vertex that carries the removal."""
        g = self.w
        if g.has_edge(x, y):
            raise self.fail(f"supports {x},{y} adjacent yet filtered as contact-free")
        zs = sorted(
            c for c in g.neighbors(x) & g.neighbors(y) if g.degree(c) == 4
        )
        if not zs:
            raise self.fail(f"no shared degree-4 neighbour of {x} and {y}")
        z = zs[0]
        w = self.only(g.neighbors(x) - {v, z}, f"Subcase2.1-Y3: spare neighbours of {x}")
        carrier = Path((y, z, x, w))
        return self.run_plan(
            p,
            "Subcase2.1-Y3",
            {"v": v, "x": x, "y": y, "z": z, "w": w},
            carrier,
            reattach=((y, v), (v, x)),
        )

    def reduce_case_y4(
        self, p: _Piece, v: int, x: int, y: int
    ) -> tuple[Sequence[_Piece], Finish]:
        """v's other neighbour has degree 4: it must touch x; peel both."""
        g = self.w
        if g.degree(y) != 4:
            raise self.fail(f"partner {y} has degree {g.degree(y)}, expected 4")
        if not g.has_edge(x, y):
            raise self.fail(f"partner {y} not adjacent to support {x}")
        z = self.only(g.neighbors(x) - {v, y}, f"Subcase2.2-Y4: spare neighbours of {x}")
        p0 = self.shortest(z, v, {x}, "spare-to-low detour")
        carrier = Path((x,) + p0.vertices)
        return self.run_plan(
            p,
            "Subcase2.2-Y4",
            {"v": v, "x": x, "y": y, "z": z},
            carrier,
            reattach=((y, x), (x, v)),
        )


# -- helpers ------------------------------------------------------------------


def _triangle_edges(t: Sequence[int]) -> list[Edge]:
    a, b, c = sorted(t)
    return [(a, b), (a, c), (b, c)]


def _absorb(
    p: Path, triangles: Sequence[tuple[int, ...]], steps: list[tuple]
) -> list[Path]:
    """Fold j triangle components into the carrier path: j+1 paths out.

    Walks the carrier from its first vertex; the triangle contacted
    earliest is split off into a path Q while the rest of the carrier is
    rethreaded into a path R that still visits every later contact point,
    then the walk goes on along R. Each fold is logged in the rows `steps`.
    """
    out: list[Path] = []
    while triangles:
        pos = {v: i for i, v in enumerate(p.vertices)}
        contact = []
        for t in triangles:
            hits = sorted(pos[v] for v in t if v in pos)
            if not hits:
                raise InternalInvariantViolation(
                    f"triangle {t} never touches the carrier", _steps(steps)
                )
            contact.append((hits[0], hits, t))
        contact.sort()
        _, hits, tri = contact[0]
        verts = p.vertices

        if len(hits) == 3:
            x, y, z = (verts[i] for i in hits)
            w = verts[hits[2] - 1]
            q = Path(verts[: hits[0] + 1] + (y, z, w))
            r = Path(verts[hits[0] : hits[2]][::-1] + verts[hits[2] :])
            tag = "Lemma1-Case1"
            bound = {"x": x, "y": y, "z": z, "w": w}
        elif len(hits) == 2:
            x, y = verts[hits[0]], verts[hits[1]]
            z = next(v for v in tri if v not in pos)
            w = verts[hits[1] - 1]
            q = Path(verts[: hits[0] + 1] + (y, w))
            r = Path(verts[hits[0] : hits[1]][::-1] + (z,) + verts[hits[1] :])
            tag = "Lemma1-Case2"
            bound = {"x": x, "y": y, "z": z, "w": w}
        else:
            x = verts[hits[0]]
            y, z = sorted(v for v in tri if v not in pos)
            q = Path(verts[: hits[0] + 1] + (y, z))
            r = Path((z,) + verts[hits[0] :])
            tag = "Lemma1-Case3"
            bound = {"x": x, "y": y, "z": z}

        scope = set(verts).union(*(set(t) for t in triangles))
        _record(
            steps,
            tag,
            bound,
            len(scope),
            (len(verts) - 1) + len(triangles) * 3,
            {"triangle": tri, "carrier": verts, "q": q.vertices, "r": r.vertices},
        )
        out.append(q)
        p = r
        triangles = tuple(t for t in triangles if t != tri)
    out.append(p)
    return out


def _closest_pair(g: Graph, low: Sequence[int]) -> tuple[int, int, int] | None:
    """Closest pair among the low vertices as (u, v, distance), ties by
    (distance, u, v); None if no two of them share a component.

    One breadth-first search per low vertex: the engine asks it only when the
    index has no pair within distance 3, and the tests compare the index
    with it."""
    best: tuple[int, int, int] | None = None  # (dist, u, v)
    low_set = set(low)
    for u in sorted(low):
        if best is not None and best[0] == 1:
            break
        limit = best[0] - 1 if best is not None else None
        dist = 0
        seen = {u}
        frontier = [u]
        while frontier and (limit is None or dist < limit):
            dist += 1
            nxt: list[int] = []
            found: int | None = None
            for a in frontier:
                for b in g.neighbors(a):
                    if b in seen:
                        continue
                    seen.add(b)
                    nxt.append(b)
                    if b in low_set and b > u and (found is None or b < found):
                        found = b
            if found is not None:
                cand = (dist, u, found)
                if best is None or cand < best:
                    best = cand
                break
            frontier = nxt
    return None if best is None else (best[1], best[2], best[0])


def _merge_cycle(cyc: Cycle, out: list[Path], start: int, u: int, v: int) -> tuple[int, ...]:
    """Split the first path of out[start:] that meets the cycle into two, in
    place, absorbing the cycle's edges. Returns the split path's vertices."""
    ring = cyc.ring
    if ring[0] != u or (len(ring) == 3 and ring[1] != v) or (len(ring) == 4 and ring[2] != v):
        raise GeometryMismatch("cycle ring must start at u with v opposite")
    contacts = (ring[2],) if len(ring) == 3 else (ring[1], ring[3])
    for i in range(start, len(out)):
        w = out[i].vertices
        hits = [w.index(x) for x in contacts if x in w]
        if hits:
            break
    else:
        raise NoIntersectingPath("no decomposition path meets the cycle")
    # cut the host path at its first contact c: u, v and the other contacts
    # close the prefix, and u opens the suffix
    k = min(hits)
    rest = tuple(x for x in contacts if x != w[k])
    out[i : i + 1] = [Path(w[: k + 1] + (v,) + rest + (u,)), Path((u,) + w[k:])]
    return w


# -- public operations ----------------------------------------------------------


def decompose(g: Graph) -> tuple[Decomposition, ReductionTrace, bool]:
    """Decompose every component of g into edge-disjoint paths.

    Raises NotTwoDegenerate if some induced subgraph has minimum degree >= 3.
    Triangle components get two paths each and clear bound_met; every other
    component meets floor(n_c/2), so without triangles the total stays within
    floor(n/2) over non-isolated vertices.
    """
    if not is_two_degenerate(g):
        degeneracy_order(g)  # raises NotTwoDegenerate with the stuck 3-core
    eng = _Engine(g)
    comps = connected_components(g)
    n = sum(c.n for c in comps)  # the non-isolated vertices
    if len(comps) > 1:
        eng.step(
            "ComponentSplit",
            (n, g.m),
            {},
            components=tuple(c.vertices for c in comps),
        )
    paths: list[Path] = []
    per_component = 0
    met = True
    for c in comps:
        if c.is_triangle:
            a, b, cc = c.vertices
            paths.extend([Path((a, b, cc)), Path((a, cc))])
            eng.step("Base", (3, 3), {}, triangle=c.vertices)
            per_component += 2
            met = False
        else:
            per_component += c.n // 2
            paths.extend(eng.solve(eng.w.open(c.vertices)))
    claimed = n // 2 if met else per_component
    dec = Decomposition(paths=tuple(paths), claimed_bound=claimed, bound_met=met)
    trace = ReductionTrace.__new__(ReductionTrace)  # steps unset till read
    object.__setattr__(trace, "_rows", eng.steps)
    return dec, trace, met


def absorb_triangles(
    p: Path, triangles: Sequence[Sequence[int]], g: Graph
) -> list[Path]:
    """Fold triangle components of g - E(p) into p: j triangles -> j+1 paths.

    Every supplied triple must be a triangle component of g - E(p) touching p
    in at least one vertex; TriangleNotComponent otherwise.
    """
    for a, b in p.edges():
        if not g.has_edge(a, b):
            raise ValueError(f"carrier edge ({a}, {b}) not in the host graph")
    remainder = g.without_edges(p.edges())
    actual = set(triangle_components(remainder))
    on_path = set(p.vertices)
    tris: list[tuple[int, ...]] = []
    for t in triangles:
        key = tuple(sorted(t))
        if key not in actual:
            raise TriangleNotComponent(f"{key} is not a triangle component off the path")
        if not on_path & set(key):
            raise TriangleNotComponent(f"{key} never touches the path")
        tris.append(key)
    return _absorb(p, tuple(tris), [])


def merge_cycle_with_triangle(c: Cycle, t: Sequence[int]) -> list[Path]:
    """Two paths covering a short cycle plus a triangle component hanging on it.

    Supported shapes: a 3-cycle sharing exactly its third ring vertex with the
    triangle, or a 4-cycle sharing both off-pair ring vertices.
    """
    tset = set(t)
    if len(tset) != 3:
        raise GeometryMismatch(f"not a triangle: {sorted(tset)}")
    ring = c.ring
    shared = [rv for rv in ring if rv in tset]
    if len(ring) == 3:
        if shared != [ring[2]]:
            raise GeometryMismatch(
                f"3-cycle must share exactly its contact vertex, got {shared}"
            )
        x = ring[2]
        p, q = sorted(tset - {x})
        return [Path((ring[0], ring[1], x, p, q)), Path((ring[0], x, q))]
    if len(ring) == 4:
        if set(shared) != {ring[1], ring[3]}:
            raise GeometryMismatch(
                f"4-cycle must share both contact vertices, got {shared}"
            )
        x, y = ring[1], ring[3]
        a = next(iter(tset - {x, y}))
        return [
            Path((ring[2], y, a, x, ring[0])),
            Path((ring[0], y, x, ring[2])),
        ]
    raise GeometryMismatch(f"unsupported cycle length {len(ring)}")


# -- decomposition text format --------------------------------------------------


def format_decomposition(d: Decomposition) -> str:
    """Header `paths <k> bound <b> met <true|false>`, then one path per line."""
    lines = [
        f"paths {len(d.paths)} bound {d.claimed_bound} met "
        f"{'true' if d.bound_met else 'false'}"
    ]
    lines.extend(" ".join(str(v) for v in p.vertices) for p in d.paths)
    return "\n".join(lines) + "\n"
