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

All tie-breaks are by lowest vertex id, so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .graph import (
    Component,
    Cycle,
    Edge,
    Graph,
    NoPath,
    Path,
    connected_components,
    degeneracy_order,
    in_one_component,
    is_cut_vertex,
    norm_edge,
    shortest_path,
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


@dataclass(frozen=True)
class TraceStep:
    """One branch decision: its tag, the vertices it bound, and the view size."""

    tag: str
    vertices: dict[str, int]
    n: int
    m: int
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag not in BRANCH_TAGS:
            raise ValueError(f"unknown branch tag {self.tag!r}")

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "vertices": dict(self.vertices),
            "n": self.n,
            "m": self.m,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ReductionTrace:
    """Ordered record of every branch the decomposition took."""

    steps: tuple[TraceStep, ...]

    def histogram(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.steps:
            out[s.tag] = out.get(s.tag, 0) + 1
        return out

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.steps]


@dataclass(frozen=True)
class Decomposition:
    """A set of edge-disjoint paths claimed to cover the host graph's edges.

    `claimed_bound` is the certificate's own claim: floor(n/2) over the host's
    non-isolated vertices when every component stays within that target, or
    the honest per-component sum (a triangle component needs 2) otherwise.
    `bound_met` is false iff some component is a triangle, the only shape the
    floor(n/2) target cannot cover.
    """

    paths: tuple[Path, ...]
    host: Graph
    claimed_bound: int
    bound_met: bool = True

    def to_json(self) -> dict:
        return {
            "paths": [list(p.vertices) for p in self.paths],
            "bound": self.claimed_bound,
            "met": self.bound_met,
        }


# Folds the paths of a plan's pieces, in piece order, into the planned view's.
Finish = Callable[[list[Path]], list[Path]]


class _Engine:
    """Runs the reduction from one work stack and keeps the shared trace.

    `plan` handles one view: it logs the branch's steps and returns the
    connected pieces left to decompose plus a `finish` that folds their
    paths back in. A finish holds only vertices, paths and triangles, never a
    view, so a view is freed once it is planned.
    """

    def __init__(self):
        self.steps: list[TraceStep] = []

    def fail(self, msg: str) -> InternalInvariantViolation:
        return InternalInvariantViolation(msg, self.steps)

    def step(self, tag: str, g: Graph, vertices: dict[str, int], **detail) -> None:
        self.steps.append(TraceStep(tag, vertices, g.non_isolated_count(), g.m, detail))

    def solve(self, view: Graph) -> list[Path]:
        """Decompose one connected non-triangle view, depth first.

        The stack holds views still to plan and, under each planned view's
        pieces, its finish with the index of `out` where the pieces' paths
        start. Pieces are pushed in reverse so they run in order, and every
        step is logged as it runs: the trace reads as the induction does.
        """
        out: list[Path] = []
        work: list = [view]
        try:
            while work:
                item = work.pop()
                if isinstance(item, Graph):
                    if item.m == 3 and item.non_isolated_count() == 3:
                        tri = tuple(sorted(item.low_vertices()))
                        raise self.fail(f"unexpected triangle component {tri}")
                    pieces, finish = self.plan(item)
                    work.append((finish, len(out), item.non_isolated_count()))
                    work.extend(reversed(pieces))
                    continue
                finish, start, n = item
                out[start:] = finish(out[start:])
                if len(out) - start > n // 2:
                    raise self.fail(f"{len(out) - start} paths exceed floor({n}/2)")
        except (NoIntersectingPath, GeometryMismatch) as exc:
            raise self.fail(f"cycle merge: {exc}") from exc
        return out

    # -- main dispatch ------------------------------------------------------

    def plan(self, g: Graph) -> tuple[Sequence[Graph], Finish]:
        """Pick the branch for one connected non-triangle view."""
        n = g.non_isolated_count()
        # ascending; a connected view on at most 3 vertices has them all here
        low = sorted(g.low_vertices())

        if g.m == 0:
            return (), lambda _: []
        if g.m == 1:
            (u, v) = low
            self.step("Base", g, {"u": u, "v": v})
            return (), lambda _: [Path((u, v))]
        if n == 3:
            mid = next(v for v in low if g.degree(v) == 2)
            a, b = (v for v in low if v != mid)
            self.step("Base", g, {"mid": mid})
            return (), lambda _: [Path((a, mid, b))]

        if len(low) >= 2:
            return self.reduce_two_low_degree(g, low)
        if not low:
            raise self.fail("no vertex of degree <= 2 in a 2-degenerate view")
        v = low[0]
        if g.degree(v) == 1:
            return self.reduce_pendant(g, v)
        cut_v, comps_v = is_cut_vertex(g, v)
        if cut_v:
            return self.reduce_degree2_cut(g, v, comps_v)
        return self._final_cases(g, v)

    def _final_cases(self, g: Graph, v: int) -> tuple[Sequence[Graph], Finish]:
        # v is the unique low vertex, degree 2, not an articulation point.
        candidates = sorted(u for u in g.neighbors(v) if g.degree(u) == 3)
        if not candidates:
            raise self.fail(f"no degree-3 neighbour of the unique low vertex {v}")

        for x in candidates:
            cut_x, _ = is_cut_vertex(g, x)
            if cut_x:
                return self.reduce_x_cut(g, v, x)

        # Either support vertex with a degree-3 neighbour takes the short route.
        for x in candidates:
            zs = sorted(z for z in g.neighbors(x) if z != v and g.degree(z) == 3)
            if zs:
                return self.reduce_case_deg3_neighbor(g, v, x, zs[0])

        x = candidates[0]
        y = next(iter(g.neighbors(v) - {x}))
        if g.degree(y) == 3:
            return self.reduce_case_y3(g, v, x, y)
        return self.reduce_case_y4(g, v, x, y)

    # -- shared machinery ---------------------------------------------------

    def pieces(self, g: Graph, near: Iterable[int]) -> list[Graph]:
        """The edge-bearing components of g, logging a split.

        g must come from a connected view by deleting edges, and every
        edge-bearing component of g must contain a vertex of `near` (an
        endpoint of each deleted edge will do). Only a split pays for a full
        component search.
        """
        if in_one_component(g, near):
            # g has at most one edge-bearing component, so it is the view
            return [g]
        comps = [c for c in connected_components(g) if c.m > 0]
        if len(comps) > 1:
            self.step("ComponentSplit", g, {}, components=[list(c.vertices) for c in comps])
        return [c.graph for c in comps]

    def shortest(self, g: Graph, s: int, t: int, banned: set[int], what: str) -> Path:
        try:
            return shortest_path(g, s, t, forbidden_vertices=banned)
        except NoPath:
            raise self.fail(
                f"missing {what}: no {s}->{t} path avoiding {sorted(banned)}"
            ) from None

    def run_plan(
        self,
        g: Graph,
        tag: str,
        vertices: dict[str, int],
        carrier: Path,
        pre_removed: Sequence[Edge],
        reattach: Sequence[tuple[int, int]],
        clean_removal: bool,
        **detail,
    ) -> tuple[Sequence[Graph], Finish]:
        """Remove pre_removed + carrier; the finish reattaches, then absorbs
        the triangles the removal left.

        g is connected, so every component left by a removal contains an
        endpoint of a removed edge: the searches start from those alone.
        """
        trimmed = g.without_edges(pre_removed) if pre_removed else g
        pre_ends = [w for e in pre_removed for w in e]
        if clean_removal and triangle_components(trimmed, near=pre_ends):
            raise self.fail(f"{tag}: edge removal exposed a triangle component")

        remainder = trimmed.without_edges(carrier.edges())
        touched = pre_ends + list(carrier.vertices)
        tris = tuple(triangle_components(remainder, near=touched))
        carrier_edges = set(carrier.edges())
        removed = carrier_edges | set(pre_removed)
        if removed != carrier_edges | {norm_edge(a, b) for a, b in reattach}:
            raise self.fail(f"{tag}: removed edges are not the carrier plus reattach edges")
        self.step(
            tag,
            g,
            vertices,
            carrier=list(carrier.vertices),
            removed=[list(e) for e in sorted(removed)],
            triangles=[list(t) for t in tris],
            reattach=[list(r) for r in reattach],
            **detail,
        )

        kernel = remainder.without_edges(
            e for t in tris for e in _triangle_edges(t)
        )
        extend = self.reattach(g, reattach)
        return self.pieces(kernel, touched), lambda sub: extend(sub) + self.absorb(carrier, tris)

    def reattach(self, g: Graph, pairs: Sequence[tuple[int, int]]) -> Finish:
        """Check the (endpoint, new) edges against g now; the returned finish
        extends, in order, the path ending at each named endpoint.

        Consecutive instructions that chain (this endpoint is the vertex the
        previous instruction appended) keep growing the same path; otherwise
        exactly one path may end at the endpoint.
        """
        for endpoint, new in pairs:
            if not g.has_edge(endpoint, new):
                raise self.fail(f"reattach edge ({endpoint}, {new}) missing")

        def extend(out: list[Path]) -> list[Path]:
            prev: tuple[int, int] | None = None  # (index, appended vertex)
            for endpoint, new in pairs:
                if prev is not None and prev[1] == endpoint:
                    idx = prev[0]
                else:
                    hits = [i for i, p in enumerate(out) if endpoint in p.endpoints]
                    if len(hits) != 1:
                        raise self.fail(f"{len(hits)} paths end at {endpoint}; need exactly one")
                    idx = hits[0]
                p = out[idx]
                if new in p.vertices:
                    raise self.fail(f"extension vertex {new} already on the path")
                if p.vertices[0] == endpoint:
                    out[idx] = Path((new,) + p.vertices)
                else:
                    out[idx] = Path(p.vertices + (new,))
                prev = (idx, new)
            return out

        return extend

    # -- triangle absorption ------------------------------------------------

    def absorb(self, p: Path, triangles: Sequence[tuple[int, ...]]) -> list[Path]:
        """Fold j triangle components into the carrier path: j+1 paths out.

        Walks the carrier from its first vertex; the triangle contacted
        earliest is split off into a path Q while the rest of the carrier is
        rethreaded into a path R that still visits every later contact point,
        then the walk goes on along R.
        """
        out: list[Path] = []
        while triangles:
            pos = {v: i for i, v in enumerate(p.vertices)}
            contact = []
            for t in triangles:
                hits = sorted(pos[v] for v in t if v in pos)
                if not hits:
                    raise self.fail(f"triangle {t} never touches the carrier")
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
            self.steps.append(
                TraceStep(
                    tag=tag,
                    vertices=bound,
                    n=len(scope),
                    m=(len(verts) - 1) + len(triangles) * 3,
                    detail={
                        "triangle": list(tri),
                        "carrier": list(verts),
                        "q": list(q.vertices),
                        "r": list(r.vertices),
                    },
                )
            )
            out.append(q)
            p = r
            triangles = tuple(t for t in triangles if t != tri)
        out.append(p)
        return out

    # -- the reduction branches ---------------------------------------------

    def reduce_two_low_degree(
        self, g: Graph, low: Sequence[int]
    ) -> tuple[Sequence[Graph], Finish]:
        """Two or more degree-<=2 vertices: remove a carrier through the
        closest pair, or merge the short cycle their edges close into."""
        pair = _closest_pair(g, low)
        if pair is None:
            raise self.fail("low vertices share no component")
        u, v, dist = pair
        p0 = shortest_path(g, u, v)
        ext_u = self.spare_neighbor(g, u, p0.vertices[1])
        ext_v = self.spare_neighbor(g, v, p0.vertices[-2])

        if dist > 2:
            for e, name in ((ext_u, "u"), (ext_v, "v")):
                if e is not None and e in p0.vertices:
                    raise self.fail(f"extension at {name} lands on the carrier")
            if ext_u is not None and ext_u == ext_v:
                raise self.fail("extensions coincide on a long carrier")

        if dist > 2 or ext_u is None or ext_v is None or ext_u != ext_v:
            # A long carrier, or a short one whose closed walk stays a path.
            seq = ((ext_u,) if ext_u is not None else ()) + p0.vertices
            seq = seq + ((ext_v,) if ext_v is not None else ())
            return self.run_plan(
                g,
                "Claim1-Path",
                {"u": u, "v": v},
                Path(seq),
                pre_removed=(),
                reattach=(),
                clean_removal=False,
                distance=dist,
            )

        ring = (u, v, ext_u) if dist == 1 else (u, p0.vertices[1], v, ext_u)
        return self._cycle_route(g, Cycle(ring), u, v)

    def spare_neighbor(self, g: Graph, v: int, path_next: int) -> int | None:
        """The neighbour of a degree-<=2 vertex not already used by the carrier."""
        spare = g.neighbors(v) - {path_next}
        if not spare:
            return None
        if len(spare) > 1:
            raise self.fail(f"vertex {v} is not low-degree")
        return next(iter(spare))

    def _cycle_route(
        self, g: Graph, cyc: Cycle, u: int, v: int
    ) -> tuple[Sequence[Graph], Finish]:
        tag = "Claim1-Cycle3" if len(cyc) == 3 else "Claim1-Cycle4"
        self.step(tag, g, {"u": u, "v": v}, cycle=list(cyc.ring))
        rest = g.without_edges(cyc.edges())
        tris = triangle_components(rest, near=cyc.ring)
        if len(tris) > 1:
            raise self.fail("more than one triangle component around the cycle")

        if tris:
            t = tris[0]
            required = {cyc.ring[2]} if len(cyc) == 3 else {cyc.ring[1], cyc.ring[3]}
            if not required <= set(t):
                raise self.fail(f"triangle {t} misses the cycle contact {sorted(required)}")
            pair = merge_cycle_with_triangle(cyc, t)
            self.step(
                "Subclaim2-Merge",
                g,
                {"u": u, "v": v},
                cycle=list(cyc.ring),
                triangle=list(t),
                merged=[list(p.vertices) for p in pair],
            )
            leftover = rest.without_edges(_triangle_edges(t))
            return self.pieces(leftover, cyc.ring), lambda sub: sub + pair

        ring = cyc.ring
        if rest.m == 0:
            # The component was exactly this cycle; two arcs cover it.
            if len(ring) == 3:
                raise self.fail("bare triangle survived to the cycle route")
            return (), lambda _: [Path(ring[:3]), Path((ring[2], ring[3], ring[0]))]

        n, m = g.non_isolated_count(), g.m

        def merge(sub: list[Path]) -> list[Path]:
            merged, w_index = _merge_cycle(cyc, sub, u, v)
            detail = {"cycle": list(ring), "into": list(sub[w_index].vertices)}
            self.steps.append(TraceStep("Subclaim1-Merge", {"u": u, "v": v}, n, m, detail))
            return merged

        return self.pieces(rest, ring), merge

    def reduce_pendant(self, g: Graph, v: int) -> tuple[Sequence[Graph], Finish]:
        """Unique low vertex is a pendant: peel it through its support x."""
        x = next(iter(g.neighbors(v)))
        if g.degree(x) != 3:
            raise self.fail(f"pendant support {x} has degree {g.degree(x)}, not 3")
        others = sorted(g.neighbors(x) - {v})
        deg3 = [t for t in others if g.degree(t) == 3]
        if not deg3:
            raise self.fail(f"neither neighbour of the support {x} has degree 3")
        w = deg3[0]
        z = next(t for t in others if t != w)

        g_minus_v = g.without_vertex(v)
        cut_x, comps = is_cut_vertex(g_minus_v, x)
        if not cut_x:
            p0 = self.shortest(g, w, z, {x}, "pendant support detour")
            carrier = Path(p0.vertices + (x,))
            return self.run_plan(
                g,
                "Claim2-Case1",
                {"v": v, "x": x, "w": w, "z": z},
                carrier,
                pre_removed=(norm_edge(v, x), norm_edge(x, w)),
                reattach=((w, x), (x, v)),
                clean_removal=True,
            )
        return self._pendant_split(g, v, x, w, z, comps)

    def _pendant_split(
        self,
        g: Graph,
        v: int,
        x: int,
        w: int,
        z: int,
        comps: tuple[Component, ...],
    ) -> tuple[Sequence[Graph], Finish]:
        if len(comps) != 2:
            raise self.fail(f"support split into {len(comps)} pieces, expected 2")
        side = {p: c for c in comps for p in c.vertices}
        if side.get(w) is side.get(z):
            raise self.fail("support neighbours landed in the same piece")
        for t in (w, z):
            if g.degree(t) != 3:
                raise self.fail(f"split neighbour {t} has degree {g.degree(t)}, not 3")
        comp_i, comp_j = side[z], side[w]
        if comp_j.n % 2 != 0 and comp_i.n % 2 == 0:
            w, z = z, w
            comp_i, comp_j = comp_j, comp_i
        if comp_i.is_triangle or comp_j.is_triangle:
            raise self.fail("triangle piece beside a pendant support")

        if comp_j.n % 2 == 1:
            # Both sides odd: two extra paths cover the support's star.
            self.step(
                "Claim2-Case2-OddOdd",
                g,
                {"v": v, "x": x, "w": w, "z": z},
                sides=[list(comp_i.vertices), list(comp_j.vertices)],
            )
            split = g.restricted_to(comp_i.vertices + comp_j.vertices)
            star = [Path((w, x, z)), Path((v, x))]
            return self.pieces(split, (w, z)), lambda sub: sub + star

        cut_w, sub_comps = is_cut_vertex(comp_j.graph, w)
        if cut_w:
            return self._pendant_even_cut(g, v, x, w, z, comp_i, sub_comps)
        return self._pendant_even_open(g, v, x, w, z)

    def _pendant_even_cut(self, g, v, x, w, z, comp_i, sub_comps):
        if len(sub_comps) != 2:
            raise self.fail(f"{len(sub_comps)} pieces under the even side")
        odd = [c for c in sub_comps if c.n % 2 == 1]
        even = [c for c in sub_comps if c.n % 2 == 0]
        if len(odd) != 1 or len(even) != 1:
            raise self.fail("even side did not split odd/even")
        j1, j2 = odd[0], even[0]
        a_opts = sorted(g.neighbors(w) & set(j1.vertices))
        b_opts = sorted(g.neighbors(w) & set(j2.vertices))
        if len(a_opts) != 1 or len(b_opts) != 1:
            raise self.fail("cut neighbour counts off in the even side")
        a, b = a_opts[0], b_opts[0]
        if j1.is_triangle:
            raise self.fail("odd piece is a triangle beside the pendant support")
        self.step(
            "Claim2-Subcase2.1",
            g,
            {"v": v, "x": x, "w": w, "z": z, "a": a, "b": b},
            odd_side=list(j1.vertices),
            even_side=list(j2.vertices),
        )
        # Decompose the far side, the odd piece, and the even piece with w.
        j2w = sorted(j2.vertices + (w,))
        sides = [list(comp_i.vertices), list(j1.vertices), j2w]
        self.step("ComponentSplit", g, {}, components=sides)
        star = [Path((a, w, x, z)), Path((v, x))]
        pieces = (comp_i.graph, j1.graph, g.restricted_to(j2w))
        return pieces, lambda sub: sub + star

    def _pendant_even_open(self, g, v, x, w, z):
        nbrs = sorted(g.neighbors(w) - {x})
        if len(nbrs) != 2:
            raise self.fail(f"support neighbour {w} has stray edges")
        deg3 = [t for t in nbrs if g.degree(t) == 3]
        if not deg3:
            raise self.fail(f"no degree-3 neighbour of {w} inside the even side")
        a = deg3[0]
        b = next(t for t in nbrs if t != a)
        p0 = self.shortest(g, a, b, {w}, "even-side detour")
        carrier = Path(p0.vertices + (w,))
        return self.run_plan(
            g,
            "Claim2-Subcase2.2",
            {"v": v, "x": x, "w": w, "z": z, "a": a, "b": b},
            carrier,
            pre_removed=(norm_edge(v, x), norm_edge(x, w), norm_edge(w, a)),
            reattach=((a, w), (w, x), (x, v)),
            clean_removal=True,
        )

    def reduce_degree2_cut(
        self, g: Graph, v: int, comps: tuple[Component, ...]
    ) -> tuple[Sequence[Graph], Finish]:
        """Unique low vertex of degree 2 is an articulation point."""
        if len(comps) != 2:
            raise self.fail(f"degree-2 articulation made {len(comps)} pieces")
        x, y = sorted(g.neighbors(v))
        side = {p: c for c in comps for p in c.vertices}
        comp_x, comp_y = side[x], side[y]
        if comp_x is comp_y:
            raise self.fail("both neighbours in one piece despite the split")
        if comp_y.is_triangle:
            raise self.fail("triangle piece across a degree-2 articulation")
        self.step(
            "Claim3",
            g,
            {"v": v, "x": x, "y": y},
            x_side=list(comp_x.vertices),
            y_side=list(comp_y.vertices),
        )
        sides = [list(comp_x.vertices) + [v], list(comp_y.vertices)]
        self.step("ComponentSplit", g, {}, components=sides)
        x_plus = comp_x.graph.with_edges([(v, x)])
        return (x_plus, comp_y.graph), self.reattach(g, [(v, y)])

    def reduce_x_cut(self, g: Graph, v: int, x: int) -> tuple[Sequence[Graph], Finish]:
        """The support vertex x is an articulation point of the whole graph."""
        y = next(iter(g.neighbors(v) - {x}))
        p0 = self.shortest(g, x, y, {v}, "support-to-partner detour")
        z = p0.vertices[1]
        w_opts = sorted(g.neighbors(x) - {v, z})
        if len(w_opts) != 1:
            raise self.fail(f"support {x} should keep exactly one spare edge")
        w = w_opts[0]
        trimmed = g.without_edges([norm_edge(x, z), norm_edge(v, x)])
        comps = [c for c in connected_components(trimmed) if c.m > 0]
        if len(comps) != 2:
            raise self.fail(f"articulation split made {len(comps)} pieces")
        side = {p: c for c in comps for p in c.vertices}
        comp_a, comp_b = side[x], side[v]
        if comp_a is comp_b:
            raise self.fail("support and low vertex stayed connected")
        if comp_a.is_triangle or comp_b.is_triangle:
            raise self.fail("triangle piece across the support articulation")
        self.step(
            "Claim4",
            g,
            {"v": v, "x": x, "y": y, "z": z, "w": w},
            a_side=list(comp_a.vertices),
            b_side=list(comp_b.vertices),
        )
        sides = [list(comp_a.vertices), list(comp_b.vertices)]
        self.step("ComponentSplit", g, {}, components=sides)
        # Extend within the pieces: x's stub picks up xz, v's picks up vx.
        return (comp_a.graph, comp_b.graph), self.reattach(g, [(x, z), (v, x)])

    def reduce_case_deg3_neighbor(
        self, g: Graph, v: int, x: int, z: int
    ) -> tuple[Sequence[Graph], Finish]:
        """The support x has a degree-3 neighbour z: reroute through it."""
        p0 = self.shortest(g, z, v, {x}, "low-vertex detour")
        spares = sorted(g.neighbors(z) - {x, p0.vertices[1]})
        if len(spares) != 1:
            raise self.fail(f"degree-3 neighbour {z} kept {len(spares)} spare edges")
        t = spares[0]
        if t in p0.vertices:
            raise self.fail("spare edge of z lands on a shortest detour")
        carrier = Path((t,) + p0.vertices + (x,))
        return self.run_plan(
            g,
            "Case1-Deg3Neighbor",
            {"v": v, "x": x, "z": z, "t": t},
            carrier,
            pre_removed=(norm_edge(x, z),),
            reattach=((x, z),),
            clean_removal=True,
        )

    def reduce_case_y3(
        self, g: Graph, v: int, x: int, y: int
    ) -> tuple[Sequence[Graph], Finish]:
        """Both neighbours of v have degree 3 and no degree-3 contacts of
        their own: they share a degree-4 vertex that carries the removal."""
        if g.has_edge(x, y):
            raise self.fail(f"supports {x},{y} adjacent yet filtered as contact-free")
        zs = sorted(
            c for c in g.neighbors(x) & g.neighbors(y) if g.degree(c) == 4
        )
        if not zs:
            raise self.fail(f"no shared degree-4 neighbour of {x} and {y}")
        z = zs[0]
        w_opts = sorted(g.neighbors(x) - {v, z})
        if len(w_opts) != 1:
            raise self.fail(f"support {x} should have one remaining neighbour")
        w = w_opts[0]
        carrier = Path((y, z, x, w))
        return self.run_plan(
            g,
            "Subcase2.1-Y3",
            {"v": v, "x": x, "y": y, "z": z, "w": w},
            carrier,
            pre_removed=(norm_edge(v, x), norm_edge(v, y)),
            reattach=((y, v), (v, x)),
            clean_removal=False,
        )

    def reduce_case_y4(
        self, g: Graph, v: int, x: int, y: int
    ) -> tuple[Sequence[Graph], Finish]:
        """v's other neighbour has degree 4: it must touch x; peel both."""
        if g.degree(y) != 4:
            raise self.fail(f"partner {y} has degree {g.degree(y)}, expected 4")
        if not g.has_edge(x, y):
            raise self.fail(f"partner {y} not adjacent to support {x}")
        z_opts = sorted(g.neighbors(x) - {v, y})
        if len(z_opts) != 1:
            raise self.fail(f"support {x} should keep one spare neighbour")
        z = z_opts[0]
        p0 = self.shortest(g, z, v, {x}, "spare-to-low detour")
        carrier = Path((x,) + p0.vertices)
        return self.run_plan(
            g,
            "Subcase2.2-Y4",
            {"v": v, "x": x, "y": y, "z": z},
            carrier,
            pre_removed=(norm_edge(x, y), norm_edge(x, v)),
            reattach=((y, x), (x, v)),
            clean_removal=True,
        )


# -- helpers ------------------------------------------------------------------


def _triangle_edges(t: Sequence[int]) -> list[Edge]:
    a, b, c = sorted(t)
    return [(a, b), (a, c), (b, c)]


def _closest_pair(g: Graph, low: Sequence[int]) -> tuple[int, int, int] | None:
    """Closest pair among the low vertices as (u, v, distance), ties by
    (distance, u, v); None if no two of them share a component."""
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


def _merge_cycle(
    cyc: Cycle, d: Sequence[Path], u: int, v: int
) -> tuple[list[Path], int]:
    """Split the first path of d that meets the cycle into two, absorbing the
    cycle's edges. Returns the new path list and the index of the split path."""
    ring = cyc.ring
    if ring[0] != u or (len(ring) == 3 and ring[1] != v) or (len(ring) == 4 and ring[2] != v):
        raise GeometryMismatch("cycle ring must start at u with v opposite")
    contacts = (ring[2],) if len(ring) == 3 else (ring[1], ring[3])
    w_index = None
    for i, p in enumerate(d):
        if any(c in p.vertices for c in contacts):
            w_index = i
            break
    if w_index is None:
        raise NoIntersectingPath("no decomposition path meets the cycle")
    w = d[w_index]
    pos = {vv: i for i, vv in enumerate(w.vertices)}

    if len(ring) == 3:
        c = contacts[0]
        w1 = Path(w.vertices[: pos[c] + 1] + (v, u))
        w2 = Path((u,) + w.vertices[pos[c] :])
    else:
        present = [c for c in contacts if c in pos]
        if len(present) == 2:
            first, second = sorted(present, key=lambda c: pos[c])
            w1 = Path(w.vertices[: pos[first] + 1] + (v, second, u))
            w2 = Path((u,) + w.vertices[pos[first] :])
        else:
            first = present[0]
            other = next(c for c in contacts if c != first)
            w1 = Path(w.vertices[: pos[first] + 1] + (v, other, u))
            w2 = Path((u,) + w.vertices[pos[first] :])
    out = list(d)
    out[w_index : w_index + 1] = [w1, w2]
    return out, w_index


# -- public operations ----------------------------------------------------------


def decompose(g: Graph) -> tuple[Decomposition, ReductionTrace, bool]:
    """Decompose every component of g into edge-disjoint paths.

    Raises NotTwoDegenerate if some induced subgraph has minimum degree >= 3.
    Triangle components get two paths each and clear bound_met; every other
    component meets floor(n_c/2), so without triangles the total stays within
    floor(n/2) over non-isolated vertices.
    """
    degeneracy_order(g)
    eng = _Engine()
    comps = connected_components(g)
    if len(comps) > 1:
        eng.step("ComponentSplit", g, {}, components=[list(c.vertices) for c in comps])
    paths: list[Path] = []
    per_component = 0
    met = True
    for c in comps:
        if c.is_triangle:
            a, b, cc = c.vertices
            paths.extend([Path((a, b, cc)), Path((a, cc))])
            eng.step("Base", c.graph, {}, triangle=list(c.vertices))
            per_component += 2
            met = False
        else:
            per_component += c.n // 2
            paths.extend(eng.solve(c.graph))
    claimed = g.non_isolated_count() // 2 if met else per_component
    dec = Decomposition(
        paths=tuple(paths), host=g, claimed_bound=claimed, bound_met=met
    )
    return dec, ReductionTrace(tuple(eng.steps)), met


def decompose_connected(g: Graph) -> tuple[Decomposition, ReductionTrace]:
    """decompose() for a graph known to be one connected non-triangle piece."""
    comps = connected_components(g)
    if len(comps) > 1:
        raise ValueError("graph is not connected")
    if comps and comps[0].is_triangle:
        raise ValueError("a triangle needs two paths; use decompose()")
    dec, trace, _met = decompose(g)
    return dec, trace


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
    return _Engine().absorb(p, tuple(tris))


def merge_cycle_into_decomposition(
    c: Cycle, d: Decomposition, u: int, v: int
) -> Decomposition:
    """Split the first path of d meeting c so the result also covers E(c).

    u and v are the cycle's two low-degree vertices; the result has exactly
    one more path than d, with the claimed bound bumped to match.
    """
    merged, _ = _merge_cycle(c, list(d.paths), u, v)
    return Decomposition(
        paths=tuple(merged),
        host=d.host,
        claimed_bound=d.claimed_bound + 1,
        bound_met=d.bound_met,
    )


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


def parse_decomposition(text: str) -> tuple[list[tuple[int, ...]], int, bool]:
    """Parse the text format back into (paths, claimed_bound, met)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty decomposition file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "paths" or head[2] != "bound" or head[4] != "met":
        raise ValueError(f"bad header {lines[0]!r}")
    try:
        count, bound = int(head[1]), int(head[3])
    except ValueError:
        raise ValueError(f"bad header numbers in {lines[0]!r}") from None
    if head[5] not in ("true", "false"):
        raise ValueError(f"bad met flag {head[5]!r}")
    met = head[5] == "true"
    paths: list[tuple[int, ...]] = []
    for ln in lines[1:]:
        try:
            paths.append(tuple(int(tok) for tok in ln.split()))
        except ValueError:
            raise ValueError(f"bad path line {ln!r}") from None
    if len(paths) != count:
        raise ValueError(f"header says {count} paths, file has {len(paths)}")
    return paths, bound, met
