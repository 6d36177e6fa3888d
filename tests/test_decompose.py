import gc
import importlib
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from test_golden import _FAMILY_SIZES, _FIXED, corpus

from gallai.decompose import (
    BRANCH_TAGS,
    GeometryMismatch,
    InternalInvariantViolation,
    NoIntersectingPath,
    TraceStep,
    TriangleNotComponent,
    _closest_pair,
    _Engine,
    _merge_cycle,
    _steps,
    _WorkingGraph,
    absorb_triangles,
    decompose,
    format_decomposition,
    merge_cycle_with_triangle,
)
from gallai.generate import FAMILIES, GenSpec, dense_instance, family, generate
from gallai.graph import Cycle, Graph, NotTwoDegenerate, Path, is_cut_vertex, shortest_path
from gallai.verify import parse_decomposition, verify_decomposition


def edges_of(paths):
    out = []
    for p in paths:
        out.extend(p.edges())
    return sorted(out)


def check(g, dec):
    report = verify_decomposition(g, dec)
    assert report.valid, report.failures
    return report


class TestDecomposeTopLevel:
    def test_triangle_two_paths_bound_unmet(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        dec, _trace, met = decompose(g)
        assert not met and not dec.bound_met
        assert len(dec.paths) == 2
        assert dec.claimed_bound == 2
        check(g, dec)

    def test_two_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        dec, _trace, met = decompose(g)
        assert not met
        assert len(dec.paths) == 4
        assert dec.claimed_bound == 4
        check(g, dec)

    def test_two_p4s(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        dec, trace, met = decompose(g)
        assert met
        assert len(dec.paths) <= 4
        assert dec.claimed_bound == 4
        assert trace.steps[0].tag == "ComponentSplit"
        check(g, dec)

    def test_mixed_triangle_and_path(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
        dec, _trace, met = decompose(g)
        assert not met
        assert dec.claimed_bound == 2 + 4 // 2
        check(g, dec)

    def test_isolated_vertices_do_not_count(self):
        g = Graph.from_edges(9, [(0, 1), (1, 2)])
        dec, _trace, met = decompose(g)
        assert met and dec.claimed_bound == 1
        assert len(dec.paths) == 1

    def test_not_two_degenerate_propagates(self):
        k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(NotTwoDegenerate, match=r"\(0, 1, 2, 3\)"):
            decompose(k4)

    def test_validates_with_the_linear_peel(self, monkeypatch):
        # the heap peel runs only to name the 3-core of a rejected graph
        def refuse(g):
            raise AssertionError("degeneracy_order on a 2-degenerate graph")

        monkeypatch.setattr(importlib.import_module("gallai.decompose"), "degeneracy_order", refuse)
        g = generate(GenSpec(n=40, seed=3))
        dec, _trace, _met = decompose(g)
        check(g, dec)

    def test_empty_graph(self):
        dec, trace, met = decompose(Graph.from_edges(0, []))
        assert met and dec.paths == () and trace.steps == ()


class TestDecomposeConnected:
    @pytest.mark.parametrize(
        "n,edges,limit",
        [
            (2, [(0, 1)], 1),
            (4, [(0, 1), (1, 2), (2, 3)], 2),
            (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 2),
        ],
    )
    def test_small_counts(self, n, edges, limit):
        g = Graph.from_edges(n, edges)
        dec, _, met = decompose(g)
        assert met
        assert len(dec.paths) <= limit
        assert dec.bound_met
        check(g, dec)

    def test_trace_tags_are_known(self):
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
        _, trace, met = decompose(g)
        assert met
        assert all(s.tag in BRANCH_TAGS for s in trace.steps)


# deterministic shapes that pin one dispatch branch each; built from a strip
# block (unique degree-2 vertex 0, not an articulation point)


def strip(n):
    if n == 5:
        return Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, i + 2) for i in range(n - 2) if (i, i + 2) != (1, 3)]
    edges += [(1, n - 1)]
    return Graph.from_edges(n, edges)


def splice(ga, la, gb, lb):
    # fresh connector vertex joined to each block's unique low vertex
    c = ga.n + gb.n
    edges = list(ga.edges())
    edges += [(u + ga.n, w + ga.n) for (u, w) in gb.edges()]
    edges += [(la, c), (lb + ga.n, c)]
    return Graph.from_edges(c + 1, edges), c


def hang(g, at):
    return Graph.from_edges(g.n + 1, list(g.edges()) + [(at, g.n)])


class TestBranchFixtures:
    def lead_tag(self, g):
        dec, trace, met = decompose(g)
        assert met
        check(g, dec)
        assert len(dec.paths) <= g.non_isolated_count() // 2
        return trace.steps[0].tag

    def test_two_low_vertices(self):
        assert self.lead_tag(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) == "Claim1-Path"

    def test_degree2_articulation(self):
        assert self.lead_tag(splice(strip(5), 0, strip(5), 0)[0]) == "Claim3"

    def test_pendant_with_plain_support(self):
        assert self.lead_tag(hang(strip(6), 0)) == "Claim2-Case1"

    def test_pendant_over_connector_odd_odd(self):
        g, c = splice(strip(5), 0, strip(5), 0)
        assert self.lead_tag(hang(g, c)) == "Claim2-Case2-OddOdd"

    def test_pendant_over_connector_even_open(self):
        g, c = splice(strip(5), 0, strip(6), 0)
        assert self.lead_tag(hang(g, c)) == "Claim2-Subcase2.2"

    def test_pendant_over_connector_even_split(self):
        inner, ci = splice(strip(5), 0, strip(6), 0)
        outer, co = splice(strip(5), 0, inner, ci)
        assert self.lead_tag(hang(outer, co)) == "Claim2-Subcase2.1"

    def test_support_articulation(self):
        # bridge two strips with x, then hang v off x and an interior vertex
        a, b = strip(5), strip(5)
        edges = list(a.edges()) + [(u + 5, w + 5) for (u, w) in b.edges()]
        edges += [(0, 10), (5, 10), (10, 11), (1, 11)]
        assert self.lead_tag(Graph.from_edges(12, edges)) == "Claim4"

    def test_support_cut_test_goes_through_is_cut_vertex(self, monkeypatch):
        calls = []

        def counted(g, v):
            calls.append(v)
            return is_cut_vertex(g, v)

        monkeypatch.setattr(importlib.import_module("gallai.decompose"), "is_cut_vertex", counted)
        assert self.lead_tag(family("fig4b")) == "Claim4"
        assert calls

    def test_short_carrier_core_takes_the_least_common_neighbour(self):
        # 0 and 1 are low, with common neighbours 3 and 5 and no edge between
        # them. Two low vertices with two common neighbours close a 4-cycle,
        # so the pair goes the Claim1-Cycle4 route, its ring led by the core
        # u-3-v, the path `shortest_path` finds
        edges = [(0, 3), (0, 5), (1, 3), (1, 5), (2, 3), (2, 5), (2, 4), (3, 4), (4, 5)]
        g = Graph.from_edges(6, edges)
        dec, trace, met = decompose(g)
        assert met
        check(g, dec)
        first = trace.steps[0]
        assert (first.tag, first.vertices) == ("Claim1-Cycle4", {"u": 0, "v": 1})
        assert first.detail["cycle"] == (0, 3, 1, 5)
        assert shortest_path(g, 0, 1) == Path((0, 3, 1))

    def test_carriers_within_distance_two_search_no_path(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return shortest_path(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module("gallai.decompose"), "shortest_path", counted)
        g = generate(GenSpec(n=300, seed=1, p2=0.6))
        dec, trace, met = decompose(g)
        assert met
        check(g, dec)
        # only the closest-pair branch runs here, which searches only for a
        # pair at distance 3 or more
        assert {s.tag for s in trace.steps} == {"Base", "Claim1-Path"}
        far = [s for s in trace.steps if s.tag == "Claim1-Path" and s.detail["distance"] > 2]
        assert 0 < len(far) == len(calls) < len(trace.steps) // 2

    def test_lemma_case_applications(self):
        lem1 = Graph.from_edges(11, [(0, 4), (0, 2), (2, 3), (1, 3), (1, 5), (4, 5), (2, 4), (2, 5), (3, 6), (6, 9), (6, 10), (7, 8), (7, 9), (7, 10), (8, 9), (8, 10)])
        lem2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        lem3 = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (4, 5)])
        for g, tag in ((lem1, "Lemma1-Case1"), (lem2, "Lemma1-Case2"), (lem3, "Lemma1-Case3")):
            dec, trace, met = decompose(g)
            assert met
            check(g, dec)
            assert tag in {s.tag for s in trace.steps}

    def test_determinism(self):
        g, c = splice(strip(7), 0, strip(6), 0)
        g = hang(g, c)
        a, _, met = decompose(g)
        assert met
        b, _, _ = decompose(g)
        assert a.paths == b.paths


class TestInvariantGuards:
    def test_removing_the_reattach_edges_must_expose_no_triangle(self):
        # dropping the edge 3-0 leaves the triangle 0-1-2 as a component
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
        eng = _Engine(g)
        with pytest.raises(InternalInvariantViolation, match="exposed a triangle component"):
            p = eng.w.open(range(5))
            eng.run_plan(p, "Claim2-Case1", ((), ()), (), Path((3, 4)), [(3, 0)])

    def test_piece_loop_rejects_a_triangle_view(self, monkeypatch):
        # a host whose plan leaves an edge, then a triangle, as its pieces
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        eng = _Engine(g)
        host = eng.w.open(range(5))
        pieces = [eng.w.open([3, 4]), eng.w.open([0, 1, 2])]
        plan = _Engine.plan

        def split_host(self, p):
            return (pieces, ((), None, ())) if p is host else plan(self, p)

        monkeypatch.setattr(_Engine, "plan", split_host)
        with pytest.raises(InternalInvariantViolation, match=r"triangle component \(0, 1, 2\)") as exc:
            eng.solve(host)
        assert [s.tag for s in exc.value.steps] == ["Base"]

    def test_paths_beyond_the_bound_are_rejected(self, monkeypatch):
        host = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        edges = [Path((0, 1)), Path((1, 2)), Path((2, 3))]
        monkeypatch.setattr(_Engine, "plan", lambda self, p: ((), ((), None, (), *edges)))
        eng = _Engine(host)
        with pytest.raises(InternalInvariantViolation, match=r"3 paths exceed floor\(4/2\)"):
            eng.solve(eng.w.open(range(4)))


class TestCutChecks:
    """The checks the unique-low branches share fail by name, with the trace."""

    WHAT = "Claim3: degree-2 articulation 9"

    @staticmethod
    def engine():
        # a triangle 0-1-2, a path 3-4-5, an edge 6-7 and the star 8-{2, 9, 10}
        g = Graph.from_edges(
            11, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7), (2, 8), (8, 9), (8, 10)]
        )
        eng = _Engine(g)
        eng.step("Base", (2, 1), (("u", "v"), ()), 6, 7)
        return eng

    @staticmethod
    def fails(eng, message, method, *args):
        with pytest.raises(InternalInvariantViolation) as exc:
            method(*args)
        assert str(exc.value) == message
        assert exc.value.steps == _steps(eng.steps)
        assert [s.tag for s in exc.value.steps] == ["Base"]

    @pytest.mark.parametrize(
        "comps, a, b, message",
        [
            ((), 3, 6, " split into 1 pieces, expected 2"),
            (((3, 4, 5), (6, 7), (9,)), 3, 6, " split into 3 pieces, expected 2"),
            (((3, 4, 5), (6, 7)), 3, 5, ": 3 and 5 stayed in one piece"),
            (((0, 1, 2), (6, 7)), 6, 0, ": triangle piece beside 6 or 0"),
        ],
    )
    def test_two_sides_rejects_what_no_cut_makes(self, comps, a, b, message):
        eng = self.engine()
        self.fails(eng, self.WHAT + message, eng.two_sides, comps, a, b, self.WHAT)

    def test_two_sides_orders_the_sides_by_its_vertices(self):
        eng = self.engine()
        comps = ((3, 4, 5), (6, 7))
        assert eng.two_sides(comps, 7, 4, self.WHAT) == ((6, 7), (3, 4, 5))
        assert eng.two_sides(comps, 4, 7, self.WHAT) == comps

    @pytest.mark.parametrize("items, found", [([], "[]"), ({5, 3}, "[3, 5]")])
    def test_only_rejects_none_or_many(self, items, found):
        eng = self.engine()
        message = f"{self.WHAT}: found {found}, expected exactly one"
        self.fails(eng, message, eng.only, items, self.WHAT)
        assert eng.only({4}, self.WHAT) == 4

    def test_deg3_first_needs_two_vertices_one_of_degree_3(self):
        eng = self.engine()
        assert eng.deg3_first({2, 8}, self.WHAT) == (2, 8)
        assert eng.deg3_first({7, 8}, self.WHAT) == (8, 7)
        message = f"{self.WHAT}: found [3, 4, 5], expected two"
        self.fails(eng, message, eng.deg3_first, {3, 4, 5}, self.WHAT)
        message = f"{self.WHAT}: neither 0 nor 1 has degree 3"
        self.fails(eng, message, eng.deg3_first, {1, 0}, self.WHAT)

    def test_reattach_checks_every_pair_before_deleting(self):
        eng = self.engine()
        eng.w.open(range(11))
        self.fails(eng, "reattach edge (5, 3) missing", eng.reattach, [(4, 3), (5, 3)])
        assert eng.w.has_edge(3, 4)  # a failed check deletes nothing
        assert eng.reattach([(4, 3), (5, 4)]) == [(3, 4), (4, 5)]
        assert not eng.w.has_edge(3, 4) and not eng.w.has_edge(4, 5)


class TestWorkStack:
    def test_runs_within_the_callers_recursion_limit(self, monkeypatch):
        g = generate(GenSpec(n=3000, seed=0))
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        old = sys.getrecursionlimit()
        set_limit = sys.setrecursionlimit

        def refuse(_limit):
            raise AssertionError("decompose changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        set_limit(depth + 100)
        try:
            dec, _trace, _met = decompose(g)
        finally:
            set_limit(old)
        check(g, dec)

    def test_finishes_hold_no_code(self, monkeypatch):
        # a finish is a tuple of pairs, a cycle merge, triangles and paths,
        # which solve runs; no closure rides the stack
        plan = _Engine.plan
        finishes = []

        def recorded(self, p):
            pieces, finish = plan(self, p)
            finishes.append(finish)
            return pieces, finish

        def data(x):
            return all(map(data, x)) if isinstance(x, tuple) else not callable(x)

        monkeypatch.setattr(_Engine, "plan", recorded)
        for host in corpus():
            decompose(host)
        assert finishes
        assert all(type(f) is tuple and data(f) for f in finishes)

    @staticmethod
    def peak_bytes(n, seed):
        g = generate(GenSpec(n=n, seed=seed, p2=0.6))
        # a full collection empties CPython's free lists, whose reused objects
        # tracemalloc never sees; start every measurement from that state
        gc.collect()
        tracemalloc.start()
        try:
            decompose(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("seed", range(4))
    def test_peak_memory_grows_about_linearly(self, seed):
        # views already planned are freed, so doubling n about doubles the peak
        assert self.peak_bytes(800, seed) / self.peak_bytes(400, seed) < 2.7


def time_ratio(small, large):
    """decompose's time on `large` over its time on `small`, each the best of
    5 runs to damp timer noise. The runs alternate between the two graphs, so
    a drift in the machine's speed slows both alike instead of landing in the
    ratio."""
    best = [float("inf"), float("inf")]
    for _ in range(5):
        for i, g in enumerate((small, large)):
            gc.collect()
            t0 = time.perf_counter()
            decompose(g)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best[1] / best[0]


class TestManyComponents:
    @staticmethod
    def paths(k):
        # k disjoint paths on 4 vertices
        edges = [(4 * i + j, 4 * i + j + 1) for i in range(k) for j in range(3)]
        return Graph.from_edges(4 * k, edges)

    def test_time_grows_about_linearly(self):
        small, large = self.paths(2000), self.paths(4000)
        assert time_ratio(small, large) < 2.7
        dec, _trace, _met = decompose(large)
        assert len(dec.paths) == 2 * 4000


class TestLongCycles:
    @pytest.mark.parametrize("shape", ("cycle", "theta", "caterpillar"))
    def test_time_grows_about_linearly(self, shape):
        # a long cycle or spine keeps a long arc whole after each removal
        assert time_ratio(family(shape, 4000), family(shape, 8000)) < 2.7


def check_index(monkeypatch):
    """Make every closest-pair query compare the index with the search over
    the piece's low vertices; returns a tally of the distances seen."""
    seen = Counter()
    closest = _WorkingGraph.closest

    def compared(self, p):
        got = closest(self, p)
        want = _closest_pair(self, sorted(p.low))
        if got is None:
            assert want is not None and want[2] >= 4, want
        else:
            assert got == want
        seen[want[2]] += 1
        return got

    monkeypatch.setattr(_WorkingGraph, "closest", compared)
    return seen


class TestClosestPairIndex:
    def test_matches_the_search_on_the_golden_corpus(self, monkeypatch):
        seen = check_index(monkeypatch)
        for g in corpus():
            decompose(g)
        assert {1, 2, 3} <= set(seen)

    @pytest.mark.parametrize("p2", (0.3, 0.6, 1.0))
    @pytest.mark.parametrize("n", (300, 1200, 4800))
    def test_matches_the_search_on_sweep_graphs(self, monkeypatch, n, p2):
        seen = check_index(monkeypatch)
        decompose(generate(GenSpec(n=n, seed=n + int(10 * p2), p2=p2)))
        assert seen[1] and seen[2]

    @pytest.mark.parametrize("shape", ("friendship", "star", "book", "fan"))
    def test_matches_the_search_around_hubs(self, monkeypatch, shape):
        # a centre of degree 80 loses its low neighbours one by one
        k = 80
        if shape in ("friendship", "star"):
            g = family(shape, 2 * k + 1)
        elif shape == "book":
            g = Graph.from_edges(k + 2, [(h, i) for h in (0, 1) for i in range(2, k + 2)])
        else:
            edges = [(0, i) for i in range(1, k + 1)] + [(i, i + 1) for i in range(1, k)]
            g = Graph.from_edges(k + 1, edges)
        seen = check_index(monkeypatch)
        dec, _trace, _met = decompose(g)
        check(g, dec)
        assert seen


class TestWorkingGraph:
    def test_pending_pieces_are_disjoint_components_of_host_edges(self, monkeypatch):
        plan = _Engine.plan

        def checked(self, p):
            w = self.w
            pieces = {}
            for v, nbrs in enumerate(w.adj):
                # a component not opened yet has no piece
                if nbrs and w.owner[v] is not None:
                    pieces.setdefault(id(w.owner[v]), (w.owner[v], []))[1].append(v)
            assert id(p) in pieces or p.m == 0
            for q, verts in pieces.values():
                assert q.verts == set(verts)
                edges = {(a, b) for a in verts for b in w.adj[a] if a < b}
                assert all(host.has_edge(a, b) and w.owner[b] is q for a, b in edges)
                assert q.m == len(edges)
                assert q.low == {v for v in verts if w.degree(v) <= 2}
                # every vertex hangs from the root, so the piece is connected
                for v in verts:
                    if v != q.root:
                        up = w.parent[v]
                        assert w.has_edge(v, up) and w.level[up] == w.level[v] - 1
            return plan(self, p)

        monkeypatch.setattr(_Engine, "plan", checked)
        for host in corpus():
            decompose(host)

    def test_buckets_hold_the_two_least_low_neighbours(self, monkeypatch):
        plan = _Engine.plan

        def checked(self, p):
            w = self.w
            w.flush()
            for v, q in enumerate(w.owner):
                if q is not None and v in q.verts:
                    low = sorted(x for x in w.adj[v] if len(w.adj[x]) <= 2) + [w.none] * 2
                    assert (w.low1[v], w.low2[v]) == (low[0], low[1]), v
            return plan(self, p)

        monkeypatch.setattr(_Engine, "plan", checked)
        for host in corpus():
            decompose(host)


class TestTraceRows:
    """The engine logs plain rows; a trace builds its steps when they are read."""

    def test_rows_give_the_same_steps_every_time(self):
        for g in corpus():
            _dec, trace, _met = decompose(g)
            hist = trace.histogram()  # counted from the rows, no step built yet
            assert list(hist.items()) == list(Counter(s.tag for s in trace.steps).items())
            again = decompose(g)[1]
            assert again == trace and repr(again) == repr(trace)
            assert again.to_json() == trace.to_json()

    def test_rows_hold_only_tuples_ints_and_strs(self):
        def flat(x):
            return all(map(flat, x)) if type(x) is tuple else type(x) in (int, str)

        rows = [row for g in corpus() for row in decompose(g)[1]._rows]
        assert all(type(row) is tuple and flat(row) for row in rows)
        for _ in range(4):  # a collection may untrack one level of nesting
            gc.collect()
        assert not any(map(gc.is_tracked, rows))

    def test_an_engine_fault_carries_trace_steps(self, monkeypatch):
        clean = [decompose(g)[1] for g in corpus()]
        pieces = _Engine.pieces

        def faulty(self, p, near):
            if len(self.steps) >= 3:
                raise KeyError("injected")
            return pieces(self, p, near)

        monkeypatch.setattr(_Engine, "pieces", faulty)
        faults = 0
        for g, trace in zip(corpus(), clean):
            try:
                decompose(g)
            except InternalInvariantViolation as exc:
                assert str(exc) == "KeyError: 'injected'"
                assert all(type(s) is TraceStep for s in exc.steps)
                assert exc.steps == trace.steps[: len(exc.steps)]
                faults += 1
        assert faults > len(clean) // 2


class TestAbsorbTriangles:
    def test_three_shared_vertices(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (3, 5), (1, 5)])
        out = absorb_triangles(Path((0, 1, 2, 3, 4, 5)), [(1, 3, 5)], g)
        assert [q.vertices for q in out] == [(0, 1, 3, 5, 4), (4, 3, 2, 1, 5)]

    def test_two_shared_vertices(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (1, 5), (3, 5)])
        out = absorb_triangles(Path((0, 1, 2, 3, 4)), [(1, 3, 5)], g)
        assert [q.vertices for q in out] == [(0, 1, 3, 2), (2, 1, 5, 3, 4)]

    def test_one_shared_vertex(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (4, 5)])
        out = absorb_triangles(Path((0, 1, 2, 3)), [(1, 4, 5)], g)
        assert [q.vertices for q in out] == [(0, 1, 4, 5), (5, 1, 2, 3)]

    def test_edges_exactly_covered(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (4, 5)])
        out = absorb_triangles(Path((0, 1, 2, 3)), [(1, 4, 5)], g)
        assert edges_of(out) == sorted(g.edges())

    def test_unrelated_triple_rejected(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (4, 5)])
        with pytest.raises(TriangleNotComponent):
            absorb_triangles(Path((0, 1, 2, 3)), [(0, 2, 3)], g)

    def test_triangle_on_the_path_is_not_a_component(self):
        # (1,2,3) has its (1,2) and (2,3) edges on the carrier
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        with pytest.raises(TriangleNotComponent):
            absorb_triangles(Path((0, 1, 2, 3)), [(1, 2, 3)], g)

    def test_builds_no_working_graph(self, monkeypatch):
        def refuse(self, g):
            raise AssertionError("absorb_triangles built the decomposer's working graph")

        monkeypatch.setattr(_WorkingGraph, "__init__", refuse)
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (4, 5)])
        assert len(absorb_triangles(Path((0, 1, 2, 3)), [(1, 4, 5)], g)) == 2

    def test_two_triangles_three_paths(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        edges += [(1, 5), (1, 6), (5, 6), (3, 7), (3, 8), (7, 8)]
        g = Graph.from_edges(9, edges)
        out = absorb_triangles(Path((0, 1, 2, 3, 4)), [(1, 5, 6), (3, 7, 8)], g)
        assert len(out) == 3
        assert edges_of(out) == sorted(g.edges())


class TestCycleMerges:
    def test_triangle_into_decomposition(self):
        # path 2-3-4 plus triangle (0,1,2) hanging on vertex 2
        g = Graph.from_edges(5, [(2, 3), (3, 4), (0, 1), (0, 2), (1, 2)])
        out = [Path((2, 3, 4))]
        assert _merge_cycle(Cycle((0, 1, 2)), out, 0, 0, 1) == (2, 3, 4)
        assert len(out) == 2
        assert edges_of(out) == sorted(g.edges())

    def test_four_cycle_into_decomposition(self):
        # the host path must touch the cycle off the u-v axis
        g = Graph.from_edges(6, [(1, 4), (4, 5), (0, 1), (1, 2), (2, 3), (3, 0)])
        out = [Path((1, 4, 5))]
        assert _merge_cycle(Cycle((0, 1, 2, 3)), out, 0, 0, 2) == (1, 4, 5)
        assert [p.vertices for p in out] == [(1, 2, 3, 0), (0, 1, 4, 5)]
        assert edges_of(out) == sorted(g.edges())

    def test_four_cycle_into_a_path_through_both_contacts(self):
        # the first path misses the cycle; the second meets 3, then 1
        edges = [(7, 8), (3, 4), (3, 5), (1, 5), (1, 6), (0, 1), (1, 2), (2, 3), (3, 0)]
        g = Graph.from_edges(9, edges)
        out = [Path((7, 8)), Path((4, 3, 5, 1, 6))]
        assert _merge_cycle(Cycle((0, 1, 2, 3)), out, 0, 0, 2) == (4, 3, 5, 1, 6)
        assert [p.vertices for p in out] == [(7, 8), (4, 3, 2, 1, 0), (0, 3, 5, 1, 6)]
        assert edges_of(out) == sorted(g.edges())

    def test_merges_only_from_start_on(self):
        # the path before start meets the cycle too, and stays as it is; of
        # the paths from start on, the first that meets it is split
        out = [Path((2, 9)), Path((7, 8)), Path((2, 5, 6)), Path((6, 2))]
        assert _merge_cycle(Cycle((0, 1, 2)), out, 1, 0, 1) == (2, 5, 6)
        assert [p.vertices for p in out] == [(2, 9), (7, 8), (2, 1, 0), (0, 2, 5, 6), (6, 2)]

    def test_no_contact_raises(self):
        with pytest.raises(NoIntersectingPath):
            _merge_cycle(Cycle((0, 1, 2)), [Path((3, 4, 5))], 0, 0, 1)

    def test_triangle_with_triangle_component(self):
        out = merge_cycle_with_triangle(Cycle((0, 1, 2)), (2, 3, 4))
        assert [p.vertices for p in out] == [(0, 1, 2, 3, 4), (0, 2, 4)]

    def test_four_cycle_with_straddling_triangle(self):
        out = merge_cycle_with_triangle(Cycle((0, 1, 2, 3)), (1, 3, 4))
        assert [p.vertices for p in out] == [(2, 3, 4, 1, 0), (0, 3, 1, 2)]
        expected = sorted(set(Cycle((0, 1, 2, 3)).edges()) | {(1, 3), (1, 4), (3, 4)})
        assert edges_of(out) == expected

    def test_bad_geometry(self):
        with pytest.raises(GeometryMismatch):
            merge_cycle_with_triangle(Cycle((0, 1, 2)), (0, 1, 2, 3))
        with pytest.raises(GeometryMismatch):
            merge_cycle_with_triangle(Cycle((0, 1, 2, 3, 4)), (0, 1, 2))


def is_detail_value(x):
    """An int, a str, or a tuple of detail values: what the engine already
    holds, never a list, dict or set copied out of it."""
    if isinstance(x, tuple):
        return all(is_detail_value(y) for y in x)
    return isinstance(x, (int, str))


class TestTraceDetail:
    @staticmethod
    def graphs():
        """Every family graph, dense instances and one large sparse graph:
        between them they reach every branch tag."""
        for name in FAMILIES:
            for n in (None,) if name in _FIXED else _FAMILY_SIZES:
                yield family(name, n)
        for s in range(60):
            yield dense_instance(s, max_n=48)
        yield generate(GenSpec(n=1200, seed=0))

    def test_details_hold_only_ints_strings_and_tuples(self):
        tags = set()
        for g in self.graphs():
            _dec, trace, _met = decompose(g)
            for step in trace.steps:
                tags.add(step.tag)
                bad = {k: v for k, v in step.detail.items() if not is_detail_value(v)}
                assert not bad, (step.tag, bad)
        assert tags == BRANCH_TAGS


class TestTextFormat:
    def round_trip(self, g):
        dec, _, met = decompose(g)
        paths, bound, parsed_met = parse_decomposition(format_decomposition(dec))
        assert [tuple(p) for p in paths] == [p.vertices for p in dec.paths]
        assert bound == dec.claimed_bound
        assert parsed_met == met

    def test_round_trip_met(self):
        self.round_trip(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_round_trip_unmet(self):
        self.round_trip(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))

    def test_header_shape(self):
        g = Graph.from_edges(2, [(0, 1)])
        dec, _, _ = decompose(g)
        assert format_decomposition(dec).splitlines()[0] == "paths 1 bound 1 met true"

    def test_parse_rejects_noise(self):
        with pytest.raises(ValueError):
            parse_decomposition("paths 1 bound\n0 1\n")
        with pytest.raises(ValueError):
            parse_decomposition("0 1\n")
