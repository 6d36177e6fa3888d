import pytest

from gallai.decompose import (
    BRANCH_TAGS,
    Decomposition,
    GeometryMismatch,
    InternalInvariantViolation,
    NoIntersectingPath,
    TriangleNotComponent,
    _Engine,
    absorb_triangles,
    decompose,
    decompose_connected,
    format_decomposition,
    merge_cycle_into_decomposition,
    merge_cycle_with_triangle,
    parse_decomposition,
)
from gallai.graph import Cycle, Graph, NotTwoDegenerate, Path
from gallai.verify import verify_decomposition


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
        with pytest.raises(NotTwoDegenerate):
            decompose(k4)

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
        dec, _ = decompose_connected(g)
        assert len(dec.paths) <= limit
        assert dec.bound_met
        check(g, dec)

    def test_rejects_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="triangle"):
            decompose_connected(g)

    def test_rejects_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            decompose_connected(g)

    def test_trace_tags_are_known(self):
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
        _, trace = decompose_connected(g, record_state=True)
        assert all(s.tag in BRANCH_TAGS for s in trace.steps)
        assert all(s.state_edges is not None for s in trace.steps)


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
        dec, trace = decompose_connected(g)
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

    def test_lemma_case_applications(self):
        lem1 = Graph.from_edges(11, [(0, 4), (0, 2), (2, 3), (1, 3), (1, 5), (4, 5), (2, 4), (2, 5), (3, 6), (6, 9), (6, 10), (7, 8), (7, 9), (7, 10), (8, 9), (8, 10)])
        lem2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        lem3 = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (4, 5)])
        for g, tag in ((lem1, "Lemma1-Case1"), (lem2, "Lemma1-Case2"), (lem3, "Lemma1-Case3")):
            dec, trace = decompose_connected(g)
            check(g, dec)
            assert tag in {s.tag for s in trace.steps}

    def test_determinism(self):
        g, c = splice(strip(7), 0, strip(6), 0)
        g = hang(g, c)
        a, _ = decompose_connected(g)
        b, _ = decompose_connected(g)
        assert a.paths == b.paths


class TestInvariantGuards:
    def test_removal_must_be_carrier_plus_reattach(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(InternalInvariantViolation, match="carrier plus reattach"):
            _Engine(False).run_plan(
                g, "Claim1-Path", {}, Path((0, 1, 2)), [(3, 4)], (), clean_removal=False
            )

    def test_piece_loop_rejects_a_triangle_view(self):
        views = [Graph.from_edges(5, [(3, 4)]), Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])]
        with pytest.raises(InternalInvariantViolation, match=r"triangle component \(0, 1, 2\)") as exc:
            _Engine(False).decompose_pieces(views, [])
        assert [s.tag for s in exc.value.steps] == ["Base"]


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
        base = Decomposition(
            paths=(Path((2, 3, 4)),), host=g, claimed_bound=1, bound_met=True
        )
        out = merge_cycle_into_decomposition(Cycle((0, 1, 2)), base, 0, 1)
        assert len(out.paths) == 2
        assert out.claimed_bound == 2
        assert edges_of(out.paths) == sorted(g.edges())

    def test_four_cycle_into_decomposition(self):
        # the host path must touch the cycle off the u-v axis
        g = Graph.from_edges(6, [(1, 4), (4, 5), (0, 1), (1, 2), (2, 3), (3, 0)])
        base = Decomposition(
            paths=(Path((1, 4, 5)),), host=g, claimed_bound=1, bound_met=True
        )
        out = merge_cycle_into_decomposition(Cycle((0, 1, 2, 3)), base, 0, 2)
        assert [p.vertices for p in out.paths] == [(1, 2, 3, 0), (0, 1, 4, 5)]
        assert out.claimed_bound == 2
        assert edges_of(out.paths) == sorted(g.edges())

    def test_no_contact_raises(self):
        g = Graph.from_edges(6, [(3, 4), (4, 5), (0, 1), (1, 2), (0, 2)])
        base = Decomposition(
            paths=(Path((3, 4, 5)),), host=g, claimed_bound=1, bound_met=True
        )
        with pytest.raises(NoIntersectingPath):
            merge_cycle_into_decomposition(Cycle((0, 1, 2)), base, 0, 1)

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
