import pytest
from hypothesis import given, strategies as st

from gallai.generate import GenSpec, densify, generate
from gallai.graph import (
    Component,
    Cycle,
    DuplicateEdge,
    Graph,
    GraphError,
    IdOutOfRange,
    NoPath,
    NotTwoDegenerate,
    Path,
    SelfLoop,
    connected_components,
    degeneracy_order,
    format_edge_list,
    in_one_component,
    is_cut_vertex,
    is_two_degenerate,
    parse_edge_list,
    shortest_path,
    triangle_components,
)


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def p4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def k4():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestConstruction:
    def test_triangle(self):
        g = triangle()
        assert g.m == 3
        assert g.neighbors(0) == {1, 2}
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_adjacency_is_symmetric(self):
        g = Graph.from_edges(5, [(3, 1), (0, 4)])
        for u in range(5):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_duplicate_edge_rejected_both_orientations(self):
        with pytest.raises(DuplicateEdge):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            Graph.from_edges(2, [(1, 1)])

    def test_out_of_range_names_the_pair(self):
        with pytest.raises(IdOutOfRange, match=r"\(0, 7\)"):
            Graph.from_edges(3, [(0, 7)])

    def test_isolated_vertices_allowed(self):
        g = Graph.from_edges(6, [(0, 1)])
        assert g.non_isolated() == (0, 1)
        assert g.non_isolated_count() == 2


class TestViews:
    def test_without_edges_masks_without_reindexing(self):
        g = p4().without_edges([(1, 2)])
        assert g.n == 4 and g.m == 2
        assert not g.has_edge(1, 2)
        assert g.has_edge(0, 1)

    def test_without_absent_edge_fails(self):
        with pytest.raises(GraphError):
            p4().without_edges([(0, 3)])

    def test_without_vertex_isolates(self):
        g = p4().without_vertex(1)
        assert g.degree(1) == 0
        assert g.m == 1
        assert g.has_edge(2, 3)

    def test_restricted_to_keeps_inner_edges_only(self):
        g = k4().restricted_to([0, 1, 2])
        assert g.m == 3
        assert g.degree(3) == 0

    def test_with_edges_extends(self):
        g = p4().with_edges([(0, 3)])
        assert g.m == 4
        with pytest.raises(DuplicateEdge):
            g.with_edges([(3, 0)])

    def test_views_leave_original_untouched(self):
        g = p4()
        g.without_vertex(1)
        g.with_edges([(0, 2)])
        assert g.m == 3


class TestPathAndCycle:
    def test_path_edges(self):
        p = Path((2, 0, 1))
        assert list(p.edges()) == [(0, 2), (0, 1)]
        assert p.endpoints == (2, 1)
        assert len(p) == 3

    def test_single_vertex_path_has_no_edges(self):
        assert list(Path((5,)).edges()) == []

    def test_path_rejects_repeats(self):
        with pytest.raises(ValueError):
            Path((0, 1, 0))

    def test_cycle_wraps(self):
        c = Cycle((0, 1, 2))
        assert sorted(c.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_cycle_min_length(self):
        with pytest.raises(ValueError):
            Cycle((0, 1))


class TestComponents:
    def test_triangle_plus_edge(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        comps = connected_components(g)
        assert [c.vertices for c in comps] == [(0, 1, 2), (3, 4)]
        assert comps[0].is_triangle and not comps[1].is_triangle

    def test_component_views_share_universe(self):
        g = Graph.from_edges(5, [(0, 1), (3, 4)])
        comps = connected_components(g)
        assert all(c.graph.n == 5 for c in comps)
        assert comps[1].graph.has_edge(3, 4)
        assert comps[1].graph.degree(0) == 0

    def test_within_restriction_creates_singletons(self):
        g = p4()
        comps = connected_components(g, within=[0, 2, 3])
        assert [c.vertices for c in comps] == [(0,), (2, 3)]

    def test_triangle_components_returns_triples(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 5)])
        assert triangle_components(g) == [(0, 1, 2), (5, 6, 7)]

    def test_partition_property(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (4, 5)])
        tris = {v for t in triangle_components(g) for v in t}
        rest = {v for c in connected_components(g) if not c.is_triangle for v in c.vertices}
        isolated = {v for v in range(g.n) if not g.neighbors(v)}
        assert tris | rest | isolated == set(range(7))
        assert tris.isdisjoint(rest)


class TestDegeneracy:
    def test_triangle_order(self):
        assert degeneracy_order(triangle()) == (0, 1, 2)

    def test_p4_order(self):
        assert degeneracy_order(p4()) == (0, 1, 2, 3)

    def test_k4_not_two_degenerate(self):
        with pytest.raises(NotTwoDegenerate, match=r"\(0, 1, 2, 3\)"):
            degeneracy_order(k4())

    def test_peel_uses_min_degree_first(self):
        # 3 is pendant (degree 1), 0 has degree 2; min degree wins over id
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
        assert degeneracy_order(g)[0] == 3

    def test_is_two_degenerate(self):
        assert is_two_degenerate(p4())
        assert not is_two_degenerate(k4())


class TestShortestPath:
    def c4(self):
        return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_direct_edge(self):
        p = shortest_path(triangle(), 0, 1)
        assert p.vertices == (0, 1)

    def test_detour_around_forbidden_vertex(self):
        p = shortest_path(self.c4(), 0, 2, forbidden_vertices={1})
        assert p.vertices == (0, 3, 2)

    def test_no_path(self):
        with pytest.raises(NoPath):
            shortest_path(self.c4(), 0, 2, forbidden_vertices={1, 3})

    def test_deterministic_tie_break_prefers_low_ids(self):
        # two shortest routes 0-1-3 and 0-2-3; BFS discovers via 1 first
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path(g, 0, 3).vertices == (0, 1, 3)


class TestCutVertex:
    def test_p4_internal(self):
        cut, comps = is_cut_vertex(p4(), 1)
        assert cut
        assert [c.vertices for c in comps] == [(0,), (2, 3)]

    def test_triangle_has_none(self):
        cut, comps = is_cut_vertex(triangle(), 0)
        assert not cut
        assert [c.vertices for c in comps] == [(1, 2)]

    def test_matches_component_count_definition(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)])
        base = len(connected_components(g))
        for v in range(7):
            flag, _ = is_cut_vertex(g, v)
            before = g.non_isolated_count()
            after = connected_components(g.without_vertex(v))
            # vertices isolated by the removal count as their own components
            stranded = before - 1 - sum(c.n for c in after)
            assert flag == (len(after) + stranded > base)


class TestTextFormat:
    def test_round_trip(self):
        g = Graph.from_edges(5, [(4, 0), (1, 2)])
        text = format_edge_list(g)
        assert text.splitlines()[0] == "p 5 2"
        assert parse_edge_list(text) == g

    def test_headerless_infers_n(self):
        g = parse_edge_list("0 1\n1 4\n")
        assert g.n == 5 and g.m == 2

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# a graph\n\np 3 1  # inline\n0 2\n")
        assert g.n == 3 and g.has_edge(0, 2)

    def test_bad_line_reports_number(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("0 1\n0 one\n")

    def test_late_header_rejected(self):
        with pytest.raises(GraphError, match="stray header"):
            parse_edge_list("0 1\np 4 1\n")

    def test_header_edge_count_must_match(self):
        with pytest.raises(GraphError, match="line 2: header says 99 edges, file has 2"):
            parse_edge_list("# comment\np 4 99\n0 1\n1 2\n")
        with pytest.raises(GraphError, match="header says 1 edges, file has 2"):
            parse_edge_list("p 4 1\n0 1\n1 2\n")
        assert parse_edge_list("p 4 0\n").m == 0

    def test_empty_input(self):
        g = parse_edge_list("")
        assert g.n == 0 and g.m == 0


# -- stored counts and the seeded probes ---------------------------------------


def recount(g):
    """Non-isolated count and degree-1-or-2 set, from a scan of the universe."""
    count = sum(1 for v in range(g.n) if g.neighbors(v))
    low = frozenset(v for v in range(g.n) if 1 <= g.degree(v) <= 2)
    return count, low


def assert_tallied(g):
    assert (g.non_isolated_count(), g.low_vertices()) == recount(g)


def same_piece(g, vertices):
    """Reference for in_one_component: one connected_components piece holds
    every given vertex that has edges."""
    piece = {v: i for i, c in enumerate(connected_components(g)) for v in c.vertices}
    return len({piece[v] for v in vertices if g.neighbors(v)}) <= 1


@st.composite
def carrier_removals(draw):
    """A connected 2-degenerate graph, the graph left after deleting a
    carrier-like edge set, and the endpoints of the deleted edges.

    The carrier is a shortest path between two drawn vertices, plus up to two
    edges hanging off its ends, as the reduction branches remove them.
    """
    n = draw(st.integers(3, 40))
    seed = draw(st.integers(0, 2**20))
    g = generate(GenSpec(n=n, seed=seed, p2=draw(st.sampled_from((0.3, 0.6, 0.9)))))
    if n <= 16 and draw(st.booleans()):
        g = densify(g, seed=seed)
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 1).filter(lambda t: t != s))
    removed = set(shortest_path(g, s, t).edges())
    for end in (s, t):
        spare = sorted(w for w in g.neighbors(end) if (min(end, w), max(end, w)) not in removed)
        if spare and draw(st.booleans()):
            removed.add((min(end, spare[0]), max(end, spare[0])))
    touched = sorted({w for e in removed for w in e})
    return g, g.without_edges(sorted(removed)), touched


class TestStoredCounts:
    def test_every_constructor_keeps_the_tally(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 7)])
        assert_tallied(g)
        for h in (
            g.without_edges([(2, 3)]),
            g.without_edges([(6, 7), (0, 1)]),
            g.without_vertex(3),
            g.without_vertex(7),
            g.with_edges([(1, 6), (5, 7)]),
            g.with_edges([(0, 3)]),
            g.restricted_to([0, 1, 2, 3]),
            g.restricted_to([6]),
        ):
            assert_tallied(h)
        for c in connected_components(g) + connected_components(g, within=[0, 2, 3, 4, 6]):
            assert_tallied(c.graph)

    def test_empty_graph(self):
        g = Graph.from_edges(4, [])
        assert g.non_isolated_count() == 0 and g.low_vertices() == frozenset()
        assert_tallied(g.with_edges([(0, 1)]))

    @given(carrier_removals())
    def test_tally_after_removal_matches_recount(self, case):
        g, h, touched = case
        assert_tallied(g)
        assert_tallied(h)
        assert_tallied(h.without_vertex(touched[0]))
        assert_tallied(h.restricted_to(range(0, h.n, 2)))
        for c in connected_components(h):
            assert_tallied(c.graph)


class TestSeededProbes:
    @given(carrier_removals())
    def test_triangle_probe_matches_full_search(self, case):
        _g, h, touched = case
        assert triangle_components(h, near=touched) == triangle_components(h)

    @given(carrier_removals())
    def test_lockstep_matches_components(self, case):
        _g, h, touched = case
        assert in_one_component(h, touched) == same_piece(h, touched)

    @given(carrier_removals(), st.data())
    def test_lockstep_matches_components_for_any_starts(self, case, data):
        _g, h, _touched = case
        starts = data.draw(st.lists(st.integers(0, h.n - 1), max_size=6))
        assert in_one_component(h, starts) == same_piece(h, starts)

    def test_probe_sees_only_triangles_near_the_starts(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 5)])
        assert triangle_components(g, near=[6]) == [(5, 6, 7)]
        assert triangle_components(g, near=[3, 1, 7, 2]) == [(0, 1, 2), (5, 6, 7)]
        assert triangle_components(g, near=[3, 4]) == []

    def test_triangle_with_a_tail_is_not_a_component(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert triangle_components(g, near=[0, 1, 2, 3]) == []

    def test_split_cutting_off_a_single_edge(self):
        # a 6-cycle with a pendant edge 6-7 hung on 0; deleting 0-6 strands 6-7
        cycle = [(i, (i + 1) % 6) for i in range(6)]
        g = Graph.from_edges(8, cycle + [(0, 6), (6, 7)]).without_edges([(0, 6)])
        assert not in_one_component(g, [0, 6])
        assert not in_one_component(g, [6, 0])
        assert in_one_component(g, [0, 3])

    def test_split_cutting_off_the_larger_side(self):
        # a long path 0..19 joined by the edge 19-20 to a triangle 20, 21, 22;
        # the larger side's only start is listed first
        edges = [(i, i + 1) for i in range(19)] + [(19, 20), (20, 21), (21, 22), (22, 20)]
        g = Graph.from_edges(23, edges).without_edges([(19, 20)])
        assert not in_one_component(g, [19, 20, 21])
        assert not in_one_component(g, [0, 22])

    def test_connected_the_long_way_round(self):
        # deleting one edge of a 30-cycle leaves its ends joined by 29 edges
        g = Graph.from_edges(30, [(i, (i + 1) % 30) for i in range(30)])
        assert in_one_component(g.without_edges([(0, 29)]), [0, 29])

    def test_isolated_and_repeated_starts_are_ignored(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2)])
        assert in_one_component(g, [])
        assert in_one_component(g, [4, 5])
        assert in_one_component(g, [0, 2, 2, 5])
        assert not in_one_component(g.with_edges([(4, 5)]), [0, 4])
