import copy
import pickle
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from gallai.cli import FuzzReport
from gallai.decompose import Decomposition, ReductionTrace, TraceStep, decompose
from gallai.generate import GenSpec, densify, generate
from gallai.graph import (
    MAX_VERTICES,
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
    is_cut_vertex,
    is_two_degenerate,
    parse_edge_list,
    shortest_path,
    split_off,
    triangle_components,
)
from gallai.verify import Failure, OracleWitness, VerificationReport


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
        assert g.non_isolated_count() == 2
        empty = Graph.from_edges(4, [])
        assert empty.non_isolated_count() == 0


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


def frozen_records():
    """(record, an equal record built apart, one of its fields) for each kind
    of frozen record."""

    def make():
        path = Path((0, 1))
        step = TraceStep("Base", {"u": 0, "v": 1}, 2, 1)
        return [
            (Graph.from_edges(2, [(0, 1)]), "n"),
            (path, "vertices"),
            (Cycle((0, 1, 2)), "ring"),
            (Component(vertices=(0, 1), m=1), "m"),
            (step, "tag"),
            (ReductionTrace((step,)), "steps"),
            (Decomposition(paths=(path,), claimed_bound=1), "bound_met"),
            (GenSpec(n=5, seed=1), "n"),
            (Failure("EdgeMissing", "edge (0, 1) is not covered"), "kind"),
            (VerificationReport(True, (), 1, 1, 1), "valid"),
            (OracleWitness(paths=(path,), claimed_bound=1), "paths"),
        ]

    return [(a, b, field) for (a, field), (b, _) in zip(make(), make())]


RECORD_IDS = [type(a).__name__ for a, _b, _f in frozen_records()]


class TestRecords:
    @pytest.mark.parametrize("rec, _twin, field", frozen_records(), ids=RECORD_IDS)
    def test_frozen(self, rec, _twin, field):
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            delattr(rec, field)

    @pytest.mark.parametrize("a, b, _field", frozen_records(), ids=RECORD_IDS)
    def test_equal_fields_mean_equal_records(self, a, b, _field):
        assert a is not b and a == b and not a != b
        if isinstance(a, (TraceStep, ReductionTrace)):
            # a step's bound vertices and detail are dicts
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    @pytest.mark.parametrize("rec, _twin, field", frozen_records(), ids=RECORD_IDS)
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_are_equal_frozen_records(self, rec, _twin, field, clone):
        twin = clone(rec)
        assert type(twin) is type(rec) and twin == rec
        with pytest.raises(AttributeError):
            setattr(twin, field, getattr(twin, field))

    def test_a_decomposed_trace_and_a_fuzz_report_pickle(self):
        # the engine's trace holds rows until its steps are first read
        _, trace, _ = decompose(generate(GenSpec(n=30, seed=4)))
        twin = pickle.loads(pickle.dumps(trace))
        assert twin == trace and twin.histogram() == trace.histogram()
        report = FuzzReport(2, [{"seed": 1}], {"Base": 3}, 9)
        assert pickle.loads(pickle.dumps(report)) == report

    def test_fields_decide_equality(self):
        assert Path((0, 1)) != Path((1, 0))
        assert Path((0, 1)) != (0, 1)
        assert GenSpec(n=5, seed=1) != GenSpec(n=5, seed=2)
        assert Graph.from_edges(3, [(0, 1)]) != Graph.from_edges(2, [(0, 1)])

    def test_repr_names_the_fields(self):
        assert repr(Path((0, 1))) == "Path(vertices=(0, 1))"
        assert repr(GenSpec(n=5, seed=1)) == "GenSpec(n=5, seed=1, connect=True, p2=0.6)"
        assert repr(Graph.from_edges(2, [(0, 1)])) == "Graph(n=2, m=1)"

    def test_fuzz_report_is_mutable_and_unhashable(self):
        r = FuzzReport(trials=3)
        r.max_n_seen = 7
        assert r == FuzzReport(3, [], {}, 7)
        assert repr(r) == (
            "FuzzReport(trials=3, failures=[], branch_histogram={}, max_n_seen=7)"
        )
        with pytest.raises(TypeError):
            hash(r)
        # each report gets its own lists
        assert FuzzReport(1).failures is not FuzzReport(1).failures


class TestComponents:
    def test_triangle_plus_edge(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        comps = connected_components(g)
        assert [c.vertices for c in comps] == [(0, 1, 2), (3, 4)]
        assert comps[0].is_triangle and not comps[1].is_triangle

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
        assert is_cut_vertex(p4(), 1) is True
        assert is_cut_vertex(p4(), 0) is False

    def test_triangle_has_none(self):
        assert not any(is_cut_vertex(triangle(), v) for v in range(3))

    def test_matches_component_count_definition(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)])
        base = len(connected_components(g))
        for v in range(7):
            flag = is_cut_vertex(g, v)
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

    def test_vertex_count_is_capped_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(IdOutOfRange, match="over the limit of 1000000"):
                Graph.from_edges(MAX_VERTICES + 1, [])
            with pytest.raises(GraphError, match="vertex count 1000000000 is over the limit"):
                parse_edge_list("p 1000000000 0\n")
            with pytest.raises(GraphError, match="vertex count 1000000000 is over the limit"):
                parse_edge_list("0 999999999\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one set per vertex would take gigabytes; the refusals take almost nothing
        assert peak < 100_000

    def test_empty_input(self):
        g = parse_edge_list("")
        assert g.n == 0 and g.m == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n18446744073709551616 2\n1 2\n", "vertex count 18446744073709551617 is"),
            ("p 3 2\n0 1\n9223372036854775808 0\n", r"edge \(9223372036854775808, 0\) outside"),
            ("p 3 3\n0 1\n1 0\n0 9223372036854775808\n", r"duplicate edge \(1, 0\)"),
            ("p 9 2\n4 4\n0 99999999999999999999\n", "self-loop at 4"),
        ],
    )
    def test_ids_past_64_bits_keep_the_error_order(self, text, message):
        with pytest.raises(GraphError, match=message):
            parse_edge_list(text)

    def test_parsed_and_generated_graphs_hold_one_object_per_id(self):
        drawn = generate(GenSpec(n=2_000, seed=3))
        for g in (drawn, parse_edge_list(format_edge_list(drawn))):
            seen: dict[int, int] = {}
            for v in range(g.n):
                for w in g.neighbors(v):
                    assert seen.setdefault(w, id(w)) == id(w)
            assert len(seen) == g.non_isolated_count()


class TestBuildMemory:
    """Building a graph holds little beyond the graph it returns: neighbour
    sets are frozen in place, parsed endpoints are machine ints, and each
    vertex id is one int object."""

    @pytest.mark.parametrize("how", ["parse", "generate"])
    def test_peak_stays_near_the_graph_size(self, how):
        spec = GenSpec(n=20_000, seed=5, p2=0.6)
        text = format_edge_list(generate(spec))
        build = (lambda: parse_edge_list(text)) if how == "parse" else (lambda: generate(spec))
        tracemalloc.start()
        try:
            g = build()
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == spec.n
        # holding the sets and their frozensets at once, and a tuple and two
        # int objects per edge, read 2.13 (parse) and 1.91 (generate)
        assert peak <= 1.4 * size, (peak, size)

    def test_from_neighbor_sets_consumes_its_list(self):
        sets = [{1}, {0, 2}, {1}, set()]
        g = Graph.from_neighbor_sets(sets, 2)
        assert sets == list(g._adj) and all(type(s) is frozenset for s in sets)
        assert g == Graph.from_edges(4, [(0, 1), (1, 2)])


# -- the seeded probes ---------------------------------------------------------


def same_piece(g, vertices):
    """Reference for split_off: one connected_components piece holds every
    given vertex that has edges."""
    piece = {v: i for i, c in enumerate(connected_components(g)) for v in c.vertices}
    return len({piece[v] for v in vertices if g.neighbors(v)}) <= 1


def in_one_component(g, vertices):
    """split_off's answer, after checking that each side it lists is a whole
    component of g."""
    sides = split_off(g, vertices)
    pieces = {c.vertices for c in connected_components(g)}
    assert all(tuple(sorted(side)) in pieces for side in sides)
    return not sides


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


connected_graphs = st.builds(
    lambda n, seed, p2: generate(GenSpec(n=n, seed=seed, p2=p2)),
    st.integers(3, 30),
    st.integers(0, 2**20),
    st.sampled_from((0.3, 0.6, 0.9)),
)


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

    @given(connected_graphs)
    def test_skipping_a_vertex_finds_its_cut(self, g):
        for v in range(g.n):
            sides = split_off(g, g.neighbors(v), skip=[v])
            rest = connected_components(g.without_vertex(v))
            piece = {u: c.vertices for c in rest for u in c.vertices}
            # a neighbour whose only edge went to v is a side of its own
            held = {piece.get(w, (w,)) for w in g.neighbors(v)}
            assert all(tuple(sorted(side)) in held for side in sides)
            assert bool(sides) == (len(held) > 1)

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
