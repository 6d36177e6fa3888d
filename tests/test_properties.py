"""Randomized invariants, cross-checked against independent computations."""

from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gallai.decompose import decompose, format_decomposition
from gallai.generate import GenSpec, _capped_strip, densify, generate
from gallai.graph import (
    Graph,
    NoPath,
    NotTwoDegenerate,
    connected_components,
    degeneracy_order,
    format_edge_list,
    is_cut_vertex,
    is_two_degenerate,
    parse_edge_list,
    shortest_path,
)
from gallai.verify import (
    TooLarge,
    minimum_decomposition,
    odd_degree_lower_bound,
    parse_decomposition,
    verify_decomposition,
)


@st.composite
def graphs(draw, min_n=1, max_n=30, connect=None):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**20))
    p2 = draw(st.sampled_from((0.2, 0.5, 0.8)))
    c = draw(st.booleans()) if connect is None else connect
    return generate(GenSpec(n=n, seed=seed, connect=c, p2=p2))


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestGraphInvariants:
    @given(graphs())
    def test_degeneracy_order_is_definitional(self, g):
        order = degeneracy_order(g)
        assert sorted(order) == list(range(g.n))
        h = g
        for v in order:
            assert h.degree(v) <= 2
            h = h.without_vertex(v)

    @given(graphs(min_n=2, connect=True), st.data())
    def test_shortest_path_matches_reference(self, g, data):
        s = data.draw(st.integers(0, g.n - 1))
        t = data.draw(st.integers(0, g.n - 1))
        p = shortest_path(g, s, t)
        assert p.vertices[0] == s and p.vertices[-1] == t
        for a, b in p.edges():
            assert g.has_edge(a, b)
        assert len(p) - 1 == nx.shortest_path_length(to_nx(g), s, t)

    @given(graphs(min_n=3, connect=True), st.data())
    def test_shortest_path_respects_forbidden(self, g, data):
        s = data.draw(st.integers(0, g.n - 1))
        t = data.draw(st.integers(0, g.n - 1))
        banned = data.draw(st.sets(st.integers(0, g.n - 1), max_size=3)) - {s, t}
        try:
            p = shortest_path(g, s, t, forbidden_vertices=banned)
        except NoPath:
            assert not nx.has_path(to_nx(g.restricted_to(set(range(g.n)) - banned)), s, t)
            return
        assert banned.isdisjoint(p.vertices)

    @given(graphs(min_n=3, connect=True))
    def test_cut_vertices_match_reference(self, g):
        reference = set(nx.articulation_points(to_nx(g)))
        assert {v for v in range(g.n) if is_cut_vertex(g, v)} == reference

    @given(graphs(min_n=3, connect=False))
    @example(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))
    def test_cut_vertices_match_reference_when_disconnected(self, g):
        reference = set(nx.articulation_points(to_nx(g)))
        assert {v for v in range(g.n) if is_cut_vertex(g, v)} == reference

    @given(graphs())
    def test_components_partition_non_isolated(self, g):
        comps = connected_components(g)
        seen = [u for c in comps for u in c.vertices]
        assert sorted(seen) == sorted(set(seen))
        assert sum(c.m for c in comps) == g.m

    @given(graphs())
    def test_generated_graphs_are_two_degenerate(self, g):
        assert is_two_degenerate(g)
        assert g.m <= max(0, 2 * g.n - 3)

    @given(graphs())
    def test_edge_list_text_round_trip(self, g):
        assert parse_edge_list(format_edge_list(g)) == g


@st.composite
def edge_sets(draw, max_n=12):
    """Any simple graph on at most max_n vertices; about half the pairs are
    edges, so most of them are not 2-degenerate."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def densified_plus_one_edge(draw):
    """A densified graph with one non-edge added: the candidates densify checks."""
    d = densify(draw(graphs(min_n=5, max_n=20)), seed=draw(st.integers(0, 2**10)))
    missing = [e for e in combinations(range(d.n), 2) if not d.has_edge(*e)]
    return d.with_edges([draw(st.sampled_from(missing))])


def peels_completely(g):
    """The reference answer: `degeneracy_order` does not get stuck."""
    try:
        degeneracy_order(g)
    except NotTwoDegenerate:
        return False
    return True


def neighbor_sets(g):
    """g as the sequence of mutable neighbour sets that `densify` edits."""
    return [set(g.neighbors(v)) for v in range(g.n)]


_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestTwoDegeneratePeel:
    @settings(max_examples=300)
    @given(edge_sets())
    def test_matches_degeneracy_order_on_any_graph(self, g):
        assert is_two_degenerate(g) == peels_completely(g)

    @settings(max_examples=60)
    @given(densified_plus_one_edge())
    def test_matches_degeneracy_order_on_densify_candidates(self, g):
        assert is_two_degenerate(g) == peels_completely(g)

    @pytest.mark.parametrize(
        "n,edges,expected",
        [
            (0, [], True),
            (5, [], True),
            (4, _K4, False),
            (5, _K4 + [(3, 4)], False),
            (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)], False),
            (7, [(u + 3, w + 3) for u, w in _K4], False),
        ],
        ids=["empty", "isolated", "k4", "k4-pendant", "wheel-w5", "k4-beside-isolated"],
    )
    def test_fixed_cases(self, n, edges, expected):
        g = Graph.from_edges(n, edges)
        assert is_two_degenerate(g) is expected
        assert peels_completely(g) is expected
        sets = neighbor_sets(g)
        assert is_two_degenerate(sets) is expected
        assert sets == neighbor_sets(g)  # read, not consumed

    @settings(max_examples=300)
    @given(edge_sets())
    def test_neighbor_sets_read_as_the_graph(self, g):
        assert is_two_degenerate(neighbor_sets(g)) is is_two_degenerate(g)

    @pytest.mark.parametrize("n", range(5, 10))
    def test_capped_strip_takes_no_more_edges(self, n):
        # 2n - 3 edges is the most a 2-degenerate graph can have
        g = _capped_strip(n)
        assert is_two_degenerate(g)
        for e in combinations(range(n), 2):
            if not g.has_edge(*e):
                assert not is_two_degenerate(g.with_edges([e]))


class TestEdgeBound:
    """A 2-degenerate graph on k >= 2 non-isolated vertices has at most 2k - 3
    edges: peeling a vertex of degree <= 2 at a time drops at most 2 edges
    per vertex until the last two, which share at most 1."""

    @given(graphs(), st.integers(0, 2**10))
    def test_generated_and_densified_graphs_stay_within_it(self, g, seed):
        for h in (g, densify(g, seed=seed)):
            k = h.non_isolated_count()
            if k >= 2:
                assert h.m <= 2 * k - 3

    @settings(max_examples=300)
    @given(edge_sets())
    def test_any_graph_past_it_is_not_two_degenerate(self, g):
        k = g.non_isolated_count()
        if k >= 2 and g.m > 2 * k - 3:
            assert not is_two_degenerate(g)

    @settings(max_examples=60)
    @given(graphs(min_n=2, max_n=20, connect=True), st.integers(0, 2**10))
    def test_no_edge_fits_at_it(self, g, seed):
        d = densify(g, seed=seed)
        live = [v for v in range(d.n) if d.degree(v)]
        assume(len(live) >= 2 and d.m == 2 * len(live) - 3)
        for e in combinations(live, 2):
            if not d.has_edge(*e):
                assert not is_two_degenerate(d.with_edges([e]))


class TestDecomposerInvariants:
    @settings(max_examples=60)
    @given(graphs(max_n=60))
    def test_output_verifies(self, g):
        dec, trace, met = decompose(g)
        assert verify_decomposition(g, dec).valid

    @settings(max_examples=60)
    @given(graphs(max_n=60))
    def test_bound_semantics(self, g):
        dec, _, met = decompose(g)
        triangles = [c for c in connected_components(g) if c.is_triangle]
        if not triangles:
            assert met
            assert dec.claimed_bound == g.non_isolated_count() // 2
            assert len(dec.paths) <= dec.claimed_bound
        else:
            assert not met
            assert dec.bound_met is False

    @settings(max_examples=60)
    @given(graphs(connect=True, min_n=4, max_n=60))
    def test_connected_instances_meet_the_bound(self, g):
        dec, _, met = decompose(g)
        assert met
        assert len(dec.paths) <= g.n // 2

    @settings(max_examples=40)
    @given(graphs(max_n=40), st.integers(0, 2**10))
    def test_densified_instances_still_decompose(self, g, seed):
        d = densify(g, seed=seed)
        dec, _, _ = decompose(d)
        assert verify_decomposition(d, dec).valid

    @settings(max_examples=40)
    @given(graphs(max_n=30))
    def test_decomposition_text_round_trip(self, g):
        dec, _, met = decompose(g)
        paths, bound, parsed_met = parse_decomposition(format_decomposition(dec))
        assert [tuple(p) for p in paths] == [p.vertices for p in dec.paths]
        assert (bound, parsed_met) == (dec.claimed_bound, met)


class TestOracleSandwich:
    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=8))
    def test_decomposer_never_beats_the_oracle(self, g):
        try:
            best, witness = minimum_decomposition(g, limit=12)
        except TooLarge:
            return
        dec, _, _ = decompose(g)
        real_paths = [p for p in dec.paths if len(p) > 1]
        assert best <= len(real_paths)
        assert best >= odd_degree_lower_bound(g)
        assert verify_decomposition(g, witness).valid


class TestVerifierCatchesCorruption:
    @settings(max_examples=60)
    @given(graphs(min_n=4, max_n=25, connect=True), st.data())
    def test_any_single_corruption_is_flagged(self, g, data):
        dec, _, _ = decompose(g)
        paths = [list(p.vertices) for p in dec.paths]
        bound = dec.claimed_bound
        kind = data.draw(st.sampled_from(("drop", "dup", "foreign", "tighten")))
        if kind == "drop":
            idx = data.draw(st.integers(0, len(paths) - 1))
            if len(paths[idx]) < 2:
                return
            del paths[idx]
        elif kind == "dup":
            idx = data.draw(st.integers(0, len(paths) - 1))
            if len(paths[idx]) < 2:
                return
            paths.append(paths[idx])
            bound = len(paths) + 1
        elif kind == "foreign":
            pair = next(
                (
                    (u, v)
                    for u in range(g.n)
                    for v in range(u + 1, g.n)
                    if not g.has_edge(u, v)
                ),
                None,
            )
            assert pair is not None
            paths.append(list(pair))
            bound = len(paths) + 1
        else:
            bound = len(paths) - 1
        from types import SimpleNamespace

        report = verify_decomposition(
            g, SimpleNamespace(paths=paths, claimed_bound=bound)
        )
        assert not report.valid
        assert report.failures


class TestDensifyInvariants:
    @settings(max_examples=40)
    @given(graphs(max_n=30), st.integers(0, 2**10))
    def test_densify_preserves_degeneracy_and_edges(self, g, seed):
        d = densify(g, seed=seed)
        assert is_two_degenerate(d)
        assert set(g.edges()) <= set(d.edges())

    @settings(max_examples=30)
    @given(graphs(min_n=6, max_n=30, connect=True), st.integers(0, 2**10))
    def test_densify_preserves_connectivity(self, g, seed):
        d = densify(g, seed=seed)
        assert len(connected_components(d)) == 1
