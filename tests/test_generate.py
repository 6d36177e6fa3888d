import hashlib
import importlib
import random
import tracemalloc

import pytest

from gallai.decompose import BRANCH_TAGS, decompose
from gallai.generate import (
    _P_SKIP,
    FAMILIES,
    GenSpec,
    UnknownFamily,
    _block,
    _capped_strip,
    _draw,
    _hang,
    _raise_lows,
    _splice,
    dense_instance,
    densify,
    family,
    generate,
)
from gallai.graph import (
    MAX_VERTICES,
    Graph,
    IdOutOfRange,
    connected_components,
    format_edge_list,
    is_cut_vertex,
    is_two_degenerate,
)
from gallai.verify import verify_decomposition


def is_connected(g):
    return len(connected_components(g)) == 1


def lows(g):
    return [v for v in range(g.n) if g.neighbors(v) and g.degree(v) <= 2]


# densify's output over the DENSIFY_CASES below, pinned: a faster densify
# must keep its rng calls and candidate order
DENSIFY_DIGEST = "e1b5200f3dce47a42682f2070d8bf7e4a03b9da195747403b34b44e31e055e39"

# (n, seed, p2, max_rounds)
DENSIFY_CASES = [
    (n, s, p, None) for n in (30, 60, 120) for s in range(5) for p in (0.3, 0.9)
] + [(60, 7, 0.6, 5), (120, 8, 0.3, 5)]


# dense_instance's output over DENSE_CASES, pinned with the parent of the
# change that builds only the blocks a shape glues; the small budgets pin the
# kind fallbacks, which the golden corpus never reaches
DENSE_DIGEST = "ffeae08b333853098988dc825bfa0624dcddb12c964f3ab63ee80516a80774e5"

# (seed, max_n)
DENSE_CASES = [(s, max_n) for max_n in (4, 11, 12, 13, 19, 48) for s in range(60)]


def edge_list_digest(graphs):
    """One sha256 over the edge-list text of each graph, in order."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(format_edge_list(g).encode())
    return h.hexdigest()


def densify_outputs():
    for n, s, p, rounds in DENSIFY_CASES:
        yield densify(generate(GenSpec(n, s, p2=p)), s, max_rounds=rounds)


def dense_outputs():
    for s, max_n in DENSE_CASES:
        yield dense_instance(s, max_n)


def sampled_edges(spec):
    """generate()'s back-edges as random.sample drew them, the reference its
    randrange draws must match."""
    rng = random.Random(spec.seed)
    edges = []
    for v in range(1, spec.n):
        k = 2 if rng.random() < spec.p2 else 1
        if not spec.connect and rng.random() < _P_SKIP:
            k = 0
        k = min(k, v)
        for u in sorted(rng.sample(range(v), k)):
            edges.append((u, v))
    return edges


def block_attempts(n, seed, p2):
    """The attempts `_block(n, seed, p2)` makes, each run in full with
    `densify`, up to the first that succeeds: (spec, densify seed, the
    densified graph, whether it succeeds)."""
    for k in range(8):
        s = seed + 1000003 * k
        spec = GenSpec(n=n, seed=s, connect=True, p2=p2)
        g = densify(generate(spec), seed=s)
        low = sorted(g.low_vertices())
        ok = len(low) == 1 and g.degree(low[0]) == 2 and not is_cut_vertex(g, low[0])
        yield spec, s, g, ok
        if ok:
            return


def reference_block(n, seed, p2):
    """`_block` as it was before its attempts ran on neighbour sets: eight
    full `densify` runs on `generate` graphs, each judged on a `Graph`."""
    for _spec, _s, g, ok in block_attempts(n, seed, p2):
        if ok:
            return g, min(g.low_vertices())
    return _capped_strip(n), 0


# (n, seed, p2) for the blocks `dense_instance` builds
BLOCK_CASES = [
    (n, s, p) for n in range(5, 16) for p in (0.4, 0.6, 0.8, 0.95) for s in range(60)
]


def dense_kind(seed):
    """The shape dense_instance(seed, max_n=48) builds: its third draw."""
    rng = random.Random(seed)
    rng.randint(4, 48)
    rng.choice((0.4, 0.6, 0.8, 0.95))
    return rng.randrange(6)


class TestGenSpec:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            GenSpec(n=0, seed=1)

    @pytest.mark.parametrize("p2", [-0.1, 1.5])
    def test_rejects_bad_p2(self, p2):
        with pytest.raises(ValueError):
            GenSpec(n=5, seed=1, p2=p2)


class TestGenerate:
    @pytest.mark.parametrize("seed", range(8))
    def test_always_two_degenerate(self, seed):
        g = generate(GenSpec(n=30, seed=seed, p2=0.8))
        assert is_two_degenerate(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_connect_flag(self, seed):
        g = generate(GenSpec(n=25, seed=seed, connect=True))
        assert is_connected(g)

    def test_disconnect_allows_fragments(self):
        hits = sum(
            not is_connected(generate(GenSpec(n=25, seed=s, connect=False)))
            for s in range(20)
        )
        assert hits > 0

    def test_deterministic(self):
        a = generate(GenSpec(n=40, seed=7))
        b = generate(GenSpec(n=40, seed=7))
        assert a == b

    def test_seed_matters(self):
        assert generate(GenSpec(n=40, seed=1)) != generate(GenSpec(n=40, seed=2))

    def test_single_vertex(self):
        g = generate(GenSpec(n=1, seed=0))
        assert g.n == 1 and g.m == 0

    # random.sample takes a vertex's second draw from a pool up to v = 21 and
    # redraws past it, so n = 22 and n = 23 straddle that limit
    @pytest.mark.parametrize("n", [1, 2, 3, 21, 22, 23, 60])
    @pytest.mark.parametrize("connect", [True, False])
    @pytest.mark.parametrize("p2", [0.0, 0.6, 1.0])
    def test_draws_match_random_sample(self, n, connect, p2):
        for seed in range(6):
            spec = GenSpec(n=n, seed=seed, connect=connect, p2=p2)
            assert generate(spec) == Graph.from_edges(n, sampled_edges(spec)), seed


class TestFamilies:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_family_is_two_degenerate_and_connected(self, name):
        n = None if name.startswith("fig") else 9
        g = family(name, n)
        assert is_two_degenerate(g)
        assert is_connected(g)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            family("petersen", 10)

    def test_parametric_needs_n(self):
        with pytest.raises(ValueError):
            family("path")

    def test_fixture_rejects_other_sizes(self):
        with pytest.raises(ValueError, match="fixed size"):
            family("fig4a", 9)
        assert family("fig4a", 6).n == 6

    @pytest.mark.parametrize(
        "name,n", [("cycle", 2), ("theta", 3), ("friendship", 4), ("friendship", 2), ("triangle-chain", 6)]
    )
    def test_scale_constraints(self, name, n):
        with pytest.raises(ValueError):
            family(name, n)

    @pytest.mark.parametrize("name", [f for f in FAMILIES if not f.startswith("fig")])
    def test_oversize_n_refused_before_any_edge(self, name):
        # MAX_VERTICES + 1 (odd, so every family accepts its shape) keeps a
        # regression cheap: the edge list it would build is about 100 MB
        tracemalloc.start()
        try:
            with pytest.raises(IdOutOfRange) as info:
                family(name, MAX_VERTICES + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"vertex count {MAX_VERTICES + 1} is over the limit of {MAX_VERTICES}"
        )
        assert peak < 1 << 20

    def test_path_and_star_shapes(self):
        p = family("path", 5)
        assert p.m == 4 and p.degree(0) == 1 and p.degree(2) == 2
        s = family("star", 5)
        assert s.m == 4 and s.degree(0) == 4

    def test_friendship_shape(self):
        g = family("friendship", 7)
        assert g.m == 9 and g.degree(0) == 6

    def test_triangle_chain_shape(self):
        g = family("triangle-chain", 7)
        assert g.m == 9
        assert [g.degree(v) for v in (0, 2, 4, 6)] == [2, 4, 4, 2]

    @pytest.mark.parametrize(
        "name,n,m,lead",
        [
            ("fig4a", 6, 8, "Claim2-Case1"),
            ("fig4b", 11, 16, "Claim4"),
            ("fig5a", 8, 12, "Case1-Deg3Neighbor"),
            ("fig5b", 9, 13, "Subcase2.1-Y3"),
            ("fig5c", 7, 11, "Subcase2.2-Y4"),
        ],
    )
    def test_fixture_sizes_and_lead_branches(self, name, n, m, lead):
        g = family(name)
        assert (g.n, g.m) == (n, m)
        dec, trace, met = decompose(g)
        assert met
        assert trace.steps[0].tag == lead
        assert verify_decomposition(g, dec).valid


class TestDensify:
    @pytest.mark.parametrize("seed", range(6))
    def test_keeps_two_degenerate(self, seed):
        g = generate(GenSpec(n=20, seed=seed, p2=0.5))
        d = densify(g, seed=seed)
        assert is_two_degenerate(d)

    def test_only_adds_edges(self):
        g = generate(GenSpec(n=15, seed=3, p2=0.4))
        d = densify(g, seed=3)
        assert set(g.edges()) <= set(d.edges())
        assert d.n == g.n

    def test_reduces_low_vertices(self):
        g = family("path", 12)
        d = densify(g, seed=0)
        assert len(lows(d)) <= 1

    def test_deterministic(self):
        g = generate(GenSpec(n=18, seed=9, p2=0.5))
        assert densify(g, seed=4) == densify(g, seed=4)

    def test_tiny_graphs_survive(self):
        g = family("path", 3)
        d = densify(g, seed=0)
        assert is_two_degenerate(d)

    def test_respects_round_cap(self):
        g = family("path", 30)
        d = densify(g, seed=1, max_rounds=3)
        assert d.m <= g.m + 3

    def test_outputs_are_pinned(self):
        assert edge_list_digest(densify_outputs()) == DENSIFY_DIGEST

    def test_checks_each_candidate_through_the_module_global(self, monkeypatch):
        # the benchmark's tracer wraps generate's `is_two_degenerate` to count
        # densify's checks and accepts; each candidate is checked once, on
        # densify's own neighbour sets, and no graph is copied to do it
        checked, accepted = [], []
        gen = importlib.import_module("gallai.generate")
        check = gen.is_two_degenerate

        def no_copy(self, edges):
            raise AssertionError("densify copied the graph")

        def counting_check(h):
            checked.append({(u, w) for u, s in enumerate(h) for w in s if u < w})
            accepted.append(check(h))
            return accepted[-1]

        monkeypatch.setattr(Graph, "with_edges", no_copy)
        monkeypatch.setattr(gen, "is_two_degenerate", counting_check)
        g = generate(GenSpec(n=40, seed=2, p2=0.6))
        d = densify(g, seed=2)
        assert len(checked) > d.m - g.m > 0
        assert sum(accepted) == d.m - g.m
        # each check sees the edges accepted so far plus one candidate
        edges = set(g.edges())
        for seen, ok in zip(checked, accepted):
            assert edges < seen and len(seen - edges) == 1
            if ok:
                edges = seen
        assert edges == set(d.edges())

        # the dense instances' blocks check their candidates the same way,
        # and the budget stop leaves them fewer checks than full densify runs
        checked.clear()
        dense = [dense_instance(s, max_n) for s, max_n in DENSE_CASES]
        fast = len(checked)
        checked.clear()
        monkeypatch.setattr(gen, "_block", reference_block)
        assert [dense_instance(s, max_n) for s, max_n in DENSE_CASES] == dense
        assert 0 < fast < len(checked)

    @pytest.mark.parametrize("n", [5, 6, 9, 30])
    def test_stops_at_the_edge_bound(self, n, monkeypatch):
        # the stacked-triangle strip has 2n - 3 edges, the most a
        # 2-degenerate graph on n vertices can have, yet both ends have
        # degree 2: no candidate can pass, so none is checked
        gen = importlib.import_module("gallai.generate")
        checked = []
        check = gen.is_two_degenerate

        def counting_check(h):
            checked.append(h)
            return check(h)

        monkeypatch.setattr(gen, "is_two_degenerate", counting_check)
        edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
        g = Graph.from_edges(n, edges)
        assert g.m == 2 * n - 3 and lows(g) == [0, n - 1]
        assert densify(g, seed=0) == g
        assert checked == []


class TestDenseBuildingBlocks:
    def test_capped_strip_rejects_small(self):
        with pytest.raises(ValueError):
            _capped_strip(4)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_capped_strip_shape(self, n):
        g = _capped_strip(n)
        assert g.m == 2 * n - 3
        assert is_two_degenerate(g) and is_connected(g)
        assert lows(g) == [0] and g.degree(0) == 2
        assert not is_cut_vertex(g, 0)

    @pytest.mark.parametrize("n,seed", [(5, 0), (7, 1), (8, 2), (11, 3)])
    def test_block_contract(self, n, seed):
        g, low = _block(n, seed, p2=0.8)
        assert g.n == n
        assert is_two_degenerate(g) and is_connected(g)
        assert lows(g) == [low] and g.degree(low) == 2
        assert not is_cut_vertex(g, low)

    def test_block_matches_reference(self):
        for case in BLOCK_CASES:
            assert _block(*case) == reference_block(*case), case

    def test_budget_stop_drops_only_attempts_that_fail(self):
        # an attempt the stop abandons would not have ended with one low
        # vertex of degree 2; one it keeps ends as the full densify run does
        dropped = kept = 0
        for n, seed, p2 in BLOCK_CASES:
            for spec, s, g, ok in block_attempts(n, seed, p2):
                nbrs = _draw(spec)
                m = sum(map(len, nbrs)) // 2
                done = _raise_lows(nbrs, m, random.Random(s), 4 * n + 20, budget=True)
                if done is None:
                    dropped += 1
                    assert not ok
                    assert len(lows(g)) != 1 or g.degree(lows(g)[0]) != 2, (spec, s)
                else:
                    kept += 1
                    assert Graph.from_neighbor_sets(nbrs, done[0]) == g
                    assert done[1] == lows(g)
        assert dropped > 1000 and kept > 1000

    def test_splice_makes_connector_the_low(self):
        a = _block(5, 0, 0.8)
        b = _block(6, 1, 0.8)
        g, c = _splice(a, b)
        assert g.n == a[0].n + b[0].n + 1
        assert lows(g) == [c] and g.degree(c) == 2
        assert is_cut_vertex(g, c)
        assert is_two_degenerate(g) and is_connected(g)

    def test_hang_makes_pendant_the_low(self):
        base = _block(6, 2, 0.8)
        g = _hang(base)
        pendant = g.n - 1
        assert g.degree(pendant) == 1
        assert lows(g) == [pendant]
        assert g.degree(base[1]) == 3
        assert is_two_degenerate(g)


class TestDenseInstance:
    @pytest.mark.parametrize("seed", range(12))
    def test_contract(self, seed):
        g = dense_instance(seed, max_n=48)
        assert g.n <= 48
        assert is_two_degenerate(g) and is_connected(g)
        dec, _, met = decompose(g)
        assert met
        assert verify_decomposition(g, dec).valid

    @pytest.mark.parametrize("max_n", [4, 11, 12, 13, 19])
    def test_small_budgets(self, max_n):
        for seed in range(10):
            g = dense_instance(seed, max_n=max_n)
            assert 1 <= g.n <= max_n
            assert is_two_degenerate(g) and is_connected(g)

    def test_deterministic(self):
        assert dense_instance(5, max_n=40) == dense_instance(5, max_n=40)

    def test_outputs_are_pinned(self):
        assert edge_list_digest(dense_outputs()) == DENSE_DIGEST

    def test_builds_only_the_blocks_it_glues(self, monkeypatch):
        # every glued block lands in the output whole, beside one or more
        # connector, pendant or support vertices; a block built and dropped
        # would push the sizes past the vertex count
        gen = importlib.import_module("gallai.generate")
        block = gen._block
        sizes = []

        def recording_block(n, seed, p2):
            sizes.append(n)
            return block(n, seed, p2)

        monkeypatch.setattr(gen, "_block", recording_block)
        seeds = range(30)
        assert {dense_kind(s) for s in seeds} == set(range(6))
        for s in seeds:
            sizes.clear()
            g = dense_instance(s, max_n=48)
            assert sum(sizes) < g.n, (s, dense_kind(s), sizes, g.n)

    def test_branch_coverage_smoke(self):
        seen = set()
        for seed in range(150):
            g = dense_instance(seed, max_n=48)
            _, trace, _ = decompose(g)
            seen |= {s.tag for s in trace.steps}
        for name in ("fig4a", "fig4b", "fig5a", "fig5b", "fig5c"):
            _, trace, _ = decompose(family(name))
            seen |= {s.tag for s in trace.steps}
        missing = BRANCH_TAGS - seen
        assert not missing, f"branches never taken: {sorted(missing)}"


if __name__ == "__main__":
    print("DENSIFY_DIGEST", edge_list_digest(densify_outputs()))
    print("DENSE_DIGEST", edge_list_digest(dense_outputs()))
