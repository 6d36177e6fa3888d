import pytest

from gallai.decompose import BRANCH_TAGS, decompose, decompose_connected
from gallai.generate import (
    FAMILIES,
    GenSpec,
    UnknownFamily,
    _block,
    _capped_strip,
    _hang,
    _splice,
    dense_instance,
    densify,
    family,
    generate,
)
from gallai.graph import (
    Graph,
    connected_components,
    is_cut_vertex,
    is_two_degenerate,
)
from gallai.verify import verify_decomposition


def is_connected(g):
    return len(connected_components(g)) == 1


def lows(g):
    return [v for v in range(g.n) if g.neighbors(v) and g.degree(v) <= 2]


class TestGenSpec:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            GenSpec(n=0, seed=1)

    @pytest.mark.parametrize("p2", [-0.1, 1.5])
    def test_rejects_bad_p2(self, p2):
        with pytest.raises(ValueError):
            GenSpec(n=5, seed=1, p2=p2)

    def test_frozen(self):
        spec = GenSpec(n=5, seed=1)
        with pytest.raises(AttributeError):
            spec.n = 6


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
        assert not is_cut_vertex(g, 0)[0]

    @pytest.mark.parametrize("n,seed", [(5, 0), (7, 1), (8, 2), (11, 3)])
    def test_block_contract(self, n, seed):
        g, low = _block(n, seed, p2=0.8)
        assert g.n == n
        assert is_two_degenerate(g) and is_connected(g)
        assert lows(g) == [low] and g.degree(low) == 2
        assert not is_cut_vertex(g, low)[0]

    def test_splice_makes_connector_the_low(self):
        a = _block(5, 0, 0.8)
        b = _block(6, 1, 0.8)
        g, c = _splice(a, b)
        assert g.n == a[0].n + b[0].n + 1
        assert lows(g) == [c] and g.degree(c) == 2
        assert is_cut_vertex(g, c)[0]
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
