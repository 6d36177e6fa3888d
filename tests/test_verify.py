import hashlib
import random
from types import SimpleNamespace

import pytest

from gallai.generate import GenSpec, dense_instance, generate
from gallai.graph import Graph, Path
from gallai.verify import (
    FAILURE_KINDS,
    Failure,
    OracleWitness,
    TooLarge,
    minimum_decomposition,
    odd_degree_lower_bound,
    verify_decomposition,
)


def claim(paths, bound):
    return SimpleNamespace(paths=paths, claimed_bound=bound)


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def c5():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


class TestVerify:
    def test_valid_single_path(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        rep = verify_decomposition(g, claim([(0, 1, 2, 3)], 2))
        assert rep.valid and rep.failures == ()
        assert rep.path_count == 1 and rep.bound == 2
        assert rep.odd_lower_bound == 1

    def test_accepts_path_objects_and_raw_tuples(self):
        g = triangle()
        a = verify_decomposition(g, claim([Path((0, 1, 2)), Path((0, 2))], 2))
        b = verify_decomposition(g, claim([(0, 1, 2), [0, 2]], 2))
        assert a.valid and b.valid

    def test_single_vertex_path_covers_nothing(self):
        g = Graph.from_edges(2, [(0, 1)])
        rep = verify_decomposition(g, claim([(0,), (0, 1)], 2))
        assert rep.valid and rep.path_count == 2

    def test_missing_edge(self):
        rep = verify_decomposition(triangle(), claim([(0, 1, 2)], 2))
        assert not rep.valid
        assert [f.kind for f in rep.failures] == ["EdgeMissing"]
        assert "(0, 2)" in rep.failures[0].detail

    def test_repeated_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        rep = verify_decomposition(g, claim([(0, 1), (1, 0)], 2))
        assert [f.kind for f in rep.failures] == ["EdgeRepeated"]

    def test_foreign_edge(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        rep = verify_decomposition(g, claim([(0, 1, 3, 2)], 2))
        kinds = [f.kind for f in rep.failures]
        assert "EdgeForeign" in kinds
        # the skipped real edges surface too
        assert "EdgeMissing" in kinds

    def test_bound_exceeded(self):
        g = triangle()
        rep = verify_decomposition(g, claim([(0, 1, 2), (0, 2)], 1))
        assert [f.kind for f in rep.failures] == ["BoundExceeded"]

    def test_empty_path_rejected(self):
        rep = verify_decomposition(triangle(), claim([(), (0, 1, 2), (0, 2)], 3))
        assert any(f.kind == "NotAPath" for f in rep.failures)

    def test_unknown_vertex_rejected(self):
        rep = verify_decomposition(triangle(), claim([(0, 1, 7)], 2))
        kinds = {f.kind for f in rep.failures}
        assert "NotAPath" in kinds and "EdgeMissing" in kinds

    def test_repeated_vertex_rejected(self):
        g = c5()
        rep = verify_decomposition(g, claim([(0, 1, 2, 3, 4, 0)], 2))
        assert any(f.kind == "NotAPath" for f in rep.failures)

    def test_all_failures_reported_not_just_first(self):
        g = c5()
        # one foreign edge, one dropped path, one over-claimed bound
        rep = verify_decomposition(g, claim([(0, 2), (0, 1, 2)], 1))
        kinds = {f.kind for f in rep.failures}
        assert kinds == {"EdgeForeign", "EdgeMissing", "BoundExceeded"}
        assert len(rep.failures) >= 5

    def test_empty_graph_empty_claim(self):
        g = Graph.from_edges(3, [])
        rep = verify_decomposition(g, claim([], 0))
        assert rep.valid and rep.path_count == 0

    def test_report_json_shape(self):
        rep = verify_decomposition(triangle(), claim([(0, 1, 2)], 2))
        d = rep.to_json()
        assert set(d) == {"valid", "failures", "path_count", "bound", "odd_lower_bound"}
        assert d["failures"][0] == {
            "kind": "EdgeMissing",
            "detail": "edge (0, 2) is not covered",
        }

    def test_failure_kind_validated(self):
        with pytest.raises(ValueError):
            Failure("Nonsense", "x")
        for kind in FAILURE_KINDS:
            Failure(kind, "ok")


class TestOddLowerBound:
    @pytest.mark.parametrize(
        "n,edges,expected",
        [
            (2, [(0, 1)], 1),
            (4, [(0, 1), (1, 2), (2, 3)], 1),
            (3, [(0, 1), (1, 2), (2, 0)], 0),
            (4, [(0, 1), (0, 2), (0, 3)], 2),
            (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 2),
            (1, [], 0),
        ],
    )
    def test_counts(self, n, edges, expected):
        assert odd_degree_lower_bound(Graph.from_edges(n, edges)) == expected


WITNESS_DIGEST = "ae22948a94d7e5ecc148cec78132728a115006ec9f798290a01659464b2ae8bc"


def oracle_population():
    """Seeded generated and dense graphs with at most 12 edges."""
    for s in range(300):
        g = generate(GenSpec(n=5 + s % 4, seed=s, p2=(0.3, 0.6, 0.9)[s % 3]))
        if g.m <= 12:
            yield g
    for s in range(300):
        g = dense_instance(s, max_n=8)
        if g.m <= 12:
            yield g


LIMIT_WITNESS_DIGEST = "66cd9ef6c098bc2f055e7315bc4c6013fea134e62389fa60ac1a00f13c01337a"


def limit_population():
    """Graphs with 13 or 14 edges, the top of the fuzzer's oracle limit:
    trials drawn as `run_fuzz(max_n=20)` draws them, then dense graphs."""
    for s in range(1500):
        rng = random.Random(s)
        n = rng.randint(4, 20)
        p = rng.choice((0.3, 0.5, 0.7, 0.9))
        g = generate(GenSpec(n=n, seed=s, p2=p))
        if 13 <= g.m <= 14:
            yield g
    for s in range(300):
        g = dense_instance(s, max_n=8)
        if 13 <= g.m <= 14:
            yield g


class TestOracle:
    @pytest.mark.parametrize(
        "n,edges,expected",
        [
            (2, [(0, 1)], 1),
            (4, [(0, 1), (1, 2), (2, 3)], 1),
            (3, [(0, 1), (1, 2), (2, 0)], 2),
            (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 2),
            (4, [(0, 1), (0, 2), (0, 3)], 2),
            (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], 2),
            (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 4),
            (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 2),
            (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)], 2),
        ],
        ids=[
            "edge", "p4", "triangle", "c4", "c5",
            "star3", "bowtie", "two-triangles", "k4", "theta",
        ],
    )
    def test_frozen_minimums(self, n, edges, expected):
        g = Graph.from_edges(n, edges)
        size, witness = minimum_decomposition(g)
        assert size == expected
        assert len(witness.paths) == size
        assert verify_decomposition(g, witness).valid

    def test_never_below_odd_lower_bound(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        size, _ = minimum_decomposition(g)
        assert size >= odd_degree_lower_bound(g)

    def test_empty_graph(self):
        size, witness = minimum_decomposition(Graph.from_edges(4, []))
        assert size == 0 and witness.paths == ()

    def test_too_large_guard(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        with pytest.raises(TooLarge):
            minimum_decomposition(g, limit=4)
        minimum_decomposition(g, limit=5)

    def test_witness_is_a_claim(self):
        # the oracle's witness must satisfy the same duck-typed contract
        w = OracleWitness(paths=(Path((0, 1)),), claimed_bound=1)
        g = Graph.from_edges(2, [(0, 1)])
        assert verify_decomposition(g, w).valid

    def test_deterministic_witness(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        a = minimum_decomposition(g)
        b = minimum_decomposition(g)
        assert a.witness.paths == b.witness.paths

    def test_witnesses_are_pinned(self):
        # sizes and witness paths over a seeded population: a faster search
        # or pruning bound must still find the same first minimum
        h = hashlib.sha256()
        for g in oracle_population():
            size, witness = minimum_decomposition(g)
            h.update(repr((size, [p.vertices for p in witness.paths])).encode())
        assert h.hexdigest() == WITNESS_DIGEST

    def test_witnesses_at_the_fuzz_limit_are_pinned(self):
        # the same pin at the limit run_fuzz and acceptance check 2 use
        h = hashlib.sha256()
        for g in limit_population():
            size, witness = minimum_decomposition(g, limit=14)
            h.update(repr((size, [p.vertices for p in witness.paths])).encode())
        assert h.hexdigest() == LIMIT_WITNESS_DIGEST
