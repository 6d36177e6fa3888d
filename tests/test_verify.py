import ast
import hashlib
import pathlib
import random
from collections import Counter
from types import SimpleNamespace

import pytest

import gallai.verify
from gallai.decompose import decompose
from gallai.generate import GenSpec, dense_instance, generate
from gallai.graph import Graph, Path
from gallai.verify import (
    FAILURE_KINDS,
    Failure,
    OracleWitness,
    TooLarge,
    VerificationReport,
    minimum_decomposition,
    odd_degree_lower_bound,
    verify_decomposition,
)
from test_golden import corpus


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


def reference_report(g, d):
    """verify_decomposition as a plain per-vertex loop over a Counter, the
    reference its single-pass bookkeeping must match failure for failure."""
    failures = []
    covered = Counter()
    paths = [tuple(getattr(p, "vertices", p)) for p in d.paths]
    for i, vs in enumerate(paths):
        if len(vs) == 0:
            failures.append(Failure("NotAPath", f"path {i} is empty"))
            continue
        bad_ids = [v for v in vs if not (0 <= v < g.n)]
        if bad_ids:
            failures.append(Failure("NotAPath", f"path {i} names unknown vertex {bad_ids[0]}"))
            continue
        seen = set()
        for v in vs:
            if v in seen:
                failures.append(Failure("NotAPath", f"path {i} repeats vertex {v}"))
                break
            seen.add(v)
        for a, b in zip(vs, vs[1:]):
            if a == b:
                continue
            if g.has_edge(a, b):
                covered[(min(a, b), max(a, b))] += 1
            else:
                failures.append(Failure("EdgeForeign", f"path {i} uses non-edge ({a}, {b})"))
    for e in g.edges():
        if e not in covered:
            failures.append(Failure("EdgeMissing", f"edge {e} is not covered"))
    for e in sorted(covered):
        if covered[e] > 1:
            failures.append(Failure("EdgeRepeated", f"edge {e} covered {covered[e]} times"))
    bound = d.claimed_bound
    if len(paths) > bound:
        failures.append(Failure("BoundExceeded", f"{len(paths)} paths exceed the claimed {bound}"))
    return VerificationReport(
        valid=not failures,
        failures=tuple(failures),
        path_count=len(paths),
        bound=bound,
        odd_lower_bound=odd_degree_lower_bound(g),
    )


def non_edge(g):
    """Some pair of distinct vertices that g does not join, or None."""
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if not g.has_edge(u, w):
                return (u, w)
    return None


def corruptions(g, paths, bound):
    """(name, paths, bound) for a certificate and its broken variants."""
    first = paths[0]
    yield "valid", paths, bound
    yield "dropped path", paths[1:], bound
    yield "duplicated path", paths + [first], bound + 1
    yield "closed into a cycle", [first + first[:1]] + paths[1:], bound
    yield "step that stays put", [first[:1] + first] + paths[1:], bound
    yield "unknown id", [first + (g.n,)] + paths[1:], bound
    yield "negative id", [(-1,) + first] + paths[1:], bound
    yield "empty path", paths[:1] + [()] + paths[1:], bound + 1
    pair = non_edge(g)
    if pair is not None:
        yield "foreign edge", paths + [pair], bound + 1
        yield "foreign step inside", [first + pair] + paths[1:], bound
    yield "bound too low", paths, len(paths) - 1
    yield "every path twice, reversed", paths + [p[::-1] for p in paths], 2 * len(paths)


class TestMatchesReference:
    def test_golden_corpus_certificates_and_corruptions(self):
        kinds = set()
        for g in corpus():
            dec, _trace, _met = decompose(g)
            paths = [p.vertices for p in dec.paths]
            if not paths:
                continue
            for name, ps, bound in corruptions(g, paths, dec.claimed_bound):
                d = claim(ps, bound)
                rep = verify_decomposition(g, d)
                assert rep == reference_report(g, d), (g, name)
                kinds.update(f.kind for f in rep.failures)
        assert kinds == set(FAILURE_KINDS)


def package_imports(source):
    """Every module of the gallai package that the source imports, at any
    depth of its syntax tree."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "gallai")
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: a sibling module of the package
                base = "gallai" if node.module is None else f"gallai.{node.module}"
            elif (node.module or "").split(".")[0] == "gallai":
                base = node.module
            else:
                continue
            if node.module is None:  # `from . import x` imports the module x
                found.update(f"{base}.{a.name}" for a in node.names)
            else:
                found.add(base)
    return found


class TestIndependence:
    def test_verifier_imports_nothing_of_the_package_but_the_graph(self):
        # the verifier must share no code with the decomposer it checks
        source = pathlib.Path(gallai.verify.__file__).read_text()
        assert package_imports(source) == {"gallai.graph"}

    def test_the_import_scan_sees_every_form(self):
        source = (
            "import gallai.decompose\n"
            "from gallai.cli import main\n"
            "from . import generate\n"
            "def f():\n    from .graph import Graph\n"
            "import json\n"
        )
        assert package_imports(source) == {
            "gallai.decompose", "gallai.cli", "gallai.generate", "gallai.graph"
        }


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
