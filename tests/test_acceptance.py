"""End-to-end acceptance audit.

One test per shipped guarantee, zero tolerance. Each test finishes by
printing a single PASS line naming the guarantee, so a verbose run reads as
a checklist. Expected wall time for the whole file is around two minutes,
dominated by the 10,000-trial fuzz and the exact-oracle sweep.
"""

import io
import itertools
import json
import time
from contextlib import redirect_stdout

import networkx as nx
import pytest

from gallai.cli import main, run_fuzz
from gallai.decompose import (
    BRANCH_TAGS,
    absorb_triangles,
    decompose,
)
from gallai.generate import family
from gallai.graph import (
    Graph,
    Path,
    connected_components,
    is_two_degenerate,
)
from gallai.verify import minimum_decomposition, verify_decomposition


def _to_graph(h):
    nodes = sorted(h.nodes())
    idx = {u: i for i, u in enumerate(nodes)}
    return Graph.from_edges(len(nodes), [(idx[a], idx[b]) for a, b in h.edges()])


def _truly_connected(g):
    if g.n == 1:
        return True
    return g.non_isolated_count() == g.n and len(connected_components(g)) == 1


@pytest.fixture(scope="module")
def small_population():
    """Every connected 2-degenerate non-triangle graph on up to 8 vertices.

    Up to 7 vertices the atlas enumerates every isomorphism class directly.
    For 8 vertices: any such graph has a vertex of degree at most 2, and
    deleting it leaves a 2-degenerate graph on 7 vertices, so attaching a
    fresh vertex to every 7-vertex 2-degenerate atlas graph in every way
    (one or two neighbours) reaches a representative of every class. The
    list contains isomorphic duplicates, which only adds coverage.
    """
    pop = []
    bases7 = []
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() == 0:
            continue
        g = _to_graph(h)
        if not is_two_degenerate(g):
            continue
        if g.n == 7:
            bases7.append(g)
        if _truly_connected(g) and not (g.n == 3 and g.m == 3):
            pop.append(g)
    for base in bases7:
        edges = list(base.edges())
        for r in (1, 2):
            for nbrs in itertools.combinations(range(7), r):
                g = Graph.from_edges(8, edges + [(u, 7) for u in nbrs])
                if is_two_degenerate(g) and _truly_connected(g):
                    pop.append(g)
    assert len(pop) > 11_000
    return pop


def test_criterion_1_exhaustive_small_bound(small_population):
    """Every small connected instance decomposes into at most n//2 paths."""
    start = time.monotonic()
    for g in small_population:
        dec, _, met = decompose(g)
        assert met
        report = verify_decomposition(g, dec)
        assert report.valid, (g.edges(), report.failures)
        assert len(dec.paths) <= g.n // 2, g.edges()
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"\nPASS: bound audit, {len(small_population)} graphs on <= 8 vertices, "
        f"0 violations, {elapsed:.1f}s"
    )


def test_criterion_2_oracle_sandwich(small_population):
    """True minimum <= produced path count <= n//2 on every small instance."""
    checked = 0
    for g in small_population:
        if g.m > 14:
            continue
        best, witness = minimum_decomposition(g, limit=14)
        assert verify_decomposition(g, witness).valid
        dec, _, met = decompose(g)
        assert met
        assert best <= len(dec.paths) <= g.n // 2, g.edges()
        checked += 1
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert minimum_decomposition(triangle).size == 2
    print(
        f"\nPASS: oracle sandwich on {checked} graphs with m <= 14, "
        "plus the triangle needing exactly 2"
    )


def test_criterion_3_fuzz_at_scale():
    """10,000 seeded trials up to 200 vertices: no failure of any kind."""
    start = time.monotonic()
    report = run_fuzz(trials=10_000, max_n=200, seed=0)
    elapsed = time.monotonic() - start
    assert report.failures == [], report.failures[:5]
    assert report.max_n_seen == 200
    assert elapsed < 300.0
    print(
        f"\nPASS: fuzz, 10000 trials, max n seen {report.max_n_seen}, "
        f"0 failures, {elapsed:.1f}s"
    )


def test_criterion_4_every_branch_is_reachable():
    """Family fixtures plus dense fuzz mode drive every reduction branch."""
    report = run_fuzz(trials=300, max_n=48, seed=0, densify=True)
    assert report.failures == []
    missing = BRANCH_TAGS - set(report.branch_histogram)
    zero = [t for t in BRANCH_TAGS if report.branch_histogram.get(t, 0) < 1]
    assert not missing and not zero, sorted(missing | set(zero))
    print(
        f"\nPASS: branch coverage, all {len(BRANCH_TAGS)} reduction branches hit "
        "by fixtures plus dense fuzz"
    )


def test_criterion_5_triangle_absorption_fixtures():
    """The three hand-built absorption fixtures produce their exact outputs."""
    fig1 = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (3, 5), (1, 5)]
    )
    fig2 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (1, 5), (3, 5)])
    fig3 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (4, 5)])
    cases = [
        (fig1, (0, 1, 2, 3, 4, 5), (1, 3, 5), [(0, 1, 3, 5, 4), (4, 3, 2, 1, 5)]),
        (fig2, (0, 1, 2, 3, 4), (1, 3, 5), [(0, 1, 3, 2), (2, 1, 5, 3, 4)]),
        (fig3, (0, 1, 2, 3), (1, 4, 5), [(0, 1, 4, 5), (5, 1, 2, 3)]),
    ]
    for g, carrier, triangle, expected in cases:
        out = absorb_triangles(Path(carrier), [triangle], g)
        assert [q.vertices for q in out] == expected
        covered = sorted(e for q in out for e in q.edges())
        assert covered == sorted(g.edges())
    print("\nPASS: one-triangle absorption, all three fixtures exact, j+1 = 2 paths")


def test_criterion_6_disconnected_and_triangle_components(tmp_path, capsys):
    """Component sums stay within n//2; triangle components flip the flag."""
    strip5 = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def shift(edges, by):
        return [(a + by, b + by) for a, b in edges]

    clean = [
        Graph.from_edges(10, strip5 + shift(strip5, 5)),
        Graph.from_edges(9, strip5 + shift([(0, 1), (1, 2), (2, 3)], 5)),
        Graph.from_edges(12, [(i, i + 1) for i in range(4)] + shift([(i, (i + 1) % 5) for i in range(5)], 5) + [(10, 11)]),
    ]
    for g in clean:
        dec, _, met = decompose(g)
        assert met and dec.bound_met
        assert verify_decomposition(g, dec).valid
        comps = connected_components(g)
        per_component = sum(c.n // 2 for c in comps)
        assert len(dec.paths) <= per_component <= g.non_isolated_count() // 2

    tainted = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
    dec, _, met = decompose(tainted)
    assert not met and dec.bound_met is False
    assert verify_decomposition(tainted, dec).valid

    path = tmp_path / "tainted.txt"
    path.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n5 6\n")
    assert main(["decompose", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("met false")
    print(
        "\nPASS: disconnected sums within bound on 3 fixtures; "
        "triangle component reports valid, unmet, exit 2"
    )


def test_criterion_7_byte_identical_reruns(tmp_path):
    """Every command repeats byte for byte across 100 runs."""
    g = tmp_path / "g.txt"
    d = tmp_path / "d.txt"
    assert main(["gen", "--n", "40", "--seed", "11", "-o", str(g)]) == 0
    assert main(["decompose", str(g), "-o", str(d)]) == 0

    commands = [
        ["gen", "--n", "40", "--seed", "11"],
        ["decompose", str(g)],
        ["decompose", str(g), "--json", "--trace"],
        ["verify", str(g), str(d)],
        ["verify", str(g), str(d), "--json"],
        ["fuzz", "--trials", "5", "--max-n", "12", "--seed", "3", "--json"],
    ]
    for argv in commands:
        outputs = set()
        codes = set()
        for _ in range(100):
            buf = io.StringIO()
            with redirect_stdout(buf):
                codes.add(main(argv))
            outputs.add(buf.getvalue().encode("ascii"))
        assert len(outputs) == 1, argv
        assert len(codes) == 1, argv
    # structured outputs must stay parseable too
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(["fuzz", "--trials", "5", "--max-n", "12", "--seed", "3", "--json"])
    json.loads(buf.getvalue())
    print(f"\nPASS: determinism, {len(commands)} commands x 100 reruns, byte-identical")
