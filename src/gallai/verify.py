"""Independent certification of path decompositions.

Nothing here knows how a decomposition was produced. `verify_decomposition`
re-derives everything from the host graph's edge set and the claimed paths,
so it can certify output from the decomposer, from a file, or from a fuzzer's
corruption pass alike. `minimum_decomposition` is an exhaustive oracle for
desk-scale graphs: it finds the true minimum number of paths, which brackets
the decomposer's output from below in the acceptance suite.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .graph import Graph, Path, Record

FAILURE_KINDS = (
    "NotAPath",
    "EdgeMissing",
    "EdgeRepeated",
    "EdgeForeign",
    "BoundExceeded",
)


class TooLarge(Exception):
    """The graph exceeds the oracle's edge limit."""


class Failure(Record):
    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str):
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        self._init(kind, detail)

    def to_json(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


class VerificationReport(Record):
    __slots__ = ("valid", "failures", "path_count", "bound", "odd_lower_bound")

    def __init__(
        self,
        valid: bool,
        failures: tuple[Failure, ...],
        path_count: int,
        bound: int,
        odd_lower_bound: int,
    ):
        self._init(valid, failures, path_count, bound, odd_lower_bound)

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "failures": [f.to_json() for f in self.failures],
            "path_count": self.path_count,
            "bound": self.bound,
            "odd_lower_bound": self.odd_lower_bound,
        }


def verify_decomposition(g: Graph, d) -> VerificationReport:
    """Check that d's paths partition E(g) and respect d's claimed bound.

    All failures are reported, not just the first. `d` needs `paths` and
    `claimed_bound` attributes; path entries may be raw vertex sequences.
    """
    failures: list[Failure] = []
    covered: list[tuple[int, int]] = []  # one entry per step along a real edge
    n, has_edge = g.n, g.has_edge

    # Path objects or bare vertex sequences, so corrupted files can be
    # checked without tripping constructor validation first
    paths = [tuple(getattr(p, "vertices", p)) for p in d.paths]
    for i, vs in enumerate(paths):
        if not vs:
            failures.append(Failure("NotAPath", f"path {i} is empty"))
            continue
        if min(vs) < 0 or max(vs) >= n:
            bad = next(v for v in vs if not 0 <= v < n)
            failures.append(Failure("NotAPath", f"path {i} names unknown vertex {bad}"))
            continue
        if len(set(vs)) < len(vs):
            seen: set[int] = set()
            for v in vs:
                if v in seen:
                    break
                seen.add(v)
            failures.append(Failure("NotAPath", f"path {i} repeats vertex {v}"))
        for a, b in zip(vs, vs[1:]):
            if has_edge(a, b):
                covered.append((a, b) if a < b else (b, a))
            elif a != b:  # a step that stays put is the repeat reported above
                failures.append(
                    Failure("EdgeForeign", f"path {i} uses non-edge ({a}, {b})")
                )

    count = Counter(covered)
    if len(count) < g.m:
        failures += [
            Failure("EdgeMissing", f"edge {e} is not covered")
            for e in g.edges()
            if e not in count
        ]
    if len(count) < len(covered):
        failures += [
            Failure("EdgeRepeated", f"edge {e} covered {count[e]} times")
            for e in sorted(e for e, k in count.items() if k > 1)
        ]

    bound = d.claimed_bound
    if len(paths) > bound:
        failures.append(
            Failure("BoundExceeded", f"{len(paths)} paths exceed the claimed {bound}")
        )

    return VerificationReport(
        valid=not failures,
        failures=tuple(failures),
        path_count=len(paths),
        bound=bound,
        odd_lower_bound=odd_degree_lower_bound(g),
    )


def odd_degree_lower_bound(g: Graph) -> int:
    """Half the number of odd-degree vertices: every one must end some path."""
    return sum(1 for v in range(g.n) if g.degree(v) % 2 == 1) // 2


class OracleWitness(Record):
    """Minimal decomposition-shaped record, verify_decomposition-compatible."""

    __slots__ = ("paths", "claimed_bound")

    def __init__(self, paths: tuple[Path, ...], claimed_bound: int):
        self._init(paths, claimed_bound)


class OracleResult(NamedTuple):
    size: int
    witness: OracleWitness


def minimum_decomposition(g: Graph, limit: int = 16) -> OracleResult:
    """Exact minimum path decomposition by branch and bound over edge masks.

    Branches on every simple path through the lowest-indexed remaining edge,
    memoizes on the set of remaining edges, and prunes with the odd-degree
    lower bound. The simple paths through edge i that use only edges >= i
    are listed once per graph; a mask whose lowest edge is i takes, in list
    order, the entries that lie inside it, which are exactly its paths
    through i. Deterministic: the witness is the first minimum found under
    sorted adjacency. Raises TooLarge when m exceeds `limit`.
    """
    edges = list(g.edges())
    m = len(edges)
    if m > limit:
        raise TooLarge(f"{m} edges exceed the oracle limit of {limit}")
    if m == 0:
        return OracleResult(0, OracleWitness(paths=(), claimed_bound=0))

    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (a, b) in enumerate(edges):
        adj[a].append((b, 1 << i))
        adj[b].append((a, 1 << i))
    for lst in adj:
        lst.sort()

    def grow(seq: tuple[int, ...], bits: int, mask: int, at_end: bool, out: list):
        out.append((seq, bits))
        tip = seq[-1] if at_end else seq[0]
        for u, bit in adj[tip]:
            if bit & mask and not bit & bits and u not in seq:
                nxt = seq + (u,) if at_end else (u,) + seq
                grow(nxt, bits | bit, mask, at_end, out)

    def through(i: int) -> list[tuple[tuple[int, ...], int, int]]:
        # Every simple path through edge i on edges >= i, each exactly once:
        # fix the edge's orientation, extend rightward first, then leftward
        # from each right-extension. Each entry carries its end-parity mask.
        # Filtering a depth-first list to a mask keeps the depth-first order
        # of the same search run inside that mask.
        a, b = edges[i]
        above = ((1 << m) - 1) >> i << i
        rights: list[tuple[tuple[int, ...], int]] = []
        grow((a, b), 1 << i, above, True, rights)
        full: list[tuple[tuple[int, ...], int]] = []
        for seq, bits in rights:
            grow(seq, bits, above, False, full)
        return [(seq, bits, (1 << seq[0]) ^ (1 << seq[-1])) for seq, bits in full]

    paths_from = [through(i) for i in range(m)]
    memo: dict[int, int] = {0: 0}
    choice: dict[int, tuple[tuple[int, ...], int]] = {}

    def solve(mask: int, odd: int) -> int:
        # odd: bitmask of the vertices of odd degree in the edges of mask
        if mask in memo:
            return memo[mask]
        best = m + 1
        outside = ~mask
        for seq, bits, ends in paths_from[(mask & -mask).bit_length() - 1]:
            if bits & outside:
                continue
            rest = mask ^ bits
            # a path flips the parity of its two ends only
            left = odd ^ ends
            if 1 + ((left.bit_count() >> 1 or 1) if rest else 0) >= best:
                continue
            total = 1 + solve(rest, left)
            if total < best:
                best = total
                choice[mask] = (seq, bits)
        memo[mask] = best
        return best

    odd = sum(1 << v for v in range(g.n) if g.degree(v) % 2)
    size = solve((1 << m) - 1, odd)
    paths: list[Path] = []
    mask = (1 << m) - 1
    while mask:
        seq, bits = choice[mask]
        paths.append(Path(seq))
        mask ^= bits
    return OracleResult(size, OracleWitness(paths=tuple(paths), claimed_bound=size))
