"""Independent certification of path decompositions.

Nothing here knows how a decomposition was produced. `verify_decomposition`
re-derives everything from the host graph's edge set and the claimed paths,
so it can certify output from the decomposer, from a file (read by
`parse_decomposition`), or from a fuzzer's corruption pass alike.
`minimum_decomposition` is an exact oracle for desk-scale graphs: it finds
the true minimum number of paths, which brackets the decomposer's output
from below in the acceptance suite.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .graph import Graph, Path, Record, parse_digits

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


def parse_decomposition(text: str) -> tuple[list[tuple[int, ...]], int, bool]:
    """Parse the text format back into (paths, claimed_bound, met)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty decomposition file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "paths" or head[2] != "bound" or head[4] != "met":
        raise ValueError(f"bad header {lines[0]!r}")
    try:
        count, bound = parse_digits(head[1]), parse_digits(head[3])
    except ValueError:
        raise ValueError(f"bad header numbers in {lines[0]!r}") from None
    if head[5] not in ("true", "false"):
        raise ValueError(f"bad met flag {head[5]!r}")
    met = head[5] == "true"
    paths: list[tuple[int, ...]] = []
    for ln in lines[1:]:
        try:
            paths.append(tuple(map(parse_digits, ln.split())))
        except ValueError:
            raise ValueError(f"bad path line {ln!r}") from None
    if len(paths) != count:
        raise ValueError(f"header says {count} paths, file has {len(paths)}")
    return paths, bound, met


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
    """Exact minimum path decomposition by iterative deepening on the path
    count over edge masks.

    `fits(mask, odd, k)` answers whether the edges of `mask` split into at
    most k paths. It branches on the simple paths through the mask's lowest
    edge and returns at the first whose rest fits in k - 1, pruning a rest
    whose odd-degree lower bound is over k - 1. The budgets start at the
    whole graph's lower bound and go up by one until one fits; that budget
    is the minimum. Two caches keep only facts that hold at every budget:
    the smallest budget known to fit a mask and the largest known not to.

    The simple paths through edge i that use only edges >= i are listed
    once per graph, the first time a mask whose lowest edge is i is
    searched. A mask takes, in list order, the entries that lie inside it,
    which are exactly its paths through that edge. The witness is rebuilt
    from the whole edge set: at each mask of minimum k, it takes the first
    entry in list order whose rest fits in k - 1, which is the first entry
    reaching the minimum. So it is the first minimum under sorted adjacency,
    deterministic and the same as an exhaustive search's that keeps the
    first best branch. Raises TooLarge when m exceeds `limit`.
    """
    edges = list(g.edges())
    m = len(edges)
    if m > limit:
        raise TooLarge(f"{m} edges exceed the oracle limit of {limit}")
    if m == 0:
        return OracleResult(0, OracleWitness(paths=(), claimed_bound=0))

    # per vertex, sorted: (neighbour, its vertex bit, the edge's bit)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for i, (a, b) in enumerate(edges):
        adj[a].append((b, 1 << b, 1 << i))
        adj[b].append((a, 1 << a, 1 << i))
    for lst in adj:
        lst.sort()

    def through(i: int) -> list[tuple[int, int, int]]:
        # Every simple path through edge i = (a, b) on edges >= i, each
        # exactly once: extend rightward from b depth-first, and from each
        # right extension leftward from a depth-first. Filtering this list
        # to a mask keeps the depth-first order of the same search run
        # inside that mask. An entry is (edge bits, end-parity bits, first
        # vertex); `unroll` recovers the vertex sequence.
        a, b = edges[i]
        low = 1 << i
        out: list[tuple[int, int, int]] = []

        def left(head: int, hbit: int, bits: int, seen: int, tbit: int) -> None:
            out.append((bits, hbit ^ tbit, head))
            for u, ubit, bit in adj[head]:
                if bit >= low and not ubit & seen:
                    left(u, ubit, bits | bit, seen | ubit, tbit)

        def right(tail: int, tbit: int, bits: int, seen: int) -> None:
            left(a, 1 << a, bits, seen, tbit)
            for u, ubit, bit in adj[tail]:
                if bit >= low and not ubit & seen:
                    right(u, ubit, bits | bit, seen | ubit)

        right(b, 1 << b, low, (1 << a) | (1 << b))
        return out

    paths_from: list[list[tuple[int, int, int]] | None] = [None] * m

    def candidates(mask: int) -> list[tuple[int, int, int]]:
        i = (mask & -mask).bit_length() - 1
        found = paths_from[i]
        if found is None:
            found = paths_from[i] = through(i)
        return found

    fits_in: dict[int, int] = {}  # smallest budget known to fit the mask
    fails_in: dict[int, int] = {}  # largest budget known not to

    def fits(mask: int, odd: int, k: int) -> bool:
        # k >= 1; odd: bitmask of the vertices of odd degree in mask's edges
        if fits_in.get(mask, k + 1) <= k:
            return True
        if fails_in.get(mask, -1) >= k:
            return False
        if first(mask, odd, k - 1) is None:
            fails_in[mask] = k
            return False
        fits_in[mask] = k
        return True

    def first(mask: int, odd: int, k: int) -> tuple[int, int, int] | None:
        # The first entry through mask's lowest edge whose rest fits in k
        # paths. A path flips the parity of its two ends only, and a nonempty
        # rest with j odd vertices needs max(1, j / 2) paths, so it can fit
        # only if k >= 1 and j <= 2k.
        outside = ~mask
        most = 2 * k if k else -1
        for bits, ends, head in candidates(mask):
            if not bits & outside and (
                bits == mask
                or (odd ^ ends).bit_count() <= most and fits(mask ^ bits, odd ^ ends, k)
            ):
                return bits, ends, head
        return None

    def unroll(bits: int, head: int) -> Path:
        seq = [head]
        while bits:
            for u, _, bit in adj[seq[-1]]:
                if bit & bits:
                    bits ^= bit
                    seq.append(u)
                    break
        return Path(tuple(seq))

    mask = (1 << m) - 1
    odd = sum(1 << v for v in range(g.n) if g.degree(v) % 2)
    size = odd.bit_count() >> 1 or 1
    while not fits(mask, odd, size):
        size += 1
    paths: list[Path] = []
    for k in range(size - 1, -1, -1):
        bits, ends, head = first(mask, odd, k)
        paths.append(unroll(bits, head))
        mask ^= bits
        odd ^= ends
    return OracleResult(size, OracleWitness(paths=tuple(paths), claimed_bound=size))
