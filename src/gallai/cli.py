"""Command-line front door: decompose files, verify certificates, generate
instances, and run the fuzz loop with branch-coverage statistics.

Exit statuses are a total function of outcomes:
  decompose  0 bound met | 2 valid but bound unmet | 1 parse or degeneracy
             error | 5 internal invariant violated (reason, then trace JSON)
  verify     0 valid | 3 invalid | 1 parse error, or - for both files
  gen        0 written | 1 unknown family, bad scale or no --n
  fuzz       0 all passed | 4 any failure | 1 bad limits | 5 as for decompose,
             when a seed fixture breaks an invariant
Bad flags and write errors, stdout's too, exit 1 everywhere (one `error:` line).

A graph has at most gallai.graph.MAX_VERTICES (1,000,000) vertices. A larger
header count, or a larger vertex id without a header, is a parse error: one
`error:` line and exit 1, before any memory is set aside for the graph.
"""

from __future__ import annotations

import argparse
import random
import sys
from types import SimpleNamespace

from .decompose import (
    InternalInvariantViolation,
    decompose,
    format_decomposition,
)
from .generate import FAMILIES, GenSpec, dense_instance, family, generate
from .graph import MAX_VERTICES, GraphError, Record, format_edge_list, parse_edge_list
from .verify import minimum_decomposition, parse_decomposition, verify_decomposition

# family fixtures that pre-seed the fuzz histogram, at canonical sizes
_SEED_FAMILIES = (
    ("fig4a", None),
    ("fig4b", None),
    ("fig5a", None),
    ("fig5b", None),
    ("fig5c", None),
    ("friendship", 7),
    ("theta", 6),
    ("cycle", 5),
    ("triangle-chain", 7),
)


class FuzzReport(Record):
    """Outcome of a fuzz run: failure records and branch coverage."""

    __slots__ = ("trials", "failures", "branch_histogram", "max_n_seen")
    __setattr__ = object.__setattr__  # mutable, so unhashable
    __hash__ = None

    def __init__(
        self,
        trials: int,
        failures: list[dict] | None = None,
        branch_histogram: dict[str, int] | None = None,
        max_n_seen: int = 0,
    ):
        self.trials = trials
        self.failures = [] if failures is None else failures
        self.branch_histogram = {} if branch_histogram is None else branch_histogram
        self.max_n_seen = max_n_seen

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "branch_histogram": dict(sorted(self.branch_histogram.items())),
            "max_n_seen": self.max_n_seen,
        }


def _read(path: str) -> str:
    """The text of the file at path, or of stdin for -; a ValueError unless ASCII."""
    if path != "-":
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    text = sys.stdin.read()
    text.encode("ascii")  # raises on the first character a file's codec would refuse
    return text


def _write(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout for None or -; a failed
    write raises OSError, which `main` reports."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def cmd_decompose(args) -> int:
    dec, trace, met = decompose(parse_edge_list(_read(args.input)))
    if args.json:
        import json
        payload = dec.to_json()
        if args.trace:
            payload["trace"] = trace.to_json()
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        out = format_decomposition(dec)
        if args.trace:
            out += "".join(
                f"# {s.tag} n={s.n} m={s.m}"
                + "".join(f" {k}={v}" for k, v in sorted(s.vertices.items()))
                + "\n"
                for s in trace.steps
            )
    _write(args.output, out)
    return 0 if met else 2


def cmd_verify(args) -> int:
    if args.graph == args.decomposition == "-":
        raise ValueError("stdin can feed the graph or the decomposition, not both")
    g = parse_edge_list(_read(args.graph))
    paths, bound, _met = parse_decomposition(_read(args.decomposition))
    report = verify_decomposition(g, SimpleNamespace(paths=paths, claimed_bound=bound))
    if args.json:
        import json
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    else:
        verdict = "valid" if report.valid else "invalid"
        print(
            f"{verdict} paths={report.path_count} bound={report.bound}"
            f" odd_lower_bound={report.odd_lower_bound}"
        )
        for f in report.failures:
            print(f"{f.kind}: {f.detail}")
    return 0 if report.valid else 3


def cmd_gen(args) -> int:
    if args.family is not None:
        g = family(args.family, args.n)
    elif args.n is None:
        raise ValueError("--n is required without --family")
    else:
        g = generate(GenSpec(n=args.n, seed=args.seed, connect=args.connected, p2=args.p2))
    _write(args.output, format_edge_list(g))
    return 0


def run_fuzz(
    trials: int,
    max_n: int,
    seed: int,
    p2: float | None = None,
    densify: bool = False,
    oracle_max_edges: int = 0,
    reproducer=None,
) -> FuzzReport:
    """Generate, decompose and verify `trials` seeded graphs.

    Each trial is reproducible in isolation: trial k of a run with seed s
    behaves exactly like trial 0 of a run with seed s+k. The branch histogram
    starts from one decomposition of each named family fixture, so a clean
    run reports coverage of every reduction the fixtures pin down plus
    whatever the random trials reach. `reproducer` is called with a
    self-contained flag string for every failing trial.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if oracle_max_edges < 0:
        raise ValueError("oracle_max_edges must be nonnegative")
    if max_n < 4:
        raise ValueError("max_n must be at least 4 (smaller graphs are all trivial)")
    if max_n > MAX_VERTICES:
        raise ValueError(f"max_n must be at most {MAX_VERTICES}")
    report = FuzzReport(trials=trials)
    hist = report.branch_histogram

    def tally(trace) -> None:
        for tag, count in trace.histogram().items():
            hist[tag] = hist.get(tag, 0) + count

    for name, size in _SEED_FAMILIES:
        tally(decompose(family(name, size))[1])

    for k in range(trials):
        trial_seed = seed + k
        flags = f"--trials 1 --max-n {max_n} --seed {trial_seed}"
        if p2 is not None:
            flags += f" --p2 {p2}"
        if densify:
            flags += " --densify"
        if oracle_max_edges:
            flags += f" --oracle-max-edges {oracle_max_edges}"

        def fail(kind: str) -> None:
            report.failures.append({"seed": trial_seed, "spec": flags, "kind": kind})
            if reproducer is not None:
                reproducer(flags)

        if densify:
            g = dense_instance(trial_seed, max_n=max_n, p2=p2)
        else:
            rng = random.Random(trial_seed)
            n = rng.randint(4, max_n)
            p = p2 if p2 is not None else rng.choice((0.3, 0.5, 0.7, 0.9))
            g = generate(GenSpec(n=n, seed=trial_seed, connect=True, p2=p))
        live = g.non_isolated_count()
        report.max_n_seen = max(report.max_n_seen, live)

        try:
            dec, trace, met = decompose(g)
        except InternalInvariantViolation:
            fail("InternalInvariantViolation")
            continue
        tally(trace)
        if not verify_decomposition(g, dec).valid:
            fail("InvalidDecomposition")
            continue
        if not met or len(dec.paths) > live // 2:
            fail("BoundExceeded")
            continue
        if oracle_max_edges and g.m <= oracle_max_edges:
            best = minimum_decomposition(g, limit=oracle_max_edges)
            if best.size > len(dec.paths):
                fail("BelowOracleMinimum")
    return report


def cmd_fuzz(args) -> int:
    def reproducer(flags: str) -> None:
        print(f"reproduce: gallai fuzz {flags}", file=sys.stderr)

    report = run_fuzz(
        trials=args.trials,
        max_n=args.max_n,
        seed=args.seed,
        p2=args.p2,
        densify=args.densify,
        oracle_max_edges=args.oracle_max_edges,
        reproducer=reproducer,
    )
    if args.json:
        import json
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    else:
        print(
            f"trials {report.trials} failures {len(report.failures)}"
            f" max_n_seen {report.max_n_seen}"
        )
        for tag in sorted(report.branch_histogram):
            print(f"{tag} {report.branch_histogram[tag]}")
        for f in report.failures:
            print(f"failure seed={f['seed']} kind={f['kind']}")
    return 0 if not report.failures else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gallai",
        description="Path decompositions of 2-degenerate graphs, with "
        "certificates, traces and a fuzzing harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose an edge-list file into paths")
    p_dec.add_argument("input", help="edge-list file, or - for stdin")
    p_dec.add_argument("--output", "-o", default=None, help="destination (stdout)")
    p_dec.add_argument("--json", action="store_true", help="structured output")
    p_dec.add_argument("--trace", action="store_true", help="include the branch trace")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="check a decomposition against its graph")
    p_ver.add_argument("graph", help="edge-list file")
    p_ver.add_argument("decomposition", help="decomposition file")
    p_ver.add_argument("--json", action="store_true", help="structured output")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a 2-degenerate test graph")
    p_gen.add_argument("--n", type=int, default=None, help="vertex count")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p2", type=float, default=0.6, help="two-back-edge chance")
    p_gen.add_argument(
        "--connected", action=argparse.BooleanOptionalAction, default=True
    )
    p_gen.add_argument("--family", choices=FAMILIES, default=None)
    p_gen.add_argument("--output", "-o", default=None, help="destination (stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_fuzz = sub.add_parser("fuzz", help="generate/decompose/verify loop")
    p_fuzz.add_argument("--trials", type=int, default=1000)
    p_fuzz.add_argument("--max-n", type=int, default=50)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--p2", type=float, default=None)
    p_fuzz.add_argument(
        "--densify",
        action="store_true",
        help="pack trials to a single low-degree vertex and glue blocks to "
        "reach the rare dispatch branches",
    )
    p_fuzz.add_argument(
        "--oracle-max-edges",
        type=int,
        default=0,
        help="check optimality against the exact oracle up to this edge count",
    )
    p_fuzz.add_argument("--json", action="store_true", help="structured output")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 for --help and 2 for bad flags; bad flags are 1 here
            code = 0 if exc.code == 0 else 1
        else:
            code = args.func(args)
        try:
            sys.stdout.flush()  # here, so a failed write is reported, not raised at exit
        except OSError:
            sys.stdout.close()  # drops the unwritten bytes the exit flush would fail on
            raise
        return code
    except InternalInvariantViolation as exc:
        import json
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        print(json.dumps([s.to_json() for s in exc.steps], sort_keys=True), file=sys.stderr)
        return 5
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
