"""Command-line front door: decompose files, verify certificates, generate
instances, and run the fuzz loop with branch-coverage statistics.

Exit statuses are a total function of outcomes:
  decompose  0 bound met | 2 valid but bound unmet | 1 parse or degeneracy error
             | 5 internal invariant violated (reason, then trace JSON, on stderr)
  verify     0 valid | 3 invalid | 1 parse error
  gen        0 written | 1 unknown family or bad flags
  fuzz       0 all trials passed | 4 any failure
Bad flags exit 1 everywhere.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

from .decompose import (
    InternalInvariantViolation,
    decompose,
    format_decomposition,
    parse_decomposition,
)
from .generate import FAMILIES, GenSpec, UnknownFamily, dense_instance, family, generate
from .graph import GraphError, format_edge_list, parse_edge_list
from .verify import TooLarge, minimum_decomposition, verify_decomposition

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


@dataclass
class FuzzReport:
    """Outcome of a fuzz run: failure records and branch coverage."""

    trials: int
    failures: list[dict] = field(default_factory=list)
    branch_histogram: dict[str, int] = field(default_factory=dict)
    max_n_seen: int = 0

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "branch_histogram": dict(sorted(self.branch_histogram.items())),
            "max_n_seen": self.max_n_seen,
        }


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_decompose(args) -> int:
    try:
        g = parse_edge_list(_read(args.input))
    except (GraphError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        dec, trace, met = decompose(g)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        print(json.dumps([s.to_json() for s in exc.steps], sort_keys=True), file=sys.stderr)
        return 5
    if args.json:
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
    try:
        g = parse_edge_list(_read(args.graph))
        paths, bound, _met = parse_decomposition(_read(args.decomposition))
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = verify_decomposition(g, SimpleNamespace(paths=paths, claimed_bound=bound))
    if args.json:
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
    try:
        if args.family is not None:
            g = family(args.family, args.n)
        else:
            if args.n is None:
                print("error: --n is required without --family", file=sys.stderr)
                return 1
            g = generate(
                GenSpec(n=args.n, seed=args.seed, connect=args.connected, p2=args.p2)
            )
    except (UnknownFamily, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    if max_n < 4:
        raise ValueError("max_n must be at least 4 (smaller graphs are all trivial)")
    report = FuzzReport(trials=trials)
    for name, size in _SEED_FAMILIES:
        _dec, trace, _met = decompose(family(name, size))
        for tag, count in trace.histogram().items():
            report.branch_histogram[tag] = report.branch_histogram.get(tag, 0) + count

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

        rng = random.Random(trial_seed)
        if densify:
            g = dense_instance(trial_seed, max_n=max_n, p2=p2)
        else:
            n = rng.randint(4, max_n)
            p = p2 if p2 is not None else rng.choice((0.3, 0.5, 0.7, 0.9))
            g = generate(GenSpec(n=n, seed=trial_seed, connect=True, p2=p))
        report.max_n_seen = max(report.max_n_seen, g.non_isolated_count())

        try:
            dec, trace, met = decompose(g)
        except InternalInvariantViolation:
            fail("InternalInvariantViolation")
            continue
        for tag, count in trace.histogram().items():
            report.branch_histogram[tag] = report.branch_histogram.get(tag, 0) + count
        if not verify_decomposition(g, dec).valid:
            fail("InvalidDecomposition")
            continue
        if not met or len(dec.paths) > g.non_isolated_count() // 2:
            fail("BoundExceeded")
            continue
        if oracle_max_edges and g.m <= oracle_max_edges:
            try:
                best = minimum_decomposition(g, limit=oracle_max_edges)
            except TooLarge:
                continue
            if best.size > len(dec.paths):
                fail("BelowOracleMinimum")
    return report


def cmd_fuzz(args) -> int:
    def reproducer(flags: str) -> None:
        print(f"reproduce: gallai fuzz {flags}", file=sys.stderr)

    try:
        report = run_fuzz(
            trials=args.trials,
            max_n=args.max_n,
            seed=args.seed,
            p2=args.p2,
            densify=args.densify,
            oracle_max_edges=args.oracle_max_edges,
            reproducer=reproducer,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for bad flags; bad flags are 1 here
        return 0 if exc.code == 0 else 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
