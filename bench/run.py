#!/usr/bin/env python3
"""gallai benchmark: end-to-end and per-layer timings of the working tree.

    python3 bench/run.py --workload scale --seed 1 --seconds 24 --trace 0

Workloads (see bench/README.md for why each exists):
  scale        CLI decompose + verify of generated graphs with n = 1200, plus
               an in-process decompose() sweep over sizes up to 1200
  fuzz-sparse  run_fuzz(max_n=200), acceptance check 3 settings
  fuzz-dense   run_fuzz(max_n=48, densify=True), acceptance check 4 settings
  oracle       run_fuzz(max_n=20, oracle_max_edges=14), the README example
The fuzz workloads also run CLI decompose + verify of generated graphs with
n = 600.

With --trace 0 the last stdout line carries the end-to-end metrics, measured
with nothing wrapped. With --trace 1 it carries the per-layer metrics: the
run repeats the same work untraced and then traced (bench/tracer.py), and
reports the layer totals plus the ratio of the two wall times.

Only the standard library is used, from one process and one thread; CLI
subprocesses run one at a time as `python -m gallai.cli` with the checkout's
`src` on PYTHONPATH. Every output is checked; each failed check counts as a
failed op. Scratch files go to bench/_work/ and are removed at exit, except
the digest store that lets later runs of the same code and seed compare
their outputs with this one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
DIGESTS = WORK / "digests.json"
# Imports read bytecode cached here, whatever PYTHONDONTWRITEBYTECODE says, as
# an installed package would; otherwise every import and CLI start compiles.
PYCACHE = WORK / "pycache"

sys.path.insert(0, str(BENCH))
import tracer as tracing  # noqa: E402  (the sibling module, not a package)

SCALE_SIZES = (150, 300, 600, 1200)
SCALE_P2 = 0.6
SCALE_VARIANTS = 6
# The fuzz workloads' CLI graphs: large enough that decompose work, not
# interpreter start (about 0.12 s, and twice as sensitive to the machine's
# drift as in-process work), sets the child's wall time. Their decompose time
# differs by up to 40% from seed to seed, so rounds cycle through several.
FUZZ_CLI_N = 600
FUZZ_CLI_VARIANTS = 8
SETUP_REPEATS = 10
STARTUP_REPEATS = 3
CLI_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Fuzz:
    """A fuzz workload: run_fuzz keywords and trials per run_fuzz call."""

    kwargs: dict
    chunk: int


WORKLOADS = {
    "scale": None,
    "fuzz-sparse": Fuzz({"max_n": 200}, chunk=80),
    "fuzz-dense": Fuzz({"max_n": 48, "densify": True}, chunk=150),
    "oracle": Fuzz({"max_n": 20, "oracle_max_edges": 14}, chunk=600),
}

END_TO_END = {
    "setup_s": "s",
    "decompose_s": "s",
    "peak_rss_mb": "MB",
    "trials_per_s": "1/s",
}

PER_LAYER = {
    "graph.components.calls": "count",
    "graph.components.s": "s",
    "graph.components.vertices": "count",
    "graph.cut_vertex.calls": "count",
    "graph.cut_vertex.s": "s",
    "graph.shortest_path.calls": "count",
    "graph.shortest_path.s": "s",
    "graph.copy.calls": "count",
    "graph.copy.s": "s",
    "graph.degeneracy.calls": "count",
    "graph.degeneracy.s": "s",
    "graph.parse.s": "s",
    "decompose.calls": "count",
    "decompose.s": "s",
    "decompose.self_s": "s",
    "decompose.graph_s": "s",
    "decompose.steps": "count",
    "decompose.p50_ms": "ms",
    "decompose.p99_ms": "ms",
    "decompose.exponent": "ratio",
    "decompose.components_share": "ratio",
    "decompose.format.s": "s",
    "verify.calls": "count",
    "verify.s": "s",
    "oracle.calls": "count",
    "oracle.s": "s",
    "oracle.p50_ms": "ms",
    "oracle.p99_ms": "ms",
    "generate.calls": "count",
    "generate.s": "s",
    "generate.densify_accept_ratio": "ratio",
    "cli.startup_s": "s",
    "cli.verify_s": "s",
    "cli.fuzz_self_s": "s",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
}


@dataclass
class Tally:
    """Ops attempted and failed, with one line per failure for stderr."""

    ops: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.ops += 1
        if not ok:
            self.problems.append(what)
        return ok

    def fail(self, what: str) -> None:
        """A failed check on an op already counted."""
        self.problems.append(what)


# -- inputs and setup ----------------------------------------------------------


def fresh_import():
    """Import gallai and its CLI from the checkout's src, re-executing every module."""
    for name in [m for m in sys.modules if m == "gallai" or m.startswith("gallai.")]:
        del sys.modules[name]
    importlib.import_module("gallai.cli")


def trial_base(seed: int) -> int:
    """First trial seed of a run; runs with different seeds share no trials."""
    return 1_000_003 * seed


def build_inputs(workload: str, seed: int, work: Path) -> list[dict]:
    """The run's input graphs, generated from its seed.

    Returns one dict per variant: "largest", the graph for the CLI, written to
    "file"; and on `scale` "sweep", the graph of each sweep size. `scale` has
    SCALE_VARIANTS variants, which successive rounds cycle through, so that its
    medians are taken over several graphs of each size. A fuzz workload has
    FUZZ_CLI_VARIANTS variants, each a FUZZ_CLI_N graph of the sweep's family;
    its own trials run in process.
    """
    gallai = sys.modules["gallai"]
    variants = []
    if workload == "scale":
        for j in range(SCALE_VARIANTS):
            sweep = {
                n: gallai.generate(
                    gallai.GenSpec(n=n, seed=SCALE_VARIANTS * seed + j, p2=SCALE_P2)
                )
                for n in SCALE_SIZES
            }
            variants.append({"sweep": sweep, "largest": sweep[SCALE_SIZES[-1]]})
    else:
        for j in range(FUZZ_CLI_VARIANTS):
            spec = gallai.GenSpec(n=FUZZ_CLI_N, seed=trial_base(seed) + j, p2=SCALE_P2)
            variants.append({"sweep": {}, "largest": gallai.generate(spec)})
    for j, v in enumerate(variants):
        v["file"] = work / f"graph{j}.txt"
        v["file"].write_text(gallai.format_edge_list(v["largest"]), encoding="ascii")
    return variants


# -- checks --------------------------------------------------------------------


def edge_set(g) -> set[tuple[int, int]]:
    return set(g.edges())


def path_problem(edges: set, n_non_isolated: int, paths) -> str | None:
    """Why `paths` is not a decomposition of `edges` within floor(n/2), or None.

    Independent of gallai's verifier and of the `met` flag it reports.
    """
    used: set[tuple[int, int]] = set()
    for p in paths:
        p = tuple(p)
        if len(p) < 2 or len(set(p)) != len(p):
            return f"not a simple path: {p[:8]}"
        for a, b in zip(p, p[1:]):
            e = (a, b) if a < b else (b, a)
            if e not in edges:
                return f"edge {e} not in graph"
            if e in used:
                return f"edge {e} used twice"
            used.add(e)
    if used != edges:
        return f"{len(edges - used)} edges uncovered"
    if len(paths) > n_non_isolated // 2:
        return f"{len(paths)} paths exceed floor({n_non_isolated}/2)"
    return None


def text_paths(text: str) -> list[tuple[int, ...]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    head = lines[0].split()
    if head[0] != "paths" or int(head[1]) != len(lines) - 1:
        raise ValueError(f"bad header {lines[0]!r}")
    return [tuple(int(t) for t in ln.split()) for ln in lines[1:]]


def sha256(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


def code_hash() -> str:
    """Hash of gallai's sources and the benchmark's own."""
    files = sorted((SRC / "gallai").glob("*.py")) + sorted(BENCH.glob("*.py"))
    return sha256(*(p.read_text() for p in files))


def record_digest(key: str, digest: str, tally: Tally) -> None:
    """Compare with the digest an earlier run of the same code and seed stored."""
    store = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if store.setdefault(key, digest) != digest:
        tally.fail(f"digest {key} differs from an earlier run")
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True, indent=1))
    os.replace(tmp, DIGESTS)


# -- CLI subprocesses ----------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


def run_cli(argv: list[str], work: Path) -> Child:
    """Run `python -m gallai.cli argv` to exit through bench/spawn.py, which
    times it and takes its own peak RSS with os.wait4.

    RUSAGE_CHILDREN would give the maximum over every child reaped so far,
    and a child started straight from here would count this process's memory
    as its own (see spawn.py).
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    out, err = work / "child.out", work / "child.err"
    spawn = [sys.executable, str(BENCH / "spawn.py"), str(out), str(err), str(CLI_TIMEOUT_S)]
    proc = subprocess.run(
        [*spawn, sys.executable, "-m", "gallai.cli", *argv],
        env=env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    report = json.loads(proc.stdout)
    if proc.returncode or "code" not in report:
        raise RuntimeError(f"gallai {argv[0]} did not finish: {report} {proc.stderr[-500:]}")
    return Child(report["code"], report["wall_s"], report["peak_rss_mb"], out.read_text())


def in_process_cli(argv: list[str]) -> tuple[int, str]:
    """gallai.cli.main(argv) with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["gallai.cli"].main(argv)
    return code, buf.getvalue()


# -- workloads -----------------------------------------------------------------


class Run:
    """One benchmark run: its inputs, scratch directory and op tally."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tally = Tally()
        self.setup_times: list[float] = []
        self.setup()
        # untimed: fills the bytecode cache, so no timed child compiles gallai
        run_cli(["--help"], work)
        self.expect = [
            (edge_set(v["largest"]), v["largest"].non_isolated_count()) for v in self.inputs
        ]
        self.outputs: dict[str, str] = {}

    def setup(self) -> None:
        """Import gallai afresh and rebuild the inputs from the seed, timed.

        The modules a re-import drops are cyclic garbage; collecting it here,
        untimed, keeps its cost out of the next timed set-up or unit.
        """
        gc.collect()
        t0 = perf_counter()
        fresh_import()
        self.inputs = build_inputs(self.workload, self.seed, self.work)
        self.setup_times.append(perf_counter() - t0)
        gc.collect()

    # one output per name per run; a repeat must match the first
    def same_output(self, name: str, text: str) -> None:
        if self.outputs.setdefault(name, text) != text:
            self.tally.fail(f"{name} output changed between repeats")

    def take_decomposition(self, j: int, code: int, out: Path) -> str:
        """Check a decompose exit code and output file (text, or JSON when the
        name ends in .json) for variant j; return the output."""
        if not self.tally.check(code == 0, f"decompose to {out.name} exited {code}"):
            return ""
        text = out.read_text()
        self.same_output(f"{out.suffix[1:]}#{j}", text)
        try:
            paths = json.loads(text)["paths"] if out.suffix == ".json" else text_paths(text)
        except (ValueError, IndexError, KeyError) as exc:
            self.tally.fail(f"decompose to {out.name}: unreadable output ({exc})")
            return text
        problem = path_problem(*self.expect[j], paths)
        if problem:
            self.tally.fail(f"decompose to {out.name}: {problem}")
        return text

    def take_verify(self, code: int, stdout: str) -> None:
        self.tally.check(
            code == 0 and stdout.startswith("valid"), f"verify exited {code}: {stdout[:80]!r}"
        )

    # -- CLI subprocesses on the largest graph ---------------------------------

    def cli_decompose(self, j: int, out: Path, *flags: str) -> Child:
        argv = ["decompose", str(self.inputs[j]["file"]), *flags, "-o", str(out)]
        child = run_cli(argv, self.work)
        self.take_decomposition(j, child.code, out)
        return child

    def cli_verify(self, j: int, dec_file: Path) -> Child:
        child = run_cli(["verify", str(self.inputs[j]["file"]), str(dec_file)], self.work)
        self.take_verify(child.code, child.stdout)
        return child

    def cli_round_trip(self, j: int, dec_file: Path) -> Child:
        child = self.cli_decompose(j, dec_file)
        self.cli_verify(j, dec_file)
        return child

    # -- in-process work units -------------------------------------------------
    #
    # A unit returns (trials, busy seconds, digest of its output). The traced
    # run replays exactly the units its untraced pass ran, by index.

    def unit(self, traced_run: bool):
        if self.workload != "scale":
            return self.fuzz_chunk
        k = len(self.inputs)
        if traced_run:
            return lambda i: (self.sweep if i % 2 else self.cli_in_process)(i // 2 % k)
        return lambda i: self.sweep(i % k)

    def sweep(self, j: int) -> tuple[int, float, str]:
        """In-process decompose() and verify of variant j at every sweep size."""
        D = sys.modules["gallai.decompose"]
        V = sys.modules["gallai.verify"]
        busy, parts = 0.0, []
        for n, g in self.inputs[j]["sweep"].items():
            t0 = perf_counter()
            dec, _trace, _met = D.decompose(g)
            valid = V.verify_decomposition(g, dec).valid
            busy += perf_counter() - t0
            paths = [p.vertices for p in dec.paths]
            problem = path_problem(edge_set(g), g.non_isolated_count(), paths)
            self.tally.check(
                valid and problem is None, f"sweep n={n}: {problem or 'verify said invalid'}"
            )
            parts.append(repr(paths))
        digest = sha256(*parts)
        self.same_output(f"sweep#{j}", digest)
        return len(parts), busy, digest

    def fuzz_chunk(self, i: int) -> tuple[int, float, str]:
        """run_fuzz over the i-th block of this run's trial seeds."""
        spec = WORKLOADS[self.workload]
        run_fuzz = sys.modules["gallai.cli"].run_fuzz
        t0 = perf_counter()
        report = run_fuzz(
            trials=spec.chunk, seed=trial_base(self.seed) + i * spec.chunk, **spec.kwargs
        )
        busy = perf_counter() - t0
        self.tally.ops += report.trials
        for f in report.failures:
            self.tally.fail(f"fuzz failure {f}")
        if report.trials != spec.chunk:
            self.tally.fail(f"fuzz ran {report.trials} of {spec.chunk} trials")
        digest = sha256(json.dumps(report.to_json(), sort_keys=True))
        if i == 0:
            self.same_output("fuzz#0", digest)
        return report.trials, busy, digest

    def cli_in_process(self, j: int) -> tuple[int, float, str]:
        """gallai.cli.main on variant j's largest graph: decompose, decompose
        --json --trace, verify. Lets the traced run see parse, format and verify."""
        graph_file = str(self.inputs[j]["file"])
        txt, js = self.work / f"dec{j}.txt", self.work / f"dec{j}.json"
        t0 = perf_counter()
        code_t, _ = in_process_cli(["decompose", graph_file, "-o", str(txt)])
        code_j, _ = in_process_cli(["decompose", graph_file, "--json", "--trace", "-o", str(js)])
        code_v, out_v = in_process_cli(["verify", graph_file, str(txt)])
        busy = perf_counter() - t0
        text = self.take_decomposition(j, code_t, txt)
        payload = self.take_decomposition(j, code_j, js)
        self.take_verify(code_v, out_v)
        return 0, busy, sha256(text, payload)

    def store_digest(self) -> None:
        """Record the digest of this run's outputs on variant 0 and its first
        fuzz block, which every run makes, for later runs of the same code and
        seed to compare with."""
        parts = [f"{k}\n{v}" for k, v in sorted(self.outputs.items()) if k.endswith("#0")]
        key = f"{self.workload}:{self.seed}:{code_hash()}"
        record_digest(key, sha256(*parts), self.tally)


def loop(unit, budget: float, minimum: int = 1) -> None:
    """Call unit(0), unit(1), ... at least `minimum` times, stopping before a
    call that, at the last call's duration, would end past `budget` seconds."""
    done, last = 0, 0.0
    t0 = perf_counter()
    while done < minimum or perf_counter() - t0 + last <= budget:
        start = perf_counter()
        unit(done)
        last = perf_counter() - start
        done += 1


def end_to_end(run: Run) -> dict:
    """The untraced run.

    It goes in rounds of one set-up (until there are SETUP_REPEATS), one CLI
    decompose + verify and one in-process unit, so that each median draws on
    samples from the whole run: the speed of a shared machine drifts over
    seconds, and a median over one stretch of the run would follow it.
    trials_per_s is total trials over total time in the units.
    """
    t0 = perf_counter()
    dec_file = run.work / "dec.txt"
    if run.workload == "scale":
        run.cli_decompose(0, run.work / "dec.json", "--json", "--trace")
    unit = run.unit(traced_run=False)
    children, units = [], []

    def one_round(i: int) -> None:
        if len(run.setup_times) < SETUP_REPEATS:
            run.setup()
        children.append(run.cli_round_trip(i % len(run.inputs), dec_file))
        units.append(unit(i))

    loop(one_round, run.seconds - (perf_counter() - t0))
    run.store_digest()
    return {
        "setup_s": statistics.median(run.setup_times),
        "decompose_s": statistics.median(c.wall_s for c in children),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        "trials_per_s": sum(u[0] for u in units) / sum(u[1] for u in units),
    }


def per_layer(run: Run) -> dict:
    """The traced run: each unit runs untraced and then at once traced, so
    that both halves of trace.overhead see the same machine speed."""
    startup = []
    for _ in range(STARTUP_REPEATS):
        child = run_cli(["--help"], run.work)
        run.tally.check(child.code == 0, f"--help exited {child.code}")
        startup.append(child.wall_s)

    unit = run.unit(traced_run=True)
    tracer = tracing.Tracer()
    walls = [0.0, 0.0]  # untraced, traced

    def pair(i: int) -> None:
        t0 = perf_counter()
        plain = unit(i)
        walls[0] += perf_counter() - t0
        tracer.install()
        try:
            t0 = perf_counter()
            traced = unit(i)
            walls[1] += perf_counter() - t0
        finally:
            tracer.remove()
        if traced[2] != plain[2]:
            run.tally.fail(f"unit {i}: traced output differs from untraced output")

    # scale alternates CLI and sweep units; run at least one of each
    loop(pair, 0.8 * run.seconds, minimum=2)
    dec_file = run.work / "dec0.txt"  # on scale, written by the first unit
    if run.workload != "scale":
        run.cli_decompose(0, dec_file)
    verify = run.cli_verify(0, dec_file)
    run.store_digest()

    metrics = tracer.metrics()
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["cli.verify_s"] = verify.wall_s
    metrics["trace.overhead"] = walls[1] / walls[0]
    metrics["trace.wall_s"] = walls[1]
    return metrics


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gallai" / "cli.py").is_file():
        print(f"error: no gallai sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        values = per_layer(run) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    if set(values) != set(units):
        raise AssertionError(f"metric names drifted: {sorted(set(values) ^ set(units))}")
    for problem in run.tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    failed = min(len(run.tally.problems), run.tally.ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.tally.ops,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
