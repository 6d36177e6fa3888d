"""Layer spans taken from outside gallai, by wrapping its public functions.

`Tracer.install()` replaces each traced function at the sites it is called
from (module globals of `gallai.cli`, `gallai.decompose`, `gallai.generate`
and `gallai.graph`, and the copy methods of `Graph`) with a wrapper that
opens a span, and `Tracer.remove()` puts the originals back. Spans nest: each
has an id and its parent's id, and a span's self time is its duration minus
the durations of its direct children. Totals are aggregated as spans close,
so memory stays flat however many calls a run makes.

A span nested inside a span of its own layer (the component search inside
`triangle_components`, `without_edges` inside `without_vertex`,
`degeneracy_order` inside `is_two_degenerate`, `generate` inside
`dense_instance`) is merged into the outer one: it adds self time to the
layer but no call and no duration, so a layer's `s` never counts the same
interval twice and never exceeds the wall time of the traced run.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

# (module, attribute, layer). `Graph` stands for the class gallai.graph.Graph.
# gallai.graph's own globals are wrapped too, so that the component searches
# run by `triangle_components` and `is_cut_vertex` are counted as work, and so
# are the defining modules of the functions the benchmark calls directly.
SITES = (
    ("gallai.graph", "connected_components", "graph.components"),
    ("gallai.graph", "degeneracy_order", "graph.degeneracy"),
    ("Graph", "without_edges", "graph.copy"),
    ("Graph", "without_vertex", "graph.copy"),
    ("Graph", "restricted_to", "graph.copy"),
    ("Graph", "with_edges", "graph.copy"),
    ("gallai.decompose", "connected_components", "graph.components"),
    ("gallai.decompose", "triangle_components", "graph.components"),
    ("gallai.decompose", "is_cut_vertex", "graph.cut_vertex"),
    ("gallai.decompose", "shortest_path", "graph.shortest_path"),
    ("gallai.decompose", "degeneracy_order", "graph.degeneracy"),
    ("gallai.decompose", "decompose", "decompose"),
    ("gallai.verify", "verify_decomposition", "verify"),
    ("gallai.generate", "connected_components", "graph.components"),
    ("gallai.generate", "is_cut_vertex", "graph.cut_vertex"),
    ("gallai.generate", "is_two_degenerate", "graph.degeneracy"),
    ("gallai.generate", "generate", "generate"),
    ("gallai.generate", "densify", "generate"),
    ("gallai.generate", "dense_instance", "generate"),
    ("gallai.cli", "parse_edge_list", "graph.parse"),
    ("gallai.cli", "decompose", "decompose"),
    ("gallai.cli", "format_decomposition", "decompose.format"),
    ("gallai.cli", "verify_decomposition", "verify"),
    ("gallai.cli", "minimum_decomposition", "oracle"),
    ("gallai.cli", "generate", "generate"),
    ("gallai.cli", "dense_instance", "generate"),
    ("gallai.cli", "run_fuzz", "cli.fuzz"),
)

LAYERS = tuple(sorted({layer for _m, _a, layer in SITES}))

_MARK = "__bench_traced__"


class _Layer:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class _Frame:
    __slots__ = ("span_id", "parent_id", "layer", "start", "child_s")

    def __init__(self, span_id: int, parent_id: int, layer: str, start: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.layer = layer
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Span recorder for one traced run; create, install, run, remove."""

    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self.stack: list[_Frame] = []
        self.next_id = 0
        self.decompose_graph_s = 0.0  # direct graph-layer children of decompose
        self.components_in_decompose_s = 0.0
        self.component_vertices = 0
        self.decompose_steps = 0
        self.decompose_samples: list[tuple[int, float]] = []  # (universe n, seconds)
        self.oracle_samples: list[float] = []
        self.degeneracy_checks = 0  # is_two_degenerate calls made by the generators
        self.degeneracy_accepted = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def open(self, layer: str) -> _Frame:
        self.next_id += 1
        parent = self.stack[-1].span_id if self.stack else 0
        self.layers[layer].depth += 1
        frame = _Frame(self.next_id, parent, layer, perf_counter())
        self.stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        dur = perf_counter() - frame.start
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.span_id} closed out of order")
        agg = self.layers[frame.layer]
        agg.depth -= 1
        agg.self_s += dur - frame.child_s
        if agg.depth == 0:
            agg.calls += 1
            agg.s += dur
            if self.layers["decompose"].depth and frame.layer == "graph.components":
                self.components_in_decompose_s += dur
        if self.stack:
            parent = self.stack[-1]
            parent.child_s += dur
            if parent.layer == "decompose" and frame.layer.startswith("graph."):
                self.decompose_graph_s += dur
        return dur

    def wrap(self, fn, layer: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.close(frame)
            if count is not None:
                count(tracer, args, result, dur)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer in SITES:
            target = _owner(owner)
            original = getattr(target, attr)
            if getattr(original, _MARK, False):
                raise RuntimeError(f"{owner}.{attr} is already traced")
            count = _COUNTERS.get((owner, attr))
            self._saved.append((target, attr, original))
            setattr(target, attr, self.wrap(original, layer, count))

    def remove(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
        assert_untraced()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals under their metric names (durations in seconds)."""
        L = self.layers
        out: dict[str, float] = {}
        for name in ("graph.components", "graph.cut_vertex", "graph.shortest_path",
                     "graph.copy", "graph.degeneracy", "verify", "oracle"):
            out[f"{name}.calls"] = L[name].calls
            out[f"{name}.s"] = L[name].s
        out["graph.components.vertices"] = self.component_vertices
        out["graph.parse.s"] = L["graph.parse"].s
        dec = L["decompose"]
        out["decompose.calls"] = dec.calls
        out["decompose.s"] = dec.s
        out["decompose.self_s"] = dec.self_s
        out["decompose.graph_s"] = self.decompose_graph_s
        out["decompose.steps"] = self.decompose_steps
        times = [t for _n, t in self.decompose_samples]
        out["decompose.p50_ms"] = 1e3 * percentile(times, 50)
        out["decompose.p99_ms"] = 1e3 * percentile(times, 99)
        out["decompose.exponent"] = loglog_slope(self.decompose_samples)
        out["decompose.components_share"] = (
            self.components_in_decompose_s / dec.s if dec.s else 0.0
        )
        out["decompose.format.s"] = L["decompose.format"].s
        out["oracle.p50_ms"] = 1e3 * percentile(self.oracle_samples, 50)
        out["oracle.p99_ms"] = 1e3 * percentile(self.oracle_samples, 99)
        out["generate.calls"] = L["generate"].calls
        out["generate.s"] = L["generate"].self_s
        out["generate.densify_accept_ratio"] = (
            self.degeneracy_accepted / self.degeneracy_checks
            if self.degeneracy_checks
            else 0.0
        )
        out["cli.fuzz_self_s"] = L["cli.fuzz"].self_s
        return out


def _owner(name: str):
    if name == "Graph":
        return sys.modules["gallai.graph"].Graph
    # `import gallai.decompose as D` would give the re-exported function
    return sys.modules[name]


def assert_untraced() -> None:
    """Raise if any traced site still holds a wrapper."""
    for owner, attr, _layer in SITES:
        if getattr(getattr(_owner(owner), attr), _MARK, False):
            raise AssertionError(f"{owner}.{attr} is still traced")


def _count_components(tracer: Tracer, _args, result, _dur) -> None:
    tracer.component_vertices += sum(len(c.vertices) for c in result)


def _count_decompose(tracer: Tracer, args, result, dur) -> None:
    tracer.decompose_steps += len(result[1].steps)
    tracer.decompose_samples.append((args[0].n, dur))


def _count_oracle(tracer: Tracer, _args, _result, dur) -> None:
    tracer.oracle_samples.append(dur)


def _count_densify_check(tracer: Tracer, _args, result, _dur) -> None:
    tracer.degeneracy_checks += 1
    tracer.degeneracy_accepted += bool(result)


# triangle_components is not counted here: the connected_components call
# inside it is wrapped in gallai.graph and counts the vertices it visits.
_COUNTERS = {
    ("gallai.graph", "connected_components"): _count_components,
    ("gallai.decompose", "connected_components"): _count_components,
    ("gallai.generate", "connected_components"): _count_components,
    ("gallai.decompose", "decompose"): _count_decompose,
    ("gallai.cli", "decompose"): _count_decompose,
    ("gallai.cli", "minimum_decomposition"): _count_oracle,
    ("gallai.generate", "is_two_degenerate"): _count_densify_check,
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n); 0.0 if n never varies."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _y in pts}) < 2:
        return 0.0
    mx = sum(x for x, _y in pts) / len(pts)
    my = sum(y for _x, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _y in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
