"""Edge decompositions of 2-degenerate graphs into at most floor(n/2) paths.

The package splits into a graph core (`graph`), the constructive decomposer
with its branch traces (`decompose`), an independent verifier and exact
oracle (`verify`), seeded test-graph generators (`generate`) and the command
line front door (`cli`).

The package attribute `gallai.decompose` is the function `decompose`, which
this module re-exports under its submodule's name and so shadows the
submodule: `import gallai.decompose as m` binds the function, and a string
target such as "gallai.decompose._merge_cycle" does not resolve. Use
`importlib.import_module("gallai.decompose")` (or
`sys.modules["gallai.decompose"]`) to reach the module itself.
"""

from .decompose import (
    BRANCH_TAGS,
    DecomposeError,
    Decomposition,
    GeometryMismatch,
    InternalInvariantViolation,
    NoIntersectingPath,
    ReductionTrace,
    TraceStep,
    TriangleNotComponent,
    absorb_triangles,
    decompose,
    format_decomposition,
    merge_cycle_with_triangle,
)
from .generate import (
    FAMILIES,
    GenSpec,
    UnknownFamily,
    dense_instance,
    densify,
    family,
    generate,
)
from .graph import (
    Component,
    Cycle,
    DuplicateEdge,
    Graph,
    GraphError,
    IdOutOfRange,
    NoPath,
    NotTwoDegenerate,
    Path,
    SelfLoop,
    connected_components,
    degeneracy_order,
    format_edge_list,
    is_cut_vertex,
    is_two_degenerate,
    parse_edge_list,
    shortest_path,
    triangle_components,
)
from .verify import (
    FAILURE_KINDS,
    Failure,
    OracleResult,
    OracleWitness,
    TooLarge,
    VerificationReport,
    minimum_decomposition,
    odd_degree_lower_bound,
    parse_decomposition,
    verify_decomposition,
)

__all__ = [
    "BRANCH_TAGS",
    "Component",
    "Cycle",
    "DecomposeError",
    "Decomposition",
    "DuplicateEdge",
    "FAILURE_KINDS",
    "FAMILIES",
    "Failure",
    "GenSpec",
    "GeometryMismatch",
    "Graph",
    "GraphError",
    "IdOutOfRange",
    "InternalInvariantViolation",
    "NoIntersectingPath",
    "NoPath",
    "NotTwoDegenerate",
    "OracleResult",
    "OracleWitness",
    "Path",
    "ReductionTrace",
    "SelfLoop",
    "TooLarge",
    "TraceStep",
    "TriangleNotComponent",
    "UnknownFamily",
    "VerificationReport",
    "absorb_triangles",
    "connected_components",
    "decompose",
    "degeneracy_order",
    "dense_instance",
    "densify",
    "family",
    "format_decomposition",
    "format_edge_list",
    "generate",
    "is_cut_vertex",
    "is_two_degenerate",
    "merge_cycle_with_triangle",
    "minimum_decomposition",
    "odd_degree_lower_bound",
    "parse_decomposition",
    "parse_edge_list",
    "shortest_path",
    "triangle_components",
    "verify_decomposition",
]
