"""Computational algebra for finite quandles.

Quandles are stored as Cayley tables of their point symmetries
(table[x][y] is the symmetry at x applied to y).  The package builds the
stock families (trivial, dihedral, signed axes, oriented coordinate
planes, graph quandles, cocycle extensions), computes their symmetry
groups and property flags, reconstructs graphs from suitable quandles,
and enumerates all quandles of order at most seven up to isomorphism.
"""

from .analysis import (
    Characterization,
    GraphReconstruction,
    GroupChain,
    OrderCensus,
    PropertyReport,
    automorphism_group,
    characterize,
    connected_components,
    displacement_group,
    even_inner_group,
    flat_connected_census,
    group_chain,
    inner_group,
    property_report,
    to_graph,
)
from .constructions import (
    CocycleCheck,
    CocycleTable,
    aknn,
    axis_quandle,
    cocycle_extension,
    cocycle_from_dict,
    dihedral,
    discrete_torus,
    from_graph,
    is_cocycle,
    trivial,
)
from .core import (
    AxiomReport,
    FiniteQuandle,
    canonical_table,
    direct_product,
    enumerate_quandles,
    find_isomorphism,
    is_homomorphism,
    iter_isomorphisms,
    quandle_from_dict,
    quandle_to_dict,
    verify_axioms,
)
from .errors import (
    AxiomError,
    BadComponentSizeError,
    InputError,
    NotCrossedError,
    QuandleError,
    ResourceLimitError,
    VerificationError,
)
from .graphs import SimpleGraph, graph_from_dict, graph_to_dict, to_dot
from .permgroup import PermGroup

__version__ = "0.1.0"

__all__ = [
    "AxiomError",
    "AxiomReport",
    "BadComponentSizeError",
    "Characterization",
    "CocycleCheck",
    "CocycleTable",
    "FiniteQuandle",
    "GraphReconstruction",
    "GroupChain",
    "InputError",
    "NotCrossedError",
    "OrderCensus",
    "PermGroup",
    "PropertyReport",
    "QuandleError",
    "ResourceLimitError",
    "SimpleGraph",
    "VerificationError",
    "aknn",
    "automorphism_group",
    "axis_quandle",
    "canonical_table",
    "characterize",
    "cocycle_extension",
    "cocycle_from_dict",
    "connected_components",
    "dihedral",
    "direct_product",
    "discrete_torus",
    "displacement_group",
    "enumerate_quandles",
    "even_inner_group",
    "find_isomorphism",
    "flat_connected_census",
    "from_graph",
    "graph_from_dict",
    "graph_to_dict",
    "group_chain",
    "inner_group",
    "is_cocycle",
    "is_homomorphism",
    "iter_isomorphisms",
    "property_report",
    "quandle_from_dict",
    "quandle_to_dict",
    "to_dot",
    "to_graph",
    "trivial",
    "verify_axioms",
]
