"""Zero forcing parameters, OS-sets, nullity bounds, and matrix witnesses.

The hot search kernels have a compiled C implementation with a pure-Python
fallback chosen at import; see zforce.kernels.backend_name().
"""

from .bounds import (
    BoundsReport,
    CliqueCover,
    PathCover,
    bounds_report,
    clique_cover_number,
    maximal_cliques,
    path_cover_number,
)
from .forcing import (
    Force,
    ForceLog,
    certificate,
    chains,
    derived_set,
    is_forcing_set,
    reversal,
)
from .graph import (
    Graph,
    GraphError,
    InvariantViolation,
    ParseError,
    SizeLimitError,
    VertexSet,
    cartesian_product,
    components,
    family,
    induced,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .kernels import backend_name
from .search import (
    OsCheck,
    OsSet,
    SearchResult,
    all_minimum_zfs,
    maximum_os_set,
    min_degree,
    min_zfs_intersection,
    os_from_psd_set,
    psd_set_from_os,
    verify_os_set,
    zero_forcing_number,
)
from .witness import (
    DegenerateParameters,
    PatternCheck,
    WitnessError,
    build_h43_witness,
    build_tree_clique_witness,
    is_psd,
    numeric_rank,
    pattern_matches,
    rank_gap,
    read_matrix,
    rowspace_residual,
    sticky_equation_residual,
    support_matches,
    write_matrix,
)

__version__ = "0.1.0"
