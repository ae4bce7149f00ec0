"""Split graphs, minimal set covers, XY-graphs and bipartite posets:
balance classification, the bijections connecting the four classes, the
compilation maps, and exhaustive verified enumeration at desk scale."""

from .core import (
    Balance,
    BipartitePoset,
    CanonicalKey,
    DomainError,
    Graph,
    KSPartition,
    ParseError,
    SetCover,
    SizeLimitError,
    SplitAnalysis,
    UsageError,
    ValidationError,
    XYGraph,
    parse_graph6,
    parse_object,
    serialize_graph6,
    serialize_object,
    validate,
)
from .canon import (
    GraphCanon,
    MatrixCanonForm,
    canon_cover,
    canon_graph,
    canon_key,
    canon_matrix,
    canon_poset,
    canon_xy,
    canonical_object,
    is_isomorphic,
)
from .classify import (
    balance_cover,
    balance_of,
    balance_poset,
    balance_split,
    balance_xy,
    is_minimal,
    is_split,
    k_max_partition,
    loyal_elements,
    loyal_vertices_split,
    omega_alpha,
    poset_support,
    s_max_partition,
    swing_vertices,
    trichotomy,
    xy_isolates_universals,
)
from .census import (
    MAX_N,
    Census,
    count_table,
    enumerate_cover,
    enumerate_poset,
    enumerate_split,
    enumerate_xy,
)
from .biject import MapReport, apply_named_map

__all__ = [name for name in dir() if not name.startswith("_")]
