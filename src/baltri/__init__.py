"""Balanced triangulations of closed surfaces: flips, search, and structure.

A triangulation is balanced when its vertices admit a proper 3-coloring,
which for a closed surface means every vertex has even degree.  This
package builds and validates such triangulations, applies the eight local
moves that preserve balancedness, expresses the larger moves as sequences
of smaller ones, explores the flip graph up to isomorphism, and relates
balanced triangulations to even embeddings of bipartite graphs through
face subdivision.
"""

from .bipartite import (
    BipGraph,
    BipOp,
    BipOpKind,
    apply_bip,
    apply_sequence,
    bip_isomorphic,
    is_removable,
    is_smoothable,
    normalize_sequence,
)
from .canon import (
    CanonicalCode,
    ColorMode,
    canonical_code,
    canonical_form,
    is_isomorphic,
)
from .embeddings import (
    EvenEmbedding,
    Verdict,
    cube_embedding,
    delete_color_class,
    face_subdivision,
    hex_prism_embedding,
    subdivision_obstruction,
    subdivision_vertex_count,
)
from .errors import (
    BaltriError,
    DegenerateFace,
    Disconnected,
    DuplicateFace,
    ExpansionNotFound,
    ImpossibleSurface,
    InvalidEmbedding,
    InvalidSite,
    MissingColoring,
    NoEligibleOrientation,
    NonManifoldEdge,
    NotApplicable,
    NotBalanced,
    NotConnectedWithinCaps,
    ParseError,
    PinchedVertex,
    PreconditionViolated,
    RewriteBudgetExceeded,
    RewriteUnsound,
    SurfaceMismatch,
    TriangulationError,
    WouldCreateDoubleEdge,
    WouldCreateDuplicateFace,
    WrongDegree,
)
from .explorer import (
    FlipGraphView,
    bfs,
    build_cube_subdivision,
    build_k333_torus,
    build_octahedron,
    classify,
    connect,
    random_walk,
    replay_path,
)
from .fileio import (
    format_bip,
    format_bip_script,
    format_emb,
    format_tri,
    parse_bip,
    parse_bip_script,
    parse_emb,
    parse_tri,
)
from .flips import (
    FlipKind,
    FlipSite,
    apply_flip,
    bew_patch,
    enumerate_sites,
    inverse_site,
    site_footprint,
    site_from_str,
    site_to_str,
)
from .rewrites import (
    expand_bes_via_bts_pc,
    expand_bes_via_ps,
    expand_bes_via_ps_available,
    expand_bew_via_ps_btw,
    expand_via_budget,
    verify_expansion,
)
from .surface import (
    Coloring,
    Triangulation,
    find_coloring,
    is_orientable,
    is_proper,
    surface_id,
    surface_name,
    validate,
)

__version__ = "0.1.0"
