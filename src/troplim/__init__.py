"""Exact tropical limits: cones, fans, germs, skeletons, towers.

Everything computes over the rationals; no floating point enters any
certified result.  The numeric path sampler in `sampling` is the one
deliberately approximate component and is used only as a cross-check
oracle against the exact projective tropicalization.
"""

from .complexes import (
    CELL_CAP,
    Cell,
    ComplexMap,
    DeltaComplex,
    FiberComplex,
    StrataIncidence,
    SubdivisionResult,
    ToricFiberComplex,
    canonical_point,
    count_cells,
    cycle_complex,
    euler_characteristic,
    from_incidence,
    induced_map,
    make_complex,
    make_incidence,
    map_fiber,
    rational_points,
    scale_subdivide,
    toric_fiber_complex,
)
from .errors import TropLimError
from .fans import (
    Fan,
    FanReport,
    common_refinement,
    fan_from_cones,
    validate_fan,
)
from .galaxy import (
    Circle,
    EllipticTower,
    Skeleton,
    classify_point,
    decomposition,
    galaxy_point,
)
from .lattice import (
    RANK_CAP,
    Cone,
    cone_from_generators,
    cone_intersect,
    locate,
)
from .sampling import distance_to_ptrop, ptrop_sample_oracle
from .towers import (
    TOWER_DEPTH_CAP,
    FanTower,
    Symbol,
    SymbolicVector,
    chain_toward,
    extend_tower,
    fan_tower,
    fiber_model,
    fiber_rank,
    resolve_direction,
    symbolic_vector,
)
from .tropical import (
    PTropSet,
    TropicalPolynomial,
    count_ptrop_points,
    ptrop_normal_fan,
    ptrop_recession,
    trop_hypersurface,
    trop_poly,
)

__version__ = "0.1.0"
