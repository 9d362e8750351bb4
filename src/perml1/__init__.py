"""Word metric and L1 embeddings for cycle-and-transposition Cayley graphs."""

__version__ = "0.1.0"

from .perms import (  # noqa: F401
    C,
    CINV,
    CycleDecomposition,
    GeneratorWord,
    Permutation,
    T,
    all_permutations,
    compose,
    cycle_decompose,
    cycle_diam,
    cycle_dist,
    eval_word,
    inverse,
    perm_rank,
    perm_unrank,
)
from .metric import (  # noqa: F401
    DistanceTable,
    FormulaBreakdown,
    ResourceLimitError,
    bfs_distances,
    formula_distance,
    formula_length,
)
from .synth import (  # noqa: F401
    CertifiedWord,
    synthesize,
    word_cycle,
    word_transposition,
    word_transposition_from_zero,
)
from .embed import (  # noqa: F401
    CircleGrid,
    CombinedPoint,
    SparseVector,
    avg_vs_min_check,
    circle_grid,
    circle_grid_distance,
    circle_median,
    combined_distance,
    combined_embed,
    count_separating_intervals,
    interval_profile,
    realize_grid,
)
from .audits import (  # noqa: F401
    CubeAuditReport,
    DistortionReport,
    DriftSeries,
    PropertyViolation,
    cube_audit,
    distortion_audit,
    drift_slope,
    drift_walk,
    hamming_embed,
)
