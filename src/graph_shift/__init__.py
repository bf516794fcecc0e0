"""Neighborhood-preserving and approximate translations on graphs."""

from .graph import (
    Graph,
    INF,
    coord_to_index,
    index_to_coord,
    make_complete,
    make_grid,
    make_random_geometric,
    make_ring,
    make_torus,
)
from .mapping import (
    BOTTOM,
    Mapping,
    PropertyReport,
    apply_to_signal,
    bottom_map,
    compose,
    decompose,
    full_mapping,
    identity_map,
    inverse,
    precedes,
    property_report,
)
from .enumeration import (
    EnumerationFilter,
    enumerate_translations,
    exists_translation_between,
    min_loss,
    minimal_translations,
    pseudo_minimal_translations,
)
from .euclid import (
    contaminate_torus,
    dirac,
    dirac_shift_loss,
    euclidean_on_grid,
    euclidean_on_torus,
    grid_slice,
    satisfies_large_grid_assumption,
)
from .relax import (
    ScoreBreakdown,
    ScoreParams,
    evaluation_pair,
    pareto_front,
    score,
)
from .search import (
    SearchStats,
    TranslationTrace,
    best_composition,
    expand_support,
    localized_sets,
    minimize_s,
    parameter_sweep,
)

__version__ = "0.1.0"
