"""Exact rational arithmetic for measure-preserving interval permutations
and shift-invariant cylinder tables: metrics, pushforwards, embeddings,
smoothing, and realization, all computed without floating point.
"""

from .action import (
    InfeasibleError,
    LatticeAction,
    WrpResult,
    action_dist,
    action_dist_tail,
    conjugate,
    free_defect,
    group_enumeration,
    identity_action,
    wrp_conjugacy_search,
)
from .equivalence import (
    GraphWitness,
    InverseContinuityReport,
    PairWitness,
    action_to_sim,
    adapt_table,
    continuity_bound_check,
    cylinder_atoms,
    embed_action,
    factor_defect,
    inverse_continuity_check,
    realize_sim_as_action,
    recover_action,
)
from .measure import (
    Adaptation,
    StepMeasure,
    convolve,
    from_piece_masses,
    identity_adaptation,
    is_good,
    lebesgue,
    pushforward,
    quantile_adaptation,
    uniform_on,
    weak_star_distance,
    weak_star_tail,
)
from .sim import (
    CylinderTable,
    GraphTest,
    Partition,
    Window,
    average_sims,
    convolve_sim,
    cylinder_mass,
    fixed_mass_bound,
    fixed_mass_report,
    graph_witness_exact,
    greedy_graph_witness,
    is_graph_joining,
    is_graph_sim,
    marginal,
    marginalize_to,
    marginalize_window,
    pair_matrix,
    refine_partition,
    relabel,
    sim_dist,
)
from .transform import (
    DyadicSet,
    IntervalPermutation,
    aperiodicity_scale,
    coarse_dist,
    coarse_dist_tail,
    halmos_dist,
    identity,
    preimage,
    rohlin_tower,
    rotation,
    swap_halves,
)

__version__ = "0.1.0"
