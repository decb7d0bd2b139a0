"""Exact combinatorics of the quantum alcove model.

Root systems and Weyl groups with exact arithmetic, the quantum Bruhat
graph, lambda-chains and admissible subsets with their statistics,
generalized quantum Yang-Baxter moves (sijections), quantum Bruhat operator
matrices with golden data, generating functions, and the Chevalley-type
character expansion.
"""

from .rootsys import (
    Coroot,
    Root,
    RootSystem,
    RootSystemError,
    Weight,
    WeylElement,
    build_root_system,
    root_system_from_cartan,
)
from .qbg import (
    BRUHAT,
    QUANTUM,
    DirectedPath,
    QbgEdge,
    is_reflection_order,
    label_increasing_path,
    out_edges,
    pi_compatible_paths,
    qbg_edge,
    reflection_orders,
    shortest_stats,
    to_dot,
)
from .alcove import (
    AdmissibleSubset,
    ChainError,
    LambdaChain,
    admissible_from_indices,
    chain_with_segment,
    compute_levels,
    concat_admissible,
    concat_chains,
    enumerate_admissible,
    insert_pair,
    is_cancellation_free,
    is_reduced,
    is_weakly_reduced,
    lambda_pm,
    lex_chain,
    segment_chain,
    split_admissible,
    straight_crossings,
    sweep_admissible,
    weight_sums,
)
from .ybmoves import (
    Sijection,
    SijectionError,
    YbContext,
    build_sijection,
    check_sijection,
    classify_phi,
    delete_pair,
    find_yb_segments,
    make_context,
    yb_I1,
    yb_I2,
    yb_Y,
    yb_transform,
)
from .qbops import (
    OperatorMatrix,
    apply_Q,
    apply_R_sequence,
    check_golden,
    check_yang_baxter,
    operator_matrix,
    rank2_chain,
    verify_matrix_props,
)
# the function genfun is not re-exported: qalcove.genfun is the module
from .genfun import (
    AffineWeylElt,
    GenFun,
    ParTuple,
    compose,
    genfun_equal,
    genfun_extend,
    ghat,
    ghat_compose,
    is_weyl_invariant,
    par_enumerate,
    weight_orbit_sum,
)
from .charident import (
    FormalChar,
    rhs_chevalley,
    specialize_trivial,
    verify_factorization,
    verify_vanishing,
)

__version__ = "0.1.0"
