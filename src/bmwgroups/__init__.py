"""Combinatorics of involutive BMW groups.

A BMW group of degree (m, n) acts simply transitively on the vertices of a
product of two regular trees T_m x T_n (Burger-Mozes-Wise).  The involutive
ones are equivalent to purely combinatorial data, the structure set, and
this package materializes that combinatorics: exact counting, a seeded
random model with machine-checked certificates, permutation-group
recognition for the local actions, the explicit family seeded by Radu's
(4,5)-lattice, and a reproducible CLI (``bmwgroups --help``).
"""

from .errors import (
    ArityError,
    BmwError,
    ConflictingPairError,
    DegreeError,
    DoublyCoveredPairError,
    IndexOutOfRangeError,
    RangeError,
    ResourceError,
    StructureSetError,
    TripleMatchingError,
    UncoveredPairError,
    UsageError,
)
from .perm import (
    FpfInvolution,
    Permutation,
    count_fpf,
    count_involutions,
    double_factorial,
    enumerate_fpf,
)
from .permgroup import (
    GroupClassification,
    PermutationGroup,
    SchreierAnalysis,
    schreier_analysis,
)
from .randmodel import (
    CertificateReport,
    InvolutionTuple,
    MatchGraph,
    caprace_exceptional_set,
    exact_orbit_share_prob,
    expected_match_statistic,
    irr_certificate,
    match_graph,
    match_statistic,
    midpoint_property,
    monte_carlo,
    overlapping_matches,
    sample_tuple,
    structure_set_from_tuple,
    triple_matchings,
)
from .rng import RngState
from .structure import (
    PartialStructureSet,
    Relabeling,
    Square,
    StructureSet,
    all_diagonal,
    canonical_form,
    census_counts,
    complex_summary,
    count_up_to_relabeling,
    enumerate_structure_sets,
    presentation_text,
    relabel,
    validate,
)
from . import radu

__version__ = "0.1.0"
