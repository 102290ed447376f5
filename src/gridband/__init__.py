"""gridband: exact bandwidth of d-fold products of paths P_n^d.

The bandwidth is computed in closed form from coefficient rows of
(1 + x + ... + x^n)^d, realized concretely by the Hales (graded reverse
lexicographic) labeling, bracketed by central coefficients, compared with
the lexicographic labeling, and certified at desk scale by an exhaustive
branch-and-bound oracle.
"""

from .bandwidth import (
    AsymptoticEstimate,
    BoundsPair,
    asymptotic_estimate,
    bounds,
    bw_hales,
    bw_hypercube,
    bw_lex,
    ratio_table,
)
from .coeffs import (
    coeff,
    coeff_row,
    max_coeff,
    top_sum,
    trinomial_coeff,
)
from .grid import (
    BandwidthReport,
    BudgetExceededError,
    InternalInvariantError,
    format_vertex,
    labeling_bandwidth,
    lex_rank,
    lex_unrank,
    load_labeling_file,
    parse_vertex,
)
from .hales import (
    Vertex,
    block_matrix,
    hales_compare,
    hales_enumerate,
    hales_rank,
    hales_unrank,
)
from .oracle import OptimalityCertificate, brute_force_bw

__version__ = "0.1.0"
