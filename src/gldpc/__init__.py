"""Minimum-distance analysis of irregular GLDPC code ensembles."""

from .bounds import (
    CoefConvergence,
    UnionBound,
    even_coef_convergence,
    even_coef_exact,
    even_coef_limit,
    finite_length_prob_bound,
    min_distance_prob_bound,
    prob_min_distance_one,
    product_pow_coef,
)
from .ensemble import (
    CheckNodeType,
    CnMixture,
    DivisibilityError,
    InstancePlan,
    UnstructuredEnsemble,
    VnRegularEnsemble,
    cn_type_fractions,
    cns_per_edge,
    degree_two_edge_fraction,
    design_rate,
    validate_finite_instance,
    weight_two_density,
)
from .gf2 import DimensionLimitError
from .growth import (
    GrowthCurve,
    SweepPoint,
    VERDICT_EXISTS,
    VERDICT_NO_SIGN_CHANGE,
    VERDICT_NOT_EXISTS,
    edge_weight_limit,
    find_critical_ratio,
    growth_rate,
    gv_relative_distance,
    two_type_sweep,
)
from .polywef import (
    Wef,
    macwilliams,
    poly_mul,
    poly_pow,
    wef_from_parity_matrix,
    wef_hamming,
    wef_spc,
)
from .sampler import (
    DminStats,
    SampledCode,
    estimate_dmin_stats,
    global_parity_rows,
    has_weight_one_codeword,
    min_distance,
    sample_unstructured,
    sample_vn_regular,
    wilson_interval,
)
from .specfile import SpecFile, SpecFileError, load_spec_file, parse_spec_dict

__version__ = "0.1.0"
