"""The public names `gldpc` exports; removing or adding one must edit this list."""

import gldpc

PUBLIC_NAMES = [
    "CheckNodeType",
    "CnMixture",
    "CoefConvergence",
    "DimensionLimitError",
    "DivisibilityError",
    "DminStats",
    "GrowthCurve",
    "InstancePlan",
    "SampledCode",
    "SpecFile",
    "SpecFileError",
    "SweepPoint",
    "UnionBound",
    "UnstructuredEnsemble",
    "VERDICT_EXISTS",
    "VERDICT_NOT_EXISTS",
    "VERDICT_NO_SIGN_CHANGE",
    "VnRegularEnsemble",
    "Wef",
    "cn_type_fractions",
    "cns_per_edge",
    "degree_two_edge_fraction",
    "design_rate",
    "edge_weight_limit",
    "estimate_dmin_stats",
    "even_coef_convergence",
    "even_coef_exact",
    "even_coef_limit",
    "find_critical_ratio",
    "finite_length_prob_bound",
    "global_parity_rows",
    "growth_rate",
    "gv_relative_distance",
    "has_weight_one_codeword",
    "load_spec_file",
    "macwilliams",
    "min_distance",
    "min_distance_prob_bound",
    "parse_spec_dict",
    "poly_mul",
    "poly_pow",
    "prob_min_distance_one",
    "product_pow_coef",
    "sample_unstructured",
    "sample_vn_regular",
    "two_type_sweep",
    "validate_finite_instance",
    "wef_from_parity_matrix",
    "wef_hamming",
    "wef_spc",
    "weight_two_density",
    "wilson_interval",
]


def test_public_names_are_pinned():
    exported = sorted(
        name for name, value in vars(gldpc).items()
        if not name.startswith("_") and not isinstance(value, type(gldpc))
    )
    assert exported == PUBLIC_NAMES
