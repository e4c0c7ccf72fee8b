from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldpc.ensemble import (
    CheckNodeType,
    CnMixture,
    DivisibilityError,
    MAX_DECIMAL_EXPONENT,
    UnstructuredEnsemble,
    VnRegularEnsemble,
    cn_type_fractions,
    cns_per_edge,
    cns_per_edge_exact,
    degree_two_edge_fraction,
    design_rate,
    to_fraction,
    validate_finite_instance,
    weight_two_density,
)
from gldpc import polywef

TYPE_POOL = [
    CheckNodeType.spc(2),
    CheckNodeType.spc(3),
    CheckNodeType.spc(6),
    CheckNodeType.hamming(7),
    CheckNodeType.hamming(15),
]


@st.composite
def mixtures(draw):
    k = draw(st.integers(1, 4))
    types = draw(
        st.lists(st.sampled_from(TYPE_POOL), min_size=k, max_size=k, unique_by=id)
    )
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    total = sum(weights)
    return CnMixture.of(types, [Fraction(w, total) for w in weights])


class TestRationals:
    def test_decimal_string(self):
        assert to_fraction("0.05") == Fraction(1, 20)

    def test_ratio_string(self):
        assert to_fraction("3/7") == Fraction(3, 7)

    def test_float_goes_through_repr(self):
        assert to_fraction(0.1) == Fraction(1, 10)

    def test_decimal_exponent_cap_is_inclusive(self):
        cap = MAX_DECIMAL_EXPONENT
        assert to_fraction(f"1e-{cap}") == Fraction(1, 10**cap)
        assert to_fraction(f"1E+{cap}") == 10**cap
        for text in (f"1e-{cap + 1}", f"1e{cap + 1}", "1e1_001", "2.5e-9" + "9" * 5000):
            with pytest.raises(ValueError, match=f"cap of {cap}"):
                to_fraction(text)


class TestMixtureValidation:
    def test_rho_must_sum_to_one(self, spc3, ham7):
        with pytest.raises(ValueError, match="sum to 1"):
            CnMixture.of([spc3, ham7], ["1/2", "2/5"])

    def test_rho_positive(self, spc3, ham7):
        with pytest.raises(ValueError, match="positive"):
            CnMixture.of([spc3, ham7], [0, 1])

    def test_length_mismatch(self, spc3):
        with pytest.raises(ValueError, match="length"):
            CnMixture.of([spc3], ["1/2", "1/2"])

    def test_cn_type_needs_min_distance_two(self):
        with pytest.raises(ValueError, match="minimum distance"):
            CheckNodeType(s=2, parity=())  # the full space, minimum distance 1

    def test_parity_rank_deficient(self):
        with pytest.raises(ValueError, match="rank deficient"):
            CheckNodeType(s=3, parity=(0b111, 0b111))

    @pytest.mark.parametrize("row", [0b1111, 1 << 40, -1])
    def test_parity_row_outside_the_columns(self, row):
        # a row of width 4 used to fail in a numpy broadcast, and -1 in int.to_bytes
        with pytest.raises(ValueError, match=f"parity row {row} is not a bitmask over 3"):
            CheckNodeType(s=3, parity=(0b011, row))


class TestCnTypeWef:
    @pytest.mark.parametrize("build,s", [
        (CheckNodeType.spc, 6), (CheckNodeType.hamming, 15),
        (lambda s: CheckNodeType.explicit([0b1100, 0b0011, 0b1111], s), 4),
    ], ids=["spc", "hamming", "explicit"])
    def test_wef_derived_once_from_the_rows(self, monkeypatch, build, s):
        calls = []

        def counted(name, fn):
            return lambda *a: calls.append(name) or fn(*a)

        for name in ("wef_from_parity_matrix", "wef_spc", "wef_hamming"):
            monkeypatch.setattr(polywef, name, counted(name, getattr(polywef, name)))
        t = build(s)
        assert (t.s, t.k, t.r) == (t.wef.length, t.wef.dim, t.wef.min_dist)
        assert len(t.parity) == s - t.k  # explicit drops its dependent third row
        assert calls == ["wef_from_parity_matrix"]


class TestScalarParameters:
    def test_cns_per_edge_single(self, spc3_mixture):
        assert cns_per_edge(spc3_mixture) == pytest.approx(1 / 3)

    def test_cns_per_edge_pair(self, spc3, ham7):
        m = CnMixture.of([spc3, ham7], ["1/2", "1/2"])
        assert cns_per_edge_exact(m) == Fraction(5, 21)

    def test_type_fractions_single(self, spc3_mixture):
        assert cn_type_fractions(spc3_mixture) == (1.0,)

    def test_type_fractions_pair(self, spc3, ham7):
        m = CnMixture.of([spc3, ham7], [0.5, 0.5])
        assert cn_type_fractions(m) == pytest.approx((0.7, 0.3), abs=1e-14)

    @given(mixtures())
    @settings(max_examples=60, deadline=None)
    def test_fractions_sum_to_one(self, m):
        assert sum(cn_type_fractions(m)) == pytest.approx(1.0, abs=1e-12)

    @given(mixtures())
    @settings(max_examples=60, deadline=None)
    def test_rho_round_trip(self, m):
        # gamma_t * s_t * cns_per_edge reconstructs rho exactly
        total = cns_per_edge_exact(m)
        for t, rho_t, gamma_t in zip(
            m.types, m.rho, cn_type_fractions(m)
        ):
            assert gamma_t * t.s * float(total) == pytest.approx(
                float(rho_t), abs=1e-12
            )

    def test_weight_two_density_spc3(self, spc3_mixture):
        assert weight_two_density(spc3_mixture) == 2.0

    def test_weight_two_density_hamming_only(self, ham7):
        assert weight_two_density(CnMixture.of([ham7], [1])) == 0.0

    def test_weight_two_density_mixed(self, spc3, ham7):
        m = CnMixture.of([spc3, ham7], ["1/5", "4/5"])
        assert weight_two_density(m) == pytest.approx(0.4, abs=1e-15)

    def test_density_invariant_under_type_split(self, spc3, ham7):
        whole = CnMixture.of([spc3, ham7], ["1/2", "1/2"])
        split = CnMixture.of(
            [spc3, CheckNodeType.spc(3), ham7], ["1/4", "1/4", "1/2"]
        )
        assert weight_two_density(split) == pytest.approx(
            weight_two_density(whole), abs=1e-15
        )

    def test_design_rate_examples(self, spc6, ham15):
        e = VnRegularEnsemble(mixture=CnMixture.of([ham15], [1]), q=2)
        assert design_rate(e) == pytest.approx(7 / 15, abs=1e-15)
        wide = VnRegularEnsemble(
            mixture=CnMixture.of([CheckNodeType.hamming(63)], [1]), q=2
        )
        assert design_rate(wide) == pytest.approx(1 - 12 / 63, abs=1e-12)
        g36 = VnRegularEnsemble(mixture=CnMixture.of([spc6], [1]), q=3)
        assert design_rate(g36) == pytest.approx(0.5, abs=1e-15)

    def test_design_rate_matches_classic_ldpc(self, spc6):
        # all-SPC mixture with uniform s: R = 1 - q/s
        for q in (2, 3, 4):
            e = VnRegularEnsemble(mixture=CnMixture.of([spc6], [1]), q=q)
            assert design_rate(e) == pytest.approx(1 - q / 6, abs=1e-15)

    def test_degree_two_edge_fraction(self, spc3_mixture):
        assert degree_two_edge_fraction(
            UnstructuredEnsemble.of(spc3_mixture, {2: 1})
        ) == 1.0
        assert degree_two_edge_fraction(
            UnstructuredEnsemble.of(spc3_mixture, {3: 1})
        ) == 0.0
        assert degree_two_edge_fraction(
            UnstructuredEnsemble.of(spc3_mixture, {2: "1/10", 3: "9/10"})
        ) == pytest.approx(0.1)


class TestInstancePlanning:
    def test_vn_regular_minimal(self, spc3_mixture):
        plan = validate_finite_instance(
            VnRegularEnsemble(mixture=spc3_mixture, q=2), 3
        )
        assert (plan.edges, plan.cn_total) == (6, 2)
        assert plan.cn_counts == (2,)  # one CN per layer, two layers
        assert plan.vn_degree_counts == ((2, 3),)

    # one case per integrality rule; each ensemble is built from its fixtures
    @pytest.mark.parametrize("make,n,quantity,value,nearest", [
        pytest.param(lambda fx: VnRegularEnsemble(mixture=fx("spc3_mixture"), q=2), 4,
                     "per-layer count of type-0 CNs (n*rho_t/s_t)", "4/3", 6,
                     id="vn-regular-layer-cns"),
        pytest.param(lambda fx: fx("bound_mix_ensemble"), 148,
                     "edge count (n / int lambda)", "2960/7", 294, id="edges"),
        pytest.param(lambda fx: UnstructuredEnsemble.of(fx("spc3_mixture"),
                                                        {2: "1/3", 4: "2/3"}), 1,
                     "count of degree-2 VNs", "1/2", 2, id="degree-vns"),
        pytest.param(lambda fx: fx("alldeg2_spc3"), 4,
                     "count of type-0 CNs (E*rho_t/s_t)", "8/3", 6, id="type-cns"),
    ])
    def test_divisibility(self, request, make, n, quantity, value, nearest):
        with pytest.raises(DivisibilityError) as err:
            validate_finite_instance(make(request.getfixturevalue), n)
        assert str(err.value) == (f"divisibility violation: {quantity} = {value} is not "
                                  f"an integer; nearest feasible block length is {nearest}")
        assert (err.value.quantity, err.value.value, err.value.nearest_n) == (
            quantity, Fraction(value), nearest)
        validate_finite_instance(make(request.getfixturevalue), nearest)

    def test_unstructured_minimal(self, alldeg2_spc3):
        plan = validate_finite_instance(alldeg2_spc3, 3)
        assert (plan.edges, plan.cn_total) == (6, 2)
        assert plan.vn_degree_counts == ((2, 3),)

    @pytest.mark.parametrize("n", [147, 294, 441])
    def test_count_identities(self, bound_mix_ensemble, n):
        plan = validate_finite_instance(bound_mix_ensemble, n)
        types = bound_mix_ensemble.mixture.types
        assert sum(c * t.s for c, t in zip(plan.cn_counts, types)) == plan.edges
        assert sum(d * c for d, c in plan.vn_degree_counts) == plan.edges
        assert sum(c for _, c in plan.vn_degree_counts) == n

    def test_rejects_nonpositive_n(self, alldeg2_spc3):
        with pytest.raises(ValueError):
            validate_finite_instance(alldeg2_spc3, 0)
