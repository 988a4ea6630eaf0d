"""Admissibility decision procedure and witness splines."""
import numpy as np
import pytest

from kolmo import (
    DomainError,
    ExponentVector,
    Family,
    FunctionFamily,
    NormVector,
    NotBoundaryError,
    PinnedNodeCoincidenceError,
    Status,
    UnsupportedSystemError,
    boundary_spline,
    canonical_spline,
    decide_admissible,
    evaluate,
    extremal_family_member,
    interior_spline,
    matching_spline,
)
from kolmo.core import factorial_scale
from kolmo.kolmogorov import _check_witness
from kolmo.splines import IdealSpline, norms, random_member

MM2 = FunctionFamily(Family.MM, 2)
AM2 = FunctionFamily(Family.AM, 2)
K012 = ExponentVector((0, 1, 2), 2)


def _mm_tuple(m0):
    return NormVector((m0, 2.0, 2.0), K012, MM2)


class TestDecideThresholdLadder:
    # The single-knot spline with norms (1, 2, 2) marks the threshold.
    @pytest.mark.parametrize("m0", [0.5, 0.9, 0.99])
    def test_below_threshold_not_admissible(self, m0):
        assert decide_admissible(_mm_tuple(m0)).status is Status.NOT_ADMISSIBLE

    def test_threshold_is_boundary(self):
        result = decide_admissible(_mm_tuple(1.0))
        assert result.status is Status.ADMISSIBLE_BOUNDARY
        assert result.witness is not None

    @pytest.mark.parametrize("m0", [1.01, 1.5, 10.0])
    def test_above_threshold_interior(self, m0):
        result = decide_admissible(_mm_tuple(m0))
        assert result.status is Status.ADMISSIBLE_INTERIOR
        assert result.witness is not None

    def test_witness_reproduces_norms(self):
        M = _mm_tuple(1.5)
        result = decide_admissible(M)
        got = norms(result.witness, K012)
        for a, b in zip(got.values, M.values):
            assert a == pytest.approx(b, rel=1e-6)

    def test_trace_records_each_level(self):
        result = decide_admissible(_mm_tuple(1.5))
        assert len(result.trace) == 2
        assert result.trace[0].exponents == (1, 2)
        assert result.trace[-1].exponents == (0, 1, 2)

    def test_family_transport_preserves_status(self):
        for m0 in (0.9, 1.5):
            mm = _mm_tuple(m0)
            am = factorial_scale(mm)
            assert decide_admissible(am).status is decide_admissible(mm).status


class TestInteriorWitness:
    # Interior tuples whose witness search once raised: an odd count without
    # exponent 0 next to the boundary, whose canonical spline has its pinned
    # atom far out, and an even count whose weights span 14 decades.
    @pytest.mark.parametrize("r, k, values", [
        (8, (3, 4, 6, 7, 8), (3.6420559131614474, 6.306408597051427,
                              14.181348480821843, 12.29053577051052,
                              6.101511099586861)),
        (20, (3, 15, 17, 20), (352990474807.0876, 73074.8458116912,
                               1016.9642967596833, 1.6204598113195503)),
    ])
    def test_witness_reproduces_tuple(self, r, k, values):
        M = NormVector(values, ExponentVector(k, r), FunctionFamily(Family.MM, r))
        result = decide_admissible(M)
        assert result.status is Status.ADMISSIBLE_INTERIOR
        _check_witness(result.witness, M)


class TestExtendedPrecision:
    def test_close_nodes_need_extended_precision_residuals(self):
        # An AM tuple whose witness search raises NumericalFailureError when
        # the scaled residuals of representations._system are formed in
        # float64 instead of np.longdouble.  Its level (3, 4, 8, 9, 20) sits
        # within EQUALITY_BAND of equality, so the status is not pinned.
        k = ExponentVector((2, 3, 4, 8, 9, 20), 20)
        M = NormVector((777128150.8545218, 245600115.23815385, 77618365.65844025,
                        774298.7264258795, 244706.2670571239, 2.2286594438939105), k,
                       FunctionFamily(Family.AM, 20))
        result = decide_admissible(M)
        assert result.status is not Status.NOT_ADMISSIBLE
        got = norms(result.witness, k)
        assert got.values == pytest.approx(M.values, rel=1e-6)


class TestDecidePreconditions:
    def test_requires_kd_equal_r(self):
        k = ExponentVector((0, 1), 2)
        with pytest.raises(UnsupportedSystemError):
            decide_admissible(NormVector((1.0, 1.0), k, MM2))

    def test_rejects_nonpositive_norms(self):
        with pytest.raises(DomainError):
            decide_admissible(_mm_tuple(0.0))

    def test_two_norms_always_interior(self):
        k = ExponentVector((1, 2), 2)
        result = decide_admissible(NormVector((7.0, 0.3), k, MM2))
        assert result.status is Status.ADMISSIBLE_INTERIOR


class TestInteriorSpline:
    def test_even_count_required(self):
        with pytest.raises(DomainError):
            interior_spline(_mm_tuple(1.5))

    def test_matches_prescribed_norms(self):
        k = ExponentVector((1, 2), 2)
        M = NormVector((2.0, 2.0), k, MM2)
        phi = interior_spline(M)
        got = norms(phi, k)
        for a, b in zip(got.values, M.values):
            assert a == pytest.approx(b, rel=1e-9)


class TestBoundarySpline:
    def test_interior_tuple_is_not_boundary(self):
        with pytest.raises(NotBoundaryError):
            boundary_spline(_mm_tuple(1.5))

    def test_threshold_tuple_has_thin_witness(self):
        phi = boundary_spline(_mm_tuple(1.0))
        assert phi.knot_index.value <= 1.0
        got = norms(phi, K012)
        assert got.values == pytest.approx((1.0, 2.0, 2.0), rel=1e-8)

    def test_tuple_within_tol_of_threshold_has_thin_witness(self):
        M = _mm_tuple(1.0 + 1e-7)
        with pytest.raises(NotBoundaryError):
            boundary_spline(M)
        phi = boundary_spline(M, tol=1e-6)
        assert phi.knot_index.value <= 1.0
        assert norms(phi, K012).values == pytest.approx(M.values, rel=1e-6)


class TestCanonicalSpline:
    def test_odd_count_required(self):
        k = ExponentVector((1, 2), 2)
        with pytest.raises(DomainError):
            canonical_spline(NormVector((2.0, 2.0), k, MM2), 1.0)

    def test_prescribed_knot_present(self):
        # AM moments (2, 3, 5) with prescribed root 1 <-> knot a* = 1.
        M = NormVector((2.0, 3.0, 5.0), K012, AM2)
        phi = canonical_spline(M, 1.0)
        assert 1.0 in phi.knots
        got = norms(phi, K012)
        assert got.values == pytest.approx((2.0, 3.0, 5.0), rel=1e-8)

    def test_nonpositive_knot_rejected(self):
        M = NormVector((2.0, 3.0, 5.0), K012, AM2)
        with pytest.raises(DomainError):
            canonical_spline(M, -1.0)

    @pytest.mark.parametrize("a_star", [float("nan"), float("inf")])
    def test_non_finite_knot_rejected(self, a_star):
        # nan crashed with numpy's LinAlgError, and inf was reported as a
        # pin mass "must be positive, got 0.0".
        M = NormVector((2.0, 3.0, 5.0), K012, AM2)
        with pytest.raises(DomainError, match="prescribed knot"):
            canonical_spline(M, a_star)

    def test_knot_on_minimal_spline_knot_rejected(self):
        # AM moments (2, 3, 5) have principal root 5/3, i.e. the knot 0.6.
        M = NormVector((2.0, 3.0, 5.0), K012, AM2)
        with pytest.raises(PinnedNodeCoincidenceError, match="knot 0.6 "):
            canonical_spline(M, 0.6)


class TestCanonicalWitness:
    def test_odd_count_without_order_zero_is_pinned(self):
        # Interior, odd d, k_1 > 0: the witness is the canonical spline
        # through a prescribed knot.  Pinned so that a change in how the
        # solver reaches it cannot change which spline is returned.
        k = ExponentVector((1, 4, 5, 7, 8), 8)
        M = NormVector((3248846522.106419, 1548317.690191818, 102988.55247236633,
                        184.19256528925297, 3.7880919589268256), k,
                       FunctionFamily(Family.MM, 8))
        result = decide_admissible(M)
        assert result.status is Status.ADMISSIBLE_INTERIOR
        assert result.witness.knots == pytest.approx(
            (151.22202526077885, 57.24391225437299, 1.0), rel=1e-10)
        assert result.witness.weights == pytest.approx(
            (0.005498150903403648, 3.19285275096532, 0.5897410570580929), rel=1e-10)


class TestMatchingSpline:
    def test_even_count_required(self):
        with pytest.raises(DomainError):
            matching_spline(_mm_tuple(1.5))

    def test_reproduces_norms(self):
        k = ExponentVector((1, 2), 2)
        M = NormVector((2.0, 2.0), k, MM2)
        phi = matching_spline(M)
        got = norms(phi, k)
        for a, b in zip(got.values, M.values):
            assert a == pytest.approx(b, rel=1e-9)


class TestExtremalFamily:
    def test_knot_arity_enforced(self):
        k = ExponentVector((0, 1, 2, 3), 3)
        with pytest.raises(DomainError):
            extremal_family_member(
                FunctionFamily(Family.MM, 3), k, (1.0,), (1.0,)
            )

    def test_order_mismatch_rejected(self):
        with pytest.raises(DomainError):
            extremal_family_member(MM2, ExponentVector((0, 1, 3), 3), (1.0,), (1.0,))

    def test_even_d_nonzero_constant_warns(self):
        k = ExponentVector((0, 1), 2)
        with pytest.warns(UserWarning):
            extremal_family_member(MM2, k, (1.0,), (1.0,), constant=0.5)

    def test_member_norms_are_admissible(self):
        k = ExponentVector((0, 1, 2), 2)
        phi = extremal_family_member(MM2, k, (1.0,), (2.0,))
        M = norms(phi, k)
        assert decide_admissible(M).status is not Status.NOT_ADMISSIBLE

    def test_evaluate_on_member(self):
        k = ExponentVector((0, 1, 2), 2)
        phi = extremal_family_member(MM2, k, (1.0,), (2.0,))
        assert evaluate(phi, 0.0, 0) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def separated_tuples():
    """Perturbed random attainable tuples (criterion 5's draws, each norm
    times e^u, u uniform in [-0.3, 0.3]) whose recursion levels all compare
    norms at least 1e-4 apart, with their statuses."""
    rng = np.random.default_rng(11)
    cases = []
    while len(cases) < 60:
        d = int(rng.choice([3, 4, 5]))
        r = int(rng.integers(max(2, d - 1), 9))
        lower = sorted(int(v) for v in rng.choice(r, size=d - 1, replace=False))
        k = ExponentVector((*lower, r), r)
        family = FunctionFamily(Family(rng.choice(["am", "mm"])), r)
        x = random_member(family, d // 2, int(rng.integers(2 ** 31)))
        if not (d % 2 == 1 and lower[0] == 0):
            x = IdealSpline(family, x.knots, x.weights, 0.0)
        values = np.asarray(norms(x, k).values) * np.exp(rng.uniform(-0.3, 0.3, d))
        M = NormVector(tuple(values), k, family)
        result = decide_admissible(M)
        gaps = [abs(rec.lhs - rec.rhs) / max(rec.lhs, rec.rhs)
                for rec in result.trace if rec.lhs is not None]
        if min(gaps, default=1.0) >= 1e-4:
            cases.append((M, result.status, float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))))
    return cases


@pytest.mark.parametrize("transform", ["weight", "knot", "family"])
def test_status_invariant_under_symmetries(separated_tuples, transform):
    # M -> lam M is f -> lam f; M_k -> s^(r-k) M_k is f -> s^r f(x / s);
    # factorial_scale maps AM and MM onto each other.
    for M, status, log_lam, log_s in separated_tuples:
        r = M.family.r
        if transform == "weight":
            image = NormVector(tuple(10.0 ** log_lam * v for v in M.values), M.exponents, M.family)
        elif transform == "knot":
            image = NormVector(tuple(10.0 ** (log_s * (r - ki)) * v for v, ki in
                                     zip(M.values, M.exponents.exponents)), M.exponents, M.family)
        else:
            image = factorial_scale(M)
        assert decide_admissible(image).status is status, M
