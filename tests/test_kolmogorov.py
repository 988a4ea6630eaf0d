"""Admissibility decision procedure and witness splines."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kolmo import (
    DomainError,
    ExponentVector,
    Family,
    FunctionFamily,
    MomentVector,
    NormVector,
    NotAttainableError,
    NotBoundaryError,
    NumericalFailureError,
    PinnedNodeCoincidenceError,
    Status,
    UnsupportedSystemError,
    boundary_spline,
    canonical_spline,
    classify,
    decide_admissible,
    decide_status,
    evaluate,
    extremal_family_member,
    interior_spline,
    matching_spline,
    principal_representation,
)
from kolmo import kolmogorov, representations
from kolmo.core import factorial_scale, moment_coordinates, norms_from_moments
from kolmo.kolmogorov import _check_witness
from kolmo.representations import ACCEPT_TOL, Classification, ClassKind
from kolmo.splines import IdealSpline, norms, random_member, with_constant

MM2 = FunctionFamily(Family.MM, 2)
AM2 = FunctionFamily(Family.AM, 2)
K012 = ExponentVector((0, 1, 2), 2)


def _mm_tuple(m0):
    return NormVector((m0, 2.0, 2.0), K012, MM2)


# Interior tuples whose witness search once raised: an odd count without
# exponent 0 next to the boundary, whose canonical spline had its pinned atom
# far out, and an even count whose weights span 14 decades.
INTERIOR_WITNESS_CASES = [
    (8, (3, 4, 6, 7, 8), (3.6420559131614474, 6.306408597051427,
                          14.181348480821843, 12.29053577051052,
                          6.101511099586861)),
    (20, (3, 15, 17, 20), (352990474807.0876, 73074.8458116912,
                           1016.9642967596833, 1.6204598113195503)),
]

# Attainable tuples (decide-mixed seed 1, round 1 item 19 and round 2 item
# 27) that a band fixed at 1e-7 called not admissible at these tol.
LOOSE_TOL_CASES = [
    (Family.AM, (2, 3, 4, 8, 9, 20),
     (760258255.1602819, 240531355.50004354, 76099579.2575742,
      762473.6344877689, 241232.6118614608, 2.228648874737896), 1e-4),
    (Family.MM, (2, 3, 4, 5, 7, 10, 20),
     (1.5861048219079463e-18, 3.5691876378586036e-17, 7.585483902934727e-16,
      1.5172888396407872e-14, 4.97986466072505e-12, 1.66966811771773e-08,
      6.439952492562571), 1e-6),
]


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
    @pytest.mark.parametrize("r, k, values", INTERIOR_WITNESS_CASES)
    def test_witness_reproduces_tuple(self, r, k, values):
        M = NormVector(values, ExponentVector(k, r), FunctionFamily(Family.MM, r))
        result = decide_admissible(M)
        assert result.status is Status.ADMISSIBLE_INTERIOR
        _check_witness(result.witness, M, ACCEPT_TOL)


class TestExtendedPrecision:
    def test_close_nodes_need_extended_precision_residuals(self):
        # An AM tuple whose witness search raises NumericalFailureError when
        # the scaled residuals of representations._system are formed in
        # float64 instead of np.longdouble.  Its level (3, 4, 8, 9, 20) sits
        # within the 10*tol equality band, so the status is not pinned.
        k = ExponentVector((2, 3, 4, 8, 9, 20), 20)
        M = NormVector((777128150.8545218, 245600115.23815385, 77618365.65844025,
                        774298.7264258795, 244706.2670571239, 2.2286594438939105), k,
                       FunctionFamily(Family.AM, 20))
        result = decide_admissible(M)
        assert result.status is not Status.NOT_ADMISSIBLE
        got = norms(result.witness, k)
        assert got.values == pytest.approx(M.values, rel=1e-6)


class TestEqualityRule:
    # Two norms are equal within 10*tol relative to the larger, so a looser
    # tol widens the band with the comparison spline's own accuracy.
    @pytest.mark.parametrize("family, k, values, tol", LOOSE_TOL_CASES)
    def test_attainable_tuple_at_loose_tol(self, family, k, values, tol):
        M = NormVector(values, ExponentVector(k, 20), FunctionFamily(family, 20))
        result = decide_admissible(M, tol=tol)
        assert result.status is Status.ADMISSIBLE_BOUNDARY
        _check_witness(result.witness, M, tol)

    @pytest.mark.parametrize("constant", [0.0, 0.5, 5.0])
    def test_constant_over_boundary_sublevel(self, constant):
        # k_1 = 0 over a boundary sublevel: the one-knot spline's norms are
        # on the boundary, and any excess in M_0 is a constant.
        k = ExponentVector((0, 1, 2, 3), 3)
        spline = IdealSpline(FunctionFamily(Family.MM, 3), (1.0,), (2.0,), constant)
        result = decide_admissible(norms(spline, k))
        assert result.trace[-2].classification == "admissible_boundary"
        assert result.status is Status.ADMISSIBLE_BOUNDARY

    @pytest.mark.parametrize("scale, status", [
        (1.0, Status.ADMISSIBLE_BOUNDARY),
        (1.5, Status.NOT_ADMISSIBLE),
        (0.5, Status.NOT_ADMISSIBLE),
    ])
    def test_excess_over_boundary_sublevel_without_exponent_zero(self, scale, status):
        # k_1 > 0 over a boundary sublevel: no constant carries a norm, so
        # only the boundary value of M_1 is attained, and more is as wrong as less.
        k = ExponentVector((1, 2, 3, 4), 4)
        M = norms(IdealSpline(FunctionFamily(Family.MM, 4), (1.0,), (2.0,)), k)
        M = NormVector((scale * M.values[0], *M.values[1:]), k, M.family)
        verdict, trace = decide_status(M)
        assert verdict is status
        assert [rec.classification for rec in trace] == [
            "interior (base case)", "admissible_boundary", status.value]

    def test_witness_check_uses_the_band(self):
        M = _mm_tuple(1.5)
        witness = decide_admissible(M).witness
        off = NormVector((1.5 * (1 + 5e-7), 2.0, 2.0), K012, MM2)
        _check_witness(witness, off, 1e-7)
        with pytest.raises(NumericalFailureError):
            _check_witness(witness, off, 1e-8)


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


def _fixed_tuples():
    """(M, tol) for the fixed tuples of this module."""
    cases = [(_mm_tuple(m0), ACCEPT_TOL) for m0 in (0.5, 0.9, 0.99, 1.0, 1.01, 1.5, 10.0)]
    cases += [(NormVector(values, ExponentVector(k, r), FunctionFamily(Family.MM, r)),
               ACCEPT_TOL) for r, k, values in INTERIOR_WITNESS_CASES]
    cases += [(NormVector(values, ExponentVector(k, 20), FunctionFamily(family, 20)), tol)
              for family, k, values, tol in LOOSE_TOL_CASES]
    return cases


def _assert_status_matches(M, tol):
    # Fresh comparison solves on both sides, then cached ones: all agree to the bit.
    matching_spline.cache_clear()
    fresh = decide_status(M, tol)
    matching_spline.cache_clear()
    result = decide_admissible(M, tol)
    assert fresh == (result.status, result.trace), M
    assert decide_status(M, tol) == fresh, M


class TestDecideStatus:
    def test_matches_decide_admissible_on_fixed_tuples(self):
        for M, tol in _fixed_tuples():
            _assert_status_matches(M, tol)

    def test_matches_decide_admissible_on_random_tuples(self, separated_tuples):
        for M, *_ in separated_tuples:
            _assert_status_matches(M, ACCEPT_TOL)

    @pytest.mark.parametrize("tols", [(1e-8, 1e-7), (1e-7, 1e-8)])
    def test_cached_comparison_is_keyed_by_tol(self, tols):
        # 5e-7 above the threshold M_0 = 1: outside the band 10*tol at 1e-8,
        # inside it at 1e-7.
        want = {1e-8: Status.ADMISSIBLE_INTERIOR, 1e-7: Status.ADMISSIBLE_BOUNDARY}
        matching_spline.cache_clear()
        for tol in tols:
            assert decide_status(_mm_tuple(1 + 5e-7), tol)[0] is want[tol]

    def test_comparison_is_solved_once(self, monkeypatch):
        calls = []

        def counted(c, tol):
            calls.append(c)
            return classify(c, tol)

        monkeypatch.setattr(kolmogorov, "classify", counted)
        matching_spline.cache_clear()
        for m0 in (0.5, 1.5):
            decide_status(_mm_tuple(m0))
        assert len(calls) == 1

    def test_failed_comparison_is_not_cached(self, monkeypatch):
        calls = []

        def failing(c, tol):
            calls.append(c)
            raise NumericalFailureError("comparison solve failed")

        monkeypatch.setattr(kolmogorov, "classify", failing)
        matching_spline.cache_clear()
        for _ in range(2):
            with pytest.raises(NumericalFailureError):
                decide_status(_mm_tuple(1.5))
        assert len(calls) == 2

    def test_unattained_comparison_is_a_numerical_failure(self):
        # An attainable AM r = 20 tuple (decide-mixed seed 1, round 0 item 43)
        # whose comparison solve found no spline at tol = 1e-10.  A sub-tuple
        # of an admissible sublevel is attained, so that is no NotAttainableError.
        M = NormVector((198596.94304683234, 25314.492439627684, 12739.961407719164,
                        817.266440158141, 104.17423755342784, 52.42750868133982,
                        5.773046500548197),
                       ExponentVector((3, 6, 7, 11, 14, 15, 20), 20), FunctionFamily(Family.AM, 20))
        matching_spline.cache_clear()
        try:
            status, _ = decide_status(M, 1e-10)
        except NumericalFailureError:
            return
        assert isinstance(status, Status)

    @pytest.mark.parametrize("values", [
        (198596.94304683234, 25314.492439627684, 12739.961407719164, 817.266440158141,
         104.17423755342784, 52.42750868133982, 5.773046500548197),
        (188879.12899432916, 24287.635177130825, 12258.92300106325, 795.6474277817622,
         102.31090412261896, 51.64033025279883, 5.76670861034635),
        (192379.0321171523, 24658.907109989766, 12433.09315738888, 803.5273062720015,
         102.99513927990246, 51.93045099563653, 5.768517443940728),
    ], ids=["seed1", "seed2", "seed3"])
    def test_item43_decides_at_tol_1e_10(self, values):
        # decide-mixed round 0 item 43: its comparison sub-tuple k = (7,11,14,15)
        # was EXTERIOR at tol = 1e-10 on the tracked path, and the decision raised.
        M = NormVector(values, ExponentVector((3, 6, 7, 11, 14, 15, 20), 20),
                       FunctionFamily(Family.AM, 20))
        matching_spline.cache_clear()
        assert decide_status(M, 1e-10)[0] is Status.ADMISSIBLE_BOUNDARY


class TestDecideStatusAgreesWithClassify:
    """Where classify finds a witness within tol, decide_status must not say
    not_admissible (ROADMAP item 10: one verdict for both).  Both tuples
    read not_admissible while classify of their moments says INTERIOR."""

    STATUS_OF = {ClassKind.INTERIOR: Status.ADMISSIBLE_INTERIOR,
                 ClassKind.BOUNDARY: Status.ADMISSIBLE_BOUNDARY,
                 ClassKind.EXTERIOR: Status.NOT_ADMISSIBLE}

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10: "
                       "decide_status says not_admissible where classify finds a witness")
    @pytest.mark.parametrize("M", [
        # The moments of atoms (0.1000349923844542, 1.0741015374176726) and
        # (25.809309104196263, 1.1023823673269733) as AM r = 8 norms: the
        # sublevel (4,6,8) reads boundary, and the top level's excess over
        # k_1 = 2 then says not_admissible.
        NormVector((734.3301721769013, 489145.17506812094, 325829597.4252677,
                    217041753640.6679), ExponentVector((2, 4, 6, 8), 8), FunctionFamily(Family.AM, 8)),
        # classify finds an atom near 0 carrying c_1's excess, within 1e-10.
        NormVector((2.0, 1.0, 1.0, 1.0), ExponentVector((1, 2, 3, 4), 4), FunctionFamily(Family.AM, 4)),
    ], ids=["k2468", "k1234"])
    def test_status_is_classify_kind(self, M):
        matching_spline.cache_clear()
        assert decide_status(M)[0] is self.STATUS_OF[classify(moment_coordinates(M)).kind]


def _thin_boundary_tuple(kind, r, k, seed):
    """Norms of a random member with floor(d/2) knots and no constant."""
    family = FunctionFamily(kind, r)
    x = random_member(family, len(k) // 2, seed)
    return norms(IdealSpline(family, x.knots, x.weights), ExponentVector(k, r))


class TestBoundaryWitnessFromRecursion:
    # An odd-count tuple whose top level compares equal has the top
    # comparison spline as its witness: no classify on the whole tuple.
    @pytest.mark.parametrize("M", [
        _mm_tuple(1.0),
        _thin_boundary_tuple(Family.AM, 8, (1, 2, 4, 6, 8), 0),
        _thin_boundary_tuple(Family.MM, 20, (0, 3, 6, 9, 12, 16, 20), 1),
    ], ids=["readme", "d5", "d7"])
    def test_witness_is_the_top_comparison_spline(self, M, monkeypatch):
        solve = kolmogorov.classify

        def even_only(c, tol):
            if c.exponents.d % 2:
                raise AssertionError(f"classify on the odd tuple {c.exponents}")
            return solve(c, tol)

        monkeypatch.setattr(kolmogorov, "classify", even_only)
        matching_spline.cache_clear()
        result = decide_admissible(M)
        assert result.status is Status.ADMISSIBLE_BOUNDARY
        assert result.witness == matching_spline(M.drop_first())
        assert result.witness.knot_index.twice < M.d


def _constant_tuple(kind, r, k, knot_count, seed):
    """Norms of a random member with ``knot_count`` knots and a constant as
    large as their own M_0 (k_1 = 0)."""
    family = FunctionFamily(kind, r)
    x = random_member(family, knot_count, seed)
    M = norms(IdealSpline(family, x.knots, x.weights), ExponentVector(k, r))
    return norms(IdealSpline(family, x.knots, x.weights, M.values[0]), M.exponents)


class TestConstantWitnessFromRecursion:
    # An odd-count tuple with k_1 = 0 above its top comparison has that
    # level's comparison spline plus the excess of M_0 as its witness: no
    # classify on the whole tuple.
    @pytest.mark.parametrize("M, status", [
        (_mm_tuple(1.5), Status.ADMISSIBLE_INTERIOR),
        (_constant_tuple(Family.AM, 8, (0, 2, 4, 6, 8), 2, 0), Status.ADMISSIBLE_INTERIOR),
        (_constant_tuple(Family.MM, 8, (0, 1, 2, 4, 5, 6, 8), 3, 0), Status.ADMISSIBLE_INTERIOR),
        # Over a boundary sublevel: one knot for four norms.
        (_constant_tuple(Family.MM, 8, (0, 2, 4, 6, 8), 1, 2), Status.ADMISSIBLE_BOUNDARY),
    ], ids=["readme", "d5", "d7", "d5-boundary-sublevel"])
    def test_witness_is_the_comparison_spline_plus_a_constant(self, M, status, monkeypatch):
        solve = kolmogorov.classify

        def not_odd_from_zero(c, tol):
            if c.exponents.d % 2 and c.exponents.exponents[0] == 0:
                raise AssertionError(f"classify on the odd tuple {c.exponents}")
            return solve(c, tol)

        monkeypatch.setattr(kolmogorov, "classify", not_odd_from_zero)
        matching_spline.cache_clear()
        result = decide_admissible(M)
        top = result.trace[-1]
        assert result.status is status
        assert result.witness == with_constant(matching_spline(M.drop_first()), top.lhs - top.rhs)
        knots = (M.d - 1) // 2 if status is Status.ADMISSIBLE_INTERIOR else 1
        assert len(result.witness.knots) == knots and result.witness.constant > 0


def _scaled_top(kind, r, k, knots, weights, factor):
    """Norms of a spline with (d-2)/2 knots, M_r multiplied by ``factor``."""
    family = FunctionFamily(kind, r)
    M = norms(IdealSpline(family, knots, weights), ExponentVector(k, r))
    return NormVector((*M.values[:-1], factor * M.values[-1]), M.exponents, family)


# AM and MM, d = 4 and 6, k_1 = 0 and k_1 > 0: (kind, r, k, knots, weights).
EVEN_THIN_CASES = [
    (Family.AM, 8, (0, 2, 5, 8), (1.5,), (2.0,)),
    (Family.MM, 8, (0, 3, 5, 8), (2.0,), (3.0,)),
    (Family.AM, 8, (1, 3, 4, 6, 7, 8), (2.5, 0.5), (1.0, 3.0)),
    (Family.MM, 8, (1, 2, 4, 5, 7, 8), (3.0, 0.4), (2.0, 1.0)),
]
EVEN_THIN_IDS = ["am-d4", "mm-d4", "am-d6", "mm-d6"]


def _decide_without_whole_tuple_solve(M, monkeypatch):
    """decide_admissible(M) with classify raising on M's own exponents."""
    solve = kolmogorov.classify

    def sub_tuples_only(c, tol):
        if c.exponents.exponents == M.exponents.exponents:
            raise AssertionError(f"classify on the whole tuple {c.exponents}")
        return solve(c, tol)

    monkeypatch.setattr(kolmogorov, "classify", sub_tuples_only)
    matching_spline.cache_clear()
    return decide_admissible(M)


class TestEvenBoundaryWitnessFromCache:
    # An even-count tuple whose top level compares equal takes its witness
    # from the recursion's cached splines: no classify on the whole tuple.
    @pytest.mark.parametrize("kind, r, k, knots, weights", EVEN_THIN_CASES, ids=EVEN_THIN_IDS)
    def test_thin_tuple_takes_the_sublevel_spline(self, kind, r, k, knots, weights, monkeypatch):
        M = _scaled_top(kind, r, k, knots, weights, 1.0)
        result = _decide_without_whole_tuple_solve(M, monkeypatch)
        assert result.status is Status.ADMISSIBLE_BOUNDARY
        assert result.witness == matching_spline(M.drop_first().drop_first())
        assert result.witness.knot_index.twice < M.d
        assert result.witness.knots == pytest.approx(knots, rel=1e-9)

    @pytest.mark.parametrize("factor", [1.5, 3.0])
    @pytest.mark.parametrize("kind, r, k, knots, weights", EVEN_THIN_CASES, ids=EVEN_THIN_IDS)
    def test_excess_of_the_top_norm_is_a_far_knot(self, kind, r, k, knots, weights, factor,
                                                  monkeypatch):
        M = _scaled_top(kind, r, k, knots, weights, factor)
        result = _decide_without_whole_tuple_solve(M, monkeypatch)
        top = matching_spline(M.drop_first_and_last())
        excess = M.values[-1] - evaluate(top, 0.0, r)
        assert result.status is Status.ADMISSIBLE_BOUNDARY
        assert result.witness.knots[:-1] == top.knots
        assert result.witness.weights == (*top.weights, excess)
        assert 0 < result.witness.knots[-1] < top.knots[-1]
        # S is the spline the norms came from, so the excess is the added M_r
        # (1.0 and 4.0 for the AM d = 4 case).
        assert excess == pytest.approx((factor - 1) / factor * M.values[-1], rel=1e-9)
        # The far knot's share of each lower moment coordinate stays below
        # FAR_KNOT_SHARE * tol.
        far = IdealSpline(M.family, result.witness.knots[-1:], (excess,))
        share = moment_coordinates(norms(far, M.exponents)).values
        for got, c in zip(share[:-1], moment_coordinates(M).values):
            assert got <= representations.FAR_KNOT_SHARE * ACCEPT_TOL * c * (1 + 1e-9)
        _check_witness(result.witness, M, ACCEPT_TOL)

    def test_unit_norms_with_doubled_top(self, monkeypatch):
        # AM r = 3 from the knot 1 of weight 1, with M_3 doubled: the excess
        # 1 sits on a knot near 0.
        k = ExponentVector((0, 1, 2, 3), 3)
        M = NormVector((1.0, 1.0, 1.0, 2.0), k, FunctionFamily(Family.AM, 3))
        result = _decide_without_whole_tuple_solve(M, monkeypatch)
        assert result.status is Status.ADMISSIBLE_BOUNDARY
        (a1, a2), weights = result.witness.knots, result.witness.weights
        assert a1 == pytest.approx(1.0, abs=1e-12) and a2 < 1e-6
        assert weights == pytest.approx((1.0, 1.0), abs=1e-12)
        assert result.witness.constant == 0


class TestEvenBoundaryWitnessFails:
    # An even-count boundary tuple whose top spline S plus the excess of M_r
    # is no spline raises a typed error; no solve of the whole tuple runs.
    def test_far_knot_not_below_the_top_spline(self, monkeypatch):
        # A share so large that the placed knot would not fall below the
        # top comparison spline's knots.
        monkeypatch.setattr(representations, "FAR_KNOT_SHARE", 1e12)
        matching_spline.cache_clear()
        M = _scaled_top(*EVEN_THIN_CASES[0], 1.5)
        assert decide_status(M)[0] is Status.ADMISSIBLE_BOUNDARY
        with pytest.raises(NumericalFailureError, match="far knot"):
            decide_admissible(M)

    def test_top_norm_below_the_top_spline(self, monkeypatch):
        # M_r below S's r-norm beyond the band: no excess to carry.
        calls = []
        solve = kolmogorov.classify

        def recorded(c, tol):
            calls.append(c.exponents.exponents)
            return solve(c, tol)

        monkeypatch.setattr(kolmogorov, "classify", recorded)
        matching_spline.cache_clear()
        M = _scaled_top(*EVEN_THIN_CASES[0], 0.5)
        top = matching_spline(M.drop_first_and_last())
        with pytest.raises(NumericalFailureError, match="below"):
            kolmogorov._excess_witness(top, M, -1, ACCEPT_TOL)
        assert M.exponents.exponents not in calls


# decide-mixed seed 1, round 4 items 35, 32 and 36: even-count boundary
# tuples whose witness solve on the whole tuple raised.  (family, r, k, M, tol)
EVEN_BOUNDARY_REPRODUCERS = [
    (Family.MM, 20, (0, 3, 4, 17, 19, 20),
     (8.111450114929386e-08, 1.3860436201005378e-05, 6.888107522642698e-05,
      27.348508302866883, 14.20552269800963, 9.802072607280184), ACCEPT_TOL),
    (Family.AM, 20, (0, 5, 7, 14, 17, 20),
     (7.665340599442889e+21, 3.6460393901456264e+16, 270855286198999.38,
      9570688.38220821, 6128.191547625917, 10.073633053174396), 1e-10),
    (Family.AM, 20, (0, 2, 11, 16, 17, 18, 19, 20),
     (7.312033130727479e+36, 1.1957669765990175e+33, 1.0936754972676754e+16,
      3978443.8786735297, 65586.93802239657, 1935.4914464726642,
      106.5744525104876, 10.3219601790929), 1e-10),
]


class TestEvenBoundaryReproducers:
    @pytest.mark.parametrize("kind, r, k, values, tol", EVEN_BOUNDARY_REPRODUCERS,
                             ids=["item35", "item32-tol1e-10", "item36-tol1e-10"])
    def test_decides_with_a_witness(self, kind, r, k, values, tol):
        M = NormVector(values, ExponentVector(k, r), FunctionFamily(kind, r))
        result = decide_admissible(M, tol)
        assert result.status is Status.ADMISSIBLE_BOUNDARY
        _check_witness(result.witness, M, tol)


class TestWitnessSolveFails:
    # An admissible verdict whose witness solve finds no spline is a
    # numerical failure, not a verdict on the tuple.
    @pytest.mark.parametrize("M", [
        _thin_boundary_tuple(Family.AM, 8, (1, 3, 5, 8), 0),
    ], ids=["even"])
    def test_numerical_failure(self, M, monkeypatch):
        solve = kolmogorov.classify

        def whole_tuple_exterior(c, tol):
            if c.exponents.d == M.d:
                return Classification(ClassKind.EXTERIOR)
            return solve(c, tol)

        monkeypatch.setattr(kolmogorov, "classify", whole_tuple_exterior)
        matching_spline.cache_clear()
        assert decide_status(M)[0] is Status.ADMISSIBLE_INTERIOR
        with pytest.raises(NumericalFailureError, match="no spline realized the admissible tuple"):
            decide_admissible(M)


# AM r = 20, k = (1, 2, 20): M_1 far above the comparison spline's, whose
# far knot then sits near 1e15 (M_1 = 1e-25, weight about 1e-310, subnormal)
# or near 1e20 (M_1 = 1e-20, weight about 1e-400, below the float range).
K_FAR = ExponentVector((1, 2, 20), 20)
AM20 = FunctionFamily(Family.AM, 20)


class TestOddFarKnotFloatRange:
    def test_weight_below_the_float_range_is_a_numerical_failure(self):
        M = NormVector((1e-20, 1e-30, 1.0), K_FAR, AM20)
        assert decide_status(M)[0] is Status.ADMISSIBLE_INTERIOR
        with pytest.raises(NumericalFailureError, match="far knot"):
            decide_admissible(M)

    def test_subnormal_weight_decides(self):
        M = NormVector((1e-25, 1e-30, 1.0), K_FAR, AM20)
        result = decide_admissible(M)
        assert result.status is Status.ADMISSIBLE_INTERIOR
        assert result.witness.knots[0] == pytest.approx(1e15, rel=1e-6)
        assert 0 < result.witness.weights[0] < 2.3e-308
        _check_witness(result.witness, M, ACCEPT_TOL)


class TestPairsWithoutSolver:
    # One atom attains a positive pair, in closed form: no structure solve runs
    # for a pair, nor for a decision whose comparisons are all pairs (d <= 4).
    @pytest.fixture(autouse=True)
    def no_solver(self, monkeypatch):
        def solver(*args):
            raise AssertionError("a structure solve ran")

        monkeypatch.setattr(representations, "_Problem", solver)
        monkeypatch.setattr(representations, "_correct", solver)
        matching_spline.cache_clear()

    @pytest.mark.parametrize("k, c", [((0, 3), (2.0, 16.0)), ((5, 20), (1e-150, 1e150))])
    def test_moments(self, k, c):
        c = MomentVector(c, ExponentVector(k, 20))
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR and len(result.witness) == 1
        assert principal_representation(c) == result.witness

    @pytest.mark.parametrize("family", [MM2, AM2])
    def test_matching_spline(self, family):
        M = NormVector((2.0, 2.0), ExponentVector((1, 2), 2), family)
        assert norms(matching_spline(M), M.exponents).values == pytest.approx(M.values, rel=1e-12)

    @pytest.mark.parametrize("M, status", [
        (_mm_tuple(1.5), Status.ADMISSIBLE_INTERIOR),
        (_thin_boundary_tuple(Family.AM, 8, (1, 3, 5, 8), 0), Status.ADMISSIBLE_INTERIOR),
    ], ids=["d3", "d4"])
    def test_decide_status(self, M, status):
        assert decide_status(M)[0] is status


# k = (a, b, c) with k_d = r: the one atom matching (c_b, c_c) has
# c_a = c_b^((c-a)/(c-b)) * c_c^((a-b)/(c-b)), the Lyapunov bound on c_a.
LYAPUNOV_CASES = [(2, (0, 1, 2)), (8, (0, 3, 8)), (8, (2, 5, 8)),
                  (20, (0, 7, 20)), (20, (4, 13, 20))]


class TestThreeNormsExact:
    @staticmethod
    def _tuple(kind, r, k, scale):
        family = FunctionFamily(kind, r)
        kv = ExponentVector(k, r)
        a, b, c = k
        c_b, c_c = moment_coordinates(NormVector((1.0, 3.0, 0.7), kv, family)).values[1:]
        c_a = c_b ** ((c - a) / (c - b)) * c_c ** ((a - b) / (c - b))
        M = norms_from_moments(MomentVector((c_a, c_b, c_c), kv), family)
        return NormVector((scale * M.values[0], *M.values[1:]), kv, family)

    @pytest.mark.parametrize("kind", [Family.AM, Family.MM])
    @pytest.mark.parametrize("r, k", LYAPUNOV_CASES)
    def test_closed_form_is_boundary(self, kind, r, k):
        M = self._tuple(kind, r, k, 1.0)
        result = decide_admissible(M)
        assert result.status is Status.ADMISSIBLE_BOUNDARY
        assert result.witness.knot_index.twice == 2
        assert evaluate(result.witness, 0.0, k[0]) == pytest.approx(M.values[0], rel=1e-12)

    @pytest.mark.parametrize("kind", [Family.AM, Family.MM])
    @pytest.mark.parametrize("r, k", LYAPUNOV_CASES)
    @pytest.mark.parametrize("scale, status", [
        (1 + 1e-3, Status.ADMISSIBLE_INTERIOR),
        (1 - 1e-3, Status.NOT_ADMISSIBLE),
    ])
    def test_off_the_closed_form(self, kind, r, k, scale, status):
        assert decide_admissible(self._tuple(kind, r, k, scale)).status is status


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


# Admissible odd counts built from a spline with (d-1)/2 knots, AM and MM,
# d = 3 and 5, k_1 = 0 and k_1 > 0: (kind, r, k, knots, weights).
ODD_CASES = [
    (Family.AM, 8, (0, 3, 8), (1.5,), (2.0,)),
    (Family.MM, 8, (2, 5, 8), (2.0,), (3.0,)),
    (Family.AM, 8, (1, 3, 4, 7, 8), (2.5, 0.5), (1.0, 3.0)),
    (Family.MM, 8, (0, 2, 4, 5, 8), (3.0, 0.4), (2.0, 1.0)),
]
ODD_IDS = ["am-d3-k1=0", "mm-d3", "am-d5", "mm-d5-k1=0"]


def _scaled_first(kind, r, k, knots, weights, factor):
    """Norms of a spline with (d-1)/2 knots, M_{k_1} multiplied by ``factor``."""
    family = FunctionFamily(kind, r)
    M = norms(IdealSpline(family, knots, weights), ExponentVector(k, r))
    return NormVector((factor * M.values[0], *M.values[1:]), M.exponents, family)


class TestOddWitness:
    # An odd count's witness is its top comparison spline S, S plus a
    # constant (k_1 = 0) or S plus a far knot above S's knots (k_1 > 0).
    # classify never runs on the odd tuple itself.
    @pytest.mark.parametrize("factor", [1.0, 1.5])
    @pytest.mark.parametrize("kind, r, k, knots, weights", ODD_CASES, ids=ODD_IDS)
    def test_no_classify_on_the_odd_tuple(self, kind, r, k, knots, weights, factor,
                                          monkeypatch):
        M = _scaled_first(kind, r, k, knots, weights, factor)
        solve = kolmogorov.classify

        def even_only(c, tol):
            assert c.d % 2 == 0, f"classify on the odd tuple {c.exponents}"
            return solve(c, tol)

        monkeypatch.setattr(kolmogorov, "classify", even_only)
        matching_spline.cache_clear()
        result = decide_admissible(M)
        S = matching_spline(M.drop_first())
        if factor == 1.0:
            assert result.status is Status.ADMISSIBLE_BOUNDARY
            assert result.witness == S
        elif k[0] == 0:
            assert result.status is Status.ADMISSIBLE_INTERIOR
            assert result.witness == with_constant(S, M.values[0] - evaluate(S, 0.0, 0))
        else:
            assert result.status is Status.ADMISSIBLE_INTERIOR
            assert result.witness.knots[1:] == S.knots and result.witness.weights[1:] == S.weights
            assert result.witness.knots[0] > S.knots[0]

    @pytest.mark.parametrize("kind", [Family.AM, Family.MM])
    def test_single_norm_without_classify(self, kind, monkeypatch):
        # d = 1: the empty comparison spline plus the far knot 1 of weight M_r.
        monkeypatch.setattr(kolmogorov, "classify", None)
        M = NormVector((3.0,), ExponentVector((5,), 5), FunctionFamily(kind, 5))
        result = decide_admissible(M)
        assert result.status is Status.ADMISSIBLE_INTERIOR
        assert (result.witness.knots, result.witness.weights) == ((1.0,), (3.0,))

    @pytest.mark.parametrize("kind, r, k, knots, weights", [
        case for case in ODD_CASES if case[2][0] > 0], ids=["mm-d3", "am-d5"])
    def test_far_knot_share(self, kind, r, k, knots, weights):
        # The far knot's share of each other moment coordinate is at most
        # FAR_KNOT_SHARE * tol of it.
        M = _scaled_first(kind, r, k, knots, weights, 1.5)
        witness = decide_admissible(M).witness
        far = IdealSpline(M.family, witness.knots[:1], witness.weights[:1])
        share = moment_coordinates(norms(far, M.exponents)).values
        c = moment_coordinates(M).values
        excess = c[0] - moment_coordinates(norms(matching_spline(M.drop_first()), M.exponents)).values[0]
        assert share[0] == pytest.approx(excess, rel=1e-12)
        for got, want in zip(share[1:], c[1:]):
            assert got <= representations.FAR_KNOT_SHARE * ACCEPT_TOL * want * (1 + 1e-9)


class TestOddFarKnotWitness:
    def test_odd_count_without_order_zero_is_pinned(self):
        # Interior, odd d, k_1 > 0: the witness is the top comparison spline
        # plus a far knot.  Pinned so that a change in how the witness is
        # built cannot change which spline is returned.
        k = ExponentVector((1, 4, 5, 7, 8), 8)
        M = NormVector((3248846522.106419, 1548317.690191818, 102988.55247236633,
                        184.19256528925297, 3.7880919589268256), k,
                       FunctionFamily(Family.MM, 8))
        result = decide_admissible(M)
        assert result.status is Status.ADMISSIBLE_INTERIOR
        assert result.witness.knots == pytest.approx(
            (130122.62212023983, 60.43282884104172, 16.01420106240715), rel=1e-10)
        assert result.witness.weights == pytest.approx(
            (1.2961644104697611e-23, 2.781024655505651, 1.0070673034211712), rel=1e-10)


class TestMatchingSpline:
    def test_even_count_required(self):
        with pytest.raises(DomainError):
            matching_spline(_mm_tuple(1.5))

    def test_exterior_tuple_is_not_attainable(self):
        # c_1^2 > c_0 c_2: outside the moment cone.
        c = MomentVector((1.0, 1.0, 0.5, 1.0), ExponentVector((0, 1, 2, 3), 3))
        with pytest.raises(NotAttainableError):
            matching_spline(norms_from_moments(c, FunctionFamily(Family.AM, 3)))

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


def _image(M, transform, log_lam, log_s):
    # M -> lam M is f -> lam f; M_k -> s^(r-k) M_k is f -> s^r f(x / s);
    # factorial_scale maps AM and MM onto each other.
    r = M.family.r
    if transform == "weight":
        return NormVector(tuple(10.0 ** log_lam * v for v in M.values), M.exponents, M.family)
    if transform == "knot":
        return NormVector(tuple(10.0 ** (log_s * (r - ki)) * v for v, ki in
                                zip(M.values, M.exponents.exponents)), M.exponents, M.family)
    return factorial_scale(M)


@pytest.mark.parametrize("transform", ["weight", "knot", "family"])
def test_status_invariant_under_symmetries(separated_tuples, transform):
    for M, status, log_lam, log_s in separated_tuples:
        image = _image(M, transform, log_lam, log_s)
        assert decide_admissible(image).status is status, M


@st.composite
def _separated_draws(draw):
    """A tuple drawn as the norms of a spline with floor(d/2) knots, each
    times e^u with u in [-0.3, 0.3] (d <= 5, r in {2, 8}), kept when its
    recursion levels all compare norms at least 1e-4 apart; with its status."""
    r = draw(st.sampled_from([2, 8]))
    d = draw(st.integers(3, min(5, r + 1)))
    lower = draw(st.lists(st.integers(0, r - 1), min_size=d - 1, max_size=d - 1, unique=True))
    k = ExponentVector((*sorted(lower), r), r)
    family = FunctionFamily(draw(st.sampled_from(list(Family))), r)
    m = d // 2
    # Knots on a grid of ratio 10^(1/4) in [1e-2, 1e2], weights in [0.1, 10].
    steps = draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m, unique=True))
    knots = tuple(10.0 ** (j / 4) for j in sorted(steps, reverse=True))
    weights = tuple(10.0 ** e for e in draw(st.lists(st.floats(-1, 1), min_size=m, max_size=m)))
    u = draw(st.lists(st.floats(-0.3, 0.3), min_size=d, max_size=d))
    values = norms(IdealSpline(family, knots, weights), k).values
    M = NormVector(tuple(v * math.exp(e) for v, e in zip(values, u)), k, family)
    status, trace = decide_status(M)
    assume(all(abs(rec.lhs - rec.rhs) >= 1e-4 * max(rec.lhs, rec.rhs)
               for rec in trace if rec.lhs is not None))
    return M, status


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_separated_draws(), st.floats(-2, 2), st.floats(-1, 1))
def test_drawn_status_invariant_under_symmetries(case, log_lam, log_s):
    M, status = case
    assert decide_admissible(M).status is status
    for transform in ("weight", "knot", "family"):
        assert decide_admissible(_image(M, transform, log_lam, log_s)).status is status


STATUS_ORDER = (Status.NOT_ADMISSIBLE, Status.ADMISSIBLE_BOUNDARY, Status.ADMISSIBLE_INTERIOR)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_separated_draws(), st.lists(st.floats(0.25, 4.0), min_size=2, max_size=6))
def test_status_grows_with_the_first_norm(case, factors):
    # Over an interior sublevel only the top comparison moves with M_{k_1},
    # and its rhs, where the status is boundary, is among the values tried.
    M, _ = case
    assume(decide_status(M.drop_first())[0] is Status.ADMISSIBLE_INTERIOR)
    rhs = decide_status(M)[1][-1].rhs
    grown = sorted([rhs, *(f * M.values[0] for f in factors)])
    ranks = [STATUS_ORDER.index(decide_status(NormVector((v, *M.values[1:]), M.exponents,
                                                         M.family))[0]) for v in grown]
    assert ranks == sorted(ranks)
    assert ranks[grown.index(rhs)] == STATUS_ORDER.index(Status.ADMISSIBLE_BOUNDARY)
