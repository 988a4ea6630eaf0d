"""Ideal splines: construction, evaluation, norms, and random members."""
import math

import pytest

from kolmo import (
    Atom,
    DomainError,
    ExponentVector,
    Family,
    FunctionFamily,
    IdealSpline,
    Representation,
    evaluate,
    norms,
    random_member,
    representation_of,
    spline_from_representation,
    with_constant,
)

MM2 = FunctionFamily(Family.MM, 2)
AM2 = FunctionFamily(Family.AM, 2)
K012 = ExponentVector((0, 1, 2), 2)


class TestConstruction:
    def test_knots_strictly_decreasing(self):
        with pytest.raises(DomainError):
            IdealSpline(MM2, (1.0, 2.0), (1.0, 1.0))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            IdealSpline(MM2, (1.0,), (0.0,))

    def test_negative_constant_rejected(self):
        with pytest.raises(DomainError):
            IdealSpline(MM2, (1.0,), (1.0,), -1.0)

    def test_knot_index_counts_constant_as_half(self):
        assert IdealSpline(MM2, (1.0,), (1.0,)).knot_index.value == 1.0
        assert IdealSpline(MM2, (1.0,), (1.0,), 0.5).knot_index.value == 1.5

    def test_with_constant_adds(self):
        s = IdealSpline(MM2, (1.0,), (1.0,))
        assert with_constant(s, 0.25).constant == 0.25
        with pytest.raises(DomainError):
            with_constant(s, -0.1)


class TestRepresentationRoundTrip:
    def test_atom_to_knot_map(self):
        # Atom (u, w) maps to knot 1/u with weight w * u^r.
        rep = Representation((Atom(2.0, 1.0),))
        s = spline_from_representation(rep, MM2)
        assert s.knots == (0.5,)
        assert s.weights == (4.0,)
        assert s.constant == 0.0

    def test_zero_atom_becomes_constant(self):
        rep = Representation((Atom(0.0, 1.0),))
        assert spline_from_representation(rep, AM2).constant == 1.0
        # MM divides by r!.
        assert spline_from_representation(rep, MM2).constant == 0.5

    def test_round_trip_exact(self):
        rep = Representation((Atom(0.0, 0.2), Atom(0.6, 1.8), Atom(2.5, 0.3)))
        for fam in (AM2, MM2):
            back = representation_of(spline_from_representation(rep, fam))
            assert len(back) == len(rep)
            for a, b in zip(back.atoms, rep.atoms):
                assert a.node == pytest.approx(b.node, rel=1e-15)
                assert a.weight == pytest.approx(b.weight, rel=1e-15)

    def test_weight_of_an_atom_whose_power_overflows(self):
        # u^20 overflows, but the spline weight w * u^20 is about 1.9.
        rep = Representation((Atom(4107178163655787.0, 1.02625868501e-312),))
        s = spline_from_representation(rep, FunctionFamily(Family.MM, 20))
        assert s.weights[0] == pytest.approx(1.02625868501e-312 * 4107178163655787.0 ** 10
                                             * 4107178163655787.0 ** 10, rel=1e-12)

    def test_weight_beyond_float_range_rejected(self):
        spline = IdealSpline(FunctionFamily(Family.MM, 20), (1e20,), (1.0,))
        with pytest.raises(DomainError):
            representation_of(spline)


class TestEvaluate:
    def test_rejects_positive_argument(self):
        s = IdealSpline(MM2, (1.0,), (1.0,))
        with pytest.raises(DomainError):
            evaluate(s, 0.5)

    def test_mm_truncated_power(self):
        # (1 + t)_+^2 / 2! at t = -0.5 and below the knot.
        s = IdealSpline(MM2, (1.0,), (2.0,))
        assert evaluate(s, -0.5, 0) == pytest.approx(0.25)
        assert evaluate(s, -2.0, 0) == 0.0

    def test_mm_derivatives_above_order_vanish(self):
        s = IdealSpline(MM2, (1.0,), (2.0,))
        assert evaluate(s, 0.0, 3) == 0.0

    def test_am_exponential(self):
        # a^r * exp(t/a) with a = 2, r = 2, lambda = 1.
        s = IdealSpline(AM2, (2.0,), (1.0,))
        assert evaluate(s, 0.0, 0) == pytest.approx(4.0)
        assert evaluate(s, -2.0, 0) == pytest.approx(4.0 * math.exp(-1.0))
        # each derivative divides by a.
        assert evaluate(s, 0.0, 1) == pytest.approx(2.0)
        assert evaluate(s, 0.0, 2) == pytest.approx(1.0)

    def test_am_monotone_grid(self):
        s = IdealSpline(AM2, (2.0, 0.5), (1.0, 3.0), 0.2)
        ts = [-(i * 0.1) for i in range(50)]
        for j in range(3):
            vals = [evaluate(s, t, j) for t in ts]
            # ts decreases, so values must be non-increasing along the list.
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_mm_monotone_grid(self):
        fam = FunctionFamily(Family.MM, 4)
        s = IdealSpline(fam, (2.0, 0.5), (1.0, 3.0), 0.2)
        ts = [-(i * 0.1) for i in range(50)]
        for j in range(5):
            vals = [evaluate(s, t, j) for t in ts]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestNorms:
    def test_norm_beyond_float_range_rejected(self):
        # (1e20)^20 / 20! is about 4e381.
        spline = IdealSpline(FunctionFamily(Family.MM, 20), (1e20,), (1.0,))
        with pytest.raises(DomainError):
            norms(spline, ExponentVector((0, 20), 20))

    def test_single_knot_threshold_example(self):
        # MM r=2 spline with knot 1, weight 2: norms (1, 2, 2) at k=(0,1,2).
        s = IdealSpline(MM2, (1.0,), (2.0,))
        M = norms(s, K012)
        assert M.values == pytest.approx((1.0, 2.0, 2.0))

    def test_norms_match_evaluation_at_zero(self):
        s = IdealSpline(MM2, (2.0, 0.5), (1.0, 3.0), 0.1)
        M = norms(s, K012)
        for v, k in zip(M.values, K012.exponents):
            assert v == evaluate(s, 0.0, k)

    def test_order_mismatch_rejected(self):
        s = IdealSpline(MM2, (1.0,), (1.0,))
        with pytest.raises(DomainError):
            norms(s, ExponentVector((0, 1), 3))


class TestRandomMember:
    def test_deterministic_for_seed(self):
        a = random_member(MM2, 4, 123)
        b = random_member(MM2, 4, 123)
        assert a == b

    def test_seeds_differ(self):
        assert random_member(MM2, 4, 1) != random_member(MM2, 4, 2)

    def test_knot_count_and_ranges(self):
        s = random_member(MM2, 5, 99)
        assert len(s.knots) == 5
        assert all(1e-2 <= a <= 1e2 for a in s.knots)
        assert all(a / b >= 1.05 for a, b in zip(s.knots, s.knots[1:]))

    def test_negative_knot_count_rejected(self):
        with pytest.raises(DomainError):
            random_member(MM2, -1, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            random_member(MM2, 2, -1)
