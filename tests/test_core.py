"""Exact value types, moment algebra, and the factorial family transport."""
import math

import pytest
from hypothesis import given, strategies as st

from kolmo import (
    Atom,
    DomainError,
    ExponentVector,
    Family,
    FunctionFamily,
    HalfInteger,
    MomentVector,
    NormVector,
    Representation,
    curve_point,
    factorial_scale,
    index_of,
    moment_coordinates,
    moments_of,
    norms_from_moments,
)


class TestExponentVector:
    def test_valid(self):
        k = ExponentVector((0, 1, 2), 2)
        assert k.d == 3
        assert k.exponents == (0, 1, 2)

    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            ExponentVector((2, 1), 4)

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            ExponentVector((1, 1), 4)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            ExponentVector((-1, 0), 4)

    def test_rejects_exponent_above_order(self):
        with pytest.raises(DomainError):
            ExponentVector((0, 5), 4)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            ExponentVector((), 4)

    def test_drop_first(self):
        k = ExponentVector((0, 1, 3), 8)
        assert k.drop_first().exponents == (1, 3)
        assert k.drop_first_and_last().exponents == (1,)


class TestAtomsAndRepresentations:
    def test_atom_rejects_nonpositive_weight(self):
        with pytest.raises(DomainError):
            Atom(1.0, 0.0)

    def test_atom_rejects_negative_node(self):
        with pytest.raises(DomainError):
            Atom(-1.0, 1.0)

    def test_atoms_sorted_by_node(self):
        rep = Representation((Atom(2.0, 1.0), Atom(1.0, 1.0)))
        assert rep.nodes == (1.0, 2.0)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DomainError):
            Representation((Atom(1.0, 1.0), Atom(1.0 + 1e-12, 1.0)))

    def test_zero_atom_flag(self):
        assert Representation((Atom(0.0, 1.0),)).has_zero_atom
        assert not Representation((Atom(1.0, 1.0),)).has_zero_atom


class TestIndex:
    def test_zero_atom_counts_half(self):
        rep = Representation((Atom(0.0, 1.0), Atom(1.0, 1.0)))
        assert index_of(rep) == HalfInteger(3)
        assert index_of(rep).value == 1.5

    def test_positive_atoms_count_one(self):
        rep = Representation((Atom(1.0, 1.0), Atom(2.0, 1.0)))
        assert index_of(rep).value == 2.0

    def test_half_integer_str(self):
        assert str(HalfInteger(3)) == "3/2"
        assert str(HalfInteger(4)) == "2"
        assert HalfInteger(1) < HalfInteger(3) <= HalfInteger(3)


class TestMoments:
    def test_curve_point_zero_power_convention(self):
        k = ExponentVector((0, 1, 2), 2)
        assert curve_point(0.0, k).values == (1.0, 0.0, 0.0)

    def test_two_unit_atoms(self):
        k = ExponentVector((0, 1, 2), 2)
        rep = Representation((Atom(1.0, 1.0), Atom(2.0, 1.0)))
        assert moments_of(rep, k).values == (2.0, 3.0, 5.0)

    def test_zero_atom_contributes_only_to_k0(self):
        k = ExponentVector((0, 1, 2), 2)
        rep = Representation((Atom(0.0, 0.2), Atom(5.0 / 3.0, 1.8)))
        c = moments_of(rep, k)
        assert c.values[0] == pytest.approx(2.0)
        assert c.values[1] == pytest.approx(3.0)
        assert c.values[2] == pytest.approx(5.0)

    @given(
        t=st.floats(min_value=0.01, max_value=100.0),
        w=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_single_atom_moments_are_scaled_curve_points(self, t, w):
        k = ExponentVector((0, 2, 5), 8)
        rep = Representation((Atom(t, w),))
        c = moments_of(rep, k)
        p = curve_point(t, k)
        for got, want in zip(c.values, p.values):
            assert got == pytest.approx(w * want, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_moment_rejected(self, bad):
        # classify crashed on these: numpy LinAlgError for nan, a float
        # conversion ValueError for inf.
        with pytest.raises(DomainError, match="finite"):
            MomentVector((1.0, bad, 1.0), ExponentVector((0, 1, 2), 2))


class TestFactorialTransport:
    def test_round_trip(self):
        k = ExponentVector((0, 1, 2), 2)
        mm = NormVector((1.0, 2.0, 2.0), k, FunctionFamily(Family.MM, 2))
        am = factorial_scale(mm)
        assert am.values == (2.0, 2.0, 2.0)
        back = factorial_scale(am)
        assert back.values == mm.values
        assert back.family.kind is Family.MM

    def test_moment_coordinates_am_is_identity(self):
        k = ExponentVector((0, 1, 2), 2)
        M = NormVector((2.0, 3.0, 5.0), k, FunctionFamily(Family.AM, 2))
        assert moment_coordinates(M).values == (2.0, 3.0, 5.0)

    def test_moment_coordinates_mm_multiplies_factorials(self):
        k = ExponentVector((0, 1, 2), 2)
        M = NormVector((1.0, 2.0, 2.0), k, FunctionFamily(Family.MM, 2))
        assert moment_coordinates(M).values == (2.0, 2.0, 2.0)

    def test_moment_coordinates_overflow_rejected(self):
        # 1e300 * 20! is no double: no infinite moment reaches a solver.
        k = ExponentVector((0, 20), 20)
        M = NormVector((1e300, 1.0), k, FunctionFamily(Family.MM, 20))
        with pytest.raises(DomainError):
            moment_coordinates(M)

    @given(
        vals=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=3, max_size=3
        )
    )
    def test_norms_from_moments_inverts(self, vals):
        k = ExponentVector((0, 1, 2), 2)
        fam = FunctionFamily(Family.MM, 2)
        M = NormVector(tuple(vals), k, fam)
        back = norms_from_moments(moment_coordinates(M), fam)
        for a, b in zip(back.values, M.values):
            assert a == pytest.approx(b, rel=1e-15)


class TestNormVector:
    def test_length_mismatch_rejected(self):
        k = ExponentVector((0, 1), 2)
        with pytest.raises(DomainError):
            NormVector((1.0,), k, FunctionFamily(Family.AM, 2))

    def test_order_mismatch_rejected(self):
        k = ExponentVector((0, 1), 2)
        with pytest.raises(DomainError):
            NormVector((1.0, 1.0), k, FunctionFamily(Family.AM, 3))

    def test_non_finite_rejected(self):
        k = ExponentVector((0,), 2)
        with pytest.raises(DomainError):
            NormVector((math.inf,), k, FunctionFamily(Family.AM, 2))
