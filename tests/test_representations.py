"""Exact structure solves: classification, principal and pinned representations."""
import numpy as np
import pytest

from kolmo import (
    Atom,
    DomainError,
    ExponentVector,
    MomentVector,
    NotInteriorError,
    PinnedNodeCoincidenceError,
    Representation,
    UnsupportedSystemError,
    canonical_representation,
    classify,
    interlace_hints,
    minimal_index,
    moments_of,
    newton_refine,
    principal_representation,
)
from kolmo.representations import ClassKind, _thin, lowest_structure

K012 = ExponentVector((0, 1, 2), 2)
C235 = MomentVector((2.0, 3.0, 5.0), K012)


class TestClassify:
    def test_interior_example(self):
        result = classify(C235)
        assert result.kind is ClassKind.INTERIOR
        atoms = result.witness.atoms
        assert len(atoms) == 2
        assert atoms[0].node == 0.0
        assert atoms[0].weight == pytest.approx(0.2, rel=1e-8)
        assert atoms[1].node == pytest.approx(5.0 / 3.0, rel=1e-8)
        assert atoms[1].weight == pytest.approx(1.8, rel=1e-8)

    def test_exterior_example(self):
        assert classify(MomentVector((1.0, 2.0, 3.0), K012)).kind is ClassKind.EXTERIOR

    def test_boundary_single_atom(self):
        c = moments_of(Representation((Atom(1.5, 2.0),)), K012)
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY
        assert len(result.witness) == 1
        assert result.witness.atoms[0].node == pytest.approx(1.5, rel=1e-8)

    def test_zero_vector(self):
        assert classify(MomentVector((0.0, 0.0, 0.0), K012)).kind is ClassKind.ZERO

    def test_zero_moments_leave_the_zero_atom(self):
        result = classify(MomentVector((1.0, 0.0, 0.0), K012))
        assert result.kind is ClassKind.BOUNDARY
        assert result.witness == Representation((Atom(0.0, 1.0),))

    def test_zero_first_moment_with_positive_second_is_exterior(self):
        assert classify(MomentVector((1.0, 0.0, 1.0), K012)).kind is ClassKind.EXTERIOR

    def test_negative_component_is_exterior(self):
        assert classify(MomentVector((1.0, -1.0, 1.0), K012)).kind is ClassKind.EXTERIOR

    def test_requires_exponent_zero(self):
        c = MomentVector((1.0, 2.0), ExponentVector((1, 2), 2))
        with pytest.raises(UnsupportedSystemError):
            classify(c)


class TestMinimalIndex:
    def test_interior_has_index_d_halves(self):
        idx, rep = minimal_index(C235)
        assert idx.twice == 3
        assert len(rep) == 2

    def test_single_atom_has_index_one(self):
        c = moments_of(Representation((Atom(2.0, 1.0),)), K012)
        idx, rep = minimal_index(c)
        assert idx.twice == 2
        assert len(rep) == 1
        assert rep.atoms[0].node == pytest.approx(2.0, rel=1e-8)


class TestLowestStructure:
    def test_interior_vector_needs_principal_index(self):
        twice, rep = lowest_structure(C235, 3)
        assert twice == 3
        assert len(rep) == 2
        assert rep.has_zero_atom

    def test_single_atom(self):
        c = moments_of(Representation((Atom(2.0, 1.0),)), K012)
        twice, rep = lowest_structure(c, 3)
        assert twice == 2
        assert len(rep) == 1
        assert rep.atoms[0].node == pytest.approx(2.0, rel=1e-8)

    def test_exterior_vector_has_no_structure(self):
        assert lowest_structure(MomentVector((1.0, 2.0, 3.0), K012), 3) is None

    def test_max_twice_respected(self):
        assert lowest_structure(C235, 2) is None

    @pytest.mark.filterwarnings("error")
    def test_zero_moment_row_weight_stays_finite(self):
        # Equation scales are relative, but a zero moment's is floored, so
        # the weighted system of a positive atom neither overflows nor fits.
        assert lowest_structure(MomentVector((1.0, 0.0, 1.0), K012), 3) is None

    def test_zero_atom_structures_need_exponent_zero(self):
        # Without exponent 0 only even indices exist: index 1/2 is skipped.
        k = ExponentVector((1, 2), 2)
        c = moments_of(Representation((Atom(2.0, 1.0),)), k)
        assert lowest_structure(c, 1) is None
        twice, rep = lowest_structure(c, 2)
        assert twice == 2
        assert rep.atoms[0].node == pytest.approx(2.0, rel=1e-8)


class _RelativeMismatch:
    """Workspace stand-in: largest relative moment mismatch against c."""

    def __init__(self, c):
        self.c = c

    def scaled_residual(self, rep):
        got = moments_of(rep, self.c.exponents).values
        return max(abs(g - w) / abs(w) for g, w in zip(got, self.c.values))


class TestThin:
    K = ExponentVector((0, 1, 2, 3), 3)

    def test_negligible_atom_dropped(self):
        rep = Representation((Atom(1.5, 2.0), Atom(3.0, 1e-12)))
        thin = _thin(_RelativeMismatch(moments_of(rep, self.K)), rep, 1e-8)
        assert thin == Representation((Atom(1.5, 2.0),))

    def test_no_negligible_atom(self):
        rep = Representation((Atom(1.5, 2.0), Atom(3.0, 1.0)))
        assert _thin(_RelativeMismatch(moments_of(rep, self.K)), rep, 1e-8) is None

    def test_dropping_must_keep_the_moments(self):
        # A tiny weight far out still carries the top moments.
        rep = Representation((Atom(1.5, 2.0), Atom(1e5, 1e-12)))
        assert _thin(_RelativeMismatch(moments_of(rep, self.K)), rep, 1e-8) is None


class TestPrincipalRepresentation:
    def test_worked_example(self):
        rep = principal_representation(C235)
        assert len(rep) == 2
        assert rep.atoms[0].node == 0.0
        assert rep.atoms[0].weight == pytest.approx(0.2, rel=1e-10)
        assert rep.atoms[1].node == pytest.approx(5.0 / 3.0, rel=1e-10)
        assert rep.atoms[1].weight == pytest.approx(1.8, rel=1e-10)

    def test_recovers_random_measure(self):
        rng = np.random.default_rng(42)
        k = ExponentVector((0, 1, 3, 6), 8)
        target = Representation(
            (Atom(0.7, 1.3), Atom(2.9, 0.6))
        )
        c = moments_of(target, k)
        rep = principal_representation(c)
        for a, b in zip(rep.atoms, target.atoms):
            assert a.node == pytest.approx(b.node, rel=1e-8)
            assert a.weight == pytest.approx(b.weight, rel=1e-8)

    def test_node_scale_equivariance(self):
        k = ExponentVector((0, 1, 3, 6), 8)
        base = Representation((Atom(0.7, 1.3), Atom(2.9, 0.6)))
        s = 100.0
        scaled = Representation(
            tuple(Atom(a.node * s, a.weight) for a in base.atoms)
        )
        rep = principal_representation(moments_of(scaled, k))
        for a, b in zip(rep.atoms, base.atoms):
            assert a.node == pytest.approx(b.node * s, rel=1e-8)
            assert a.weight == pytest.approx(b.weight, rel=1e-8)

    def test_wide_moment_range(self):
        # Moments over 17 decades: each equation must be solved to relative
        # accuracy, or a wrong node still fits the small ones.
        c = MomentVector((6.256e17, 3.314, 1.587), ExponentVector((0, 19, 20), 20))
        u = 1.587 / 3.314
        w = 3.314 / u**19
        rep = principal_representation(c)
        assert rep.atoms[0].node == 0.0
        assert rep.atoms[0].weight == pytest.approx(6.256e17 - w, rel=1e-12)
        assert rep.atoms[1].node == pytest.approx(u, rel=1e-8)
        assert rep.atoms[1].weight == pytest.approx(w, rel=1e-8)
        assert classify(c).kind is ClassKind.INTERIOR

    def test_boundary_point_is_not_interior(self):
        c = moments_of(Representation((Atom(1.5, 2.0),)), K012)
        with pytest.raises(NotInteriorError):
            principal_representation(c)

    # An interior vector whose oracle support misleads the starts: Newton
    # drives a surplus node onto t = 0 and stalls at the best index-5/2 fit.
    K_TRAP = ExponentVector((0, 2, 5, 6, 7, 8), 8)
    TRAP_TARGET = Representation((
        Atom(0.2253811191813343, 0.898283084582596),
        Atom(0.9911134169033777, 1.1228179344801381),
        Atom(2.74952129703755, 0.7486728148041315),
    ))
    # The index-5/2 point that trap converges to: a genuine boundary vector.
    TRAP_LIMIT = Representation((
        Atom(0.0, 0.8100719400876847),
        Atom(0.9733619038972201, 1.210780563701439),
        Atom(2.7494163023555664, 0.7489213300779733),
    ))

    def test_recovers_measure_behind_collapsed_node_trap(self):
        rep = principal_representation(moments_of(self.TRAP_TARGET, self.K_TRAP))
        assert len(rep) == 3
        for a, b in zip(rep.atoms, self.TRAP_TARGET.atoms):
            assert a.node == pytest.approx(b.node, rel=1e-6)
            assert a.weight == pytest.approx(b.weight, rel=1e-6)

    def test_classifies_collapsed_node_trap_as_interior(self):
        result = classify(moments_of(self.TRAP_TARGET, self.K_TRAP))
        assert result.kind is ClassKind.INTERIOR
        assert len(result.witness) == 3
        assert not result.witness.has_zero_atom

    def test_trap_limit_stays_boundary(self):
        result = classify(moments_of(self.TRAP_LIMIT, self.K_TRAP))
        assert result.kind is ClassKind.BOUNDARY
        for a, b in zip(result.witness.atoms, self.TRAP_LIMIT.atoms):
            assert a.node == pytest.approx(b.node, rel=1e-6)
            assert a.weight == pytest.approx(b.weight, rel=1e-6)


class TestCanonicalRepresentation:
    def test_worked_example_pin_at_one(self):
        rep = canonical_representation(C235, 1.0)
        assert len(rep) == 2
        assert rep.atoms[0].node == 1.0  # pinned bit-exactly
        assert rep.atoms[0].weight == pytest.approx(1.0, abs=1e-8)
        assert rep.atoms[1].node == pytest.approx(2.0, abs=1e-8)
        assert rep.atoms[1].weight == pytest.approx(1.0, abs=1e-8)

    def test_moments_reproduced(self):
        rep = canonical_representation(C235, 1.0)
        back = moments_of(rep, K012)
        for got, want in zip(back.values, C235.values):
            assert got == pytest.approx(want, rel=1e-8)

    def test_pin_coinciding_with_principal_root_rejected(self):
        with pytest.raises(PinnedNodeCoincidenceError):
            canonical_representation(C235, 5.0 / 3.0)

    def test_nonpositive_pin_rejected(self):
        with pytest.raises(DomainError):
            canonical_representation(C235, 0.0)

    def test_requires_exponent_zero(self):
        c = MomentVector((1.0, 2.0), ExponentVector((1, 2), 2))
        with pytest.raises(UnsupportedSystemError):
            canonical_representation(c, 1.0)


class TestInterlaceHints:
    def test_one_hint_per_unoccupied_gap(self):
        principal = Representation((Atom(0.0, 0.2), Atom(5.0 / 3.0, 1.8)))
        hints = interlace_hints(principal, 1.0)
        # Pin occupies (0, 5/3); the remaining gap is (5/3, inf).
        assert len(hints) == 1
        assert hints[0] > 5.0 / 3.0

    def test_pin_below_smallest_root_without_zero_atom_rejected(self):
        principal = Representation((Atom(1.0, 1.0), Atom(2.0, 1.0)))
        with pytest.raises(DomainError):
            interlace_hints(principal, 0.5)

    def test_pin_between_roots_accepted(self):
        principal = Representation((Atom(1.0, 1.0), Atom(2.0, 1.0)))
        hints = interlace_hints(principal, 1.5)
        assert len(hints) == 1


class TestNewtonRefine:
    def test_refines_perturbed_guess(self):
        target = Representation((Atom(0.0, 0.2), Atom(5.0 / 3.0, 1.8)))
        guess = Representation((Atom(0.0, 0.21), Atom(1.7, 1.75)))
        refined = newton_refine(guess, [], C235)
        assert refined.atoms[0].weight == pytest.approx(0.2, rel=1e-9)
        assert refined.atoms[1].node == pytest.approx(5.0 / 3.0, rel=1e-9)

    def test_respects_pinned_nodes(self):
        k = ExponentVector((0, 1, 2), 2)
        c = MomentVector((2.0, 3.0, 5.0), k)
        guess = Representation((Atom(1.0, 1.05), Atom(2.1, 0.95)))
        refined = newton_refine(guess, [1.0], c)
        assert refined.atoms[0].node == 1.0
        assert refined.atoms[1].node == pytest.approx(2.0, rel=1e-9)

    def test_unknown_pin_rejected(self):
        guess = Representation((Atom(1.0, 1.0),))
        with pytest.raises(DomainError):
            newton_refine(guess, [3.0], C235)
