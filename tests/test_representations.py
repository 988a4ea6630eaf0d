"""Exact structure solves: classification, principal and pinned representations."""
import math
import os
import sys
import types
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_genlaguerre

import verdict_check

from kolmo import (
    Atom,
    DomainError,
    ExponentVector,
    Family,
    FunctionFamily,
    MomentVector,
    NormVector,
    NotInteriorError,
    NumericalFailureError,
    PinnedNodeCoincidenceError,
    Representation,
    Status,
    UnsupportedSystemError,
    canonical_representation,
    classify,
    decide_admissible,
    decide_status,
    index_of,
    moment_coordinates,
    moments_of,
    principal_representation,
    spline_from_representation,
)
import kolmo.representations
from kolmo import oracle
from kolmo.representations import ACCEPT_TOL, ClassKind

K012 = ExponentVector((0, 1, 2), 2)
C235 = MomentVector((2.0, 3.0, 5.0), K012)
AM3 = FunctionFamily(Family.AM, 3)


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

    def test_interior_within_tol_of_a_single_atom_is_boundary(self):
        # c_0 c_2 - c_1^2 = 1e-7: interior, but one atom reproduces c within
        # 1e-6, so at that tol the path thins the zero atom it reaches c with.
        c = MomentVector((1.0, 1.0, 1.0 + 1e-7), K012)
        assert classify(c).kind is ClassKind.INTERIOR
        result = classify(c, tol=1e-6)
        assert result.kind is ClassKind.BOUNDARY
        assert len(result.witness) == 1
        assert moments_of(result.witness, K012).values == pytest.approx(c.values, rel=1e-6)

    def test_exterior_within_tol_of_a_single_atom_is_boundary(self):
        # Just outside the cone the path stops short of c with no loss below
        # ACCEPT_TOL; at tol = 1e-6 its cheapest loss is thinned.
        k = ExponentVector((0, 1, 2, 3), 3)
        c = MomentVector((1.0, 1.5, 2.25 * (1 - 1e-6), 3.375), k)
        assert classify(c).kind is ClassKind.EXTERIOR
        result = classify(c, tol=1e-6)
        assert result.kind is ClassKind.BOUNDARY
        assert len(result.witness) == 1
        assert moments_of(result.witness, k).values == pytest.approx(c.values, rel=1e-6)

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

    def test_pair_without_exponent_zero_is_interior(self):
        c = MomentVector((1.0, 2.0), ExponentVector((1, 2), 2))
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR
        assert result.witness == Representation((Atom(2.0, 0.5),))

    def test_odd_system_without_exponent_zero_gets_far_atom_witness(self):
        # No index-3/2 structure without exponent 0: the principal zero atom,
        # of mass c_1 - 1.8 = 0.2 beside the atom (5/3, 1.08) of (c_2, c_3),
        # moves to the node u = 1.5e-9 where its share 0.2 u of c_2 is
        # FAR_KNOT_SHARE * tol * c_2 (its share 0.2 u^2 of c_3 is smaller).
        # In AM r = 3 splines: knots (1/u, 3/5), weights (0.2 u^2, 5).
        c = MomentVector((2.0, 3.0, 5.0), ExponentVector((1, 2, 3), 3))
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR
        assert index_of(result.witness).twice == 4
        spline = spline_from_representation(result.witness, AM3)
        assert spline.knots == pytest.approx((2e9 / 3, 0.6), rel=1e-12)
        assert spline.weights == pytest.approx((4.5e-19, 5.0), rel=1e-12)
        # decide builds its witness apart, from its comparison spline and
        # the far knot in norm coordinates, so the two agree to rounding.
        witness = decide_admissible(NormVector(c.values, c.exponents, AM3)).witness
        assert witness.knots == pytest.approx(spline.knots, rel=1e-12)
        assert witness.weights == pytest.approx(spline.weights, rel=1e-12)

    def test_far_atom_share_of_the_other_moments(self):
        # A deep-interior odd system without exponent 0: the moved atom's
        # share of each moment but the first is at most FAR_KNOT_SHARE * tol
        # of it.
        c = MomentVector((104841767.92320746, 2459873.0450706827, 34241996.7601226),
                         ExponentVector((3, 4, 11), 20))
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR and len(result.witness) == 2
        far = min(result.witness.atoms, key=lambda a: a.node)
        share = moments_of(Representation((far,)), c.exponents).values
        bound = kolmo.representations.FAR_KNOT_SHARE * kolmo.representations.ACCEPT_TOL
        for got, want in zip(share[1:], c.values[1:]):
            assert got <= bound * want * (1 + 1e-9)

    def test_scaled_moments_180_decades_apart_are_interior(self):
        # The nodes scaled by 2^m take c to 1e-10 ... 3.9e171.  Every
        # equation is solved relative to its own moment, so c_1 and c_2 are
        # fitted as well as c_3: the Lyapunov inequality is strict, and
        # classify agrees with the decision procedure.
        c = MomentVector((1e-10, 1e-30, 1.0), ExponentVector((1, 2, 20), 20))
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR and len(result.witness) == 2
        back = moments_of(result.witness, c.exponents).values
        for got, want in zip(back, c.values):
            assert abs(got / want - 1.0) <= kolmo.representations.ACCEPT_TOL
        M = NormVector(c.values, c.exponents, FunctionFamily(Family.AM, 20))
        assert decide_status(M)[0].value == "admissible_interior"

    def test_moments_at_the_top_of_the_float_range_are_interior(self):
        c = MomentVector((1.0, 1.3e154, 1.7976931348623157e308), K012)
        assert classify(c).kind is ClassKind.INTERIOR


class TestLowestStructure:
    """The lowest-index structure: the witness of ``classify`` and its index."""

    def test_interior_vector_needs_principal_index(self):
        rep = classify(C235).witness
        assert index_of(rep).twice == 3
        assert len(rep) == 2
        assert rep.has_zero_atom

    def test_single_atom(self):
        c = moments_of(Representation((Atom(2.0, 1.0),)), K012)
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY
        assert len(result.witness) == 1
        assert result.witness.atoms[0].node == pytest.approx(2.0, rel=1e-8)

    def test_exterior_vector_has_no_structure(self):
        c = MomentVector((1.0, 2.0, 3.0), K012)
        result = classify(c)
        assert result.kind is ClassKind.EXTERIOR
        assert result.witness is None

    @pytest.mark.filterwarnings("error")
    def test_zero_moment_row_weight_stays_finite(self):
        # Equation scales are relative, but a zero moment's is floored, so
        # the weighted system of a positive atom neither overflows nor fits.
        assert classify(MomentVector((1.0, 0.0, 1.0), K012)).witness is None

    def test_zero_atom_structures_need_exponent_zero(self):
        # Without exponent 0 only even indices exist: index 1/2 is skipped.
        k = ExponentVector((1, 2), 2)
        c = moments_of(Representation((Atom(2.0, 1.0),)), k)
        rep = classify(c).witness
        assert index_of(rep).twice == 2
        assert rep.atoms[0].node == pytest.approx(2.0, rel=1e-8)


class TestThin:
    """``classify`` leaves degenerate atoms out of a boundary witness."""

    K = ExponentVector((0, 1, 2, 3), 3)

    def classify_atoms(self, *atoms):
        return classify(moments_of(Representation(tuple(Atom(*a) for a in atoms)), self.K))

    def test_negligible_atom_dropped(self):
        result = self.classify_atoms((1.5, 2.0), (3.0, 1e-12))
        assert result.kind is ClassKind.BOUNDARY
        assert len(result.witness) == 1
        assert result.witness.atoms[0].node == pytest.approx(1.5, rel=1e-8)
        assert result.witness.atoms[0].weight == pytest.approx(2.0, rel=1e-8)

    def test_no_negligible_atom(self):
        result = self.classify_atoms((1.5, 2.0), (3.0, 1.0))
        assert result.kind is ClassKind.INTERIOR
        assert result.witness.nodes == pytest.approx((1.5, 3.0), rel=1e-8)
        assert result.witness.weights == pytest.approx((2.0, 1.0), rel=1e-8)

    def test_dropping_must_keep_the_moments(self):
        # A tiny weight far out still carries the top moments.
        result = self.classify_atoms((1.5, 2.0), (1e5, 1e-12))
        assert result.kind is ClassKind.INTERIOR
        assert result.witness.nodes == pytest.approx((1.5, 1e5), rel=1e-8)
        assert result.witness.weights == pytest.approx((2.0, 1e-12), rel=1e-8)

    def test_thinning_that_misses_keeps_the_principal_representation(self, monkeypatch):
        # Within tol = 1e-6 of one atom at 1, c thins; where the thinned
        # polish misses c, the principal representation it came from is the
        # witness, of index d/2: INTERIOR, never EXTERIOR.
        c = MomentVector((1.0, 1.0, 1.0000001), K012)
        correct, missed = kolmo.representations._correct, []

        def thinned_misses(y, k, target, tol, max_iter, dc=None, verdict=math.inf):
            if dc is None and len(y) < len(k):
                missed.append(len(y))
                return y, math.inf, None
            return correct(y, k, target, tol, max_iter, dc, verdict)

        monkeypatch.setattr(kolmo.representations, "_correct", thinned_misses)
        result = classify(c, tol=1e-6)
        assert missed
        assert result.kind is ClassKind.INTERIOR
        assert index_of(result.witness).twice == 3
        assert result.witness == principal_representation(c, tol=1e-6)
        assert moments_of(result.witness, K012).values == pytest.approx(c.values, rel=1e-6)


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

    # Constellations where a residual within ACCEPT_TOL once passed a wrong
    # measure: three nodes within 5 % of each other (the answer had a node
    # at 5.2496 with weight 0.0056), and a zero atom next to a small node.
    @pytest.mark.parametrize("k, target", [
        ((0, 1, 2, 4, 5, 6), (
            Atom(4.734581866873305, 0.5637887508324064),
            Atom(4.836902180300598, 1.7397631533677735),
            Atom(4.96346606305117, 1.9029137104913145),
        )),
        ((0, 3, 5, 6, 7), (
            Atom(0.0, 0.6782632684207768),
            Atom(0.20282107857968834, 1.3635718820503704),
            Atom(3.728912425638389, 1.370092365288888),
        )),
    ])
    def test_recovers_ill_conditioned_constellation(self, k, target):
        target = Representation(target)
        rep = principal_representation(moments_of(target, ExponentVector(k, 8)))
        assert len(rep) == len(target)
        for a, b in zip(rep.atoms, target.atoms):
            assert a.node == pytest.approx(b.node, rel=1e-6)
            assert a.weight == pytest.approx(b.weight, rel=1e-6)

    def test_trap_limit_stays_boundary(self):
        result = classify(moments_of(self.TRAP_LIMIT, self.K_TRAP))
        assert result.kind is ClassKind.BOUNDARY
        for a, b in zip(result.witness.atoms, self.TRAP_LIMIT.atoms):
            assert a.node == pytest.approx(b.node, rel=1e-6)
            assert a.weight == pytest.approx(b.weight, rel=1e-6)

    def test_odd_system_without_exponent_zero_is_unsupported(self):
        c = MomentVector((2.0, 3.0, 5.0), ExponentVector((1, 2, 3), 3))
        with pytest.raises(UnsupportedSystemError):
            principal_representation(c)


class TestPrincipalIsClassifyInterior:
    """The principal representation is classify's INTERIOR witness, bit for bit."""

    @pytest.mark.parametrize("c", [
        MomentVector((3.0, 5.0), ExponentVector((2, 7), 8)),  # a pair
        C235,  # an odd count with exponent 0
        moments_of(Representation((Atom(0.7, 1.3), Atom(2.9, 0.6))),
                   ExponentVector((0, 1, 3, 6), 8)),  # an even count
    ], ids=["pair", "odd-with-zero", "even"])
    def test_interior_witness(self, c):
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR
        assert principal_representation(c) == result.witness

    @pytest.mark.parametrize("c, kind", [
        # One atom at 2: an even count on the boundary.
        (MomentVector((1.0, 2.0, 4.0, 8.0), ExponentVector((0, 1, 2, 3), 3)), ClassKind.BOUNDARY),
        (MomentVector((1.0, 2.0, 3.0), K012), ClassKind.EXTERIOR),
    ], ids=["boundary", "exterior"])
    def test_not_interior(self, c, kind):
        assert classify(c).kind is kind
        with pytest.raises(NotInteriorError):
            principal_representation(c)


class TestStartIndependence:
    def test_decide_mixed_boundary_vector(self):
        # The moment coordinates of an attainable MM r = 20 tuple: the start
        # of init_seed 1 once called it EXTERIOR, the others BOUNDARY.
        k = ExponentVector((2, 3, 4, 5, 7, 10, 20), 20)
        c = MomentVector((0.01004528091188978, 0.012564898300635336, 0.015716501180527215,
                          0.019658607932022128, 0.030757182341688928, 0.06019183545489448,
                          6.4422690930931), k)
        results = [classify(c, init_seed=s) for s in (0, 1, 2)]
        assert {r.kind for r in results} == {ClassKind.BOUNDARY}
        for r in results:
            assert moments_of(r.witness, k).values == pytest.approx(c.values, rel=ACCEPT_TOL)

    # Moment coordinates of perfbench/gen.py decide_round(seed, round)[item],
    # on which some starts raise: raise / EXTERIOR / raise (round 4 item 29),
    # BOUNDARY / BOUNDARY / raise (round 2 item 1), INTERIOR / raise /
    # INTERIOR (round 1 item 19).
    @pytest.mark.parametrize("ks, r, values, kind", [
        ((0, 1, 2, 3, 4, 5, 7, 8), 8,
         (244399.82917512194, 0.39250407772320106, 0.3382943029897256, 0.391583622009771,
          0.24646328853571503, 0.25439204365996804, 2.3998204465507134, 16.106620752435905),
         ClassKind.EXTERIOR),
        ((0, 1, 2, 3, 4, 5, 7, 8), 8,
         (244685.16781821416, 0.38947608908826775, 0.33645165899137813, 0.388997155798351,
          0.24578189283530003, 0.2529674384044052, 2.3990384319221025, 16.118062053594482),
         ClassKind.EXTERIOR),
        ((0, 1, 2, 3, 4, 5, 7, 8), 8,
         (244502.86516766305, 0.39690623644458106, 0.3419386329632456, 0.39467548638391375,
          0.2482540265068261, 0.2547319305584724, 2.4045058535489967, 16.089956201856346),
         ClassKind.EXTERIOR),
        ((3, 6, 9, 10, 12, 14, 18, 20), 20,
         (102002996070285.22, 278727705593.26385, 784666161.4643515, 111678127.24587898,
          2292891.807466465, 47994.90710319434, 22.395259936620157, 1.5387469545096581),
         ClassKind.BOUNDARY),
        ((3, 6, 9, 10, 12, 14, 18, 20), 20,
         (98708535587132.6, 271630345599.4179, 769873402.5694956, 109808433.76549487,
          2263720.0411104783, 47561.16497614439, 22.330810569976297, 1.5372696777076262),
         ClassKind.BOUNDARY),
        ((2, 3, 4, 8, 9, 20), 20,
         (759753718.2969003, 240371735.8994275, 76049080.63777311, 761967.7519744141,
          241072.56840050354, 2.2250600113875127),
         ClassKind.INTERIOR),
    ], ids=["seed1-round4-item29", "seed2-round4-item29", "seed3-round4-item29",
            "seed2-round2-item1", "seed3-round2-item1", "seed3-round1-item19"])
    def test_no_start_gives_another_verdict(self, ks, r, values, kind):
        c = MomentVector(values, ExponentVector(ks, r))
        for start in (0, 1, 2):
            try:
                assert classify(c, init_seed=start).kind is kind, start
            except NumericalFailureError:
                pass


class TestOverflowingStep:
    def test_no_overflow_warning(self, monkeypatch):
        # A square solve that is finite until its column scaling is undone:
        # the second column's norm, about 1e-160, turns the unit-column
        # solution's 1e150 into an overflow.  The corrector, which holds the
        # kernel's one errstate, takes least squares once, silently.
        R = kolmo.representations
        J = np.array([[1.0, 1e-160], [0.0, 1e-310]])
        residuals = iter([np.array([0.0, -1.0]), np.array([0.0, -0.5])])
        monkeypatch.setattr(R, "_system", lambda *args: (next(residuals), J))
        lapack, calls = np.linalg._umath_linalg, []
        lstsq = lapack.lstsq
        monkeypatch.setattr(lapack, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, res, _ = R._correct(np.zeros(2), np.array([0.0, 1.0]), np.ones(2), 0.0, 1)
        assert len(calls) == 1
        assert np.isfinite(y).all() and res == 0.5


class TestLapackKernel:
    """The Newton kernel calls numpy's LAPACK gufuncs solve1 (gesv) and
    lstsq (gelsd) without np.linalg's wrappers, under one errstate per
    solve or path; these pin that private API to the wrappers' bits."""

    @staticmethod
    def _tracked_systems(monkeypatch, doc):
        """The unit-column systems _lstsq meets while classify tracks doc."""
        R = kolmo.representations
        lstsq, systems = R._lstsq, []
        monkeypatch.setattr(R, "_lstsq", lambda scaled, rhs: systems.append(
            (scaled[0], rhs)) or lstsq(scaled, rhs))
        c = MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), 8))
        classify(c)
        monkeypatch.undo()
        return systems

    def test_gufuncs_give_the_wrappers_bits(self, monkeypatch):
        R = kolmo.representations
        lapack = np.linalg._umath_linalg
        rng = np.random.default_rng(0)
        square = []
        for n in range(1, 10):
            for _ in range(20):
                J = rng.normal(size=(n, n)) * np.exp(rng.normal(0.0, 10.0, n))
                square.append((R._unit_columns(J)[0], rng.normal(size=n)))
        gen = verdict_check.perfbench_gen()
        tracked = (self._tracked_systems(monkeypatch, gen.moments_round(1, 0)[18])
                   + self._tracked_systems(monkeypatch, gen.moments_round(1, 0)[38]))
        square += [(J, b) for J, b in tracked if J.shape[0] == J.shape[1]]
        tall = [(J, b) for J, b in tracked if J.shape[0] > J.shape[1]]
        assert len(square) > 200 and len(tall) > 10
        singular = 0
        for J, b in square:
            with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
                warnings.simplefilter("error")
                x = lapack.solve1(J, b)
            try:
                assert x.tobytes() == np.linalg.solve(J, b).tobytes()
            except np.linalg.LinAlgError:  # item 38 meets singular systems: NaN, silently
                assert np.isnan(x).all()
                singular += 1
        assert 1 <= singular < 10
        for J, b in tall:
            x = lapack.lstsq(J, b[:, None], math.ulp(1.0) * max(J.shape), signature="ddd->ddid")[0][:, 0]
            assert x.tobytes() == np.linalg.lstsq(J, b, rcond=None)[0].tobytes()

    def test_singular_systems_take_least_squares(self, monkeypatch):
        # perfbench/gen.py moments_round(1, 0)[38] and decide_round(1, 3)[14]:
        # their paths meet singular 6 x 6 and 5 x 5 systems, which fall back to
        # least squares and read as before, without a RuntimeWarning.
        lapack = np.linalg._umath_linalg
        solve1, singular = lapack.solve1, []

        def counted(*args, **kw):
            x = solve1(*args, **kw)
            singular.append(np.isnan(x).any())
            return x

        monkeypatch.setattr(lapack, "solve1", counted)
        gen = verdict_check.perfbench_gen()
        doc = gen.moments_round(1, 0)[38]
        c = MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = classify(c)
        assert sum(singular) >= 1
        assert result.kind is ClassKind.BOUNDARY
        assert [(a.node.hex(), a.weight.hex()) for a in result.witness.atoms] == [
            ("0x1.a2478cb773db5p-1", "0x1.5baa704962b79p-3"),
            ("0x1.ae886bd8eca19p+2", "0x1.139fe0d31daacp+3")]
        singular.clear()
        doc = gen.decide_round(1, 3)[14]
        M = NormVector(tuple(doc["M"]), ExponentVector(tuple(doc["k"]), doc["r"]),
                       FunctionFamily(Family(doc["family"]), doc["r"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = decide_admissible(M)
        assert sum(singular) >= 1
        assert result.status is Status.ADMISSIBLE_BOUNDARY
        assert result.witness.knots == (18.56686168071062, 3.3445510007810073, 0.02087159763572081)
        assert result.witness.weights == (4.645853783442866, 0.601640978435966, 6.976473762955983)

    def test_one_errstate_per_solve_and_no_wrapped_solve(self, monkeypatch):
        # perfbench/gen.py moments_round(1, 0)[18], d = 6, a tracked classify:
        # np.linalg.solve is never called, and np.errstate is entered once
        # per corrector run and per path, plus once by the witness's
        # _Problem.representation.
        R = kolmo.representations
        counts = {"errstate": 0, "_correct": 0, "_track": 0}
        errstate = np.errstate

        def counted_errstate(**kw):
            counts["errstate"] += 1
            return errstate(**kw)

        def wrapped_solve(*args):
            raise AssertionError("np.linalg.solve called")

        def counting(name):
            f = getattr(R, name)
            return lambda *args: counts.__setitem__(name, counts[name] + 1) or f(*args)

        monkeypatch.setattr(np, "errstate", counted_errstate)
        monkeypatch.setattr(np.linalg, "solve", wrapped_solve)
        for name in ("_correct", "_track"):
            monkeypatch.setattr(R, name, counting(name))
        doc = verdict_check.perfbench_gen().moments_round(1, 0)[18]
        c = MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), 8))
        assert classify(c).kind is ClassKind.INTERIOR
        assert counts["_track"] == 1 and counts["_correct"] > 40
        assert counts["errstate"] <= counts["_correct"] + counts["_track"] + 1


class TestCanonicalRepresentation:
    @pytest.mark.parametrize("t_star", [0.25, 0.5, 1.0, 1.25, 2.0, 3.0, 10.0])
    def test_closed_form(self, t_star):
        # Two atoms at t and u fit (2, 3, 5): u = (5 - 3t)/(3 - 2t),
        # w_u = (3 - 2t)/(u - t) and w_t = 2 - w_u.
        u = (5.0 - 3.0 * t_star) / (3.0 - 2.0 * t_star)
        w_u = (3.0 - 2.0 * t_star) / (u - t_star)
        rep = canonical_representation(C235, t_star)
        assert t_star in rep.nodes  # pinned bit-exactly
        want = sorted([(t_star, 2.0 - w_u), (u, w_u)])
        assert rep.nodes == pytest.approx([n for n, _ in want], rel=1e-12)
        assert rep.weights == pytest.approx([w for _, w in want], rel=1e-12)

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

    def test_boundary_vector_is_not_interior(self):
        c = moments_of(Representation((Atom(1.5, 2.0),)), K012)
        with pytest.raises(NotInteriorError):
            canonical_representation(c, 1.0)

    def test_nonpositive_pin_rejected(self):
        with pytest.raises(DomainError):
            canonical_representation(C235, 0.0)

    @pytest.mark.parametrize("t_star", [float("nan"), float("inf")])
    def test_non_finite_pin_rejected(self, t_star):
        # nan crashed with numpy's LinAlgError, and inf was reported as
        # coinciding with the principal root.
        with pytest.raises(DomainError):
            canonical_representation(C235, t_star)

    def test_requires_exponent_zero(self):
        # Without exponent 0 an even d has no canonical structure: the ray's
        # exit drives a node to 0.
        for ks, values in (((1, 2), (1.0, 2.0)), ((1, 2, 3, 4), (2.0, 3.0, 5.0, 9.0))):
            c = MomentVector(values, ExponentVector(ks, 4))
            with pytest.raises(UnsupportedSystemError):
                canonical_representation(c, 1.0)

    def test_odd_system_without_exponent_zero(self):
        c = MomentVector((2.0, 3.0, 5.0), ExponentVector((1, 2, 3), 3))
        rep = canonical_representation(c, 1.0)
        assert rep.nodes[0] == 1.0  # pinned bit-exactly
        assert rep.nodes == pytest.approx((1.0, 2.0), abs=1e-8)
        assert rep.weights == pytest.approx((1.0, 0.5), abs=1e-8)


class TestCanonicalExit:
    """The ray's exit is solved for, not crept up to.

    A landing started from a single early prediction of the exit once
    missed c on these inputs (canonical_suite(200) seed 1 case 18, seed 3
    cases 30 and 145).
    """

    @pytest.mark.parametrize("ks, values, t_star", [
        ((0, 1, 2, 6, 7), (3.339074613390656, 12.839189429162516, 51.16363582211803,
                           17981.857907537324, 82897.79986139329), 4.8785255018349885),
        ((0, 1, 5, 6, 8), (4.138072939290214, 13.487278305341354, 2073.9867891595595,
                           7561.537892833937, 101824.24030134914), 2.190757841963803),
        ((0, 2, 3, 5, 8), (3.686608360009913, 73.53302636427722, 341.7440284022566,
                           7717.740145351596, 874705.998873483), 3.0387403191507105),
    ])
    def test_premature_hand_off_inputs(self, ks, values, t_star):
        c = MomentVector(values, ExponentVector(ks, 8))
        rep = canonical_representation(c, t_star)
        assert t_star in rep.nodes
        back = np.asarray(moments_of(rep, c.exponents).values)
        assert np.abs(back / np.asarray(values) - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("c, t_star, before", [
        (C235, 1.0, 51),
        (MomentVector((2.0, 2.5, 4.25, 8.125), ExponentVector((0, 1, 2, 3), 3)), 1.0, 49),
    ], ids=["odd", "even"])
    def test_corrector_calls_halved(self, monkeypatch, c, t_star, before):
        # ``before``: calls when the tracker crept up to the exit by halving
        # its step, one failed and one accepted corrector call per halving.
        calls = []
        correct = kolmo.representations._correct
        monkeypatch.setattr(kolmo.representations, "_correct",
                            lambda *args: calls.append(1) or correct(*args))
        canonical_representation(c, t_star)
        assert len(calls) <= before // 2


def _bordered(args):
    """Whether the ``_correct`` call of these arguments solves a bordered
    system: in classify, the face solve of a landing."""
    return len(args) > 5 and args[5] is not None


class TestTrackerExit:
    """Every exit of the tracker is landed by one bordered Newton solve."""

    # perfbench/gen.py moments_round(1, 0)[10], labelled exterior: a node
    # runs to infinity.  Without the landing only a step below NEWTON_TOL
    # ends that path, after 174 corrector calls.
    C10 = MomentVector((4.697726665993096, 12.641136609369415, 19.52179359465077,
                        300.52923172160297, 5478.9650671637755, 24941.98221061041),
                       ExponentVector((0, 1, 2, 5, 7, 8), 8))

    def test_node_running_off_is_landed(self, monkeypatch):
        R = kolmo.representations
        # c_1^2 > c_0 c_2 settles C10 before any path (TestSeparatingCertificate);
        # that check is taken out to reach the path.
        monkeypatch.setattr(R, "_lyapunov", lambda *args: None)
        calls, tracks = [], []
        correct, track = R._correct, R._track
        monkeypatch.setattr(R, "_correct",
                            lambda *args: calls.append(_bordered(args)) or correct(*args))
        monkeypatch.setattr(R, "_track", lambda *args: tracks.append(1) or track(*args))
        assert classify(self.C10).kind is ClassKind.EXTERIOR
        assert len(tracks) == 1
        # At most 10 tracker steps, then the landing and the polish.
        assert len(calls) <= 12, calls
        assert any(calls)

    def test_far_atom_within_tol_of_c_is_not_landed(self, monkeypatch):
        # perfbench/gen.py moments_round(1, 2)[12]: the top node runs off
        # toward exits predicted just past c, which are not solved for.  Each
        # was once landed, 2 landing solves in all.
        c = MomentVector((8.503999203021785, 952.1780873047165, 10810.96431656464,
                          15823557.933425646, 179659717.0246534), ExponentVector((0, 2, 3, 6, 7), 8))
        calls = []
        correct = kolmo.representations._correct
        monkeypatch.setattr(kolmo.representations, "_correct",
                            lambda *args: calls.append(_bordered(args)) or correct(*args))
        # Its zero atom's margin with the two atoms refitted is below tol, so
        # the thinning drops it: two atoms reproduce c within tol.
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY and len(result.witness.atoms) == 2
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(c.values) - 1.0).max() <= ACCEPT_TOL
        assert not any(calls), calls

    # Exact two-atom measures of tests/verdict_check.py without exponent 0
    # (d = 5, so BOUNDARY).  Each loss's one solve at c comes early, from s
    # = 0.78 to 0.9988, and misses; after a failed step onto c the path
    # closes in, and a landing on an exit predicted at most 4e-10 past c
    # ends it.  Without that landing the step underflows and classify raises.
    @pytest.mark.parametrize("draw", [211, 469, 529])
    def test_exit_predicted_past_c_is_landed(self, monkeypatch, draw):
        R = kolmo.representations
        correct, predicted = R._correct, []

        def counted(*args):
            if _bordered(args):
                frame = sys._getframe(1)
                while frame.f_code.co_name != "_track":
                    frame = frame.f_back
                predicted.append(frame.f_locals["exits"][frame.f_locals["j"]])
            return correct(*args)

        monkeypatch.setattr(R, "_correct", counted)
        c = dict(verdict_check.exact_measures(draw + 1))[draw]
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY and len(result.witness.atoms) == 2
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(c.values) - 1.0).max() <= ACCEPT_TOL
        assert 1.0 < predicted[-1] <= 1.0 + 1e-7, predicted


class TestFaceSolve:
    """The tracker's two exit solves, a bordered landing and the solve at c,
    are one face solve, and one builder makes every far atom."""

    def test_top_moment_read_only_after_the_lower_moments_land(self, monkeypatch):
        # decide_round(1, 0)[12]'s moments, k = (3,...,8): the top node runs
        # to infinity, and the one landing that drops it misses on the lower
        # moments, so its top moment is never read.
        R = kolmo.representations
        system, correct = R._system, R._correct
        solves, reads = [], []
        monkeypatch.setattr(R, "_system", lambda *args: reads.append(
            len(args) > 4 and args[4] is not None
            and sys._getframe(1).f_code.co_name != "_correct") or system(*args))

        def counted(*args):
            z, res, J = correct(*args)
            if _bordered(args):
                solves.append((len(args[1]), res))
            return z, res, J

        monkeypatch.setattr(R, "_correct", counted)
        c = _decide_mixed_moments(12)
        assert classify(c).kind is ClassKind.INTERIOR
        top = [res for n, res in solves if n < c.d]
        assert top and min(top) > 1e-2 * ACCEPT_TOL
        assert sum(reads) == 0

    def test_pair_is_its_one_atom(self):
        # The odd-d rule recurses down to a positive pair, one atom in
        # closed form: 2 at the node 3.
        s, y, polish = kolmo.representations._family_measure(
            np.array([0.0, 2.0]), np.array([2.0, 18.0]), ACCEPT_TOL)
        assert s == 1.0 and polish
        assert np.exp(y) == pytest.approx([2.0, 3.0], rel=1e-15)


class TestSingularEnd:
    """A boundary c is a singular end point of the principal path: the
    measure loses an atom there, and no step onto c converges."""

    # perfbench/gen.py moments_round(seed, 1)[13] at seeds 1-3.  Jumping onto
    # c again after every accepted step once ran the step below NEWTON_TOL
    # at s = 1 - 1.2e-13.
    K = ExponentVector((0, 3, 5, 7, 8), 8)

    @pytest.mark.parametrize("values", [
        (9.730507379958823, 16030.239858993526, 2907708.559949573,
         527426254.3427653, 7103414854.325271),
        (9.734517439841088, 15966.030683975745, 2887957.3884738786,
         522377686.4140954, 7025569524.735207),
        (9.712317848456493, 15932.439854882587, 2883178.1129465173,
         521747855.2350682, 7018677256.528275),
    ], ids=["seed1", "seed2", "seed3"])
    def test_boundary_input_is_boundary(self, values):
        c = MomentVector(values, self.K)
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY
        assert index_of(result.witness).twice < c.d
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(values) - 1.0).max() <= 1e-8

    def test_no_repeated_jump_onto_c(self, monkeypatch):
        # moments_round(1, 1)[5], labelled boundary: 53 tracker corrector
        # calls when the path jumps onto c after every accepted step, one
        # failed jump and one accepted half step per halving of 1 - s; 9 with
        # the endgame.
        c = MomentVector((8.488667903734923, 0.23956351811191323, 8.412921346424647e-06,
                          2.952701294845602e-07, 3.7456652826407e-10, 1.3423124008893724e-11),
                         ExponentVector((0, 1, 4, 5, 7, 8), 8))
        calls = []
        correct = kolmo.representations._correct
        monkeypatch.setattr(kolmo.representations, "_correct", lambda *args: calls.append(
            sys._getframe(1).f_code.co_name) or correct(*args))
        assert classify(c).kind is ClassKind.BOUNDARY
        assert 1 <= calls.count("_track") <= 12

    @pytest.mark.parametrize("endgame", [True, False], ids=["endgame", "no-endgame"])
    def test_no_identical_retry(self, monkeypatch, endgame):
        # moments_round(1, 2)[27], labelled boundary: a failed step was tried
        # again as it was after h was halved, 1 of 6 tracker corrector calls.
        # The exit measure solved at c ends the path after 3 steps; without
        # it the path closes in on c over 20 and more.
        R = kolmo.representations
        c = MomentVector((8.758865244005415, 24.033513637406788, 67.50701381579414,
                          542.9748665297124, 1543.5759124626982, 12484.133130194123),
                         ExponentVector((0, 1, 2, 4, 5, 7), 8))
        if not endgame:
            monkeypatch.setattr(R, "_end_measure", lambda *args: None)
        targets = []
        correct = R._correct
        monkeypatch.setattr(R, "_correct", lambda *args: (
            sys._getframe(1).f_code.co_name == "_track" and len(args) == 5
            and targets.append(tuple(args[2]))) or correct(*args))
        assert classify(c).kind is ClassKind.BOUNDARY
        assert (len(targets) <= 3) if endgame else (len(targets) >= 5)
        assert all(a != b for a, b in zip(targets, targets[1:]))


class TestStepUnderflow:
    """Tuples whose principal path runs its step below NEWTON_TOL, which raises.

    perfbench/gen.py decide_round(1, round)[item].  Each answer is its right
    side or a typed NumericalFailureError, never the wrong side; the two
    outside the cone are EXTERIOR, with a certificate, before any path.
    """

    @pytest.mark.parametrize("family, r, k, M, exterior", [
        # Norms of a spline: in the cone.
        (Family.MM, 20, (0, 3, 4, 17, 19, 20),
         (8.111450114929386e-08, 1.3860436201005378e-05, 6.888107522642698e-05,
          27.348508302866883, 14.20552269800963, 9.802072607280184), False),
        # Perturbed norms whose moments break Lyapunov's inequality
        # c_b^(k_x - k_a) <= c_a^(k_x - k_b) c_x^(k_b - k_a): outside the cone.
        (Family.MM, 20, (0, 4, 8, 9, 13, 16, 17, 20),
         (3.0661074366187195, 2.3171469620991667e-15, 2.0381973998959146e-10,
          2.343209849459737e-09, 3.1966664221007364e-05, 0.012696748081458776,
          0.06692917537914243, 6.029103528574864), True),
        (Family.MM, 8, (0, 1, 2, 3, 4, 5, 7, 8),
         (6.06150369977981, 7.787779319904783e-05, 0.0004698531985968412,
          0.003263196850081425, 0.010269303688988126, 0.04239867394332801,
          2.3998204465507134, 16.106620752435905), True),
    ], ids=["round4-item35", "round2-item5", "round4-item29"])
    def test_classify_keeps_its_side(self, family, r, k, M, exterior):
        c = moment_coordinates(NormVector(M, ExponentVector(k, r), FunctionFamily(family, r)))
        if exterior:
            result = classify(c)
            assert result.kind is ClassKind.EXTERIOR
            _assert_separates(result.certificate, c)
            return
        try:
            kind = classify(c).kind
        except NumericalFailureError:
            return
        assert kind is not ClassKind.EXTERIOR

    def test_decide_keeps_its_side(self):
        # round5-item15: norms of a spline, admissible.
        M = NormVector((6.204817114437117e+30, 3.1844356728687653e+21, 2.549570225543552e+18,
                        2041274813732476.2, 1308490208.260133, 30.42527143105025,
                        6.947427089337846),
                       ExponentVector((0, 6, 8, 10, 14, 19, 20), 20), FunctionFamily(Family.AM, 20))
        try:
            status = decide_status(M)[0]
        except NumericalFailureError:
            return
        assert status is not Status.NOT_ADMISSIBLE


class TestSavedJacobians:
    """A tracker step's tangent reuses the Jacobian its corrector formed."""

    def test_corrector_returns_the_jacobian_of_its_best_point(self):
        R = kolmo.representations
        prob = R._Problem(C235)
        y, _ = prob.start(0)
        z, res, J = R._correct(y, prob.k, prob.values, 0.0, R.MAX_ITER)
        assert res <= 1e-12 and not np.array_equal(z, y)
        fresh = R._system(z, prob.k, prob.values, R._log_scales(prob.values))[1]
        assert np.array_equal(J, fresh)

    def test_only_the_first_tangent_forms_a_jacobian(self, monkeypatch):
        R = kolmo.representations
        system, correct, track = R._system, R._correct, R._track
        systems, corrections, tracks = [], [], []

        def counted_system(*args):
            bordered = len(args) > 4 and args[4] is not None
            systems.append((sys._getframe(1).f_code.co_name, bordered))
            return system(*args)

        monkeypatch.setattr(R, "_system", counted_system)
        monkeypatch.setattr(R, "_correct", lambda *args: corrections.append(
            (sys._getframe(1).f_code.co_name, _bordered(args), len(args[1]))) or correct(*args))
        monkeypatch.setattr(R, "_track", lambda *args: tracks.append(1) or track(*args))
        canonical_representation(C235, 1.0)
        # The canonical ray: a 3-moment principal measure needs no path.
        assert len(tracks) == 1
        # The tracker's calls: its steps, and its landings' face solves.
        steps = [c for c in corrections if c[:2] == ("_track", False)]
        landings = [c for c in corrections if c[:2] == ("_solve_face", True)]
        assert len(steps) > len(tracks) and landings
        # Outside the corrector: one tangent per path at s = 0, and the top
        # moment of each landing that dropped it (none on this ray), a
        # bordered system.
        assert systems.count(("_track", False)) == len(tracks)
        dropped_top = sum(n < len(C235.values) for _, _, n in landings)
        assert systems.count(("_solve_face", True)) == dropped_top == 0
        assert {caller for caller, _ in systems} <= {
            "_correct", "_track", "_solve_face", "_principal_path"}


class TestNoSolveThatCannotGain:
    """Newton solves end once they can no longer change the answer."""

    # perfbench/gen.py decide_round(1, 0)[43] (AM r = 20) classifies these
    # suffixes.  Their polishes reached the rounding floor within 2
    # iterations and then wandered on for 120 and 276 evaluations.
    @pytest.mark.parametrize("ks, values, kind", [
        ((11, 14, 15, 20), (817.266440158141, 104.17423755342784, 52.42750868133982,
                            5.773046500548197), ClassKind.INTERIOR),
        ((6, 7, 11, 14, 15, 20), (25314.492439627684, 12739.961407719164, 817.266440158141,
                                  104.17423755342784, 52.42750868133982, 5.773046500548197),
         ClassKind.BOUNDARY),
    ], ids=["d4", "d6"])
    def test_polish_stops_at_its_rounding_floor(self, monkeypatch, ks, values, kind):
        R = kolmo.representations
        system, polish = R._system, []
        monkeypatch.setattr(R, "_system", lambda *args: polish.append(
            sys._getframe(1).f_code.co_name == "_correct"
            and sys._getframe(2).f_code.co_name == "_principal_path") or system(*args))
        c = MomentVector(values, ExponentVector(ks, 20))
        result = classify(c)
        assert result.kind is kind
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(values) - 1.0).max() <= ACCEPT_TOL
        assert sum(polish) <= 10

    # perfbench/gen.py moments_round(1, 0)[40] and [62]: an atom's weight
    # vanishes as the path reaches c.  Kept as a zero atom, its log mass fell
    # by one unit per landing iteration, and 5 landings missed per path.
    @pytest.mark.parametrize("ks, values", [
        ((0, 1, 2, 5, 7, 8), (8.741183222652285, 12.641136609369415, 19.52179359465077,
                              300.52923172160297, 5478.9650671637755, 24941.98221061041)),
        ((0, 1, 2, 4, 5, 8), (10.963029347667572, 8.004414178171205, 10.461344949112574,
                              33.32566363177839, 62.54517415336228, 417.5734694688109)),
    ], ids=["item40", "item62"])
    def test_vanishing_weight_leaves_the_measure(self, monkeypatch, ks, values):
        R = kolmo.representations
        correct, landings = R._correct, []
        monkeypatch.setattr(R, "_correct", lambda *args: landings.append(
            _bordered(args)) or correct(*args))
        c = MomentVector(values, ExponentVector(ks, 8))
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY
        assert 0.0 not in result.witness.nodes
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(values) - 1.0).max() <= ACCEPT_TOL
        assert sum(landings) <= 2


class TestPolishStopKeepsTheVerdict:
    """A polish against c ends on no gain only where the verdict is fixed:
    its best residual is within tol, or its linear model misses tol.  Ended
    at 2.4e-8 and 2.0e-8, just above tol = 1e-8, these polishes of exit
    measures made attainable tuples EXTERIOR; going on, they reach 5e-15."""

    # perfbench/gen.py decide_round(seed, 0)[37] (MM r = 8) and
    # decide_round(seed, 5)[15] (AM r = 20) at seeds 1-3: norms of splines.
    @pytest.mark.parametrize("family, r, k, M", [
        (Family.MM, 8, (0, 1, 2, 3, 4, 5, 8),
         (98712241487.11061, 8766421916.649763, 681211195.8494793, 45372676.19843761,
          2518406.2426071446, 111827.60610554577, 13.3605090017404)),
        (Family.MM, 8, (0, 1, 2, 3, 4, 5, 8),
         (99562688247.07492, 8832777106.850084, 685655527.1264566, 45621325.76292938,
          2529581.024987221, 112207.30470331818, 13.355141301804622)),
        (Family.MM, 8, (0, 1, 2, 3, 4, 5, 8),
         (98621955879.1526, 8760090356.834349, 680850268.8790905, 45357368.63262217,
          2518041.3760081604, 111832.93444767142, 13.361056419013305)),
        (Family.AM, 20, (0, 6, 8, 10, 14, 19, 20),
         (6.204817114437117e+30, 3.1844356728687653e+21, 2.549570225543552e+18,
          2041274813732476.2, 1308490208.260133, 30.42527143105025, 6.947427089337846)),
        (Family.AM, 20, (0, 6, 8, 10, 14, 19, 20),
         (5.921338046531388e+30, 3.08223634202798e+21, 2.479407804628633e+18,
          1994481402295273.2, 1290607095.8949482, 30.361514710855094, 6.947001244290877)),
        (Family.AM, 20, (0, 6, 8, 10, 14, 19, 20),
         (6.178336424853576e+30, 3.1754206189899596e+21, 2.5435746984449157e+18,
          2037453623585494.5, 1307296827.0278585, 30.42695521478327, 6.945835120371406)),
    ], ids=[f"{name}-seed{seed}" for name in ("round0-item37", "round5-item15")
            for seed in (1, 2, 3)])
    @pytest.mark.parametrize("endgame", [True, False], ids=["endgame", "no-endgame"])
    def test_attainable_tuple_is_boundary(self, monkeypatch, family, r, k, M, endgame):
        c = moment_coordinates(NormVector(M, ExponentVector(k, r), FunctionFamily(family, r)))
        # Without the exit measure solved at c itself, each exit measure lies
        # before c and misses it by more than tol, so it is asked for a
        # separating polynomial; none separates.  With it, round 0 item 37's
        # paths end at c, where none is asked for; round 5 item 15's does at
        # seed 3, and at seeds 1 and 2 its solve at c misses, so the path
        # lands before c as it did.
        if not endgame:
            monkeypatch.setattr(kolmo.representations, "_end_measure", lambda *args: None)
        asked = _separations(monkeypatch)
        self._assert_boundary(c)
        assert all(mu is None for mu in asked)
        if not endgame:
            assert asked
        elif r == 8:
            assert not asked

    def test_mirror_is_boundary(self):
        # The mirror t -> 1/t of decide_round(2, 0)[43] (AM r = 20, so c = M):
        # exponents 20 - k and the moments in reverse order.
        k = (3, 6, 7, 11, 14, 15, 20)
        M = (188879.12899432916, 24287.635177130825, 12258.92300106325, 795.6474277817622,
             102.31090412261896, 51.64033025279883, 5.76670861034635)
        self._assert_boundary(MomentVector(M[::-1], ExponentVector(tuple(20 - v for v in k[::-1]), 20)))

    @staticmethod
    def _assert_boundary(c):
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(c.values) - 1.0).max() <= ACCEPT_TOL


class TestFloatRangeTracking:
    """5- and 6-moment vectors over the float range: the path's direction
    once overflowed into numpy's LinAlgError, with LAPACK's DLASCL message on
    stderr, on about 1 in 8 of them."""

    # Both break Lyapunov's inequality c_b^(k_x - k_a) <= c_a^(k_x - k_b)
    # c_x^(k_b - k_a): c_3^3 > c_2^2 c_5 and c_6^5 > c_5^4 c_10, which
    # classify checks on consecutive exponents before any path.
    @pytest.mark.parametrize("ks, values, tol", [
        ((0, 2, 3, 5, 14), (3.47244e49, 7.26296e-179, 8.3034e27, 7.4993e269, 2.21419e218), 1e-8),
        ((1, 5, 6, 10, 20), (2.19615e-170, 1.20259e-287, 2.8242e-107, 2.74354e167,
                             2.93406e202), 1e-300),
    ])
    def test_lyapunov_exterior_is_exterior(self, capfd, ks, values, tol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify(MomentVector(values, ExponentVector(ks, 20)), tol).kind is ClassKind.EXTERIOR
        assert capfd.readouterr().err == ""

    def test_overflowing_direction_raises(self, capfd, monkeypatch):
        R = kolmo.representations
        tracks, track = [], R._track
        monkeypatch.setattr(R, "_track", lambda *args: tracks.append(1) or track(*args))
        c = MomentVector((4.99269e-249, 7.96556e36, 1.08561e278, 2.25463e244, 1.40099e120,
                          1.12318e-260), ExponentVector((0, 1, 2, 4, 6, 19), 20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # c_1^2 > c_0 c_2 by far: EXTERIOR before any path.
            result = classify(c)
            assert result.kind is ClassKind.EXTERIOR and result.certificate is not None
            assert not tracks
            # Without that check the path's direction overflows: a typed error.
            monkeypatch.setattr(R, "_lyapunov", lambda *args: None)
            with pytest.raises(NumericalFailureError):
                classify(c)
        assert tracks
        assert capfd.readouterr().err == ""

    def test_only_typed_errors(self, capfd):
        rng = np.random.default_rng(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                d = int(rng.choice([5, 6]))
                ks = tuple(sorted(int(v) for v in rng.choice(21, d, replace=False)))
                c = MomentVector(tuple(float(v) for v in 10.0 ** rng.uniform(-300, 300, d)),
                                 ExponentVector(ks, 20))
                try:
                    classify(c, float(rng.choice([1e-8, 1e-12, 1e-300, 0.5])))
                except NumericalFailureError:
                    pass
        assert capfd.readouterr().err == ""


class TestSingleMoment:
    """d = 1: the moment c_0 = 3 of k = (0,), carried by one atom anywhere."""

    C3 = MomentVector((3.0,), ExponentVector((0,), 1))

    def test_canonical_is_the_pinned_atom(self):
        rep = canonical_representation(self.C3, 2.0)
        assert rep.nodes == (2.0,)
        assert rep.weights == pytest.approx((3.0,), rel=1e-12)

    def test_classify_is_interior_with_the_zero_atom(self):
        result = classify(self.C3)
        assert result.kind is ClassKind.INTERIOR
        assert result.witness.nodes == (0.0,)
        assert result.witness.weights == pytest.approx((3.0,), rel=1e-12)

    def test_principal_is_the_zero_atom(self):
        rep = principal_representation(self.C3)
        assert rep.nodes == (0.0,)
        assert rep.weights == pytest.approx((3.0,), rel=1e-12)


def _exact_atom(ks, cs):
    """The one atom (u, w) with w u^k_a = c_a and w u^k_b = c_b, in 50 digits."""
    (ka, kb), (ca, cb) = ks, (Decimal(c) for c in cs)
    with localcontext() as ctx:
        ctx.prec = 50
        log_u = (cb.ln() - ca.ln()) / (kb - ka)
        return log_u.exp(), (ca.ln() - ka * log_u).exp()


class TestTwoMoments:
    """d = 2: one atom attains any positive pair, u = (c_b/c_a)^(1/(k_b-k_a))
    and w = c_a/u^k_a, in closed form and checked in floats: no solve runs."""

    @staticmethod
    def draws():
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            ka, kb = sorted(int(k) for k in rng.choice(21, 2, replace=False))
            yield (ka, kb), tuple(float(c) for c in 10.0 ** rng.uniform(-150, 150, 2))

    def test_interior_with_the_exact_atom(self):
        counts = {"normal": 0, "subnormal": 0, "beyond": 0}
        for ks, cs in self.draws():
            c = MomentVector(cs, ExponentVector(ks, 20))
            u, w = _exact_atom(ks, cs)
            if not all(Decimal("5e-324") < v < Decimal("1.79e308") for v in (u, w)):
                # No float measure carries c; it is not exterior either.
                with pytest.raises(NumericalFailureError):
                    classify(c)
                with pytest.raises(NumericalFailureError):
                    principal_representation(c)
                counts["beyond"] += 1
                continue
            if min(u, w) < Decimal(sys.float_info.min):
                # A subnormal keeps fewer digits: the atom if it still
                # reproduces c within tol, else a typed failure.
                try:
                    assert classify(c).kind is ClassKind.INTERIOR, (ks, cs)
                except NumericalFailureError:
                    pass
                counts["subnormal"] += 1
                continue
            result = classify(c)
            assert result.kind is ClassKind.INTERIOR, (ks, cs)
            (atom,) = result.witness.atoms
            assert atom.node == pytest.approx(float(u), rel=1e-12, abs=0), (ks, cs)
            assert atom.weight == pytest.approx(float(w), rel=1e-12, abs=0), (ks, cs)
            assert principal_representation(c) == result.witness
            counts["normal"] += 1
        assert counts["normal"] >= 100 and counts["subnormal"] and counts["beyond"] >= 20, counts

    @pytest.mark.parametrize("ks, cs", [
        ((5, 20), (1e-150, 1e150)),  # u = 1e20, w = 1e-250
        ((0, 20), (1e-150, 1e150)),  # u = 1e15
        ((0, 3), (2.0, 16.0)),       # u = 2, w = 2
    ])
    def test_extreme_pairs(self, ks, cs):
        (atom,) = classify(MomentVector(cs, ExponentVector(ks, 20))).witness.atoms
        u, w = _exact_atom(ks, cs)
        assert atom.node == pytest.approx(float(u), rel=1e-12, abs=0)
        assert atom.weight == pytest.approx(float(w), rel=1e-12, abs=0)

    @pytest.mark.parametrize("ks, cs", [
        ((18, 19), (1e-150, 1e150)),  # w = 1e-2850: once called EXTERIOR
        ((0, 1), (1e-300, 1e300)),    # u = 1e600: once called EXTERIOR
        ((3, 4), (1e150, 1e-150)),    # w = 1e1050
        # w = 3.9e-317 keeps 8 digits, too few to reproduce c: once EXTERIOR.
        ((5, 9), (9.459570934925369e-91, 1.2105579967826057e91)),
    ])
    def test_atom_beyond_the_float_range_raises(self, ks, cs):
        c = MomentVector(cs, ExponentVector(ks, 20))
        with pytest.raises(NumericalFailureError):
            classify(c)
        with pytest.raises(NumericalFailureError):
            principal_representation(c)

    @pytest.mark.parametrize("kb, cs, factor", [
        (3, (2.0, 16.0), 1.5),
        (20, (1e-150, 1e150), 3.0),
        (7, (4.2e40, 3.3e-12), 2.0),
    ])
    def test_canonical_reproduces_c(self, kb, cs, factor):
        # Exponent 0: the canonical representation is a zero atom and the atom
        # at t_star, z = c_0 - c_1/t_star^k_b and w = c_1/t_star^k_b.
        c = MomentVector(cs, ExponentVector((0, kb), 20))
        t_star = factor * float(_exact_atom((0, kb), cs)[0])
        rep = canonical_representation(c, t_star)
        assert rep.nodes == (0.0, t_star)
        back = moments_of(rep, c.exponents).values
        assert back == pytest.approx(cs, rel=1e-12, abs=0)


def _exact_two_atom_draws():
    """(measure, c) of random two-atom measures, 0 < a < b < e <= 20, nodes in
    [e^-2, e^2], weights in [0.1, 10], where the lower atom carries at least
    1e-6 of c_a."""
    rng = np.random.default_rng(29)
    for _ in range(300):
        a, b, e = sorted(int(k) for k in rng.choice(np.arange(1, 21), 3, replace=False))
        nodes = np.sort(np.exp(rng.uniform(-2.0, 2.0, 2)))
        weights = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 2))
        rep = Representation(tuple(Atom(float(u), float(w)) for u, w in zip(nodes, weights)))
        c = moments_of(rep, ExponentVector((0, a, b, e), 20))
        if weights[0] * nodes[0] ** a >= 1e-6 * c.values[1]:
            yield rep, c


class TestTwoAtomFamily:
    """d = 3 and d = 4: the principal measure in closed form or by one
    safeguarded Newton search over the two-atom family through c_0, c_a and
    c_b, along which c_e rises from its lower principal value L, with a Newton
    solve for the node gap inside each step: no path is tracked."""

    @pytest.mark.parametrize("c", [
        C235,
        MomentVector((2.0, 3.0, 4.5), K012),  # one atom
        MomentVector((2.0, 3.0, 4.0), K012),  # exterior
        MomentVector((2.0, 2.5, 4.25, 8.125), ExponentVector((0, 1, 2, 3), 3)),
        MomentVector((1.0, 2.0, 4.0, 8.0), ExponentVector((0, 1, 2, 3), 3)),
        MomentVector((2.0, 3.0, 5.0, 8.0), ExponentVector((0, 1, 2, 3), 3)),
        MomentVector((2.0, 3.0, 5.0, 9.0), ExponentVector((1, 2, 3, 4), 4)),
    ])
    def test_never_tracks(self, c, monkeypatch):
        monkeypatch.setattr(kolmo.representations, "_track", None)
        result = classify(c)
        if result.kind is ClassKind.INTERIOR:
            assert principal_representation(c) == result.witness

    # decide-mixed round 0 item 48's sub-tuple at seeds 1 and 4: c_0..c_b are
    # one atom to rounding (ζ = 7.1e-15, then -0.0) and c_e lies 8e-4 above
    # L; decide-mixed seed 1 round 0 item 43's sub-tuple, once tracked.
    @pytest.mark.parametrize("ks, values", [
        ((9, 10, 11, 18), (6.060808376841942e+18, 1.181087139804956e+17,
                           2301618439452324.0, 2458.362802849633)),
        ((9, 10, 11, 18), (6.104973720813465e+18, 1.1890737588580197e+17,
                           2315974594918230.0, 2464.6763215009)),
        ((11, 14, 15, 20), (817.266440158141, 104.17423755342784, 52.42750868133982,
                            5.773046500548197)),
    ], ids=["item48-seed1", "item48-seed4", "item43-seed1"])
    def test_one_atom_below_the_top_moment_is_interior(self, ks, values):
        c = MomentVector(values, ExponentVector(ks, 20))
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(values) - 1.0).max() <= ACCEPT_TOL

    def test_far_atom_witness_stays_in_the_float_range(self):
        # decide-mixed seed 2 round 1 item 5's sub-tuple: polished against c,
        # the atom carrying c_e's excess ran out until its weight underflowed.
        values = (3.5625214155799013e+22, 7.377116909520568e+20, 135644876746973.61,
                  5.463950592976703)
        c = MomentVector(values, ExponentVector((7, 8, 12, 20), 20))
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR
        for atom in result.witness.atoms:
            assert sys.float_info.min < atom.weight < sys.float_info.max
            assert sys.float_info.min < atom.node < sys.float_info.max
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(values) - 1.0).max() <= ACCEPT_TOL

    def test_one_atom_to_rounding_is_boundary(self):
        # perfbench/gen.py moments_round(20, 0)[27]: ζ = -0.0 and log c_e -
        # log L = 1.1e-16.  A search over the family could not bracket it.
        c = MomentVector((6.242204350303772, 5.430718405765623, 3.5761455891458995,
                          2.7067852154649708), ExponentVector((0, 1, 4, 6), 8))
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY
        assert len(result.witness) == 1

    def test_one_atom_to_rounding_at_a_tiny_tol(self):
        # ζ > tol = 1e-20, yet γ = log(c_b/c_0) - (b/a) log(c_a/c_0) <= 0 by
        # rounding: the search's logarithms once raised ValueError.
        c = MomentVector((3.923925566757883, 0.14802567793672716, 0.10284503116446814,
                          0.06898458815064178), ExponentVector((0, 9, 10, 13), 20))
        with pytest.raises(NumericalFailureError):
            classify(c, 1e-20)

    def test_float_range_raises_only_typed_errors(self):
        # Moments drawn over ±300 decades: the tracker once crashed here with
        # numpy's LinAlgError on about 1 in 13 of them.  d = 5 runs the d = 4
        # search on its top four moments.
        rng = np.random.default_rng(1)
        for _ in range(300):
            d = int(rng.choice([3, 4, 5]))
            k = ExponentVector(tuple(sorted(int(v) for v in rng.choice(21, d, replace=False))), 20)
            c = MomentVector(tuple(float(v) for v in 10.0 ** rng.uniform(-300, 300, d)), k)
            try:
                classify(c)
            except NumericalFailureError:
                pass

    def test_exact_two_atom_measures(self):
        """The draws of :func:`_exact_two_atom_draws`.  Conditioning band: the
        lower atom carries at least 1e-6 of c_a (below ~1e-8 a zero atom plus
        one atom reproduces c within tol, and c is rightly BOUNDARY).  There
        the principal representation is the measure to 1e-6, and c_e at L (1 -
        1e-4), L and L (1 + 1e-4) is EXTERIOR, BOUNDARY and INTERIOR."""
        tested = 0
        for rep, moments in _exact_two_atom_draws():
            k, c = moments.exponents, moments.values
            _, a, b, e = k.exponents
            tested += 1
            got = principal_representation(moments)
            assert got.nodes == pytest.approx(rep.nodes, rel=1e-6)
            assert got.weights == pytest.approx(rep.weights, rel=1e-6)
            u = (c[2] / c[1]) ** (1.0 / (b - a))
            L = c[1] / u ** a * u ** e
            for factor, kind in ((1 - 1e-4, ClassKind.EXTERIOR), (1.0, ClassKind.BOUNDARY),
                                 (1 + 1e-4, ClassKind.INTERIOR)):
                assert classify(MomentVector(c[:3] + (L * factor,), k)).kind is kind, (k, c, factor)
        assert tested >= 200, tested

    @staticmethod
    def _searches(monkeypatch):
        """(problem, y, expm1 calls) of every d = 4 search, before the polish,
        on the draws of :func:`_exact_two_atom_draws` and the d = 4 systems
        of perfbench moments-spread round 0, seeds 1-3: y is in the scaled
        system of the :class:`_Problem` the search solves."""
        gen = verdict_check.perfbench_gen()
        systems = [c for _, c in _exact_two_atom_draws()] + [
            MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), gen.MOMENT_R))
            for seed in (1, 2, 3) for doc in gen.moments_round(seed, 0) if len(doc["k"]) == 4]
        R, calls = kolmo.representations, []
        counting = types.SimpleNamespace(**vars(math))
        counting.expm1 = lambda x: calls.append(1) or math.expm1(x)
        monkeypatch.setattr(R, "math", counting)
        found = []
        for c in systems:
            prob = R._Problem(c)
            before = len(calls)
            s, y, polish = R._family_measure(prob.k, prob.values, ACCEPT_TOL)
            if s == 1.0 and polish and len(y) == 4:  # not a thin measure nor a far atom
                found.append((prob, y, len(calls) - before))
        assert len(found) >= 250, len(found)
        return found

    def test_search_reproduces_c_before_the_polish(self, monkeypatch):
        # The atoms exp(y), rounded to float, have moments within 1e-13 of
        # c's, each relative to itself, evaluated exactly (worst 1.6e-14):
        # the search ends at its rounding floor, not at a relative step.
        for prob, y, _ in self._searches(monkeypatch):
            atoms = [(Fraction(math.exp(lw)), Fraction(math.exp(lu))) for lw, lu in zip(y[:2], y[2:])]
            for k, target in zip(prob.k.tolist(), prob.values.tolist()):
                moment = sum(w * u ** int(k) for w, u in atoms)
                assert abs(float(moment / Fraction(target) - 1)) <= 1e-13, (prob.c, k)

    def test_search_work_is_bounded(self, monkeypatch):
        # Each evaluation of the node gap's residual makes two expm1 calls
        # and each outer evaluation three; on these inputs a search makes 45
        # on average and 92 at most.  Brent's method nested in Brent's, the
        # search this replaced, made 285 and 564.
        work = [calls for _, _, calls in self._searches(monkeypatch)]
        assert sum(work) / len(work) <= 60 and max(work) <= 120, (sum(work) / len(work), max(work))


class TestFiveMomentsWithoutPath:
    """d = 5: a zero atom plus the d = 4 family measure of the top four
    moments, shifted back; the path runs only where that top system lies
    within tol of its own boundary.  Either way the thinning prices the zero
    atom with the other atoms refitted."""

    def test_moments_spread_round_0_never_tracks(self, monkeypatch):
        gen = verdict_check.perfbench_gen()
        R = kolmo.representations
        tracks, track = [], R._track
        monkeypatch.setattr(R, "_track", lambda *args: tracks.append(1) or track(*args))
        calls = 0
        for seed in (1, 2, 3):
            for doc in gen.moments_round(seed, 0):
                if len(doc["k"]) == 5:
                    c = MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), gen.MOMENT_R))
                    try:
                        (classify if doc["call"] == "classify" else principal_representation)(c)
                    except NotInteriorError:
                        pass
                    calls += 1
        assert calls == 45 and not tracks

    def test_top_atom_near_tol_is_polished_to_boundary(self):
        # perfbench/gen.py moments_round(1, 2)[74], labelled exterior: the top
        # system's principal mass is 4.3e-4 above c_0, but a two-atom measure
        # reproduces all five moments within tol.
        c = MomentVector((1.524821461098542, 82.06989671796883, 5430.860438862638,
                          359397.78879051714, 6892907541909.416), ExponentVector((0, 1, 2, 3, 7), 8))
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(c.values) - 1.0).max() <= ACCEPT_TOL

    @pytest.mark.parametrize("ks, values", [
        ((0, 1, 4, 7, 12), (4.513256503172177, 0.5769681616672417, 1.2812334563738628,
                            3.095795868175024, 13.469322890118525)),
        ((0, 3, 4, 7, 8), (0.35618242877089634, 0.8406957454061235, 1.534398872035658,
                           9.329591064861251, 17.02828033044785)),
    ], ids=["seed1-round5-item50", "seed3-round4-item41"])
    def test_zero_atom_within_tol_of_a_refit_is_thinned_without_a_path(self, ks, values,
                                                                        monkeypatch):
        # Mirrors t -> 1/t of decide-mixed tuples labelled admissible_boundary:
        # the top measure leaves c_0 a share of 2.5e-8 and 1.0e-8, above tol,
        # but dropping it with the two atoms refitted costs 1.4e-15 and
        # 3.4e-16.  Two atoms reproduce c, the lowest-index witness.
        R = kolmo.representations
        tracks, track = [], R._track
        monkeypatch.setattr(R, "_track", lambda *args: tracks.append(1) or track(*args))
        c = MomentVector(values, ExponentVector(ks, 20))
        result = classify(c)
        assert not tracks
        assert result.kind is ClassKind.BOUNDARY and len(result.witness) == 2
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(values) - 1.0).max() <= ACCEPT_TOL

    # Exact measures of tests/verdict_check.py, a zero atom plus two atoms
    # (index 5/2, but within tol of a measure of index 2): the zero atom's
    # share of c_0 is 1.6e-2 to 0.51, but dropping it with the two atoms
    # refitted costs 2.8e-12 to 9.5e-9.  The first five take the closed form;
    # draws 10 and 28 track, their top four moments lying within tol of their
    # own boundary.  One thinning rule serves both.
    @pytest.mark.parametrize("draw, tracked", [
        (250, False), (268, False), (538, False), (958, False), (988, False),
        (10, True), (28, True)])
    def test_exact_draw_within_tol_of_two_atoms_is_boundary(self, draw, tracked, monkeypatch):
        R = kolmo.representations
        tracks, track = [], R._track
        monkeypatch.setattr(R, "_track", lambda *args: tracks.append(1) or track(*args))
        c = dict(verdict_check.exact_measures(draw + 1))[draw]
        result = classify(c)
        assert bool(tracks) is tracked
        assert result.kind is ClassKind.BOUNDARY and len(result.witness.atoms) == 2
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(c.values) - 1.0).max() <= ACCEPT_TOL

    # The nine five-moment inputs of tests/verdict_check.py whose zero atom
    # lies within tol of its face, and three more within a factor 5 of tol,
    # by the margin ζ |n_0| / ||n||_1: the first five at 0.12-0.95 tol, the
    # next four at 7e-9 to 1.4e-7 tol.
    ESCAPES = {
        "exact measure draw 250": True,
        "exact measure draw 538": True,
        "exact measure draw 988": True,
        "exact measure draw 958": True,
        "exact measure draw 268": True,
        "decide-mixed mirror seed 1 round 5 item 50": True,
        "decide-mixed mirror seed 3 round 5 item 50": True,
        "decide-mixed mirror seed 3 round 4 item 41": True,
        "moments-spread seed 3 round 2 item 52": True,
        "exact measure draw 892": False,
        "exact measure draw 724": False,
        "exact measure draw 1132": False,
    }
    # Inputs whose top measure leaves c_0 no zero atom to thin: its share ζ
    # of c_0 sits at the top system's noise floor.  For mirror seed 3 round 5
    # item 50 (top k = (0,3,6,11), raw cond(J) 1.6e8) two top measures that
    # reproduce their four moments to 5e-15 read ζ = +3.1e-8 and -2.5e-8;
    # at ζ <= 0 the thin top measure is polished against c, which ends at
    # the same two atoms.
    THIN = {"decide-mixed mirror seed 3 round 5 item 50"}

    def test_zero_atom_face_margin(self, monkeypatch):
        # The thinning prices the zero atom of the polished measure by its
        # face's margin |n·J_0| / Σ|n|, n from _face_normal of the other
        # columns.  J_0 is ζ, the zero atom's share of c_0, in the first row
        # alone, so this is ζ |n_0| / ||n||_1, n from the SVD of the raw
        # Jacobian: the two agree to 1e-6 of the margin, or of tol where the
        # margin is smaller, and give the same decision.  Only the thinning's
        # call is recorded: _separation's n is its own J's left null vector.
        R = kolmo.representations
        face_normal, seen = R._face_normal, []

        def recorded(J):
            n = face_normal(J)
            frame = sys._getframe(1)
            if frame.f_code is R._principal_path.__code__:
                f = frame.f_locals
                seen.append((J, math.exp(f["y"][0]) / f["c"][0], f["J"][:, 0], n[0]))
            return n

        monkeypatch.setattr(R, "_face_normal", recorded)
        inputs = dict(verdict_check.five_moment_inputs())
        for name, fires in self.ESCAPES.items():
            prob = R._Problem(inputs[name])
            seen.clear()
            y = R._principal_path(prob, ACCEPT_TOL)
            assert (len(y) % 2 == 0) == fires, name
            if name in self.THIN:
                assert not seen and R._family_measure(prob.k, prob.values, ACCEPT_TOL)[0] == 0.0, name
                continue
            (J, zeta, J_0, n), = seen
            ref = np.linalg.svd(J)[0][:, -1]
            ref = zeta * abs(ref[0]) / np.abs(ref).sum()
            margin = abs(n @ J_0) / np.abs(n).sum()
            assert abs(margin - ref) <= 1e-6 * max(ref, ACCEPT_TOL), name
            assert fires == (ref <= ACCEPT_TOL), name

    def test_lyapunov_exterior_mirror_is_exterior(self):
        # The mirror t -> 1/t of perfbench/gen.py decide_round(1, 5)[10] (AM
        # r = 20, not attainable): c_15^16 > c_1^2 c_17^14 by e^7.  The path
        # raised on it.
        c = MomentVector((0.7060747680921439, 0.1256865876487643, 5.7875756323044135e-08,
                          4.331671292280859e-09, 6.179207241772299),
                         ExponentVector((0, 1, 15, 17, 20), 20))
        assert classify(c).kind is ClassKind.EXTERIOR


class TestGaussQuadrature:
    """The moments k! of e^(-t): the principal representation is a Gauss rule.

    For k = 0..2m-1 it is the m-point Gauss-Laguerre rule.  For k = 0..2m it
    is the Gauss-Radau rule with its fixed node at 0: the free nodes are the
    Gauss nodes x_i of t e^(-t), with weights lambda_i / x_i, and the zero
    atom takes the rest of c_0 = 1.
    """

    @staticmethod
    def _factorial_moments(d):
        k = tuple(range(d))
        return MomentVector(tuple(float(math.factorial(i)) for i in k), ExponentVector(k, d))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_gauss_laguerre(self, m):
        rep = principal_representation(self._factorial_moments(2 * m))
        nodes, weights = np.polynomial.laguerre.laggauss(m)
        assert rep.nodes == pytest.approx(nodes, rel=1e-12, abs=0)
        assert rep.weights == pytest.approx(weights, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_gauss_radau(self, m):
        rep = principal_representation(self._factorial_moments(2 * m + 1))
        nodes, lam = roots_genlaguerre(m, 1)
        weights = lam / nodes
        assert rep.nodes == pytest.approx((0.0, *nodes), rel=1e-12, abs=0)
        assert rep.weights == pytest.approx((1.0 - weights.sum(), *weights), rel=1e-12, abs=0)


class TestZeroAtomWithoutExponentZero:
    """Without exponent 0 a zero atom of the solver's system (whose exponents
    start at 0) is mass escaping to 0 in c's own system: the witness puts it
    at the node where its share of every other moment is FAR_KNOT_SHARE * tol,
    for every d, and it counts as a whole atom.  Where a moment above the
    first is 0, no node fits and c is exterior."""

    def test_zero_moment_above_the_first_is_exterior(self):
        # The lone zero atom: int u dmu = 1, int u^2 dmu = 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = classify(MomentVector((1.0, 0.0, 0.0), ExponentVector((1, 2, 3), 20)))
        assert result.kind is ClassKind.EXTERIOR

    def test_zero_atom_becomes_an_atom_near_0(self):
        # The (0..3) moments of delta_0 + delta_1 on (1..4): (1e-10, 1e10)
        # plus (1, 1) reproduces c to 1e-10, a measure of index 2 = d/2.
        c = MomentVector((2.0, 1.0, 1.0, 1.0), ExponentVector((1, 2, 3, 4), 20))
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR
        assert index_of(result.witness).twice == 4
        assert result.witness.nodes[0] == pytest.approx(1e-10, rel=1e-6)
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(c.values) - 1.0).max() <= ACCEPT_TOL

    # Two-atom measures whose lower atom is a zero atom of the solver's
    # system: c_{k_1} alone sees it, 1.5e-5 of c_2 for the first.  The
    # witness's atom near 0 stands for it; dropping it once missed c_{k_1},
    # and c read EXTERIOR.
    @pytest.mark.parametrize("atoms, ks, kind", [
        (((0.1000349923844542, 1.0741015374176726), (25.809309104196263, 1.1023823673269733)),
         (2, 4, 6, 8), ClassKind.INTERIOR),
        (((0.073, 0.13), (11.35, 7.4)), (2, 3, 6, 7), ClassKind.INTERIOR),
        (((0.073, 0.13), (11.35, 7.4)), (2, 5, 6, 7), ClassKind.INTERIOR),
        (((0.073, 0.13), (11.35, 7.4)), (1, 3, 5, 6), ClassKind.INTERIOR),
        (((0.073, 0.13), (11.35, 7.4)), (2, 3, 6, 7, 8), ClassKind.BOUNDARY),
        (((0.073, 0.13), (11.35, 7.4)), (1, 3, 5, 6, 7, 8), ClassKind.BOUNDARY),
    ])
    def test_measure_gets_its_class(self, atoms, ks, kind):
        k = ExponentVector(ks, 8)
        c = moments_of(Representation(tuple(Atom(u, w) for u, w in atoms)), k)
        result = classify(c)
        assert result.kind is kind
        back = np.asarray(moments_of(result.witness, k).values)
        assert np.abs(back / np.asarray(c.values) - 1.0).max() <= ACCEPT_TOL


FUZZ_DRAWS = 300


class TestExactMeasureFuzz:
    """The moment vector of a positive measure is never EXTERIOR: the first
    FUZZ_DRAWS draws of tests/verdict_check.py's fuzz, which runs them all.
    A typed NumericalFailureError is no verdict."""

    def test_no_exterior(self):
        results = {i: verdict_check.classified(c)
                   for i, c in verdict_check.exact_measures(FUZZ_DRAWS)}
        exterior = [i for i, result in results.items() if i not in verdict_check.KNOWN_EXTERIOR
                    and result is not None and result.kind is ClassKind.EXTERIOR]
        assert not exterior
        # Nor does a separating certificate fire on one, draw 17 included.
        assert not [i for i, result in results.items()
                    if result is not None and result.certificate is not None]

    @pytest.mark.parametrize("draw", [
        pytest.param(i, marks=pytest.mark.xfail(strict=True, reason=cause), id=f"draw{i}")
        for i, cause in verdict_check.KNOWN_EXTERIOR.items() if i < FUZZ_DRAWS])
    def test_known_exterior(self, draw):
        c = dict(verdict_check.exact_measures(draw + 1))[draw]
        assert verdict_check.kind_of(c) is not ClassKind.EXTERIOR


def _separations(monkeypatch):
    """The list that every later result of representations._separation joins."""
    R = kolmo.representations
    separation, asked = R._separation, []
    monkeypatch.setattr(R, "_separation", lambda *args: asked.append(separation(*args)) or asked[-1])
    return asked


def _assert_separates(certificate, c):
    """certificate separates c from the moment cone: λ·c = -margin Σ|λ_i c_i|
    with margin above tol, and p(t) = Σ λ_i t^k_i >= 0 near 0 and infinity
    (its end coefficients) and, to rounding, on a log grid from e^-7 below
    c's smallest moment ratio to e^7 above its largest."""
    lam, vals = np.asarray(certificate.coefficients), np.asarray(c.values)
    k = np.asarray(c.exponents.exponents, dtype=float)
    assert len(lam) == c.d and lam[0] >= 0 and lam[-1] >= 0
    margin = -(lam * vals).sum() / np.abs(lam * vals).sum()
    assert margin == pytest.approx(certificate.margin, rel=1e-9) and margin > ACCEPT_TOL
    ratios = np.diff(np.log(vals)) / np.diff(k)
    log_t = np.linspace(ratios.min() - 7, ratios.max() + 7, 2001)
    with np.errstate(divide="ignore"):
        L = np.log(np.abs(lam))[:, None] + np.outer(k, log_t)
    E = np.exp(L - L.max(axis=0))
    assert ((np.sign(lam) @ E) / E.sum(axis=0)).min() >= -1e-9


class TestSeparatingCertificate:
    """EXTERIOR settled by a polynomial p >= 0 on [0, inf) with λ·c < 0, which
    shows no measure within tol of c: first three consecutive moments that
    break Lyapunov's inequality, else the exit measure that misses c, whose
    polynomial has a double root at each node.  No polish runs then."""

    @pytest.mark.parametrize("lyapunov", [True, False], ids=["lyapunov-first", "exit-measure-only"])
    def test_moments_spread_exterior_is_certified(self, monkeypatch, lyapunov):
        # Every classify item labelled exterior with d = 3..6 in round 0 at
        # seeds 1-3 but item 38, which two atoms reproduce within tol.
        # The tracker solves an exit measure at c itself where its exit looks
        # like c's own; on these it never lands (item 57, k = (0,1,2,4,5,8),
        # at each seed), and the verdict is the certificate's.
        R = kolmo.representations
        if not lyapunov:
            monkeypatch.setattr(R, "_lyapunov", lambda *args: None)
        correct, polishes = R._correct, []
        monkeypatch.setattr(R, "_correct", lambda *args: polishes.append(
            sys._getframe(1).f_code.co_name == "_principal_path") or correct(*args))
        end_measure, ends = R._end_measure, []
        monkeypatch.setattr(R, "_end_measure", lambda *args: ends.append(end_measure(*args))
                            or ends[-1])
        gen = verdict_check.perfbench_gen()
        calls = 0
        for seed in (1, 2, 3):
            for item, doc in enumerate(gen.moments_round(seed, 0)):
                if doc["call"] == "classify" and doc["truth"] == "exterior" and len(doc["k"]) > 2 \
                        and item != 38:
                    c = MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), gen.MOMENT_R))
                    result = classify(c)
                    assert result.kind is ClassKind.EXTERIOR and result.witness is None
                    _assert_separates(result.certificate, c)
                    calls += 1
        assert calls == 69
        assert not any(polishes)
        assert len(ends) == 3 and not any(ends)

    def test_decide_mixed_certificates_in_original_coordinates(self):
        # The perturbed tuples of perfbench/gen.py decide_round(1, 0): exponent
        # systems with and without 0, moments over tens of decades.
        gen = verdict_check.perfbench_gen()
        certified = 0
        for doc in gen.decide_round(1, 0):
            c = moment_coordinates(verdict_check._norms(doc))
            result = verdict_check.classified(c)
            if result is not None and result.certificate is not None:
                assert not doc["attainable"] and result.kind is ClassKind.EXTERIOR
                _assert_separates(result.certificate, c)
                certified += 1
        assert certified >= 20

    def test_no_certificate_where_a_measure_is_within_tol(self, monkeypatch):
        # moments-spread round 0 item 38 at seed 1, labelled exterior, which
        # two atoms reproduce to 2.4e-9: its exit measure is asked, and does
        # not separate.  TestPolishStopKeepsTheVerdict asks the same of ROADMAP
        # item 22's attainable tuples.
        asked = _separations(monkeypatch)
        doc = verdict_check.perfbench_gen().moments_round(1, 0)[38]
        result = classify(MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), 8)))
        assert result.kind is ClassKind.BOUNDARY
        assert asked and all(mu is None for mu in asked)

    @pytest.mark.parametrize("lyapunov", [True, False], ids=["lyapunov-first", "exit-measure-only"])
    def test_three_moments_fire_where_lyapunov_fails(self, monkeypatch, lyapunov):
        """(0, a, b): the certificate fires exactly where Lyapunov's inequality
        c_a^b <= c_0^(b-a) c_b^a fails by more than tol in its margin m =
        (b-a)(w - c_0) / ((b-a) c_0 + (a+b) w), w the mass of the atom (u, w)
        through c_a and c_b, and p has its double root at u, whether the
        inequality itself or the exit measure, that atom, gives it.  The
        margin's rounding slack, below 1e-11 here, is kept clear of by 1e-3
        tol."""
        if not lyapunov:
            monkeypatch.setattr(kolmo.representations, "_lyapunov", lambda *args: None)
        rng = np.random.default_rng(11)
        fired = 0
        for _ in range(300):
            a, b = sorted(int(v) for v in rng.choice(np.arange(1, 21), 2, replace=False))
            u, w = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-3, 3)
            m = ACCEPT_TOL * 10.0 ** rng.uniform(-2, 2)
            if abs(m / ACCEPT_TOL - 1.0) < 1e-3:
                continue
            c0 = w * ((b - a) - m * (a + b)) / ((b - a) * (1.0 + m))
            c = MomentVector((c0, w * u ** a, w * u ** b), ExponentVector((0, a, b), 20))
            certificate = classify(c).certificate
            assert (certificate is not None) is (m > ACCEPT_TOL), (a, b, u, w, m)
            if certificate is None:
                continue
            fired += 1
            assert certificate.margin == pytest.approx(m, rel=1e-6)
            lam0, lam_a, lam_b = certificate.coefficients
            at_u = np.array([lam0, lam_a * u ** a, lam_b * u ** b])
            scale = np.abs(at_u).sum()
            assert abs(at_u.sum()) <= 1e-12 * scale  # p(u) = 0
            assert abs(a * at_u[1] + b * at_u[2]) <= 1e-12 * scale  # u p'(u) = 0
        assert 100 <= fired <= 200

    def test_lyapunov_settles_before_the_path(self, monkeypatch):
        # TestTrackerExit.C10: c_1^2 > c_0 c_2.
        R = kolmo.representations
        tracks, track = [], R._track
        monkeypatch.setattr(R, "_track", lambda *args: tracks.append(1) or track(*args))
        result = classify(TestTrackerExit.C10)
        assert result.kind is ClassKind.EXTERIOR and not tracks
        _assert_separates(result.certificate, TestTrackerExit.C10)
        assert np.flatnonzero(result.certificate.coefficients).tolist() == [0, 1, 2]

    def test_interior_and_boundary_carry_none(self):
        assert classify(C235).certificate is None
        result = classify(MomentVector((1.0, 2.0, 4.0), K012))  # one atom at 2
        assert result.kind is ClassKind.BOUNDARY and result.certificate is None


class TestNegativeMoment:
    """A negative moment c_i is separated by p(t) = t^k_i >= 0, margin 1,
    before any solve."""

    def test_moments_spread_pairs_are_certified(self, monkeypatch):
        # The d = 2 classify items with a negative moment of moments-spread
        # rounds 0-3 at seeds 1-3.
        def no_system(*args):
            raise AssertionError("a residual was formed")

        monkeypatch.setattr(kolmo.representations, "_system", no_system)
        pairs = list(verdict_check.negative_moment_pairs())
        assert len(pairs) == verdict_check.NEGATIVE_MOMENT_PAIRS == 72
        for name, c in pairs:
            result = classify(c)
            i = min(j for j, v in enumerate(c.values) if v < 0)
            assert result.kind is ClassKind.EXTERIOR and result.witness is None, name
            assert result.certificate == kolmo.representations.Certificate(
                tuple(float(j == i) for j in range(c.d)), 1.0), name

    def test_first_negative_moment_of_any_d(self):
        c = MomentVector((1.0, 2.0, -3.0, 4.0, -5.0), ExponentVector((1, 2, 4, 5, 7), 8))
        certificate = classify(c).certificate
        assert certificate.coefficients == (0.0, 0.0, 1.0, 0.0, 0.0)
        lam = np.asarray(certificate.coefficients)
        assert -(lam @ c.values) / np.abs(lam * c.values).sum() == certificate.margin == 1.0

    def test_zero_moment_is_no_certificate(self):
        # (1, 0, 1) is the limit of 1 at 0 plus ε^2 at 1/ε: no polynomial
        # separates it, and the zero-atom branch decides, as before.
        assert classify(MomentVector((1.0, 0.0, 1.0), K012)).certificate is None

    @pytest.mark.parametrize("tol", [1.0, 1.5])
    def test_no_certificate_from_tol_one(self, tol):
        # Margin 1 separates c by no more than tol: the zero atom reproduces
        # (1, -1) within tol, as it did before the certificate.
        result = classify(MomentVector((1.0, -1.0), ExponentVector((0, 1), 8)), tol)
        assert result.kind is ClassKind.BOUNDARY and result.certificate is None
        assert result.witness == Representation((Atom(0.0, 1.0),))


def _numpy_node_scale(c):
    """(m, values) of _Problem's node scaling in numpy arrays, or None where
    its float-range window is empty: the reference for its plain floats."""
    ks = c.exponents.exponents
    k = np.asarray(ks, dtype=float) - ks[0]
    vals = np.asarray(c.values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.diff(np.log(np.abs(vals))) / np.diff(k)
    ratios = ratios[(vals[:-1] > 0) & (vals[1:] > 0)]
    mid = (ratios.min() + ratios.max()) / 2 if len(ratios) else 0.0
    nz = (vals != 0) & (k > 0)
    log2, kz = np.log2(np.abs(vals[nz])), k[nz]
    lo = np.ceil((log2 - 1023) / kz).max(initial=-math.inf)
    hi = np.floor((log2 + 1021) / kz).min(initial=math.inf)
    if lo > hi:
        return None
    m = int(min(max(round(mid / math.log(2.0)), lo), hi))
    return m, np.ldexp(vals, (-m * k).astype(int))


def _problems_of_round_0(workload, seed):
    """Every moment vector that a _Problem is made of in the first round of
    a benchmark workload, called as perfbench/worker.py calls it.  The
    sweep lines of that round make none: for sweep-cli, the moment
    coordinates of their points."""
    R = kolmo.representations
    seen = []
    gen = verdict_check.perfbench_gen()
    if workload == "sweep-cli":
        for line in gen.sweep_round(seed, 0):
            doc = line["problem"]
            for first in np.linspace(line["from"], line["to"], line["steps"]):
                M = verdict_check._norms(dict(doc, M=[first] + doc["M"][1:]))
                seen.append(moment_coordinates(M))
        return seen

    class Recorded(R._Problem):
        def __init__(self, c):
            seen.append(c)
            super().__init__(c)

    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(os.path.dirname(gen.__file__))
        import worker

        patch.setattr(R, "_Problem", Recorded)
        for item in gen.ROUNDS[workload](seed, 0):
            worker.CALLS[workload](item)
    return seen


class TestNodeScaling:
    """_Problem's node scale 2^m and scaled moments, in plain floats, are
    those of the numpy reference bit for bit."""

    @staticmethod
    def _assert_reference(c):
        reference = _numpy_node_scale(c)
        if reference is None:
            with pytest.raises(NumericalFailureError, match="float range"):
                kolmo.representations._Problem(c)
            return None
        prob = kolmo.representations._Problem(c)
        m, values = reference
        assert prob.m == m
        assert prob.values.dtype == values.dtype and prob.values.tobytes() == values.tobytes()
        k = np.asarray(c.exponents.exponents, dtype=float) - c.exponents.exponents[0]
        assert prob.k.tobytes() == k.tobytes()
        return prob

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", ["decide-mixed", "sweep-cli", "moments-spread"])
    def test_benchmark_round_0(self, workload, seed):
        vectors = _problems_of_round_0(workload, seed)
        assert len(vectors) >= 20
        for c in vectors:
            self._assert_reference(c)

    @pytest.mark.parametrize("ks, values", [
        ((0, 1, 2), (1.0, 0.0, 2.0)),  # a zero moment
        ((0, 1, 2, 3), (1.0, -2.0, 3.0, 5.0)),  # a negative moment
        ((2, 3, 5, 8), (0.0, 3.0, 1e-9, 2e40)),  # a zero first moment
        ((0, 3), (-1.0, 0.0)),  # no ratio at all
        # moments near 2^-1000 and 2^1000
        ((0, 1, 2, 4), (math.ldexp(1.5, -1000), math.ldexp(1.25, 1000), 3.0, math.ldexp(1.0, -999))),
        ((1, 2, 6), (math.ldexp(1.0, 1000), math.ldexp(1.7, -1000), math.ldexp(1.0, 1000))),
    ])
    def test_edge_cases(self, ks, values):
        assert self._assert_reference(MomentVector(values, ExponentVector(ks, 8))) is not None

    @pytest.mark.parametrize("ks, exponents, m, scaled", [
        # The mid ratio puts m near 357, but 2^-1000 at k = 8 stays normal
        # only for m <= 2.
        ((0, 1, 8), (0, 1000, -1000), 2, None),
        # m = 50 by the mid ratio; 2^-1000 at k = 1 becomes the least normal
        # float at m = 21, 2^1000 the greatest power of 2 at m = -23.
        ((0, 1, 2), (0, -1000, 100), 21, (1, -1021)),
        ((0, 1, 2), (0, 1000, -100), -23, (1, 1023)),
    ])
    def test_clamped_window(self, ks, exponents, m, scaled):
        c = MomentVector(tuple(math.ldexp(1.0, e) for e in exponents), ExponentVector(ks, 8))
        prob = self._assert_reference(c)
        assert prob.m == m
        if scaled is not None:
            assert prob.values[scaled[0]] == math.ldexp(1.0, scaled[1])

    def test_empty_window(self):
        # 2^1020 at k = 1 needs m >= -3, and 2^-1070 at k = 2 needs m <= -25.
        c = MomentVector((1.0, math.ldexp(1.0, 1020), math.ldexp(1.0, -1070)), K012)
        assert _numpy_node_scale(c) is None
        assert self._assert_reference(c) is None


def _reference_system(y, k, target, log_s, dc=None):
    """F and J of _system, from whole-array expressions: the reference for
    its in-place kernel."""
    n = len(y) - (dc is not None)
    lz, lw, lu = kolmo.representations._unpack(y[:n])
    z, p = int(lz is not None), len(lw)
    R = np.zeros((len(k), z + p), np.longdouble)
    lw, lu = np.asarray(lw, np.longdouble), np.asarray(lu, np.longdouble)
    R[:, z:] = np.exp(np.minimum(lw[None, :] + k[:, None] * lu[None, :] - log_s[:, None], 300.0))
    if z:
        R[0, 0] = np.exp(np.minimum(np.longdouble(lz) - log_s[0], 300.0))
    if dc is not None:
        target = target + y[-1] * dc
    F = (R.sum(axis=1) - target * np.exp(-log_s.astype(np.longdouble))).astype(float)
    J = np.empty((len(k), len(y)))
    J[:, :z + p] = R
    np.multiply(k[:, None], J[:, z:z + p], out=J[:, z + p:n])
    if dc is not None:
        J[:, -1] = -dc * np.exp(-log_s)
    return F, J


class TestResidualKernel:
    """_relative and _system form their arrays bit for bit as the reference
    does, and _exit_measure is given _faces of the measure it exits."""

    def test_relative(self):
        R = kolmo.representations
        rng = np.random.default_rng(0)
        k = np.array([0.0, 1.0, 2.0, 4.0, 5.0])
        for p in [0, 1, 3]:
            lw, lu = rng.normal(0.0, 3.0, p), rng.normal(0.0, 40.0, p)
            log_s = rng.normal(0.0, 5.0, len(k))
            lw_ext, lu_ext = np.asarray(lw, np.longdouble), np.asarray(lu, np.longdouble)
            reference = np.exp(np.minimum(
                lw_ext[None, :] + k[:, None] * lu_ext[None, :] - log_s[:, None], 300.0))
            got = R._relative(lw, lu, k, log_s)
            # Equal values, not bytes: an extended float's padding bytes are
            # not part of it.
            assert got.dtype == reference.dtype and np.array_equal(got, reference)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("bordered", [False, True], ids=["plain", "bordered"])
    def test_bit_identical(self, n, bordered):
        R = kolmo.representations
        rng = np.random.default_rng(n)
        k = np.array([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 8.0])
        largest = 0.0
        for trial in range(50):
            y = rng.normal(0.0, 3.0, n)
            if trial % 5 < 2:  # at the e^300 cap: a zero atom (odd n), a positive atom
                y[trial % 5 * (n % 2)] = 400.0
            target = np.exp(rng.normal(0.0, 5.0, len(k)))
            log_s = R._log_scales(target)
            dc = rng.normal(0.0, 1.0, len(k)) * target if bordered else None
            if bordered:
                y = np.append(y, rng.uniform(0.0, 1.0))
            F, J = R._system(y, k, target, log_s, dc)
            F0, J0 = _reference_system(y, k, target, log_s, dc)
            assert F.tobytes() == F0.tobytes() and J.tobytes() == J0.tobytes()
            largest = max(largest, J0[:, :n].max())
            if not bordered:
                rhs = R._scaled_target(target, log_s)
                assert R._system(y, k, target, log_s, None, rhs)[0].tobytes() == F0.tobytes()
        assert largest > 1e130  # the cap, e^300, was met

    def test_bit_identical_at_the_root(self):
        # Where F cancels to its rounding floor, every extended-precision
        # rounding of R shows: the principal measures of moments-spread
        # round 0 at seed 1.
        R = kolmo.representations
        gen = verdict_check.perfbench_gen()
        roots = 0
        for doc in gen.moments_round(1, 0):
            if doc["call"] != "principal" or len(doc["k"]) < 3:
                continue
            prob = R._Problem(MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), 8)))
            y = R._principal_path(prob, ACCEPT_TOL)
            log_s = R._log_scales(prob.values)
            for args in [(y, prob.k, prob.values, log_s),
                         (np.append(y, 0.0), prob.k, prob.values, log_s, prob.values[::-1])]:
                F, J = R._system(*args)
                F0, J0 = _reference_system(*args)
                assert F.tobytes() == F0.tobytes() and J.tobytes() == J0.tobytes()
            assert np.abs(F).max() < 1e-14
            roots += 1
        assert roots >= 10

    @pytest.mark.parametrize("draw", [
        "track",  # exact-measure draw 17: the tracker's last-resort exit
        "thin",  # moments-spread round 0 item 49 at seed 1: the principal measure thinned
    ])
    def test_exit_measure_from_the_callers_faces(self, monkeypatch, draw):
        # Every caller passes _faces of the measure it exits, bit for bit: the
        # tracker's current point (its last resort) or the one its tangent
        # predicts, the principal measure thinned, or the thinning polished.
        R = kolmo.representations
        exit_measure, checked = R._exit_measure, []

        def bits(faces):
            (lz, lw, lu), costs, (mw, mu), order = faces
            return [None if lz is None else float(lz).hex()] + [
                (a.dtype.str, a.tobytes()) for a in (lw, lu, costs, mw, mu, order)]

        def checking(faces, k, log_s, drop=None, dy=None):
            caller = sys._getframe(1)
            name, f = caller.f_code.co_name, caller.f_locals
            if name == "_track" and drop is not None:
                exited = [f["y"] + (x - f["s"]) * f["tangent"] for x in (1.0, f["exits"][drop])]
            else:
                exited = [f["y"] if name == "_track" or drop is not None else f["y_thin"]]
            assert bits(faces) in [bits(R._faces(y, k, log_s)) for y in exited], name
            checked.append((name, drop))
            return exit_measure(faces, k, log_s, drop, dy)

        monkeypatch.setattr(R, "_exit_measure", checking)
        if draw == "track":
            classify(dict(verdict_check.exact_measures(18))[17])
            assert ("_track", None) in checked
        else:
            doc = verdict_check.perfbench_gen().moments_round(1, 0)[49]
            classify(MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), 8)))
            assert any(name == "_principal_path" and drop is not None for name, drop in checked)


def _decide_mixed_moments(item, lo=0, hi=None, seed=1):
    """Moment coordinates of perfbench/gen.py decide_round(seed, 0)[item],
    or of its norms lo:hi."""
    doc = verdict_check.perfbench_gen().decide_round(seed, 0)[item]
    k, M = doc["k"][lo:hi], doc["M"][lo:hi]
    return moment_coordinates(NormVector(tuple(M), ExponentVector(tuple(k), doc["r"]),
                                         FunctionFamily(Family(doc["family"]), doc["r"])))


class TestEndgame:
    """A path whose exit is predicted nearer c than the point it has reached
    solves the exit measure at c itself, instead of closing in on c, where a
    log weight falls a unit per step while 1 - s shrinks about 0.85-fold.
    An atom moving to infinity gets the far atom in closed form."""

    # The sub-tuples of perfbench/gen.py decide_round(1, 0)[item] that
    # decide_status classifies on a path, and a bound on their corrector
    # runs (in-path steps, landings, solves at c and polishes).  Closing in
    # on c, [48]'s took 53 and 38; [2] and [18] take what they took.
    @pytest.mark.parametrize("item, lo, hi, kind, bound", [
        (2, 1, 7, ClassKind.INTERIOR, 56),
        (18, 1, 7, ClassKind.INTERIOR, 74),
        (48, 2, 8, ClassKind.BOUNDARY, 24),
        (48, 1, 7, ClassKind.BOUNDARY, 6),
    ], ids=["item2", "item18", "item48-top", "item48-lower"])
    def test_tracked_sub_tuples(self, monkeypatch, item, lo, hi, kind, bound):
        R = kolmo.representations
        c = _decide_mixed_moments(item, lo, hi)
        runs, tracks = [], []
        correct, track = R._correct, R._track
        monkeypatch.setattr(R, "_correct", lambda *args: runs.append(1) or correct(*args))
        monkeypatch.setattr(R, "_track", lambda *args: tracks.append(1) or track(*args))
        result = classify(c)
        assert result.kind is kind and len(tracks) == 1
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / np.asarray(c.values) - 1.0).max() <= ACCEPT_TOL
        assert len(runs) <= bound

    @pytest.mark.parametrize("item", [2, 18, 48])
    def test_decide_status(self, item):
        doc = verdict_check.perfbench_gen().decide_round(1, 0)[item]
        assert decide_status(verdict_check._norms(doc))[0] is Status.ADMISSIBLE_BOUNDARY

    def test_exit_at_c_is_solved_there(self, monkeypatch):
        # decide_round(1, 0)[48]'s norms 2:8: at s = 0.80 a weight's loss is
        # predicted to vanish at c, and the measure without that atom,
        # solved against c, reproduces it to rounding.
        R = kolmo.representations
        c = _decide_mixed_moments(48, 2, 8)
        ended, track = [], R._track
        monkeypatch.setattr(R, "_track", lambda *args: ended.append(track(*args)) or ended[-1])
        assert classify(c).kind is ClassKind.BOUNDARY
        (s, y, polish), = ended
        assert s == 1.0 and polish and len(y) == 4
        prob = R._Problem(c)
        F = R._system(y, prob.k, prob.values, R._log_scales(prob.values))[0]
        assert np.abs(F).max() <= 1e-13

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_far_atom_at_the_far_node(self, monkeypatch, tol):
        # decide_round(1, 0)[37]'s norms 1:7: the top atom runs to infinity
        # as the path nears c.  The two atoms left fit the lower five
        # moments, and an atom at log_far_node's node carries 63 % of the
        # top one, with a share of FAR_KNOT_SHARE * tol of c_5, unpolished.
        R = kolmo.representations
        c = _decide_mixed_moments(37, 1, 7)
        ended, track = [], R._track
        monkeypatch.setattr(R, "_track", lambda *args: ended.append(track(*args)) or ended[-1])
        result = classify(c, tol)
        assert result.kind is ClassKind.INTERIOR and len(result.witness.atoms) == 3
        (s, y, polish), = ended
        assert s == 1.0 and not polish
        k = np.asarray(c.exponents.exponents, dtype=float)
        values = np.asarray(c.values)
        far = result.witness.atoms[-1]
        log_mass = math.log(far.weight) + k[-1] * math.log(far.node)
        assert math.log(far.node) == pytest.approx(
            R.log_far_node(log_mass, values[:-1], k[:-1] - k[-1], tol), rel=1e-12)
        shares = far.weight * far.node ** k / values
        assert shares[:-1].max() == pytest.approx(R.FAR_KNOT_SHARE * tol, rel=1e-9)
        assert 0.5 < shares[-1] < 0.7
        back = np.asarray(moments_of(result.witness, c.exponents).values)
        assert np.abs(back / values - 1.0).max() <= tol

    def test_each_loss_is_solved_at_c_once(self, monkeypatch):
        # perfbench/gen.py moments_round(1, 0)[38]: two atoms reproduce c to
        # 2.4e-9, not to the landing's 1e-10, so every solve at c misses,
        # and always at the same floor; once 11 solves, now one per loss.
        R = kolmo.representations
        doc = verdict_check.perfbench_gen().moments_round(1, 0)[38]
        c = MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), 8))
        end_measure, losses = R._end_measure, []
        monkeypatch.setattr(R, "_end_measure", lambda *args: losses.append(
            sys._getframe(1).f_locals["j"]) or end_measure(*args))
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY
        assert 1 <= len(losses) == len(set(losses)) <= 3

    @pytest.mark.parametrize("k, nodes, far", [
        ((0, 1, 2, 3, 4, 12), (0.5, 1.0), 10.0 ** 1.25),
        ((0, 1, 2, 3, 19, 20), (0.01, 0.011), None),
    ], ids=["apart", "merged"])
    def test_far_atom_needs_distinct_nodes(self, k, nodes, far):
        # Two atoms of mass 1 fit the lower moments exactly, and c_b's top
        # moment exceeds theirs by e = c_b's next one.  The atom carrying e
        # takes FAR_KNOT_SHARE * tol of that moment, so it sits at
        # 1e10^(1/g), g = k_d - k_(d-1): 10^1.25 for g = 8, and 1e10 for
        # g = 1, where 0.01 and 0.011 lie closer than NODE_MERGE_REL times
        # the largest node, which a Representation does not allow: no
        # measure, and the path tracks on.
        R = kolmo.representations
        k, u = np.asarray(k, dtype=float), np.asarray(nodes)
        moments = (u[None, :] ** k[:, None]).sum(axis=1)
        c_b = moments.copy()
        c_b[-1] += moments[-2]
        end = R._end_measure(np.concatenate([np.zeros(2), np.log(u)]), k, c_b, True, ACCEPT_TOL)
        if far is None:
            assert end is None
            return
        s, y, polish = end
        assert s == 1.0 and not polish
        assert np.exp(y[3:]) == pytest.approx(list(nodes) + [far], rel=1e-12)
        assert np.abs(R._system(y, k, c_b, R._log_scales(c_b))[0]).max() <= ACCEPT_TOL

    @pytest.mark.parametrize("draw", [565, 1033, 1063])
    def test_far_atom_only_on_the_face(self, draw):
        # Exact two-atom measures of tests/verdict_check.py without exponent
        # 0 (d = 5, so BOUNDARY).  Their lower moments lie within tol, not
        # within 1e-10, of a zero atom and one atom: a far atom added to that
        # measure on a fit within tol read them INTERIOR.
        c = dict(verdict_check.exact_measures(draw + 1))[draw]
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY and len(result.witness.atoms) == 2

    def test_decide_mixed_item_50(self):
        # decide_round(1, 0)[50], k = (2,5,6,7,12,15,19,20): an early form of
        # the far atom put it at 6e6, with nodes 0.018 and 0.022 within
        # NODE_MERGE_REL of it, and classify raised.
        result = classify(_decide_mixed_moments(50))
        assert result.kind is ClassKind.INTERIOR and len(result.witness.atoms) == 4


class TestZeroEndLyapunov:
    """A zero moment at the end of a consecutive triple a < b < e beside a
    positive c_b breaks Lyapunov's inequality c_b^(e-a) <= c_a^(e-b)
    c_e^(b-a): p(t) = t^a (λ_a + λ_b t^(b-a) + λ_e t^(e-a)) with a double
    root at u separates it, in closed form and before any solve."""

    def test_example(self):
        # c_1^2 > c_0 c_2 = 0: p(t) = (1 - t)^2, u = c_1 / c_0 = 1.
        result = classify(MomentVector((1.0, 1.0, 0.0, 1.0), ExponentVector((0, 1, 2, 3), 3)))
        assert result.kind is ClassKind.EXTERIOR and result.witness is None
        assert result.certificate.coefficients == (1.0, -2.0, 1.0, 0.0)
        assert result.certificate.margin == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_zero_between_positive_moments_is_no_certificate(self):
        # (1, 0, 1) keeps the inequality: it is the limit of 1 at 0 plus
        # ε^2 at 1/ε, which no polynomial separates.
        result = classify(MomentVector((1.0, 0.0, 1.0), K012))
        assert result.kind is ClassKind.EXTERIOR and result.certificate is None

    @pytest.mark.parametrize("zeros", ["low", "top", "both"])
    def test_closed_form(self, monkeypatch, zeros):
        # Margins: (e-b) / (e+b-2a) for a zero c_a (u from c_b and c_e),
        # (b-a) / (2e-a-b) for a zero c_e (u from c_a and c_b), 1 for both.
        def no_system(*args):
            raise AssertionError("a residual was formed")

        monkeypatch.setattr(kolmo.representations, "_system", no_system)
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, e = sorted(int(v) for v in rng.choice(np.arange(0, 21), 3, replace=False))
            values = 10.0 ** rng.uniform(-3, 3, 3)
            if zeros in ("low", "both"):
                values[0] = 0.0
            if zeros in ("top", "both"):
                values[2] = 0.0
            c = MomentVector(tuple(values), ExponentVector((a, b, e), 20))
            certificate = classify(c).certificate
            lam = np.asarray(certificate.coefficients)
            margin = {"low": (e - b) / (e + b - 2 * a), "top": (b - a) / (2 * e - a - b),
                      "both": 1.0}[zeros]
            assert certificate.margin == pytest.approx(margin, rel=1e-12)
            assert -(lam @ values) / np.abs(lam * values).sum() == pytest.approx(margin, rel=1e-12)
            # p >= 0: its end coefficients positive, its double root at u.
            assert lam[0] > 0 and lam[1] < 0 and lam[2] > 0
            if zeros == "low":
                t = (values[2] / values[1]) ** (1.0 / (e - b))
            elif zeros == "top":
                t = (values[1] / values[0]) ** (1.0 / (b - a))
            else:
                t = 1.0
            terms = lam * np.array([t ** a, t ** b, t ** e])
            assert abs(terms.sum()) <= 1e-12 * np.abs(terms).sum()  # p(u) = 0
            assert abs(terms @ [a, b, e]) <= 1e-12 * np.abs(terms).sum() * e  # u p'(u) = 0

    @pytest.mark.parametrize("values, k", [
        ((1.0, 1.0, 0.0), (0, 1, 20)),  # (b-a) / (2e-a-b) = 1/39
        ((0.0, 1.0, 1.0), (0, 19, 20)),  # (e-b) / (e+b-2a) = 1/39
    ], ids=["top", "low"])
    def test_fires_only_above_tol(self, values, k):
        c = MomentVector(values, ExponentVector(k, 20))
        assert classify(c, 0.9 / 39).certificate.margin == pytest.approx(1.0 / 39.0, rel=1e-12)
        assert classify(c, 1.1 / 39).certificate is None

    def test_inside_a_longer_vector(self):
        # The first triple that breaks the inequality gives p, here the last.
        c = MomentVector((1.0, 1.0, 2.0, 3.0, 0.0), ExponentVector((0, 1, 3, 4, 6), 8))
        certificate = classify(c).certificate
        assert np.flatnonzero(certificate.coefficients).tolist() == [2, 3, 4]
        assert certificate.margin == pytest.approx((4 - 3) / (2 * 6 - 3 - 4), rel=1e-12)


README_TUPLE = NormVector((1.0, 2.0, 2.0), K012, FunctionFamily(Family.MM, 2))
# d <= 2 is the recursion's base case, which compares no norms.
BASE_CASE_PAIR = NormVector((1.0, 1.0), ExponentVector((1, 2), 2), FunctionFamily(Family.MM, 2))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("entry", [
    lambda tol: classify(C235, tol),
    lambda tol: principal_representation(C235, tol),
    lambda tol: canonical_representation(C235, 1.0, tol),
    lambda tol: oracle.cone_membership(C235, tol),
    lambda tol: decide_admissible(README_TUPLE, tol),
    lambda tol: decide_status(README_TUPLE, tol),
    lambda tol: decide_status(BASE_CASE_PAIR, tol),
], ids=["classify", "principal", "canonical", "cone_membership", "decide", "decide_status",
        "decide_status_base_case"])
def test_tolerance_must_be_finite_and_positive(entry, tol):
    # At tol = inf every c would be reproduced by any thin measure: classify
    # called (2, 3, 5) BOUNDARY and decide the README tuple interior.
    with pytest.raises(DomainError):
        entry(tol)


def test_solver_uses_no_oracle_and_no_scipy():
    """The oracle stays an independent cross-check of the structure solves."""
    for name, value in vars(kolmo.representations).items():
        origin = value.__name__ if isinstance(value, types.ModuleType) else getattr(
            value, "__module__", None) or ""
        assert not origin.startswith("scipy"), name
        assert value is not oracle.cone_membership, name


# Measures on a node grid of ratio 2 in [0.25, 8]: separated enough that a
# relative change of 1e-6 moves a vector out of ACCEPT_TOL of another verdict.
def _measure(draw, n_pos, with_zero):
    steps = sorted(draw(st.lists(
        st.integers(0, 5), min_size=n_pos, max_size=n_pos, unique=True)))
    weights = draw(st.lists(
        st.floats(0.5, 2.0), min_size=n_pos + with_zero, max_size=n_pos + with_zero))
    atoms = [Atom(0.25 * 2.0 ** j, w) for j, w in zip(steps, weights)]
    if with_zero:
        atoms.append(Atom(0.0, weights[-1]))
    return Representation(tuple(atoms))


def _exponents(draw, d):
    rest = draw(st.lists(st.integers(1, 8), min_size=d - 1, max_size=d - 1, unique=True))
    return ExponentVector((0, *sorted(rest)), 8)


@st.composite
def _classified(draw):
    """A moment vector with its verdict known by construction.

    Interior: a measure of the principal structure.  Boundary: one atom
    less.  Exterior: that boundary vector with moment 0 lowered, which a
    nonnegative polynomial vanishing on its atoms (but not at 0) separates
    from the cone.
    """
    d = draw(st.integers(3, 5))
    k = _exponents(draw, d)
    kind = draw(st.sampled_from(list(ClassKind)[1:]))
    if kind is ClassKind.INTERIOR:
        rep = _measure(draw, d // 2, d % 2 == 1)
        return moments_of(rep, k), kind
    rep = _measure(draw, (d - 1) // 2, False)
    vals = list(moments_of(rep, k).values)
    if kind is ClassKind.EXTERIOR:
        vals[0] *= draw(st.floats(0.5, 0.9))
    return MomentVector(tuple(vals), k), kind


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_classified(), st.floats(1e-3, 1e3), st.floats(1e-2, 1e2))
def test_verdict_invariant_under_weight_and_node_scaling(case, lam, scale):
    c, kind = case
    scaled = MomentVector(
        tuple(lam * scale ** ki * ci for ci, ki in zip(c.values, c.exponents.exponents)),
        c.exponents,
    )
    assert classify(c).kind is kind
    assert classify(scaled).kind is kind


@st.composite
def _pinned(draw):
    """A measure of the pinned structure (index (d+1)/2) and one of its nodes."""
    d = draw(st.integers(2, 5))
    k = _exponents(draw, d)
    rep = _measure(draw, (d + 1) // 2, d % 2 == 0)
    nodes = [a.node for a in rep.atoms if a.node > 0]
    return moments_of(rep, k), draw(st.sampled_from(nodes))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_pinned())
def test_canonical_mass_is_maximal(case):
    c, t_star = case
    try:
        rep = canonical_representation(c, t_star)
    except PinnedNodeCoincidenceError:
        return
    w_star = next(a.weight for a in rep.atoms if a.node == t_star)
    v = np.asarray(moments_of(Representation((Atom(t_star, 1.0),)), c.exponents).values)

    def minus(mass):
        return MomentVector(tuple(np.asarray(c.values) - mass * v), c.exponents)

    # On either side of the maximal mass the vector moves from the boundary
    # by 1e-6 of w* v(t*) less what the boundary's tangent absorbs, which can
    # fall below ACCEPT_TOL (k = (0,1,2,3,4), t* = 0.25: below it, c lies
    # within ACCEPT_TOL of two atoms); a tighter tolerance tells either side
    # from a boundary vector.
    assert classify(minus((1 - 1e-6) * w_star), tol=1e-12).kind is ClassKind.INTERIOR
    assert classify(minus((1 + 1e-6) * w_star), tol=1e-12).kind is ClassKind.EXTERIOR


def _hankel_margins(c):
    """Smallest eigenvalues of the Stieltjes Hankel matrices [c_(i+j)] and
    [c_(i+j+1)] of c_0..c_(d-1), after balancing c_i -> c_i s^i (first and
    last equal) and scaling each matrix to unit diagonal."""
    d = len(c)
    c = c * (c[0] / c[-1]) ** (np.arange(d) / max(d - 1, 1))
    margins = []
    for shift, size in ((0, (d + 1) // 2), (1, d // 2)):
        H = np.array([[c[i + j + shift] for j in range(size)] for i in range(size)])
        scale = 1.0 / np.sqrt(np.diag(H))
        margins.append(float(np.linalg.eigvalsh(H * np.outer(scale, scale)).min()))
    return margins


def test_classify_agrees_with_hankel_positivity():
    """For k = (0, ..., d-1), c is interior exactly when both Hankel matrices
    of the truncated Stieltjes moment problem are positive definite."""
    rng = np.random.default_rng(7)
    band = 1e-6
    agreed = {ClassKind.INTERIOR: 0, ClassKind.EXTERIOR: 0}
    for _ in range(400):
        d = int(rng.integers(2, 7))
        n_pos = int(rng.integers(1, 4))
        nodes = rng.uniform(0.05, 20.0, n_pos)
        weights = rng.uniform(0.2, 3.0, n_pos)
        vals = (weights[None, :] * nodes[None, :] ** np.arange(d)[:, None]).sum(axis=1)
        if rng.integers(0, 2):
            vals[0] += rng.uniform(0.2, 3.0)  # an atom at 0
        if rng.random() < 0.5:
            vals = vals * (1.0 + rng.uniform(-0.3, 0.3, d))
        margin = min(_hankel_margins(vals))
        if abs(margin) <= band:
            continue
        want = ClassKind.INTERIOR if margin > 0 else ClassKind.EXTERIOR
        c = MomentVector(tuple(vals), ExponentVector(tuple(range(d)), 8))
        assert classify(c).kind is want, c
        agreed[want] += 1
    assert min(agreed.values()) >= 100, agreed


def _lyapunov_draws(n, seed):
    """k = (a, b, c) in 0..20 and positive c_a, c_b, c_c: natural log-moments
    of c_a and c_c in ±20, and log c_b a log-gap of 1e-5..10 below (interior)
    or above (exterior) the one-atom value, where the Lyapunov inequality
    c_b^(c-a) <= c_a^(c-b) c_c^(b-a) holds with equality."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a, b, c = sorted(int(v) for v in rng.choice(21, 3, replace=False))
        la, lc = rng.uniform(-20, 20, 2)
        gap = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-5, 1)
        lb = ((c - b) * la + (b - a) * lc) / (c - a) - gap
        yield ExponentVector((a, b, c), 20), (math.exp(la), math.exp(lb), math.exp(lc)), gap > 0


def test_classify_agrees_with_lyapunov():
    """Three moments, any exponents: c is interior exactly when the Lyapunov
    inequality is strict, exterior when it fails."""
    for k, vals, interior in _lyapunov_draws(300, 5):
        c = MomentVector(vals, k)
        assert classify(c).kind is (ClassKind.INTERIOR if interior else ClassKind.EXTERIOR), c


def test_classify_keeps_its_side_over_the_float_range():
    """k = (0, 1, 2) with log10-moments in ±300 and c_0 c_2 at least 1e-5
    away from c_1^2 relative: classify is INTERIOR above, EXTERIOR below, or
    raises NumericalFailureError where floats cannot hold the solve."""
    rng = np.random.default_rng(6)
    top = 300 * math.log(10)
    drawn, raised = 0, []
    while drawn < 300:
        l0, l2 = rng.uniform(-top, top, 2)
        gap = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1.00001e-5), math.log(2 * top)))
        l1 = (l0 + l2 - gap) / 2
        if abs(l1) > top:
            continue
        drawn += 1
        c = MomentVector((math.exp(l0), math.exp(l1), math.exp(l2)), K012)
        try:
            kind = classify(c).kind
        except NumericalFailureError:
            raised.append(c)
            continue
        assert kind is (ClassKind.INTERIOR if gap > 0 else ClassKind.EXTERIOR), c
    assert len(raised) <= 5, raised


@pytest.mark.parametrize("lam", [1e-300, 1e-100, 1e100, 1e131, 1e200, 1e300])
@pytest.mark.parametrize("ks, atoms", [
    ((0, 1, 2), ((0.0, 0.2), (5 / 3, 1.8))),
    ((0, 2, 5), ((0.0, 1.0), (2.0, 0.5))),
    ((0, 1, 2, 3), ((0.5, 1.0), (3.0, 2.0))),
])
def test_weight_scaling_over_the_float_range(ks, atoms, lam):
    """λc has c's verdict and c's atoms with their weights times λ.  Past
    λ ~ 1e130 the start measure's moments exceed e^300."""
    c = moments_of(Representation(tuple(Atom(u, w) for u, w in atoms)), ExponentVector(ks, 8))
    scaled = MomentVector(tuple(lam * v for v in c.values), c.exponents)
    assert classify(scaled).kind is classify(c).kind is ClassKind.INTERIOR
    for solve in (lambda v: classify(v).witness, principal_representation):
        for got, want in zip(solve(scaled).atoms, solve(c).atoms, strict=True):
            assert got.node == pytest.approx(want.node, rel=1e-12)
            assert got.weight == pytest.approx(lam * want.weight, rel=1e-12)
