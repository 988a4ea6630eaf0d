"""Exact structure solves: classification, principal and pinned representations."""
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolmo import (
    Atom,
    DomainError,
    ExponentVector,
    Family,
    FunctionFamily,
    InconsistencyError,
    MomentVector,
    NormVector,
    NotInteriorError,
    PinnedNodeCoincidenceError,
    Representation,
    UnsupportedSystemError,
    canonical_representation,
    classify,
    decide_admissible,
    index_of,
    minimal_index,
    moments_of,
    principal_representation,
    spline_from_representation,
)
import kolmo.representations
from kolmo import oracle
from kolmo.representations import ClassKind

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

    def test_odd_system_without_exponent_zero_gets_canonical_witness(self):
        # No index-3/2 structure without exponent 0: the witness has index 2,
        # pinned at twice the largest principal root, and is decide's AM witness.
        c = MomentVector((2.0, 3.0, 5.0), ExponentVector((1, 2, 3), 3))
        result = classify(c)
        assert result.kind is ClassKind.INTERIOR
        assert index_of(result.witness).twice == 4
        witness = decide_admissible(NormVector(c.values, c.exponents, AM3)).witness
        assert spline_from_representation(result.witness, AM3) == witness
        assert witness.knots == pytest.approx((11.0 / 15.0, 0.3), rel=1e-12)


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

    def test_zero_vector_has_index_zero(self):
        idx, rep = minimal_index(MomentVector((0.0, 0.0, 0.0), K012))
        assert idx.twice == 0
        assert rep == Representation(())


class TestLowestStructure:
    """The lowest-index structure, as ``classify`` and ``minimal_index`` read it."""

    def test_interior_vector_needs_principal_index(self):
        idx, rep = minimal_index(C235)
        assert idx.twice == 3
        assert rep == classify(C235).witness
        assert rep.has_zero_atom

    def test_single_atom(self):
        c = moments_of(Representation((Atom(2.0, 1.0),)), K012)
        result = classify(c)
        assert result.kind is ClassKind.BOUNDARY
        assert len(result.witness) == 1
        assert result.witness.atoms[0].node == pytest.approx(2.0, rel=1e-8)

    def test_exterior_vector_has_no_structure(self):
        c = MomentVector((1.0, 2.0, 3.0), K012)
        assert classify(c).witness is None
        with pytest.raises(InconsistencyError):
            minimal_index(c)

    @pytest.mark.filterwarnings("error")
    def test_zero_moment_row_weight_stays_finite(self):
        # Equation scales are relative, but a zero moment's is floored, so
        # the weighted system of a positive atom neither overflows nor fits.
        assert classify(MomentVector((1.0, 0.0, 1.0), K012)).witness is None

    def test_zero_atom_structures_need_exponent_zero(self):
        # Without exponent 0 only even indices exist: index 1/2 is skipped.
        k = ExponentVector((1, 2), 2)
        c = moments_of(Representation((Atom(2.0, 1.0),)), k)
        idx, rep = minimal_index(c)
        assert idx.twice == 2
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


class TestTrackerExit:
    """Every exit of the tracker is landed by one bordered Newton solve."""

    # Oracle-suite case 436 (default seed): a node runs to infinity at
    # s = 0.5117.  Only a step below NEWTON_TOL once ended that path, after
    # about 200 corrector calls.
    C436 = MomentVector((5.562467355532347, 33.87486849636027, 258.85281275009135,
                         4791822.853040424, 47017567.068835765),
                        ExponentVector((0, 1, 2, 7, 8), 8))

    def test_node_running_off_is_landed(self, monkeypatch):
        calls = []
        correct = kolmo.representations._correct
        monkeypatch.setattr(kolmo.representations, "_correct",
                            lambda *args: calls.append(args[5]) or correct(*args))
        assert classify(self.C436).kind is ClassKind.EXTERIOR
        # At most 10 tracker steps, then the landing and the polish.
        assert len(calls) <= 12, calls
        assert kolmo.representations.LAND_ITER in calls


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


README_TUPLE = NormVector((1.0, 2.0, 2.0), K012, FunctionFamily(Family.MM, 2))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("entry", [
    lambda tol: classify(C235, tol),
    lambda tol: principal_representation(C235, tol),
    lambda tol: canonical_representation(C235, 1.0, tol),
    lambda tol: oracle.cone_membership(C235, tol),
    lambda tol: decide_admissible(README_TUPLE, tol),
], ids=["classify", "principal", "canonical", "cone_membership", "decide"])
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

    assert classify(minus((1 - 1e-6) * w_star)).kind is ClassKind.INTERIOR
    # Past the maximal mass the vector leaves the cone by 1e-6 of w* v(t*)
    # less what the boundary's tangent absorbs, which can fall below
    # ACCEPT_TOL; a tighter tolerance tells it from a boundary vector.
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
