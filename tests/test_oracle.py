"""Brute-force cone oracle: NNLS feasibility verdict and residual."""
import warnings

import numpy as np
import pytest

from kolmo import (
    Atom,
    DomainError,
    ExponentVector,
    MomentVector,
    Representation,
    cone_membership,
    moments_of,
)
from kolmo.oracle import _t_max

K012 = ExponentVector((0, 1, 2), 2)


class TestTMaxHeuristic:
    def test_single_atom_bracketing(self):
        rep = Representation((Atom(3.0, 2.0),))
        c = moments_of(rep, K012)
        assert _t_max(c) == pytest.approx(30.0)

    def test_degenerate_input_falls_back(self):
        c = MomentVector((1.0, 0.0, 0.0), K012)
        assert _t_max(c) == pytest.approx(10.0)


class TestConeMembership:
    def test_feasible_point(self):
        report = cone_membership(MomentVector((2.0, 3.0, 5.0), K012))
        assert report.feasible
        assert report.residual <= 1e-7

    def test_infeasible_point(self):
        # c1^2 > c0 * c2 violates Cauchy-Schwarz for any measure.
        report = cone_membership(MomentVector((1.0, 2.0, 3.0), K012))
        assert not report.feasible
        assert report.residual > 1e-4

    def test_scaling_invariance_of_feasibility(self):
        base = (2.0, 3.0, 5.0)
        for s in (1e-4, 1.0, 1e4):
            scaled = MomentVector(tuple(v * s for v in base), K012)
            assert cone_membership(scaled).feasible

    def test_three_atom_measures_are_feasible(self):
        rng = np.random.default_rng(7)
        k = ExponentVector((0, 1, 3, 5), 8)
        for _ in range(20):
            nodes = np.sort(rng.uniform(0.2, 5.0, 3))
            rep = Representation(
                tuple(Atom(float(t), float(rng.uniform(0.5, 2.0))) for t in nodes)
            )
            assert cone_membership(moments_of(rep, k)).feasible

    @pytest.mark.parametrize("values, k, feasible", [
        # c_1^2 > c_0 c_2, with squares of c past the float range.
        ((1e-300, 1e300, 1e300), K012, False),
        # One atom at 1e12: squares of its grid column pass the float range.
        ((1.0, 1e240), ExponentVector((0, 20), 20), True),
    ], ids=["exterior", "one-atom"])
    def test_norms_do_not_overflow(self, values, k, feasible):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cone_membership(MomentVector(values, k))
        assert report.feasible is feasible
        assert (report.residual <= 1e-7) if feasible else (report.residual > 1e-4)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(DomainError):
            cone_membership(MomentVector((2.0, 3.0, 5.0), K012), tol=0.0)


def test_scipy_is_imported_on_first_oracle_call(fresh_python):
    """The CLI loads without scipy; the oracle imports it when it runs."""
    fresh_python(
        "import sys, kolmo.cli\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        "from kolmo import ExponentVector, MomentVector, cone_membership\n"
        "assert cone_membership(MomentVector((2.0, 3.0, 5.0), ExponentVector((0, 1, 2), 2))).feasible\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
