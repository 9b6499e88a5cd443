"""Unit tests for the Eq. 10 partitioning-ratio solver."""

import numpy as np
import pytest

from repro.core.ratio import (
    PATH_BISECTION,
    PATH_LINEAR,
    PATH_MINIMAX,
    PATH_QUADRATIC,
    RATIO_HI,
    RATIO_LO,
    solve_balanced_ratio,
    solve_balanced_ratio_poly_batch,
)


class TestSolveBalancedRatio:
    def test_symmetric_costs_give_half(self):
        alpha = solve_balanced_ratio(lambda a: (a, 1.0 - a))
        assert alpha == pytest.approx(0.5, abs=1e-6)

    def test_linear_heterogeneous_closed_form(self):
        # cost_i = alpha / 3, cost_j = (1-alpha) / 1 -> alpha = 3/4
        alpha = solve_balanced_ratio(lambda a: (a / 3.0, (1.0 - a) / 1.0))
        assert alpha == pytest.approx(0.75, abs=1e-6)

    def test_affine_offsets(self):
        # cost_i = 2 + alpha, cost_j = 4 + (1-alpha) -> alpha = 1.5 -> clamp?
        # solve: 2 + a = 4 + 1 - a -> a = 1.5 (out of range) -> scan fallback
        alpha = solve_balanced_ratio(lambda a: (2.0 + a, 4.0 + (1.0 - a)))
        assert alpha == pytest.approx(RATIO_HI, abs=1e-2)

    def test_quadratic_cross_term_still_solves(self):
        # includes the alpha*beta inter-layer term of Table 5
        def pair(a):
            b = 1.0 - a
            return (a / 2.0 + a * b * 0.1, b / 1.0 + a * b * 0.1)

        alpha = solve_balanced_ratio(pair)
        ci, cj = pair(alpha)
        assert ci == pytest.approx(cj, rel=1e-6)

    def test_dominant_party_falls_back_to_minimax(self):
        # party i is always more expensive: minimize max -> push alpha low
        alpha = solve_balanced_ratio(lambda a: (10.0 + a, 0.1 * (1.0 - a)))
        assert alpha == pytest.approx(RATIO_LO, abs=0.02)

    def test_result_within_bounds(self):
        alpha = solve_balanced_ratio(lambda a: (a * 1e6, (1.0 - a) * 1e-6))
        assert RATIO_LO <= alpha <= RATIO_HI

    def test_invalid_bracket_raises(self):
        with pytest.raises(ValueError):
            solve_balanced_ratio(lambda a: (a, 1 - a), lo=0.9, hi=0.1)

    def test_exact_boundary_roots(self):
        # residual zero exactly at lo
        alpha = solve_balanced_ratio(lambda a: (0.0, 0.0), lo=0.25, hi=0.75)
        assert alpha == 0.25


#: (const_i, lin_i, quad_i, const_j, lin_j, quad_j) per cell, and the α
#: each cell was solved to (``float.hex``), recorded when the leftover
#: cells still went through a scalar copy of the closed form
LEFTOVER_CELLS = [
    # a sign change whose affine root rounds outside the bracket: checked
    # bisection
    (("0x1.0db0875246325p-36", "0x1.4d8bd5b5aa268p-36", "0x0.0p+0",
      "0x1.a5a298ecaefb0p-35", "-0x1.e137a143ccab5p-37", "0x0.0p+0"),
     "0x1.ff7ced9128938p-1"),
    (("0x1.e8071ff726ae9p-38", "0x1.58b10704789e7p-37", "0x0.0p+0",
      "0x1.7e7f40d9ecc12p-36", "-0x1.619ed7aeb3954p-38", "0x0.0p+0"),
     "0x1.ff7ced9128938p-1"),
    (("0x1.1f1f77a9839c1p-17", "0x1.edb7a805d369fp-19", "0x0.0p+0",
      "0x1.a3da8e2dc3cf8p-16", "-0x1.adb5551eed76fp-17", "0x0.0p+0"),
     "0x1.ff7ced9128938p-1"),
    # same residual sign at both ends around two interior roots:
    # golden-section minimax; g = (α-0.3)(α-0.6), then one whose optimum
    # is interior
    ((1.18, 0.1, 0.0, 1.0, 0.0, 1.0), "0x1.0624dd2f1a9fcp-10"),
    ((1.0, 0.0, -2.0, 0.4, 0.4, 0.0), "0x1.6b927eff964bfp-2"),
    # closed forms the batch answers itself: affine, quadratic, endpoint
    # minimax
    ((0.0, 1.0, 0.0, 1.0, -1.0, 0.0), "0x1.0000000000000p-1"),
    ((0.0, 0.5, 0.3, 1.0, -1.0, 0.1), "0x1.458684f509601p-1"),
    ((10.0, 1.0, 0.0, 0.1, -0.1, 0.0), "0x1.0624dd2f1a9fcp-10"),
]


class TestBatchLeftovers:
    def test_leftover_cells_pinned(self):
        """Cells the batched closed form leaves open reach the golden-
        section search or the checked bisection with α unchanged to the
        bit, and each is counted on its path."""
        coeffs = np.array([[float.fromhex(c) if isinstance(c, str) else c
                            for c in cell] for cell, _ in LEFTOVER_CELLS])
        alpha, counts = solve_balanced_ratio_poly_batch(
            *coeffs.T.reshape(6, 2, 4))
        assert alpha.shape == (2, 4)
        assert [float(a).hex() for a in alpha.flat] == [
            float.fromhex(expected).hex() for _, expected in LEFTOVER_CELLS]
        assert counts == {PATH_LINEAR: 1, PATH_QUADRATIC: 1,
                          PATH_BISECTION: 3, PATH_MINIMAX: 3}
