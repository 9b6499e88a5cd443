"""Partitioning-ratio solver (Section 5.3, Eq. 10).

AccPar balances the sum of computation and communication cost between the
two parties of a split: find α with

    cost_i(α) = cost_j(1 - α).

Per Tables 4-6 each party's cost is at most *quadratic* in α: computation
and the F/E boundary moves are affine, and only the Type-I→Type-II and
Type-III→Type-I inter-layer terms contribute the α·β = α(1-α) cross term
(Table 5).  The balance equation therefore has a closed form — a linear
solve for affine transitions, the quadratic formula for the cross
transitions — which :func:`solve_balanced_ratio_poly_batch` applies to
every cell of a level at once.  The bracketed bisection
(:func:`solve_balanced_ratio`) is kept both as the generic closure-based
API and as the *checked fallback*: whenever the closed form produces no
admissible root, the solver falls back to it rather than guessing.

When the balance residual never changes sign on the bracket (one party
dominates at every admissible ratio) there is no balanced α; the slower
party's cost is then minimized at an endpoint, or by golden-section search
when the residual dips through zero inside the bracket.

Between two identical parties the balance is the even split, by symmetry
(:func:`symmetric_balanced_ratio`), and no equation is solved.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

from ..obs.tracing import span

#: ratios are kept strictly inside (0, 1); a zero share would be a degenerate
#: "partition" the basic types do not model
RATIO_LO = 1e-3
RATIO_HI = 1.0 - 1e-3

PairCostFn = Callable[[float], Tuple[float, float]]

#: solver paths (counter suffixes): how a balanced ratio was obtained
PATH_LINEAR = "closed_linear"
PATH_QUADRATIC = "closed_quadratic"
PATH_BISECTION = "bisection_fallback"
PATH_MINIMAX = "minimax"

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def solve_balanced_ratio_poly_batch(
    const_i,
    lin_i,
    quad_i,
    const_j,
    lin_j,
    quad_j,
    lo: float = RATIO_LO,
    hi: float = RATIO_HI,
):
    """Closed-form Eq. 10 over arrays of coefficients; ``(α array, path counts)``.

    Each cell's two party costs are ``const + lin·α + quad·α(1-α)``, so its
    residual ``g(α) = ΔA + ΔB·α + ΔC·α(1-α)`` is affine or quadratic.
    :meth:`~repro.core.cost_model.PairCostModel.pack_step_tensors` solves
    every (layer, family, type) balance problem of a level in one call:

    * endpoint residuals exactly zero → that endpoint (linear path);
    * residual sign unchanged across the bracket → the slower party's cost
      is affine or concave there, so its minimum is the cheaper endpoint
      (ties keep ``lo``) — unless a root of the quadratic residual sits
      strictly inside the bracket (a rare interior double root), which
      goes to the golden-section search :func:`_minimize_pair_max`;
    * affine residual → ``-ΔA/ΔB`` when admissible;
    * quadratic residual → ``-ΔC·α² + (ΔB+ΔC)·α + ΔA = 0`` by the
      numerically stable two-branch (citardauq) formula, the first
      admissible root winning; a sign change brackets exactly one;
    * anything left (degenerate floats, inadmissible roots) → the checked
      bisection :func:`solve_balanced_ratio`.

    ``counts`` maps the :data:`PATH_LINEAR` /... constants to how many
    elements each solver path answered, for the caller's counters.
    """
    import numpy as np

    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ab = lo * (1.0 - lo)
        ci_lo = const_i + lin_i * lo + quad_i * ab
        cj_lo = const_j + lin_j * lo + quad_j * ab
        ab = hi * (1.0 - hi)
        ci_hi = const_i + lin_i * hi + quad_i * ab
        cj_hi = const_j + lin_j * hi + quad_j * ab
        g_lo = ci_lo - cj_lo
        g_hi = ci_hi - cj_hi

        alpha = np.empty_like(g_lo)
        alpha.fill(np.nan)
        counts = {PATH_LINEAR: 0, PATH_QUADRATIC: 0,
                  PATH_BISECTION: 0, PATH_MINIMAX: 0}

        at_lo = g_lo == 0.0
        at_hi = ~at_lo & (g_hi == 0.0)
        alpha[at_lo] = lo
        alpha[at_hi] = hi
        open_mask = ~(at_lo | at_hi)

        d_a = const_i - const_j
        d_b = lin_i - lin_j
        d_c = quad_i - quad_j

        # citardauq machinery, shared by the minimax guard and the root
        # branch: a·α² + b·α + c = 0 with a = ΔC, b = -(ΔB+ΔC), c = -ΔA
        a = d_c
        b = -(d_b + d_c)
        c = -d_a
        disc = b * b - 4.0 * a * c
        sqrt_d = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        q = np.where(b != 0.0, -0.5 * (b + np.copysign(sqrt_d, b)),
                     -0.5 * sqrt_d)
        r1 = np.where(a != 0.0, q / a, np.inf)
        r2 = np.where(q != 0.0, c / q, np.inf)

        # same residual sign at both endpoints: endpoint minimax, except the
        # interior-double-root case which needs the golden-section fallback
        same_sign = open_mask & (g_lo * g_hi > 0.0)
        interior = ((lo < r1) & (r1 < hi)) | ((lo < r2) & (r2 < hi))
        golden = same_sign & (d_c != 0.0) & (disc > 0.0) & interior
        endpoint = same_sign & ~golden
        v_lo = np.maximum(ci_lo, cj_lo)
        v_hi = np.maximum(ci_hi, cj_hi)
        alpha[endpoint] = np.where(v_lo <= v_hi, lo, hi)[endpoint]
        counts[PATH_MINIMAX] += int(np.count_nonzero(endpoint))

        # a sign change brackets exactly one root
        changes = open_mask & ~same_sign
        affine = changes & (d_c == 0.0)
        aff_root = -d_a / d_b
        aff_ok = affine & np.isfinite(aff_root) & (lo <= aff_root) & (aff_root <= hi)
        alpha[aff_ok] = aff_root[aff_ok]
        counts[PATH_LINEAR] += int(
            np.count_nonzero(at_lo) + np.count_nonzero(at_hi)
            + np.count_nonzero(aff_ok)
        )

        quad = changes & (d_c != 0.0) & (disc >= 0.0)
        pick1 = quad & np.isfinite(r1) & (lo <= r1) & (r1 <= hi)
        pick2 = quad & ~pick1 & np.isfinite(r2) & (lo <= r2) & (r2 <= hi)
        alpha[pick1] = r1[pick1]
        alpha[pick2] = r2[pick2]
        counts[PATH_QUADRATIC] += int(
            np.count_nonzero(pick1) + np.count_nonzero(pick2)
        )

    # what is left goes to the searches the closed form cannot replace
    for idx in np.flatnonzero(np.isnan(alpha)):
        costs = _pair_costs(*(float(coeff.flat[idx]) for coeff in (
            const_i, lin_i, quad_i, const_j, lin_j, quad_j)))
        if golden.flat[idx]:
            alpha.flat[idx] = _minimize_pair_max(costs, lo, hi)
            counts[PATH_MINIMAX] += 1
        else:
            alpha.flat[idx] = solve_balanced_ratio(costs, lo, hi)
            counts[PATH_BISECTION] += 1
    return alpha, counts


def symmetric_balanced_ratio(lin_i):
    """Eq. 10 between two identical parties, by symmetry: ½ per cell.

    Party *j*'s polynomial is party *i*'s mirrored (``cost_j(α) =
    cost_i(1-α)``), so the residual is ``lin_i·(2α - 1)``: zero at ½,
    which :func:`solve_balanced_ratio_poly_batch` reaches through its
    affine path up to rounding.  A cell whose cost does not depend on α
    (``lin_i == 0``) balances everywhere; the batch solver answers
    :data:`RATIO_LO` there, and so does this.
    """
    import numpy as np

    return np.where(lin_i == 0.0, RATIO_LO, 0.5)


def _pair_costs(const_i: float, lin_i: float, quad_i: float,
                const_j: float, lin_j: float, quad_j: float) -> PairCostFn:
    """One cell's ``α -> (cost_i, cost_j)``, in the batch's operation order."""

    def costs(alpha: float) -> Tuple[float, float]:
        ab = alpha * (1.0 - alpha)
        return (const_i + lin_i * alpha + quad_i * ab,
                const_j + lin_j * alpha + quad_j * ab)

    return costs


def solve_balanced_ratio(
    pair_cost: PairCostFn,
    lo: float = RATIO_LO,
    hi: float = RATIO_HI,
    tol: float = 1e-10,
    max_iter: int = 80,
) -> float:
    """Traced wrapper over :func:`_solve_balanced_ratio` (bisection).

    Emits a ``ratio.bisection`` span when tracing is enabled — including
    when it runs as the closed-form solver's checked fallback, where the
    span nests inside the batched ``ratio.solve`` span that triggered it.
    """
    with span("ratio.bisection", category="ratio") as bisection:
        alpha = _solve_balanced_ratio(pair_cost, lo, hi, tol, max_iter)
        bisection.set("alpha", alpha)
    return alpha


def _solve_balanced_ratio(
    pair_cost: PairCostFn,
    lo: float = RATIO_LO,
    hi: float = RATIO_HI,
    tol: float = 1e-10,
    max_iter: int = 80,
) -> float:
    """Solve ``cost_i(α) == cost_j(1-α)`` for α in ``[lo, hi]`` by bisection.

    ``pair_cost(α)`` returns ``(cost_i, cost_j)`` already evaluated at shares
    ``(α, 1-α)``.  Falls back to minimizing ``max(cost_i, cost_j)`` by
    golden-section search if the balance residual never changes sign (which
    can happen when one party dominates at every admissible ratio).

    ``tol`` bounds the returned α's distance from the true root (the bracket
    is bisected until it is narrower than ``tol``); the iteration only stops
    early on an exactly-zero residual, so the answer agrees with the
    closed-form solver to solver precision rather than to a residual
    threshold whose meaning depends on the cost magnitudes.

    This is the generic closure-based solver; when the per-party costs are
    available as polynomial coefficients, prefer the closed-form
    :func:`solve_balanced_ratio_poly_batch` (~80× fewer cost evaluations).
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")

    def residual(alpha: float) -> float:
        ci, cj = pair_cost(alpha)
        return ci - cj

    g_lo = residual(lo)
    g_hi = residual(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0.0:
        return _minimize_pair_max(pair_cost, lo, hi)

    a, b = lo, hi
    ga = g_lo
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        gm = residual(mid)
        if gm == 0.0 or (b - a) <= tol:
            return mid
        if ga * gm <= 0.0:
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def _minimize_pair_max(
    pair_cost: PairCostFn,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Golden-section search for the α minimizing the slower party's cost.

    This fallback only runs when the balance residual has one sign at both
    ends of the bracket.  When the same party is the slower one at every
    admissible α, ``max(cost_i, cost_j)`` coincides with that party's
    single smooth cost — affine or quadratic under the model, hence
    unimodal on the bracket, which is exactly the shape golden-section
    search needs; the batched solver sends it only the cells whose
    residual dips through zero inside the bracket.  The endpoints are
    compared against the interior optimum explicitly so boundary minima
    (e.g. of the concave α·β cross-term costs) are never missed.
    """

    def value(alpha: float) -> float:
        ci, cj = pair_cost(alpha)
        return max(ci, cj)

    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(max_iter):
        if (b - a) <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = value(d)
    interior = c if fc <= fd else d

    best_alpha, best_value = lo, value(lo)
    for alpha in (interior, hi):
        v = value(alpha)
        if v < best_value:
            best_alpha, best_value = alpha, v
    return best_alpha
