"""The one place that defines cost tie-breaking, for every search.

Every search — the DP (:mod:`repro.core.dp_vectorized`), the greedy
baseline (:mod:`repro.core.greedy`) and the scalar reference recurrence
the tests check the DP against — must break cost ties identically, or
mathematically tied branches (symmetric fork paths, equal-cost exit
states) get broken by last-ulp float noise and the searches stop being
bit-identical.  The rule lives here exactly once:

* among candidates scanned in state order, the **first** candidate ``c``
  with ``c - min <= COST_REL_TOL * c`` wins and keeps its own value (not
  the minimum);
* a genuine cost difference in the model is many orders of magnitude
  above 1e-9 relative, so the slack never masks a real decision.

Every candidate is compared with the *minimum*, not with the incumbent
of a running scan: on the chained near-tie ``(1.0, 1 - 0.8e-9,
1 - 1.6e-9)`` index 1 wins, where such a scan would keep 1.0 past it
and lose it to index 2.  :func:`first_within_slack` is the rule over one
candidate list; :func:`min_plus_step` inlines it in one Eq. 9 step.
Costs are non-negative, so the minimum always qualifies (should none,
the last candidate wins in both forms).

:mod:`repro.core.brute_force` keeps its exact ``>=`` comparison: it is an
optimality oracle, checked against the DP by cost, not by plan.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: relative slack for comparing candidate costs: two candidates closer than
#: this are a *tie* and the first-seen one wins.  Mathematically tied
#: branches otherwise get broken by last-ulp float noise, which depends on
#: the arithmetic route (closure evaluation vs polynomial coefficients vs
#: batched array ops) rather than the model — the slack makes every solver
#: variant of the same cost model emit the same plan.
COST_REL_TOL = 1e-9


def first_within_slack(values: Sequence[float]) -> int:
    """Index of the first value within :data:`COST_REL_TOL` of the minimum."""
    m = min(values)
    last = len(values) - 1
    for k in range(last):
        c = values[k]
        if c - m <= COST_REL_TOL * c:
            return k
    return last


def min_plus_step(
    frontier: Sequence[Sequence[float]], step: Sequence[Sequence[float]]
) -> Tuple[List[List[float]], bytearray]:
    """One Eq. 9 step: ``frontier`` (rows × in-states) ⊗ ``step`` (in × out).

    Per cell ``(r, j)``, the in-state :func:`first_within_slack` picks
    among the candidates ``frontier[r][i] + step[i][j]``.  Returns
    ``(values, choices)``: ``values[r][j]`` is that candidate's own value,
    and ``choices[r * out + j]`` its in-state, row-major in a
    ``bytearray``, which the cyclic garbage collector does not track (a
    search keeps every step's choices until it backtracks).  For three
    in-states the rule is inlined and unrolled: this runs once per layer
    and path exit of every level search, and a function call per cell
    costs as much as the arithmetic.
    """
    tol = COST_REL_TOL
    values = []
    choices = bytearray()
    pick = choices.append
    if len(step) == 3:
        s0, s1, s2 = step
        for f0, f1, f2 in frontier:
            vrow = []
            keep = vrow.append
            for c0, c1, c2 in zip(s0, s1, s2):
                a = f0 + c0
                b = f1 + c1
                c = f2 + c2
                m = a if a < b else b
                if c < m:
                    m = c
                if a - m <= tol * a:
                    keep(a)
                    pick(0)
                elif b - m <= tol * b:
                    keep(b)
                    pick(1)
                else:
                    keep(c)
                    pick(2)
            values.append(vrow)
        return values, choices
    # one or two in-states: a short scan per cell
    columns = list(zip(*step))
    for frow in frontier:
        vrow = []
        for column in columns:
            cands = [f + c for f, c in zip(frow, column)]
            k = first_within_slack(cands)
            vrow.append(cands[k])
            pick(k)
        values.append(vrow)
    return values, choices
