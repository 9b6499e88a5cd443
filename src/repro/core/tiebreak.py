"""The one place that defines cost tie-breaking, scalar and vectorized.

Every search — the DP (:mod:`repro.core.dp_vectorized`), the greedy
baseline (:mod:`repro.core.greedy`) and the scalar reference recurrence
the tests check the DP against — must break cost ties identically, or
mathematically tied branches (symmetric fork paths, equal-cost exit
states) get broken by last-ulp float noise and the searches stop being
bit-identical.  The rule lives here exactly once:

* two candidates closer than :data:`COST_REL_TOL` *relative* slack are a
  tie, and the **first-seen** candidate wins;
* a genuine cost difference in the model is many orders of magnitude
  above 1e-9 relative, so the slack never masks a real decision.

:func:`improves` is the scalar form (one candidate vs one incumbent);
:func:`masked_first_within_slack` is the batched form — an argmin over a
candidate axis that picks the *lowest index* within slack of the minimum,
which is the vectorized equivalent of scanning candidates in order and
keeping the incumbent unless strictly beaten.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: relative slack for comparing candidate costs: two candidates closer than
#: this are a *tie* and the first-seen one wins.  Mathematically tied
#: branches otherwise get broken by last-ulp float noise, which depends on
#: the arithmetic route (closure evaluation vs polynomial coefficients vs
#: batched array ops) rather than the model — the slack makes every solver
#: variant of the same cost model emit the same plan.
COST_REL_TOL = 1e-9

#: sentinel cost for unreachable DP states in the vectorized recurrence.  A
#: finite stand-in for +inf: ``inf - inf`` is NaN, which would poison the
#: slack arithmetic of :func:`masked_first_within_slack`, while 1e300 still
#: dwarfs every admissible cost (seconds) by ~300 orders of magnitude and
#: survives additions without overflowing.
UNREACHABLE = 1e300


def improves(candidate: float, incumbent: Optional[float]) -> bool:
    """True when ``candidate`` beats ``incumbent`` beyond float-noise slack."""
    if incumbent is None:
        return True
    slack = COST_REL_TOL * max(abs(candidate), abs(incumbent))
    return candidate < incumbent - slack


#: cached open index grids for the value gather, keyed by (rows, cols); a
#: process sees a handful of distinct frontier shapes
_GRID_CACHE: dict = {}


def masked_first_within_slack(candidates) -> Tuple["object", "object"]:
    """First-seen-wins argmin over axis 1 of a non-negative 3-D cost array.

    ``candidates`` has shape ``(rows, in_states, out_states)``; returns
    ``(values, choices)`` of shape ``(rows, out_states)``: per output slot,
    the index of the *first* in-state within :data:`COST_REL_TOL` relative
    slack of the slot minimum, and that candidate's own value (not the
    minimum — the scalar incumbent keeps the first-seen value).

    ``cand - min <= tol * cand`` is the mask: for non-negative costs it
    holds exactly for candidates within one slack width of the minimum
    (the minimum itself always qualifies, ``0 <= tol·cand``), and an
    :data:`UNREACHABLE` sentinel never qualifies against a real minimum
    because ``tol · 1e300`` is still ~1e9 times smaller than the gap.
    ``argmax`` of a boolean mask yields the first True — the lowest
    candidate index, i.e. the scalar scan's first-seen winner.
    """
    import numpy as np

    m = candidates.min(axis=1, keepdims=True)
    mask = (candidates - m) <= COST_REL_TOL * candidates
    choices = mask.argmax(axis=1)
    shape = (candidates.shape[0], candidates.shape[2])
    grids = _GRID_CACHE.get(shape)
    if grids is None:
        grids = (np.arange(shape[0])[:, None], np.arange(shape[1])[None, :])
        _GRID_CACHE[shape] = grids
    return candidates[grids[0], choices, grids[1]], choices
