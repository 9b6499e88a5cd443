"""Layer-wise search (Sections 5.1-5.2, Eq. 9) as a batched min-plus recurrence.

The DP runs over the sharded series-parallel stage list of
:mod:`repro.core.stages`.  The DP state is the partition type governing the
boundary tensor after a stage (``None`` is the free network entry); Eq. 9's
step costs come from :class:`~repro.core.cost_model.PairCostModel`, so the
same search serves AccPar (balanced ratios, full space), HyPar
(communication volume, {Type-I, Type-II}), the fixed-type baselines (a
pinned ``space_fn``) and restricted ablations.  Complexity is O(N · |T|²)
for N weighted layers — the paper's reduction from the O(3^N) brute force
(validated against :mod:`repro.core.brute_force`).  It runs in two phases:

**Phase 1 — packing.**  Every step costing a level can ever need is
computed up front as two tensors of shape ``(n_layers, 3 families, |T|)``
(:meth:`PairCostModel.pack_step_tensors`): Eq. 9's step cost and its Eq. 10
ratio per (layer, packed Table 5 family, type).

**Phase 2 — recurrence.**  The DP frontier is a cost matrix ``F`` of shape
``(entry_rows, |states|)``.  Per layer stage the update is one broadcast::

    cand = F[:, :, None] + C[None, :, :]        # C gathered from the pack
    F, choice = masked_first_within_slack(cand) # argmin over the in-state axis

with the argmin matrix recorded for O(N) backtracking into the typed IR
(:class:`~repro.plan.ir.LayerAssignment` / ``JoinAlignment`` / ``PathExit``).

A fork/join region (Figure 4) is one macro-transition: for every entry
state and join state, each path's cheapest configuration between the two,
summed over the paths (both groups execute all paths).  Each path runs
*once* as a batch over all entry states (identity-initialized frontier);
its last layer pays the re-alignment of its output tensor to the join
state, and an empty path (identity skip) pays only the re-alignment of the
fork tensor.  After the join the boundary tensor behaves like a weighted
layer's output in the join state, so consecutive residual blocks chain.
Besides the ``JoinAlignment`` the macro-transition records one ``PathExit``
per path — the path's pre-alignment exit state — so the simulator replays
exactly the re-alignments the search costed.

Tie-breaking uses the shared :mod:`repro.core.tiebreak` rule: the masked
argmin picks the lowest state index within ``COST_REL_TOL`` slack of the
minimum, i.e. a first-seen-wins scan in state order.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracing import tracer
from ..plan.ir import JoinAlignment, LayerAssignment, PathExit, PlanEntry, SearchResult
from .cost_model import PACKED_FAMILY_INDEX, TYPE_INDEX, PairCostModel, transition_family
from .stages import (
    ShardedLayerStage,
    ShardedParallelStage,
    ShardedStage,
    first_workload,
    iter_layer_stages,
    last_workload,
)
from .tiebreak import UNREACHABLE, improves, masked_first_within_slack
from .types import ALL_TYPES, PartitionType, ShardedWorkload

#: optional per-layer restriction of the searchable types (used by the fixed
#: baselines: data parallelism pins Type-I everywhere, OWT pins by layer kind)
SpaceFn = Callable[[ShardedWorkload], Sequence[PartitionType]]

#: DP states: a partition type, or None for the free entry boundary
State = Optional[PartitionType]

#: DP state codes: row/column order of every index table.  ``None`` (the
#: free entry boundary) first, then the types in ``ALL_TYPES`` order.
_STATE_ORDER: Tuple[State, ...] = (None,) + ALL_TYPES
_STATE_CODE: Dict[State, int] = {s: i for i, s in enumerate(_STATE_ORDER)}

#: packed family row per (state code, type code)
_FAM_TABLE = np.array(
    [
        [PACKED_FAMILY_INDEX[transition_family(s, t)] for t in ALL_TYPES]
        for s in _STATE_ORDER
    ],
    dtype=np.intp,
)

# The three module memos below hold index arrays and constant frontiers:
# each is a pure function of state tuples and array shapes, never of a
# cost, so sharing them across searches cannot change a plan.  Costs are
# per model: the re-alignment matrices live in the level's own
# PairCostModel (alignment_matrix), which dies with the search.

#: (in-state tuple, out-state tuple) → (family submatrix, type-code vector);
#: a handful of distinct combinations exist per process, so the index
#: arrays for the gather are built once each
_GATHER_MEMO: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}

#: identity frontiers for batched path DPs, keyed by row count; read-only
_IDENTITY_CACHE: Dict[int, np.ndarray] = {}

#: broadcast "row r chose predecessor r" argmin matrices, keyed by shape;
#: the backtracking answer for any step taken from an identity frontier
_SELF_CHOICE_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def _identity(rows: int) -> np.ndarray:
    """The cached identity frontier: 0 on the diagonal, UNREACHABLE off it."""
    identity = _IDENTITY_CACHE.get(rows)
    if identity is None:
        identity = np.full((rows, rows), UNREACHABLE)
        np.fill_diagonal(identity, 0.0)
        _IDENTITY_CACHE[rows] = identity
    return identity


def _self_choice(rows: int, cols: int) -> np.ndarray:
    """Argmin matrix with ``choice[r, j] == r`` (identity-frontier steps)."""
    choice = _SELF_CHOICE_CACHE.get((rows, cols))
    if choice is None:
        choice = np.broadcast_to(np.arange(rows)[:, None], (rows, cols))
        _SELF_CHOICE_CACHE[(rows, cols)] = choice
    return choice


def _gather_indices(
    in_states: Tuple[State, ...], out_states: Tuple[PartitionType, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    key = (in_states, out_states)
    cached = _GATHER_MEMO.get(key)
    if cached is None:
        rows = np.array([_STATE_CODE[s] for s in in_states], dtype=np.intp)
        t_codes = np.array([TYPE_INDEX[t] for t in out_states], dtype=np.intp)
        cached = (_FAM_TABLE[rows[:, None], t_codes[None, :]], t_codes)
        _GATHER_MEMO[key] = cached
    return cached


class _LayerDecision:
    """One layer stage's argmin matrix plus what backtracking needs."""

    __slots__ = ("name", "alpha", "fam", "t_codes", "out_states", "choice")

    def __init__(self, name, alpha, fam, t_codes, out_states, choice):
        self.name = name
        self.alpha = alpha          # the layer's packed (family, type) α grid
        self.fam = fam              # (S_in, S_out) packed family rows
        self.t_codes = t_codes      # (S_out,) type columns
        self.out_states = out_states
        self.choice = choice        # (R, S_out) winning in-state index

    def entries(self, row: int, i: int, j: int) -> Tuple[PlanEntry, ...]:
        alpha = float(self.alpha[self.fam[i, j], self.t_codes[j]])
        return (LayerAssignment(self.name, self.out_states[j], alpha),)


class _ParallelDecision:
    """One fork/join macro-stage's argmin matrices for lazy backtracking."""

    __slots__ = ("name", "in_states", "out_states", "paths", "nominal", "choice")

    def __init__(self, name, in_states, out_states, paths, nominal, choice):
        self.name = name
        self.in_states = in_states
        self.out_states = out_states
        # per path: None for an identity skip, else
        # (path decisions, path exit states, exit-choice matrix)
        self.paths = paths
        self.nominal = nominal
        self.choice = choice

    def entries(self, row: int, i: int, j: int) -> Tuple[PlanEntry, ...]:
        out: List[PlanEntry] = []
        for path_index, info in enumerate(self.paths):
            if info is None:
                # identity skip: the tensor exits still in the entry state;
                # nothing to record at the free network entry
                chosen: State = self.in_states[i]
            else:
                decisions, path_out, exit_choice = info
                exit_idx = int(exit_choice[i, j])
                out.extend(_backtrack(decisions, i, exit_idx))
                chosen = path_out[exit_idx]
            if chosen is not None:
                out.append(PathExit(self.name, path_index, chosen, self.nominal))
        out.append(JoinAlignment(self.name, self.out_states[j], self.nominal))
        return tuple(out)


def _backtrack(decisions, row: int, exit_idx: int) -> Tuple[PlanEntry, ...]:
    """Walk the recorded argmin matrices once, last stage to first."""
    groups = []
    j = exit_idx
    for decision in reversed(decisions):
        i = int(decision.choice[row, j])
        groups.append(decision.entries(row, i, j))
        j = i
    out: List[PlanEntry] = []
    for group in reversed(groups):
        out.extend(group)
    return tuple(out)


def _layer_step(stage, pack, index, space, space_fn, states, frontier):
    # ``space`` is pre-tupled once per search; only a per-layer restriction
    # needs normalizing here
    layer_space = tuple(space_fn(stage.workload)) if space_fn is not None else space
    row = index[id(stage)]
    fam, t_codes = _gather_indices(states, layer_space)
    step_costs = pack.cost[row][fam, t_codes[None, :]]
    if frontier is _IDENTITY_CACHE.get(len(states)):
        # first stage of a chain: row r of the identity frontier holds 0 at
        # state r and UNREACHABLE elsewhere, so the argmin is r itself and
        # the surviving cost is 0.0 + step — the step-cost gather verbatim
        new_frontier = step_costs
        choice = _self_choice(len(states), len(layer_space))
    else:
        cand = frontier[:, :, None] + step_costs[None, :, :]
        new_frontier, choice = masked_first_within_slack(cand)
    decision = _LayerDecision(stage.name, pack.alpha[row], fam, t_codes,
                              layer_space, choice)
    return layer_space, new_frontier, decision


def _parallel_step(stage, model, pack, index, space, space_fn,
                   states, frontier):
    out_states = space
    # the fork tensor: input feature map of the first weighted layer in any
    # non-empty path (all paths consume the same tensor)
    fork_elements = None
    for path in stage.paths:
        if path:
            fork_elements = first_workload(path).a_input_fm()
            break
    if fork_elements is None:
        raise ValueError(f"parallel stage {stage.name!r} has no weighted layers")

    stats = model.stats
    rows = len(states)
    # all entry states at once: one batched DP per path
    identity = _identity(rows)

    macro = np.zeros((rows, len(out_states)))
    paths: List[Optional[Tuple]] = []
    for path in stage.paths:
        if path:
            stats.vec_multipath_batches += 1
            stats.multipath_path_dp_runs += rows
            path_out, path_frontier, path_decisions = _run_chain(
                path, model, pack, index, space, space_fn, states, identity,
            )
            out_elements = last_workload(path).a_output_fm()
            align = model.alignment_matrix(out_elements, path_out, out_states)
            aligned = path_frontier[:, :, None] + align[None, :, :]
            best, exit_choice = masked_first_within_slack(aligned)
            # the paths' minima add up in path order
            macro += best
            paths.append((path_decisions, path_out, exit_choice))
        else:
            # identity skip: re-align the fork tensor itself, still in the
            # entry state, to each join state
            macro += model.alignment_matrix(fork_elements, states, out_states)
            paths.append(None)

    if frontier is identity:
        # same identity-entry shortcut as _layer_step: 0.0 + macro is macro
        new_frontier = macro
        choice = _self_choice(rows, len(out_states))
    else:
        cand = frontier[:, :, None] + macro[None, :, :]
        new_frontier, choice = masked_first_within_slack(cand)
    decision = _ParallelDecision(stage.name, states, out_states, paths,
                                 model.nominal_alpha(), choice)
    return out_states, new_frontier, decision


def _run_chain(stages, model, pack, index, space, space_fn,
               states, frontier):
    """Phase 2 over one stage chain; frontier rows are entry states."""
    decisions = []
    for stage in stages:
        if isinstance(stage, ShardedLayerStage):
            states, frontier, decision = _layer_step(
                stage, pack, index, space, space_fn, states, frontier
            )
        elif isinstance(stage, ShardedParallelStage):
            states, frontier, decision = _parallel_step(
                stage, model, pack, index, space, space_fn,
                states, frontier,
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown stage kind {type(stage).__name__}")
        decisions.append(decision)
    return states, frontier, decisions


def search_stages(
    stages: Sequence[ShardedStage],
    model: PairCostModel,
    space: Sequence[PartitionType] = ALL_TYPES,
    space_fn: Optional[SpaceFn] = None,
) -> SearchResult:
    """Find the minimum-cost per-layer assignment for one hierarchy level.

    The entry boundary is free (``c(L_0, t) = 0``, Section 5.1: the input
    tensor may start in whichever partitioning the first layer prefers).
    ``space`` is the searchable type set; ``space_fn`` optionally restricts
    it per layer (workload → allowed types).
    """
    space = tuple(space)
    if not space:
        raise ValueError("partition-type space must be non-empty")
    stages = list(stages)
    if not stages:
        return SearchResult(entries=(), cost=0.0, exit_state=None)

    stats = model.stats
    stats.vec_searches += 1
    with tracer.span("dp.search", category="dp", stages=len(stages),
                     space=len(space)) as span:
        t_start = time.perf_counter_ns()
        with tracer.span("dp.pack", category="dp"):
            layers = list(iter_layer_stages(stages))
            index = {id(stage): row for row, stage in enumerate(layers)}
            pack = model.pack_step_tensors([st.workload for st in layers])
        t_packed = time.perf_counter_ns()
        stats.vec_pack_ns += t_packed - t_start

        with tracer.span("dp.recurrence", category="dp"):
            # the 1×1 identity frontier is exactly [[0.0]]: the free entry
            # state at zero cost, and the first stage takes the identity
            # shortcut like any path chain
            out_states, frontier, decisions = _run_chain(
                stages, model, pack, index, space, space_fn,
                (None,), _identity(1),
            )
            # final exit: first-seen-wins over the frontier order
            final = frontier[0]
            best = 0
            for j in range(1, len(out_states)):
                if improves(float(final[j]), float(final[best])):
                    best = j
            entries = _backtrack(decisions, 0, best)
            best_cost = float(final[best])
        stats.vec_recurrence_ns += time.perf_counter_ns() - t_packed
        span.set("cost", best_cost)
    return SearchResult(
        entries=entries,
        cost=best_cost,
        exit_state=out_states[best],
    )
