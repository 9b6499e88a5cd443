"""Layer-wise search (Sections 5.1-5.2, Eq. 9): a packed min-plus recurrence.

The DP runs over a level's sub-problem (:class:`repro.core.stages.ShardedStages`):
the skeleton's series-parallel structure of layer rows and the level's
fraction table.  The DP state is the partition type governing the
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
ratio per (layer row, packed Table 5 family, type), from the table's
columns.

**Phase 2 — recurrence, on Python floats.**  One gather re-indexes both
tensors by (layer, in-state, type) and one ``tolist()`` turns each into a
flat list of floats; after that the recurrence makes no numpy call.  With
|T| = 3 a step adds at most 27 numbers, which numpy's per-call overhead
would dwarf.  The DP frontier is a list of rows (one per entry state) of
costs per state; per layer stage the update is one
:func:`~repro.core.tiebreak.min_plus_step` over the layer's step-cost
rows, with its choice matrix recorded for O(N) backtracking into the
typed IR (:class:`~repro.plan.ir.LayerAssignment` / ``JoinAlignment`` /
``PathExit``).  What lives until the backtrack is kept flat (one list per
table, one ``bytearray`` per choice matrix): containers the search keeps
alive would feed the cyclic garbage collector, whose full passes scale
with everything a long-running service holds.  ``None`` stands for the
identity frontier at the start of a chain: row ``r`` holds 0 at state
``r`` and nothing else, so the first step's frontier is its step-cost
rows verbatim and row ``r`` chose state ``r``.

A fork/join region (Figure 4) is one macro-transition: for every entry
state and join state, each path's cheapest configuration between the two,
summed over the paths (both groups execute all paths).  Each path runs
*once* over all entry states (from the identity frontier); its last layer
pays the re-alignment of its output tensor to the join state, and an empty
path (identity skip) pays only the re-alignment of the fork tensor.  After
the join the boundary tensor behaves like a weighted layer's output in the
join state, so consecutive residual blocks chain.  Besides the
``JoinAlignment`` the macro-transition records one ``PathExit`` per path —
the path's pre-alignment exit state — so the simulator replays exactly the
re-alignments the search costed.

Every choice, the final exit too, follows the one rule of
:mod:`repro.core.tiebreak`: the first state in state order within
``COST_REL_TOL`` slack of the minimum wins.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..graph.layers import LayerWorkload
from ..obs.tracing import span
from ..plan.ir import JoinAlignment, LayerAssignment, PathExit, PlanEntry, SearchResult
from .cost_model import PACKED_FAMILY_INDEX, TYPE_INDEX, PairCostModel, transition_family
from .stages import Fork, ShardedStages
from .tiebreak import first_within_slack, min_plus_step
from .types import ALL_TYPES, PartitionType

#: optional per-layer restriction of the searchable types (used by the fixed
#: baselines: data parallelism pins Type-I everywhere, OWT pins by layer
#: kind); it reads the layer's unsharded workload, since no restriction
#: depends on a level's fractions
SpaceFn = Callable[[LayerWorkload], Sequence[PartitionType]]

#: DP states: a partition type, or None for the free entry boundary
State = Optional[PartitionType]

#: DP state codes: the in-state axis of the gathered step costs.  ``None``
#: (the free entry boundary) first, then the types in ``ALL_TYPES`` order.
_STATE_ORDER: Tuple[State, ...] = (None,) + ALL_TYPES
_STATE_CODE: Dict[State, int] = {s: i for i, s in enumerate(_STATE_ORDER)}

#: packed family row per (state code, type code), and the type columns it
#: pairs with: ``pack.cost[:, _FAM_TABLE, _TYPE_COLUMNS]`` is the step cost
#: per (layer, in-state, type); flattened, one layer spans ``_BLOCK``
#: entries and one in-state ``_WIDTH``
_FAM_TABLE = np.array(
    [
        [PACKED_FAMILY_INDEX[transition_family(s, t)] for t in ALL_TYPES]
        for s in _STATE_ORDER
    ],
    dtype=np.intp,
)
_TYPE_COLUMNS = np.arange(len(ALL_TYPES))
_WIDTH = len(ALL_TYPES)
_BLOCK = len(_STATE_ORDER) * _WIDTH
_ALL_CODES = tuple(range(_WIDTH))

#: (in-state tuple, out-state tuple) → (in-state offsets, type codes); a
#: pure function of the state tuples, never of a cost, so sharing it
#: across searches cannot change a plan
_CODES_MEMO: Dict[Tuple, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}


def _codes(
    in_states: Tuple[State, ...], out_states: Tuple[PartitionType, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    key = (in_states, out_states)
    codes = _CODES_MEMO.get(key)
    if codes is None:
        codes = (tuple(_STATE_CODE[s] * _WIDTH for s in in_states),
                 tuple(TYPE_INDEX[t] for t in out_states))
        _CODES_MEMO[key] = codes
    return codes


class _Level(NamedTuple):
    """What every step of one level search reads."""

    model: PairCostModel
    costs: List[float]          # flat (layer, in-state, type) step costs
    alphas: List[float]         # the ratios, laid out like ``costs``
    names: Tuple[str, ...]      # per layer row
    layers: Tuple[LayerWorkload, ...]  # per layer row, for ``space_fn``
    a_in: Optional[List[float]]   # per row A(F_l); read at forks only
    a_out: Optional[List[float]]  # per row A(F_{l+1}); read at forks only
    space: Tuple[PartitionType, ...]
    space_fn: Optional[SpaceFn]


class _LayerDecision:
    """One layer stage's choice matrix plus what backtracking needs."""

    __slots__ = ("name", "alphas", "base", "offsets", "t_codes", "out_states",
                 "choice")

    def __init__(self, name, alphas, base, offsets, t_codes, out_states,
                 choice):
        self.name = name
        self.alphas = alphas        # the level's flat α table
        self.base = base            # this layer's offset in it
        self.offsets = offsets      # per in-state
        self.t_codes = t_codes      # per out-state
        self.out_states = out_states
        self.choice = choice        # winning in-states, flat; None: row

    def entries(self, row: int, i: int, j: int) -> Tuple[PlanEntry, ...]:
        alpha = self.alphas[self.base + self.offsets[i] + self.t_codes[j]]
        return (LayerAssignment(self.name, self.out_states[j], alpha),)


class _ParallelDecision:
    """One fork/join macro-stage's choice matrices for lazy backtracking."""

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
                exit_idx = exit_choice[i * len(self.out_states) + j]
                out.extend(_backtrack(decisions, i, exit_idx))
                chosen = path_out[exit_idx]
            if chosen is not None:
                out.append(PathExit(self.name, path_index, chosen, self.nominal))
        out.append(JoinAlignment(self.name, self.out_states[j], self.nominal))
        return tuple(out)


def _backtrack(decisions, row: int, exit_idx: int) -> Tuple[PlanEntry, ...]:
    """Walk the recorded choice matrices once, last stage to first."""
    groups = []
    j = exit_idx
    for decision in reversed(decisions):
        choice = decision.choice
        i = row if choice is None else choice[row * len(decision.out_states) + j]
        groups.append(decision.entries(row, i, j))
        j = i
    out: List[PlanEntry] = []
    for group in reversed(groups):
        out.extend(group)
    return tuple(out)


def _layer_step(level, row, states, frontier):
    # ``space`` is pre-tupled once per search; only a per-layer restriction
    # needs normalizing here
    space_fn = level.space_fn
    layer_space = (tuple(space_fn(level.layers[row])) if space_fn is not None
                   else level.space)
    base = row * _BLOCK
    offsets, t_codes = _codes(states, layer_space)
    costs = level.costs
    if t_codes == _ALL_CODES:
        step = [costs[base + o:base + o + _WIDTH] for o in offsets]
    else:
        step = [[costs[base + o + t] for t in t_codes] for o in offsets]
    if frontier is None:
        # first stage of a chain: the step-cost rows are the frontier
        frontier, choice = step, None
    else:
        frontier, choice = min_plus_step(frontier, step)
    decision = _LayerDecision(level.names[row], level.alphas, base, offsets,
                              t_codes, layer_space, choice)
    return layer_space, frontier, decision


def _parallel_step(level, fork, states, frontier):
    model = level.model
    out_states = level.space
    # the fork tensor: input feature map of the fork's first weighted layer
    # (all paths consume the same tensor)
    fork_elements = level.a_in[fork.first]

    stats = model.stats
    rows = len(states)
    macro = [[0.0] * len(out_states)] * rows
    paths: List[Optional[Tuple]] = []
    for path, last in zip(fork.paths, fork.lasts):
        if path:
            # all entry states at once: one DP per path
            stats.vec_multipath_batches += 1
            stats.multipath_path_dp_runs += rows
            path_out, path_frontier, path_decisions = _run_chain(
                level, path, states, None)
            out_elements = level.a_out[last]
            align = model.alignment_matrix(out_elements, path_out, out_states)
            best, exit_choice = min_plus_step(path_frontier, align)
            paths.append((path_decisions, path_out, exit_choice))
        else:
            # identity skip: re-align the fork tensor itself, still in the
            # entry state, to each join state
            best = model.alignment_matrix(fork_elements, states, out_states)
            paths.append(None)
        # the paths' minima add up in path order
        macro = [[m + b for m, b in zip(mrow, brow)]
                 for mrow, brow in zip(macro, best)]

    if frontier is None:
        frontier, choice = macro, None
    else:
        frontier, choice = min_plus_step(frontier, macro)
    decision = _ParallelDecision(fork.name, states, out_states, paths,
                                 model.nominal_alpha(), choice)
    return out_states, frontier, decision


def _run_chain(level, stages, states, frontier):
    """Phase 2 over one stage chain; frontier rows are entry states.

    A stage is a layer's row or a :class:`~repro.core.stages.Fork`.
    """
    decisions = []
    for stage in stages:
        if isinstance(stage, Fork):
            states, frontier, decision = _parallel_step(level, stage, states,
                                                        frontier)
        else:
            states, frontier, decision = _layer_step(level, stage, states,
                                                     frontier)
        decisions.append(decision)
    return states, frontier, decisions


def search_stages(
    stages: ShardedStages,
    model: PairCostModel,
    space: Sequence[PartitionType] = ALL_TYPES,
    space_fn: Optional[SpaceFn] = None,
) -> SearchResult:
    """Find the minimum-cost per-layer assignment for one hierarchy level.

    The entry boundary is free (``c(L_0, t) = 0``, Section 5.1: the input
    tensor may start in whichever partitioning the first layer prefers).
    ``space`` is the searchable type set; ``space_fn`` optionally restricts
    it per layer (unsharded layer workload → allowed types).
    """
    space = tuple(space)
    if not space:
        raise ValueError("partition-type space must be non-empty")
    skeleton = stages.skeleton
    if not skeleton.stages:
        return SearchResult(entries=(), cost=0.0, exit_state=None)

    stats = model.stats
    stats.vec_searches += 1
    with span("dp.search", category="dp", stages=len(skeleton.stages),
              space=len(space)) as search:
        t_start = time.perf_counter_ns()
        with span("dp.pack", category="dp"):
            pack = model.pack_step_tensors(stages)
            a_in = a_out = None
            if skeleton.forks:
                a_in = pack.sizes.a_in.tolist()
                a_out = pack.sizes.a_out.tolist()
        t_packed = time.perf_counter_ns()
        stats.vec_pack_ns += t_packed - t_start

        with span("dp.recurrence", category="dp"):
            level = _Level(
                model,
                pack.cost[:, _FAM_TABLE, _TYPE_COLUMNS].ravel().tolist(),
                pack.alpha[:, _FAM_TABLE, _TYPE_COLUMNS].ravel().tolist(),
                skeleton.names, skeleton.layers, a_in, a_out, space, space_fn)
            # from the free entry state; the first stage takes the
            # identity shortcut like any path chain
            out_states, frontier, decisions = _run_chain(
                level, skeleton.stages, (None,), None)
            final = frontier[0]
            best = first_within_slack(final)
            entries = _backtrack(decisions, 0, best)
            best_cost = final[best]
        stats.vec_recurrence_ns += time.perf_counter_ns() - t_packed
        search.set("cost", best_cost)
    return SearchResult(
        entries=entries,
        cost=best_cost,
        exit_state=out_states[best],
    )
