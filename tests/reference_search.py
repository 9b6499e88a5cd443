"""A compact scalar Eq. 9 recurrence: the reference the one DP is checked against.

Plain Python, one DP state at a time: a chain recurrence over frontier
dictionaries plus the Section 5.2 fork/join macro-transition (each path
run once per entry state, its exit re-aligned to every join state, the
paths' minima summed in path order).  It breaks ties with the shared
:func:`repro.core.tiebreak.first_within_slack` rule and lists states in
the same order as :mod:`repro.core.dp_vectorized`, so on the same step
costs the two must agree bit for bit.

It runs over a level's sub-problem (:class:`repro.core.stages.ShardedStages`),
reading each layer through the table's ``workloads()`` accessor, so fork
and path boundary sizes come from the scalar formulas, not the table's
columns.  The recurrence takes a *step-cost function* ``step(row, prev,
cur) -> (cost, alpha)`` over the table's layer rows and has two feeds:

* :func:`pack_feed` reads the model's packed step tensors — the very costs
  the DP gathers — so a mismatch can only come from the recurrence;
* :func:`bisection_feed` re-derives every step from the per-party Table 4-6
  formulas (:meth:`PairCostModel.step_pair_costs`) and solves Eq. 10 by
  bracketed bisection, uncached: the planner before its closed-form solver,
  step memo and packing, and the oracle for all three.

:class:`ReferenceBisectionBackend` wraps the bisection feed as a search
backend for :func:`repro.plan.register_backend`.
"""

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.core.cost_model import inter_layer_elements
from repro.core.ratio import solve_balanced_ratio
from repro.core.stages import Fork
from repro.core.tiebreak import first_within_slack
from repro.core.types import ALL_TYPES, PartitionType
from repro.plan.ir import JoinAlignment, LayerAssignment, PathExit, SearchResult

State = Optional[PartitionType]
StepFn = Callable[[int, State, PartitionType], Tuple[float, float]]

#: registry name of :class:`ReferenceBisectionBackend`
REFERENCE_BACKEND = "reference-bisection"


class Transition(NamedTuple):
    """Cost and typed plan entries of crossing one stage between two states."""

    cost: float
    entries: Tuple = ()


def comm_volume(model, sw, prev: State, cur: PartitionType, alpha: float) -> float:
    """HyPar's objective: bytes both parties move for one step (Tables 4-5)."""
    intra = 2.0 * sw.a_psum(cur) * model.dtype_bytes
    if prev is None:
        return intra
    amount_i, amount_j = inter_layer_elements(sw.a_input_fm(), prev, cur, alpha)
    return intra + (amount_i + amount_j) * model.dtype_bytes


def pack_feed(model, stages) -> StepFn:
    """Step costs read from ``model.pack_step_tensors`` over ``stages``' rows."""
    return model.pack_step_tensors(stages).cell


def bisection_feed(model, stages) -> StepFn:
    """Step costs from ``step_pair_costs``, Eq. 10 by bisection, uncached."""
    layers = stages.workloads()

    def step(row, prev, cur):
        sw = layers[row]
        if model.ratio_mode == "comm-volume":
            alpha = model.nominal_alpha()
            return comm_volume(model, sw, prev, cur, alpha), alpha
        if model.ratio_mode == "balanced":
            alpha = solve_balanced_ratio(
                lambda a: model.step_pair_costs(sw, prev, cur, a)[:2]
            )
        else:
            alpha = model.nominal_alpha()
        cost_i, cost_j = model.step_pair_costs(sw, prev, cur, alpha)[:2]
        return max(cost_i, cost_j), alpha

    return step


def layer_transitions(row, layers, step: StepFn, space, in_states,
                      space_fn=None):
    """Eq. 9 step costs of one weighted layer, every (in-state, type)."""
    sw = layers[row]
    layer_space = space_fn(sw.base) if space_fn is not None else space
    transitions: Dict[Tuple[State, PartitionType], Transition] = {}
    for tt in in_states:
        for t in layer_space:
            cost, alpha = step(row, tt, t)
            transitions[(tt, t)] = Transition(
                cost, (LayerAssignment(sw.name, t, alpha),))
    return transitions


def parallel_transitions(fork, layers, model, step: StepFn, space, in_states,
                         space_fn=None):
    """The macro-transition table of one fork/join region (Section 5.2).

    For every ``(tt, s)`` the cost is the sum over paths of that path's
    cheapest cost from entry state ``tt`` to join state ``s``: a path's
    last layer pays the re-alignment of its output to ``s``, an empty path
    (identity skip) the re-alignment of the fork tensor, still in ``tt``.
    """
    fork_elements = layers[fork.first].a_input_fm()
    nominal = model.nominal_alpha()

    transitions: Dict[Tuple[State, PartitionType], Transition] = {}
    for tt in in_states:
        path_exits = [
            chain_exits(path, layers, model, step, space, {tt: 0.0}, space_fn)
            if path else None
            for path in fork.paths
        ]
        for s in space:
            total = 0.0
            entries: Tuple = ()
            for index, (last, exits) in enumerate(zip(fork.lasts, path_exits)):
                if exits is None:
                    total += model.alignment_cost(fork_elements, tt, s)
                    chosen = tt
                else:
                    out_elements = layers[last].a_output_fm()
                    aligned = [
                        info.cost + model.alignment_cost(out_elements, state, s)
                        for state, info in exits.items()
                    ]
                    k = first_within_slack(aligned)
                    chosen = list(exits)[k]
                    total += aligned[k]
                    entries += exits[chosen].entries
                # the path's pre-alignment exit state (None only for a skip
                # path at the free network entry: nothing to align)
                if chosen is not None:
                    entries += (PathExit(fork.name, index, chosen, nominal),)
            entries += (JoinAlignment(fork.name, s, nominal),)
            transitions[(tt, s)] = Transition(total, entries)
    return transitions


def chain_exits(stages, layers, model, step: StepFn, space,
                entry: Dict[State, float],
                space_fn=None) -> Dict[State, Transition]:
    """Min-plus recurrence across a skeleton stage list from ``entry`` costs.

    ``stages`` holds layer rows and :class:`~repro.core.stages.Fork` s;
    ``layers`` is the table's ``workloads()``.  Returns, per reachable exit
    state, the minimal total cost and the plan entries along the optimal
    path.
    """
    frontier = {state: Transition(cost) for state, cost in entry.items()}
    for stage in stages:
        if isinstance(stage, Fork):
            transitions = parallel_transitions(stage, layers, model, step,
                                               space, list(frontier), space_fn)
        else:
            transitions = layer_transitions(stage, layers, step, space,
                                            list(frontier), space_fn)
        advanced: Dict[State, Transition] = {}
        for t in dict.fromkeys(t for _, t in transitions):
            totals = [frontier[tt].cost + transitions[(tt, t)].cost
                      for tt in frontier]
            k = first_within_slack(totals)
            tt = list(frontier)[k]
            advanced[t] = Transition(
                totals[k], frontier[tt].entries + transitions[(tt, t)].entries)
        frontier = advanced
    return frontier


def reference_search(stages, model, step: Optional[StepFn] = None,
                     space: Sequence[PartitionType] = ALL_TYPES,
                     space_fn=None) -> SearchResult:
    """The level search from the free entry; ``step`` defaults to the pack."""
    space = tuple(space)
    if not space:
        raise ValueError("partition-type space must be non-empty")
    if not len(stages):
        return SearchResult(entries=(), cost=0.0, exit_state=None)
    if step is None:
        step = pack_feed(model, stages)
    exits = chain_exits(stages.skeleton.stages, stages.workloads(), model, step,
                        space, {None: 0.0}, space_fn)
    best = list(exits)[first_within_slack([info.cost for info in exits.values()])]
    return SearchResult(entries=exits[best].entries, cost=exits[best].cost,
                        exit_state=best)


class ReferenceBisectionBackend:
    """The reference recurrence on the bisection feed, as a search backend."""

    name = REFERENCE_BACKEND

    def search(self, stages, model, space=ALL_TYPES, space_fn=None) -> SearchResult:
        return reference_search(stages, model, bisection_feed(model, stages),
                                space, space_fn)
