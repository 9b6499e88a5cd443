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

**Phase 2 — recurrence.**  One gather re-indexes the cost tensor by
(layer, in-state, type).  A fork/join region (Figure 4) is one
macro-transition of the chain around it: for every entry state and join
state, each path's cheapest configuration between the two, summed over
the paths (both groups execute all paths).  Each path runs from the
identity frontier over its fork's entry states, so it depends neither on
the frontier that reaches the fork nor on the other paths: the search
solves every path of the level in one numpy sweep
(:func:`~repro.core.tiebreak.first_within_slack_along`), paths of one shape
together, nested forks first.  A path's last layer pays the re-alignment
of its output tensor to the join state and an identity-skip path pays
only the re-alignment of the fork tensor; every such table is priced in
one vectorized call (:meth:`PairCostModel.alignment_tables`).  Each
fork's macro table is its paths' minima added in path order, from 0.0,
and takes a row of the gathered step costs.  Only the top-level chain
stays sequential: one ``tolist()`` turns the table's rows it reads into
floats, and each stage, a fork included, is one
:func:`~repro.core.tiebreak.min_plus_step` with its choices recorded.
After the join the boundary tensor behaves like a weighted layer's
output in the join state, so consecutive residual blocks chain.

The sweep's shapes are resolved once per skeleton structure and search
space (:class:`_Program`): which rows each path gathers, where its
minimum and its choices go.  A program holds indices and states, never a
cost, and its arrays are read-only, so sharing it between searches cannot
change a plan.  What lives until the backtrack is flat (one float list
per table, one byte buffer of choices per phase): containers the search
keeps alive would feed the cyclic garbage collector, whose full passes
scale with everything a long-running service holds.  The backtrack walks
the choices once and builds the typed IR
(:class:`~repro.plan.ir.LayerAssignment` / ``JoinAlignment`` /
``PathExit``) along the chosen route only; besides
the ``JoinAlignment`` a fork records one ``PathExit`` per path — the
path's pre-alignment exit state — so the simulator replays exactly the
re-alignments the search costed.

Every choice, the final exit too, follows the one rule of
:mod:`repro.core.tiebreak`: the first state in state order within
``COST_REL_TOL`` slack of the minimum wins.  The sweep repeats the float
recurrence's operations cell by cell, so both give the same bits.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..graph.layers import LayerWorkload
from ..obs.tracing import span
from ..plan.ir import JoinAlignment, LayerAssignment, PathExit, PlanEntry, SearchResult
from .cost_model import (
    BOUNDARY_STATES,
    PACKED_FAMILY_COUNT,
    PACKED_FAMILY_INDEX,
    TYPE_INDEX,
    PairCostModel,
    transition_family,
)
from .stages import Fork, ShardedStages
from .tiebreak import first_within_slack, first_within_slack_along, min_plus_step
from .types import ALL_TYPES, PartitionType

#: optional per-layer restriction of the searchable types (used by the fixed
#: baselines: data parallelism pins Type-I everywhere, OWT pins by layer
#: kind); it reads the layer's unsharded workload, since no restriction
#: depends on a level's fractions
SpaceFn = Callable[[LayerWorkload], Sequence[PartitionType]]

#: DP states: a partition type, or None for the free entry boundary
State = Optional[PartitionType]

#: DP state codes: the in-state axis of the gathered step costs and the
#: from-state axis of the alignment tables.  ``None`` (the free entry
#: boundary) first, then the types in ``ALL_TYPES`` order.
_STATE_CODE: Dict[State, int] = {s: i for i, s in enumerate(BOUNDARY_STATES)}

#: packed family row per (state code, type code), and the type columns it
#: pairs with: ``pack.cost[:, _FAM_TABLE, _TYPE_COLUMNS]`` is the step cost
#: per (layer, in-state, type); flattened, one layer spans ``_BLOCK``
#: entries and one in-state ``_WIDTH``
_FAM_TABLE = np.array(
    [
        [PACKED_FAMILY_INDEX[transition_family(s, t)] for t in ALL_TYPES]
        for s in BOUNDARY_STATES
    ],
    dtype=np.intp,
)
_TYPE_COLUMNS = np.arange(len(ALL_TYPES))
_WIDTH = len(ALL_TYPES)
_BLOCK = len(BOUNDARY_STATES) * _WIDTH
#: one layer's span in the pack's flattened tensors
_PACKED = PACKED_FAMILY_COUNT * _WIDTH
_ALL_CODES = tuple(range(_WIDTH))


class _ForkPlan(NamedTuple):
    """One fork as the backtrack reads it."""

    name: str
    entry: Tuple[State, ...]              # its entry states, in order
    paths: Tuple[Optional["_PathPlan"], ...]  # None: an identity skip


class _Step(NamedTuple):
    """One stage of a chain: a layer's row or a fork's macro step."""

    fork: Optional[_ForkPlan]     # None for a layer
    row: int                      # its row in the step-cost table
    #: per in-state: its flat offset in the table its chain reads (the
    #: top-level chain reads its own rows, :attr:`_Program.chain_rows`)
    starts: Tuple[int, ...]
    t_codes: Tuple[int, ...]      # per out-state: its type column
    out_states: Tuple[PartitionType, ...]
    choice: int                   # its choice block, rows × out; -1: first
    #: a layer's ratio per (in-state, out-state): its flat index in the
    #: pack's α tensor, (layer, packed family, type)
    alpha_at: Tuple[Tuple[int, ...], ...]


class _PathPlan(NamedTuple):
    steps: Tuple[_Step, ...]
    exit: int                     # its exit-choice block, entry × space


class _Group(NamedTuple):
    """The paths of one round with one signature, swept together.

    ``first`` gathers the first step's costs, shaped (paths, entry, out),
    from the step-cost table: the identity frontier.  Every later step
    gathers its costs, shaped (in, paths, 1, out), from the step-cost
    table, and ``exit`` the exit step's from the alignment tables.
    ``scatter`` places the path minima, (paths, entry, space).  The
    choices of the steps and the exit, in that order, follow those of the
    groups before.
    """

    first: np.ndarray
    steps: Tuple[np.ndarray, ...]
    exit: np.ndarray
    scatter: np.ndarray


class _Round(NamedTuple):
    """The forks of one nesting height: their paths, then their macros."""

    groups: Tuple[_Group, ...]
    skip_slots: np.ndarray        # identity-skip paths' minima ...
    skip_tables: np.ndarray       # ... are their fork tensor's table
    macro_slots: np.ndarray       # (forks, paths), padded by the zero slot
    macro_rows: np.ndarray        # the forks' rows in the step-cost table


class _Program(NamedTuple):
    """A level search's shapes for one skeleton structure and space."""

    chain: Tuple[_Step, ...]      # the top-level stages
    #: the step-cost table's rows the chain reads, in its order; ``None``
    #: when that is every row in order (a chain without forks)
    chain_rows: Optional[np.ndarray]
    rounds: Tuple[_Round, ...]    # innermost forks first
    n_forks: int
    n_slots: int                  # path minima, plus one zero slot
    exit_rows: np.ndarray         # a_out rows priced, one per path
    fork_rows: np.ndarray         # a_in rows priced, one per fork with a skip
    path_runs: int                # entry states over every path
    path_batches: int             # non-empty paths


def _frozen(indices) -> np.ndarray:
    """An index array of a program: every search shares it, so read-only."""
    array = np.array(indices, dtype=np.intp, order="C")
    array.flags.writeable = False
    return array


def _flat(blocks, in_states, out_states) -> np.ndarray:
    """Flat indices, shaped (blocks, in, out), into (block, state, type)."""
    blocks = np.array(blocks, dtype=np.intp)
    codes = np.array([_STATE_CODE[s] for s in in_states], dtype=np.intp)
    t_codes = np.array([TYPE_INDEX[t] for t in out_states], dtype=np.intp)
    return _frozen(blocks[:, None, None] * _BLOCK
                   + codes[None, :, None] * _WIDTH + t_codes[None, None, :])


def _step(blocks, in_states, out_states) -> np.ndarray:
    """Flat indices, shaped (in, paths, 1, out), of one step's costs.

    Path ``p`` steps through block ``blocks[p]``; the frontier's rows
    broadcast along the third axis.
    """
    return _frozen(
        _flat(blocks, in_states, out_states).transpose(1, 0, 2)[:, :, None])


class _ForkRec:
    """A fork while its program is compiled."""

    __slots__ = ("fork", "entry", "paths", "height", "index", "slots", "table",
                 "plan")

    def __init__(self, fork, entry, paths, height, index):
        self.fork = fork
        self.entry = entry
        self.paths = paths        # per path: _PathRec, or None for a skip
        self.height = height      # 0 without nested forks
        self.index = index
        self.slots: List[int] = []
        self.table = -1           # its fork tensor's table, if it has a skip
        self.plan: Optional[_ForkPlan] = None


class _PathRec:
    __slots__ = ("steps", "last", "slot", "table", "choices", "exit")

    def __init__(self, steps, last):
        self.steps = steps        # per step: (fork rec, row, in, out)
        self.last = last
        self.slot = self.table = self.exit = -1
        self.choices = [-1] * len(steps)


#: programs kept per process, least recently used out
PROGRAM_CACHE_SIZE = 128


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _compile(structure, n_rows: int, space: Tuple[PartitionType, ...],
             layer_spaces) -> _Program:
    """Resolve every shape of a level search over ``structure``.

    A pure function of its arguments, all of them values: the skeleton's
    stage structure, its row count, the space and the per-layer spaces of
    a ``space_fn`` (``None`` without one).  So one program serves every
    batch of a model, whose skeletons share ``stages``, and every skeleton
    of the same structure, such as a linearized chain made per search.
    """
    forks: List[_ForkRec] = []

    def chain(stages, states):
        steps = []
        height = 0
        for stage in stages:
            if isinstance(stage, Fork):
                rec = fork(stage, states)
                height = max(height, rec.height + 1)
                steps.append((rec, n_rows + rec.index, states, space))
                states = space
            else:
                out = space if layer_spaces is None else layer_spaces[stage]
                steps.append((None, stage, states, out))
                states = out
        return steps, height

    def fork(stage, entry):
        paths = []
        height = 0
        for path, last in zip(stage.paths, stage.lasts):
            if path:
                steps, path_height = chain(path, entry)
                height = max(height, path_height)
                paths.append(_PathRec(steps, last))
            else:
                paths.append(None)
        rec = _ForkRec(stage, entry, paths, height, len(forks))
        forks.append(rec)
        return rec

    top, _ = chain(structure, (None,))

    # slots and alignment tables: one exit table per path, then one fork
    # tensor table per fork with an identity skip
    exit_rows: List[int] = []
    fork_rows: List[int] = []
    n_slots = 0
    for rec in forks:
        for path in rec.paths:
            rec.slots.append(n_slots)
            if path is not None:
                path.slot = n_slots
                path.table = len(exit_rows)
                exit_rows.append(path.last)
            n_slots += 1
        if None in rec.paths:
            rec.table = len(fork_rows)
            fork_rows.append(rec.fork.first)
    zero_slot = n_slots
    for rec in forks:
        if rec.table >= 0:
            rec.table += len(exit_rows)

    rounds = []
    n_choices = 0
    for height in sorted({rec.height for rec in forks}):
        members = [rec for rec in forks if rec.height == height]
        by_signature: Dict[Tuple, List[_PathRec]] = {}
        skips = []
        for rec in members:
            for path in rec.paths:
                if path is None:
                    continue
                outs = tuple(out for *_, out in path.steps)
                by_signature.setdefault((rec.entry, outs), []).append(path)
            skips.extend((slot, rec.table) for slot, path
                         in zip(rec.slots, rec.paths) if path is None)
        groups = []
        for (entry, outs), paths in by_signature.items():
            rows = len(entry)
            steps = []
            for k in range(1, len(outs)):
                steps.append(_step([p.steps[k][1] for p in paths],
                                   outs[k - 1], outs[k]))
                block = rows * len(outs[k])
                for n, path in enumerate(paths):
                    path.choices[k] = n_choices + n * block
                n_choices += len(paths) * block
            exit_step = _step([p.table for p in paths], outs[-1], space)
            block = rows * len(space)
            for n, path in enumerate(paths):
                path.exit = n_choices + n * block
            n_choices += len(paths) * block
            groups.append(_Group(
                _flat([p.steps[0][1] for p in paths], entry, outs[0]),
                tuple(steps), exit_step,
                _flat([p.slot for p in paths], entry, space),
            ))
        width = max(len(rec.slots) for rec in members)
        rounds.append(_Round(
            tuple(groups),
            _frozen([slot for slot, _ in skips]),
            _frozen([table for _, table in skips]),
            _frozen([rec.slots + [zero_slot] * (width - len(rec.slots))
                     for rec in members]),
            _frozen([n_rows + rec.index for rec in members]),
        ))

    def steps_of(records, choices, blocks):
        out = []
        for (rec, row, in_states, out_states), choice, block in zip(
                records, choices, blocks):
            starts = tuple(block * _BLOCK + _STATE_CODE[s] * _WIDTH
                           for s in in_states)
            t_codes = tuple(TYPE_INDEX[t] for t in out_states)
            alpha_at = () if rec is not None else tuple(
                tuple(row * _PACKED + int(_FAM_TABLE[_STATE_CODE[s], t]) * _WIDTH
                      + t for t in t_codes) for s in in_states)
            out.append(_Step(None if rec is None else rec.plan, row, starts,
                             t_codes, out_states, choice, alpha_at))
        return tuple(out)

    # nested forks precede their enclosing fork in ``forks``
    for rec in forks:
        rec.plan = _ForkPlan(rec.fork.name, rec.entry, tuple(
            None if path is None
            else _PathPlan(steps_of(path.steps, path.choices,
                                    [row for _, row, _, _ in path.steps]),
                           path.exit)
            for path in rec.paths))

    # the top-level chain has one row (the free entry), so step k's
    # choices follow step k-1's in one buffer
    top_choices = [-1]
    offset = 0
    for _, _, _, out_states in top[1:]:
        top_choices.append(offset)
        offset += len(out_states)
    chain_rows = [row for _, row, _, _ in top]
    runs = [len(rec.entry) for rec in forks for path in rec.paths if path]
    return _Program(
        steps_of(top, top_choices, range(len(top))),
        None if chain_rows == list(range(n_rows)) else _frozen(chain_rows),
        tuple(rounds), len(forks), n_slots + 1,
        _frozen(exit_rows), _frozen(fork_rows), sum(runs), len(runs))


def _program(skeleton, space: Tuple[PartitionType, ...],
             space_fn: Optional[SpaceFn]) -> _Program:
    layer_spaces = None
    if space_fn is not None:
        layer_spaces = tuple(tuple(space_fn(w)) for w in skeleton.layers)
    return _compile(skeleton.stages, len(skeleton.layers), space, layer_spaces)


def _sweep(program: _Program, table: np.ndarray, tables: np.ndarray) -> bytes:
    """Solve every fork path; write each fork's macro into ``table``.

    ``table`` is the gathered step costs, one (state, type) block per
    layer row and then per fork; ``tables`` the alignment tables.
    Returns the paths' choices.
    """
    flat = table.reshape(-1)
    aligned = tables.reshape(-1)
    minima = np.zeros((program.n_slots,) + table.shape[1:])
    choices = []
    for rnd in program.rounds:
        for group in rnd.groups:
            # the identity frontier: the first step's rows verbatim
            frontier = flat.take(group.first)
            for gather, source in zip(group.steps + (group.exit,),
                                      (flat,) * len(group.steps) + (aligned,)):
                # candidate [i, p, r, j]: frontier cell (p, r, i) + cost
                frontier, choice = first_within_slack_along(
                    frontier.transpose(2, 0, 1)[..., None] + source.take(gather))
                choices.append(choice.ravel())
            minima.reshape(-1)[group.scatter] = frontier
        if len(rnd.skip_slots):
            minima[rnd.skip_slots] = tables[rnd.skip_tables]
        # the paths' minima add up in path order, from 0.0
        slots = rnd.macro_slots
        macro = minima[slots[:, 0]] + 0.0
        for k in range(1, slots.shape[1]):
            macro += minima[slots[:, k]]
        table[rnd.macro_rows] = macro
    return np.concatenate(choices).astype(np.int8).tobytes()


class _Route:
    """What the backtrack reads besides the program."""

    __slots__ = ("names", "alphas", "choices", "nominal", "space")

    def __init__(self, names, alphas, choices, nominal, space):
        self.names = names
        self.alphas = alphas      # the pack's α tensor, flat
        self.choices = choices    # the sweep's
        self.nominal = nominal
        self.space = space


def _emit_chain(steps, row: int, j: int, choices, route: _Route,
                out: List[PlanEntry]) -> None:
    """Append the entries of a chain entered in state ``row`` and left
    in out-state ``j`` of its last step; ``choices`` holds its steps'."""
    # each step's out-state, last step to first
    outs = [j] * len(steps)
    for k in range(len(steps) - 1, 0, -1):
        _, _, _, _, out_states, choice, _ = steps[k]
        j = choices[choice + row * len(out_states) + j]
        outs[k - 1] = j
    names = route.names
    alphas = route.alphas
    i = row
    for (fork, layer, _, _, out_states, _, alpha_at), j in zip(steps, outs):
        if fork is None:
            out.append(LayerAssignment(names[layer], out_states[j],
                                       alphas[alpha_at[i][j]]))
        else:
            _emit_fork(fork, i, j, route, out)
        i = j


def _emit_fork(fork: _ForkPlan, i: int, s: int, route: _Route,
               out: List[PlanEntry]) -> None:
    """Append a fork's entries, entered in state ``i``, joined in ``s``."""
    choices = route.choices
    exit_row = i * len(route.space) + s
    name = fork.name
    nominal = route.nominal
    for index, path in enumerate(fork.paths):
        if path is None:
            # identity skip: the tensor exits still in the entry state;
            # nothing to record at the free network entry
            chosen = fork.entry[i]
        else:
            k = choices[path.exit + exit_row]
            _emit_chain(path.steps, i, k, choices, route, out)
            chosen = path.steps[-1].out_states[k]
        if chosen is not None:
            out.append(PathExit(name, index, chosen, nominal))
    out.append(JoinAlignment(name, route.space[s], nominal))


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
        t_packed = time.perf_counter_ns()
        stats.vec_pack_ns += t_packed - t_start

        with span("dp.recurrence", category="dp"):
            program = _program(skeleton, space, space_fn)
            table = pack.cost[:, _FAM_TABLE, _TYPE_COLUMNS]
            path_choices = b""
            if program.rounds:
                stats.vec_multipath_batches += program.path_batches
                stats.multipath_path_dp_runs += program.path_runs
                sizes = pack.sizes
                tables = model.alignment_tables(np.concatenate(
                    (sizes.a_out[program.exit_rows],
                     sizes.a_in[program.fork_rows])))
                table = np.concatenate(
                    (table, np.empty((program.n_forks,) + table.shape[1:])))
                path_choices = _sweep(program, table, tables)

            # the top-level chain, from the free entry state, on floats:
            # its own rows only
            rows = program.chain_rows
            costs = (table if rows is None else table[rows]).ravel().tolist()
            frontier = None
            top_choices = bytearray()
            for step in program.chain:
                if step.t_codes == _ALL_CODES:
                    rows = [costs[s:s + _WIDTH] for s in step.starts]
                else:
                    rows = [[costs[s + t] for t in step.t_codes]
                            for s in step.starts]
                if frontier is None:
                    frontier = rows
                else:
                    frontier, choice = min_plus_step(frontier, rows)
                    top_choices += choice
            final = frontier[0]
            best = first_within_slack(final)
            best_cost = final[best]

            route = _Route(skeleton.names, pack.alpha.ravel().tolist(),
                           path_choices, model.nominal_alpha(), space)
            entries: List[PlanEntry] = []
            _emit_chain(program.chain, 0, best, top_choices, route, entries)
        stats.vec_recurrence_ns += time.perf_counter_ns() - t_packed
        search.set("cost", best_cost)
    return SearchResult(
        entries=tuple(entries),
        cost=best_cost,
        exit_state=program.chain[-1].out_states[best],
    )
