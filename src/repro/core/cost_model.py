"""The AccPar cost model (Section 4): computation + communication, per party.

All costs are *seconds*.  Communication converts tensor elements to bytes
(bfloat16 by default) and divides by the accessing party's network bandwidth
``b_i`` (Eq. 7); computation divides effective FLOPs by the party's compute
density ``c_i`` (Eq. 8).

Three cost families are implemented exactly as the paper's tables:

* **intra-layer communication** (Table 4) — the partial-sum tensor of the
  one phase that cannot complete locally; independent of the ratio α because
  partial results are accumulated locally before the exchange;
* **inter-layer communication** (Table 5) — the re-alignment of the boundary
  tensors F_{l+1} / E_{l+1} between two adjacent layers' partition types,
  for all nine type transitions;
* **computation** (Table 6, CONV-extended per Section 4.3) — the three
  training mat-muls, scaled by the party's share α, plus the element-wise
  additions that combine the received partial sums.

The model is written for one *pair* of parties because the hierarchical
scheme (Section 5.1) always splits two ways; a party may itself be an
aggregated accelerator group.  :meth:`PairCostModel.pack_step_tensors` is
the one producer of Eq. 9 step costs: every search backend reads the
dense (layer, Table 5 family, type) tensors it builds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..hardware.accelerator import AcceleratorGroup
from ..hardware.profile import ANALYTIC, HardwareProfile
from ..obs.tracing import span
from .ratio import (
    PATH_BISECTION,
    PATH_LINEAR,
    PATH_MINIMAX,
    PATH_QUADRATIC,
    solve_balanced_ratio_poly_batch,
    symmetric_balanced_ratio,
)
from .types import ALL_TYPES, PartitionType, ShardedWorkload

if TYPE_CHECKING:  # the stages module imports this one
    from .stages import ShardedStages, Sizes

#: transitions with zero inter-layer cost: the boundary tensors already agree
ZERO_TRANSITIONS = frozenset(
    {
        (PartitionType.TYPE_I, PartitionType.TYPE_I),
        (PartitionType.TYPE_II, PartitionType.TYPE_III),
        (PartitionType.TYPE_III, PartitionType.TYPE_II),
    }
)

#: transitions whose cost is α·β·(A(F)+A(E)) for *both* parties
CROSS_TRANSITIONS = frozenset(
    {
        (PartitionType.TYPE_I, PartitionType.TYPE_II),
        (PartitionType.TYPE_III, PartitionType.TYPE_I),
    }
)

#: transitions moving the feature-map tensor: party i fetches β·A(F_{l+1})
F_TRANSITIONS = frozenset(
    {
        (PartitionType.TYPE_I, PartitionType.TYPE_III),
        (PartitionType.TYPE_III, PartitionType.TYPE_III),
    }
)

#: transitions moving the error tensor: party i fetches β·A(E_{l+1})
E_TRANSITIONS = frozenset(
    {
        (PartitionType.TYPE_II, PartitionType.TYPE_I),
        (PartitionType.TYPE_II, PartitionType.TYPE_II),
    }
)

#: the four Table 5 cost families; a step's per-party costs depend on the
#: predecessor type only through its family, which is what collapses the
#: nine (prev, cur) transitions to at most four distinct costings per layer
FAMILY_ZERO = "zero"
FAMILY_CROSS = "cross"
FAMILY_F = "f-move"
FAMILY_E = "e-move"

_TRANSITION_FAMILY = {
    **{key: FAMILY_ZERO for key in ZERO_TRANSITIONS},
    **{key: FAMILY_CROSS for key in CROSS_TRANSITIONS},
    **{key: FAMILY_F for key in F_TRANSITIONS},
    **{key: FAMILY_E for key in E_TRANSITIONS},
}

#: family → row on the packed cost tensors' family axis.  The four Table 5
#: families collapse to *three* distinct cost columns: the F-move and E-move
#: transitions produce identical per-party costs (party i fetches
#: β·A(F_{l+1}), party j fetches α·A(E_{l+1}), and A(F) = A(E) for the
#: boundary tensor).
PACKED_FAMILY_INDEX = {FAMILY_ZERO: 0, FAMILY_CROSS: 1, FAMILY_F: 2, FAMILY_E: 2}

#: number of rows on the packed family axis
PACKED_FAMILY_COUNT = 3

#: partition type → column on the packed tensors' type axis
TYPE_INDEX = {t: i for i, t in enumerate(ALL_TYPES)}

#: the from-state axis of :meth:`PairCostModel.alignment_tables`: the free
#: entry boundary (``None``), then the types in ``ALL_TYPES`` order
BOUNDARY_STATES: Tuple[Optional[PartitionType], ...] = (None,) + ALL_TYPES

#: per alignment-table cell (from state in ``BOUNDARY_STATES`` × to type in
#: ``ALL_TYPES``), what it costs: 0 nothing, 1 the cross family, 2 the move
#: family.  II → II and III → III are move transitions in Table 5, but a
#: tensor already in the wanted state is not re-aligned, and the zero family
#: moves nothing.
_ALIGNED_COST = np.array(
    [[0 if prev_type is None or prev_type is cur_type
      or _TRANSITION_FAMILY[(prev_type, cur_type)] == FAMILY_ZERO
      else 1 if _TRANSITION_FAMILY[(prev_type, cur_type)] == FAMILY_CROSS
      else 2
      for cur_type in ALL_TYPES] for prev_type in BOUNDARY_STATES],
    dtype=np.intp)
#: the cells of one alignment table that cost something
_PRICED_CELLS = int(np.count_nonzero(_ALIGNED_COST))

#: reachable cells per packed layer: every (family, type) pair but
#: cross → Type-III, which no Table 5 transition maps to
REACHABLE_CELLS = PACKED_FAMILY_COUNT * len(ALL_TYPES) - 1


def transition_family(
    prev_type: Optional[PartitionType], cur_type: PartitionType
) -> str:
    """The Table 5 cost family of one (prev, cur) transition.

    A free entry boundary (``prev_type is None``) incurs no inter-layer
    cost, exactly like the zero transitions, so it shares their family.
    """
    if prev_type is None:
        return FAMILY_ZERO
    return _TRANSITION_FAMILY[(prev_type, cur_type)]


def inter_layer_elements(
    boundary_fm_elements: float,
    prev_type: PartitionType,
    cur_type: PartitionType,
    alpha: float,
) -> Tuple[float, float]:
    """Remotely-accessed element counts (party i, party j) for one transition.

    ``boundary_fm_elements`` is A(F_{l+1}) (= A(E_{l+1})) of the boundary
    between the two layers, already sharded by enclosing hierarchy levels.
    Party i holds share α, party j holds β = 1 - α.  This is Table 5 with
    the division by ``b_i`` deferred to the caller.
    """
    key = (prev_type, cur_type)
    beta = 1.0 - alpha
    if key in ZERO_TRANSITIONS:
        return 0.0, 0.0
    if key in CROSS_TRANSITIONS:
        amount = alpha * beta * 2.0 * boundary_fm_elements  # A(F)+A(E)
        return amount, amount
    if key in F_TRANSITIONS or key in E_TRANSITIONS:
        return beta * boundary_fm_elements, alpha * boundary_fm_elements
    raise ValueError(f"unknown transition {key!r}")


def _families(n: int, zero, cross, move) -> np.ndarray:
    """A ``(n, PACKED_FAMILY_COUNT, |T|)`` tensor from its three family
    rows (:data:`PACKED_FAMILY_INDEX` order), each ``(n, |T|)`` or
    broadcast along the type axis."""
    out = np.empty((n, PACKED_FAMILY_COUNT, len(ALL_TYPES)))
    out[:, 0] = zero
    out[:, 1] = cross
    out[:, 2] = move
    return out


class StepStats:
    """Lock-free counters for the search hot path.

    A plain ``__slots__`` bag of integers that the search bumps directly.
    One plan owns one (:func:`repro.core.hierarchy.plan_tree`): every
    level search's :class:`PairCostModel` counts into it, and
    :meth:`as_dict` reaches the plan's tally and participant
    (:class:`repro.obs.tracing.Participant`) once per plan.
    The names are documented in ``docs/observability.md``.
    """

    __slots__ = (
        "step_calls",
        "boundary_calls",
        "ratio_solves",
        "ratio_closed_linear",
        "ratio_closed_quadratic",
        "ratio_bisection_fallback",
        "ratio_minimax",
        "ratio_symmetric",
        "multipath_path_dp_runs",
        "vec_searches",
        "vec_pack_ns",
        "vec_recurrence_ns",
        "vec_multipath_batches",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class StepTensors(NamedTuple):
    """One level's packed Eq. 9 step costs (:meth:`PairCostModel.pack_step_tensors`).

    ``cost`` and ``alpha`` have shape ``(n_layers, PACKED_FAMILY_COUNT, |T|)``;
    ``sizes`` are the per-row tensor sizes they were derived from, which the
    search's fork/join re-alignments read.
    """

    cost: np.ndarray
    alpha: np.ndarray
    sizes: "Sizes"

    def cell(
        self, row: int, prev_type: Optional[PartitionType], cur_type: PartitionType
    ) -> Tuple[float, float]:
        """``(cost, α)`` of layer ``row`` entered from ``prev_type`` as ``cur_type``."""
        index = (
            row,
            PACKED_FAMILY_INDEX[transition_family(prev_type, cur_type)],
            TYPE_INDEX[cur_type],
        )
        return float(self.cost[index]), float(self.alpha[index])


#: the ``ratio_mode`` values :class:`PairCostModel` accepts
RATIO_MODES = ("balanced", "proportional", "equal", "comm-volume")


class PairCostModel:
    """Cost model for one pairing-tree split: party *i* (left) vs *j* (right).

    ``ratio_mode`` selects how the pair of per-party costs becomes the single
    number the DP accumulates:

    * ``"balanced"`` — AccPar: solve Eq. 10 for α per layer and transition,
      cost = the (equal) value;
    * ``"proportional"`` — the global-ratio ablation: one fixed
      α = c_i/(c_i+c_j) for every layer (compute-proportional), cost = the
      slower party.  Isolates how much of the balanced mode's win comes
      from *per-layer* adaptation vs a single heterogeneity-aware ratio;
    * ``"equal"``    — baselines: α = 1/2, cost = the slower party
      (heterogeneous idle time shows up here, Section 6.2);
    * ``"comm-volume"`` — HyPar's objective: α = 1/2 and the cost is the raw
      communication *amount* in bytes (no computation, no bandwidth), since
      HyPar uses communication as the proxy for performance.

    Work performed is tallied in ``self.stats`` (:class:`StepStats`): the
    ``stats`` given, which a plan's level searches share, or the model's
    own.
    """

    def __init__(
        self,
        party_i: AcceleratorGroup,
        party_j: AcceleratorGroup,
        dtype_bytes: int = 2,
        ratio_mode: str = "balanced",
        profile: Optional[HardwareProfile] = None,
        stats: Optional[StepStats] = None,
    ):
        if ratio_mode not in RATIO_MODES:
            raise ValueError(f"unknown ratio_mode {ratio_mode!r}")
        if dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")
        self.party_i = party_i
        self.party_j = party_j
        self.profile = ANALYTIC if profile is None else profile
        # the analytic profile answers the peak bandwidth at every size:
        # :meth:`_bandwidths` skips its per-size lookups
        self._analytic = bool(getattr(self.profile, "is_analytic", False))
        self.c_i = self.profile.compute_rate(party_i)
        self.c_j = self.profile.compute_rate(party_j)
        self.b_i = party_i.network_bandwidth
        self.b_j = party_j.network_bandwidth
        self.dtype_bytes = dtype_bytes
        self.ratio_mode = ratio_mode
        # one group signature, compared as the member specs in order: one
        # profile then prices both parties alike, bit for bit (a signature
        # names specs, and two specs may share a name)
        self._symmetric = party_i.members == party_j.members
        self.stats = StepStats() if stats is None else stats
        self._lat_i = self.profile.transfer_latency_s(party_i)
        self._lat_j = self.profile.transfer_latency_s(party_j)
        # per-kind effective compute rates and per-size effective bandwidths
        # are profile lookups; one dict per party keeps them O(1)
        self._rate_cache_i: dict = {"default": self.c_i}
        self._rate_cache_j: dict = {"default": self.c_j}
        self._bw_cache_i: dict = {}
        self._bw_cache_j: dict = {}

        if ratio_mode in ("balanced", "proportional"):
            self._nominal_alpha = self.c_i / (self.c_i + self.c_j)
        else:
            self._nominal_alpha = 0.5

    def nominal_alpha(self) -> float:
        """Default share for boundary-only transfers (no computation to balance)."""
        return self._nominal_alpha

    # ------------------------------------------------------------------
    # profile lookups (memoized per model instance)
    # ------------------------------------------------------------------
    @staticmethod
    def _kind(sw: ShardedWorkload) -> str:
        """The calibration op kind of a workload (profile rate selector)."""
        return "conv" if sw.base.is_conv else "fc"

    def _rate_i(self, kind: str) -> float:
        rate = self._rate_cache_i.get(kind)
        if rate is None:
            rate = self.profile.compute_rate(self.party_i, kind)
            self._rate_cache_i[kind] = rate
        return rate

    def _rate_j(self, kind: str) -> float:
        rate = self._rate_cache_j.get(kind)
        if rate is None:
            rate = self.profile.compute_rate(self.party_j, kind)
            self._rate_cache_j[kind] = rate
        return rate

    def _bw_i(self, nbytes: float) -> float:
        """Effective bandwidth of party i for one transfer of ``nbytes``.

        Evaluated at the α-independent *base* tensor size of the transfer so
        each party's step cost stays polynomial in α (the Eq. 10 closed
        forms require it); the latency constant is accounted separately.
        """
        bw = self._bw_cache_i.get(nbytes)
        if bw is None:
            bw = self.profile.network_bandwidth(self.party_i, nbytes)
            self._bw_cache_i[nbytes] = bw
        return bw

    def _bw_j(self, nbytes: float) -> float:
        bw = self._bw_cache_j.get(nbytes)
        if bw is None:
            bw = self.profile.network_bandwidth(self.party_j, nbytes)
            self._bw_cache_j[nbytes] = bw
        return bw

    def _bandwidths(self, nbytes: np.ndarray) -> Tuple:
        """Effective (party i, party j) bandwidths per transfer size.

        Looked up once per distinct size through :meth:`_bw_i` /
        :meth:`_bw_j`; 1.0 where nothing moves, so ``nbytes / bw`` stays
        exactly 0.0 there.  The analytic profile's bandwidth is the peak
        one at every size.
        """
        if self._analytic:
            return self.b_i, self.b_j
        sizes, inverse = np.unique(nbytes.ravel(), return_inverse=True)
        bw_i = np.ones(sizes.shape)
        bw_j = np.ones(sizes.shape)
        for k, size in enumerate(sizes):
            if size > 0:
                bw_i[k] = self._bw_i(size)
                bw_j[k] = self._bw_j(size)
        return (bw_i[inverse].reshape(nbytes.shape),
                bw_j[inverse].reshape(nbytes.shape))

    # ------------------------------------------------------------------
    # Eq. 9 step costs, packed
    # ------------------------------------------------------------------
    def pack_step_tensors(self, stages: "ShardedStages") -> StepTensors:
        """Every Eq. 9 step costing of a level, as two dense tensors.

        Returns ``(cost, alpha)`` of shape
        ``(n_layers, PACKED_FAMILY_COUNT, |T|)``: the step cost and its
        ratio for layer row ``l`` entered through packed Table 5 family
        ``f`` under partition type ``t`` (type columns in ``ALL_TYPES``
        order).  The one unreachable cell, cross family → Type-III, holds
        ``inf``.

        The per-layer sizes and FLOPs come from the level's fraction table
        as columns (:meth:`~repro.core.stages.ShardedStages.sizes`), and
        every cell repeats the per-party formulas of
        :meth:`step_pair_costs` elementwise, in their operation order.
        ``balanced`` builds each cell's Eq. 10 polynomial
        ``const + lin·α + quad·α(1-α)`` per party and solves all of them in
        one batch (:func:`~repro.core.ratio.solve_balanced_ratio_poly_batch`),
        except between two parties of one group signature (the same member
        specs, in order), where it prices party *i* alone at α = ½
        (:func:`~repro.core.ratio.symmetric_balanced_ratio`), in closed
        form: each family row's cost and ratio are written straight from
        party *i*'s per-row columns, and no polynomial tensor is built.
        That holds because one profile prices identical parties at equal
        rates, bandwidths and latency, so in exact arithmetic party *j*'s
        polynomial is party *i*'s mirrored: ``lin_j = -lin_i``,
        ``quad_j = quad_i`` and ``const_j = const_i + lin_i``.  Then
        ``cost_j(α) = cost_i(1-α)``, the residual is ``lin_i·(2α - 1)``, and
        it is zero at ½, where the solver's affine path ``-ΔA/ΔB`` lands up
        to rounding.  A cell with ``lin_i == 0`` balances at every α; it
        keeps the solver's answer there, ``lo``.
        The fixed-α modes take the slower party at their one ratio;
        ``comm-volume`` counts bytes.  Calibrated profiles enter as per-kind
        compute rates, effective bandwidths at each transfer's
        α-independent base size and a latency constant per nonzero
        transfer; the analytic profile answers peak rates and zero latency,
        which reproduces the datasheet arithmetic bit for bit.
        """
        sizes = stages.sizes()
        is_conv = stages.skeleton.is_conv
        n = len(is_conv)
        total = sizes.flops
        psum = sizes.psum
        a_in = sizes.a_in
        dtype_bytes = float(self.dtype_bytes)

        if self.ratio_mode == "comm-volume":
            # HyPar's bytes: both parties' partial sums plus both parties'
            # boundary fetches, at α = β = 1/2
            alpha = beta = 0.5
            cross = alpha * beta * 2.0 * a_in
            inter = np.stack([np.zeros(n), (cross + cross) * dtype_bytes,
                              (beta * a_in + alpha * a_in) * dtype_bytes], axis=1)
            cost = (2.0 * psum * dtype_bytes)[:, None, :] + inter[:, :, None]
            return self._packed(cost, np.full(cost.shape, alpha), sizes)

        intra = psum * dtype_bytes
        move = a_in * dtype_bytes
        cross = 2.0 * a_in * dtype_bytes
        bw_intra_i, bw_intra_j = self._bandwidths(intra)
        bw_move_i, bw_move_j = self._bandwidths(move)
        bw_cross_i, bw_cross_j = self._bandwidths(cross)
        rate_i = np.where(is_conv, self._rate_i("conv"), self._rate_i("fc"))
        # the latency constant lands once per nonzero transfer
        lat_intra_i = np.where(psum > 0, self._lat_i, 0.0)
        lat_edge_i = np.where(a_in > 0, self._lat_i, 0.0)

        balanced = self.ratio_mode == "balanced"
        if balanced:
            # cost_i(α) = const_i + lin_i·α + quad_i·α(1-α) per family row:
            # the zero family pays compute and the partial-sum exchange, the
            # cross family adds the α·β re-alignment (quad_i), the move
            # family party i's β·A boundary fetch (const_i + move_i,
            # lin_i - move_i)
            base_ci = psum / rate_i[:, None] + intra / bw_intra_i + lat_intra_i
            lin_i = (total / rate_i)[:, None]
            move_i = (move / bw_move_i)[:, None]
            quad_i = (cross / bw_cross_i)[:, None]
            edge_i = lat_edge_i[:, None]
            cells = n * PACKED_FAMILY_COUNT * len(ALL_TYPES)
            self.stats.ratio_solves += cells
            if self._symmetric:
                # identical parties balance at α = 1/2 (see the docstring):
                # party i's cost at its ratio, in the polynomial's operation
                # order.  The zero and move rows have no α(1-α) term: its
                # 0.0 would change no sum, since no sum here is -0.0
                lin_move = lin_i - move_i
                half = symmetric_balanced_ratio(lin_i)
                half_move = symmetric_balanced_ratio(lin_move)
                self.stats.ratio_symmetric += cells
                shift = lin_i * half
                cost = _families(
                    n, base_ci + shift,
                    base_ci + edge_i + shift + quad_i * (half * (1.0 - half)),
                    base_ci + move_i + edge_i + lin_move * half_move)
                return self._packed(cost, _families(n, half, half, half_move),
                                    sizes)

        rate_j = np.where(is_conv, self._rate_j("conv"), self._rate_j("fc"))
        lat_intra_j = np.where(psum > 0, self._lat_j, 0.0)
        lat_edge_j = np.where(a_in > 0, self._lat_j, 0.0)

        if not balanced:
            # one fixed α: compute_costs + intra_costs + inter_costs per
            # party, then the slower party
            alpha = self._nominal_alpha
            beta = 1.0 - alpha
            zero = np.zeros(n)
            cp_i = (alpha * total[:, None] + psum) / rate_i[:, None]
            cp_j = (beta * total[:, None] + psum) / rate_j[:, None]
            intra_i = intra / bw_intra_i + lat_intra_i
            intra_j = intra / bw_intra_j + lat_intra_j
            cross_amount = alpha * beta * 2.0 * a_in
            inter_i = np.stack([
                zero,
                cross_amount * dtype_bytes / bw_cross_i + lat_edge_i,
                beta * a_in * dtype_bytes / bw_move_i + lat_edge_i,
            ], axis=1)[:, :, None]
            inter_j = np.stack([
                zero,
                cross_amount * dtype_bytes / bw_cross_j + lat_edge_j,
                alpha * a_in * dtype_bytes / bw_move_j + lat_edge_j,
            ], axis=1)[:, :, None]
            cost_i = cp_i[:, None, :] + (intra_i[:, None, :] + inter_i)
            cost_j = cp_j[:, None, :] + (intra_j[:, None, :] + inter_j)
            return self._packed(np.where(cost_i >= cost_j, cost_i, cost_j),
                                np.full(cost_i.shape, alpha), sizes)

        # party j holds β: its compute falls with α, and it fetches α·A on
        # a move
        base_cj = ((total[:, None] + psum) / rate_j[:, None]
                   + intra / bw_intra_j + lat_intra_j)
        lin_j = (-total / rate_j)[:, None]
        edge_j = lat_edge_j[:, None]
        poly_i = (_families(n, base_ci, base_ci + edge_i,
                            base_ci + move_i + edge_i),
                  _families(n, lin_i, lin_i, lin_i - move_i),
                  _families(n, 0.0, quad_i, 0.0))
        poly_j = (_families(n, base_cj, base_cj + edge_j, base_cj + edge_j),
                  _families(n, lin_j, lin_j,
                            lin_j + (move / bw_move_j)[:, None]),
                  _families(n, 0.0, (cross / bw_cross_j)[:, None], 0.0))
        stats = self.stats
        with span("ratio.solve", category="ratio", cells=cells) as solve:
            alpha, counts = solve_balanced_ratio_poly_batch(*poly_i, *poly_j)
            solve.set("paths", counts)
        stats.ratio_closed_linear += counts[PATH_LINEAR]
        stats.ratio_closed_quadratic += counts[PATH_QUADRATIC]
        stats.ratio_bisection_fallback += counts[PATH_BISECTION]
        stats.ratio_minimax += counts[PATH_MINIMAX]

        ab = alpha * (1.0 - alpha)
        cost_i, cost_j = (const + lin * alpha + quad * ab
                          for const, lin, quad in (poly_i, poly_j))
        return self._packed(np.where(cost_i >= cost_j, cost_i, cost_j), alpha,
                            sizes)

    def _packed(self, cost: np.ndarray, alpha: np.ndarray,
                sizes: "Sizes") -> StepTensors:
        cost[:, PACKED_FAMILY_INDEX[FAMILY_CROSS],
             TYPE_INDEX[PartitionType.TYPE_III]] = np.inf
        self.stats.step_calls += REACHABLE_CELLS * cost.shape[0]
        return StepTensors(cost, alpha, sizes)

    # ------------------------------------------------------------------
    # component costs (Tables 4-6, per party, at one α)
    # ------------------------------------------------------------------
    def compute_costs(self, sw: ShardedWorkload, ptype: PartitionType,
                      alpha: float) -> Tuple[float, float]:
        """Eq. 8 per party: α-share of the three mat-muls plus psum adds.

        Under a calibrated profile the divisor is the party's *effective*
        rate for this workload's op kind; the analytic profile answers the
        peak rate for every kind, so the arithmetic is unchanged there.
        """
        total = sw.flops_total()
        psum_adds = sw.a_psum(ptype)  # each party adds the full partial-sum tensor
        kind = self._kind(sw)
        cost_i = (alpha * total + psum_adds) / self._rate_i(kind)
        cost_j = ((1.0 - alpha) * total + psum_adds) / self._rate_j(kind)
        return cost_i, cost_j

    def intra_costs(self, sw: ShardedWorkload, ptype: PartitionType) -> Tuple[float, float]:
        """Table 4 per party; independent of α by construction.

        Calibrated profiles derate the bandwidth at the transfer's size and
        charge the per-transfer latency constant when the exchange happens.
        """
        amount = sw.a_psum(ptype) * self.dtype_bytes
        if amount <= 0:
            return 0.0, 0.0
        return (
            amount / self._bw_i(amount) + self._lat_i,
            amount / self._bw_j(amount) + self._lat_j,
        )

    def inter_costs(
        self,
        boundary_fm_elements: float,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        alpha: float,
    ) -> Tuple[float, float]:
        """Table 5 per party; zero for the first layer (no predecessor).

        Calibrated profiles evaluate the bandwidth-efficiency curve at the
        transition's α-independent base tensor size (the full boundary
        tensor for moves, both boundary tensors for cross re-alignments) so
        this stays consistent with the packed Eq. 10 polynomials at every
        α, and add the latency constant per nonzero transfer.
        """
        if prev_type is None:
            return 0.0, 0.0
        amount_i, amount_j = inter_layer_elements(
            boundary_fm_elements, prev_type, cur_type, alpha
        )
        family = transition_family(prev_type, cur_type)
        if family == FAMILY_ZERO or boundary_fm_elements <= 0:
            return 0.0, 0.0
        if family == FAMILY_CROSS:
            base = 2.0 * boundary_fm_elements * self.dtype_bytes
        else:
            base = boundary_fm_elements * self.dtype_bytes
        return (
            amount_i * self.dtype_bytes / self._bw_i(base) + self._lat_i,
            amount_j * self.dtype_bytes / self._bw_j(base) + self._lat_j,
        )

    def step_pair_costs(
        self,
        sw: ShardedWorkload,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        alpha: float,
    ) -> Tuple[float, float, Tuple[float, float], Tuple[float, float]]:
        """Full per-party costs of one DP step (Eq. 9's E_cp + E_cm)."""
        cp_i, cp_j = self.compute_costs(sw, cur_type, alpha)
        intra_i, intra_j = self.intra_costs(sw, cur_type)
        inter_i, inter_j = self.inter_costs(
            sw.a_input_fm(), prev_type, cur_type, alpha
        )
        cm_i = intra_i + inter_i
        cm_j = intra_j + inter_j
        return cp_i + cm_i, cp_j + cm_j, (cp_i, cp_j), (cm_i, cm_j)

    # ------------------------------------------------------------------
    # boundary re-alignment (multi-path joins and skip paths)
    # ------------------------------------------------------------------
    def boundary_step(
        self,
        boundary_fm_elements: float,
        prev_type: PartitionType,
        cur_type: PartitionType,
        alpha: Optional[float] = None,
    ) -> float:
        """Cost of re-aligning a boundary tensor with no layer attached.

        Used for identity skip paths in multi-path regions (Section 5.2):
        the skip tensor produced under ``prev_type`` must be consumed under
        ``cur_type``.  With no computation to balance, the nominal ratio is
        the compute-proportional one (or 1/2 for equal-ratio schemes).
        """
        if alpha is None:
            alpha = self._nominal_alpha
        self.stats.boundary_calls += 1
        if self.ratio_mode == "comm-volume":
            amount_i, amount_j = inter_layer_elements(
                boundary_fm_elements, prev_type, cur_type, alpha
            )
            return (amount_i + amount_j) * self.dtype_bytes
        return max(self.inter_costs(boundary_fm_elements, prev_type,
                                    cur_type, alpha))

    def alignment_cost(
        self,
        boundary_fm_elements: float,
        from_state: Optional[PartitionType],
        to_state: PartitionType,
    ) -> float:
        """Cost of re-aligning a boundary tensor between two DP states.

        Zero when the states already agree or the source state is free
        (network entry); otherwise the Table 5 transfer for the tensor.
        """
        if from_state is None or from_state is to_state:
            return 0.0
        return self.boundary_step(boundary_fm_elements, from_state, to_state)

    def alignment_tables(self, elements: np.ndarray) -> np.ndarray:
        """:meth:`alignment_cost` for every boundary tensor in ``elements``.

        Returns one table per tensor, shape ``(len(elements),
        len(BOUNDARY_STATES), |T|)``: the cost of re-aligning that tensor
        from each state of :data:`BOUNDARY_STATES` (the free entry first)
        to each type, in ``ALL_TYPES`` order.  A table is zero on its
        diagonal, from the free entry state and on the zero transitions;
        its four other cells repeat :meth:`boundary_step` →
        :meth:`inter_costs` elementwise, in their operation order, so each
        is bit-identical to the scalar cost.  Calibrated profiles take the
        bandwidth at each transfer's α-independent base size
        (:meth:`_bandwidths`).  ``stats.boundary_calls`` counts the cells
        priced.
        """
        elements = np.asarray(elements, dtype=float)
        n = len(elements)
        self.stats.boundary_calls += n * _PRICED_CELLS
        alpha = self._nominal_alpha
        beta = 1.0 - alpha
        dtype_bytes = self.dtype_bytes
        # per tensor: nothing, the cross family, the move family
        priced = np.zeros((n, 3))
        # the cross family moves α·β·(A(F)+A(E)) for each party, the move
        # family β·A(F) for party i and α·A(F) for party j
        cross = alpha * beta * 2.0
        if self.ratio_mode == "comm-volume":
            # bytes both parties move
            amount = cross * elements
            priced[:, 1] = (amount + amount) * dtype_bytes
            priced[:, 2] = (beta * elements + alpha * elements) * dtype_bytes
        else:
            # (family, party, tensor); the cross family moves both
            # boundary tensors, so its base size is twice the move's
            bases = np.concatenate((2.0 * elements * dtype_bytes,
                                    elements * dtype_bytes)).reshape(2, n)
            bw_i, bw_j = self._bandwidths(bases)
            bandwidth = np.empty((2, 2, n))
            bandwidth[:, 0] = bw_i
            bandwidth[:, 1] = bw_j
            shares = np.array([[cross, cross], [beta, alpha]])[:, :, None]
            latency = np.array([self._lat_i, self._lat_j])[None, :, None]
            parties = shares * elements * dtype_bytes / bandwidth + latency
            # the slower party, as ``max`` picks it; nothing moves for an
            # empty tensor
            slower = np.where(parties[:, 1] > parties[:, 0], parties[:, 1],
                              parties[:, 0])
            priced[:, 1:] = np.where(elements > 0, slower, 0.0).T
        return priced[:, _ALIGNED_COST]
