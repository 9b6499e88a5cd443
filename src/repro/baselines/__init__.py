"""The named partitioning schemes: AccPar, its greedy fallback and the
DP / OWT / HyPar baselines, each a restriction of AccPar's own search."""

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..core.cost_model import RATIO_MODES
from ..core.planner import PartitionScheme
from ..core.types import HYPAR_TYPES, PartitionType
from ..graph.layers import LayerWorkload
from ..hardware.profile import HardwareProfile
from ..plan.backends import canonical_backend_name


def _batch_parallel(workload: LayerWorkload) -> PartitionType:
    return PartitionType.TYPE_I


def _one_weird_trick(workload: LayerWorkload) -> PartitionType:
    return PartitionType.TYPE_I if workload.is_conv else PartitionType.TYPE_II


#: every scheme by name.  A pinned scheme's search only chooses the
#: join-alignment states of multi-path regions; its equal ratios gate a
#: heterogeneous pair by the slower party, the idle time Section 6.2
#: attributes to DP, OWT and HyPar.  Its types are static, but its costs
#: still follow a calibrated ``profile``, so comparisons with AccPar stay
#: like for like.
SCHEMES: Dict[str, PartitionScheme] = {
    # Data parallelism, the paper's normalization baseline (Section 6.1):
    # every accelerator keeps a full model replica and takes a slice of the
    # mini-batch, so every layer is Type-I at ratio 1/2 on every level.
    # Its only communication is the per-layer gradient partial-sum exchange
    # (Table 4, Type-I): the classic all-reduce.
    "dp": PartitionScheme(name="dp", ratio_mode="equal", pin=_batch_parallel),
    # "One Weird Trick" (Krizhevsky, 2014), the empirical baseline: CONV
    # layers data parallel (Type-I), FC layers model parallel (Type-II), at
    # equal ratios.  A static configuration that never adapts to the model
    # or the hardware (Table 8).
    "owt": PartitionScheme(name="owt", ratio_mode="equal",
                           pin=_one_weird_trick),
    # HyPar (Song et al., HPCA 2019), the principled but incomplete baseline
    # (Sections 1, 3.5): it searches only data and model parallelism
    # (Type-I, Type-II), missing Type-III and five of the nine inter-layer
    # patterns; it minimizes communication bytes as its proxy for
    # performance, so a calibrated profile cannot change its objective
    # (the profile still validates and orders the pairing tree); it always
    # splits equally; and it handles only linear structures, so multi-path
    # networks are searched in topological order and the plan is evaluated
    # on the true graph.
    "hypar": PartitionScheme(name="hypar", space=HYPAR_TYPES,
                             ratio_mode="comm-volume", linearize=True),
    # AccPar: the complete space, the joint compute+comm cost, Eq. 10 ratios
    "accpar": PartitionScheme(),
    # AccPar's cost model under the myopic per-layer search: O(N·|T|)
    # instead of the DP's O(N·|T|²), with fork/join regions linearized.
    # The plan service's deadline fallback runs the same search backend
    # under the request's own scheme.
    "greedy": PartitionScheme(name="greedy", backend="greedy"),
}

#: the schemes whose ``space`` and ``ratio_mode`` are knobs
_TUNABLE = ("accpar", "greedy")

#: the order every figure of the paper uses
SCHEME_ORDER: List[str] = ["dp", "owt", "hypar", "accpar"]


def get_scheme(name: str, backend: Optional[str] = None,
               profile: Optional[HardwareProfile] = None,
               space: Optional[Sequence[PartitionType]] = None,
               ratio_mode: Optional[str] = None) -> PartitionScheme:
    """The scheme named ``name`` (any case), with its knobs checked.

    ``backend`` overrides the scheme's search backend (a name or alias from
    :func:`repro.plan.available_backends`; an unknown one raises
    ``KeyError``).  ``profile`` prices the scheme's cost models with
    calibrated effective rates instead of peak analytic ones.  ``space``
    and ``ratio_mode`` are the ablation knobs of the tunable schemes; the
    fixed baselines refuse them rather than silently ignoring input that
    keys a cache entry.  Every other bad name or knob raises ``ValueError``.
    """
    key = name.lower()
    if key not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; expected one of: "
                         + ", ".join(SCHEMES))
    knobs: Dict[str, object] = {}
    if (space is not None or ratio_mode is not None) and key not in _TUNABLE:
        raise ValueError(
            f"scheme {name!r} does not accept space/ratio_mode knobs")
    if space is not None:
        space = tuple(space)
        if not space:
            raise ValueError("space must name at least one partition type")
        for ptype in space:
            if not isinstance(ptype, PartitionType):
                raise ValueError(f"space holds {ptype!r}, not a PartitionType")
        knobs["space"] = space
    if ratio_mode is not None:
        if ratio_mode not in RATIO_MODES:
            raise ValueError(f"unknown ratio_mode {ratio_mode!r}; expected "
                             "one of: " + ", ".join(RATIO_MODES))
        knobs["ratio_mode"] = ratio_mode
    if backend is not None:
        knobs["backend"] = canonical_backend_name(backend)
    if profile is not None:
        knobs["profile"] = profile
    # the records are frozen, so a scheme without knobs is the table's own
    return dataclasses.replace(SCHEMES[key], **knobs) if knobs else SCHEMES[key]


__all__ = [
    "SCHEMES",
    "SCHEME_ORDER",
    "get_scheme",
]
