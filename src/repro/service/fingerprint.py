"""Canonical plan requests and their content-addressed fingerprints.

A :class:`PlanRequest` is the unit of work the plan service accepts: every
knob that can change the resulting plan is a field here, and
:meth:`PlanRequest.fingerprint` folds them all — including the *structure*
of the named model, not just its name — into one stable hex key.  Two
requests with equal fingerprints are guaranteed to produce byte-identical
plans, which is what makes single-flight coalescing and the content-addressed
cache sound.

Stability contract (documented in docs/serving.md): fingerprints only change
when ``REQUEST_SCHEMA_VERSION`` is bumped, which invalidates every persisted
cache entry at once rather than silently serving stale plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..baselines import get_scheme
from ..core.planner import PartitionScheme
from ..core.stages import model_stages
from ..core.types import PartitionType
from ..digest import stable_digest
from ..graph.network import Network
from ..hardware.accelerator import AcceleratorGroup
from ..hardware.profile import CalibratedProfile
from ..models.registry import build_model
from ..plan.backends import canonical_backend_name

#: bump when the fingerprint payload layout (or plan semantics) changes;
#: folded into every key so old disk-cache entries simply stop matching
#: (the history is in :meth:`PlanRequest.fingerprint`)
REQUEST_SCHEMA_VERSION = 4

#: the ``space`` values a request may name, in ``PartitionType`` order
_TYPE_VALUES = tuple(t.value for t in PartitionType)


@dataclass(frozen=True)
class PlanRequest:
    """Everything that determines a plan, in canonical form.

    ``space`` and ``ratio_mode`` are the ablation knobs of the ``accpar``
    and ``greedy`` schemes (:func:`repro.baselines.get_scheme`); leaving
    them ``None`` means "the scheme's defaults" and hashes distinctly from
    pinning the defaults explicitly — by design, since a scheme's defaults
    may evolve.  The same convention covers ``backend``: ``None`` keeps the
    scheme's default search backend, a name from
    :func:`repro.plan.available_backends` (or one of its aliases, stored
    canonicalized so every spelling of one search shares a fingerprint)
    overrides it.
    ``profile`` re-prices the cost model with calibrated effective rates;
    ``None`` is the peak analytic model, and the profile's content digest
    is part of the fingerprint.

    Building a request checks each field's type (nothing is coerced: a
    string ``space`` or a float ``batch`` is refused, naming the field)
    and resolves its scheme once, so a bad scheme name or knob is refused
    here, before any fingerprint, cache or planner work.
    """

    model: str
    array: AcceleratorGroup
    batch: int = 512
    scheme: str = "accpar"
    dtype_bytes: int = 2
    levels: Optional[int] = None
    space: Optional[Tuple[str, ...]] = None      # PartitionType values, e.g. ("I", "II")
    ratio_mode: Optional[str] = None             # "balanced" | "equal" | "proportional"
    backend: Optional[str] = None                # search backend name, e.g. "greedy"
    profile: Optional[CalibratedProfile] = None  # calibrated rates; None = analytic

    def __post_init__(self) -> None:
        # a JSON request may carry any value in any field
        for name, optional in (("model", False), ("scheme", False),
                               ("ratio_mode", True), ("backend", True)):
            value = getattr(self, name)
            if not (isinstance(value, str) or optional and value is None):
                raise ValueError(f"{name} must be a string, not {value!r}")
        if not isinstance(self.array, AcceleratorGroup):
            raise ValueError(
                f"array must be an accelerator array, not {self.array!r}")
        # ``type(...) is int``: a bool is an int subclass, never a count
        for name in ("batch", "dtype_bytes"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ValueError(
                    f"{name} must be a positive integer, not {value!r}")
        if self.levels is not None and (type(self.levels) is not int
                                        or self.levels < 0):
            raise ValueError(f"levels must be null or an integer >= 0, "
                             f"not {self.levels!r}")
        if self.space is not None:
            # a string is a sequence too: "III" would plan Type-I only
            if not isinstance(self.space, (list, tuple)):
                raise ValueError(f"space must be a list of partition types, "
                                 f"not {self.space!r}")
            object.__setattr__(self, "space", tuple(self.space))
            for value in self.space:
                if value not in _TYPE_VALUES:  # ``in`` a tuple: no hashing
                    raise ValueError(f"space holds {value!r}, not one of: "
                                     + ", ".join(_TYPE_VALUES))
        if self.backend is not None:
            # raises KeyError("unknown search backend ...") for bad names
            object.__setattr__(self, "backend",
                               canonical_backend_name(self.backend))
        if self.profile is not None and getattr(self.profile, "is_analytic", False):
            # the analytic profile IS the default; canonicalize so both
            # spellings share one fingerprint (and one cache entry)
            object.__setattr__(self, "profile", None)
        self.partition_scheme()

    def partition_scheme(self, backend: Optional[str] = None) -> PartitionScheme:
        """The scheme this request plans with; ``backend`` overrides its
        search backend (the service's deadline fallback)."""
        return get_scheme(
            self.scheme,
            backend=self.backend if backend is None else backend,
            profile=self.profile,
            space=(None if self.space is None
                   else tuple(PartitionType(v) for v in self.space)),
            ratio_mode=self.ratio_mode)

    def build_network(self) -> Network:
        """A fresh network of the request's model, for callers that want
        the object; the service plans the model by name."""
        return build_model(self.model)

    def fingerprint(self) -> str:
        """The cache key: a stable hash over the full request content.

        The model is resolved through the registry and its structural
        fingerprint is hashed, so re-registering a model name with a
        different architecture can never hit a stale entry.  The digest is
        kept in the model's process-wide entry
        (:func:`repro.core.stages.model_stages`), which the planner reads
        too: the first request for a registered function builds and
        decomposes its network, and no later one does.

        ``schema`` is :data:`REQUEST_SCHEMA_VERSION`:

        * v2: the per-request search backend, and typed plan entries;
        * v3: the hardware profile, so calibrated and analytic plans never
          share a cache entry;
        * v4: a split between identical groups stores α = ½ exactly (the
          symmetric branch of ``PairCostModel.pack_step_tensors``), where
          v3 plans hold the Eq. 10 solver's ½ ± ~1e-10, so no entry
          written before answers with the old last bits.
        """
        return stable_digest(
            {
                "schema": REQUEST_SCHEMA_VERSION,
                "model": self.model.lower(),
                "network": model_stages(self.model).digest,
                "array": self.array.fingerprint(),
                "batch": self.batch,
                "scheme": self.scheme.lower(),
                "dtype_bytes": self.dtype_bytes,
                "levels": self.levels,
                "space": list(self.space) if self.space is not None else None,
                "ratio_mode": self.ratio_mode,
                "backend": self.backend,
                "profile": (self.profile.fingerprint()
                            if self.profile is not None else None),
            }
        )
