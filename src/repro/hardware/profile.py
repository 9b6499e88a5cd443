"""Pluggable hardware profiles: the seam between specs and costs.

Every cost the planner or the simulator computes flows through a
:class:`HardwareProfile`: given an accelerator group, the profile answers
"what rates does this hardware *actually* deliver?".  Two implementations:

* :class:`AnalyticProfile` — peak datasheet rates (Table 7), exactly the
  pre-profile behavior.  It returns the group's own aggregate numbers
  unchanged, so plans under the default profile are bit-identical to the
  historical spec-driven ones.
* :class:`CalibratedProfile` — *effective* rates fitted from measurements
  (:mod:`repro.calib`): per-op-kind compute densities, a size-dependent
  network bandwidth-efficiency curve, a per-transfer latency constant and
  a memory-bandwidth derate, one :class:`SpecProfile` per accelerator spec.

The calibrated communication model is an alpha-beta (latency + inverse
bandwidth) law with a size-dependent efficiency::

    time(S) = latency + S / (peak_bw * efficiency(S))

Inside the Eq. 10 ratio solve the efficiency is evaluated at the
*alpha-independent* base tensor size of the transfer, so each party's cost
stays affine/quadratic in the ratio and the closed forms of
:mod:`repro.core.ratio` keep applying — the latency constant only adds an
affine (constant) term per transfer.

Profiles serialize as ``repro.hardware.profile/v1`` JSON documents
(:func:`profile_to_doc` / :func:`profile_from_doc`); the document digest is
the profile's :meth:`~CalibratedProfile.fingerprint`, which the plan service
folds into every request fingerprint so calibrated and analytic plans never
share a cache entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple

from ..digest import stable_digest
from ..ioutil import atomic_write_text
from .accelerator import AcceleratorGroup, AcceleratorSpec

#: schema tag of the profile JSON document
PROFILE_SCHEMA = "repro.hardware.profile/v1"

#: the op-kind fallback: a profile must always answer this kind
DEFAULT_KIND = "default"


class ProfileError(ValueError):
    """Malformed profile document or fit input."""


class ProfileMismatchError(ProfileError):
    """A profile was asked about hardware it has no calibration for."""


def _finite(value) -> bool:
    """True for an int or float (not a bool) that is neither NaN nor ±inf."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class SpecProfile:
    """Effective-rate model of one accelerator spec (one Table 7 row).

    ``compute_rates`` maps op kinds (``conv``, ``fc``, …) to effective
    FLOP/s per board; a ``default`` entry is required and answers unknown
    kinds.  ``bandwidth_efficiency`` is a piecewise log-linear curve of
    ``(transfer_bytes, efficiency)`` points multiplying the spec's peak
    network bandwidth (empty curve = 1.0 everywhere); efficiencies clamp at
    the first/last point outside the sampled range.  ``transfer_latency_s``
    is the fixed per-transfer cost (the alpha of an alpha-beta model) and
    ``memory_bandwidth_scale`` derates the HBM stream in the simulator.
    """

    spec: str
    compute_rates: Tuple[Tuple[str, float], ...]
    bandwidth_efficiency: Tuple[Tuple[float, float], ...] = ()
    transfer_latency_s: float = 0.0
    memory_bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        rates = dict(self.compute_rates)
        if DEFAULT_KIND not in rates:
            raise ProfileError(
                f"spec profile {self.spec!r} needs a {DEFAULT_KIND!r} compute rate"
            )
        for kind, rate in rates.items():
            if not (_finite(rate) and rate > 0):
                raise ProfileError(
                    f"compute rate for {self.spec!r}/{kind!r} must be "
                    f"positive and finite, got {rate!r}"
                )
        latency = self.transfer_latency_s
        if not (_finite(latency) and latency >= 0):
            raise ProfileError(
                f"transfer_latency_s of {self.spec!r} must be non-negative "
                f"and finite, got {latency!r}")
        scale = self.memory_bandwidth_scale
        if not (_finite(scale) and scale > 0):
            raise ProfileError(
                f"memory_bandwidth_scale of {self.spec!r} must be positive "
                f"and finite, got {scale!r}")
        points = tuple(sorted((float(s), float(e))
                              for s, e in self.bandwidth_efficiency))
        for size, eff in points:
            if not (_finite(size) and size > 0 and 0 < eff <= 1.0):
                raise ProfileError(
                    f"bandwidth efficiency point ({size}, {eff}) of "
                    f"{self.spec!r} must have a finite size > 0 and "
                    f"efficiency in (0, 1]"
                )
        object.__setattr__(self, "bandwidth_efficiency", points)
        object.__setattr__(self, "compute_rates",
                           tuple(sorted(rates.items())))

    def compute_rate(self, kind: str = DEFAULT_KIND) -> float:
        """Effective FLOP/s of one board for ``kind`` ops."""
        rates = dict(self.compute_rates)
        return rates.get(kind, rates[DEFAULT_KIND])

    def efficiency(self, nbytes: float) -> float:
        """Bandwidth efficiency for a transfer of ``nbytes`` (log-linear)."""
        points = self.bandwidth_efficiency
        if not points:
            return 1.0
        if nbytes <= points[0][0]:
            return points[0][1]
        if nbytes >= points[-1][0]:
            return points[-1][1]
        for (s0, e0), (s1, e1) in zip(points, points[1:]):
            if s0 <= nbytes <= s1:
                if s1 == s0:
                    return e1
                frac = (math.log(nbytes) - math.log(s0)) / \
                    (math.log(s1) - math.log(s0))
                return e0 + frac * (e1 - e0)
        return points[-1][1]  # pragma: no cover - covered by the clamps


class AnalyticProfile:
    """Peak datasheet rates: the historical "spec == cost model" behavior.

    Every method returns the group's own aggregate number unchanged (and a
    zero latency constant), so the cost arithmetic downstream is
    bit-identical to the pre-profile code paths.
    """

    name = "analytic"
    is_analytic = True

    def compute_rate(self, group: AcceleratorGroup,
                     kind: str = DEFAULT_KIND) -> float:
        return group.flops

    def spec_compute_rate(self, spec: AcceleratorSpec,
                          kind: str = DEFAULT_KIND) -> float:
        return spec.flops

    def network_bandwidth(self, group: AcceleratorGroup,
                          nbytes: Optional[float] = None) -> float:
        return group.network_bandwidth

    def transfer_latency_s(self, group: AcceleratorGroup) -> float:
        return 0.0

    def memory_bandwidth(self, group: AcceleratorGroup) -> float:
        return group.memory_bandwidth

    def validate_array(self, group: AcceleratorGroup) -> None:
        """Peak rates exist for every spec; nothing to check."""

    def fingerprint(self) -> str:
        return stable_digest({"schema": PROFILE_SCHEMA, "kind": "analytic"})

    def __repr__(self) -> str:
        return "AnalyticProfile()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AnalyticProfile)

    def __hash__(self) -> int:
        return hash(("AnalyticProfile",))


#: the process-wide default profile (stateless, safe to share)
ANALYTIC = AnalyticProfile()


@dataclass(frozen=True)
class CalibratedProfile:
    """Measured effective rates, one :class:`SpecProfile` per spec name.

    Group-level aggregation mirrors :class:`AcceleratorGroup`'s summation
    rule: a group's effective compute rate (per kind) and its effective
    bandwidth (at a given transfer size) are sums over members; the
    latency constant of a group is the slowest member's (a transfer
    completes when the slowest party finishes its fixed overhead).
    """

    name: str
    specs: Tuple[SpecProfile, ...]
    #: provenance strings (fit source, sample counts, …); excluded from
    #: nothing — they are part of the document and the fingerprint
    meta: Tuple[Tuple[str, str], ...] = ()

    is_analytic = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("a calibrated profile needs a name")
        if not self.specs:
            raise ProfileError(f"profile {self.name!r} calibrates no specs")
        by_name = {}
        for sp in self.specs:
            if sp.spec in by_name:
                raise ProfileError(
                    f"profile {self.name!r} has duplicate spec {sp.spec!r}"
                )
            by_name[sp.spec] = sp
        object.__setattr__(self, "specs",
                           tuple(sorted(self.specs, key=lambda s: s.spec)))
        object.__setattr__(self, "meta", tuple(sorted(self.meta)))

    # ------------------------------------------------------------------
    def spec_names(self) -> Tuple[str, ...]:
        return tuple(sp.spec for sp in self.specs)

    def _spec(self, name: str) -> SpecProfile:
        for sp in self.specs:
            if sp.spec == name:
                return sp
        raise ProfileMismatchError(
            f"profile {self.name!r} has no calibration for spec {name!r}; "
            f"covered: {', '.join(self.spec_names())}"
        )

    def validate_array(self, group: AcceleratorGroup) -> None:
        """Raise :class:`ProfileMismatchError` unless every member is covered."""
        missing = sorted({m.name for m in group.members}
                         - set(self.spec_names()))
        if missing:
            raise ProfileMismatchError(
                f"profile {self.name!r} has no calibration for accelerator "
                f"spec(s) {', '.join(missing)}; covered: "
                f"{', '.join(self.spec_names())}"
            )

    # -- group-level effective rates -----------------------------------
    def compute_rate(self, group: AcceleratorGroup,
                     kind: str = DEFAULT_KIND) -> float:
        return sum(self._spec(m.name).compute_rate(kind)
                   for m in group.members)

    def spec_compute_rate(self, spec: AcceleratorSpec,
                          kind: str = DEFAULT_KIND) -> float:
        return self._spec(spec.name).compute_rate(kind)

    def network_bandwidth(self, group: AcceleratorGroup,
                          nbytes: Optional[float] = None) -> float:
        if nbytes is None:
            nbytes = float("inf")  # asymptotic efficiency (last curve point)
        return sum(m.network_bandwidth * self._spec(m.name).efficiency(nbytes)
                   for m in group.members)

    def transfer_latency_s(self, group: AcceleratorGroup) -> float:
        return max(self._spec(m.name).transfer_latency_s
                   for m in group.members)

    def memory_bandwidth(self, group: AcceleratorGroup) -> float:
        return sum(m.memory_bandwidth * self._spec(m.name).memory_bandwidth_scale
                   for m in group.members)

    def fingerprint(self) -> str:
        return stable_digest(profile_to_doc(self))

    def __str__(self) -> str:
        return f"CalibratedProfile[{self.name}: {', '.join(self.spec_names())}]"


# ----------------------------------------------------------------------
# serialization: repro.hardware.profile/v1
# ----------------------------------------------------------------------

def profile_to_doc(profile) -> Dict:
    """The ``repro.hardware.profile/v1`` JSON document of a profile."""
    if getattr(profile, "is_analytic", False):
        return {"schema": PROFILE_SCHEMA, "kind": "analytic",
                "name": "analytic"}
    specs = {}
    for sp in profile.specs:
        specs[sp.spec] = {
            "compute_rates": dict(sp.compute_rates),
            "bandwidth_efficiency": [list(p) for p in sp.bandwidth_efficiency],
            "transfer_latency_s": sp.transfer_latency_s,
            "memory_bandwidth_scale": sp.memory_bandwidth_scale,
        }
    return {
        "schema": PROFILE_SCHEMA,
        "kind": "calibrated",
        "name": profile.name,
        "specs": specs,
        "meta": dict(profile.meta),
    }


def _doc_number(value, field: str) -> float:
    """A document number as a float; a bool or a non-number names ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProfileError(f"{field} must be a number, got {value!r}")
    return float(value)


def profile_from_doc(doc) -> "HardwareProfile":
    """Parse a ``repro.hardware.profile/v1`` document (tolerant of extras)."""
    if not isinstance(doc, dict):
        raise ProfileError("profile document must be a JSON object")
    schema = doc.get("schema")
    if schema != PROFILE_SCHEMA:
        raise ProfileError(
            f"unsupported profile schema {schema!r}; expected {PROFILE_SCHEMA!r}"
        )
    kind = doc.get("kind", "calibrated")
    if kind == "analytic":
        return ANALYTIC
    if kind != "calibrated":
        raise ProfileError(f"unknown profile kind {kind!r}")
    specs_doc = doc.get("specs")
    if not isinstance(specs_doc, dict) or not specs_doc:
        raise ProfileError("calibrated profile needs a non-empty 'specs' map")
    specs = []
    for name, sd in specs_doc.items():
        if not isinstance(sd, dict):
            raise ProfileError(f"spec entry {name!r} must be an object")
        rates = sd.get("compute_rates")
        if not isinstance(rates, dict):
            raise ProfileError(f"spec entry {name!r} needs 'compute_rates'")
        specs.append(SpecProfile(
            spec=str(name),
            compute_rates=tuple(
                (str(k), _doc_number(v, f"compute rate for {name!r}/{k!r}"))
                for k, v in rates.items()),
            bandwidth_efficiency=tuple(
                (_doc_number(s, f"bandwidth efficiency size of {name!r}"),
                 _doc_number(e, f"bandwidth efficiency of {name!r}"))
                for s, e in sd.get("bandwidth_efficiency", ())),
            transfer_latency_s=_doc_number(
                sd.get("transfer_latency_s", 0.0),
                f"transfer_latency_s of {name!r}"),
            memory_bandwidth_scale=_doc_number(
                sd.get("memory_bandwidth_scale", 1.0),
                f"memory_bandwidth_scale of {name!r}"),
        ))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ProfileError("'meta' must be an object")
    return CalibratedProfile(
        name=str(doc.get("name", "calibrated")),
        specs=tuple(specs),
        meta=tuple((str(k), str(v)) for k, v in meta.items()),
    )


def save_profile(profile, path) -> None:
    """Write a profile as pretty-printed v1 JSON (atomically)."""
    text = json.dumps(profile_to_doc(profile), indent=2, sort_keys=True)
    atomic_write_text(path, text + "\n")


def load_profile(path) -> "HardwareProfile":
    """Read a ``repro.hardware.profile/v1`` JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProfileError(f"{path}: not valid JSON ({exc})") from exc
    return profile_from_doc(doc)


def resolve_profile(value) -> "HardwareProfile":
    """Coerce ``None`` / name / path / document / profile into a profile.

    ``None`` and ``"analytic"`` mean peak rates; a dict is parsed as a v1
    document; any other string is treated as a JSON file path.
    """
    if value is None or value is ANALYTIC:
        return ANALYTIC
    if isinstance(value, (AnalyticProfile, CalibratedProfile)):
        return value
    if isinstance(value, dict):
        return profile_from_doc(value)
    if isinstance(value, str):
        if value.lower() == "analytic":
            return ANALYTIC
        return load_profile(value)
    raise ProfileError(f"cannot resolve a profile from {type(value).__name__}")


class HardwareProfile(Protocol):
    """Structural interface every profile implementation satisfies."""

    name: str
    is_analytic: bool

    def compute_rate(self, group: AcceleratorGroup,
                     kind: str = DEFAULT_KIND) -> float: ...
    def spec_compute_rate(self, spec: AcceleratorSpec,
                          kind: str = DEFAULT_KIND) -> float: ...
    def network_bandwidth(self, group: AcceleratorGroup,
                          nbytes: Optional[float] = None) -> float: ...
    def transfer_latency_s(self, group: AcceleratorGroup) -> float: ...
    def memory_bandwidth(self, group: AcceleratorGroup) -> float: ...
    def validate_array(self, group: AcceleratorGroup) -> None: ...
    def fingerprint(self) -> str: ...
