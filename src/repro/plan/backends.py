"""Pluggable search backends behind one protocol and a name registry.

Every search algorithm that can produce a level plan — the paper's Eq. 9
dynamic program, the greedy strawman, the brute-force oracle, and the
fixed-type policy — implements :class:`SearchBackend`:

    search(stages, model, space, space_fn=None) -> SearchResult

Schemes resolve a backend by name through :func:`get_backend`, the CLI
exposes the same names via ``--backend``, and the plan service accepts a
per-request backend (its deadline fallback is "exact backend → fallback
backend" rather than a hard-coded algorithm).

Core-module imports happen inside ``search`` bodies: the backends are
registered at package import time, before :mod:`repro.core`'s submodules
have finished loading.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Protocol, Sequence

from ..core.types import ALL_TYPES, PartitionType
from .ir import SearchResult


class SearchBackend(Protocol):
    """One level-plan search algorithm, selectable by name."""

    name: str

    def search(
        self,
        stages,
        model,
        space: Sequence[PartitionType] = ALL_TYPES,
        space_fn=None,
    ) -> SearchResult:
        """Find per-layer assignments for one hierarchy level.

        ``stages`` is the level's sub-problem
        (:class:`~repro.core.stages.ShardedStages`); ``model`` is the
        level's :class:`~repro.core.cost_model.PairCostModel`; ``space``
        the searchable partition types; ``space_fn`` an optional per-layer
        restriction (unsharded layer workload → allowed types).
        """
        ...  # pragma: no cover - protocol


class DpSearchBackend:
    """The paper's layer-wise DP (Eq. 9): exact, multi-path aware, O(N·|T|²).

    Step costs are packed as dense (layer, family, type) tensors from the
    level's fraction table; every fork/join path of the level is solved in
    one numpy sweep and the top-level chain runs on Python floats; see
    :mod:`repro.core.dp_vectorized` and ``docs/performance.md``.
    """

    name = "dp"

    def search(self, stages, model, space=ALL_TYPES, space_fn=None) -> SearchResult:
        from ..core.dp_vectorized import search_stages

        return search_stages(stages, model, space, space_fn=space_fn)


class GreedySearchBackend:
    """Myopic per-layer choice, O(N·|T|); fork/join regions are linearized."""

    name = "greedy"

    def search(self, stages, model, space=ALL_TYPES, space_fn=None) -> SearchResult:
        from ..core.greedy import greedy_chain
        from ..core.stages import flatten_to_chain

        return greedy_chain(flatten_to_chain(stages), model, space,
                            space_fn=space_fn)


class BruteForceSearchBackend:
    """Exhaustive |T|^N enumeration — the optimality oracle.

    Fork/join regions are linearized.  ``max_layers`` bounds the exponent:
    beyond it the enumeration is refused with a clear error instead of
    running for hours (which is Section 5.1's argument for the DP).
    """

    name = "brute-force"

    def __init__(self, max_layers: int = 12):
        self.max_layers = max_layers

    def search(self, stages, model, space=ALL_TYPES, space_fn=None) -> SearchResult:
        from ..core.brute_force import brute_force_chain
        from ..core.stages import flatten_to_chain

        return brute_force_chain(flatten_to_chain(stages), model, space,
                                 space_fn=space_fn, max_layers=self.max_layers)


class FixedTypeSearchBackend:
    """The DP with every layer pinned to Type-I (classic data parallelism);
    it only aligns fork/join tensors.  A caller's ``space_fn`` replaces the
    pin."""

    name = "fixed-type"

    def search(self, stages, model, space=ALL_TYPES, space_fn=None) -> SearchResult:
        from ..core.dp_vectorized import search_stages

        if space_fn is None:
            space_fn = lambda w: (PartitionType.TYPE_I,)
        return search_stages(stages, model, space, space_fn=space_fn)


#: canonical name → zero-argument factory
_REGISTRY: Dict[str, Callable[[], SearchBackend]] = {}

#: accepted spelling → canonical name
_ALIASES: Dict[str, str] = {}


def register_backend(
    name: str,
    factory: Callable[[], SearchBackend],
    aliases: Sequence[str] = (),
) -> None:
    """Register a backend factory under ``name`` (plus optional aliases)."""
    key = name.lower()
    _REGISTRY[key] = factory
    for alias in aliases:
        _ALIASES[alias.lower()] = key


def canonical_backend_name(name: str) -> str:
    """Resolve a (case-insensitive) name or alias to its canonical name.

    Raises ``KeyError`` for unknown names, same as :func:`get_backend`.
    """
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown search backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    return key


def get_backend(name: str) -> SearchBackend:
    """Instantiate a backend by (case-insensitive) name or alias."""
    return _REGISTRY[canonical_backend_name(name)]()


def available_backends() -> List[str]:
    """The canonical registered backend names, sorted."""
    return sorted(_REGISTRY)


register_backend("dp", DpSearchBackend,
                 aliases=("accpar", "exact", "dp-vectorized", "dp_vectorized",
                          "dpv", "vectorized"))
register_backend("greedy", GreedySearchBackend)
register_backend("brute-force", BruteForceSearchBackend,
                 aliases=("brute_force", "bruteforce"))
register_backend("fixed-type", FixedTypeSearchBackend,
                 aliases=("fixed_type", "fixed"))
