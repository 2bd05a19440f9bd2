"""Spatial sum-product networks for part-based image classification."""

from .errors import SpnError
from .network import (
    IndicatorValues,
    Network,
    NetworkBuilder,
    assignment_to_indicators,
    deserialize,
    encode_records,
    evaluate,
    load_network,
    max_evaluate,
    normalize_weights,
    save_network,
    serialize,
    validate,
)
from .inference import MpeResult, TraversalCounts, mpe, traversal_difference
from .spatial import Location, Relation, build_pair_gadget, canonical_pair, compute_relations

__all__ = [
    "IndicatorValues",
    "Location",
    "MpeResult",
    "Network",
    "NetworkBuilder",
    "Relation",
    "SpnError",
    "TraversalCounts",
    "assignment_to_indicators",
    "build_pair_gadget",
    "canonical_pair",
    "compute_relations",
    "deserialize",
    "encode_records",
    "evaluate",
    "load_network",
    "max_evaluate",
    "mpe",
    "normalize_weights",
    "save_network",
    "serialize",
    "traversal_difference",
    "validate",
]
