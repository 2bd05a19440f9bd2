"""Pairwise spatial relations between part locations.

A relation is always expressed for the canonically ordered pair
(part_a, part_b) with part_a < part_b: "LEFT_OF" means part_a lies to the
left of part_b. Image coordinates are used throughout, so y grows downward
and "above" means a smaller y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import ContractViolationError


class Relation(IntEnum):
    LEFT_OF = 0
    RIGHT_OF = 1
    ABOVE = 2
    BELOW = 3


RELATION_TOKENS = {
    Relation.LEFT_OF: "left",
    Relation.RIGHT_OF: "right",
    Relation.ABOVE: "above",
    Relation.BELOW: "below",
}
TOKEN_RELATIONS = {tok: rel for rel, tok in RELATION_TOKENS.items()}


@dataclass(frozen=True)
class Location:
    """Center pixel of a detected part, image convention (y downward)."""

    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


def canonical_pair(a: int, b: int) -> tuple[int, int]:
    """Order a part pair canonically (smaller id first)."""
    if a == b:
        raise ContractViolationError(f"pair must use two distinct parts, got ({a}, {b})")
    return (a, b) if a < b else (b, a)


def compute_relations(loc1: Location, loc2: Location) -> tuple[bool, bool, bool, bool]:
    """Spatial indicators (left, right, above, below) of loc1 relative to loc2.

    An equal coordinate on an axis carries no directional evidence, so both
    indicators of that axis come back False.
    """
    if not (loc1.is_finite() and loc2.is_finite()):
        raise ContractViolationError("locations must be finite")
    left = loc1.x < loc2.x
    right = loc1.x > loc2.x
    above = loc1.y < loc2.y
    below = loc1.y > loc2.y
    return (left, right, above, below)


def build_pair_gadget(pair: tuple[int, int]):
    """Stand-alone network fragment scoring the spatial configuration of a pair.

    The fragment is a sum node over four product nodes; product i carries the
    positive indicators of both parts plus one relation indicator, and the sum
    edges start uniform. Returned as a complete one-fragment Network whose
    root is the gadget sum.
    """
    from .network import NetworkBuilder

    a, b = canonical_pair(*pair)
    builder = NetworkBuilder()
    root = add_gadget(builder, (a, b))
    return builder.build(root=root)


def add_gadget(builder, pair: tuple[int, int], weights=None, annotation=None):
    """Append one pair gadget to a builder; returns the gadget sum node id.

    The relation indicators are created in enum order so argmax tie-breaking
    by lowest node id prefers LEFT_OF, then RIGHT_OF, ABOVE, BELOW.
    """
    a, b = pair
    if weights is None:
        weights = (0.25, 0.25, 0.25, 0.25)
    sum_id = builder.sum(annotation=annotation)
    xa = builder.part(a, True)
    xb = builder.part(b, True)
    for rel, w in zip(Relation, weights):
        prod = builder.product(annotation=annotation)
        builder.edge(prod, xa)
        builder.edge(prod, xb)
        builder.edge(prod, builder.spatial(pair, rel))
        builder.edge(sum_id, prod, w)
    return sum_id
