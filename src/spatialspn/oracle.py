"""Brute-force reference implementations for small instances.

These deliberately avoid the fast evaluation paths: marginals are exhaustive
sums over part completions, MPE is an exhaustive argmax over completions,
and gradients come from central finite differences. Size guards keep the
enumeration under control; they are enforced, never silently exceeded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .inference import mpe
from .network import (
    IndicatorValues,
    Network,
    NetworkBuilder,
    evaluate,
    max_evaluate,
)
from .spatial import add_gadget

MAX_ORACLE_VARIABLES = 10

# Geometrically realizable indicator states (left, right, above, below):
# three x-axis outcomes (left / right / tie) crossed with three y-axis
# outcomes (above / below / tie). Patterns like left-and-right never occur.
PAIR_STATES: tuple[tuple[float, float, float, float], ...] = tuple(
    (float(lx == 0), float(lx == 1), float(ly == 0), float(ly == 1))
    for lx in (0, 1, 2)
    for ly in (0, 1, 2)
)

PART_STATES: tuple[tuple[float, float], ...] = ((1.0, 0.0), (0.0, 1.0))


@dataclass
class CompletionSpace:
    """Complete assignments over a network's variables.

    Part variables contribute their two polarities, pair variables the nine
    realizable relation states. Enumeration covers every assignment exactly
    once, restricted to states consistent with the given (binary) evidence.
    """

    parts: list[int]
    pairs: list[tuple[int, int]]
    part_states: dict[int, list[tuple[float, float]]]
    pair_states: dict[tuple[int, int], list[tuple[float, float, float, float]]]

    @classmethod
    def consistent_with(cls, network: Network, evidence: IndicatorValues,
                        enumerate_pairs: bool = True) -> "CompletionSpace":
        parts = network.part_universe
        pairs = network.pair_universe
        if len(parts) + len(pairs) > MAX_ORACLE_VARIABLES:
            raise SizeGuardError(
                f"{len(parts) + len(pairs)} variables exceed the oracle cap of {MAX_ORACLE_VARIABLES}"
            )
        part_states = {}
        for part in parts:
            allowed = [s for s in PART_STATES if _state_consistent(s, _part_evidence(evidence, part))]
            part_states[part] = allowed
        pair_states = {}
        for pair in pairs:
            ev = _pair_evidence(evidence, pair)
            if enumerate_pairs:
                pair_states[pair] = [s for s in PAIR_STATES if _state_consistent(s, ev)]
            else:
                pair_states[pair] = [ev]
        return cls(parts, pairs, part_states, pair_states)

    @property
    def size(self) -> int:
        total = 1
        for states in self.part_states.values():
            total *= len(states)
        for states in self.pair_states.values():
            total *= len(states)
        return total

    def __iter__(self):
        part_options = [self.part_states[p] for p in self.parts]
        pair_options = [self.pair_states[q] for q in self.pairs]
        for combo in itertools.product(*part_options, *pair_options):
            values = IndicatorValues()
            for part, state in zip(self.parts, combo[: len(self.parts)]):
                values.parts[part] = state
            for pair, state in zip(self.pairs, combo[len(self.parts):]):
                values.pairs[pair] = state
            yield values


def _part_evidence(evidence: IndicatorValues, part: int):
    state = evidence.parts.get(part)
    if state is None or any(v not in (0.0, 1.0) for v in state):
        raise SizeGuardError(
            f"oracle requires binary evidence for part {part}, got {state}"
        )
    return state


def _pair_evidence(evidence: IndicatorValues, pair):
    state = evidence.pairs.get(pair)
    if state is None or any(v not in (0.0, 1.0) for v in state):
        raise SizeGuardError(
            f"oracle requires binary evidence for pair {pair}, got {state}"
        )
    return state


def _state_consistent(state, ev) -> bool:
    return all(s <= e for s, e in zip(state, ev))


def brute_force_marginal(network: Network, evidence: IndicatorValues) -> float:
    """Sum of one-hot evaluations over part completions consistent with evidence.

    Pair indicators enter as fixed evidence rather than being enumerated: the
    four relation indicators of a pair are not mutually exclusive, so there is
    no partition of unity to sum over. Part variables obey the usual
    marginalization identity, which this enumeration checks independently.
    """
    space = CompletionSpace.consistent_with(network, evidence, enumerate_pairs=False)
    total = 0.0
    for completion in space:
        total += evaluate(network, completion).root_value
    return total


def brute_force_mpe(network: Network, evidence: IndicatorValues):
    """Exhaustive argmax of max-network evaluation over consistent completions.

    Ties resolve to the first completion in enumeration order (parts before
    pairs, states in declaration order), which is lexicographic and stable.
    """
    space = CompletionSpace.consistent_with(network, evidence, enumerate_pairs=True)
    best_value = -math.inf
    best_assignment = None
    for completion in space:
        value = max_evaluate(network, completion).root_value
        if value > best_value:
            best_value = value
            best_assignment = completion
    return best_assignment, best_value


def finite_difference_gradient(network: Network, evidence_pair, edge: int,
                               delta: float | None = None):
    """Central difference of log M(I_m) - log M(I_n) in one edge weight.

    The difference is meaningful only while both selected trees stay fixed;
    if a perturbation flips an argmax the step shrinks by 10x, up to five
    times, after which None is returned (inconclusive, never faked).
    """
    ev_m, ev_n = evidence_pair
    weight = float(network.edge_weight[edge])
    if delta is None:
        delta = max(weight * 1e-3, 1e-9)

    def tree_signature(evidence):
        result = mpe(network, evidence)
        return tuple(np.flatnonzero(result.edge_counts))

    base_m = tree_signature(ev_m)
    base_n = tree_signature(ev_n)

    for _ in range(5):
        if weight - delta <= 0:
            delta /= 10.0
            continue
        values = {}
        stable = True
        for sign in (+1, -1):
            network.edge_weight[edge] = weight + sign * delta
            try:
                if tree_signature(ev_m) != base_m or tree_signature(ev_n) != base_n:
                    stable = False
                    break
                vm = max_evaluate(network, ev_m).root_log_value
                vn = max_evaluate(network, ev_n).root_log_value
                values[sign] = vm - vn
            finally:
                network.edge_weight[edge] = weight
        if stable:
            return (values[+1] - values[-1]) / (2.0 * delta)
        delta /= 10.0
    return None


# ------------------------------------------------------------------- fixtures


def reference_network() -> Network:
    """Two-part mixture network with hand-computable values.

    Root sum (0.8, 0.2) over two products; each product factors a Bernoulli
    mixture for part 0 and part 1. Closed-form checks used by the verify
    suite: value at (x0=1, x0_bar=0, x1=0, x1_bar=1) is
    0.8*0.3*0.2 + 0.2*0.4*0.9 = 0.12, and under max semantics with part 1
    marginalized the two branches score 0.8*0.3*0.8 = 0.192 and
    0.2*0.4*0.9 = 0.072, so MPE infers part 1 present.
    """
    b = NetworkBuilder()
    root = b.sum()
    x0, x0n = b.part(0, True), b.part(0, False)
    x1, x1n = b.part(1, True), b.part(1, False)
    specs = [
        (0.8, (0.3, 0.7), (0.8, 0.2)),
        (0.2, (0.4, 0.6), (0.1, 0.9)),
    ]
    for branch_weight, (w0, w0n), (w1, w1n) in specs:
        prod = b.product()
        mix0 = b.sum()
        b.edge(mix0, x0, w0)
        b.edge(mix0, x0n, w0n)
        mix1 = b.sum()
        b.edge(mix1, x1, w1)
        b.edge(mix1, x1n, w1n)
        b.edge(prod, mix0)
        b.edge(prod, mix1)
        b.edge(root, prod, branch_weight)
    return b.build(root=root)


REFERENCE_JOINT_VALUE = 0.12       # value at (1, 0, 0, 1)
REFERENCE_MPE_BRANCHES = (0.192, 0.072)  # max-product branch values, part 1 marginalized


def random_network(rng, max_parts=4, max_pairs=2, normalized=True) -> Network:
    """A random valid network: complete, decomposable and tree-structured.

    Variables are drawn as standalone parts plus pair groups (a pair variable
    together with its two parts forms an atomic scope unit realized by a
    gadget). Internal structure recursively mixes products over random unit
    partitions, so every sum is complete and every product decomposable.
    """
    n_pairs = int(rng.integers(0, max_pairs + 1))
    min_parts = 2 * n_pairs if n_pairs else 1
    n_parts = int(rng.integers(max(min_parts, 1), max(max_parts, min_parts) + 1))
    parts = list(range(n_parts))
    paired = []
    pool = list(parts)
    for _ in range(n_pairs):
        idx = rng.choice(len(pool), size=2, replace=False)
        a, b = pool[int(idx[0])], pool[int(idx[1])]
        for used in sorted((a, b), reverse=True):
            pool.remove(used)
        paired.append((min(a, b), max(a, b)))
    units = [("pair", q) for q in sorted(paired)] + [("part", p) for p in pool]

    b = NetworkBuilder()

    def build_unit(unit):
        kind, key = unit
        if kind == "part":
            mix = b.sum()
            w = float(rng.uniform(0.1, 0.9))
            b.edge(mix, b.part(key, True), w)
            b.edge(mix, b.part(key, False), 1.0 - w)
            return mix
        weights = rng.uniform(0.05, 1.0, size=4)
        weights = weights / weights.sum()
        return add_gadget(b, key, weights=tuple(float(x) for x in weights))

    def build_scope(scope_units):
        if len(scope_units) == 1:
            return build_unit(scope_units[0])
        node = b.sum()
        n_components = int(rng.integers(1, 4))
        raw = rng.uniform(0.2, 1.0, size=n_components)
        weights = raw / raw.sum() if normalized else raw
        for w in weights:
            prod = b.product()
            groups = _random_partition(rng, scope_units)
            for group in groups:
                b.edge(prod, build_scope(group))
            b.edge(node, prod, float(w))
        return node

    root = build_scope(units)
    return b.build(root=root)


def _random_partition(rng, items):
    """Random partition of items into at least two groups (given >= 2 items)."""
    n_groups = int(rng.integers(2, len(items) + 1))
    labels = list(range(n_groups)) + [int(rng.integers(0, n_groups)) for _ in range(len(items) - n_groups)]
    rng.shuffle(labels)
    groups = [[] for _ in range(n_groups)]
    for item, label in zip(items, labels):
        groups[label].append(item)
    return [g for g in groups if g]


def random_evidence(rng, network: Network, marginal_rate=0.4) -> IndicatorValues:
    """Random binary evidence: one-hot or marginalized parts, realizable or
    marginalized pair states."""
    values = IndicatorValues()
    for part in network.part_universe:
        u = rng.random()
        if u < marginal_rate:
            values.marginalize_part(part)
        else:
            values.set_part(part, bool(rng.integers(0, 2)))
    for pair in network.pair_universe:
        if rng.random() < marginal_rate:
            values.marginalize_pair(pair)
        else:
            values.pairs[pair] = PAIR_STATES[int(rng.integers(0, len(PAIR_STATES)))]
    return values


def gradient_fixture(rng, max_parts=4, max_pairs=1, attempts=50):
    """A random network plus two full-evidence assignments with finite
    max-network values, suitable for gradient checking. Evidence that zeroes
    the network (an absent part killing every branch) is resampled."""
    for _ in range(attempts):
        network = random_network(rng, max_parts=max_parts, max_pairs=max_pairs)
        ev_m = random_evidence(rng, network, marginal_rate=0.0)
        ev_n = random_evidence(rng, network, marginal_rate=0.0)
        vm = max_evaluate(network, ev_m).root_log_value
        vn = max_evaluate(network, ev_n).root_log_value
        if math.isfinite(vm) and math.isfinite(vn):
            return network, ev_m, ev_n
    raise SizeGuardError("could not sample a non-degenerate gradient fixture")


def gradients_match(analytic: float, fd: float, rel=1e-4, zero_floor=1e-8) -> bool:
    """Relative comparison with an absolute floor for the zero-zero case.

    A traversal difference of zero makes the true derivative exactly zero;
    the finite difference then only carries float noise (~1e-13), which the
    floor absorbs."""
    if abs(analytic) <= zero_floor and abs(fd) <= zero_floor:
        return True
    return abs(analytic - fd) <= rel * max(abs(analytic), abs(fd))
