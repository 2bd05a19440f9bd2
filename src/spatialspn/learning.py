"""Two-stage parameter learning and the trained model bundle.

Stage one is generative hard-EM: per epoch, MPE inference on each positive
image accumulates edge traversal counts, and each sum edge is reset to its
smoothed count share. Stage two is discriminative: for sampled
(positive, negative) image pairs whose margin constraint is violated, edge
weights move along the max-network gradient (traversal-count difference over
the weight), scaled by the violation. Joint mode accumulates the gradients
of edges shared between class networks over pairs from every participating
class before applying them, keeping tied weights in lockstep.

Scores are log root values of the sum network throughout; with deep
scope-completed networks the linear values underflow, and rankings and
margins only need differences of logs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, ImageRecord
from .errors import (
    ContractViolationError,
    InsufficientDataError,
    ModelFormatError,
    PruneError,
    TrainingError,
    VocabularyMismatchError,
)
from .inference import _backtrack
from .network import (
    PRODUCT,
    SUM,
    WEIGHT_FLOOR,
    Network,
    _forward,
    _int,
    encode_records,
    load_network,
    normalize_weights,
    save_network,
    validate,
)
from .structure import (
    StructureConfig,
    build_class_network,
    build_flat_network,
    build_naive_network,
    count_gadgets,
    find_shared_structures,
    learn_partition_tree,
)

MODES = ("spn", "fs-spn", "ihs-spn", "jhs-spn")

# Hinge slacks are clamped: an image a network scores as exactly zero
# (log -inf) would otherwise produce an infinite slack, and no weight update
# can fix a structural zero anyway.
SLACK_CAP = 10.0


def _hinge_slack(v_pos: float, v_neg: float) -> float:
    if math.isinf(v_pos) and math.isinf(v_neg):
        diff = 0.0
    else:
        diff = v_pos - v_neg
    return float(min(max(0.0, 1.0 - diff), SLACK_CAP))


@dataclass
class TrainConfig:
    """Training knobs; margin is fixed at 1 by the objective."""

    generative_epochs: int = 15
    smoothing: float = 0.1
    prune_threshold: float = 1e-6
    learning_rate: float = 0.02
    max_pairs_per_epoch: int = 2000
    discriminative_epochs: int = 10
    early_stop_patience: int = 3
    seed: int = 0
    mode: str = "ihs-spn"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.smoothing < 0:
            raise ValueError("smoothing must be nonnegative")
        if self.prune_threshold < WEIGHT_FLOOR:
            raise ValueError(f"prune_threshold must be >= weight floor {WEIGHT_FLOOR}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class MarginRecord:
    """One sampled cross-class pair and its hinge slack."""

    positive_id: str
    negative_id: str
    slack: float
    changed: bool = False  # whether the pair's step moved any weight


# --------------------------------------------------------------- generative


def generative_train(network: Network, positives: list[ImageRecord], config: TrainConfig,
                     log_lines: list[str] | None = None) -> Network:
    """Hard-EM over the class positives.

    Every epoch runs one full-evidence max pass over all images and
    accumulates each image's MPE traversal counts; at the epoch end each sum
    edge weight becomes (count + alpha) / (sibling counts + alpha * fanout).
    Stops when the mean log max-network root value improves by less than
    1e-6 or at the epoch cap. With alpha = 0, untraversed edges drop to
    exactly zero.
    """
    if not positives:
        raise InsufficientDataError("generative training needs at least one positive image")
    alpha = config.smoothing
    sums = [i for i, nd in enumerate(network.nodes) if nd.kind == SUM]
    evidence = encode_records(positives, network.part_span)
    previous = None
    for epoch in range(config.generative_epochs):
        log_values = _forward(network, evidence, "max")
        counts = _backtrack(network, log_values)[1]
        total_log = 0.0
        # summed in image order: np.sum pairs terms and would change train.log
        for value in log_values[:, network.root].tolist():
            total_log += value
        mean_log = total_log / len(positives)
        if log_lines is not None:
            log_lines.append(
                f"epoch {epoch} class {network.class_label} stage generative "
                f"mean_log {mean_log:.9g}"
            )
        for node in sums:
            edges = network.child_edges(node)
            c = counts[edges].astype(np.float64)
            denom = c.sum() + alpha * len(edges)
            if denom > 0:
                network.edge_weight[edges] = (c + alpha) / denom
        if previous is not None and mean_log - previous < 1e-6:
            break
        previous = mean_log
    return network


# ------------------------------------------------------------------ pruning


def prune(network: Network, threshold: float) -> Network:
    """Remove sum edges at or below the threshold, then unreachable nodes.

    Remaining sum weights are renormalized and the result is revalidated.
    Refuses to act when removal would leave the root childless."""
    n = network.num_nodes
    kinds = np.array([nd.kind for nd in network.nodes])
    is_sum = kinds == SUM
    internal = is_sum | (kinds == PRODUCT)
    parent, child = network.edge_parent, network.edge_child
    keep = ~(is_sum[parent] & (network.edge_weight <= threshold))

    # cascade: drop the edges into internal nodes whose children all vanished
    while True:
        childless = internal & (np.bincount(parent[keep], minlength=n) == 0)
        if childless[network.root]:
            raise PruneError("pruning would delete the root's last child; lower the threshold")
        drop = keep & childless[child]
        if not drop.any():
            break
        keep &= ~drop

    # reachability sweep from the root over surviving edges
    reachable = np.zeros(n, dtype=bool)
    reachable[network.root] = True
    frontier = reachable.copy()
    while frontier.any():
        hit = np.zeros(n, dtype=bool)
        hit[child[keep & frontier[parent]]] = True
        frontier = hit & ~reachable
        reachable |= frontier

    new_id = np.cumsum(reachable) - 1
    kept = keep & reachable[parent]
    pruned = Network(
        nodes=[network.nodes[i] for i in np.flatnonzero(reachable)],
        edge_parent=new_id[parent[kept]],
        edge_child=new_id[child[kept]],
        edge_weight=network.edge_weight[kept],
        root=new_id[network.root],
        class_label=network.class_label,
        partitions=network.partitions,
        region_of={int(new_id[i]): r for i, r in network.region_of.items() if reachable[i]},
    )
    # every surviving sum edge outweighs the threshold, so no sum loses its mass
    normalize_weights(pruned)
    report = validate(pruned)
    if not report.ok:
        raise PruneError(f"pruned network fails validation: {report}")
    return pruned


# ------------------------------------------------------- discriminative core


def _check_finite_root(network: Network, log_values: np.ndarray) -> None:
    if math.isnan(log_values[network.root]):
        bad = next(
            (int(n) for n in network.topological_order() if math.isnan(log_values[n])),
            network.root,
        )
        raise TrainingError(f"NaN value at node {bad} ({network.nodes[bad].kind})")


def _margin_step(network: Network, evidence: np.ndarray, slack: float, rate: float,
                 deferred: dict | None = None, update_counts: dict | None = None) -> bool:
    """The max-network step of one violated pair of evidence rows (positive,
    negative): each sum edge moves by rate * slack * (t_pos - t_neg) / weight,
    is floored, and its node is renormalized. Edges listed in `deferred` are
    not touched; their steps accumulate there instead (joint training applies
    them later). Returns whether any weight changed."""
    # roots +1 and -1: the summed edge counts are t_pos - t_neg
    delta = _backtrack(network, _forward(network, evidence, "max"), (1, -1))[1]
    touched = set()
    for edge in np.flatnonzero(delta).tolist():
        dt = int(delta[edge])
        parent = int(network.edge_parent[edge])
        if network.nodes[parent].kind != SUM:
            continue
        weight = max(float(network.edge_weight[edge]), WEIGHT_FLOOR)
        step = rate * slack * dt / weight
        if update_counts is not None:
            update_counts[edge] = update_counts.get(edge, 0) + 1
        if deferred is not None and edge in deferred:
            deferred[edge] += step
            continue
        network.edge_weight[edge] = max(WEIGHT_FLOOR, network.edge_weight[edge] + step)
        touched.add(parent)
    if touched:
        normalize_weights(network, sorted(touched))
    return bool(touched)


def _margin_update(network: Network, evidence: np.ndarray, ids, rate: float,
                   deferred: dict | None = None, update_counts: dict | None = None,
                   roots: tuple[float, float] | None = None) -> MarginRecord:
    """One stochastic margin step on two evidence rows (positive, negative)
    of the images named by `ids`; returns the pair's MarginRecord.

    `roots` are the pair's log root values when the caller has scored them
    under the current weights; otherwise one sum pass scores both rows.
    Satisfied pairs, and positives that score a structural zero, change
    nothing; any other pair takes `_margin_step`."""
    if roots is None:
        logv = _forward(network, evidence, "sum")
        _check_finite_root(network, logv[0])
        _check_finite_root(network, logv[1])
        roots = logv[:, network.root].tolist()
    v_pos, v_neg = roots
    record = MarginRecord(ids[0], ids[1], _hinge_slack(v_pos, v_neg))
    # a positive scoring a structural zero has no gradient
    if record.slack > 0.0 and not math.isinf(v_pos):
        record.changed = _margin_step(network, evidence, record.slack, rate,
                                      deferred, update_counts)
    return record


def discriminative_step(network: Network, image_pos, image_neg, rate: float) -> MarginRecord:
    """Public single-pair update: hinge slack from the sum network, gradient
    from the max network, weights floored and renormalized per sum node."""
    evidence = encode_records([image_pos, image_neg], network.part_span)
    return _margin_update(network, evidence, (image_pos.id, image_neg.id), rate)


# ----------------------------------------------------------- training driver


def _split_fit_dev(records, rng):
    """Deterministic 80/20 split for early-stopping margin monitoring."""
    idx = rng.permutation(len(records))
    cut = max(1, int(round(0.8 * len(records))))
    fit = [records[i] for i in idx[:cut]]
    dev = [records[i] for i in idx[cut:]] or fit
    return fit, dev


def _mean_dev_margin(network: Network, evidence: np.ndarray, n_pos: int) -> float:
    """Mean hinge slack over every (positive, negative) pair of dev rows; the
    first `n_pos` evidence rows are the positives."""
    scores = _forward(network, evidence, "sum")[:, network.root].tolist()
    negative_scores = scores[n_pos:]
    total = 0.0
    n = 0
    for vp in scores[:n_pos]:
        for vn in negative_scores:
            total += _hinge_slack(vp, vn)
            n += 1
    return total / max(n, 1)


def _margin_epoch(network: Network, rows: np.ndarray, ids: list[str], pairs: np.ndarray,
                  rate: float, deferred: dict | None, update_counts: dict | None,
                  counters: dict) -> tuple[float, int]:
    """Margin steps over `pairs`, in order: (positive, negative) indices into
    `rows` and `ids`. Returns the slack total and the violated-pair count.

    Each row's log root value is cached under the current weights. Pairs are
    taken in windows: one sum pass scores the uncached rows the next `width`
    pairs need, `width` doubles after every window, and a weight change
    clears the cache and restarts at width 1 from the next pair. Every
    slack and step equals the one a sum pass per pair would give."""
    roots = np.zeros(len(rows))
    known = np.zeros(len(rows), dtype=bool)
    slack_total, violations = 0.0, 0
    k, width = 0, 1
    while k < len(pairs):
        window = pairs[k:k + width]
        missing = np.unique(window[~known[window]])
        if len(missing):
            roots[missing] = _forward(network, rows[missing], "sum")[:, network.root]
            known[missing] = True
            counters["sum_passes"] += 1
            counters["rows_scored"] += len(missing)
        width *= 2
        for a, b in window.tolist():
            k += 1
            for row in (a, b):
                if math.isnan(roots[row]):
                    # rescored alone, the row names its lowest NaN node
                    _check_finite_root(network, _forward(network, rows[row:row + 1], "sum")[0])
            v_pos, v_neg = float(roots[a]), float(roots[b])
            slack = _hinge_slack(v_pos, v_neg)
            if slack == 0.0:
                continue
            slack_total += slack
            violations += 1
            if math.isinf(v_pos):
                continue  # a structural zero: no gradient exists
            counters["updates"] += 1
            record = _margin_update(network, rows[[a, b]], (ids[a], ids[b]), rate, deferred,
                                    update_counts, roots=(v_pos, v_neg))
            if record.changed:
                known[:] = False
                width = 1
                break
    return slack_total, violations


def _discriminative_stage(networks: dict[str, Network], dataset: Dataset, config: TrainConfig,
                          shared_groups=None, log_lines: list[str] | None = None,
                          update_stats: dict | None = None) -> dict[str, dict[str, int]]:
    """Margin training over all classes; joint handling of shared edges.

    Each class consumes its own seeded stream, so runs with no shared edges
    are bit-identical to fully independent per-class training. Shared-edge
    gradients accumulate across every class's pairs within an epoch and are
    applied to all tied copies at the epoch end. Returns per class the pair
    loop's counts: pairs sampled, pairs violated, updates (violated pairs
    whose positive scores above zero), sum passes and rows scored."""
    classes = sorted(networks)
    shared_map: dict[str, dict[int, int]] = {klass: {} for klass in classes}
    groups = shared_groups or []
    for group_idx, group in enumerate(groups):
        for net_idx, edge in group:
            shared_map[classes[net_idx]][edge] = group_idx

    by_class_fit: dict[str, list] = {}
    by_class_dev: dict[str, list] = {}
    for klass in classes:
        rng = np.random.default_rng((config.seed, 11, hash_str(klass)))
        fit, dev = _split_fit_dev(dataset.by_class(klass), rng)
        by_class_fit[klass] = fit
        by_class_dev[klass] = dev

    def others(by_class, klass):
        return [r for k in classes if k != klass for r in by_class[k]]

    # every class's pair images (its positives, then the other classes' fit
    # images) and dev images, encoded once per stage, wide enough for every
    # network
    span = max([dataset.vocabulary_size] + [net.part_span for net in networks.values()])
    pair_records = {k: by_class_fit[k] + others(by_class_fit, k) for k in classes}
    pair_rows = {k: encode_records(pair_records[k], span) for k in classes}
    dev_rows = {k: encode_records(by_class_dev[k] + others(by_class_dev, k), span) for k in classes}
    counters = {k: dict.fromkeys(("pairs", "violated", "updates", "sum_passes", "rows_scored"), 0)
                for k in classes}

    best = {klass: math.inf for klass in classes}
    stall = {klass: 0 for klass in classes}
    active = set(classes)

    for epoch in range(config.discriminative_epochs):
        if not active:
            break
        group_acc = [0.0] * len(groups)
        group_hits = [0] * len(groups)
        for klass in classes:
            if klass not in active:
                continue
            rng = np.random.default_rng((config.seed, 13, hash_str(klass), epoch))
            n_pos = len(by_class_fit[klass])
            n_neg = len(pair_records[klass]) - n_pos
            if not n_pos or not n_neg:
                raise InsufficientDataError(f"class {klass!r} lacks positives or negatives")
            n_pairs = min(config.max_pairs_per_epoch, n_pos * n_neg)
            pairs = np.array([(int(rng.integers(n_pos)), n_pos + int(rng.integers(n_neg)))
                              for _ in range(n_pairs)], dtype=np.int64).reshape(-1, 2)
            deferred = {edge: 0.0 for edge in shared_map[klass]} if groups else None
            update_counts = (
                update_stats.setdefault(klass, {}) if update_stats is not None else None
            )
            slack_total, violations = _margin_epoch(
                networks[klass], pair_rows[klass], [r.id for r in pair_records[klass]], pairs,
                config.learning_rate, deferred, update_counts, counters[klass],
            )
            counters[klass]["pairs"] += n_pairs
            counters[klass]["violated"] += violations
            if deferred:
                for edge, step in deferred.items():
                    if step != 0.0:
                        group_idx = shared_map[klass][edge]
                        group_acc[group_idx] += step
                        group_hits[group_idx] += 1
            if log_lines is not None:
                log_lines.append(
                    f"epoch {epoch} class {klass} stage discriminative "
                    f"mean_margin {slack_total / max(n_pairs, 1):.9g} "
                    f"violation_rate {violations / max(n_pairs, 1):.9g}"
                )
        # apply accumulated shared-edge gradients to every tied copy
        touched_by_class: dict[str, set[int]] = {klass: set() for klass in classes}
        for group_idx, group in enumerate(groups):
            step = group_acc[group_idx]
            if step == 0.0:
                continue
            for net_idx, edge in group:
                klass = classes[net_idx]
                network = networks[klass]
                network.edge_weight[edge] = max(WEIGHT_FLOOR, network.edge_weight[edge] + step)
                touched_by_class[klass].add(int(network.edge_parent[edge]))
        for klass, nodes in touched_by_class.items():
            if nodes:
                normalize_weights(networks[klass], sorted(nodes))
        if update_stats is not None and groups:
            update_stats.setdefault("group_hits", [0] * len(groups))
            for group_idx, hits in enumerate(group_hits):
                update_stats["group_hits"][group_idx] += hits

        for klass in list(active):
            margin = _mean_dev_margin(networks[klass], dev_rows[klass], len(by_class_dev[klass]))
            if margin < best[klass] - 1e-9:
                best[klass] = margin
                stall[klass] = 0
            else:
                stall[klass] += 1
                if stall[klass] >= config.early_stop_patience:
                    active.discard(klass)
    return counters


def hash_str(text: str) -> int:
    """Stable small hash for seeding per-class rng streams."""
    import hashlib

    return int.from_bytes(hashlib.sha1(text.encode()).digest()[:4], "big")


def joint_train(networks: dict[str, Network], shared_groups, dataset: Dataset,
                config: TrainConfig, log_lines: list[str] | None = None,
                update_stats: dict | None = None) -> dict[str, Network]:
    """Discriminative stage with shared-edge gradients pooled across classes."""
    if config.mode != "jhs-spn":
        raise ContractViolationError("joint training requires mode 'jhs-spn'")
    _discriminative_stage(networks, dataset, config, shared_groups=shared_groups,
                          log_lines=log_lines, update_stats=update_stats)
    return networks


# ---------------------------------------------------------------- the bundle


@dataclass
class ModelBundle:
    vocabulary_size: int
    classes: list[str]
    networks: dict[str, Network]
    mode: str
    shared_groups: list = field(default_factory=list)
    log_lines: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def _harmonize_shared_weights(networks: dict[str, Network], classes, groups) -> None:
    """Average each shared group's weights so tied copies start identical."""
    touched: dict[str, set[int]] = {k: set() for k in classes}
    for group in groups:
        weights = [float(networks[classes[idx]].edge_weight[edge]) for idx, edge in group]
        mean = sum(weights) / len(weights)
        for idx, edge in group:
            klass = classes[idx]
            networks[klass].edge_weight[edge] = mean
            touched[klass].add(int(networks[klass].edge_parent[edge]))
    for klass, nodes in touched.items():
        if nodes:
            normalize_weights(networks[klass], sorted(nodes))


def train_all(dataset: Dataset, structure_config: StructureConfig,
              train_config: TrainConfig) -> ModelBundle:
    """Full pipeline for one mode: structure, generative stage, pruning,
    discriminative stage (joint for jhs-spn)."""
    mode = train_config.mode
    classes = sorted(set(dataset.classes))
    log_lines: list[str] = []
    stats: dict = {"gadgets": {}, "pairs_modeled": {}}

    networks: dict[str, Network] = {}
    for klass in classes:
        if mode == "spn":
            net = build_naive_network(dataset, klass, structure_config)
        elif mode == "fs-spn":
            net = build_flat_network(dataset, klass, structure_config)
        else:
            tree = learn_partition_tree(dataset, klass, structure_config)
            net = build_class_network(tree, dataset, klass, structure_config)
        networks[klass] = net

    for klass in classes:
        positives = dataset.by_class(klass)
        generative_train(networks[klass], positives, train_config, log_lines)
        before = networks[klass].num_edges
        networks[klass] = prune(networks[klass], train_config.prune_threshold)
        log_lines.append(
            f"class {klass} stage prune removed {before - networks[klass].num_edges} edges"
        )

    for klass in classes:
        stats["gadgets"][klass] = count_gadgets(networks[klass])
        stats["pairs_modeled"][klass] = len(networks[klass].pair_universe)

    shared_groups = []
    update_stats: dict = {}
    if mode == "jhs-spn":
        shared = find_shared_structures([networks[k] for k in classes])
        shared_groups = shared.groups
        _harmonize_shared_weights(networks, classes, shared_groups)
        log_lines.append(f"shared-edge groups: {len(shared_groups)}")
    stats["discriminative"] = _discriminative_stage(networks, dataset, train_config, shared_groups,
                                                    log_lines, update_stats)

    return ModelBundle(
        vocabulary_size=dataset.vocabulary_size,
        classes=classes,
        networks=networks,
        mode=mode,
        shared_groups=shared_groups,
        log_lines=log_lines,
        stats={**stats, "updates": update_stats},
    )


# ------------------------------------------------------------ classification


def _bundle_evidence(bundle: ModelBundle, records) -> np.ndarray:
    """Evidence rows for `records`, wide enough for every class network."""
    for record in records:
        for det in record.detections:
            if not (0 <= det.part < bundle.vocabulary_size):
                raise VocabularyMismatchError(
                    f"image {record.id} uses part {det.part}, vocabulary has {bundle.vocabulary_size}"
                )
    span = max([bundle.vocabulary_size] + [net.part_span for net in bundle.networks.values()])
    return encode_records(records, span)


def _class_scores(bundle: ModelBundle, evidence: np.ndarray) -> list[tuple[dict[str, float], str]]:
    """Per evidence row, each class network's log root value and the argmax
    label (ties to the lowest class id)."""
    columns = [_forward(bundle.networks[k], evidence, "sum")[:, bundle.networks[k].root].tolist()
               for k in bundle.classes]
    rows = []
    for values in zip(*columns):
        scores = dict(zip(bundle.classes, values))
        rows.append((scores, next(k for k in sorted(scores) if scores[k] == max(values))))
    return rows


def classify(image: ImageRecord, bundle: ModelBundle):
    """Per-class log scores and the argmax label (ties to the lowest class id)."""
    return _class_scores(bundle, _bundle_evidence(bundle, [image]))[0]


# ------------------------------------------------------------------- bundles


def save_bundle(bundle: ModelBundle, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = [
        "bundle v1",
        f"t {bundle.vocabulary_size}",
        f"mode {bundle.mode}",
        f"classes {len(bundle.classes)}",
    ]
    for klass in bundle.classes:
        filename = f"{klass}.spn"
        save_network(bundle.networks[klass], os.path.join(out_dir, filename))
        manifest.append(f"class {klass} {filename}")
    for group in bundle.shared_groups:
        body = " ".join(f"{bundle.classes[idx]}:{edge}" for idx, edge in group)
        manifest.append(f"shared-group {body}")
    with open(os.path.join(out_dir, "manifest"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest) + "\n")
    if bundle.log_lines:
        with open(os.path.join(out_dir, "train.log"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(bundle.log_lines) + "\n")


def load_bundle(path) -> ModelBundle:
    manifest_path = os.path.join(path, "manifest")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "bundle v1":
        raise ModelFormatError(1, f"{manifest_path} is not a model bundle manifest")
    vocab = 0
    mode = "ihs-spn"
    classes: list[str] = []
    networks: dict[str, Network] = {}
    shared_groups = []
    declared = None  # (line, count) of the `classes` line
    for line_no, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "t":
            vocab = _int(" ".join(tokens[1:]), line_no, "vocabulary size")
        elif tokens[0] == "mode":
            if len(tokens) != 2 or tokens[1] not in MODES:
                raise ModelFormatError(line_no, f"mode line needs one of {MODES}")
            mode = tokens[1]
        elif tokens[0] == "classes":
            declared = (line_no, _int(" ".join(tokens[1:]), line_no, "class count"))
        elif tokens[0] == "class":
            if len(tokens) != 3:
                raise ModelFormatError(line_no, "class line needs '<name> <file>'")
            classes.append(tokens[1])
            networks[tokens[1]] = load_network(os.path.join(path, tokens[2]))
        elif tokens[0] == "shared-group":
            group = []
            for chunk in tokens[1:]:
                klass, colon, edge_token = chunk.rpartition(":")
                if not colon:
                    raise ModelFormatError(line_no, f"shared-group member {chunk!r} is not 'class:edge'")
                if klass not in classes:
                    raise ModelFormatError(line_no, f"shared-group names undeclared class {klass!r}")
                edge = _int(edge_token, line_no, "shared edge id")
                if not 0 <= edge < networks[klass].num_edges:
                    raise ModelFormatError(line_no, f"shared edge {edge} out of range for class {klass!r}")
                group.append((classes.index(klass), edge))
            weights = [float(networks[classes[idx]].edge_weight[edge]) for idx, edge in group]
            if any(not math.isclose(w, weights[0], rel_tol=1e-9) for w in weights):
                raise ModelFormatError(line_no, f"tied shared-group weights differ: {weights}")
            shared_groups.append(group)
    if declared is not None and declared[1] != len(classes):
        raise ModelFormatError(declared[0], f"{declared[1]} classes declared, {len(classes)} listed")
    return ModelBundle(
        vocabulary_size=vocab,
        classes=classes,
        networks=networks,
        mode=mode,
        shared_groups=shared_groups,
    )
