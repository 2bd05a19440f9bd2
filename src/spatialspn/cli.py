"""Command-line front end.

Commands: generate, cluster, train, classify, evaluate, inspect, verify.
Every run echoes its fully resolved configuration (flags override a
key=value config file) and is deterministic given inputs, config and seed.

Exit codes: 0 success, 1 verification failure, 2 input or spec error,
3 training failure, 4 model/data mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import clustering, data
from .errors import (
    ContractViolationError,
    DataFormatError,
    InsufficientDataError,
    ModelFormatError,
    PruneError,
    SizeGuardError,
    SpnError,
    SyntheticSpecError,
    TrainingError,
    VocabularyMismatchError,
)
from .learning import TrainConfig, load_bundle, save_bundle, train_all
from .metrics import ablation_accuracies, evaluate_bundle, scores_table
from .structure import StructureConfig, pair_count

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_TRAIN = 3
EXIT_MISMATCH = 4

INPUT_ERRORS = (
    DataFormatError,
    ModelFormatError,
    SyntheticSpecError,
    SizeGuardError,
    ContractViolationError,
    FileNotFoundError,
    ValueError,
)
TRAIN_ERRORS = (TrainingError, InsufficientDataError, PruneError)
MISMATCH_ERRORS = (VocabularyMismatchError,)


def _load_config_file(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(0, f"config line {line!r} is not key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


STRUCTURE_KEYS = {
    "s": int, "M": int, "m": int, "D": int,
    "min_region_area": float, "tau": float, "naive_components": int,
}
TRAIN_KEYS = {
    "generative_epochs": int, "smoothing": float, "prune_threshold": float,
    "learning_rate": float, "max_pairs_per_epoch": int,
    "discriminative_epochs": int, "early_stop_patience": int,
}


def _resolve_configs(args) -> tuple[StructureConfig, TrainConfig, dict]:
    """Defaults, then config file, then explicit flags."""
    values: dict = {}
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        for key, text in raw.items():
            if key in STRUCTURE_KEYS:
                values[key] = STRUCTURE_KEYS[key](text)
            elif key in TRAIN_KEYS:
                values[key] = TRAIN_KEYS[key](text)
            elif key in ("seed", "mode"):
                values[key] = int(text) if key == "seed" else text
            else:
                raise DataFormatError(0, f"unknown config key {key!r}")
    for key in list(STRUCTURE_KEYS) + list(TRAIN_KEYS) + ["seed", "mode"]:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    seed = values.get("seed", 0)
    structure = StructureConfig(
        seed=seed,
        **{k: values[k] for k in STRUCTURE_KEYS if k in values},
    )
    train = TrainConfig(
        seed=seed,
        mode=values.get("mode", "ihs-spn"),
        **{k: values[k] for k in TRAIN_KEYS if k in values},
    )
    return structure, train, values


def _echo_config(command: str, pairs: dict) -> None:
    print(f"config command: {command}")
    for key in sorted(pairs):
        print(f"config {key}: {pairs[key]}")


# ----------------------------------------------------------------- commands


def cmd_generate(args) -> int:
    if args.preset:
        spec = data.preset_spec(args.preset, images_per_class=args.images)
    elif args.spec:
        spec = data.load_synthetic_spec(args.spec)
        if args.images is not None:
            spec.images_per_class = args.images
    else:
        raise SyntheticSpecError("generate needs --preset or --spec")
    _echo_config("generate", {
        "preset": args.preset or "-", "spec": args.spec or "-",
        "images": spec.images_per_class, "seed": args.seed, "out": args.out,
    })
    rng = np.random.default_rng(args.seed)
    dataset = data.generate_synthetic(spec, rng)
    data.save_dataset(dataset, args.out)
    print(f"dataset: {args.out}")
    print(f"classes: {len(dataset.classes)}")
    print(f"images: {len(dataset.records)}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    _echo_config("cluster", {
        "features": args.features, "k_init": args.k_init, "n_centers": args.n_centers,
        "drop_fraction": args.drop_fraction, "seed": args.seed, "out": args.out,
    })
    features = clustering.load_features(args.features)
    rng = np.random.default_rng(args.seed)
    try:
        clusters = clustering.agglomerate(
            features, args.k_init, args.n_centers, drop_fraction=args.drop_fraction, rng=rng
        )
    except InsufficientDataError as exc:
        # bad flag combination, not a training failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    clustering.save_clusters(clusters, args.out)
    print(f"clusters: {len(clusters)}")
    return EXIT_OK


def cmd_train(args) -> int:
    structure, train, values = _resolve_configs(args)
    _echo_config("train", {
        "data": args.data, "out": args.out, "mode": train.mode, "seed": train.seed,
        **{k: getattr(structure, k) for k in STRUCTURE_KEYS},
        **{k: getattr(train, k) for k in TRAIN_KEYS},
    })
    dataset = data.load_dataset(args.data)
    bundle = train_all(dataset, structure, train)
    save_bundle(bundle, args.out)

    t = dataset.vocabulary_size
    print(f"mode: {train.mode}")
    print(f"parts: {t}")
    print(f"pairs possible: {pair_count(t)}")
    for klass in bundle.classes:
        print(f"gadgets {klass}: {bundle.stats['gadgets'][klass]}")
        print(f"pairs modeled {klass}: {bundle.stats['pairs_modeled'][klass]}")
    print(f"bundle: {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    _echo_config("classify", {"model": args.model, "data": args.data})
    bundle = load_bundle(args.model)
    dataset = data.load_dataset(args.data)
    dataset.validate_against_vocabulary(bundle.vocabulary_size)
    for record, scores, predicted in scores_table(bundle, dataset):
        body = " ".join(f"{klass}:{scores[klass]:.6f}" for klass in bundle.classes)
        print(f"img {record.id} pred {predicted} scores {body}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _echo_config("evaluate", {"model": args.model, "data": args.data, "out": args.out or "-"})
    bundle = load_bundle(args.model)
    dataset = data.load_dataset(args.data)
    report = evaluate_bundle(bundle, dataset)
    lines = report.lines()
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_inspect(args) -> int:
    _echo_config("inspect", {
        "model": args.model, "data": args.data or "-", "ablate_pairs": args.ablate_pairs,
    })
    from .structure import count_gadgets

    bundle = load_bundle(args.model)
    print(f"classes: {len(bundle.classes)}")
    all_pairs = set()
    for klass in bundle.classes:
        network = bundle.networks[klass]
        print(
            f"class {klass} nodes: {network.num_nodes} edges: {network.num_edges} "
            f"shared_edges: {len(network.shared_edges)} gadgets: {count_gadgets(network)} "
            f"pairs: {len(network.pair_universe)}"
        )
        all_pairs.update(network.pair_universe)
    t = bundle.vocabulary_size
    # both pair-count conventions are printed because published counts differ:
    # unordered n(n-1)/2 is what this package models; the doubled count
    # n(n-1) appears in some reported flat-network sizes
    print(f"pairs possible unordered: {pair_count(t)}")
    print(f"pairs possible ordered double-count: {t * (t - 1)}")

    if args.ablate_pairs:
        if not args.data:
            raise ContractViolationError("--ablate-pairs needs --data for accuracy drops")
        dataset = data.load_dataset(args.data)
        dataset.validate_against_vocabulary(bundle.vocabulary_size)
        k = args.ablate_pairs
        pairs = sorted(all_pairs)
        if k > len(pairs):
            print(f"warning: only {len(pairs)} gadget pairs exist; clamping k={k}")
            k = len(pairs)
        baseline, *accuracies = ablation_accuracies(bundle, dataset, [None, *pairs])
        print(f"baseline accuracy: {baseline:.6f}")
        drops = [(baseline - acc, pair) for acc, pair in zip(accuracies, pairs)]
        drops.sort(key=lambda item: (-item[0], item[1]))
        for rank, (drop, pair) in enumerate(drops[:k], start=1):
            print(f"ablate rank {rank} pair {pair[0]} {pair[1]} drop: {drop:.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _echo_config("verify", {"perturb_fixture": args.perturb_fixture, "seed": args.seed})
    from .verify import run_verification

    checks = run_verification(seed=args.seed, perturb_fixture=args.perturb_fixture)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"check {check.name}: {status} expected={check.expected} "
            f"got={check.got} tol={check.tolerance}"
        )
        failures += 0 if check.passed else 1
    print(f"checks: {len(checks)} failures: {failures}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialspn",
        description="Spatial sum-product networks: datasets, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic dataset")
    p.add_argument("--preset", choices=sorted(data.PRESETS), default=None)
    p.add_argument("--spec", default=None, help="synthspec v1 file")
    p.add_argument("--images", type=int, default=None, help="images per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", help="agglomerate feature vectors into parts")
    p.add_argument("features")
    p.add_argument("--k-init", dest="k_init", type=int, required=True)
    p.add_argument("--n-centers", dest="n_centers", type=int, required=True)
    p.add_argument("--drop-fraction", dest="drop_fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="learn structure and weights for every class")
    p.add_argument("data")
    p.add_argument("--mode", choices=("spn", "fs-spn", "ihs-spn", "jhs-spn"), default=None)
    p.add_argument("--config", default=None, help="key=value config file (flags win)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    for key, caster in STRUCTURE_KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=caster, default=None)
    for key, caster in TRAIN_KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=caster, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="score and label images with a trained bundle")
    p.add_argument("model")
    p.add_argument("data")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="AP/mAP, accuracy and confusion on a dataset")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="network stats and discriminative pair ablation")
    p.add_argument("model")
    p.add_argument("--data", default=None)
    p.add_argument("--ablate-pairs", dest="ablate_pairs", type=int, default=0)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify", help="run the brute-force oracle suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb-fixture", action="store_true",
                   help="perturb the reference fixture to demonstrate failure detection")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MISMATCH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except TRAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
