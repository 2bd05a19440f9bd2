"""One workload of the pipeline benchmark, run as a single closed loop.

Every step is what a user runs, driven in-process through
`spatialspn.cli.main` (cluster, train, evaluate, inspect) or the library
(`learning.classify`), and each step starts only after the previous one has
returned. The program only ever sees the files this module generates.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spatialspn import cli, data, learning, network

import referee
from spans import Recorder

# one-hot planted feature centres, CENTRE_SCALE apart per axis, unit noise
FEATURE_DIM = 24
CENTRE_SCALE = 10.0


@dataclass(frozen=True)
class Workload:
    spec: Callable[[int], data.SyntheticSpec]   # images per class -> spec
    train_images: int         # per class
    test_images: int          # per class
    ablate_images: int        # per class, the first of the test set
    train_flags: tuple
    k_init_per_part: int      # k-means over-segmentation per planted part


def _strips(n):
    return data.strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=n)


WORKLOADS = {
    # the paper's hierarchical model at the AC-5 setting: partition scoring
    # and the dev-margin loop dominate, networks are small
    "hier-mirror": Workload(
        lambda n: data.mirror_pair_spec(images_per_class=n), 200, 100, 25,
        ("--mode", "ihs-spn", "--s", "2", "--generative-epochs", "8",
         "--discriminative-epochs", "4", "--max-pairs-per-epoch", "400"),
        k_init_per_part=4,
    ),
    # the joint path: shared-structure search, pooled shared-edge gradients,
    # four networks per classified image
    "joint-shared": Workload(
        lambda n: data.shared_halves_spec(images_per_class=n), 60, 60, 15,
        ("--mode", "jhs-spn", "--s", "2", "--D", "1", "--generative-epochs", "4",
         "--discriminative-epochs", "3", "--max-pairs-per-epoch", "400"),
        k_init_per_part=4,
    ),
    # flat spatial model over 18 parts: no partition scoring; large networks
    # make per-edge forward work, MPE, prune and (de)serialisation dominate
    "flat-strips": Workload(
        _strips, 60, 2, 1,
        ("--mode", "fs-spn", "--generative-epochs", "4",
         "--discriminative-epochs", "2", "--max-pairs-per-epoch", "200"),
        k_init_per_part=3,
    ),
}

# The machine's speed drifts over seconds, so every repeated step runs once
# per round, rounds fill the `seconds` of the run, and each metric is a
# median over all of its samples. The work itself also depends on the
# inputs: the learned networks' size on the training set, the cost of
# `cluster` on how k-means splits the feature blobs. So each run trains
# MODELS models on independent training sets, one per share of the rounds,
# and cycles `cluster` through CLUSTER_SEEDS k-means seeds.
MODELS = 2
CLUSTER_SEEDS = 8
MIN_ROUNDS = 2            # per model
CLASSIFY_SLICE_S = 0.25   # single-image classify time per round, in whole passes
# classify calls per round that are always made (and, in a traced run, the
# only ones counted in round 1); MIN_ROUNDS keeps >= 10 calls beyond p90
MIN_CLASSIFY_CALLS = 40
# the determinism twin: two untimed trainings with one seed, before anything
# is timed, on a share of the training images and with one epoch per stage
# (training has large fixed costs, so a full-size twin would cost as much as
# a third model)
TWIN_SCALE = 0.25
TWIN_FLAGS = ("--generative-epochs", "1", "--discriminative-epochs", "1")


class Run:
    """Timed steps, operation counts and correctness checks of one run."""

    def __init__(self, recorder: Recorder | None):
        self.recorder = recorder
        self.timed = True
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.samples: dict[str, list[float]] = {}
        self.quality: dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def phase(self, name: str):
        if self.recorder is not None:
            self.recorder.phase = name
            return self.recorder.span(f"phase.{name}")
        return contextlib.nullcontext()

    def record(self, on: bool) -> None:
        """Count the calls that follow towards the layer metrics, or not."""
        if self.recorder is not None:
            self.recorder.counted = on

    def sample(self, phase: str, elapsed: float) -> None:
        if self.timed:
            self.samples.setdefault(phase, []).append(elapsed)

    def cli(self, argv: list[str], phase: str | None, counted: bool) -> str:
        """Run one CLI command; counts it, times it as a sample of `phase`
        (unless None), returns its stdout."""
        out = io.StringIO()
        self.attempted += 1
        self.record(counted)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        self.record(False)
        if code != 0:
            self.failed += 1
            raise RuntimeError(f"spatialspn {argv[0]} exited {code}")
        if phase is not None:
            self.sample(phase, elapsed)
        return out.getvalue()


def _train_set(workload: Workload, seed: int, m: int, scale: float = 1.0) -> data.Dataset:
    n = max(2, int(workload.train_images * scale))
    return data.generate_synthetic(workload.spec(n), np.random.default_rng([seed, 1, m]))


def write_inputs(workload: Workload, seed: int, work: str) -> int:
    """Training sets, test, ablation and feature files for one seed; returns
    the part count."""
    trains = [_train_set(workload, seed, m) for m in range(MODELS)]
    test = data.generate_synthetic(workload.spec(workload.test_images),
                                   np.random.default_rng([seed, 2]))
    for m, train in enumerate(trains):
        data.save_dataset(train, os.path.join(work, f"train-{m}.txt"))
    data.save_dataset(test, os.path.join(work, "test.txt"))
    # the ablation sweep runs on the first test images of each class, so that
    # one sweep is short enough to repeat in every round
    ablate = [r for k in test.classes for r in test.by_class(k)[:workload.ablate_images]]
    data.save_dataset(data.Dataset(test.vocabulary_size, test.classes, ablate),
                      os.path.join(work, "ablate.txt"))

    # one feature vector per detection of the first training set, drawn
    # around its part's planted centre; the id carries the part label for
    # the purity check
    rng = np.random.default_rng([seed, 3])
    lines = [f"feat v1 dim={FEATURE_DIM}"]
    for record in trains[0].records:
        for det in record.detections:
            vec = rng.normal(0.0, 1.0, FEATURE_DIM)
            vec[det.part] += CENTRE_SCALE
            lines.append(f"p{det.part}_{record.id} " + " ".join(f"{v:.17g}" for v in vec))
    with open(os.path.join(work, "features.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return trains[0].vocabulary_size


def setup(run: Run, workload: Workload, seed: int, work: str, counted: bool) -> int:
    """One timed set-up into `work`; returns the part count."""
    os.makedirs(work, exist_ok=True)
    with run.phase("setup"):
        run.record(counted)
        run.attempted += 1
        start = time.perf_counter()
        vocab = write_inputs(workload, seed, work)
        run.sample("setup", time.perf_counter() - start)
        run.record(False)
    return vocab


def _pipeline(run: Run, workload: Workload, seed: int, work: str, vocab: int,
              seconds: float) -> dict:
    """The determinism twin, then per model: train, and rounds of set-up,
    cluster, evaluate, inspect and classify for its share of `seconds`.
    Returns the outputs the checks need. In a traced run only the first
    set-up and model training and the first timed round count towards the
    layer metrics."""
    j = os.path.join
    test, ablate = j(work, "test.txt"), j(work, "ablate.txt")
    records = data.load_dataset(test).records
    out: dict = {"bundles": {}, "loaded": [], "pairs": [], "evaluate": [None] * MODELS,
                 "inspect": [None] * MODELS, "records": records,
                 "ablate_images": len(data.load_dataset(ablate).records)}
    latencies: list[float] = []

    def train(train_file: str, model: str, counted: bool, extra: tuple = ()) -> None:
        with run.phase("train"):
            run.cli(["train", train_file, "--seed", str(seed), "--out", model,
                     *workload.train_flags, *extra], "train", counted)

    def one_round(r: int, m: int) -> None:
        counted = r == 1
        model = j(work, f"model{m}")
        setup(run, workload, seed, j(work, "setup"), False)
        k = r % CLUSTER_SEEDS
        with run.phase("discover"):
            run.cli(["cluster", j(work, "features.txt"),
                     "--k-init", str(workload.k_init_per_part * vocab), "--n-centers", str(vocab),
                     "--seed", str(seed * CLUSTER_SEEDS + k), "--out", j(work, f"clusters-{k}.txt")],
                    "discover", counted)
        with run.phase("evaluate"):
            out["evaluate"][m] = run.cli(["evaluate", model, test], "evaluate", counted)
        with run.phase("ablate"):
            start = time.perf_counter()
            out["inspect"][m] = run.cli(["inspect", model, "--data", ablate,
                                         "--ablate-pairs", str(len(out["pairs"][m]))], None, counted)
            # images/s per sweep, as the two models have different pair counts
            run.sample("ablate", (len(out["pairs"][m]) + 1) * out["ablate_images"]
                       / (time.perf_counter() - start))
        # single-image classify on the loaded bundle, in whole passes over
        # the test set
        with run.phase("classify"):
            bundle = out["loaded"][m]
            passes = -(-MIN_CLASSIFY_CALLS // len(records))
            start = time.perf_counter()
            done = 0
            while done < passes or time.perf_counter() - start < CLASSIFY_SLICE_S:
                run.record(counted and done < passes)
                for record in records:
                    run.attempted += 1
                    t0 = time.perf_counter()
                    learning.classify(record, bundle)
                    if run.timed:
                        latencies.append(time.perf_counter() - t0)
                done += 1
            run.record(False)

    # keep the in-memory bundle of every training for the load check
    keep_bundle = cli.save_bundle

    def save_and_keep(bundle, out_dir):
        out["bundles"][out_dir] = bundle
        keep_bundle(bundle, out_dir)

    cli.save_bundle = save_and_keep
    try:
        # the determinism twin, which also warms the training path
        twin = j(work, "twin")
        os.makedirs(twin, exist_ok=True)
        data.save_dataset(_train_set(workload, seed, 0, TWIN_SCALE), j(twin, "train.txt"))
        run.timed = False
        for rep in range(2):
            train(j(twin, "train.txt"), j(twin, f"model{rep}"), False, TWIN_FLAGS)
        run.timed = True

        r = 0
        measured = 0.0
        for m in range(MODELS):
            model = j(work, f"model{m}")
            train(j(work, f"train-{m}.txt"), model, m == 0)
            _, models, _ = referee.parse_bundle(model)
            out["pairs"].append(sorted(set().union(*(n.pairs() for n in models.values()))))
            out["loaded"].append(learning.load_bundle(model))
            if m == 0:
                # one untimed round, so every step is warm before timing
                run.timed = False
                one_round(r, m)
                run.timed = True
                r += 1
            first = r
            while r - first < MIN_ROUNDS or measured < seconds * (m + 1) / MODELS:
                start = time.perf_counter()
                one_round(r, m)
                measured += time.perf_counter() - start
                r += 1
    finally:
        cli.save_bundle = keep_bundle
    run.samples["classify"] = latencies
    return out


def _printed(report: str, key: str) -> float:
    for line in report.splitlines():
        if line.startswith(key + ": "):
            return float(line.split(": ", 1)[1])
    raise ValueError(f"report has no {key!r} line")


def _close(a: float, b: float, tol: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def verify(run: Run, workload: Workload, work: str, vocab: int, out: dict) -> None:
    """Every correctness check of the acceptance list, against the referee."""
    j = os.path.join

    # part discovery: for every k-means seed, pure clusters, one per planted part
    for name in sorted(f for f in os.listdir(work) if f.startswith("clusters-")):
        clusters = []
        with open(j(work, name), encoding="utf-8") as fh:
            for line in fh.read().splitlines():
                clusters.append(line.split(": ", 1)[1].split())
        labels = [{m.split("_", 1)[0] for m in members} for members in clusters]
        run.check(f"{name}.count", len(clusters) == vocab, f"{len(clusters)} clusters, {vocab} parts")
        run.check(f"{name}.pure", all(len(s) == 1 for s in labels) and len(set().union(*labels)) == vocab)

    # determinism: a second training with the same seed writes the same bytes
    twin = j(work, "twin")
    names = sorted(os.listdir(j(twin, "model0")))
    same = names == sorted(os.listdir(j(twin, "model1"))) and all(
        filecmp.cmp(j(twin, "model0", n), j(twin, "model1", n), shallow=False) for n in names
    )
    run.check("train.deterministic", same, ",".join(names))

    images = referee.parse_dataset(j(work, "test.txt"))
    subset = referee.parse_dataset(j(work, "ablate.txt"))
    for m in range(MODELS):
        model_dir = j(work, f"model{m}")
        tag = f"model{m}"

        # saved networks: valid, normalised sums, tied weights equal
        classes, models, groups = referee.parse_bundle(model_dir)
        for klass in classes:
            report = network.validate(out["loaded"][m].networks[klass])
            run.check(f"{tag}.validate.{klass}", report.ok, str(report))
            worst = 0.0
            for node, kind in models[klass].kinds.items():
                if kind == "sum":
                    worst = max(worst, abs(sum(w for _, w in models[klass].children[node]) - 1.0))
            run.check(f"{tag}.sum_weights.{klass}", worst <= 1e-12, f"worst |sum-1| {worst:.3g}")
        if "jhs-spn" in workload.train_flags:
            run.check(f"{tag}.shared_groups.present", len(groups) > 0, f"{len(groups)} groups")
            unequal = [g for g in groups if len({models[c].edges[e][2] for c, e in g}) != 1]
            run.check(f"{tag}.shared_groups.tied", not unequal,
                      f"{len(unequal)} of {len(groups)} groups differ")

        # scores: loaded bundle == in-memory bundle, and == referee within 1e-9
        ref_rows = referee.score_images(classes, models, images)
        memory_diffs = referee_diffs = 0
        for record, ref in zip(out["records"], ref_rows):
            loaded, _ = learning.classify(record, out["loaded"][m])
            memory, _ = learning.classify(record, out["bundles"][model_dir])
            memory_diffs += sum(loaded[k] != memory[k] for k in classes)
            referee_diffs += sum(not _close(loaded[k], ref[k], 1e-9) for k in classes)
        run.check(f"{tag}.scores.loaded_equals_memory", memory_diffs == 0, f"{memory_diffs} differ")
        run.check(f"{tag}.scores.equal_referee", referee_diffs == 0, f"{referee_diffs} differ by > 1e-9")

        # reported metrics equal the referee's recomputation
        ref_map = referee.mean_ap(classes, images, ref_rows)
        ref_acc = referee.accuracy(images, ref_rows)
        report = out["evaluate"][m]
        run.check(f"{tag}.evaluate.map", _close(_printed(report, "map"), ref_map, 6e-7),
                  f"printed {_printed(report, 'map')} referee {ref_map:.9f}")
        run.check(f"{tag}.evaluate.accuracy", _close(_printed(report, "accuracy"), ref_acc, 6e-7),
                  f"printed {_printed(report, 'accuracy')} referee {ref_acc:.9f}")

        # the ablation sweep ran on the ablation subset of the test set
        report = out["inspect"][m]
        sub_acc = referee.accuracy(subset, referee.score_images(classes, models, subset))
        run.check(f"{tag}.inspect.baseline", _close(_printed(report, "baseline accuracy"), sub_acc, 6e-7))
        drops = {}
        for line in report.splitlines():
            if line.startswith("ablate rank "):
                tok = line.split()
                drops[(int(tok[4]), int(tok[5]))] = float(tok[7])
        run.check(f"{tag}.inspect.all_pairs", sorted(drops) == out["pairs"][m],
                  f"{len(drops)} of {len(out['pairs'][m])}")
        ranked = list(drops)
        for pair in {ranked[0], ranked[len(ranked) // 2], ranked[-1]}:
            ablated = referee.accuracy(subset, referee.score_images(classes, models, subset, ablated=pair))
            run.check(f"{tag}.inspect.drop.{pair[0]}-{pair[1]}", _close(drops[pair], sub_acc - ablated, 6e-7),
                      f"printed {drops[pair]} referee {sub_acc - ablated:.9f}")

        # Test accuracy is recorded, not checked against chance: the
        # discriminative stage drops it to chance on some seeds (see CHANGES.md)
        run.quality[f"{tag}.map"] = ref_map
        run.quality[f"{tag}.accuracy"] = ref_acc


def run_workload(workload: Workload, seed: int, seconds: float, recorder: Recorder | None,
                 work: str) -> tuple[Run, dict]:
    if recorder is not None:
        recorder.install()
    run = Run(recorder)
    vocab = setup(run, workload, seed, work, True)
    out = _pipeline(run, workload, seed, work, vocab, seconds)
    n_test = len(out["records"])
    lat = sorted(run.samples["classify"])
    metrics = {
        "setup_s": (statistics.median(run.samples["setup"]), "s"),
        "discover_s": (statistics.median(run.samples["discover"]), "s"),
        "train_s": (statistics.median(run.samples["train"]), "s"),
        "evaluate_images_per_s": (n_test / statistics.median(run.samples["evaluate"]), "1/s"),
        "ablate_images_per_s": (statistics.median(run.samples["ablate"]), "1/s"),
        "classify_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "classify_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    verify(run, workload, work, vocab, out)
    shutil.rmtree(work, ignore_errors=True)
    return run, metrics
