"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of the program boundary: the
public functions of each program module (and the few private steps whose
counts the layer metrics need) are replaced, in every module that holds a
reference to them, by a wrapper that opens a span around the call. A span
carries its name, start, end, parent span, the pipeline phase it ran in, one
integer counter, and whether it counts towards the layer metrics. Once
installed, every call is recorded, so the traced run's end-to-end figures
carry the whole tracing cost; only the first repetition of each step is
counted, so the layer counts repeat exactly from run to run. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time


def _edges(args, result):
    return args[0].num_edges


def _pruned(args, result):
    return args[0].num_edges - result.num_edges


def _violated(args, result):
    return int(result.slack > 0.0)


# (module, function, counter) for every wrapped name; a counter maps the
# call's (args, result) to the span's integer counter
TARGETS = [
    ("data", "generate_synthetic", None),
    ("data", "save_dataset", None),
    ("data", "load_dataset", None),
    ("clustering", "load_features", None),
    ("clustering", "agglomerate", None),
    ("structure", "learn_partition_tree", None),
    ("structure", "score_partition", None),
    ("structure", "build_class_network", None),
    ("structure", "build_flat_network", None),
    ("structure", "build_naive_network", None),
    ("structure", "find_shared_structures", None),
    ("learning", "train_all", None),
    ("learning", "generative_train", None),
    ("learning", "prune", _pruned),
    ("learning", "_margin_update", _violated),
    ("learning", "save_bundle", None),
    ("learning", "load_bundle", None),
    ("learning", "classify", None),
    ("inference", "mpe", None),
    ("network", "evaluate", _edges),
    ("network", "serialize", None),
    ("network", "deserialize", None),
    ("network", "validate", None),
    ("metrics", "evaluate_bundle", None),
    ("metrics", "accuracy_with_overrides", None),
]

class Recorder:
    """In-memory spans: [name, start, end, parent index, phase, counter, counted]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = None
        self.counted = False

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one phase step."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           self.phase, 0, False])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, counter):
        recorder = self

        def traced(*args, **kwargs):
            spans, stack = recorder.spans, recorder.stack
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, recorder.phase, 0,
                          recorder.counted])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if counter is not None:
                spans[idx][5] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each target in every program module that references it."""
        modules = [m for n, m in sys.modules.items() if n == "spatialspn" or n.startswith("spatialspn.")]
        for module_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[f"spatialspn.{module_name}"], func_name)
            traced = self.wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    # --------------------------------------------------------------- reports

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (total minus
        the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, *_) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
        return out

    def write(self, path_prefix: str) -> None:
        with open(path_prefix + ".spans.tsv", "w", encoding="utf-8") as fh:
            fh.write("id\tname\tphase\tparent\tstart_s\tend_s\tcounter\tcounted\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for idx, (name, start, end, parent, phase, counter, counted) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{phase}\t{parent}\t{start - origin:.9f}\t"
                         f"{end - origin:.9f}\t{counter}\t{int(counted)}\n")
        with open(path_prefix + ".self.json", "w", encoding="utf-8") as fh:
            json.dump(self.self_times(), fh, indent=1, sort_keys=True)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit), from the counted spans."""
        spans = self.spans
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, *_, counted in spans:
            if not counted:
                continue
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1

        def seconds(name):
            return total.get(name, 0.0)

        def mean(name, scale):
            return seconds(name) / calls[name] * scale if calls.get(name) else 0.0

        # spans inside train_all, found by walking parents
        inside_train = [False] * len(spans)
        for idx, span in enumerate(spans):
            parent = span[3]
            inside_train[idx] = span[6] and parent >= 0 and (
                spans[parent][0] == "learning.train_all" or inside_train[parent]
            )
        structure_and_em = (
            "structure.learn_partition_tree", "structure.build_class_network",
            "structure.build_flat_network", "structure.build_naive_network",
            "structure.find_shared_structures", "learning.generative_train", "learning.prune",
        )
        stage_time = sum(
            s[2] - s[1] for i, s in enumerate(spans)
            if inside_train[i] and s[0] in structure_and_em and spans[s[3]][0] == "learning.train_all"
        )
        margin = [s for i, s in enumerate(spans) if inside_train[i] and s[0] == "learning._margin_update"]
        train_evals = sum(
            1 for i, s in enumerate(spans) if inside_train[i] and s[0] == "network.evaluate"
        )
        pairs = len(margin)
        violated = sum(s[5] for s in margin)

        m = {
            "data.generate_s": (seconds("data.generate_synthetic"), "s"),
            "data.save_dataset_s": (seconds("data.save_dataset"), "s"),
            "data.load_dataset_s": (seconds("data.load_dataset"), "s"),
            "clustering.load_features_s": (seconds("clustering.load_features"), "s"),
            "clustering.agglomerate_s": (seconds("clustering.agglomerate"), "s"),
            "structure.learn_partition_tree_s": (seconds("structure.learn_partition_tree"), "s"),
            "structure.score_partition_calls": (calls.get("structure.score_partition", 0), "count"),
            "structure.score_partition_ms": (mean("structure.score_partition", 1e3), "ms"),
            "structure.build_network_s": (
                seconds("structure.build_class_network") + seconds("structure.build_flat_network")
                + seconds("structure.build_naive_network"), "s"),
            "structure.find_shared_structures_s": (seconds("structure.find_shared_structures"), "s"),
            "learning.train_all_s": (seconds("learning.train_all"), "s"),
            "learning.generative_train_s": (seconds("learning.generative_train"), "s"),
            "learning.prune_s": (seconds("learning.prune"), "s"),
            "learning.pruned_edges": (
                sum(s[5] for s in spans if s[0] == "learning.prune" and s[6]), "count"),
            "learning.discriminative_s": (seconds("learning.train_all") - stage_time, "s"),
            "learning.pairs_sampled": (pairs, "count"),
            "learning.violated_pair_ratio": (violated / pairs if pairs else 0.0, "ratio"),
            "learning.dev_margin_evaluations": (train_evals - 2 * pairs, "count"),
            "learning.save_bundle_s": (seconds("learning.save_bundle"), "s"),
            "learning.load_bundle_s": (seconds("learning.load_bundle"), "s"),
            "learning.classify_calls": (calls.get("learning.classify", 0), "count"),
            "learning.classify_us": (mean("learning.classify", 1e6), "us"),
            "inference.mpe_calls": (calls.get("inference.mpe", 0), "count"),
            "inference.mpe_us": (mean("inference.mpe", 1e6), "us"),
        }
        for phase in ("train", "evaluate", "ablate", "classify"):
            evals = [s for s in spans if s[0] == "network.evaluate" and s[4] == phase and s[6]]
            busy = sum(s[2] - s[1] for s in evals)
            m[f"network.evaluate_calls.{phase}"] = (len(evals), "count")
            m[f"network.evaluate_us.{phase}"] = (busy / len(evals) * 1e6 if evals else 0.0, "us")
            m[f"network.edges_per_s.{phase}"] = (
                sum(s[5] for s in evals) / busy if busy > 0 else 0.0, "1/s")
        m.update({
            "network.serialize_s": (seconds("network.serialize"), "s"),
            "network.deserialize_s": (seconds("network.deserialize"), "s"),
            "network.validate_calls": (calls.get("network.validate", 0), "count"),
            "network.validate_s": (seconds("network.validate"), "s"),
            "metrics.evaluate_bundle_s": (seconds("metrics.evaluate_bundle"), "s"),
            "metrics.accuracy_with_overrides_calls": (
                calls.get("metrics.accuracy_with_overrides", 0), "count"),
            "metrics.accuracy_with_overrides_s": (seconds("metrics.accuracy_with_overrides"), "s"),
        })
        return m
