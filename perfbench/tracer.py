"""Outside-in tracer: wraps the public functions of each mvx layer from the
benchmark's own code, records spans in memory, and turns them into per-layer
metrics.

A span is [name, start, end, parent index, step id, outermost-in-layer].
Spans are only recorded between `install()` and `uninstall()`; outside that
window every binding holds the original function again, so untraced runs pay
nothing.

Functions are often imported by name (`from .pooling import poe`), so a
wrapper is installed on every binding of the function object in every loaded
`mvx` module, including values of module-level dicts (the objective tables).
Methods are wrapped on the class that the layer boundary names.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from mvx import data, distributions, evaluation, networks, numcore, objectives, pooling, training

# public numcore names that are not graph ops
NUMCORE_NON_OPS = {"no_grad", "grad_enabled", "constant", "parameter", "backward",
                   "elementwise", "reduce"}

# a new training step starts when the epoch loop slices its next mini-batch
STEP_MARKER = "data.subset"
EPOCH_LOOP = "training.continue_fit"


def _public_functions(module):
    return [(name, fn) for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")]


def trace_targets():
    """(span name, function) for every module-level function to wrap, and
    (span name, class, attribute) for every method."""
    functions = []
    for name, fn in _public_functions(numcore):
        if name not in NUMCORE_NON_OPS:
            functions.append((f"numcore.op.{name.rstrip('_')}", fn))
    functions.append(("numcore.backward", numcore.backward))
    for module in (distributions, pooling):
        layer = module.__name__.rsplit(".", 1)[1]
        functions += [(f"{layer}.{name}", fn) for name, fn in _public_functions(module)]
    tables = (objectives.VARIATIONAL_OBJECTIVES, objectives.PLAIN_OBJECTIVES,
              objectives.ADVERSARIAL_OBJECTIVES)
    functions += [(f"objectives.{fn.__name__}", fn) for table in tables for fn in table.values()]
    functions += [
        (EPOCH_LOOP, training.continue_fit),
        ("training.fit", training.fit),
        ("training.checkpoint_save", training.save_checkpoint),
        ("training.load_run", training.load_run),
        ("evaluation.loglik", evaluation.joint_log_likelihood),
        ("evaluation.probe_fit", evaluation.train_probe_classifier),
        ("evaluation.coherence", evaluation.coherence),
        ("data.generate", data.generate_synthetic),
        ("data.write", data.write_dataset),
        ("data.read", data.read_dataset),
    ]
    methods = [
        ("distributions.Likelihood.log_prob", distributions.Likelihood, "log_prob"),
        ("distributions.Likelihood.mean", distributions.Likelihood, "mean"),
        ("networks.encode", networks.VariationalEncoder, "forward"),
        ("networks.encode", networks.Encoder, "forward"),
        ("networks.decode", networks.Decoder, "decode"),
        ("networks.disc", networks.Discriminator, "score"),
        ("training.adam", training.Adam, "step"),
        (STEP_MARKER, data.MultiViewBatch, "subset"),
    ]
    return functions, methods


class Tracer:
    """Records spans while installed. One tracer per traced region."""

    def __init__(self):
        self.spans: list[list] = []
        self.step = 0
        self._stack: list[int] = []
        self._open_layers: Counter = Counter()
        self._restore: list = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        spans, stack, open_layers = self.spans, self._stack, self._open_layers
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if name == STEP_MARKER and any(spans[i][0] == EPOCH_LOOP for i in stack):
                tracer.step += 1
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.step,
                    open_layers[layer] == 0]
            stack.append(len(spans))
            spans.append(span)
            open_layers[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_layers[layer] -= 1
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        functions, methods = trace_targets()
        wrapped = {id(fn): (fn, self._wrap(name, fn)) for name, fn in functions}

        def swap(owner, key, value):
            fn, wrapper = wrapped.get(id(value), (None, None))
            if fn is value:
                self._restore.append((owner, key, value))
                owner[key] = wrapper

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "mvx" or key.startswith("mvx."))]
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                swap(namespace, attr, value)
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        swap(value, key, item)
        for name, cls, attr in methods:
            own = cls.__dict__.get(attr)
            self._restore.append((cls, attr, own))
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            elif value is None:
                delattr(owner, key)
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def write_spans(path, regions: dict[str, list[list]]) -> None:
    """Write each region's spans as gzipped JSON columns (times in seconds)."""
    doc = {}
    for region, spans in regions.items():
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        doc[region] = {
            "names": names,
            "name": [index[s[0]] for s in spans],
            "start": [s[1] for s in spans],
            "end": [s[2] for s in spans],
            "parent": [s[3] for s in spans],
            "step": [s[4] for s in spans],
        }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _objective_ancestor(spans, i):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0].startswith("objectives."):
            return p
        p = spans[p][3]
    return -1


def summarize(spans: list[list]) -> dict[str, float]:
    """Totals over a traced region: counts, self and inclusive ms per layer.

    Inclusive layer time (`pooling.ms`, `distributions.ms`) counts only the
    outermost span of that layer, so nested calls are not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    count: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_ms: defaultdict = defaultdict(float)
    outer: defaultdict = defaultdict(float)
    for i, (name, start, end, _, _, outermost) in enumerate(spans):
        dur = (end - start) * 1e3
        count[name] += 1
        total[name] += dur
        self_ms[name] += dur - child[i] * 1e3
        if outermost:
            outer[name.split(".", 1)[0]] += dur

    def pick(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    out: dict[str, float] = {
        "numcore.ops": pick("numcore.op.", count),
        "numcore.op_ms": pick("numcore.op.", self_ms),
        "numcore.backward_ms": total["numcore.backward"],
        "training.adam_ms": total["training.adam"],
        "training.optimizer_calls": count["training.adam"],
        "training.self_ms": self_ms[EPOCH_LOOP],
        "objectives.calls": pick("objectives.", count),
        "objectives.self_ms": pick("objectives.", self_ms),
        "pooling.calls": pick("pooling.", count),
        "pooling.poe_calls": count["pooling.poe"],
        "pooling.ms": outer["pooling"],
        "distributions.calls": pick("distributions.", count),
        "distributions.ms": outer["distributions"],
        "data.subset_ms": total[STEP_MARKER],
        "data.generate_ms": total["data.generate"],
        "data.read_ms": total["data.read"],
        "training.checkpoint_save_ms": total["training.checkpoint_save"],
        "training.load_run_ms": total["training.load_run"],
        "evaluation.loglik_ms": total["evaluation.loglik"],
        "evaluation.probe_fit_ms": total["evaluation.probe_fit"],
        "evaluation.coherence_ms": total["evaluation.coherence"],
    }
    for part in ("encode", "decode", "disc"):
        out[f"networks.{part}_calls"] = count[f"networks.{part}"]
        out[f"networks.{part}_ms"] = total[f"networks.{part}"]
    for name, _ in trace_targets()[0]:
        if name.startswith("numcore.op."):
            out[f"{name}.count"] = count[name]
            out[f"{name}.ms"] = self_ms[name]

    # decoder calls under a repeated objective call of the same step do not
    # feed that step's gradient of the model
    first_objective: dict[int, int] = {}
    wasted = 0
    for i, span in enumerate(spans):
        if span[0].startswith("objectives."):
            first_objective.setdefault(span[4], i)
        elif span[0] == "networks.decode":
            obj = _objective_ancestor(spans, i)
            if obj >= 0 and first_objective[spans[obj][4]] != obj:
                wasted += 1
    decodes = count["networks.decode"]
    out["networks.decode_useful_ratio"] = (decodes - wasted) / decodes if decodes else 1.0
    return out
