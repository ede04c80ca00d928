"""Tests of the benchmark itself: the tracer changes nothing and counts
reproducibly, the seed argument reaches the data, and the command refuses to
run without the mvx sources."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mvx import networks, numcore, objectives, pooling  # noqa: E402


def _one_epoch(name):
    return dataclasses.replace(workloads.WORKLOADS[name], round_epochs=1)


def _traced_round(ctx):
    t = tracer.Tracer()
    run_state = workloads.fresh_run(ctx)
    with t:
        workloads.train_round(run_state, ctx, workloads.Clock())
    return run_state.history, t


@pytest.mark.parametrize("name, ops, decodes, poes, useful", [
    ("train_poe", 108, 3, 1, 1.0),
    ("train_fanout", 552, 21, 7, 1.0),
    ("train_critic", 1129, 54, 0, 1 / 6),
])
def test_traced_counts_repeat_and_match_reference(tmp_path, name, ops, decodes, poes, useful):
    ctx = workloads.setup(_one_epoch(name), 3, tmp_path)
    counts = []
    for _ in range(2):
        _, t = _traced_round(ctx)
        summary = tracer.summarize(t.spans)
        counts.append({k: v for k, v in summary.items() if not k.endswith("ms")})
    assert counts[0] == counts[1]
    steps = workloads.BATCHES_PER_EPOCH
    assert counts[0]["numcore.ops"] == ops * steps
    assert counts[0]["networks.decode_calls"] == decodes * steps
    assert counts[0]["pooling.poe_calls"] == poes * steps
    assert counts[0]["networks.decode_useful_ratio"] == pytest.approx(useful)


def test_tracing_does_not_change_the_program(tmp_path):
    wl = dataclasses.replace(workloads.WORKLOADS["train_critic"], round_epochs=2)
    ctx = workloads.setup(wl, 5, tmp_path)
    untraced = workloads.fresh_run(ctx)
    workloads.train_round(untraced, ctx, workloads.Clock())
    traced, t = _traced_round(ctx)
    assert t.spans and traced == untraced.history
    # every binding is restored on exit
    assert objectives.poe is pooling.poe and not hasattr(pooling.poe, "__wrapped__")
    assert not hasattr(numcore.add, "__wrapped__")
    assert "forward" not in vars(networks.Encoder)


def test_tracer_sees_functions_imported_by_name(tmp_path):
    ctx = workloads.setup(_one_epoch("train_poe"), 1, tmp_path)
    _, t = _traced_round(ctx)
    names = {span[0] for span in t.spans}
    # mvae reaches these only through names imported into objectives
    assert {"pooling.poe", "distributions.rsample", "distributions.kl_to_standard",
            "objectives.mvae_loss"} <= names


def test_seed_argument_changes_the_data(tmp_path):
    contexts = []
    for i, seed in enumerate((1, 1, 2)):
        (tmp_path / str(i)).mkdir()
        contexts.append(workloads.setup(_one_epoch("train_poe"), seed, tmp_path / str(i)))
    a, b, c = contexts
    assert all(np.array_equal(x, y) for x, y in zip(a.train.views, b.train.views))
    assert not np.array_equal(a.train.views[0], c.train.views[0])
    assert a.model_seed != c.model_seed


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, percentile = run.tail(list(range(100)))
    assert value == 89 and percentile == 90.0


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "train_poe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
