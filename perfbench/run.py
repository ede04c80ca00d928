"""mvx benchmark command.

    python3 perfbench/run.py --workload train_poe --seed 1 --seconds 20 --trace 0

Runs one workload of `workloads.WORKLOADS` in this process and prints every
metric by name and unit, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` measures the
end-to-end metrics with no tracing installed; `--trace 1` gives the per-layer
metrics of BENCHMARK.json from a traced run. Exits 1 when an output check
fails and 2 when the mvx sources are missing. Results and spans are written
under `.perfbench_out/` at the repository root.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3
CALLS_PER_EVAL_ROUND = 5  # log-likelihood, three probe fits, coherence
# per-layer metrics that are totals of one set-up, not per step or call
SETUP_LAYER_METRICS = ("data.generate_ms", "data.read_ms",
                       "training.checkpoint_save_ms", "training.load_run_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven), and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def fail(self, *problems: str) -> None:
        self.problems.extend(problems)


def timings(name, samples_ms, what):
    """Median and tail of per-operation times."""
    value, percentile = tail(samples_ms)
    return {
        f"{name}_p50": (statistics.median(samples_ms), "ms"),
        f"{name}_tail": (value, "ms", f"p{percentile:.1f} of {len(samples_ms)} {what}"),
    }


def import_seconds(reps):
    """Wall time of fresh interpreters that import mvx, and with it numpy."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    seconds = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mvx"], env=env, check=True)
        seconds.append(time.perf_counter() - start)
    return seconds


def timed_setups(wl, seed, workdir, reps):
    import workloads

    seconds, ctx = [], None
    for i in range(reps):
        rep_dir = workdir / f"setup{i}"
        rep_dir.mkdir()
        start = time.perf_counter()
        ctx = workloads.setup(wl, seed, rep_dir)
        seconds.append(time.perf_counter() - start)
    return ctx, seconds


def measure_training(ctx, seconds, outcome):
    """Train fresh models round after round until `seconds` have passed."""
    import workloads
    from mvx import MvxError

    clock = workloads.Clock()
    deadline = time.perf_counter() + seconds
    samples, reference = [], None
    run = ctx.run
    while True:
        try:
            # the first round always completes, so final_loss exists
            samples += workloads.train_round(run, ctx, clock,
                                             None if reference is None else deadline)
        except MvxError as err:
            outcome.attempted += 1
            outcome.fail(f"{type(err).__name__}: {err}")
        history = run.history
        outcome.attempted += len(history)
        if reference is None:
            reference = history
            outcome.fail(*workloads.loss_problems(history))
        elif history != reference[:len(history)]:
            outcome.fail("training round differs from the first round of this run")
        if time.perf_counter() >= deadline:
            break
        run = workloads.fresh_run(ctx)
    batches = workloads.BATCHES_PER_EPOCH
    detail = timings("step_ms", [s.seconds * 1e3 / batches for s in samples], "epochs")
    detail["step_vs_ref_p50"] = (
        statistics.median(s.seconds / batches / s.reference for s in samples), "ratio")
    detail["reference_ms_p50"] = (statistics.median(s.reference * 1e3 for s in samples), "ms")
    detail["train_rows_per_s"] = (
        workloads.TRAIN_ROWS * len(samples) / sum(s.seconds for s in samples), "rows/s")
    detail["final_loss"] = (reference[-1]["total"], "nats")
    return detail, "step"


def measure_evaluation(ctx, seconds, outcome):
    """Evaluate the trained model again and again until `seconds` have passed."""
    import workloads
    from mvx import MvxError

    clock = workloads.Clock()
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        outcome.attempted += CALLS_PER_EVAL_ROUND
        try:
            result = workloads.eval_round(ctx, clock)
        except MvxError as err:
            outcome.fail(f"{type(err).__name__}: {err}")
        else:
            if results:
                same = (result.loglik_nats, result.coherence) == (
                    results[0].loglik_nats, results[0].coherence)
                if not same:
                    outcome.fail("evaluation round differs from the first round of this run")
            else:
                outcome.fail(*workloads.eval_problems(result))
            results.append(result)
        if time.perf_counter() >= deadline:
            break
    rounds_ms = [sum(c.seconds for c in r.calls) * 1e3 for r in results]
    detail = {
        "loglik_s": (statistics.median(r.loglik.seconds for r in results), "s"),
        "coherence_eval_s": (statistics.median(r.coherence_eval_s for r in results), "s"),
        "loglik_vs_ref_p50": (
            statistics.median(r.loglik.seconds / r.loglik.reference for r in results), "ratio"),
        "loglik_nats": (results[0].loglik_nats, "nats"),
        "coherence_acc": (workloads.mean_cross_modal(results[0].coherence), "accuracy"),
        **timings("eval_round_ms", rounds_ms, "rounds"),
        "eval_round_vs_ref_p50": (statistics.median(
            sum(c.seconds / c.reference for c in r.calls) for r in results), "ratio"),
        "reference_ms_p50": (
            statistics.median(c.reference * 1e3 for r in results for c in r.calls), "ms"),
        "eval_rows_per_s": (workloads.TEST_ROWS * len(results) / (sum(rounds_ms) / 1e3),
                            "rows/s"),
        # the evaluated model's training, done in set-up
        "final_loss": (ctx.history[-1]["total"], "nats"),
    }
    outcome.fail(*workloads.loss_problems(ctx.history))
    return detail, "eval_round"


def run_untraced(wl, seed, seconds, workdir, outcome):
    import_s = statistics.median(import_seconds(SETUP_REPS))
    ctx, setup_s = timed_setups(wl, seed, workdir, SETUP_REPS)
    measure = measure_evaluation if wl.evaluate else measure_training
    detail, op = measure(ctx, seconds, outcome)
    detail["setup_s"] = (import_s + statistics.median(setup_s), "s",
                         f"import {import_s:.3f} s + set-up, medians of {SETUP_REPS}")
    detail["peak_rss_mb"] = (peak_rss_mb(), "MB")
    detail["failed_ratio"] = (len(outcome.problems) / max(outcome.attempted, 1), "ratio")
    values = {name: entry[0] for name, entry in detail.items()}
    values["op_vs_ref_p50"] = values[f"{op}_vs_ref_p50"]
    return detail, values, {}


def run_traced(wl, seed, seconds, workdir, outcome):
    """Untraced and traced rounds of the same work in turn: per-layer metrics
    come from the first traced round, the overhead from all pairs."""
    import tracer as tr
    import workloads

    with tr.Tracer() as setup_tracer:
        ctx = workloads.setup(wl, seed, workdir)
    clock = workloads.Clock()
    deadline = time.perf_counter() + seconds
    first, ratios, counts = None, [], None
    while True:
        rounds = []
        for traced in (False, True):
            t = tr.Tracer()
            if wl.evaluate:
                with t if traced else contextlib.nullcontext():
                    result = workloads.eval_round(ctx, clock)
                rounds.append((sum(c.seconds for c in result.calls),
                               (result.loglik_nats, result.coherence)))
                outcome.attempted += CALLS_PER_EVAL_ROUND
            else:
                run = workloads.fresh_run(ctx)
                with t if traced else contextlib.nullcontext():
                    samples = workloads.train_round(run, ctx, clock)
                rounds.append((sum(s.seconds for s in samples), run.history))
                outcome.attempted += len(run.history)
        if rounds[0][1] != rounds[1][1]:
            outcome.fail("traced round gave other results than the untraced round")
        ratios.append(rounds[1][0] / rounds[0][0])
        summary = tr.summarize(t.spans)
        round_counts = {k: v for k, v in summary.items() if _layer_unit(k) != "ms"}
        if first is None:
            first, counts = t, round_counts
        elif round_counts != counts:
            outcome.fail("per-layer counts differ between traced rounds")
        if time.perf_counter() >= deadline:
            break
    per = first.step if not wl.evaluate else 1
    layers = {k: v / per for k, v in tr.summarize(first.spans).items()}
    layers["networks.decode_useful_ratio"] = counts["networks.decode_useful_ratio"]
    setup_summary = tr.summarize(setup_tracer.spans)
    layers.update({k: setup_summary[k] for k in SETUP_LAYER_METRICS})
    layers["trace.overhead_ratio"] = statistics.median(ratios)
    detail = {k: (v, _layer_unit(k)) for k, v in sorted(layers.items())}
    spans = {"setup": setup_tracer.spans, "round": first.spans}
    return detail, layers, spans


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvx" / "__init__.py").is_file():
        print(f"perfbench: mvx sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment(args.seed)
    outcome = Outcome()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.trace:
            detail, values, spans = run_traced(wl, args.seed, args.seconds, Path(tmp), outcome)
        else:
            detail, values, spans = run_untraced(wl, args.seed, args.seconds, Path(tmp), outcome)
    correct = not outcome.problems
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans:
        import tracer

        tracer.write_spans(OUT_DIR / f"{stem}-spans.json.gz", spans)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": env, "detail": {k: list(v) for k, v in detail.items()},
        "problems": outcome.problems, "metrics": metrics,
    }, indent=1))

    print(f"# env {json.dumps(env)}")
    print(f"{args.workload} ({wl.model}), seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    for name, (value, unit, *note) in detail.items():
        print(f"  {name:<36} {value:>14.6g} {unit}{'  (' + note[0] + ')' if note else ''}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": len(outcome.problems), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
