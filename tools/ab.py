"""Paired benchmark runs of this tree against another git revision.

    python tools/ab.py --against REV --workload train_poe --pairs 10 --seconds 25

REV is checked out into a temporary `git worktree`, which is removed
afterwards. For each seed 1..N, `python3 perfbench/run.py` runs the workload
with `--trace 0` in REV's tree and in this one, back to back so that the two
runs of a pair see about the same machine; REV runs first on odd seeds and
second on even ones, so neither side always follows the other. Each pair's end-to-end metrics are printed
as they arrive; the summary gives, per metric, the medians of both trees, the
spread between REV's quartiles, the median relative change and the number of
pairs in which this tree did better (the direction is BENCHMARK.json's
`better`). It exits 1 when a run fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _change(ours: float, theirs: float) -> str:
    return "=" if ours == theirs else f"{_relative(ours, theirs):+.1%}"


def _relative(ours: float, theirs: float) -> float:
    if theirs == 0:
        return 0.0 if ours == 0 else float(np.copysign(np.inf, ours))
    return (ours - theirs) / abs(theirs)


def summarize(pairs: list[tuple[dict[str, float], dict[str, float]]],
              better: dict[str, str]) -> dict[str, dict[str, float]]:
    """Per metric of `better` (name -> "lower" or "higher"), over the
    (theirs, ours) metric pairs: both medians, REV's interquartile range,
    the median relative change of ours against theirs, and in how many pairs
    ours was strictly better and in how many exactly equal."""
    out = {}
    for name, direction in better.items():
        theirs = np.array([t[name] for t, _ in pairs])
        ours = np.array([o[name] for _, o in pairs])
        sign = 1 if direction == "lower" else -1
        q1, q3 = np.percentile(theirs, [25, 75])
        out[name] = {
            "theirs": float(np.median(theirs)),
            "ours": float(np.median(ours)),
            "theirs_iqr": float(q3 - q1),
            "change": float(np.median([_relative(o, t) for t, o in zip(theirs, ours)])),
            "better": int(np.sum(sign * (theirs - ours) > 0)),
            "equal": int(np.sum(theirs == ours)),
            "pairs": len(pairs),
        }
    return out


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict[str, float], bool]:
    """The end-to-end metrics of one benchmark run in `tree`, and whether its
    output checks passed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"ab: benchmark run in {tree} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result["correct"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs, failed = [], 0
    with tempfile.TemporaryDirectory(prefix="mvx-ab-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base), args.against], check=True)
        try:
            for seed in range(1, args.pairs + 1):
                trees = [base, ROOT] if seed % 2 else [ROOT, base]
                runs = {tree: _run(tree, args.workload, seed, args.seconds) for tree in trees}
                (theirs, ok_theirs), (ours, ok_ours) = runs[base], runs[ROOT]
                failed += (not ok_theirs) + (not ok_ours)
                pairs.append((theirs, ours))
                print(f"seed {seed}" + "".join(
                    f"  {name} {theirs[name]:.6g} -> {ours[name]:.6g}"
                    f" ({_change(ours[name], theirs[name])})" for name in better)
                    + ("" if ok_theirs and ok_ours else "  CHECK FAILED"), flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base)], check=True)

    print(f"{args.workload}: {args.against} -> this tree, {args.pairs} pairs of "
          f"{args.seconds:g} s")
    for name, s in summarize(pairs, better).items():
        print(f"  {name:<16} {s['theirs']:.6g} (IQR {s['theirs_iqr']:.3g}) -> {s['ours']:.6g}"
              f"  median change {s['change']:+.1%}, better in {s['better']}/{s['pairs']}"
              f", equal in {s['equal']}/{s['pairs']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
