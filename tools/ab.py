"""Paired benchmark runs of this tree against another revision or checkout.

    python tools/ab.py --against REV_OR_DIR --workload train_poe [train_fanout ...] \
        --pairs 10 --seconds 25 [--json BENCH.json]

REV_OR_DIR is a git revision or the directory of another checkout (see
`tools/checkout.py`). Both sides run from copies at paths of equal length,
`a` (REV) and `b` (this tree) in one temporary directory that is removed
afterwards, since where a tree lies moves its timings by itself: REV's tree
without `.git`, `.perfbench_out` or `__pycache__`, and this tree's tracked
files as they stand in the working tree. For each workload and each seed
1..N, `python3 perfbench/run.py` runs the workload with `--trace 0` in REV's
copy and in this tree's, back to back so that the two runs of a pair see
about the same machine; REV runs first on odd seeds and second on even ones,
so neither side always follows the other. Each pair's end-to-end metrics are
printed as they arrive, with `import_s`, the import part of `setup_s` that
the run's saved result notes, so that import noise can be told from set-up
time. The summary gives, per metric, the medians of both trees, the spread
between REV's quartiles, the median relative change and the number of pairs
in which this tree did better (the direction is BENCHMARK.json's `better`;
`import_s` is lower-better). `--json PATH` writes the pairs and the
summaries to PATH. It exits 1 when a run fails its output checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from checkout import checkout

ROOT = Path(__file__).resolve().parents[1]
# perfbench notes setup_s as "import 0.171 s + set-up, medians of 3"
_IMPORT_NOTE = re.compile(r"\bimport (\S+) s\b")


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


def import_part(detail: dict[str, list]) -> float:
    """The import seconds that the note of `setup_s` gives in a run's saved
    `detail`."""
    note = detail["setup_s"][2]
    match = _IMPORT_NOTE.search(note)
    if match is None:
        raise SystemExit(f"ab: no import time in the setup_s note {note!r}")
    return float(match.group(1))


def _working_files() -> list[str]:
    """This tree's tracked files that exist in the working tree, relative to its root."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z"],
                            stdout=subprocess.PIPE, check=True).stdout
    return [name for name in listed.decode().split("\0") if (ROOT / name).is_file()]


@contextlib.contextmanager
def run_trees(against: str) -> Iterator[tuple[Path, Path]]:
    """The copies that the runs use, REV's and this tree's (see the module
    docstring), for the context's duration."""
    with checkout(against) as base, tempfile.TemporaryDirectory(prefix="mvx-ab-") as tmp:
        theirs, ours = Path(tmp) / "a", Path(tmp) / "b"
        shutil.copytree(base, theirs,
                        ignore=shutil.ignore_patterns(".git", ".perfbench_out", "__pycache__"))
        for name in _working_files():
            (ours / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, ours / name)
        yield theirs, ours


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict[str, float], bool]:
    """The end-to-end metrics of one benchmark run in `tree` and `import_s`
    from its saved result, and whether its output checks passed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"ab: benchmark run in {tree} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    saved = json.loads((tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json")
                       .read_text())
    metrics["import_s"] = import_part(saved["detail"])
    return metrics, result["correct"]


def _compare(theirs_tree: Path, ours_tree: Path, workload: str, pairs: int, seconds: float,
             better: dict[str, str]) -> tuple[list[dict], dict[str, dict[str, float]], int]:
    """`pairs` paired runs of `workload`, printed as they arrive: each pair's
    record, the summary and the number of runs that failed their checks."""
    records, failed = [], 0
    for seed in range(1, pairs + 1):
        first = seed % 2  # 1: the other tree runs first
        order = (theirs_tree, ours_tree) if first else (ours_tree, theirs_tree)
        runs = [_run(tree, workload, seed, seconds) for tree in order]
        (theirs, ok_theirs), (ours, ok_ours) = runs if first else runs[::-1]
        failed += (not ok_theirs) + (not ok_ours)
        records.append({"seed": seed, "first": "theirs" if first else "ours",
                        "theirs": theirs, "ours": ours, "correct": ok_theirs and ok_ours})
        print(f"seed {seed}" + "".join(
            f"  {name} {theirs[name]:.6g} -> {ours[name]:.6g}"
            f" ({_change(ours[name], theirs[name])})" for name in better)
            + ("" if ok_theirs and ok_ours else "  CHECK FAILED"), flush=True)
    return records, summarize([(r["theirs"], r["ours"]) for r in records], better), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True,
                        help="the git revision or checkout directory to compare with")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--json", type=Path, help="write the pairs and summaries here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["import_s"] = "lower"

    report: dict[str, object] = {"against": args.against, "seconds": args.seconds,
                                 "workloads": {}}
    failed = 0
    with run_trees(args.against) as (theirs_tree, ours_tree):
        for workload in args.workload:
            records, summary, n_failed = _compare(theirs_tree, ours_tree, workload, args.pairs,
                                                  args.seconds, better)
            failed += n_failed
            report["workloads"][workload] = {"pairs": records, "summary": summary}
            print(f"{workload}: {args.against} -> this tree, {args.pairs} pairs of "
                  f"{args.seconds:g} s")
            for name, s in summary.items():
                print(f"  {name:<16} {s['theirs']:.6g} (IQR {s['theirs_iqr']:.3g}) -> "
                      f"{s['ours']:.6g}  median change {s['change']:+.1%}, better in "
                      f"{s['better']}/{s['pairs']}, equal in {s['equal']}/{s['pairs']}")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
