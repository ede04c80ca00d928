"""The paired benchmark tool `tools/ab.py`: its summary of paired runs and
the copies it runs in (no benchmark runs here)."""

import contextlib
import json
import subprocess
import tempfile
from pathlib import Path

import pytest

from helpers import load_tool

ab = load_tool("ab")


def test_the_summary_gives_medians_spread_change_and_paired_counts():
    pairs = [({"time": 1.0, "loss": 5.0, "rate": 10.0}, {"time": 0.9, "loss": 5.0, "rate": 11.0}),
             ({"time": 1.2, "loss": 6.0, "rate": 10.0}, {"time": 1.0, "loss": 6.0, "rate": 9.0}),
             ({"time": 0.8, "loss": 7.0, "rate": 10.0}, {"time": 0.84, "loss": 7.0, "rate": 12.0}),
             ({"time": 1.0, "loss": 8.0, "rate": 10.0}, {"time": 0.85, "loss": 8.0, "rate": 10.0})]
    summary = ab.summarize(pairs, {"time": "lower", "loss": "lower", "rate": "higher"})
    assert list(summary) == ["time", "loss", "rate"]

    time = summary["time"]
    assert time["theirs"] == 1.0 and time["ours"] == pytest.approx(0.875)
    assert time["theirs_iqr"] == pytest.approx(1.05 - 0.95)
    # per pair: -10%, -16.7%, +5%, -15%
    assert time["change"] == pytest.approx(-0.125)
    assert (time["better"], time["equal"], time["pairs"]) == (3, 0, 4)

    loss = summary["loss"]
    assert (loss["change"], loss["better"], loss["equal"]) == (0.0, 0, 4)
    assert loss["theirs"] == loss["ours"] == 6.5

    rate = summary["rate"]  # higher is better: +10%, -10%, +20%, =
    assert (rate["better"], rate["equal"], rate["theirs_iqr"]) == (2, 1, 0.0)
    assert rate["change"] == pytest.approx(0.05)


def test_a_change_from_zero_is_signed_and_equal_values_read_equal():
    assert ab._relative(0.0, 0.0) == 0.0
    assert ab._relative(2.0, 0.0) == float("inf")
    assert ab._relative(-2.0, 0.0) == float("-inf")
    assert ab._change(116.728, 116.728) == "="
    assert ab._change(0.9, 1.0) == "-10.0%"


def test_the_import_part_is_read_from_the_setup_note():
    detail = {"setup_s": [0.25, "s", "import 0.171 s + set-up, medians of 3"]}
    assert ab.import_part(detail) == 0.171
    with pytest.raises(SystemExit, match="no import time"):
        ab.import_part({"setup_s": [0.25, "s", "set-up only"]})


def test_a_run_reads_its_metrics_and_the_import_part_of_its_saved_result(tmp_path, monkeypatch):
    out = tmp_path / ".perfbench_out"
    out.mkdir()
    (out / "train_poe-seed3-trace0.json").write_text(json.dumps(
        {"detail": {"setup_s": [0.3, "s", "import 0.2 s + set-up, medians of 3"]}}))
    printed = json.dumps({"correct": True, "metrics": {"setup_s": {"value": 0.3}}})

    def fake_run(argv, cwd, **kwargs):
        assert cwd == tmp_path and argv[argv.index("--seed") + 1] == "3"
        return subprocess.CompletedProcess(argv, 0, stdout="# env {}\n" + printed + "\n")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    assert ab._run(tmp_path, "train_poe", 3, 1.0) == ({"setup_s": 0.3, "import_s": 0.2}, True)


def test_json_holds_the_pairs_and_summaries(tmp_path, monkeypatch):
    base = tmp_path / "base"
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(("theirs" if tree == base else "ours", workload, seed))
        value = 1.0 if tree == base else 0.8
        return {name: value for name in ("op_vs_ref_p50", "final_loss", "setup_s",
                                         "peak_rss_mb", "import_s")}, True

    monkeypatch.setattr(ab, "run_trees",
                        lambda against: contextlib.nullcontext((base, tmp_path / "ours")))
    monkeypatch.setattr(ab, "_run", fake_run)
    path = tmp_path / "bench.json"
    assert ab.main(["--against", "HEAD~1", "--workload", "train_poe", "train_fanout",
                    "--pairs", "2", "--seconds", "1",
                    "--json", str(path)]) == 0

    # the other tree runs first on odd seeds
    assert calls[:4] == [("theirs", "train_poe", 1), ("ours", "train_poe", 1),
                         ("ours", "train_poe", 2), ("theirs", "train_poe", 2)]
    report = json.loads(path.read_text())
    assert (report["against"], report["seconds"]) == ("HEAD~1", 1.0)
    assert list(report["workloads"]) == ["train_poe", "train_fanout"]
    poe = report["workloads"]["train_poe"]
    assert [(p["seed"], p["first"], p["correct"]) for p in poe["pairs"]] == [
        (1, "theirs", True), (2, "ours", True)]
    assert poe["pairs"][0]["theirs"]["import_s"] == 1.0
    assert list(poe["summary"]) == ["op_vs_ref_p50", "final_loss", "setup_s", "peak_rss_mb",
                                    "import_s"]
    assert poe["summary"]["peak_rss_mb"]["better"] == 2
    assert set(report) == {"against", "seconds", "workloads"}


def test_both_sides_run_from_copies_at_paths_of_equal_length(tmp_path, monkeypatch):
    other = tmp_path / "other-checkout"
    for name in ("src/mvx/__init__.py", ".git/HEAD", ".perfbench_out/old.json"):
        (other / name).parent.mkdir(parents=True, exist_ok=True)
        (other / name).write_text(name)
    # this tree's files as git lists them, one of them edited and not committed
    monkeypatch.setattr(ab, "_working_files", lambda: ["tools/ab.py", "src/mvx/__init__.py"])
    runs = []

    def fake_run(tree, workload, seed, seconds):
        runs.append((tree, {str(p.relative_to(tree)): p.read_bytes() for p in tree.rglob("*")
                            if p.is_file()}))
        return {name: 1.0 for name in ("op_vs_ref_p50", "final_loss", "setup_s",
                                       "peak_rss_mb", "import_s")}, True

    monkeypatch.setattr(ab, "_run", fake_run)
    assert ab.main(["--against", str(other), "--workload", "train_poe", "--pairs", "1",
                    "--seconds", "1"]) == 0

    [(theirs, theirs_files), (ours, ours_files)] = runs
    assert theirs != ours and len(str(theirs)) == len(str(ours))
    temp = Path(tempfile.gettempdir()).resolve()
    assert theirs.parent == ours.parent and theirs.parent.parent.resolve() == temp
    assert theirs_files == {"src/mvx/__init__.py": b"src/mvx/__init__.py"}
    assert ours_files == {name: (ab.ROOT / name).read_bytes()
                          for name in ("tools/ab.py", "src/mvx/__init__.py")}
    assert not theirs.exists() and not ours.exists()
