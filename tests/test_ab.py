"""The paired benchmark tool `tools/ab.py`: its summary of paired runs (no
benchmark runs here)."""

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
