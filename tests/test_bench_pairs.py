"""The summary of ``tools/bench_pairs.py`` on fixed numbers: the pairs
rule for claiming a gain.  No benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarise = bench_pairs.summarise

# parent runs with quartiles 1.02 and 1.07 (inclusive method): IQR 0.05
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_side_summary_gives_median_and_inclusive_quartiles():
    s = summarise(PARENT, PARENT)["parent"]
    assert (s["q1"], s["median"], s["q3"]) == (1.0225, 1.045, 1.0675)
    assert s["runs"] == PARENT


def test_a_clear_gain_is_met():
    change = [x - 0.1 for x in PARENT]
    s = summarise(PARENT, change)
    assert s["change_better_pairs"] == "10/10" and s["ties"] == 0
    assert s["gain"] == pytest.approx(0.1) and s["parent_iqr"] == pytest.approx(0.045)
    assert s["met"]


def test_nine_of_ten_wins_suffice_and_eight_do_not():
    nine = [x - 0.1 for x in PARENT[:9]] + [PARENT[9] + 0.5]
    assert summarise(PARENT, nine)["change_better_pairs"] == "9/10"
    assert summarise(PARENT, nine)["met"]
    eight = [x - 0.1 for x in PARENT[:8]] + [x + 0.5 for x in PARENT[8:]]
    assert summarise(PARENT, eight)["change_better_pairs"] == "8/10"
    assert not summarise(PARENT, eight)["met"]


def test_ties_count_for_neither_side():
    # nine wins and one tie: 9/10 still meets the rule
    change = [x - 0.1 for x in PARENT[:9]] + [PARENT[9]]
    s = summarise(PARENT, change)
    assert (s["change_better_pairs"], s["ties"]) == ("9/10", 1)
    assert s["met"]
    # eight wins and two ties: the ties are not wins, so 8/10 fails
    change = [x - 0.1 for x in PARENT[:8]] + PARENT[8:]
    s = summarise(PARENT, change)
    assert (s["change_better_pairs"], s["ties"]) == ("8/10", 2)
    assert not s["met"]


def test_every_pair_won_by_less_than_the_parent_iqr_is_not_met():
    change = [x - 0.01 for x in PARENT]
    s = summarise(PARENT, change)
    assert s["change_better_pairs"] == "10/10"
    assert s["gain"] < s["parent_iqr"] and not s["met"]


def test_higher_is_better_flips_the_direction():
    change = [x + 0.1 for x in PARENT]
    assert summarise(PARENT, change, better="higher")["met"]
    assert not summarise(PARENT, change, better="lower")["met"]
    assert summarise(PARENT, change, better="lower")["change_better_pairs"] == "0/10"


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        summarise(PARENT, PARENT[:9])
    with pytest.raises(ValueError):
        summarise([], [])
