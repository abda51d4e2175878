"""The bootstrap of ``tools/abtime.py`` against every resample of a tiny input.

Loads the tool as a module and spawns no process.
"""

import importlib.util
import random
import statistics
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "abtime", Path(__file__).resolve().parent.parent / "tools" / "abtime.py")
abtime = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtime)


class EnumeratingRandom:
    """Stands in for ``random.Random``: its ``choices`` returns each
    k-element resample of the population once, in a fixed order."""

    def __init__(self, population, k):
        self.resamples = product(population, repeat=k)

    def choices(self, population, k):
        return list(next(self.resamples))


def exact_medians(values):
    """The median of each of the len(values)**len(values) equally likely resamples."""
    return [statistics.median(r) for r in product(values, repeat=len(values))]


def brute_force_interval(values, level):
    """The exact bootstrap interval: the least medians whose cumulative
    probability exceeds the lower tail and reaches one minus the upper tail."""
    medians = exact_medians(values)
    tail = Fraction(1 - level) / 2

    def least(test):
        return min(v for v in medians
                   if test(Fraction(sum(m <= v for m in medians), len(medians))))

    return least(lambda share: share > tail), least(lambda share: share >= 1 - tail)


VALUES = [(1.0, 2.0, 4.0), (0.8, 0.8, 1.3), (1.2, 0.7, 0.9), (1.0, 1.0, 1.0)]


@pytest.mark.parametrize("values", VALUES)
@pytest.mark.parametrize("level", [0.95, 0.5, 0.2])
def test_interval_over_every_resample_matches_brute_force(values, level):
    medians = abtime.resample_medians(values, 27, EnumeratingRandom(values, 3))
    assert sorted(medians) == sorted(exact_medians(values))
    assert abtime.percentile_interval(medians, level) == brute_force_interval(values, level)


@pytest.mark.parametrize("values", VALUES)
def test_seeded_resamples_follow_the_exact_distribution(values):
    # The median of three draws from three values is the smallest one in 7
    # of 27 resamples, the middle one in 13 and the largest in 7.
    exact = Counter(exact_medians(values))
    drawn = Counter(abtime.resample_medians(values, 27_000, random.Random(5)))
    assert drawn.keys() == exact.keys()
    for median, count in exact.items():
        assert abs(drawn[median] / 27_000 - count / 27) < 0.01
    assert abtime.bootstrap_interval(values, 27_000) == brute_force_interval(values, 0.95)


def test_bootstrap_is_seeded():
    ratios = [0.71, 0.83, 0.76, 0.92, 0.78, 0.8]
    assert abtime.bootstrap_interval(ratios) == abtime.bootstrap_interval(ratios)
    low, high = abtime.bootstrap_interval(ratios)
    assert min(ratios) <= low <= statistics.median(ratios) <= high <= max(ratios)
