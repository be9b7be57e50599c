"""Shared instance builders for the test suite.

Everything is seeded: the same helper call with the same ``random.Random``
state always yields the same instance, so failures replay exactly.
"""

from __future__ import annotations

import random
import sys

from smallweight.model import Item, KnapsackInstance, SubsetSumInstance


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criteria summary lines after the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)


# Pisinger's instance families (Computers & OR 32(9), 2005) with range
# R = w_max, besides the default uncorrelated draw (p uniform in [0, 4R]).
KNAPSACK_FAMILIES = (
    "weakly-correlated",  # p uniform in [w - R/10, w + R/10], at least 1
    "strongly-correlated",  # p = w + R/10
    "inverse-strongly-correlated",  # w = p + R/10, so w in [R/10 + 1, R]
    "almost-strongly-correlated",  # p uniform in [w + R/10 - R/500, w + R/10 + R/500]
    "subset-sum",  # p = w
)


def family_profit(rng: random.Random, weight: int, w_max: int, family: str) -> int:
    """One profit for an item of ``weight``: "uncorrelated" or a
    ``KNAPSACK_FAMILIES`` family."""
    r10 = w_max // 10
    if family == "uncorrelated":
        return rng.randint(0, 4 * w_max)
    if family == "weakly-correlated":
        return max(1, rng.randint(weight - r10, weight + r10))
    if family == "strongly-correlated":
        return weight + r10
    if family == "inverse-strongly-correlated":
        return weight - r10
    if family == "almost-strongly-correlated":
        return rng.randint(weight + r10 - w_max // 500, weight + r10 + w_max // 500)
    if family == "subset-sum":
        return weight
    raise ValueError(f"unknown family {family!r}")


def rand_knapsack(
    rng: random.Random,
    *,
    n_max: int,
    w_max: int,
    t_max: int | None = None,
    dense: bool = False,
    family: str = "uncorrelated",
) -> KnapsackInstance:
    """One random instance; ``dense`` forces at most three distinct weights,
    ``family`` picks the profits (the default, or one of ``KNAPSACK_FAMILIES``)."""
    n = rng.randint(0, n_max)
    w_lo = 1 + w_max // 10 if family == "inverse-strongly-correlated" else 1
    if dense and n > 0:
        span = range(w_lo, w_max + 1)
        pool = rng.sample(span, min(1 + rng.randrange(3), len(span)))
        weights = [rng.choice(pool) for _ in range(n)]
    else:
        weights = [rng.randint(w_lo, w_max) for _ in range(n)]
    items = tuple(Item(w, family_profit(rng, w, w_max, family)) for w in weights)
    total = sum(it.weight for it in items)
    t_hi = total + w_max if t_max is None else t_max
    return KnapsackInstance(items, rng.randint(0, t_hi))


def rand_subsetsum(
    rng: random.Random, *, n_max: int, w_max: int, t_max: int | None = None
) -> SubsetSumInstance:
    n = rng.randint(0, n_max)
    weights = tuple(rng.randint(1, w_max) for _ in range(n))
    t_hi = sum(weights) + w_max if t_max is None else t_max
    return SubsetSumInstance(weights, rng.randint(0, t_hi))
