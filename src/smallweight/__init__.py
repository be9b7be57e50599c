"""Exact 0-1 knapsack and subset-sum solvers for small maximum item weight.

The public surface:

* :func:`solve_01_knapsack` — optimal value plus one optimal selection,
  with proximity-based back ends (a window DP and the paper pipeline)
  that scale with the maximum item weight rather than the capacity, and
  classic fallbacks.
* :func:`solve_subset_sum` — largest attainable sum not exceeding the
  target, plus whether the target itself is attainable.
* :mod:`smallweight.cli` — ``generate`` / ``solve`` / ``verify`` /
  ``bench`` batch commands (installed as the ``smallweight`` script).

Everything is exact integer arithmetic; no approximation anywhere.
"""

from .instio import parse_instance, serialize_instance
from .knapsack import ALGO_CHOICES, solve_01_knapsack
from .model import (
    ContractError,
    Counters,
    InstanceFormatError,
    Item,
    KnapsackInstance,
    ResourceLimitError,
    SubsetSumInstance,
)
from .subsetsum import SubsetSumAnswer, solve_subset_sum

__all__ = [
    "ALGO_CHOICES",
    "ContractError",
    "Counters",
    "InstanceFormatError",
    "Item",
    "KnapsackInstance",
    "ResourceLimitError",
    "SubsetSumAnswer",
    "SubsetSumInstance",
    "parse_instance",
    "serialize_instance",
    "solve_01_knapsack",
    "solve_subset_sum",
]

__version__ = "0.1.0"
