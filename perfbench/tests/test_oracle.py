"""The verify-violated oracle against a brute-force triple scan."""

import numpy as np
import pytest

from workloads import PLANT_FACTOR, first_planted_violation, plant_rows
from ultrapreserve.generators import random_ultrametric


def brute_first_violation(d: np.ndarray, strong: bool):
    n = d.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                rhs = max(d[i, k], d[k, j]) if strong else d[i, k] + d[k, j]
                if d[i, j] > rhs:
                    return {"type": "strong_triangle" if strong else "triangle",
                            "indices": [i, j, k], "lhs": float(d[i, j]), "rhs": float(rhs)}
    return None


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("strong", [True, False])
def test_formula_matches_brute_force(n, seed, strong):
    rng = np.random.default_rng([seed, n])
    d = np.array(random_ultrametric(n, seed).dist)
    assert brute_first_violation(d, strong) is None
    for a in range(n - 1):
        for b in range(a + 1, n):
            planted = d.copy()
            planted[a, b] = planted[b, a] = PLANT_FACTOR * d.max()
            assert first_planted_violation(planted, a, b, strong) == brute_first_violation(planted, strong)
    assert all(0 <= a <= n - 2 for a in plant_rows(rng, n))


def test_plant_rows_spread_over_the_range():
    rng = np.random.default_rng(0)
    for n in (16, 23, 32, 45, 64):
        for _ in range(20):
            low, mid, high = plant_rows(rng, n)
            assert 0 <= low < mid < high <= n - 2
            assert low + high == n - 2
