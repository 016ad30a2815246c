import hypothesis
import numpy as np
from hypothesis import strategies as st

from ultrapreserve.generators import random_ultrametric
from ultrapreserve.spaces import FiniteSemimetricSpace

hypothesis.settings.register_profile(
    "det", derandomize=True, deadline=None, max_examples=60
)
hypothesis.settings.load_profile("det")


@st.composite
def ultrametric_spaces(draw, min_points=1, max_points=8):
    """Random dendrogram-based ultrametric spaces, keyed by (n, seed)."""
    n = draw(st.integers(min_points, max_points))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_ultrametric(n, seed)


def subspace(space, indices):
    """Restriction to a subset of points (order preserved)."""
    idx = list(indices)
    return FiniteSemimetricSpace(
        tuple(space.labels[i] for i in idx), space.dist[np.ix_(idx, idx)]
    )
