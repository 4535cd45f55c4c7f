"""Shared test helpers: deterministic random densities and hypothesis strategies."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

# values at the edges of how JSON writes a float: signed zeros, the smallest
# subnormal, both sides of repr's switches to exponent notation at 1e-5 and
# 1e16, and the infinities, which are written as strings
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-5, 9.999999999999999e-06, 1.0000000000000002e-05,
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16, 1e-10, math.inf, -math.inf,
)


def gamma_weights(nx: int, ny: int, seed: int, concentration: float = 1.0) -> np.ndarray:
    """Strictly positive normalized weights, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    w = rng.gamma(concentration, size=(nx, ny))
    return w / w.sum()


def grid_shapes(max_side: int = 6) -> st.SearchStrategy[tuple[int, int]]:
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side))


@st.composite
def positive_joint_weights(draw, max_side: int = 6) -> np.ndarray:
    """Strictly positive pmf matrices with exactly representable structure."""
    nx, ny = draw(grid_shapes(max_side))
    cells = draw(st.lists(st.integers(1, 10_000), min_size=nx * ny, max_size=nx * ny))
    w = np.array(cells, dtype=np.float64).reshape(nx, ny)
    return w / w.sum()


@st.composite
def joint_weights_with_zeros(draw, max_side: int = 6) -> np.ndarray:
    """Pmf matrices that may contain zero cells but carry positive total mass."""
    nx, ny = draw(grid_shapes(max_side))
    cells = draw(
        st.lists(st.integers(0, 10_000), min_size=nx * ny, max_size=nx * ny).filter(
            lambda c: sum(c) > 0
        )
    )
    w = np.array(cells, dtype=np.float64).reshape(nx, ny)
    return w / w.sum()


@st.composite
def joint_weight_pairs(draw, max_side: int = 6, allow_zeros: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Two pmf matrices on one shared grid."""
    nx, ny = draw(grid_shapes(max_side))
    low = 0 if allow_zeros else 1
    mk = st.lists(st.integers(low, 10_000), min_size=nx * ny, max_size=nx * ny).filter(
        lambda c: sum(c) > 0
    )
    a = np.array(draw(mk), dtype=np.float64).reshape(nx, ny)
    b = np.array(draw(mk), dtype=np.float64).reshape(nx, ny)
    return a / a.sum(), b / b.sum()
