"""Independent divergence trajectory for the `converge` workload.

After t = 0 every iterate of the recursion is a target conditional times one
marginal vector, so by the chain rule

    D(p_(t+1) || pi) = D(m_Y(p_t) || pi_Y)   for even t,
    D(p_(t+1) || pi) = D(m_X(p_t) || pi_X)   for odd t,

and the marginal that the next half-step needs is one matrix-vector product
away. This shares no code with daflow's engine, which works on full joints,
so it can check any rewrite of the engine.
"""

from __future__ import annotations

import math

import numpy as np


def _kl(m: np.ndarray, q: np.ndarray) -> float:
    support = m > 0.0
    return math.fsum((m[support] * np.log(m[support] / q[support])).tolist())


def divergence_path(pi: np.ndarray, cell: tuple[int, int], half_steps: int) -> list[float]:
    """D(p_t || pi) for t = 0..half_steps, starting from all mass on `cell`."""
    pi_x = pi.sum(axis=1)
    pi_y = pi.sum(axis=0)
    x_given_y = pi / pi_y[None, :]
    y_given_x = pi / pi_x[:, None]
    i, j = cell
    path = [-math.log(pi[i, j])]
    m = np.zeros(pi.shape[1])
    m[j] = 1.0  # Y marginal of the starting state
    for t in range(half_steps):
        if t % 2 == 0:
            path.append(_kl(m, pi_y))
            m = x_given_y @ m  # X marginal of p_(t+1)
        else:
            path.append(_kl(m, pi_x))
            m = m @ y_given_x  # Y marginal of p_(t+1)
    return path
