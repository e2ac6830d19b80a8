"""Shared random-matrix generators and measurements for the test suite."""

import tracemalloc

import numpy as np


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a + a.T) / 2.0


def random_invertible_symmetric(rng, n):
    """Symmetric with eigenvalues of random sign bounded away from zero."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
    return (q * lam) @ q.T


def random_rank_deficient_symmetric(rng, n, rank):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.zeros(n)
    lam[:rank] = rng.uniform(0.5, 3.0, rank) * rng.choice([-1.0, 1.0], rank)
    return (q * lam) @ q.T


def random_nonzero_vector(rng, n, low=0.1, high=2.0):
    return rng.uniform(low, high, n) * rng.choice([-1.0, 1.0], n)


def peak_traced_bytes(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates beyond what is live at the call.

    numpy reports its data buffers to tracemalloc, so this counts every
    temporary array the call makes.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
