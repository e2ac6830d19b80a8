"""Shared random-matrix generators and measurements for the test suite."""

import tracemalloc
import weakref

import numpy as np

from quadgrad import ObjectiveFunction, Sense


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


def logistic_loss(seed, samples=200, features=6) -> ObjectiveFunction:
    """Mean logistic loss of w on seeded Gaussian data, labels drawn from a
    seeded model so the classes overlap and a minimum exists. Its Hessian
    H(w) = X^T S(w) X / m has S(w) = diag(s (1 - s)) <= I/4, and S(0) = I/4."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, features))
    w_true = 2.0 * rng.standard_normal(features) / np.sqrt(features)
    y = np.where(rng.random(samples) < 1.0 / (1.0 + np.exp(-x @ w_true)), 1.0, -1.0)
    a = x * y[:, None]

    def sigmoid(t):
        return 0.5 * (1.0 + np.tanh(0.5 * t))

    def value(w):
        return float(np.mean(np.logaddexp(0.0, -(a @ w))))

    def gradient(w):
        return a.T @ (-sigmoid(-(a @ w))) / samples

    def hessian(w):
        s = sigmoid(a @ w)
        return (x.T * (s * (1.0 - s))) @ x / samples

    return ObjectiveFunction(name=f"logistic:{seed}", dim=features, sense=Sense.MINIMIZE,
                             value=value, gradient=gradient, hessian=hessian)


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


class RecordingLapack:
    """Stands in for ``quadgrad.linalg._lapack``: every routine passes through, and each
    ``dgesv`` call, the one that factors, is recorded as ``(weakref to the array it factored
    in place, or None, whether the factor it returned is that array)``."""

    def __init__(self, lapack):
        self._lapack = lapack
        self.factored = []

    def __getattr__(self, name):
        return getattr(self._lapack, name)

    def dgesv(self, a, b, overwrite_a=False):
        lu, piv, x, info = self._lapack.dgesv(a, b, overwrite_a=overwrite_a)
        self.factored.append((weakref.ref(a) if overwrite_a else None, lu is a))
        return lu, piv, x, info

    def buffers(self):
        """Weakrefs to the distinct arrays factored in place, in order of first use."""
        refs = {}
        for ref, _ in self.factored:
            if ref is not None:
                refs.setdefault(id(ref), ref)
        return list(refs.values())


def count_errstates(monkeypatch) -> list:
    """The keyword arguments of every ``np.errstate`` made from now on, through the name
    ``numpy.errstate`` (numpy's own modules hold theirs by another reference)."""
    made = []
    real = np.errstate

    def errstate(**kwargs):
        made.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(np, "errstate", errstate)
    return made
