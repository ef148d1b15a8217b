"""The sixth-order Magnus step for the Schrodinger equation U' = -iH(t)U.

One step over [t, t + h] is U(t + h, t) = exp(-iK), built from H1, H2, H3,
the Hamiltonian at the three Gauss nodes t + (1/2 - sqrt(15)/10) h,
t + h/2 and t + (1/2 + sqrt(15)/10) h:

    B1 = h H2,   B2 = (sqrt(15)/3) h (H3 - H1),   B3 = (10/3) h (H3 - 2 H2 + H1),
    G1 = G(B1, B2),   G2 = G(B1, 2 B3 + G1),   G3 = G(-20 B1 - B3 + G1, B2 - G2/60),
    K = B1 + B3/12 + G3/240,

with G(X, Y) = -i[X, Y] (Blanes, Casas & Ros, BIT 40, 434 (2000); Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), sec. 5).  For Hermitian X
and Y, [X, Y] = XY - (XY)†, so each commutator is one product and its
adjoint, and K is Hermitian to the last bit.  Its exponential is
:func:`floqdyn.operators.expm`, one batched call for every step: the
diagonal Pade approximants and squarings it uses keep -iK's exponential
unitary in exact arithmetic, and their rounding leaves a unitarity defect
of ~1e-16 ||K|| (1e-4 at a phase of 1e12 per step).  Unlike ``eigh``, they
keep the entries between decoupled levels exactly zero, as the products of
K do, so the zeros of the recorded states stay zeros.  The step takes any
length, so the same step fills a sample grid and reaches a time between
two grid nodes.

The master equation is not integrated here: every generator is time
independent in the micromotion frame P† rho P, so
:func:`floqdyn.scenarios.evolve` takes its exact exponential.
"""

import numpy as np

from .errors import ValidationError
from .operators import expm, prefix_products

#: offset of the outer Gauss nodes from the middle of a step, in step lengths
_NODE = np.sqrt(15.0) / 10.0


def _sample(h_of_t, times: np.ndarray) -> np.ndarray:
    """H at each of ``times`` as an (n, D, D) stack; a constant H may return one matrix."""
    h = np.asarray(h_of_t(times))
    if h.ndim == 2:
        h = np.broadcast_to(h, (len(times),) + h.shape)
    if h.ndim != 3 or h.shape[0] != len(times):
        raise ValidationError(
            f"Hamiltonian returned shape {h.shape} for {len(times)} times; expected "
            "an (n, D, D) stack or one (D, D) matrix"
        )
    return h


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G(x, y) = -i[x, y] of Hermitian stacks, as -i(M - M†), M = xy: Hermitian exactly."""
    m = x @ y
    return -1j * (m - m.conj().swapaxes(-1, -2))


def magnus_steps(h_of_t, t, h) -> np.ndarray:
    """U(t + h, t) by one sixth-order Magnus step, for every step of ``t`` and ``h``.

    ``t`` and ``h`` broadcast together to a shape s, and the result has
    shape s + (D, D).  ``h_of_t`` is called once, with the 1-D array of
    the three Gauss nodes of every step.
    """
    t, h = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(h, dtype=float))
    shape = t.shape
    t, h = t.ravel(), h.ravel()
    n = t.size
    hs = _sample(h_of_t, np.concatenate([t + (0.5 - _NODE) * h, t + 0.5 * h,
                                         t + (0.5 + _NODE) * h]))
    h1, h2, h3 = hs[:n], hs[n:2 * n], hs[2 * n:]
    h = h[:, None, None]
    b1 = h * h2
    b2 = (np.sqrt(15.0) / 3.0) * h * (h3 - h1)
    b3 = (10.0 / 3.0) * h * (h3 - 2.0 * h2 + h1)
    g1 = _commutator(b1, b2)
    g2 = _commutator(b1, 2.0 * b3 + g1)
    g3 = _commutator(-20.0 * b1 - b3 + g1, b2 - g2 / 60.0)
    u = expm(-1j * (b1 + b3 / 12.0 + g3 / 240.0))
    return u.reshape(shape + u.shape[-2:])


def magnus_samples(h_of_t, t0: float, t1: float, n: int) -> np.ndarray:
    """U(t0 + k*h, t0) for k = 0..n, h = (t1 - t0)/n: the n steps in one array
    call, then their prefix products by a log-depth scan (``prefix_products``):
    2 ceil(log2 n) batched products in place of n single ones."""
    if n < 1 or not t1 > t0:
        raise ValidationError(f"Magnus steps need t1 > t0 and n >= 1; got [{t0}, {t1}], n={n}")
    h = (t1 - t0) / n
    out = magnus_steps(h_of_t, t0 + np.arange(n) * h, h)
    out = np.concatenate([np.eye(out.shape[-1])[None], out])     # the steps freed here
    prefix_products(out[1:])
    return out
