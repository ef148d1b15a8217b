"""The fourth-order Magnus step for the Schrodinger equation U' = -iH(t)U.

One step over [t, t + h] is

    U(t + h, t) = exp(-iK),   K = h/2 (H1 + H2) - i (sqrt(3)/12) h^2 [H2, H1],

with H1 and H2 the Hamiltonian at the Gauss nodes t + (1/2 -+ sqrt(3)/6) h
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), sec. 5; Iserles &
Norsett, Phil. Trans. R. Soc. A 357, 983 (1999)).  K is Hermitian, so the
step is unitary by construction.  Its exponential is
:func:`floqdyn.operators.expm`, one batched call for every step: the
diagonal Pade approximants and squarings it uses keep -iK's unitary
exponential unitary in exact arithmetic, and, unlike ``eigh``, they keep
the entries between decoupled levels exactly zero, so the zeros of the
recorded states stay zeros.  The step takes any length, so the same step
fills a sample grid and reaches a time between two grid nodes.

The master equation is not integrated here: every generator is time
independent in the micromotion frame P† rho P, so
:func:`floqdyn.scenarios.evolve` takes its exact exponential.
"""

import numpy as np

from .errors import ValidationError
from .operators import expm

#: offset of the two Gauss nodes from the middle of a step, in step lengths
_NODE = np.sqrt(3.0) / 6.0


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


def magnus_steps(h_of_t, t, h) -> np.ndarray:
    """U(t + h, t) by one fourth-order Magnus step, for every step of ``t`` and ``h``.

    ``t`` and ``h`` broadcast together to a shape s, and the result has
    shape s + (D, D).  ``h_of_t`` is called once, with the 1-D array of
    both Gauss nodes of every step.
    """
    t, h = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(h, dtype=float))
    shape = t.shape
    t, h = t.ravel(), h.ravel()
    n = t.size
    hs = _sample(h_of_t, np.concatenate([t + (0.5 - _NODE) * h, t + (0.5 + _NODE) * h]))
    h1, h2 = hs[:n], hs[n:]
    h = h[:, None, None]
    k = 0.5 * h * (h1 + h2) - (1j * np.sqrt(3.0) / 12.0) * h**2 * (h2 @ h1 - h1 @ h2)
    u = expm(-1j * k)
    return u.reshape(shape + u.shape[-2:])


def magnus_samples(h_of_t, t0: float, t1: float, n: int) -> np.ndarray:
    """U(t0 + k*h, t0) for k = 0..n, h = (t1 - t0)/n: the n steps in one array
    call, then one product per sample."""
    if n < 1 or not t1 > t0:
        raise ValidationError(f"Magnus steps need t1 > t0 and n >= 1; got [{t0}, {t1}], n={n}")
    h = (t1 - t0) / n
    steps = magnus_steps(h_of_t, t0 + np.arange(n) * h, h)
    out = np.empty((n + 1,) + steps.shape[1:], dtype=complex)
    out[0] = np.eye(steps.shape[-1])
    for k in range(n):
        out[k + 1] = steps[k] @ out[k]
    return out
