"""Fixed-step RK4 for the Schrodinger equation U' = -iH(t)U, as products of step maps.

Every Floquet decomposition and the fidelity reference integrate a
periodic linear ODE x' = A(t) x.  One RK4 step of a linear ODE is a linear
map of the state,

    x(t + h) = M(t) x(t),   M(t) = I + h/6 (K1 + 2 K2 + 2 K3 + K4),

with K1 = A(t), K2 = A_m (I + h/2 K1), K3 = A_m (I + h/2 K2),
K4 = A(t + h)(I + h K3) and A_m = A(t + h/2).  When A repeats every
``period_samples`` sample intervals, the map of a sample interval depends
only on its phase (its index mod ``period_samples``), so the maps of one
period are built once, with A sampled for all of them in one array call,
and advancing from one sample to the next costs one matrix product.

The master equation is not integrated here: every generator is time
independent in its picture, so :func:`floqdyn.scenarios.evolve` takes its
exact exponential.
"""

import numpy as np

from .errors import ValidationError


def _sample(a_of_t, times: np.ndarray) -> np.ndarray:
    """A at each of ``times`` as an (n, D, D) stack; a constant A may return one matrix."""
    a = np.asarray(a_of_t(times))
    if a.ndim == 2:
        a = np.broadcast_to(a, (len(times),) + a.shape)
    if a.ndim != 3 or a.shape[0] != len(times):
        raise ValidationError(
            f"generator returned shape {a.shape} for {len(times)} times; expected "
            "an (n, D, D) stack or one (D, D) matrix"
        )
    return a


def rk4_step_maps(a_of_t, times, h: float) -> np.ndarray:
    """RK4 maps of x' = A(t) x over [t, t + h], one for each t in ``times``.

    ``a_of_t`` is called once, with the 1-D array of every t, t + h/2 and
    t + h.
    """
    times = np.asarray(times, dtype=float)
    n = len(times)
    a = _sample(a_of_t, np.concatenate([times, times + 0.5 * h, times + h]))
    a1, am, a2 = a[:n], a[n:2 * n], a[2 * n:]
    k2 = am + (0.5 * h) * (am @ a1)
    k3 = am + (0.5 * h) * (am @ k2)
    k4 = a2 + h * (a2 @ k3)
    maps = (h / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)
    diag = np.arange(maps.shape[-1])
    maps[:, diag, diag] += 1.0
    return maps


def rk4_samples(a_of_t, x0: np.ndarray, h: float, substeps: int, n_samples: int,
                period_samples: int, t0: float = 0.0) -> np.ndarray:
    """x at t0 + k*substeps*h for k = 0..n_samples, from x(t0) = x0 by RK4 steps of ``h``.

    Each sample interval takes ``substeps`` steps.  A must repeat every
    ``period_samples`` sample intervals over the integrated span (1 for a
    constant A).  ``x0`` is a vector or a matrix of column vectors.
    """
    if min(substeps, period_samples) < 1 or n_samples < 0 or h <= 0:
        raise ValidationError("rk4_samples needs h > 0, n_samples >= 0 and "
                              "positive substeps and period_samples")
    # the map of every sample interval of one period, one substep at a time
    start = np.arange(period_samples) * substeps
    maps = None
    for i in range(substeps):
        m = rk4_step_maps(a_of_t, t0 + (start + i) * h, h)
        maps = m if maps is None else m @ maps

    out = np.empty((n_samples + 1,) + np.shape(x0), dtype=complex)
    x = np.asarray(x0, dtype=complex)
    out[0] = x
    for k in range(n_samples):
        x = maps[k % period_samples] @ x
        out[k + 1] = x
    return out
