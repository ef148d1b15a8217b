"""Fixed-step RK4 for the linear ODEs x' = A(t) x, as products of step maps.

Both linear ODEs floqdyn integrates have a generator that is static or
periodic in time: the Schrodinger equation U' = -iH(t)U behind every
Floquet decomposition, and the master equation v' = L(t)v of a trajectory.
One RK4 step of a linear ODE is a linear map of the state,

    x(t + h) = M(t) x(t),   M(t) = I + h/6 (K1 + 2 K2 + 2 K3 + K4),

with K1 = A(t), K2 = A_m (I + h/2 K1), K3 = A_m (I + h/2 K2),
K4 = A(t + h)(I + h K3) and A_m = A(t + h/2).  When A repeats every N
steps, M depends only on the step's phase (its index mod N), so the maps
are built once per phase, with A sampled for all phases in one array
call, and composed into record maps: advancing from one record to the next
costs one matrix product.  A static generator is the case N = 1.

The record map of ``stride`` steps is composed in two levels.  With
g = gcd(stride, N), level one accumulates the g-step block map of each
block phase, one substep index at a time, batched over the N/g blocks.
Level two composes stride/g consecutive blocks at every block phase by
binary doubling, S_{m+n}[j] = S_m[(j+n) mod N/g] @ S_n[j].
"""

from math import gcd

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


def propagate(a_of_t, x0: np.ndarray, h: float, period_steps: int, stride: int,
              n_steps: int, partial: float = 0.0, t0: float = 0.0) -> np.ndarray:
    """Integrate x' = A(t) x from x(t0) = x0 with RK4 and record every ``stride`` steps.

    Takes ``n_steps`` steps of length ``h``, then, if ``partial`` > 0, one
    step of length ``partial``.  A must repeat every ``period_steps`` steps,
    A(t + period_steps*h) = A(t), over the integrated span (pass
    ``period_steps = n_steps`` for a generator with no period, 1 for a
    static one).  ``x0`` is a vector or a matrix of column vectors.

    Returns x at steps 0, stride, 2*stride, ... <= n_steps, followed by the
    end state when the run does not end on a stride boundary.
    """
    if min(period_steps, stride) < 1 or n_steps < 0 or h <= 0 or partial < 0:
        raise ValidationError("propagate needs h > 0, partial >= 0, n_steps >= 0 and "
                              "positive period_steps and stride")
    g = gcd(stride, period_steps)
    n_block = period_steps // g
    blocks_per_stride = stride // g
    n_full, rest = divmod(n_steps, stride)
    tail_blocks, tail_steps = divmod(rest, g)

    # level one: the g-step map of every block phase
    block_start = np.arange(n_block) * g
    block = None
    for i in range(g):
        m = rk4_step_maps(a_of_t, t0 + (block_start + i) * h, h)
        block = m if block is None else m @ block

    # level two: 2^i consecutive blocks from every block phase, doubled in
    # place; the set bits of blocks_per_stride and tail_blocks pick the factors
    idx = np.arange(n_block)
    tail_phase = (n_full * blocks_per_stride) % n_block
    power = block
    span = tail = None
    span_len = tail_len = 0
    bit = 0
    while (1 << bit) <= blocks_per_stride:
        if blocks_per_stride >> bit & 1:
            span = power if span is None else power[(idx + span_len) % n_block] @ span
            span_len += 1 << bit
        if tail_blocks >> bit & 1:
            factor = power[(tail_phase + tail_len) % n_block]
            tail = factor if tail is None else factor @ tail
            tail_len += 1 << bit
        if (2 << bit) <= blocks_per_stride:
            power = power[(idx + (1 << bit)) % n_block] @ power
        bit += 1

    ends_off_stride = rest > 0 or partial > 0
    out = np.empty((n_full + 1 + ends_off_stride,) + np.shape(x0), dtype=complex)
    x = np.asarray(x0, dtype=complex)
    out[0] = x
    for k in range(n_full):
        x = span[(k * blocks_per_stride) % n_block] @ x
        out[k + 1] = x
    if not ends_off_stride:
        return out
    if tail is not None:
        x = tail @ x
    if tail_steps:
        first = n_steps - tail_steps
        for m in rk4_step_maps(a_of_t, t0 + (first + np.arange(tail_steps)) * h, h):
            x = m @ x
    if partial > 0:
        x = rk4_step_maps(a_of_t, [t0 + n_steps * h], partial)[0] @ x
    out[-1] = x
    return out
