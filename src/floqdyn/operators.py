"""Dense complex-matrix semantics for operators on a few-level Hilbert space.

Operators are plain ``numpy`` complex arrays; this module supplies the
validated algebra the rest of the package relies on: matrix exponentials
(general ones for stacks of matrices, and Hermitian ones by eigensystem),
the principal logarithm of a unitary, eigensystems, the real coordinates
of Hermitian matrices and of the superoperators that preserve them,
minimum eigenvalues from those coordinates, the trace fidelity between
unitaries, the powers of a matrix applied to a vector by doubling, and the
prefix products of a stack by a log-depth scan.  Everything works in
natural units (hbar = c = k_B = epsilon_0 = 1) and targets dimensions of
order d <= 8, where exact eigendecomposition-based matrix functions are
both simplest and most accurate.
"""

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import ValidationError

#: Largest entry of |m - m†| that ``require_hermitian`` accepts.
HERMITIAN_TOL = 1e-10
#: Largest entry of |u† u - 1| that the unitary checks accept.
UNITARY_TOL = 1e-6


def _as_operators(m) -> np.ndarray:
    """Coerce to square complex matrices with finite entries, shape (..., d, d)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"operator must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("operator has non-finite entries")
    return a


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"operator must be square, got shape {a.shape}")
    return _as_operators(a)


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def unitarity_defect(m: np.ndarray) -> float:
    """Largest entry of |m† m - 1|, over every matrix of a stack (..., d, d)."""
    d = m.shape[-1]
    return float(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(d))))


def require_hermitian(m) -> np.ndarray:
    a = as_operator(m)
    tol = HERMITIAN_TOL
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValidationError(f"matrix not Hermitian: defect {defect:.3e} > {tol:.1e}")
    return a


def _checked_unitary(a: np.ndarray) -> np.ndarray:
    tol = UNITARY_TOL
    defect = unitarity_defect(a)
    if defect > tol:
        raise ValidationError(f"matrix not unitary: defect {defect:.3e} > {tol:.1e}")
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    ``energies`` are ascending; column ``k`` of ``vectors`` is the
    eigenvector of ``energies[k]``.
    """

    energies: np.ndarray
    vectors: np.ndarray

    def unitary(self, t) -> np.ndarray:
        """exp(-i*H*t) = V exp(-i*E*t) V†: one matrix at a time t, the stack at an
        array of times, shape t.shape + (d, d); a stack of spectra (eigh of
        (..., d, d)) gives the stack at one time."""
        phases = np.exp(-1j * self.energies * np.asarray(t, dtype=float)[..., None])
        return (self.vectors * phases[..., None, :]) @ self.vectors.conj().swapaxes(-1, -2)


def hermitian_eigensystem(h) -> Spectrum:
    """Ascending eigensystem of a Hermitian matrix.

    Raises :class:`ValidationError` when the input is not Hermitian within
    tolerance; ``numpy.linalg.eigh`` (LAPACK) returns a reconstruction
    ``V diag(w) V†`` that matches the input to rounding at these dimensions.
    """
    a = require_hermitian(h)
    w, v = np.linalg.eigh(a)
    return Spectrum(energies=w, vectors=v)


@cache
def _coordinate_index(d: int) -> tuple:
    """Row-major vec positions of the diagonal (i, i), of the upper entries (i, j),
    i < j, row by row, and of their mirrors (j, i)."""
    iu, ju = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), iu * d + ju, ju * d + iu


def to_coordinates(rho) -> np.ndarray:
    """The d^2 real coordinates of each Hermitian matrix of a stack (..., d, d):
    the diagonal, then Re and Im of each upper entry (i, j), i < j, row by row,
    interleaved (the coherence vector of Alicki & Lendi, Quantum Dynamical
    Semigroups and Applications, LNP 286 (1987), in the matrix-unit basis)."""
    rho = np.asarray(rho)
    d = rho.shape[-1]
    diag, upper, _ = _coordinate_index(d)
    flat = rho.reshape(*rho.shape[:-2], d * d)
    x = np.empty(rho.shape[:-2] + (d * d,))
    x[..., :d] = flat[..., diag].real
    x[..., d::2] = flat[..., upper].real
    x[..., d + 1::2] = flat[..., upper].imag
    return x


@cache
def _matrix_parts(d: int) -> np.ndarray:
    """Where each of the 2 d^2 real and imaginary parts of a row-major d x d matrix
    sits among its d^2 coordinates, then 0.0 - im of each coherence, then a zero."""
    diag, upper, lower = _coordinate_index(d)
    pairs = np.arange(len(upper))
    parts = np.empty((d * d, 2), dtype=np.intp)
    parts[diag] = np.column_stack([np.arange(d), np.full(d, d * d + len(upper))])
    parts[upper] = np.column_stack([d + 2 * pairs, d + 1 + 2 * pairs])
    parts[lower] = np.column_stack([d + 2 * pairs, d * d + pairs])
    return parts.ravel()


def from_coordinates(x) -> np.ndarray:
    """The Hermitian matrices (..., d, d) of coordinates (..., d^2), the inverse of
    :func:`to_coordinates`.  Entry (j, i) is re + i (0.0 - im), so that an upper
    imaginary part +0.0 has the mirror +0.0, not -0.0.  Every part is gathered
    by one ``take``, from the coordinates extended by those 0.0 - im and a zero."""
    x = np.asarray(x, dtype=float)
    d = math.isqrt(x.shape[-1])
    sources = np.empty(x.shape[:-1] + (d * d + d * (d - 1) // 2 + 1,))
    sources[..., :d * d] = x
    np.subtract(0.0, x[..., d + 1::2], out=sources[..., d * d:-1])
    sources[..., -1] = 0.0
    parts = np.take(sources, _matrix_parts(d), axis=-1)
    return parts.view(complex).reshape(x.shape[:-1] + (d, d))


def _times_m(diag, upper, lower) -> np.ndarray:
    """K M from the columns of K at the vec positions of the diagonal, of the upper
    entries and of their mirrors (``_coordinate_index``): M puts coordinates into
    the vec (a coherence (re, im) at (i, j) as re + i im, at (j, i) as re - i im),
    so each column of K M is one column of K or the sum or difference of two; the
    (im) column i (K_ij - K_ji) is written as -Im + i Re."""
    d = diag.shape[-1]
    km = np.empty(diag.shape[:-1] + (d * d,), dtype=complex)
    km[..., :d] = diag
    km[..., d::2] = upper + lower
    minus = upper - lower
    km.real[..., d + 1::2] = -minus.imag
    km.imag[..., d + 1::2] = minus.real
    return km


def real_superop(k) -> np.ndarray:
    """N K M for each superoperator of a stack (..., d^2, d^2) on row-major vecs that
    maps Hermitian matrices to Hermitian ones: the real matrix of K on coordinates,
    to_coordinates(K rho) = (N K M) to_coordinates(rho).  M puts coordinates into
    the vec and N takes them out (re = (z_ij + z_ji)/2, im = (z_ij - z_ji)/2i).
    K M is formed column by column (``_times_m``), then N (K M) row by row, each
    entry one entry or a sum or difference of two (halved, for N), so the zeros
    of K between decoupled entries stay exact.  The imaginary part, the rounding
    by which K fails to preserve Hermiticity, is dropped."""
    k = np.asarray(k)
    d = math.isqrt(k.shape[-1])
    diag, upper, lower = _coordinate_index(d)
    km = _times_m(k[..., diag], k[..., upper], k[..., lower])
    r = np.empty(k.shape)
    r[..., :d, :] = km[..., diag, :].real
    r[..., d::2, :] = 0.5 * (km[..., upper, :].real + km[..., lower, :].real)
    r[..., d + 1::2, :] = 0.5 * (km[..., upper, :].imag - km[..., lower, :].imag)
    return r


def conjugation_superop(p) -> np.ndarray:
    """The real map on coordinates of rho -> P rho P† for each P of a stack (n, d, d):
    ``real_superop`` of P ⊗ P*, of which only the rows (a, b), a <= b, are formed,
    and of those only the columns ``_times_m`` reads.  Entry (a, b), (i, j) of
    P ⊗ P* is P_ai P*_bj and that of the mirrored row and column its conjugate,
    so N takes the upper row's real and imaginary parts, where ``real_superop``
    takes the mean of two roundings of them.  A zero of P ⊗ P* stays exact."""
    p = np.asarray(p)
    n, d = p.shape[:2]
    iu, ju = np.triu_indices(d, 1)
    above, below = np.concatenate([np.arange(d), iu]), np.concatenate([np.arange(d), ju])
    pa, pb = p[:, above], p[:, below].conj()    # P_a. and P*_b. of each row (a, b)
    km = _times_m(pa * pb, pa[..., iu] * pb[..., ju], pa[..., ju] * pb[..., iu])
    r = np.empty((n, d * d, d * d))
    r[:, :d] = km[:, :d].real
    r[:, d::2] = km[:, d:].real
    r[:, d + 1::2] = km[:, d:].imag
    return r


#: Rows that ``any_over_rows`` lays side by side in one row of its reduction.
FOLD_ROWS = 8


def any_over_rows(x) -> np.ndarray:
    """``np.any(x, axis=0)`` of an (n, ...) array: whether each element is nonzero
    in any row.  A reduction down many short rows pays a loop call per row, so
    the first n - n % FOLD_ROWS rows are read as rows FOLD_ROWS times as wide,
    and the FOLD_ROWS parts of that one reduction are reduced with the rows left
    over.  An element counts as nonzero as ``np.any`` counts it."""
    x = np.asarray(x)
    n, width = len(x), math.prod(x.shape[1:])
    flat = x.reshape(n, width)
    m = n - n % FOLD_ROWS
    folded = np.any(flat[:m].reshape(m // FOLD_ROWS, FOLD_ROWS * width), axis=0)
    parts = np.concatenate([folded.reshape(FOLD_ROWS, width), np.any(flat[m:], axis=0)[None]])
    return np.any(parts, axis=0).reshape(x.shape[1:])


def min_eigenvalues(x) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix of an (n, d^2) stack of its
    coordinates (:func:`to_coordinates`; a stack of matrices converts first).

    Levels coupled by a nonzero coherence in any record of the stack form one
    block, and the spectrum of each matrix is the union of its blocks'
    spectra.  A 1-level block is its diagonal entry, a 2-level block
    [[a, re + i im], [re - i im, b]] has smallest eigenvalue
    (a + b)/2 - hypot((a - b)/2, hypot(re, im)), and a larger block goes to
    ``eigvalsh`` on its sub-stack.  Any nonzero coupling, rounding noise
    included, merges blocks, so no coupling is ever dropped: the structure
    sets only the speed, never the result.  One scan of the stack
    (:func:`any_over_rows`) finds the coherences that are nonzero anywhere,
    -0.0 counting as zero; the blocks are merged level by level, each named
    by its least level.
    """
    x = np.asarray(x, dtype=float)
    d = math.isqrt(x.shape[-1])
    nonzero = any_over_rows(x != 0)
    pairs = list(combinations(range(d), 2))     # the coherences' order in x
    block_of = list(range(d))
    for (i, j), coupled in zip(pairs, (nonzero[d::2] | nonzero[d + 1::2]).tolist()):
        if coupled:
            low, high = sorted((block_of[i], block_of[j]))
            block_of = [low if b == high else b for b in block_of]
    blocks = {}
    for level, b in enumerate(block_of):
        blocks.setdefault(b, []).append(level)
    column = {pair: d + 2 * k for k, pair in enumerate(pairs)}

    def lowest(block):
        if len(block) == 1:
            return x[:, block[0]]
        cols = [column[pair] for pair in combinations(block, 2)]
        if len(block) == 2:
            a, b, c = x[:, block[0]], x[:, block[1]], cols[0]
            return 0.5 * (a + b) - np.hypot(0.5 * (a - b), np.hypot(x[:, c], x[:, c + 1]))
        cols = block + [c + part for c in cols for part in (0, 1)]
        return np.linalg.eigvalsh(from_coordinates(x[:, cols]))[:, 0]

    lows = map(lowest, blocks.values())
    out = np.minimum(next(lows), next(lows, np.inf))
    for low in lows:
        np.minimum(out, low, out=out)
    return out


def spectral_norms_2x2(b: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (n, 2, 2) stack: its square is
    (p + q)/2 + hypot((p - q)/2, |r|), p and q the squared column norms and r their
    inner product, which, unlike (F + sqrt(F^2 - 4|det|^2))/2, cancels nothing near
    a scalar block.  Each matrix is scaled by its largest entry, so no square overflows."""
    s = np.max(np.abs(b), axis=(-2, -1))
    b = b / np.where(s > 0, s, 1.0)[:, None, None]
    p, q = np.sum(np.abs(b) ** 2, axis=-2).T
    r = np.abs(np.sum(b[:, :, 0].conj() * b[:, :, 1], axis=-1))
    return s * np.sqrt(0.5 * (p + q) + np.hypot(0.5 * (p - q), r))


def unitary_from_hermitian(h, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian ``h``, via eigendecomposition."""
    return hermitian_eigensystem(h).unitary(t)


#: Pade degrees of the scaling-and-squaring exponential, with the largest
#: 1-norm each one serves to double-precision backward error (Higham,
#: SIAM J. Matrix Anal. Appl. 26, 1179 (2005), table 2.3).
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def expm(a) -> np.ndarray:
    """exp(a) for a square matrix or an (..., n, n) stack of them.

    Scaling and squaring with a diagonal Pade approximant (Higham 2005): the
    lowest degree whose theta bounds the largest 1-norm of the stack, else
    degree 13 with each matrix scaled by 2^-s to within theta_13 and squared
    s times.  The Pade quotient is one batched ``np.linalg.solve``.  Sums,
    products and LU with partial pivoting never fill an entry that no power
    of ``a`` reaches, so the zeros between decoupled levels stay exact.
    """
    a = np.asarray(a)
    eye = np.eye(a.shape[-1])
    norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    degree = next((m for m in (3, 5, 7, 9) if norms.max(initial=0.0) <= _PADE_THETA[m]), 13)
    # s = 0 for every norm below theta_13, so only degree 13 scales
    squarings = np.maximum(np.frexp(norms / _PADE_THETA[13])[1], 0)
    a = a * np.ldexp(1.0, -squarings)[..., None, None]
    b = _PADE_COEFFS[degree]
    a2 = a @ a
    if degree == 13:
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        power, odd, v = a2, b[3] * a2 + b[1] * eye, b[2] * a2 + b[0] * eye
        for k in range(4, degree + 1, 2):
            power = power @ a2
            odd = odd + b[k + 1] * power
            v = v + b[k] * power
        u = a @ odd
    r = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max(initial=0)):
        sel = squarings > k
        if np.all(sel):
            r = r @ r
        else:
            r[sel] = r[sel] @ r[sel]
    return r


def fill_powers(rows: np.ndarray, step: np.ndarray) -> None:
    """rows[..., k, :] = step^k rows[..., 0, :] for each k of the n rows, in place:
    rows [m, 2m) are rows [0, m) advanced by step^m, one block product per
    doubling, with step^m by repeated squaring: about log2(n) of each kind."""
    power, m, n = step, 1, rows.shape[-2]
    while m < n:
        count = min(m, n - m)
        np.matmul(rows[..., :count, :], power.swapaxes(-1, -2), out=rows[..., m:m + count, :])
        m += count
        if m < n:
            power = power @ power


def prefix_products(u: np.ndarray) -> None:
    """u[k] = u[k] @ ... @ u[1] @ u[0] for each matrix of a stack, in place, by a
    work-efficient log-depth scan (Ladner & Fischer, J. ACM 27, 831 (1980)): the
    pairs u[2j+1] @ u[2j] are scanned by recursion, then each even entry is advanced
    by the pair prefix before it, 2 ceil(log2 n) batched products of 2n matrices."""
    if len(u) > 1:
        pairs = u[1::2] @ u[:-1:2]
        prefix_products(pairs)
        u[1::2] = pairs
        u[2::2] = u[2::2] @ pairs[:(len(u) - 1) // 2]


def principal_unitary_log(u) -> np.ndarray:
    """Hermitian K with ``u = exp(-i K)`` and eigenphases of ``u`` in (-pi, pi].

    The eigenphases are the angles of ``u``'s eigenvalues.  The eigenvectors
    come from the Cayley transform C = i (1 - w)(1 + w)^-1 of w = -e^(-i m) u,
    with m the middle of the widest gap between the eigenphases: w has no
    eigenvalue within pi/d of -1, so C is a well-conditioned Hermitian
    matrix, with eigenvalue tan(psi/2) for each eigenphase psi of w, and its
    ``eigh`` gives an orthonormal eigenbasis even for repeated eigenphases.
    Branch unfolding beyond the principal strip is deliberately out of scope
    here; the Floquet engine owns that.
    """
    a = _checked_unitary(as_operator(u))
    phases = np.sort(np.angle(np.linalg.eigvals(a)))
    gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
    j = int(np.argmax(gaps))
    w = -np.exp(-1j * (phases[j] + 0.5 * gaps[j])) * a
    eye = np.eye(len(a))
    c = 1j * np.linalg.solve(eye + w, eye - w)
    _, v = np.linalg.eigh(0.5 * (c + c.conj().T))
    # ascending tan(psi/2) runs round the circle from the eigenphase just past
    # the gap; u = exp(i*phi)  =>  K eigenvalue is -phi
    k = (v * -np.roll(phases, -(j + 1))) @ v.conj().T
    return 0.5 * (k + k.conj().T)


def unitary_fidelity(u, v):
    """(1/d) |Tr[u v†]| for two unitaries of equal dimension.

    Two stacks of shape (..., d, d) give the array of pairwise fidelities;
    every matrix in them is checked unitary like a single one.
    """
    a = _checked_unitary(_as_operators(u))
    b = _checked_unitary(_as_operators(v))
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    f = np.abs(np.einsum("...ab,...ab->...", a, b.conj())) / a.shape[-1]
    return float(f) if f.ndim == 0 else f


def trace_distance(a, b) -> float | np.ndarray:
    """(1/2) * trace norm of (a - b) for Hermitian matrices: a float for two
    matrices, an array of one distance per matrix for (n, d, d) stacks."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    herm = 0.5 * (diff + diff.conj().swapaxes(-1, -2))
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist
