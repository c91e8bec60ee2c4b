"""Diagonal tensors in the k-fold symmetric tensor power of l_p.

A diagonal tensor u = sum_i a_i e_i (x) ... (x) e_i admits an exact finite
decomposition into rank-one tensors obtained by averaging over the k-ary
Rademacher system: the integrand is piecewise constant on k^n intervals, so
the integral representation becomes the mean of k^n rank-one tensors.  The
decomposition is one complex array of shape (k^n, k, n): piece, slot,
coordinate.  Off-diagonal contributions cancel exactly because products of
distinct-level step functions integrate to zero.

The projective norm of u has a closed form: the l_{p/k} norm of the
coefficients when k < p, and their l_1 norm when p <= k.  The upper bound
here recomputes it from the explicit slot vectors of a rank-one
decomposition and the lower bound from the pairing with a dual diagonal
multilinear form, so the three routes certify one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (MAX_PIECES, BudgetError, LpParams, Scalar, ensure_finite, lq_norm,
                       phase, phase_root)

__all__ = [
    "DiagonalTensor",
    "DualDiagonalForm",
    "averaging_decomposition",
    "dense_expansion",
    "pi_norm_closed_form",
    "pi_upper_bound",
    "build_dual_form",
    "pi_lower_bound",
    "pair",
]

MAX_DENSE_ENTRIES = 10 ** 5
# Pieces per chunk.  It bounds the peak memory of pi_upper_bound, and the
# in-order summation inside each dense_expansion einsum: about 4096 unit
# roundoffs (4.5e-13), under the 1e-12 reconstruction tolerance.
_CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class DiagonalTensor:
    """u = sum_i coeffs[i] e_i (x) ... (x) e_i with k tensor factors."""

    coeffs: np.ndarray
    params: LpParams

    def __post_init__(self) -> None:
        if self.params.k < 2:
            raise ValueError("diagonal tensors require degree k >= 2")
        arr = np.array(self.coeffs, dtype=complex).reshape(-1)
        ensure_finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True, eq=False)
class DualDiagonalForm:
    """B(x_1, ..., x_k) = sum_i b[i] * x_1[i] * ... * x_k[i]."""

    b: np.ndarray
    params: LpParams

    def __post_init__(self) -> None:
        arr = np.array(self.b, dtype=complex).reshape(-1)
        ensure_finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "b", arr)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def apply(self, vectors) -> Scalar:
        xs = [np.asarray(x, dtype=complex) for x in vectors]
        if len(xs) != self.params.k:
            raise ValueError(f"expected {self.params.k} argument vectors, got {len(xs)}")
        for x in xs:
            if x.shape != (self.dim,):
                raise ValueError("argument dimension mismatch")
            ensure_finite(x)
        return complex(np.sum(self.b * np.prod(np.stack(xs), axis=0)))

    def norm_bound(self) -> float:
        """Generalized-Hoelder bound on sup |B| over unit l_p vectors.

        For k < p the bound is the l_{p/(p-k)} norm of b (each coordinate
        product of k unit-l_p vectors lies in the unit ball of l_{p/k}); for
        p <= k it is 1, via |B(x_1,...,x_k)| <= ||x_1||_k ... ||x_k||_k.
        """
        if self.params.k_less_than_p:
            return lq_norm(self.b, self.params.dual_exponent)
        return 1.0


# ---------------------------------------------------------------------------
# Averaging decomposition
# ---------------------------------------------------------------------------

def _slot_coefficients(u: DiagonalTensor, symmetric: bool) -> np.ndarray:
    """(k, n) matrix c with prod_j c[j, i] = a_i; slot j uses c[j] * r_i phases.

    Symmetric variant spreads the phase of a_i as a principal k-th root over
    every slot; the asymmetric variant concentrates it in slot 0 and leaves
    the plain modulus root in the others.
    """
    a = u.coeffs
    k = u.params.k
    radial = np.abs(a) ** (1.0 / k)
    if symmetric:
        row = np.array([phase_root(z, k) for z in a], dtype=complex) * radial
        return np.tile(row, (k, 1))
    first = np.array([phase(z) for z in a], dtype=complex) * radial
    rest = np.tile(radial.astype(complex), (k - 1, 1))
    return np.vstack([first[None, :], rest])


def _piece_slots(u: DiagonalTensor, symmetric: bool, start: int, stop: int) -> np.ndarray:
    """Slot vectors of the pieces start, ..., stop-1: shape (stop-start, k, n).

    Entry [m, j, i] is c[j, i] * omega^d, where d is the level-(i+1) base-k
    digit of the piece index start+m and omega = exp(2 pi i / k).
    """
    n = u.dim
    k = u.params.k
    m = np.arange(start, stop, dtype=np.int64)[:, None]
    divisors = np.array([k ** (n - i) for i in range(1, n + 1)], dtype=np.int64)
    phases = np.exp(2j * np.pi / k) ** ((m // divisors) % k)
    return _slot_coefficients(u, symmetric)[None, :, :] * phases[:, None, :]


def averaging_decomposition(u: DiagonalTensor, symmetric: bool = True,
                            max_pieces: int = MAX_PIECES) -> np.ndarray:
    """Exact rank-one decomposition of u by k-ary Rademacher averaging.

    Evaluates the averaged integrand on each of the k^n constancy pieces and
    returns the slot vectors as one (k^n, k, n) array (piece, slot,
    coordinate).  Every piece carries the same weight 1/k^n, so u is the mean
    over the pieces of slots[m, 0] (x) ... (x) slots[m, k-1]: the diagonal
    coefficients equal a_i and every off-diagonal coefficient vanishes by the
    product-integral orthogonality.
    """
    pieces = u.params.k ** u.dim
    if pieces > max_pieces:
        raise BudgetError(f"k^n = {pieces} pieces exceed the cap of {max_pieces}")
    return _piece_slots(u, symmetric, 0, pieces)


def dense_expansion(slots: np.ndarray, max_entries: int = MAX_DENSE_ENTRIES) -> np.ndarray:
    """Coefficient tensor (shape (n,)*k) of the mean of the pieces' outer products.

    slots has shape (pieces, k, n), as averaging_decomposition returns it.
    Each chunk of pieces is contracted by one einsum, which sums its _CHUNK
    pieces in order; the chunk partials are then summed pairwise, so the
    rounding error stays near _CHUNK unit roundoffs whatever the piece count.
    """
    pieces, k, n = slots.shape
    if n ** k > max_entries:
        raise BudgetError(f"dense expansion needs {n ** k} entries, cap is {max_entries}")
    if n == 1:
        # one coordinate: the outer product is a plain product, for any k
        slots = np.prod(slots, axis=1, keepdims=True)
    # einsum sublist form: piece axis 0 is summed, slot j becomes output axis j+1
    axes = list(range(1, slots.shape[1] + 1))
    partials = []
    for start in range(0, pieces, _CHUNK):
        block = slots[start:start + _CHUNK]
        partials.append(np.einsum(*[x for j in axes for x in (block[:, j - 1], [0, j])], axes))
    return (np.sum(np.stack(partials, axis=-1), axis=-1) / pieces).reshape((n,) * k)


# ---------------------------------------------------------------------------
# Projective norm: closed form, upper bound, dual form, lower bound
# ---------------------------------------------------------------------------

def pi_norm_closed_form(u: DiagonalTensor) -> float:
    """l_{p/k} norm of the coefficients when k < p, l_1 norm when p <= k."""
    if u.params.k_less_than_p:
        return lq_norm(u.coeffs, u.params.p / u.params.k)
    return math.fsum(np.abs(u.coeffs))


def pi_upper_bound(u: DiagonalTensor, symmetric: bool = True,
                   max_pieces: int = MAX_PIECES) -> float:
    """Triangle-inequality bound computed from an explicit decomposition.

    k < p: the supremum over averaging pieces of the product of slot l_p
    norms (every piece gives the same product because the step values are
    unimodular, but the bound is recomputed from the actual slot vectors so
    it stays an independent check of the closed form).

    p <= k: the trivial decomposition into the n diagonal rank-one terms,
    bounding pi(u) by sum_i |a_i| * ||e_i||_p^k.
    """
    n = u.dim
    k = u.params.k
    p = u.params.p
    if n == 0:
        return 0.0
    if not u.params.k_less_than_p:
        term_norms = []
        for i in range(n):
            basis = np.zeros(n)
            basis[i] = 1.0
            term_norms.append(abs(u.coeffs[i]) * lq_norm(basis, p) ** k)
        return math.fsum(term_norms)

    pieces = k ** n
    if pieces > max_pieces:
        raise BudgetError(f"k^n = {pieces} pieces exceed the cap of {max_pieces}")
    best = 0.0
    for start in range(0, pieces, _CHUNK):
        slots = _piece_slots(u, symmetric, start, min(start + _CHUNK, pieces))
        norms = np.sum(np.abs(slots) ** p, axis=2) ** (1.0 / p)
        best = max(best, float(np.max(np.prod(norms, axis=1))))
    return best


def build_dual_form(u: DiagonalTensor) -> DualDiagonalForm:
    """Dual diagonal form whose pairing with u is sum |a_i|^{p/k} (k < p) or
    sum |a_i| (p <= k).

    The phase of each coefficient is conjugated so the pairing comes out
    real and nonnegative; for k < p the modulus is raised to p/k - 1.
    """
    a = u.coeffs
    conj_phases = np.array([phase(z) for z in a], dtype=complex).conj()
    if u.params.k_less_than_p:
        b = conj_phases * np.abs(a) ** (u.params.p / u.params.k - 1.0)
    else:
        b = conj_phases
    return DualDiagonalForm(b, u.params)


def pair(u: DiagonalTensor, form: DualDiagonalForm) -> Scalar:
    """<u, B> = sum_i a_i b_i: cross terms vanish on diagonal tensors.

    Summed with math.fsum per component, so the pairing is exactly
    permutation invariant and, for real coefficients, exactly reproduces the
    l_1 closed form in the p <= k regime.
    """
    if u.dim != form.dim:
        raise ValueError(f"dimension mismatch: tensor has {u.dim}, form has {form.dim}")
    products = u.coeffs * form.b
    return complex(math.fsum(products.real), math.fsum(products.imag))


def pi_lower_bound(u: DiagonalTensor) -> float:
    """|<u, B>| / ||B||_bound for the dual form of build_dual_form.

    The bound is tight: it reproduces the closed form up to roundoff, which
    is the content of the norm identification.
    """
    form = build_dual_form(u)
    pairing = abs(pair(u, form))
    bound = form.norm_bound()
    if bound == 0.0:
        return 0.0
    return pairing / bound
