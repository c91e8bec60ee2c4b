"""Diagonal tensors in the k-fold symmetric tensor power of l_p.

A diagonal tensor u = sum_i a_i e_i (x) ... (x) e_i admits an exact finite
decomposition into rank-one tensors obtained by averaging over the k-ary
Rademacher system: the integrand x(t)^(x)k, x(t) = sum_i c_i r_(i+1)(t) e_i
with c the principal k-th roots of a, is piecewise constant on k^n
intervals, so the integral representation becomes the mean of the k^n
tensor powers x_m (x) ... (x) x_m.  The decomposition is one complex array
of shape (k^n, n): piece, coordinate.  Off-diagonal contributions cancel
exactly because products of distinct-level step functions integrate to zero.
The dense expansion of the decomposition takes the pieces a block at a time,
without ever holding all k^n of them.  Entry [m, i] is c[i] times a phase
that does not depend on the coefficients, so the sweep's expansion is the
k-fold outer power of c times the expansion of the unit tensor's pieces,
which is enumerated once per shape (k, n) and cached; the factored product
adds about k roundings per entry to the streamed expansion's error bound.

The projective norm of u has a closed form: the l_{p/k} norm of the
coefficients when k < p, and their l_1 norm when p <= k.  The upper bound
here recomputes it from the pieces of the averaging decomposition and the
lower bound from the pairing with a norming orthogonally additive
polynomial, the dual object, whose norm is oapoly.norm_closed_form, so the
three routes certify one another.  Every entry of every piece is
c[i] * omega^d, with d one base-k digit of the piece index, so its modulus
depends only on (coordinate i, digit d): the upper bound tabulates those
n * k values and forms each piece's one power sum as a Kronecker sum of the
table's rows, without building the pieces.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Optional, Tuple

import numpy as np

from .numerics import (MAX_DENSE_DEGREE, MAX_EXPANSION_ENTRIES, MAX_PIECES, CoefficientVector,
                       LpParams, Scalar, _phases, _power_of_two_below, check_budget, lq_norm)
from .oapoly import OrthAddPolynomial, norm_closed_form

__all__ = [
    "DiagonalTensor",
    "averaging_decomposition",
    "dense_expansion",
    "factored_expansion",
    "pi_norm_closed_form",
    "pi_upper_bound",
    "build_dual_form",
    "pi_lower_bound",
    "pair",
]

# Pieces per chunk or block.  It bounds the low block of pi_upper_bound's power
# sums, and the roundoff of each dense_expansion block: one BLAS partial sums
# at most this many pieces' terms, in whatever order it chooses, so its error
# is at most (_CHUNK - 1) unit roundoffs (4.5e-13) of the sum of their moduli,
# under the 1e-12 reconstruction tolerance.
_CHUNK = 1 << 12
# Power sums in one block of pi_upper_bound: 256 kB in its buffer.  2^16 (with
# two such buffers) raised the duality workload's peak RSS by 0.2-0.4 MB, and
# 2^14 made the bound about 30% slower.
_BOUND_BLOCK = 1 << 15
# Complex entries of one block's (k-1)-fold outer power of its pieces, the
# (block, n^(k-1)) left operand of its GEMM: 1 MB.
_BLOCK_ENTRIES = 1 << 16


class DiagonalTensor(CoefficientVector):
    """u = sum_i coeffs[i] e_i (x) ... (x) e_i with k tensor factors."""

    def __post_init__(self) -> None:
        if self.params.k < 2:
            raise ValueError("diagonal tensors require degree k >= 2")
        super().__post_init__()


# ---------------------------------------------------------------------------
# Averaging decomposition
# ---------------------------------------------------------------------------

def _slot_coefficients(a: np.ndarray, k: int) -> np.ndarray:
    """The slot row c, shape (n,), that every slot of every piece of the
    degree-k tensor with coefficients a carries: c[i] is the principal k-th
    root of a_i, the modulus root times the k-th root of its phase, with
    phase 1 for a zero coefficient."""
    angle = np.arctan2(a.imag, a.real, out=np.zeros(len(a)), where=a != 0) / k
    return (np.cos(angle) + 1j * np.sin(angle)) * np.abs(a) ** (1.0 / k)


def _step_values(k: int, dtype=np.complex128) -> np.ndarray:
    """omega^d for d = 0, ..., k-1, with omega = exp(2 pi i / k): the values of
    the k-ary Rademacher functions, in the complex dtype asked for.  Each is
    the exponential of its own angle, so its modulus is within a few unit
    roundoffs of that dtype of 1 whatever d is; the powers of a rounded omega
    would drift from 1 by about d roundoffs."""
    return np.exp(np.asarray(2j * np.pi, dtype) * np.arange(k) / k)


def _pieces(row: np.ndarray, k: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the averaging decomposition whose slot row is
    row: entry [m, i] is row[i] * omega^d, d the level-(i+1) base-k digit
    of m, in a fresh C-contiguous array."""
    n = len(row)
    m = np.arange(start, stop, dtype=np.int64)[:, None]
    divisors = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return row * _step_values(k)[(m // divisors) % k]


def averaging_decomposition(u: DiagonalTensor) -> np.ndarray:
    """Exact rank-one decomposition of u by k-ary Rademacher averaging.

    Evaluates x(t) = sum_i c[i] r_(i+1)(t) e_i on each of the k^n constancy
    pieces and returns the values x_m as one fresh (k^n, n) array (piece,
    coordinate).  Every piece carries the same weight 1/k^n, so u is the
    mean over the pieces of x_m (x) ... (x) x_m, k factors: the diagonal
    coefficients equal c[i]^k = a_i and every off-diagonal coefficient
    vanishes by the product-integral orthogonality.  The piece budget is
    checked before any piece is built.
    """
    k, n = u.params.k, u.dim
    check_budget("piece", k ** n, "pieces", MAX_PIECES)
    return _pieces(_slot_coefficients(u.coeffs, k), k, 0, k ** n)


def dense_expansion(u: DiagonalTensor) -> np.ndarray:
    """Coefficient tensor (shape (n,)*k) of the mean of the k-th tensor
    powers of u's averaging pieces, streamed a block of pieces at a time.

    The degree, piece and entry budgets are checked before any piece or
    coefficient is built.  Each block is expanded by one GEMM: the (k-1)-fold
    outer power of its pieces is formed by broadcasting, a
    (block, n^(k-1)) array, and contracted with the pieces over the piece
    axis (for n = 1 this is a plain product).  A BLAS partial sums at most
    one block of pieces, in whatever order it chooses, so its error is at
    most (block - 1) u sum|terms|, u the unit roundoff.  The partials are
    then summed pairwise, which adds at most ceil(log2(blocks)) u sum|terms|
    whatever the piece count.
    """
    k, n = u.params.k, u.dim
    _check_expansion_budgets(k, n)
    count = k ** n
    row = _slot_coefficients(u.coeffs, k)
    block = max(1, min(_CHUNK, _BLOCK_ENTRIES // max(n ** (k - 1), 1)))
    partials = (_expand_block(_pieces(row, k, start, min(start + block, count)), k)
                for start in range(0, count, block))
    return (_pairwise_sum(partials) / count).reshape((n,) * k)


def _check_expansion_budgets(k: int, n: int) -> None:
    """The budgets of a dense expansion: its degree, k^n pieces, n^k entries."""
    check_budget("dense tensor degree", k, "axes", MAX_DENSE_DEGREE)
    check_budget("piece", k ** n, "pieces", MAX_PIECES)
    check_budget("dense expansion entry", n ** k, "entries", MAX_EXPANSION_ENTRIES)


@functools.lru_cache(maxsize=8)
def _phase_expansion(k: int, n: int) -> np.ndarray:
    """Read-only E(k, n): the dense expansion of the unit diagonal tensor,
    mean_m w_m (x) ... (x) w_m with w_m[i] = omega^(d_i(m)), its k^n pieces
    all enumerated.  Eight shapes are kept, the six of the default sweep
    among them, each at most MAX_EXPANSION_ENTRIES complex values (1.6 MB).
    """
    phases = dense_expansion(DiagonalTensor(np.ones(n), LpParams(k + 1.0, k)))
    phases.flags.writeable = False
    return phases


def factored_expansion(u: DiagonalTensor) -> np.ndarray:
    """The dense expansion of u's averaging decomposition, formed as the
    k-fold outer power of the slot row c times E(k, n), entry by entry.

    Entry [m, i] of the decomposition is c[i] * w_m[i], and w_m does not
    depend on the coefficients, so by linearity the mean over the pieces of
    their tensor powers is the k-fold outer power of c times the expansion
    E(k, n) of the unit pieces, which _phase_expansion enumerates once per
    shape.  The degree, piece and entry budgets are checked before any
    coefficient or outer product is formed.  The result is a fresh,
    writeable array.

    Error bound, u the unit roundoff: every unit piece's term is a product
    of k unimodular step values, so E is formed within
    ((block - 1) + ceil(log2(blocks))) u of the mean of its terms' moduli,
    which is 1 up to k roundings, as dense_expansion derives.  The outer
    power of c and its product with E add about k more roundings of each
    entry.  The exact outer product has moduli
    prod_j |a_(i_j)|^(1/k) <= max|a| <= sum|a|, so both reconstruction
    residues, the diagonal one relative to max|a| and the off-diagonal one
    relative to sum|a|, stay within about (4096 + k) u, under 1e-12.
    """
    k, n = u.params.k, u.dim
    _check_expansion_budgets(k, n)
    phases = _phase_expansion(k, n)
    row = _slot_coefficients(u.coeffs, k)
    outer = row
    for _ in range(k - 1):
        outer = np.multiply.outer(outer, row)
    return outer * phases


def _expand_block(block: np.ndarray, k: int) -> np.ndarray:
    """sum over the block's pieces x of x (x) ... (x) x, k factors, as an
    (n^(k-1), n) matrix: the broadcast (k-1)-fold outer power, then one GEMM."""
    size = len(block)
    acc = block
    for _ in range(k - 2):
        acc = (acc[:, :, None] * block[:, None]).reshape(size, -1)
    return acc.T @ block


def _pairwise_sum(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Sum of the arrays in pairwise (cascade) order, holding at most
    log2(count) + 1 partial sums: a sum of 2^j arrays is only ever added to
    another sum of 2^j arrays, or to the smaller sums left at the end."""
    stack = []  # (number of arrays summed, their sum), the counts decreasing
    for total in arrays:
        count = 1
        while stack and stack[-1][0] == count:
            total = stack.pop()[1] + total
            count *= 2
        stack.append((count, total))
    total = stack.pop()[1]
    while stack:
        total = stack.pop()[1] + total
    return total


# ---------------------------------------------------------------------------
# Projective norm: closed form, upper bound, dual form, lower bound
# ---------------------------------------------------------------------------

def pi_norm_closed_form(u: DiagonalTensor) -> float:
    """l_{p/k} norm of the coefficients when k < p, l_1 norm when p <= k."""
    if u.params.k_less_than_p:
        return lq_norm(u.coeffs, u.params.p / u.params.k)
    return math.fsum(np.abs(u.coeffs))


def _scaled_to_unit(a: np.ndarray) -> Tuple[float, np.ndarray]:
    """(max|a|, a / max|a|), or (0.0, a) for a zero a.  Both are first divided
    by the power of two s at or below max|a|, exactly: numpy divides by the
    reciprocal, which overflows for a subnormal max|a| but not for max|a| / s.
    a was validated with the tensor it came from, so the quotient is not."""
    top = float(np.maximum.reduce(np.abs(a), axis=None, initial=0.0))
    if top == 0.0:
        return top, a
    s = _power_of_two_below(top)
    return top, a / s / (top / s)


def pi_upper_bound(u: DiagonalTensor) -> float:
    """Triangle-inequality bound computed from an explicit decomposition.

    k < p: the supremum over all k^n averaging pieces x_m of ||x_m||_p^k,
    the norm bound of the rank-one tensor x_m (x) ... (x) x_m.  Piece m has
    entries c[i] * omega^d, c the slot row and d = d_i(m) the level-(i+1)
    base-k digit of m, so ||x_m||_p^k is S(m)^(k/p) with the one power sum
    S(m) = sum_i |c[i] * omega^(d_i(m))|^p.  The bound is computed for
    a / max|a| and scaled back, as it is positively homogeneous in a.  It
    forms the n x k moduli |c[i] * omega^d| once, in long double, divides
    them by their largest value s and raises them to the p-th power: a table
    in [0, 1] with an exact 1 at the top, so whatever p is no power
    overflows or sends the top entry to 0, and max_m S(m) / s^p is in [1, n].
    The sums S(m) / s^p = sum_i table[i, d_i(m)] are Kronecker sums, the
    first coordinate most significant (averaging_decomposition's order): the
    last coordinates form a low block of at most _CHUNK pieces, summed once,
    and the prefixes of the first ones are walked a block of _BOUND_BLOCK
    values at a time, which keeps the memory small whatever k is.  Every
    piece gives the same value because the step values are unimodular, but
    each is formed from its own table entries, so the bound stays an
    independent check of the closed form.  x -> x^(k/p) is increasing, so
    one root is taken per call, of the largest sum: the bound is
    s^k (max_m S(m) / s^p)^(k/p), with s^k in long double.

    Error bound, u and u_L the unit roundoffs of float64 and long double
    (2^-64 on x86): each modulus quotient is within a factor 1 +- 2u_L, which
    the p-th power raises to the p-th power, and each entry is rounded once
    to float64.  A sum of n nonnegative entries adds (n - 1) u and the root
    raises the sum's error factor to the power k/p, so the bound is within
    about 2k u_L + (n + 3) u of the supremum over the computed pieces,
    1.1e-13 at k = 10^6 (2.2e-10 with float64 step values).  The computed
    |c[i]|^k are within about k u of |a_i| / max|a|; the closed form sees it.

    p <= k: the trivial decomposition into the n diagonal rank-one terms,
    bounding pi(u) by sum_i |a_i| * ||e_i||_p^k.
    """
    n = u.dim
    k = u.params.k
    p = u.params.p
    if n == 0:
        return 0.0
    if not u.params.k_less_than_p:
        # every e_i has the one nonzero entry 1, and zeros add nothing to its
        # power sum, so each ||e_i||_p is the norm of [1.0], exactly 1.0.  The
        # moduli are taken with the same vectorised abs as pi_norm_closed_form,
        # so the two are the same exact l_1 sum bitwise.
        basis_norm = lq_norm(np.ones(1), p) ** k
        return math.fsum(np.abs(u.coeffs) * basis_norm)

    check_budget("piece", k ** n, "pieces", MAX_PIECES)
    top, a = _scaled_to_unit(u.coeffs)
    if top == 0.0:
        return 0.0
    moduli = np.abs(_slot_coefficients(a, k)[:, None] * _step_values(k, np.clongdouble))
    scale = np.maximum.reduce(moduli, axis=None)
    table = ((moduli / scale) ** p).astype(float)
    low_levels = 0
    while low_levels < n and k ** (low_levels + 1) <= _CHUNK:
        low_levels += 1
    high = _kronecker_sum(table[:n - low_levels])
    low = _kronecker_sum(table[n - low_levels:])
    block = min(max(1, _BOUND_BLOCK // len(low)), len(high))
    sums = np.empty((block, len(low)))
    best = 0.0
    for start in range(0, len(high), block):
        prefix = high[start:start + block, None]
        best = max(best, float(np.maximum.reduce(np.add(prefix, low, out=sums[:len(prefix)]),
                                                 axis=None)))
    return float(top * scale ** k * best ** (k / p))


def _kronecker_sum(table: np.ndarray) -> np.ndarray:
    """sums[m] = sum_i table[i, d_i(m)] over every digit string m of the
    table's levels, the first level most significant: shape (k^levels,)."""
    sums = np.zeros(1)
    for level in table:
        sums = (sums[:, None] + level).reshape(-1)
    return sums


def build_dual_form(u: DiagonalTensor) -> OrthAddPolynomial:
    """The orthogonally additive polynomial P(x) = sum_i b_i x_i^k that
    norms u: its pairing with u is sum |a_i|^{p/k} (k < p) or sum |a_i|
    (p <= k).

    The phase of each coefficient is conjugated so the pairing comes out
    real and nonnegative; for k < p the modulus is raised to p/k - 1.
    """
    return _dual_form(u.coeffs, np.abs(u.coeffs), u.params)


def _dual_form(a: np.ndarray, moduli: Optional[np.ndarray],
               params: LpParams) -> OrthAddPolynomial:
    """build_dual_form of the tensor with coefficients a, from their moduli
    or a positive multiple of them, read only when k < p: the polynomial is
    then a positive multiple of the one the moduli give, and norms as well."""
    b = np.array(_phases(a.tolist()), dtype=complex).conj()
    if params.k_less_than_p:
        b = b * moduli ** (params.p / params.k - 1.0)
    return OrthAddPolynomial(b, params)


def pair(u: DiagonalTensor, poly: OrthAddPolynomial) -> Scalar:
    """<u, P> = sum_i a_i c_i, c the coefficients of P: cross terms vanish
    on diagonal tensors.

    Summed with math.fsum per component, so the pairing is exactly
    permutation invariant and, for real coefficients, exactly reproduces the
    l_1 closed form in the p <= k regime.
    """
    if u.dim != poly.dim:
        raise ValueError(f"dimension mismatch: tensor has {u.dim}, polynomial has {poly.dim}")
    if u.params.k != poly.params.k:
        raise ValueError(f"degree mismatch: tensor has k = {u.params.k}, "
                         f"polynomial has k = {poly.params.k}")
    return _pairing(u.coeffs, poly.coeffs)


def _pairing(a: np.ndarray, c: np.ndarray) -> Scalar:
    """sum_i a_i c_i, each component summed with math.fsum."""
    products = a * c
    return complex(math.fsum(products.real), math.fsum(products.imag))


def pi_lower_bound(u: DiagonalTensor) -> float:
    """|<u, P>| / ||P|| for the polynomial P of build_dual_form, its norm
    the closed form of oapoly.norm_closed_form.

    The bound is tight: it reproduces the closed form up to roundoff, which
    is the content of the norm identification.  For k < p it is positively
    homogeneous in a, so it is computed for a / max|a|, whose pairing
    neither overflows nor underflows, and scaled back.  A scaled complex
    modulus may round to 1 +- 2u, which the power p/k - 1 takes to 0 or past
    the float range once p/k is near 1/u; any dual polynomial gives a lower
    bound, so the dual coefficients are formed from the moduli divided by
    their largest value, all in [0, 1] with an exact 1 at the top.  For
    p <= k the dual coefficients are the unimodular phases, so the pairing
    is the l_1 sum itself and the norm their largest modulus, 1 up to a
    rounding.  It is computed for a / s, s the power of two at or below the
    largest real or imaginary part of a, and scaled back: exact in the
    normal range, and below it no modulus is rounded to the subnormal grid.
    For real a every phase is exactly +-1 and the bound exactly the l_1
    closed form.
    """
    if u.params.k_less_than_p:
        top, a = _scaled_to_unit(u.coeffs)
        if top == 0.0:
            return 0.0
        moduli = np.abs(a)
        moduli /= np.maximum.reduce(moduli, axis=None)
    else:
        # the largest real or imaginary part: finite where a modulus is not
        top = float(np.maximum.reduce(np.abs(u.coeffs.view(float)), initial=0.0))
        if top == 0.0:
            return 0.0
        top = _power_of_two_below(top)
        a, moduli = u.coeffs / top, None
    dual = _dual_form(a, moduli, u.params)
    pairing = abs(_pairing(a, dual.coeffs))
    bound = norm_closed_form(dual)
    if bound == 0.0:
        return 0.0
    return top * (pairing / bound)
