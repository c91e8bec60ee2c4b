"""Diagonal tensors in the k-fold symmetric tensor power of l_p.

A diagonal tensor u = sum_i a_i e_i (x) ... (x) e_i admits an exact finite
decomposition into rank-one tensors obtained by averaging over the k-ary
Rademacher system: the integrand is piecewise constant on k^n intervals, so
the integral representation becomes the mean of k^n rank-one tensors.  The
decomposition is one complex array of shape (k^n, k, n): piece, slot,
coordinate.  Off-diagonal contributions cancel exactly because products of
distinct-level step functions integrate to zero.  The dense expansion of the
decomposition takes the pieces a block at a time, without ever holding all
k^n of them.  Entry [m, j, i] of a piece is c[j, i] times a phase that does
not depend on the coefficients, so the sweep's expansion is the outer
product of the slot rows c times the expansion of the unit tensor's pieces,
which is enumerated once per shape (k, n) and cached; the factored product
adds about k roundings per entry to the streamed expansion's error bound.

The projective norm of u has a closed form: the l_{p/k} norm of the
coefficients when k < p, and their l_1 norm when p <= k.  The upper bound
here recomputes it from the slot vectors of the averaging decomposition and
the lower bound from the pairing with a dual diagonal multilinear form, so
the three routes certify one another.  Every slot entry of every piece is
c[j, i] * omega^d, with d one base-k digit of the piece index, so its modulus
depends only on (coefficient row c[j], coordinate i, digit d), and slots with
equal rows have equal entries: the upper bound tabulates those R * n * k
values, R the number of runs of equal consecutive rows (1 for the k equal
rows of the decomposition), and forms each piece's slot power sums as a
Kronecker sum of the table's rows, without building the slot vectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .numerics import (MAX_EXPANSION_ENTRIES, MAX_PIECES, LpParams, Scalar, check_budget,
                       ensure_finite, lq_norm, phase)

__all__ = [
    "DiagonalTensor",
    "DualDiagonalForm",
    "averaging_decomposition",
    "dense_expansion",
    "factored_expansion",
    "pi_norm_closed_form",
    "pi_upper_bound",
    "build_dual_form",
    "pi_lower_bound",
    "pair",
]

# Pieces per chunk or block.  It bounds the low block of pi_upper_bound's slot
# sums, and the roundoff of each dense_expansion block: one BLAS partial sums
# at most this many pieces' terms, in whatever order it chooses, so its error
# is at most (_CHUNK - 1) unit roundoffs (4.5e-13) of the sum of their moduli,
# under the 1e-12 reconstruction tolerance.
_CHUNK = 1 << 12
# Values of one block of pi_upper_bound's products of slot sums: 256 kB in each
# of its two buffers.  2^16 raised the duality workload's peak RSS by 0.2-0.4
# MB, and 2^14 made the bound about 30% slower.
_BOUND_BLOCK = 1 << 15
# Complex entries of one block's running outer product of slots 0..k-2, the
# (block, n^(k-1)) left operand of its GEMM: 1 MB.
_BLOCK_ENTRIES = 1 << 16


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

def _slot_coefficients(u: DiagonalTensor) -> np.ndarray:
    """(k, n) matrix c with prod_j c[j, i] = a_i; slot j uses c[j] * r_i phases.

    Every slot carries the principal k-th root of a_i: the modulus root
    times the k-th root of its phase, with phase 1 for a zero coefficient.
    The k equal rows are one read-only broadcast row.
    """
    a = u.coeffs
    k, n = u.params.k, u.dim
    angle = np.arctan2(a.imag, a.real, out=np.zeros(n), where=a != 0) / k
    root = (np.cos(angle) + 1j * np.sin(angle)) * np.abs(a) ** (1.0 / k)
    return np.broadcast_to(root, (k, n))


def _step_values(k: int, dtype=np.complex128) -> np.ndarray:
    """omega^d for d = 0, ..., k-1, with omega = exp(2 pi i / k): the values of
    the k-ary Rademacher functions, in the complex dtype asked for.  Each is
    the exponential of its own angle, so its modulus is within a few unit
    roundoffs of that dtype of 1 whatever d is; the powers of a rounded omega
    would drift from 1 by about d roundoffs."""
    return np.exp(np.asarray(2j * np.pi, dtype) * np.arange(k) / k)


class _Pieces:
    """The (k^n, k, n) averaging decomposition of u, built a slice at a time.

    pieces[start:stop] builds rows start..stop of the array that
    averaging_decomposition returns: entry [m, j, i] is c[j, i] * omega^d,
    with d the level-(i+1) base-k digit of m.  shape is checked against the
    piece budget when the object is made, before any piece is built.
    """

    def __init__(self, u: DiagonalTensor) -> None:
        n = u.dim
        k = u.params.k
        check_budget("piece", k ** n, "pieces", MAX_PIECES)
        self.shape: Tuple[int, int, int] = (k ** n, k, n)
        self._coefficients = _slot_coefficients(u)
        self._steps = _step_values(k)
        self._divisors = np.array([k ** (n - i) for i in range(1, n + 1)], dtype=np.int64)

    def __getitem__(self, window: slice) -> np.ndarray:
        start, stop, _ = window.indices(self.shape[0])
        m = np.arange(start, stop, dtype=np.int64)[:, None]
        phases = self._steps[(m // self._divisors) % self.shape[1]]
        return self._coefficients[None, :, :] * phases[:, None, :]


def averaging_decomposition(u: DiagonalTensor) -> np.ndarray:
    """Exact rank-one decomposition of u by k-ary Rademacher averaging.

    Evaluates the averaged integrand on each of the k^n constancy pieces and
    returns the slot vectors as one (k^n, k, n) array (piece, slot,
    coordinate).  Every piece carries the same weight 1/k^n, so u is the mean
    over the pieces of slots[m, 0] (x) ... (x) slots[m, k-1]: the diagonal
    coefficients equal a_i and every off-diagonal coefficient vanishes by the
    product-integral orthogonality.
    """
    return _Pieces(u)[:]


def dense_expansion(slots: np.ndarray) -> np.ndarray:
    """Coefficient tensor (shape (n,)*k) of the mean of the pieces' outer products.

    slots has shape (pieces, k, n), as averaging_decomposition returns it;
    the sweep passes the same pieces unbuilt, as a _Pieces, whose blocks are
    built one at a time.  The block size depends only on k and n, so both
    give the same blocks and bitwise the same tensor.  Each block is expanded
    by one GEMM: the outer product of slots 0..k-2 is formed by broadcasting,
    a (block, n^(k-1)) array, and contracted with slot k-1 over the piece
    axis (for n = 1 this is a plain product).  A BLAS partial sums at most
    one block of pieces, in whatever order it chooses, so its error is at
    most (block - 1) u sum|terms|, u the unit roundoff.  The partials are
    then summed pairwise, which adds at most ceil(log2(blocks)) u sum|terms|
    whatever the piece count.
    """
    pieces, k, n = slots.shape
    check_budget("dense expansion entry", n ** k, "entries", MAX_EXPANSION_ENTRIES)
    if pieces == 0:
        raise ValueError("the mean of no pieces is undefined")
    block = max(1, min(_CHUNK, _BLOCK_ENTRIES // max(n ** (k - 1), 1)))
    partials = (_expand_block(slots[start:start + block]) for start in range(0, pieces, block))
    return (_pairwise_sum(partials) / pieces).reshape((n,) * k)


@functools.lru_cache(maxsize=8)
def _phase_expansion(k: int, n: int) -> np.ndarray:
    """Read-only E(k, n): the dense expansion of the k^n pieces of the unit
    diagonal tensor, mean_m w_m (x) ... (x) w_m with w_m[i] = omega^(d_i(m)).

    The k^n unit-coefficient pieces are all enumerated, through the same
    block GEMM and pairwise sum as any other expansion.  Eight shapes are
    kept, the six of the default sweep among them, each at most
    MAX_EXPANSION_ENTRIES complex values (1.6 MB).
    """
    phases = dense_expansion(_Pieces(DiagonalTensor(np.ones(n), LpParams(k + 1.0, k))))
    phases.flags.writeable = False
    return phases


def factored_expansion(u: DiagonalTensor) -> np.ndarray:
    """The dense expansion of u's averaging decomposition, formed as
    c[0] (x) ... (x) c[k-1] times E(k, n), entry by entry.

    Entry [m, j, i] of the decomposition is c[j, i] * w_m[i], and w_m does
    not depend on the coefficients, so by linearity the mean over the
    pieces of their outer products is the outer product of the slot rows c
    times the expansion E(k, n) of the unit pieces, which _phase_expansion
    enumerates once per shape.  Both budgets, k^n pieces and n^k entries,
    are checked before any coefficient or outer product is formed.  The
    result is a fresh, writeable array.

    Error bound, u the unit roundoff: every unit piece's term is a product
    of k unimodular step values, so E is formed within
    ((block - 1) + ceil(log2(blocks))) u of the mean of its terms' moduli,
    which is 1 up to k roundings, as dense_expansion derives.  The outer
    product of the k slot rows and its product with E add about k more
    roundings of each entry.  The exact outer product has moduli
    prod_j |a_(i_j)|^(1/k) <= max|a| <= sum|a|, so both reconstruction
    residues, the diagonal one relative to max|a| and the off-diagonal one
    relative to sum|a|, stay within about (4096 + k) u, under 1e-12.
    """
    k, n = u.params.k, u.dim
    check_budget("piece", k ** n, "pieces", MAX_PIECES)
    check_budget("dense expansion entry", n ** k, "entries", MAX_EXPANSION_ENTRIES)
    phases = _phase_expansion(k, n)
    coefficients = _slot_coefficients(u)
    outer = coefficients[0]
    for row in coefficients[1:]:
        outer = np.multiply.outer(outer, row)
    return outer * phases


def _expand_block(block: np.ndarray) -> np.ndarray:
    """sum over the block's pieces of slot 0 (x) ... (x) slot k-1, as an
    (n^(k-1), n) matrix: broadcast products of slots 0..k-2, then one GEMM."""
    size, k, _ = block.shape
    acc = block[:, 0]
    for j in range(1, k - 1):
        acc = (acc[:, :, None] * block[:, None, j]).reshape(size, -1)
    return acc.T @ block[:, k - 1]


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


def pi_upper_bound(u: DiagonalTensor) -> float:
    """Triangle-inequality bound computed from an explicit decomposition.

    k < p: the supremum over all k^n averaging pieces of the product of the
    pieces' slot l_p norms.  Entry i of slot j on piece m is c[j, i] * omega^d
    with d = d_i(m), the level-(i+1) base-k digit of m.  The phase does not
    depend on j, so slots whose coefficient rows c[j] are equal have equal
    entries, and equal power sums, on every piece: the bound merges each run
    of consecutive equal rows of c into one row with its count (R runs of any
    lengths; the decomposition's k rows are equal, so it has R = 1), builds
    the table |row[r, i] * omega^d|^p once and forms the power sums
    S_r(m) = sum_i table[r, i, d_i(m)] as a Kronecker sum, one coordinate at
    a time with the first one most significant (the piece order of
    averaging_decomposition).  The last coordinates form a low block of at
    most _CHUNK pieces, summed once; the prefixes of the first coordinates
    are walked a block of _BOUND_BLOCK values at a time, which keeps the
    memory small whatever k is.  Every piece gives the same product because
    the step values are unimodular, but each one is still formed from its
    own table entries, and the rows are merged only when they compare equal,
    so the bound stays an independent check of the closed form.  The bound
    is positively homogeneous in a, so the table is built from a / max|a|
    and the bound scaled back: its p-th powers neither overflow nor
    underflow.

    The piece's product of slot norms is prod_r S_r(m)^(count_r/p), that is
    G(m)^(k/p) with G(m) = prod_r S_r(m)^(count_r/k) the weighted geometric
    mean of its power sums.  x -> x^(k/p) is increasing, so each block keeps
    the largest G and one root is taken per call; for R = 1 the weight is
    1 and G is the power sum itself.  After the scaling every
    |c[j, i]| = |a_i / max|a||^(1/k) is at most 1, and 1 at the top
    coordinate, so each S_r, and G with it, lies in [1, n] up to roundoff.

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
    top = float(np.max(np.abs(u.coeffs)))
    if top == 0.0:
        return 0.0
    unit = DiagonalTensor(u.coeffs / top, u.params)
    coefficients = _slot_coefficients(unit)
    starts = np.flatnonzero(np.r_[True, np.any(coefficients[1:] != coefficients[:-1], axis=1)])
    rows, counts = coefficients[starts], np.diff(np.r_[starts, k])
    weights = counts / k
    # |omega^d| is 1 within a few roundoffs, and the p-th power multiplies
    # that error by p: 4.4e-10 at p = 2e6 in float64, about 1e-13 in long
    # double (80-bit on x86), which the table is formed in and rounded from
    table = (np.abs(rows[:, :, None] * _step_values(k, np.clongdouble)) ** p).astype(float)
    low_levels = 0
    while low_levels < n and k ** (low_levels + 1) <= _CHUNK:
        low_levels += 1
    high = _kronecker_sum(table[:, :n - low_levels])
    low = _kronecker_sum(table[:, n - low_levels:])
    block = min(max(1, _BOUND_BLOCK // low.shape[1]), high.shape[1])
    means, sums = np.empty((2, block, low.shape[1]))
    best = 0.0
    for start in range(0, high.shape[1], block):
        prefix = high[:, start:start + block, None]
        mean = np.add(prefix[0], low[0], out=means[:prefix.shape[1]])
        if len(rows) > 1:
            mean **= weights[0]
            for r in range(1, len(rows)):
                power_sum = np.add(prefix[r], low[r], out=sums[:prefix.shape[1]])
                mean *= np.power(power_sum, weights[r], out=power_sum)
        best = max(best, float(mean.max()))
    return top * best ** (k / p)


def _kronecker_sum(table: np.ndarray) -> np.ndarray:
    """sums[r, m] = sum_i table[r, i, d_i(m)] over every digit string m of the
    table's levels, the first level most significant: shape (rows, k^levels)."""
    sums = np.zeros((table.shape[0], 1))
    for level in range(table.shape[1]):
        sums = (sums[:, :, None] + table[:, level, None, :]).reshape(table.shape[0], -1)
    return sums


def build_dual_form(u: DiagonalTensor) -> DualDiagonalForm:
    """Dual diagonal form whose pairing with u is sum |a_i|^{p/k} (k < p) or
    sum |a_i| (p <= k).

    The phase of each coefficient is conjugated so the pairing comes out
    real and nonnegative; for k < p the modulus is raised to p/k - 1.
    """
    return _dual_form(u, np.abs(u.coeffs))


def _dual_form(u: DiagonalTensor, moduli: np.ndarray) -> DualDiagonalForm:
    """build_dual_form with the moduli of u's coefficients given."""
    b = np.array([phase(z) for z in u.coeffs], dtype=complex).conj()
    if u.params.k_less_than_p:
        b = b * moduli ** (u.params.p / u.params.k - 1.0)
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
    is the content of the norm identification.  For k < p it is positively
    homogeneous in a, so it is computed for a / max|a|, whose dual
    coefficients |a_i / max|a||^(p/k - 1) and pairing neither overflow nor
    underflow, and scaled back.  A scaled complex modulus may round up to
    1 + 2u, which the power p/k - 1 takes past e from p/k = 2^52 on and past
    the float range from about 1.6e18; any dual form gives a lower bound, so
    there the moduli are clipped to 1.  For p <= k the dual coefficients are the
    unimodular phases and the pairing is the l_1 sum itself, so u is used as
    it is and the bound stays exactly the l_1 closed form for real a.
    """
    top = 1.0
    if u.params.k_less_than_p:
        top = float(np.max(np.abs(u.coeffs), initial=0.0))
        if top == 0.0:
            return 0.0
        u = DiagonalTensor(u.coeffs / top, u.params)
    moduli = np.abs(u.coeffs)
    if u.params.p / u.params.k > 2.0 ** 52:
        moduli = np.minimum(moduli, 1.0)
    form = _dual_form(u, moduli)
    pairing = abs(pair(u, form))
    bound = form.norm_bound()
    if bound == 0.0:
        return 0.0
    return top * (pairing / bound)
