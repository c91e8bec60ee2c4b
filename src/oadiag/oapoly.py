"""Orthogonally additive k-homogeneous polynomials on finite-dimensional l_p.

An orthogonally additive polynomial is determined by its diagonal
coefficients: P(x) = sum_n c_n x_n^k.  Its norm over the unit ball of l_p
has a closed form, the l_{p/(p-k)} norm of c when k < p and max |c_n| when
p <= k, attained at an explicit witness.  An independent projected-ascent
optimizer re-derives the value numerically.

The module also carries the dense multilinear-form side: diagonal extension
of a coefficient sequence to a symmetric form vanishing off the diagonal,
polarization of a homogeneous polynomial, structural/behavioral additivity
checks, and diagonal extraction with the dual-exponent norm.  Multilinear
sup norms have no closed form; they are estimated by alternating ascent with
exact Hoelder slot updates, cross-validated at tiny dimension by a zooming
dense grid search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .numerics import (
    MAX_FORM_ENTRIES,
    MAX_POLARIZE_COST,
    BudgetError,
    LpParams,
    Scalar,
    ensure_finite,
    holder_conjugate,
    lq_norm,
    phase,
    phase_root,
)

__all__ = [
    "OrthAddPolynomial",
    "MultilinearForm",
    "AdditivityReport",
    "evaluate",
    "norm_closed_form",
    "norm_witness",
    "norm_numeric",
    "extend_diagonal_functional",
    "is_orthogonally_additive",
    "polarize",
    "diagonal_of_multilinear",
    "multilinear_norm_ascent",
    "multilinear_norm_grid",
]


@dataclass(frozen=True, eq=False)
class OrthAddPolynomial:
    """P(x) = sum_n coeffs[n] * x_n^k; coeffs[n] = P(e_n)."""

    coeffs: np.ndarray
    params: LpParams

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex).reshape(-1)
        ensure_finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True, eq=False)
class MultilinearForm:
    """phi(x_1,...,x_k) = sum over index tuples of coeffs[t] x_1[t_1]...x_k[t_k]."""

    coeffs: np.ndarray
    params: LpParams
    symmetric: bool = False

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex)
        ensure_finite(arr.reshape(-1))
        k = self.params.k
        if arr.ndim != k:
            raise ValueError(f"coefficient tensor must have {k} axes, got {arr.ndim}")
        if len(set(arr.shape)) > 1:
            raise ValueError(f"coefficient tensor must be cubical, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0] if self.coeffs.ndim else 0

    @property
    def degree(self) -> int:
        return self.params.k

    def _checked_vectors(self, vectors) -> List[np.ndarray]:
        xs = [np.asarray(x, dtype=complex) for x in vectors]
        if len(xs) != self.degree:
            raise ValueError(f"expected {self.degree} argument vectors, got {len(xs)}")
        for x in xs:
            if x.shape != (self.dim,):
                raise ValueError("argument dimension mismatch")
            ensure_finite(x)
        return xs

    def apply(self, vectors) -> Scalar:
        xs = self._checked_vectors(vectors)
        out = self.coeffs
        for x in xs:
            out = np.tensordot(out, x, axes=([0], [0]))
        return complex(out)

    def partial_gradient(self, vectors, slot: int) -> np.ndarray:
        """Gradient vector g with g_m = phi(..., e_m at `slot`, ...)."""
        xs = self._checked_vectors(vectors)
        letters = "abcdefghij"[: self.degree]
        operands = [self.coeffs]
        subscripts = [letters]
        for j in range(self.degree):
            if j == slot:
                continue
            operands.append(xs[j])
            subscripts.append(letters[j])
        return np.einsum(",".join(subscripts) + "->" + letters[slot], *operands)

    def symmetrize(self) -> "MultilinearForm":
        k = self.degree
        acc = np.zeros_like(self.coeffs)
        for perm in itertools.permutations(range(k)):
            acc = acc + np.transpose(self.coeffs, axes=perm)
        return MultilinearForm(acc / math.factorial(k), self.params, symmetric=True)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        for perm in itertools.permutations(range(self.degree)):
            if np.max(np.abs(self.coeffs - np.transpose(self.coeffs, axes=perm))) > tol:
                return False
        return True

    def diagonal(self) -> np.ndarray:
        """The sequence phi(e_n, ..., e_n)."""
        if self.dim == 0:
            return np.zeros(0, dtype=complex)
        idx = np.arange(self.dim)
        return np.array(self.coeffs[tuple([idx] * self.degree)])


# ---------------------------------------------------------------------------
# Polynomial evaluation and norms
# ---------------------------------------------------------------------------

def evaluate(poly: OrthAddPolynomial, x) -> Scalar:
    """P(x) = sum_n c_n x_n^k."""
    vec = np.asarray(x, dtype=complex)
    if vec.shape != (poly.dim,):
        raise ValueError(f"dimension mismatch: polynomial has {poly.dim}, x has {vec.shape}")
    ensure_finite(vec)
    return complex(np.sum(poly.coeffs * vec ** poly.params.k))


def norm_closed_form(poly: OrthAddPolynomial) -> float:
    """sup over the unit l_p ball of |P|: ||c||_{p/(p-k)} if k < p, max|c_n| if p <= k."""
    if poly.dim == 0:
        return 0.0
    if poly.params.k_less_than_p:
        return lq_norm(poly.coeffs, poly.params.dual_exponent)
    return float(np.max(np.abs(poly.coeffs)))


def norm_witness(poly: OrthAddPolynomial) -> Tuple[np.ndarray, float]:
    """Unit vector attaining the polynomial norm, with the attained |P| value.

    k < p: x*_i is |c_i|^{1/(p-k)} normalized in l_p, with the phase of each
    entry chosen so c_i (x*_i)^k is real and nonnegative.  p <= k: the basis
    vector at the first index of maximal |c_n|.  The witness is homogeneous
    of degree 0 in c, so it is formed from the ratios |c_i| / max|c|, whose
    powers never overflow.
    """
    mags = np.abs(poly.coeffs)
    if poly.dim == 0 or not np.any(mags > 0):
        raise ValueError("the zero polynomial has no norm witness")
    p, k = poly.params.p, poly.params.k
    if poly.params.k_less_than_p:
        ratios = mags / np.max(mags)
        radial = ratios ** (1.0 / (p - k))
        denom = np.sum(ratios ** (p / (p - k))) ** (1.0 / p)
        phases = np.array([phase_root(z.conjugate(), k) for z in poly.coeffs])
        witness = phases * (radial / denom)
    else:
        witness = np.zeros(poly.dim, dtype=complex)
        witness[int(np.argmax(mags))] = 1.0
    return witness, abs(evaluate(poly, witness))


def norm_numeric(poly: OrthAddPolynomial, restarts: int = 20, iters: int = 500,
                 seed: int = 0) -> float:
    """Projected-ascent lower bound on the polynomial norm over the l_p sphere.

    Phase alignment reduces the problem to maximizing sum |c_n| t_n^k over
    nonnegative unit vectors t; each iteration applies the Hoelder-equality
    update t <- normalize((|c| t^{k-1})^{1/(p-1)}), which never decreases the
    objective.  Starts: a uniform vector, the basis vectors (as budget
    allows), then seeded random points.  Deterministic for fixed arguments.
    The ascent runs on |c| / max|c| and the result is scaled back by max|c|
    (the norm is positively homogeneous), so its powers never overflow.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    w = np.abs(poly.coeffs)
    n = poly.dim
    if n == 0 or not np.any(w > 0):
        return 0.0
    top = float(np.max(w))
    w = w / top
    p, k = poly.params.p, poly.params.k

    rng = np.random.default_rng(seed)
    rows = [np.full(n, 1.0)]
    for j in range(min(n, restarts - 1)):
        basis = np.zeros(n)
        basis[j] = 1.0
        rows.append(basis)
    while len(rows) < restarts:
        rows.append(rng.random(n) + 1e-3)
    T = np.stack(rows[:restarts])
    T /= np.sum(T ** p, axis=1, keepdims=True) ** (1.0 / p)

    if p == 1.0:
        # l_1 sphere: the linearized maximizer is a basis vector.
        for _ in range(iters):
            grad = w * T ** (k - 1)
            T = np.zeros_like(T)
            T[np.arange(T.shape[0]), np.argmax(grad, axis=1)] = 1.0
    else:
        exponent = 1.0 / (p - 1.0)
        for _ in range(iters):
            grad = w * T ** (k - 1)
            candidate = grad ** exponent
            norms = np.sum(candidate ** p, axis=1, keepdims=True) ** (1.0 / p)
            ok = norms[:, 0] > 0
            T[ok] = candidate[ok] / norms[ok]
    return top * float(np.max(np.sum(w * T ** k, axis=1)))


# ---------------------------------------------------------------------------
# Diagonal extension, additivity, polarization, diagonal extraction
# ---------------------------------------------------------------------------

def extend_diagonal_functional(diag_values: Sequence[Scalar], params: LpParams,
                               max_entries: int = MAX_FORM_ENTRIES) -> MultilinearForm:
    """Dense symmetric form with the given diagonal and zero off-diagonal.

    This is the norm-preserving extension of a functional known on the
    diagonal basis tensors; the induced polynomial x -> form(x, ..., x) is
    orthogonally additive by construction.
    """
    d = np.asarray(diag_values, dtype=complex).reshape(-1)
    ensure_finite(d)
    n = d.shape[0]
    k = params.k
    if n ** k > max_entries:
        raise BudgetError(f"dense form needs {n ** k} entries, cap is {max_entries}")
    coeffs = np.zeros((n,) * k, dtype=complex)
    if n:
        idx = np.arange(n)
        coeffs[tuple([idx] * k)] = d
    return MultilinearForm(coeffs, params, symmetric=True)


@dataclass(frozen=True)
class AdditivityReport:
    """Outcome of the structural and behavioral orthogonal-additivity checks."""

    additive: bool
    structural_ok: bool
    behavioral_ok: bool
    worst_offdiagonal_index: Optional[Tuple[int, ...]]
    worst_offdiagonal_ratio: float
    worst_behavioral_defect: float

    @property
    def checks_agree(self) -> bool:
        return self.structural_ok == self.behavioral_ok


def _offdiagonal_mask(shape: Tuple[int, ...]) -> np.ndarray:
    idx = np.indices(shape)
    diag = np.ones(shape, dtype=bool)
    for j in range(1, len(shape)):
        diag &= idx[0] == idx[j]
    return ~diag


def is_orthogonally_additive(form: MultilinearForm, tol_structural: float = 1e-12,
                             tol_behavioral: float = 1e-10, samples: int = 32,
                             seed: int = 0) -> AdditivityReport:
    """Check that the polynomial induced by a symmetric form is orthogonally additive.

    Structural: every off-diagonal coefficient of the (symmetrized) form must
    have modulus <= tol_structural * max coefficient modulus; the certificate
    records the worst violating index.  Behavioral: for seeded random pairs
    (x, y) with disjoint supports, |P(x+y) - P(x) - P(y)| must stay below
    tol_behavioral * (|P(x)| + |P(y)| + 1).  The two checks agree on any form
    that cleanly satisfies or violates additivity.
    """
    sym = form if form.symmetric else form.symmetrize()
    coeffs = sym.coeffs
    n = sym.dim
    k = sym.degree

    scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    worst_index: Optional[Tuple[int, ...]] = None
    worst_ratio = 0.0
    if coeffs.size and n > 1:
        off = np.where(_offdiagonal_mask(coeffs.shape), coeffs, 0.0)
        flat = int(np.argmax(np.abs(off)))
        worst = float(np.abs(off).reshape(-1)[flat])
        if scale > 0 and worst > 0:
            worst_index = tuple(int(i) for i in np.unravel_index(flat, coeffs.shape))
            worst_ratio = worst / scale
    structural_ok = worst_ratio <= tol_structural

    behavioral_ok = True
    worst_defect = 0.0
    if n >= 2:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            perm = rng.permutation(n)
            cut = int(rng.integers(1, n))
            x = np.zeros(n, dtype=complex)
            y = np.zeros(n, dtype=complex)
            x[perm[:cut]] = rng.standard_normal(cut) + 1j * rng.standard_normal(cut)
            y[perm[cut:]] = rng.standard_normal(n - cut) + 1j * rng.standard_normal(n - cut)
            px = sym.apply([x] * k)
            py = sym.apply([y] * k)
            pxy = sym.apply([x + y] * k)
            defect = abs(pxy - px - py)
            allowance = tol_behavioral * (abs(px) + abs(py) + 1.0)
            worst_defect = max(worst_defect, defect)
            if defect > allowance:
                behavioral_ok = False
    return AdditivityReport(
        additive=structural_ok,
        structural_ok=structural_ok,
        behavioral_ok=behavioral_ok,
        worst_offdiagonal_index=worst_index,
        worst_offdiagonal_ratio=worst_ratio,
        worst_behavioral_defect=worst_defect,
    )


def polarize(poly: Callable[[np.ndarray], Scalar], dim: int, params: LpParams,
             max_cost: int = MAX_POLARIZE_COST) -> MultilinearForm:
    """Unique symmetric k-linear form phi with phi(x, ..., x) = poly(x).

    Uses the sign-average polarization identity
    phi(x_1,...,x_k) = 1/(2^k k!) sum_{eps in {+-1}^k} eps_1...eps_k
    poly(eps_1 x_1 + ... + eps_k x_k), evaluated on basis tuples.
    """
    k = params.k
    if k > 6:
        raise BudgetError("polarization is capped at k <= 6")
    cost = (2 ** k) * dim ** k
    if cost > max_cost:
        raise BudgetError(f"polarization would need {cost} evaluations, cap is {max_cost}")
    signs = list(itertools.product((1.0, -1.0), repeat=k))
    sign_products = [math.prod(s) for s in signs]
    scale = 1.0 / ((2 ** k) * math.factorial(k))
    coeffs = np.zeros((dim,) * k, dtype=complex)
    for t in itertools.product(range(dim), repeat=k):
        acc = 0j
        for eps, sp in zip(signs, sign_products):
            z = np.zeros(dim, dtype=complex)
            np.add.at(z, list(t), eps)
            acc += sp * complex(poly(z))
        coeffs[t] = acc * scale
    return MultilinearForm(coeffs, params, symmetric=True)


def diagonal_of_multilinear(form: MultilinearForm) -> Tuple[np.ndarray, float]:
    """Diagonal sequence phi(e_n,...,e_n) and its dual-exponent norm.

    The norm exponent is p/(p-k) when k < p and inf when p <= k; at desk
    scale the value stays below the sup norm of the form itself.
    """
    d = form.diagonal()
    return d, lq_norm(d, form.params.dual_exponent)


# ---------------------------------------------------------------------------
# Multilinear sup-norm estimation (oracle machinery)
# ---------------------------------------------------------------------------

def _holder_slot_witness(grad: np.ndarray, p: float) -> np.ndarray:
    """Unit-l_p maximizer x of Re <grad, x>; attains ||grad||_{p'}."""
    mags = np.abs(grad)
    if not np.any(mags > 0):
        raise ValueError("zero gradient has no unique witness")
    if p == 1.0:
        i = int(np.argmax(mags))
        x = np.zeros_like(grad)
        x[i] = np.conj(phase(grad[i]))
        return x
    q = holder_conjugate(p)
    total = lq_norm(grad, q)
    unit_phases = np.where(mags > 0, np.conj(grad) / np.where(mags > 0, mags, 1.0), 0.0)
    return unit_phases * (mags / total) ** (q - 1.0)


def multilinear_norm_ascent(form: MultilinearForm, restarts: int = 20,
                            iters: int = 60, seed: int = 0) -> float:
    """Alternating-maximization estimate of sup |phi(x_1,...,x_k)| over unit l_p vectors.

    Each slot update replaces x_j by the exact Hoelder maximizer against the
    gradient of the remaining slots, so sweeps are monotone; the estimate is
    the best value over seeded restarts and is always a valid lower bound.
    Real forms are optimized over real vectors.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    n, k, p = form.dim, form.degree, form.params.p
    if n == 0 or not np.any(np.abs(form.coeffs) > 0):
        return 0.0
    real_form = bool(np.all(form.coeffs.imag == 0))
    rng = np.random.default_rng(seed)
    best = 0.0
    for restart in range(restarts):
        if restart == 0:
            xs = [np.full(n, 1.0, dtype=complex) for _ in range(k)]
        else:
            xs = []
            for _ in range(k):
                v = rng.standard_normal(n)
                if not real_form:
                    v = v + 1j * rng.standard_normal(n)
                xs.append(v.astype(complex))
        xs = [x / lq_norm(x, p) for x in xs]
        previous = -1.0
        stalled = 0
        for _ in range(iters):
            for j in range(k):
                grad = form.partial_gradient(xs, j)
                if not np.any(np.abs(grad) > 0):
                    continue
                xs[j] = _holder_slot_witness(grad, p)
            value = abs(form.apply(xs))
            if value - previous <= 1e-14 * max(1.0, value):
                stalled += 1
                if stalled >= 3:
                    break
            else:
                stalled = 0
            previous = value
        best = max(best, abs(form.apply(xs)))
    return best


def _directions_from_angles(angles: np.ndarray, n: int, p: float) -> np.ndarray:
    """Batch of unit-l_p vectors in R^n from (batch, n-1) angle rows."""
    if n == 2:
        v = np.stack([np.cos(angles[:, 0]), np.sin(angles[:, 0])], axis=1)
    elif n == 3:
        theta, psi = angles[:, 0], angles[:, 1]
        v = np.stack(
            [np.sin(theta) * np.cos(psi), np.sin(theta) * np.sin(psi), np.cos(theta)],
            axis=1,
        )
    else:
        raise ValueError("grid search supports n in {2, 3} only")
    norms = np.sum(np.abs(v) ** p, axis=1, keepdims=True) ** (1.0 / p)
    return v / norms


def _grid_values(coeffs: np.ndarray, angle_batch: np.ndarray, n: int, k: int,
                 p: float) -> np.ndarray:
    """|phi| maximized over the last slot, for each row of gridded-slot angles."""
    q = holder_conjugate(p)
    out = None
    for s in range(k - 1):
        block = angle_batch[:, s * (n - 1):(s + 1) * (n - 1)]
        dirs = _directions_from_angles(block, n, p)
        if out is None:
            letters = "abcdef"[:k]
            out = np.einsum(letters + ",i" + letters[0] + "->i" + letters[1:], coeffs, dirs)
        else:
            out = np.einsum("i" + "abcdef"[: k - s] + ",ia->i" + "bcdef"[: k - s - 1], out, dirs)
    if q == math.inf:
        return np.max(np.abs(out), axis=1)
    return np.sum(np.abs(out) ** q, axis=1) ** (1.0 / q)


def multilinear_norm_grid(form: MultilinearForm, coarse: int = 24, rounds: int = 8,
                          top: int = 5, refine_points: int = 9) -> float:
    """Zooming dense grid estimate of the sup norm of a real multilinear form.

    Grids the first k-1 slots over angle parametrizations of the real unit
    sphere (n in {2, 3}) and closes the last slot with the exact Hoelder
    maximizer; the best coarse cells are refined by repeated shrinking grids.
    Supports k in {2, 3}.  Used to cross-validate the ascent estimate.
    """
    n, k, p = form.dim, form.degree, form.params.p
    if n not in (2, 3):
        raise ValueError("grid search supports n in {2, 3} only")
    if k not in (2, 3):
        raise ValueError("grid search supports k in {2, 3} only")
    if np.any(form.coeffs.imag != 0):
        raise ValueError("grid search supports real forms only")
    coeffs = form.coeffs.real.astype(float)
    if not np.any(np.abs(coeffs) > 0):
        return 0.0

    adim = n - 1
    slots = k - 1
    # theta spans [0, pi] for the polar angle of S^2, full circle otherwise
    ranges = []
    for _ in range(slots):
        if n == 2:
            ranges.append((0.0, 2.0 * math.pi))
        else:
            ranges.append((0.0, math.pi))
            ranges.append((0.0, 2.0 * math.pi))
    dims = slots * adim

    coarse_n = coarse if n == 3 else max(coarse, 64)
    axes = [np.linspace(lo, hi, coarse_n, endpoint=False) for lo, hi in ranges]
    mesh = np.meshgrid(*axes, indexing="ij")
    batch = np.stack([m.reshape(-1) for m in mesh], axis=1)
    values = _grid_values(coeffs, batch, n, k, p)
    order = np.argsort(values)[::-1][:top]

    best = float(values[order[0]])
    spacing = np.array([(hi - lo) / coarse_n for lo, hi in ranges])
    for cand in order:
        center = batch[cand].copy()
        width = spacing.copy()
        for _ in range(rounds):
            local_axes = [
                np.linspace(center[d] - width[d], center[d] + width[d], refine_points)
                for d in range(dims)
            ]
            local_mesh = np.meshgrid(*local_axes, indexing="ij")
            local_batch = np.stack([m.reshape(-1) for m in local_mesh], axis=1)
            local_values = _grid_values(coeffs, local_batch, n, k, p)
            j = int(np.argmax(local_values))
            center = local_batch[j].copy()
            best = max(best, float(local_values[j]))
            width *= 0.35
    return best
