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
sup norms have no closed form.  Alternating ascent with exact Hoelder slot
updates gives a lower bound; at tiny dimension (n, k in {2, 3}) a branch and
bound over cones encloses the sup norm between a lower and a proven upper
bound, against which the ascent is judged.

The ascent runs all its restarts as one (restarts, k, n) array, the l_p power
method / HOPM iteration on many starts at once, with one einsum per slot
update and a per-restart stall counter that drops converged restarts; its
loop calls no checked method.  The enclosure bounds all its open boxes a
round at a time, closing the last slot by Hoelder and bounding the others
over pyramids that touch the unit sphere to second order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .numerics import (
    ASCENT_CERTIFICATE_TARGET,
    MAX_ASCENT_STEPS,
    MAX_ENCLOSURE_BOXES,
    MAX_FORM_ENTRIES,
    MAX_POLARIZE_COST,
    MAX_POLARIZE_DEGREE,
    BudgetError,
    LpParams,
    Scalar,
    check_budget,
    ensure_finite,
    holder_conjugate,
    lq_norm,
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

    Phase alignment reduces the problem to maximizing f(t) = sum w_n t_n^k
    over nonnegative unit vectors t, with w = |c| / max|c|; each step
    applies the Hoelder-equality update t <- normalize((w t^{k-1})^{1/(p-1)}),
    which never decreases f.  Starts: a uniform vector, the basis vectors
    (as `restarts` allows), then seeded random points; the result is the best
    value over the starts, scaled back by max|c| (the norm is positively
    homogeneous, so no power overflows).  Deterministic for fixed arguments.

    k < p: each restart stops on a certificate, and `iters` does not cap it.
    On the positive vectors of one support, Hilbert's projective metric
    d(x, y) = log max_i(x_i / y_i) + log max_i(y_i / x_i) is multiplied by
    a under t -> t^a and unchanged by t -> w t and by normalization, so the
    update contracts it by r = (k-1)/(p-1) < 1 (Birkhoff 1957; Bushell
    1973).  Summing the geometric tail of the later steps gives

        d(t_m, t*) <= r/(1-r) d(t_m, t_{m-1}) = r/(1-r) delta_m

    for the fixed point t* on that support.  Both t_m and t* are unit l_p
    vectors, so neither dominates the other and min_i t_{m,i} / t*_i <= 1:
    t_m >= e^{-d} t* componentwise, and f(t_m) >= e^{-k d} f(t*).  A
    restart is done once 1 - exp(-k r/(1-r) delta_m) <= 1e-9
    (ASCENT_CERTIFICATE_TARGET), where k r/(1-r) = k(k-1)/(p-k).  delta_m
    is taken on the row's own support, and a row whose zero pattern changed
    in the step is not done.  A row on a face (some t_i = 0) bounds only
    that face's maximum; the uniform and random starts have full support,
    whose fixed point is the global maximizer, so they certify the norm.  A
    basis vector is a fixed point with delta = 0 and stops after one step;
    at k = 1 (r = 0) the first step takes every start to the maximizer.

    Budget: in exact arithmetic delta_m = r delta_{m-1}, and float steps
    keep delta above a roundoff floor of at most _DELTA_FLOOR.  So a row at
    delta_m is not checked again before r^j delta_m meets the target, and it
    needs log((reach - floor) / delta_m) / log r more steps, reach the
    distance that meets the target.  A count past MAX_ASCENT_STEPS, or reach
    at or below the floor, raises BudgetError at the first check that sees
    it, as does a row still running at the cap.

    p <= k: the contraction does not apply.  A restart stops when a step
    leaves it bitwise unchanged, or returns it bitwise to the iterate of two
    steps back (a last-ulp 2-cycle): every later step then repeats with
    period 2, so the state after `iters` steps is known by parity.  `iters`
    caps the steps, and the result is that of running all `iters` steps.  At
    p = 1 the update is the basis vector at the largest gradient entry.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    w = np.abs(poly.coeffs)
    n = poly.dim
    if n == 0 or not np.any(w > 0):
        return 0.0
    top = float(np.max(w))
    p, k = poly.params.p, poly.params.k
    values, _ = _ascent(w / top, k, p, _ascent_starts(n, p, restarts, seed), iters)
    return top * float(np.max(values))


def _ascent_starts(n: int, p: float, restarts: int, seed: int) -> np.ndarray:
    """norm_numeric's unit l_p start rows: uniform, the basis vectors as
    `restarts` allows, then seeded random points."""
    rng = np.random.default_rng(seed)
    rows = [np.full(n, 1.0)]
    for j in range(min(n, restarts - 1)):
        basis = np.zeros(n)
        basis[j] = 1.0
        rows.append(basis)
    while len(rows) < restarts:
        rows.append(rng.random(n) + 1e-3)
    T = np.stack(rows[:restarts])
    # max-scaled norms: an unscaled power sum of a random row underflows to 0
    # from p of about 300 on
    return T / _lq_columns(T.T, p)[:, None]


# Roundoff floor of norm_numeric's step distance delta.  In log coordinates a
# float step is the exact step, an affine map that contracts spreads (max
# minus min) by r, plus an error of at most 6u per entry (u = 2^-53: two
# powers of at most 2u, a product and a quotient), so the error spans at most
# 12u.  The spread e of the iterate's offset from the exact fixed point then
# obeys e <= r e + 12u, so (1 - r) e <= 12u, and delta, the spread of
# (r - 1) e plus an error, is at most 24u; forming delta adds a quotient and a
# log.  Twice that leaves room for powers rounded to 4u.  (On 300 random
# inputs with p - k from 1e-3 to 30, converged rows never showed more than 2u.)
_DELTA_FLOOR = 64 * 2.0 ** -53


def _ascent(w: np.ndarray, k: int, p: float, T: np.ndarray,
            iters: int) -> Tuple[np.ndarray, np.ndarray]:
    """norm_numeric's ascent from the unit start rows of T: the objective
    sum w t^k of each row where it stopped, and the steps it took."""
    certified = k < p
    if certified:
        # the delta at which 1 - exp(-k(k-1) delta / (p-k)) meets the target
        reach = -math.log1p(-ASCENT_CERTIFICATE_TARGET) * (p - k) / (k * (k - 1)) \
            if k > 1 else math.inf
        check = 1
    exponent = 1.0 / (p - 1.0) if p > 1.0 else 0.0
    values = np.zeros(T.shape[0])
    steps = np.zeros(T.shape[0], dtype=int)
    live = np.arange(T.shape[0])
    before = T  # the iterate one step before T
    for step in range(1, (MAX_ASCENT_STEPS if certified else iters) + 1):
        grad = w * T ** (k - 1)
        if p == 1.0:
            # l_1 sphere: the linearized maximizer is a basis vector.
            new = np.zeros_like(T)
            new[np.arange(T.shape[0]), np.argmax(grad, axis=1)] = 1.0
        else:
            candidate = grad ** exponent
            norms = (candidate ** p).sum(axis=1, keepdims=True) ** (1.0 / p)
            new = np.divide(candidate, norms, out=T.copy(), where=norms > 0)
        if not certified:
            # from a fixed point or a 2-cycle on, the iterates repeat with
            # period 2, so the row's state after `iters` steps is new when
            # iters - step is even and T when it is odd
            done = (new == T).all(axis=1) | (new == before).all(axis=1)
        elif step < check:
            T = new
            continue
        else:
            # Off the support both entries are 0 and the ratio NaN, which
            # fmax and fmin skip.  Zeros never fill in at k >= 2, so a changed
            # zero pattern shows as a zero ratio: an infinite distance.
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = new / T
                delta = np.log(np.fmax.reduce(ratio, axis=1) / np.fmin.reduce(ratio, axis=1))
            done = delta <= reach
            check = step + 1
            pending = delta[~done]
            if pending.size and pending.max() < math.inf:
                _check_ascent_budget(step, float(pending.max()), reach, k, p)
                # in exact arithmetic delta shrinks by r per step, so no
                # row can be done sooner
                check = step + _steps_to_shrink(float(pending.min()), reach, k, p)
        final = new if certified or (iters - step) % 2 == 0 else T
        T, before = new, T
        if done.any():
            values[live[done]] = (w * final[done] ** k).sum(axis=1)
            steps[live[done]] = step
            T, before, live = T[~done], before[~done], live[~done]
            if not live.size:
                return values, steps
    if certified:
        raise BudgetError("certified norm ascent step", f"more than {MAX_ASCENT_STEPS}",
                          "steps", MAX_ASCENT_STEPS)
    values[live] = (w * T ** k).sum(axis=1)
    steps[live] = iters
    return values, steps


def _steps_to_shrink(delta: float, goal: float, k: int, p: float) -> int:
    """Steps j for delta r^j to fall to goal, r = (k-1)/(p-1)."""
    return math.ceil(math.log(goal / delta) / math.log((k - 1) / (p - 1)))


def _check_ascent_budget(step: int, delta: float, reach: float, k: int, p: float) -> None:
    """Raise BudgetError unless a row at step distance delta after `step`
    steps meets the certificate within MAX_ASCENT_STEPS steps."""
    if reach <= _DELTA_FLOOR:
        raise BudgetError(f"certified norm ascent step (target below the roundoff floor "
                          f"at p - k = {p - k:.3g})", math.inf, "steps", MAX_ASCENT_STEPS)
    needed = step + _steps_to_shrink(delta, reach - _DELTA_FLOOR, k, p)
    check_budget("certified norm ascent step", needed, "steps", MAX_ASCENT_STEPS)


# ---------------------------------------------------------------------------
# Diagonal extension, additivity, polarization, diagonal extraction
# ---------------------------------------------------------------------------

def extend_diagonal_functional(diag_values: Sequence[Scalar],
                               params: LpParams) -> MultilinearForm:
    """Dense symmetric form with the given diagonal and zero off-diagonal.

    This is the norm-preserving extension of a functional known on the
    diagonal basis tensors; the induced polynomial x -> form(x, ..., x) is
    orthogonally additive by construction.
    """
    d = np.asarray(diag_values, dtype=complex).reshape(-1)
    ensure_finite(d)
    n = d.shape[0]
    k = params.k
    check_budget("dense form entry", n ** k, "entries", MAX_FORM_ENTRIES)
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
    tol_behavioral * (|P(x)| + |P(y)| + 1); P is evaluated at all the x, y
    and x + y together, validated once.  The two checks agree on any form
    that cleanly satisfies or violates additivity.

    The behavioral check runs on P_s = P / s, s the power of two at or below
    the largest coefficient modulus (at least 2^-1022), and compares
    |P_s(x+y) - P_s(x) - P_s(y)| with tol_behavioral * (|P_s(x)| + |P_s(y)|
    + 1/s), the same test, so no value overflows however large the
    coefficients are.  Dividing by a power of two is exact, so away from
    overflow and underflow every defect and verdict is what the unscaled
    check gives.  The reported defect is scaled back by s and reads inf past
    the float range.
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
    if n >= 2 and scale > 0:
        # numpy divides a complex array by multiplying with 1/unit, which
        # must stay finite: unit is at least the least normal power of two
        unit = math.ldexp(1.0, max(math.frexp(scale)[1] - 1, -1022))
        rng = np.random.default_rng(seed)
        xs = np.zeros((samples, n), dtype=complex)
        ys = np.zeros((samples, n), dtype=complex)
        for row in range(samples):
            perm = rng.permutation(n)
            cut = int(rng.integers(1, n))
            xs[row, perm[:cut]] = rng.standard_normal(cut) + 1j * rng.standard_normal(cut)
            ys[row, perm[cut:]] = rng.standard_normal(n - cut) + 1j * rng.standard_normal(n - cut)
        # P at every x, y and x + y: one matmul for the first slot, then one
        # batched contraction per further slot
        points = ensure_finite(np.concatenate([xs, ys, xs + ys]))
        values = points @ (coeffs / unit).reshape(n, n ** (k - 1))
        values = values.reshape((len(points),) + (n,) * (k - 1))
        for _ in range(k - 1):
            values = np.einsum("si,si...->s...", points, values)
        px, py, pxy = values.reshape(3, samples)
        defects = np.abs(pxy - px - py)
        allowance = tol_behavioral * (np.abs(px) + np.abs(py) + 1.0 / unit)
        worst_defect = unit * float(np.max(defects, initial=0.0))
        behavioral_ok = not bool(np.any(defects > allowance))
    return AdditivityReport(
        additive=structural_ok,
        structural_ok=structural_ok,
        behavioral_ok=behavioral_ok,
        worst_offdiagonal_index=worst_index,
        worst_offdiagonal_ratio=worst_ratio,
        worst_behavioral_defect=worst_defect,
    )


def polarize(poly: Callable[[np.ndarray], Scalar], dim: int,
             params: LpParams) -> MultilinearForm:
    """Unique symmetric k-linear form phi with phi(x, ..., x) = poly(x).

    Uses the sign-average polarization identity
    phi(x_1,...,x_k) = 1/(2^k k!) sum_{eps in {+-1}^k} eps_1...eps_k
    poly(eps_1 x_1 + ... + eps_k x_k), evaluated on basis tuples.
    """
    k = params.k
    check_budget("polarization degree", k, "slots", MAX_POLARIZE_DEGREE)
    check_budget("polarization evaluation", (2 ** k) * dim ** k, "evaluations",
                 MAX_POLARIZE_COST)
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

def _lq_columns(v: np.ndarray, q: float) -> np.ndarray:
    """l_q norms (q >= 1 or inf) over the first axis of v.  Each column is
    scaled by its largest modulus before the powers are taken, as in
    lq_norm, but summed in order rather than with math.fsum; a zero column
    has norm 0."""
    mags = np.abs(v)
    top = np.max(mags, axis=0)
    if q == math.inf:
        return top
    ratios = mags / np.where(top > 0, top, 1.0)
    return top * np.sum(ratios ** q, axis=0) ** (1.0 / q)


def _holder_slot_witness(grad: np.ndarray, p: float) -> np.ndarray:
    """Unit-l_p maximizers x of Re <g, x>, one per nonzero row g of grad;
    each attains ||g||_{p'}.  At p = 1 it is the basis vector at the first
    index of largest |g_i|, with the phase that makes <g, x> real."""
    mags = np.abs(grad)
    if p == 1.0:
        rows = np.arange(grad.shape[0])
        top = np.argmax(mags, axis=1)
        g, m = grad[rows, top], mags[rows, top]
        x = np.zeros_like(grad)
        x[rows, top] = g.real / m - 1j * (g.imag / m)
        return x
    q = holder_conjugate(p)
    total = _lq_columns(grad.T, q)[:, None]
    unit_phases = np.where(mags > 0, np.conj(grad) / np.where(mags > 0, mags, 1.0), 0.0)
    return unit_phases * (mags / total) ** (q - 1.0)


def multilinear_norm_ascent(form: MultilinearForm, restarts: int = 20,
                            iters: int = 60, seed: int = 0) -> float:
    """Alternating-maximization estimate of sup |phi(x_1,...,x_k)| over unit l_p vectors.

    Each slot update replaces x_j by the exact Hoelder maximizer against the
    gradient of the remaining slots, so sweeps are monotone; the estimate is
    the best value over seeded restarts and is always a valid lower bound.
    Real forms are optimized over real vectors.  The first restart starts at
    the all-ones vectors, the others at seeded Gaussian vectors.

    The restarts run together as one (restarts, k, n) array, the l_p power
    method / HOPM iteration run on many starts at once: each slot update is
    one einsum over the live restarts, and a restart whose gradient
    vanishes keeps that slot.  A restart leaves the live set once its value
    has gained at most 1e-14 relative in three sweeps running.  The form was
    validated when it was built, so the loop calls no checked method.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    n, k, p = form.dim, form.degree, form.params.p
    coeffs = form.coeffs
    if n == 0 or not np.any(np.abs(coeffs) > 0):
        return 0.0
    real_form = bool(np.all(coeffs.imag == 0))
    rng = np.random.default_rng(seed)
    xs = np.ones((restarts, k, n), dtype=complex)
    draws = rng.standard_normal((restarts - 1, k, 1 if real_form else 2, n))
    xs[1:] = draws[:, :, 0] if real_form else draws[:, :, 0] + 1j * draws[:, :, 1]
    xs /= _lq_columns(np.moveaxis(xs, -1, 0), p)[..., None]

    letters = "abcdefghijklmnopqrstuvwxy"[:k]
    slot_specs = [",".join([letters] + ["z" + letters[i] for i in range(k) if i != j])
                  + "->z" + letters[j] for j in range(k)]
    value_spec = ",".join([letters] + ["z" + c for c in letters]) + "->z"
    previous = np.full(restarts, -1.0)
    stalled = np.zeros(restarts, dtype=int)
    best = 0.0
    for _ in range(iters):
        for j in range(k):
            grad = np.einsum(slot_specs[j], coeffs, *(xs[:, i] for i in range(k) if i != j))
            moving = np.any(np.abs(grad) > 0, axis=1)
            xs[moving, j] = _holder_slot_witness(grad[moving], p)
        value = np.abs(np.einsum(value_spec, coeffs, *(xs[:, i] for i in range(k))))
        stalled = np.where(value - previous <= 1e-14 * np.maximum(1.0, value), stalled + 1, 0)
        previous = value
        live = stalled < 3
        if not np.all(live):
            best = max(best, float(np.max(value[~live])))
            xs, previous, stalled = xs[live], previous[live], stalled[live]
            if not xs.shape[0]:
                break
    return max(best, float(np.max(previous, initial=0.0)))


# Relative gap at which the enclosure closes: a tenth of the 1e-4
# grid_agreement check, so its own slack takes at most a tenth of that check.
_ENCLOSURE_GAP = 1e-5
# Relative margin on every box's upper bound against float error; derived in
# multilinear_norm_grid.
_ENCLOSURE_MARGIN = 2.0 ** -40
# box tuples bounded at once: about 0.4 MB per temporary array at n = k = 3
_ENCLOSURE_CHUNK = 2 ** 10
# _CORNERS[n][i, v]: whether box vertex v takes hi over lo in local coordinate
# i; never in the last one, the face's fixed 1
_CORNERS = {n: np.array([c + (False,) for c in itertools.product((False, True), repeat=n - 1)]).T
            for n in (2, 3)}


def _box_bounds(coeffs: np.ndarray, faces: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                p: float, q: float) -> Tuple[np.ndarray, np.ndarray]:
    """Lower and upper bound of N (see multilinear_norm_grid) over each
    tuple of slot boxes.  faces is (slots, boxes); lo and hi are (slots, n,
    boxes) in local coordinates, the face's 1 last: local coordinate j is
    coordinate (f + 1 + j) mod n of R^n."""
    slots, n = lo.shape[:2]
    corners = _CORNERS[n]
    vertices = corners.shape[1]
    local = np.concatenate([np.where(corners[:, None], hi[..., None], lo[..., None]),
                            (lo + hi)[..., None] / 2], axis=-1)
    order = (np.arange(n)[:, None] - faces[:, None] - 1) % n
    # points[s, i, box, v]: coordinate i of vertex v (the centre last) of slot s
    points = np.take_along_axis(local, order[..., None], axis=1)
    # the vertex tuples, slot 0 most significant, then the tuple of centres
    tuples = np.array(list(itertools.product(range(vertices), repeat=slots))
                      + [(vertices,) * slots]).T
    values = sum(coeffs[a][..., None, None] * points[0, a] for a in range(n))
    if slots == 1:
        values = values[..., tuples[0]]
    else:
        values = sum(values[b][..., tuples[0]] * points[1, b][:, tuples[1]] for b in range(n))
    values = _lq_columns(values, q)
    centre = points[..., -1]
    g = np.sign(centre) * np.abs(centre) ** (p - 1.0)
    g /= _lq_columns(g.transpose(1, 0, 2), q)[:, None]
    dots = np.sum(points[..., :vertices] * g[..., None], axis=1)
    scale = _lq_columns(points.transpose(1, 0, 2, 3), p)
    lower, upper = values, values[:, :-1]
    for s in range(slots):
        lower = lower / scale[s][:, tuples[s]]
        upper = upper / dots[s][:, tuples[s, :-1]]
    upper = np.max(upper, axis=1) * (1.0 + _ENCLOSURE_MARGIN)
    return np.max(lower, axis=1), np.where(np.all(dots > 0, axis=(0, 2)), upper, math.inf)


def _split_widest(faces: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Split each tuple's widest slot box (the first on ties) into its
    2^(n-1) halves, child-major."""
    widest = np.argmax(hi[:, 0] - lo[:, 0], axis=0)
    split = (np.arange(len(faces))[:, None] == widest)[:, None]
    mid = (lo + hi) / 2
    children = [(np.where(split & c[:, None], mid, lo), np.where(split & ~c[:, None], mid, hi))
                for c in _CORNERS[lo.shape[1]].T]
    return (np.tile(faces, len(children)), np.concatenate([c[0] for c in children], axis=-1),
            np.concatenate([c[1] for c in children], axis=-1))


def multilinear_norm_grid(form: MultilinearForm) -> Tuple[float, float]:
    """Certified enclosure (lower, upper) of sup |phi(x_1, ..., x_k)| over
    unit l_p vectors of a real form with n, k in {2, 3}, closed to
    (upper - lower) / lower <= _ENCLOSURE_GAP by branch and bound over cones
    (Horst & Tuy, Global Optimization).

    Hoelder closes the last slot: N(x_1, ..., x_{k-1}) =
    ||phi(x_1, ..., x_{k-1}, .)||_q, q = p'.  A sign change of a slot does
    not change N, so slots 1..k-1 range over the n positive faces
    {u_f = 1, |u_i| <= 1} of the l_inf cube, a box B on a face standing for
    its cone {t u : u in B}; for a symmetric form only face pairs
    f_1 <= f_2 start.  Per tuple of slot boxes, the lower bound is N at the
    tuple of box centres and at the vertex tuples, each divided by the l_p
    norms of its points.  For the upper bound, g = sign(c) |c|^(p-1), scaled
    to ||g||_q = 1, of a box centre c puts the unit ball in {<g, x> <= 1}
    and its part of the cone in the pyramid conv(0, u_a / <g, u_a>) over
    the box vertices u_a.  N is convex in each slot (a norm of a linear map
    of it), so its sup over the product of pyramids is its max
    N(u_a, ...) / prod <g, u_a> over the vertex tuples; the pyramids touch
    the sphere to second order, so the gap shrinks like the square of the
    box width.  A box with some <g, u_a> <= 0 has bound inf.  All open
    tuples are bounded a round at a time; a tuple is dropped once its upper
    bound is at most best * (1 + _ENCLOSURE_GAP), else its widest slot box
    is split into its 2^(n-1) halves.  upper is the largest bound of a
    dropped tuple: the maximizer lies in one of their cones.  More than
    MAX_ENCLOSURE_BOXES tuples raise BudgetError.

    Float margin.  Box coordinates are dyadic in [-1, 1], so vertices and
    centres are exact; u is the unit roundoff, S the sup, and every
    |phi_t| = |phi(e_t1, ..., e_tk)| <= S.  (a) The computed l_q norm of a
    row is within 6u relative, so the computed g has ||g||_q <= 1 + 8u and
    the ball lies in {<g, x> <= 1 + 8u}: each slot's pyramid grows by that
    factor.  (b) Splitting starts at 0, so below the whole face every box
    lies in a closed orthant and every term g_i u_i is >= 0 (on the whole
    face g = e_f): each <g, u_a> is within gamma_3 ~ 3u relative, and it is
    at least g_f >= n^(-1/q) >= 1/n.  (c) Each coordinate of phi(u_a, ...)
    rounds at most (k-1)n <= 6 times on a term's path, with |u_i| <= 1, so
    it errs by at most gamma_6 n^(k-1) S and the l_q norm of the errors by
    n^k gamma_6 S <= 163u S.  Let u* be the vertex tuple of the box tuple
    holding the maximizer that attains its exact bound; that bound is at
    least S, so N(u*) >= S prod <g, u*_a> / (1 + 8u)^(k-1), at least
    S / (n^(k-1) (1 + 8u)^(k-1)), and (c) is at most 9 * 163u ~ 1470u of
    N(u*).  With (a), (b), the norm in (c) and the products and quotients,
    the computed bound of u* is at least S (1 - 1500u), about
    S (1 - 1.7e-13).  The margin 2^-40 ~ 9.1e-13 is five times that.
    """
    n, k, p = form.dim, form.degree, form.params.p
    if n not in (2, 3) or k not in (2, 3):
        raise ValueError("the sup-norm enclosure supports n, k in {2, 3} only")
    if np.any(form.coeffs.imag != 0):
        raise ValueError("the sup-norm enclosure supports real forms only")
    coeffs = form.coeffs.real
    if not np.any(coeffs):
        return 0.0, 0.0
    q = holder_conjugate(p)
    faces = np.array([f for f in itertools.product(range(n), repeat=k - 1)
                      if not form.symmetric or list(f) == sorted(f)]).T
    lo = np.full((k - 1, n, faces.shape[1]), -1.0)
    lo[:, -1] = 1.0
    hi = np.ones_like(lo)
    best = upper = 0.0
    visited = faces.shape[1]
    while faces.shape[1]:
        chunks = [_box_bounds(coeffs, faces[:, i:i + _ENCLOSURE_CHUNK],
                              lo[..., i:i + _ENCLOSURE_CHUNK], hi[..., i:i + _ENCLOSURE_CHUNK], p, q)
                  for i in range(0, faces.shape[1], _ENCLOSURE_CHUNK)]
        lower, bound = (np.concatenate(parts) for parts in zip(*chunks))
        best = max(best, float(lower.max()))
        done = bound <= best * (1.0 + _ENCLOSURE_GAP)
        upper = max(upper, float(bound[done].max(initial=0.0)))
        faces, lo, hi = faces[:, ~done], lo[..., ~done], hi[..., ~done]
        # checked before the children are built
        visited += faces.shape[1] * 2 ** (n - 1)
        check_budget("sup-norm enclosure box", visited, "boxes", MAX_ENCLOSURE_BOXES)
        faces, lo, hi = _split_widest(faces, lo, hi)
    return best, upper
