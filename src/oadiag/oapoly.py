"""Orthogonally additive k-homogeneous polynomials on finite-dimensional l_p.

An orthogonally additive polynomial is determined by its diagonal
coefficients: P(x) = sum_n c_n x_n^k.  Its norm over the unit ball of l_p
has a closed form, the l_{p/(p-k)} norm of c when k < p and max |c_n| when
p <= k, attained at an explicit witness.  An independent projected-ascent
optimizer re-derives the value numerically.

The module also carries the dense multilinear-form side: diagonal extension
of a coefficient sequence to a symmetric form vanishing off the diagonal,
structural/behavioral additivity checks, and diagonal extraction with the
dual-exponent norm.  Multilinear sup norms have no closed form.  Alternating
ascent with exact Hoelder slot updates gives a lower bound; at tiny dimension
(n, k in {2, 3}) a branch and bound over cones encloses the sup norm between
a lower and a proven upper bound, against which the ascent is judged.

The ascent runs all its restarts together, one (restarts, n) array per slot,
the l_p power method / HOPM iteration on many starts at once, with one einsum
per slot update and a per-restart stall counter that drops converged
restarts; its loop calls no checked method.  The enclosure bounds all its
open box tuples a round at a time, closing the last slot by Hoelder and
bounding the others over pyramids that touch the unit sphere to second
order.  Tuples are arrays of ids into one table of boxes that the slots
share, each chunk of tuples bounds its distinct boxes once, and a value the
ascent attained, passed as the incumbent, starts the best lower bound.  When
the coefficients are symmetric in the two box slots, only one tuple of each
mirror pair is searched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .numerics import (
    ASCENT_CERTIFICATE_TARGET,
    MAX_ASCENT_STEPS,
    MAX_DENSE_DEGREE,
    MAX_ENCLOSURE_BOXES,
    MAX_FORM_ENTRIES,
    MAX_START_ENTRIES,
    BudgetError,
    CoefficientVector,
    LpParams,
    Scalar,
    _phase_roots,
    _power_of_two_below,
    check_budget,
    ensure_finite,
    holder_conjugate,
    lq_norm,
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
    "diagonal_of_multilinear",
    "multilinear_norm_ascent",
    "multilinear_norm_grid",
]


class OrthAddPolynomial(CoefficientVector):
    """P(x) = sum_n coeffs[n] * x_n^k; coeffs[n] = P(e_n)."""


@dataclass(frozen=True, eq=False)
class MultilinearForm:
    """phi(x_1,...,x_k) = sum over index tuples of coeffs[t] x_1[t_1]...x_k[t_k]."""

    coeffs: np.ndarray
    params: LpParams

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
        return self.coeffs.shape[0]

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
        """The average of the coefficients over all k! orders of the slots;
        the form itself when is_symmetric() holds.  Both induce the same
        polynomial x -> phi(x, ..., x)."""
        if self.is_symmetric():
            return self
        k = self.degree
        acc = np.zeros_like(self.coeffs)
        for perm in itertools.permutations(range(k)):
            acc = acc + np.transpose(self.coeffs, axes=perm)
        return MultilinearForm(acc / math.factorial(k), self.params)

    def is_symmetric(self) -> bool:
        """Whether every order of the slots leaves the coefficients exactly
        unchanged.  The swap of slots 0 and 1 and the cyclic shift generate
        all k! orders, so those two are checked."""
        c = self.coeffs
        if c.ndim < 2:
            return True
        shifted = c.transpose(tuple(range(1, c.ndim)) + (0,))
        return bool(np.logical_and.reduce(c == c.swapaxes(0, 1), axis=None)
                    and np.logical_and.reduce(c == shifted, axis=None))

    def diagonal(self) -> np.ndarray:
        """The sequence phi(e_n, ..., e_n)."""
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
    return complex(np.add.reduce(poly.coeffs * vec ** poly.params.k, axis=None))


def norm_closed_form(poly: OrthAddPolynomial) -> float:
    """sup over the unit l_p ball of |P|: ||c||_{p/(p-k)} if k < p, max|c_n| if p <= k."""
    return lq_norm(poly.coeffs, poly.params.dual_exponent)


def norm_witness(poly: OrthAddPolynomial) -> Tuple[np.ndarray, float]:
    """Unit vector attaining the polynomial norm, with the attained |P| value.

    k < p: x*_i is |c_i|^{1/(p-k)} normalized in l_p, with the phase of each
    entry chosen so c_i (x*_i)^k is real and nonnegative.  p <= k: the basis
    vector at the first index of maximal |c_n|.  The witness is homogeneous
    of degree 0 in c, so it is formed from the ratios |c_i| / max|c|, whose
    powers never overflow.

    For k < p the value is not |P| at the rounded witness, whose k-th powers
    multiply the rounding of each entry by k.  The witness maximizes
    R(x) = |P(x)| / ||x||_p^k over every x != 0, so a perturbation of x
    moves R only at second order; R is formed from the moduli before their
    normalization, r = |x| / max|x| = (|c_i| / max|c|)^(1/(p-k)):

        R = max|c| * sum_i (|c_i| / max|c|) r_i^k / (sum_i r_i^p)^(k/p),

    times the alignment |P(x)| / sum_i |c_i x_i^k|, which is 1 when every
    c_i x_i^k is real and nonnegative and falls at second order in the
    spread of their phases.  R and P are formed at the scale of the power of
    two at or below max|c|, so no term overflows or underflows.
    """
    mags = np.abs(poly.coeffs)
    if not np.logical_or.reduce(mags > 0, axis=None):
        raise ValueError("the zero polynomial has no norm witness")
    p, k = poly.params.p, poly.params.k
    top = float(np.maximum.reduce(mags, axis=None))
    if not poly.params.k_less_than_p:
        witness = np.zeros(poly.dim, dtype=complex)
        witness[int(np.argmax(mags))] = 1.0
        return witness, top  # |P(e_i)| = |c_i|, exactly
    ratios = mags / top
    radial = ratios ** (1.0 / (p - k))
    denom = np.add.reduce(ratios ** (p / (p - k)), axis=None) ** (1.0 / p)
    phases = np.array(_phase_roots(poly.coeffs.conj().tolist(), k))
    witness = phases * (radial / denom)
    # top times the sum can overflow, or lose bits below the normal range,
    # where top / unit does neither: unit goes on last
    unit = _power_of_two_below(top)
    stationary = (top / unit * np.add.reduce(ratios * radial ** k, axis=None)
                  / np.add.reduce(radial ** p, axis=None) ** (k / p) * unit)
    scaled = OrthAddPolynomial(poly.coeffs / unit, poly.params)
    alignment = (abs(evaluate(scaled, witness))
                 / np.add.reduce(np.abs(scaled.coeffs * witness ** k), axis=None))
    return witness, float(stationary * alignment)


def norm_numeric(poly: OrthAddPolynomial, restarts: int = 20, iters: int = 500,
                 seed: int = 0) -> float:
    """Projected-ascent lower bound on the polynomial norm over the l_p sphere.

    Phase alignment reduces the problem to maximizing f(t) = sum w_n t_n^k
    over nonnegative unit vectors t, with w = |c| / max|c|; each step
    applies the Hoelder-equality update t <- normalize((w t^{k-1})^{1/(p-1)}),
    which never decreases f.  Starts: the n basis vectors e_i, each taken at
    its exact value w_i without iterating it (for p <= k the norm is reached
    only there, and each is a fixed point of the update), a uniform vector,
    and seeded random points for the rest of `restarts`, from a generator
    built only when there are any (restarts > n + 1); the result is the
    best value over the starts, scaled back by max|c| (the norm is
    positively homogeneous, so no power overflows).  Deterministic for fixed
    arguments.

    k < p: each restart stops on a certificate, and `iters` does not cap it.
    On the positive vectors of one support, Hilbert's projective metric
    d(x, y) = log max_i(x_i / y_i) + log max_i(y_i / x_i) is multiplied by
    a under t -> t^a and unchanged by t -> w t and by normalization, so the
    update contracts it by r = (k-1)/(p-1) < 1 (Birkhoff 1957; Bushell
    1973).  Summing the geometric tail of the later steps gives

        d(t_m, t*) <= r/(1-r) d(t_m, t_{m-1}) = r/(1-r) delta_m

    for the fixed point t* on that support.  Both t_m and t* are unit l_p
    vectors, so neither dominates the other and min_i t_{m,i} / t*_i <= 1:
    t_m >= e^{-d} t* componentwise, and f(t_m) >= e^{-k d} f(t*).  That
    bound is first order in d; a second-order one follows from Hoelder
    equality at t*.  There w_i t*_i^{k-1} is proportional to t*_i^{p-1}, so
    with pi_i = t*_i^p (summing to 1) and s = log(t_m / t*) on the support,
    w_i t*_i^k is proportional to pi_i and

        f(t_m) / f(t*) = exp(phi(k)),  phi(lam) = log sum_i pi_i exp(lam s_i),

    where phi(0) = 0 and phi(p) = log ||t_m||_p^p = 0.  phi is convex, and
    phi'' is a variance of s under weights proportional to pi e^{lam s},
    at most d^2 / 4 by Popoviciu's inequality on variances (1935), since
    max s - min s is exactly d.  Linear interpolation of phi between 0 and
    p, taken at k, is off by at most k (p-k) / 2 times max phi'', so

        f(t_m) >= exp(-k (p-k) d^2 / 8) f(t*).

    With d <= (k-1)/(p-k) delta_m (r/(1-r) = (k-1)/(p-k)), a restart is done
    once 1 - exp(-k (p-k) d^2 / 8) <= 1e-9 (ASCENT_CERTIFICATE_TARGET) is
    guaranteed, that is once delta_m <= sqrt(8 L (p-k) / (k (k-1)^2)), with
    L = -log(1 - 1e-9).  (The first-order reach, L (p-k) / (k (k-1)), is
    smaller by the factor sqrt(L (p-k) / (8 k)).)  delta_m is taken on the
    row's own support, and a row whose zero pattern changed in the step is
    not done.  A row on a face (some t_i = 0) bounds only that face's
    maximum; the uniform and random starts have full support, whose fixed
    point is the global maximizer, so they certify the norm.  At k = 1
    (r = 0) the first step takes every start to the maximizer.

    Budget: in exact arithmetic delta_m = r delta_{m-1}, and float steps
    keep delta above a roundoff floor of at most _DELTA_FLOOR.  So a row at
    delta_m is not checked again before r^j delta_m meets the target, and it
    needs log((reach - floor) / delta_m) / log r more steps, reach the
    distance that meets the target.  A count past MAX_ASCENT_STEPS, or reach
    at or below the floor, raises BudgetError at the first check that sees
    it, as does a row still running at the cap.

    p <= k: the contraction does not apply.  A restart stops when a step
    returns it bitwise to the iterate of two steps back (a last-ulp 2-cycle;
    a fixed point is one too, seen a step after it is reached): every later
    step then repeats with period 2, so the state after `iters` steps is
    known by parity.  `iters` caps the steps, and the result is that of
    running all `iters` steps.  At p = 1 the update is the basis vector at
    the largest gradient entry.

    Batches.  This is the one-polynomial call of _norms_numeric, which runs
    the ascents of many polynomials of one k, p and dimension through one
    loop, each with its own starts and seed and each on its own certificate
    schedule (see _ascent), so that every value keeps its bits.  A batch out
    of budget raises the BudgetError of its first polynomial out of budget,
    which calls of norm_numeric on each polynomial in turn would raise
    first.  sweep runs the trials of each (k, p, n) group that way, up to
    experiments.SWEEP_ASCENT_BATCH trials per call.
    """
    return _norms_numeric([poly], restarts, iters, [seed])[0]


def _norms_numeric(polys: Sequence[OrthAddPolynomial], restarts: int, iters: int,
                   seeds: Sequence[int]) -> List[float]:
    """norm_numeric of each polynomial, each with its own seed, all of one
    k, p and dimension.  The start rows of all the nonzero polynomials run
    through one _ascent loop, each polynomial its owner, so each value is bit
    for bit the one norm_numeric gives it alone: the same steps on the same
    rows, stopped by the same schedule.  Out of budget, it raises the first
    failing polynomial's BudgetError (the start budget depends only on the
    dimension and restarts, so the first nonzero polynomial fails it first)."""
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    if len(seeds) != len(polys):
        raise ValueError("each polynomial needs one seed")
    if any(poly.params != polys[0].params or poly.dim != polys[0].dim for poly in polys):
        raise ValueError("the polynomials must share k, p and their dimension")
    results = [0.0] * len(polys)
    owners, tops, weights, starts = [], [], [], []
    for i, (poly, seed) in enumerate(zip(polys, seeds)):
        w = np.abs(poly.coeffs)
        if np.logical_or.reduce(w, axis=None):  # some coordinate, and not all of them 0
            starts.append(_ascent_starts(poly.dim, poly.params.p, restarts, seed))
            owners.append(i)
            tops.append(float(np.maximum.reduce(w, axis=None)))
            weights.append(w / tops[-1])
    if not owners:
        return results
    counts = [len(rows) for rows in starts]
    values, _ = _ascent(np.array(weights), polys[0].params.k, polys[0].params.p,
                        np.concatenate(starts), iters, counts)
    best = np.maximum.reduceat(values, list(itertools.accumulate(counts[:-1], initial=0)))
    for i, top, value in zip(owners, tops, best.tolist()):
        # the basis starts' values are w / top, whose largest is exactly 1
        results[i] = top * max(value, 1.0)
    return results


def _ascent_starts(n: int, p: float, restarts: int, seed: int) -> np.ndarray:
    """norm_numeric's iterated unit l_p start rows: uniform, then seeded
    random points for the restarts left after the n basis vectors.  The
    generator is built only when random rows are drawn (restarts > n + 1);
    otherwise numpy.random, about 6 MB of modules, is never imported."""
    randoms = max(restarts - 1 - n, 0)
    check_budget("ascent start", randoms * n, "entries", MAX_START_ENTRIES)
    T = np.ones((1 + randoms, n))
    if randoms:
        T[1:] = np.random.default_rng(seed).random((randoms, n)) + 1e-3
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


def _ascent(w: np.ndarray, k: int, p: float, T: np.ndarray, iters: int,
            counts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """norm_numeric's ascent from the unit start rows of T: the objective
    sum w t^k of each row where it stopped, and the steps it took.

    The rows of T belong to owners, each a polynomial: owner i owns the
    counts[i] >= 1 rows after those of owners 0 to i-1.  w holds the weights
    of each owner, (owners, n), or 1-D for one.  Every row's arithmetic is
    its own (elementwise, or reduced along its own row), and each owner
    keeps the certificate schedule it has alone: its next check comes from
    the smallest pending delta of its own rows, and the budget is checked on
    its own largest.  So each row stops at the step, and with the value,
    that it has in a call of its owner's rows alone, while the numpy calls
    of a step serve every owner at once.  An owner whose certificate is out
    of budget stops there, and so do the owners after it, while the owners
    before it run on.  Once no row runs, the last BudgetError recorded is
    raised: that of the first owner out of budget, since every owner after a
    failed one had stopped.

    Each step normalizes: between checks the iterate is not needed, but the
    unnormalized powers underflow on a face at large k."""
    certified = k < p
    # per owner with live rows, in row order: its live row count and (k < p)
    # its next check step; w gets one row per row of T
    lengths = list(counts)
    w = w.reshape(-1, T.shape[1]).repeat(lengths, axis=0)
    error = None
    if certified:
        # the delta at which 1 - exp(-k (k-1)^2 delta^2 / (8 (p-k))) meets
        # the target
        reach = math.sqrt(-8.0 * math.log1p(-ASCENT_CERTIFICATE_TARGET) * (p - k)
                          / (k * (k - 1) ** 2)) if k > 1 else math.inf
        check = [1] * len(lengths)
        next_check = 1
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
            norms = np.add.reduce(candidate ** p, axis=1, keepdims=True) ** (1.0 / p)
            new = np.divide(candidate, norms, out=T.copy(), where=norms > 0)
        if not certified:
            # From a fixed point or a 2-cycle on, the iterates repeat with
            # period 2, so the row's state after `iters` steps is new when
            # iters - step is even and T when it is odd.  A fixed point is a
            # 2-cycle too, seen one step later, with the same state.
            done = np.logical_and.reduce(new == before, axis=1)
        elif step < next_check:
            T = new
            continue
        else:
            # Off the support both entries are 0 and the ratio NaN, which
            # fmax and fmin skip.  Zeros never fill in at k >= 2, so a changed
            # zero pattern shows as a zero ratio: an infinite distance, as is
            # a spread of ratios past the float range.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = new / T
                delta = np.log(np.fmax.reduce(ratio, axis=1) / np.fmin.reduce(ratio, axis=1))
            done = delta <= reach
            firsts = list(itertools.accumulate(lengths, initial=0))
            for run, at in enumerate(check):
                rows = slice(firsts[run], firsts[run + 1])
                if at != step:  # only the runs due now may finish rows
                    done[rows] = False
                    continue
                check[run] = step + 1
                pending = delta[rows][~done[rows]]
                slowest = float(np.maximum.reduce(pending)) if pending.size else math.inf
                if slowest < math.inf:
                    try:
                        _check_ascent_budget(step, slowest, reach, k, p)
                    except BudgetError as exc:
                        error = exc
                        done[rows.start:] = True
                        break
                    # in exact arithmetic delta shrinks by r per step, so no
                    # row of the run can be done sooner
                    check[run] = step + _steps_to_shrink(float(np.minimum.reduce(pending)),
                                                         reach, k, p)
        final = new if certified or (iters - step) % 2 == 0 else T
        T, before = new, T
        if np.logical_or.reduce(done):
            values[live[done]] = np.add.reduce(w[done] * final[done] ** k, axis=1)
            steps[live[done]] = step
            keep = ~done
            T, before, live, w = T[keep], before[keep], live[keep], w[keep]
            if not live.size:
                if error is not None:
                    raise error
                return values, steps
            if certified:
                # rows drop only at checks, where firsts was formed
                kept = np.add.reduceat(keep, firsts[:-1]).tolist()
                runs = [run for run in zip(kept, check) if run[0]]
                lengths, check = map(list, zip(*runs))
        if certified:
            next_check = min(check)
    if certified:
        raise BudgetError("certified norm ascent step", f"more than {MAX_ASCENT_STEPS}",
                          "steps", MAX_ASCENT_STEPS)
    values[live] = np.add.reduce(w * T ** k, axis=1)
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
    check_budget("dense tensor degree", k, "axes", MAX_DENSE_DEGREE)
    check_budget("dense form entry", n ** k, "entries", MAX_FORM_ENTRIES)
    coeffs = np.zeros((n,) * k, dtype=complex)
    if n:
        idx = np.arange(n)
        coeffs[tuple([idx] * k)] = d
    return MultilinearForm(coeffs, params)


@dataclass(frozen=True)
class AdditivityReport:
    """Outcome of the structural and behavioral orthogonal-additivity checks."""

    structural_ok: bool
    behavioral_ok: bool
    worst_offdiagonal_index: Optional[Tuple[int, ...]]
    worst_offdiagonal_ratio: float
    worst_behavioral_defect: float

    @property
    def checks_agree(self) -> bool:
        return self.structural_ok == self.behavioral_ok


def _disjoint_pairs(rng: np.random.Generator, n: int,
                    samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """The behavioral check's (samples, n) pairs xs, ys with disjoint
    supports, in is_orthogonally_additive's draw order.  Three calls draw
    every row at once, in this order: the permutations, each row of
    np.arange(n) shuffled by rng.permuted(..., axis=1); the cuts,
    rng.integers(1, n, size=(samples, 1)); and the normals z,
    rng.standard_normal((samples, 2 * n)).  In row r, with perm, cut and z
    its entries, x takes z[j] + 1j * z[cut + j] at perm[j] for j < cut and
    y takes z[cut + j] + 1j * z[n + j] at perm[j] for j >= cut.  The arrays
    are assembled in one pass."""
    perms = rng.permuted(np.tile(np.arange(n), (samples, 1)), axis=1)
    cuts = rng.integers(1, n, size=(samples, 1))
    z = rng.standard_normal((samples, 2 * n))
    j = np.arange(n)
    in_x = j < cuts
    shifted = cuts + j
    rows = np.arange(samples)[:, None]
    values = z[rows, np.where(in_x, j, shifted)] + 1j * z[rows, np.where(in_x, shifted, n + j)]
    xs = np.zeros((samples, n), dtype=complex)
    ys = np.zeros((samples, n), dtype=complex)
    xs[rows, perms] = np.where(in_x, values, 0.0)
    ys[rows, perms] = np.where(in_x, 0.0, values)
    return xs, ys


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

    The pairs are drawn from np.random.default_rng(seed), all rows at once
    and in this order: the permutations of the coordinates, the cuts (x on
    the first cut of them, y on the rest), then 2n standard normals per row,
    the real and imaginary parts of x and then of y (_disjoint_pairs).  A
    change to that order re-seeds the check and moves every seeded record.

    The behavioral check runs on P_s = P / s, s the power of two at or below
    the largest coefficient modulus (at least 2^-1022), and compares
    |P_s(x+y) - P_s(x) - P_s(y)| with tol_behavioral * (|P_s(x)| + |P_s(y)|
    + 1/s), the same test, so no value overflows however large the
    coefficients are.  Dividing by a power of two is exact, so away from
    overflow and underflow every defect and verdict is what the unscaled
    check gives.  The reported defect is scaled back by s and reads inf past
    the float range.
    """
    sym = form.symmetrize()
    coeffs = sym.coeffs
    n = sym.dim
    k = sym.degree

    scale = float(np.maximum.reduce(np.abs(coeffs), axis=None)) if coeffs.size else 0.0
    worst_index: Optional[Tuple[int, ...]] = None
    worst_ratio = 0.0
    if coeffs.size and n > 1:
        off = np.array(coeffs)
        off[(np.arange(n),) * k] = 0.0
        mags = np.abs(off).reshape(-1)
        flat = int(mags.argmax())
        worst = float(mags[flat])
        if scale > 0 and worst > 0:
            worst_index = tuple(int(i) for i in np.unravel_index(flat, coeffs.shape))
            worst_ratio = worst / scale
    structural_ok = worst_ratio <= tol_structural

    behavioral_ok = True
    worst_defect = 0.0
    if n >= 2 and scale == math.inf:  # a complex modulus past the float range
        behavioral_ok, worst_defect = False, math.inf
    elif n >= 2 and scale > 0:
        unit = _power_of_two_below(scale)
        xs, ys = _disjoint_pairs(np.random.default_rng(seed), n, samples)
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
        worst_defect = unit * float(np.maximum.reduce(defects, axis=None, initial=0.0))
        behavioral_ok = not np.logical_or.reduce(defects > allowance, axis=None)
    return AdditivityReport(
        structural_ok=structural_ok,
        behavioral_ok=behavioral_ok,
        worst_offdiagonal_index=worst_index,
        worst_offdiagonal_ratio=worst_ratio,
        worst_behavioral_defect=worst_defect,
    )


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

def _lq_columns(v: np.ndarray, q: float, mags: Optional[np.ndarray] = None) -> np.ndarray:
    """l_q norms (q >= 1 or inf) over the first axis of v.  Each column is
    scaled by its largest modulus before the powers are taken, as in
    lq_norm, but summed in order rather than with math.fsum; a zero column
    has norm 0.  mags, if given, is np.abs(v) and is left as it is;
    otherwise the ratios and their powers are formed in place in a fresh
    np.abs(v)."""
    own = mags is None
    if own:
        mags = np.abs(v)
    top = np.maximum.reduce(mags, axis=0)
    if q == math.inf:
        return top
    ratios = np.divide(mags, np.where(top > 0, top, 1.0), out=mags if own else None)
    ratios **= q
    return top * np.add.reduce(ratios, axis=0) ** (1.0 / q)


def _holder_slot_witness(grad: np.ndarray, mags: np.ndarray, positive: np.ndarray,
                         p: float) -> np.ndarray:
    """Unit-l_p maximizers x of Re <g, x>, one per nonzero row g of grad,
    mags = np.abs(grad) and positive = mags > 0; each attains ||g||_{p'}.
    At p = 1 it is the basis vector at the first index of largest |g_i|,
    with the phase that makes <g, x> real."""
    if p == 1.0:
        rows = np.arange(grad.shape[0])
        top = np.argmax(mags, axis=1)
        g, m = grad[rows, top], mags[rows, top]
        x = np.zeros_like(grad)
        x[rows, top] = g.real / m - 1j * (g.imag / m)
        return x
    q = holder_conjugate(p)
    total = _lq_columns(grad.T, q, mags.T)[:, None]
    unit_phases = np.where(positive, np.conj(grad) / np.where(positive, mags, 1.0), 0.0)
    return unit_phases * (mags / total) ** (q - 1.0)


def multilinear_norm_ascent(form: MultilinearForm, restarts: int = 20,
                            iters: int = 60, seed: int = 0) -> float:
    """Alternating-maximization estimate of sup |phi(x_1,...,x_k)| over unit l_p vectors.

    Each slot update replaces x_j by the exact Hoelder maximizer against the
    gradient of the remaining slots, so sweeps are monotone; the estimate is
    the best value over seeded restarts and is always a valid lower bound.
    Real forms are optimized over real vectors.  The first restart starts at
    the all-ones vectors, the others at seeded Gaussian vectors.

    The restarts run together, the l_p power method / HOPM iteration run on
    many starts at once: slot j of every live restart is one C-contiguous
    (restarts, n) array, each slot update is one einsum over the other
    slots' arrays, and the gradient's modulus, taken once and tested once
    for zeros, tells which restarts move and forms their update; a restart
    whose gradient vanishes keeps that slot.  A restart leaves the live set
    once its value has gained at most 1e-14 relative in three sweeps
    running.  The form was validated when it was built, so the loop calls
    no checked method.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    n, k, p = form.dim, form.degree, form.params.p
    coeffs = form.coeffs
    if k == 1:  # a linear functional: its sup is the Hoelder value ||c||_{p'}
        return lq_norm(coeffs, form.params.dual_exponent)
    if not np.logical_or.reduce(np.abs(coeffs) > 0, axis=None):
        return 0.0
    real_form = bool(np.logical_and.reduce(coeffs.imag == 0, axis=None))
    check_budget("ascent start", restarts * k * n, "entries", MAX_START_ENTRIES)
    rng = np.random.default_rng(seed)
    xs = np.ones((restarts, k, n), dtype=complex)
    draws = rng.standard_normal((restarts - 1, k, 1 if real_form else 2, n))
    xs[1:] = draws[:, :, 0] if real_form else draws[:, :, 0] + 1j * draws[:, :, 1]
    xs /= _lq_columns(np.moveaxis(xs, -1, 0), p)[..., None]
    # slot j of every restart, C-contiguous (restarts, n)
    slots = [np.ascontiguousarray(xs[:, j]) for j in range(k)]

    letters = "abcdefghijklmnopqrstuvwxy"[:k]
    slot_specs = [",".join([letters] + ["z" + letters[i] for i in range(k) if i != j])
                  + "->z" + letters[j] for j in range(k)]
    value_spec = ",".join([letters] + ["z" + c for c in letters]) + "->z"
    previous = np.full(restarts, -1.0)
    stalled = np.zeros(restarts, dtype=int)
    best = 0.0
    for _ in range(iters):
        for j in range(k):
            grad = np.einsum(slot_specs[j], coeffs, *(slots[:j] + slots[j + 1:]))
            mags = np.abs(grad)
            positive = mags > 0
            if np.logical_and.reduce(positive, axis=None):
                slots[j] = _holder_slot_witness(grad, mags, positive, p)
            else:
                moving = np.logical_or.reduce(positive, axis=1)
                slots[j][moving] = _holder_slot_witness(grad[moving], mags[moving],
                                                        positive[moving], p)
        value = np.abs(np.einsum(value_spec, coeffs, *slots))
        stalled = np.where(value - previous <= 1e-14 * np.maximum(1.0, value), stalled + 1, 0)
        previous = value
        live = stalled < 3
        if not np.logical_and.reduce(live):
            best = max(best, float(np.maximum.reduce(value[~live])))
            slots = [x[live] for x in slots]
            previous, stalled = previous[live], stalled[live]
            if not previous.size:
                break
    return max(best, float(np.maximum.reduce(previous, axis=None, initial=0.0)))


# Relative gap at which the enclosure closes: a tenth of the 1e-4
# grid_agreement check, so its own slack takes at most a tenth of that check.
_ENCLOSURE_GAP = 1e-5
# Relative margin on every box's upper bound against float error; derived in
# multilinear_norm_grid.
_ENCLOSURE_MARGIN = 2.0 ** -40
# Largest max|c - c.swapaxes(0, 1)| / max|c| at which the enclosure treats a
# k = 3 form as symmetric in its two box slots: 8u, u the unit roundoff, where
# symmetrize() leaves about 2u; _ENCLOSURE_MARGIN covers it (see
# multilinear_norm_grid).
_MIRROR_ASYMMETRY = 8 * np.finfo(float).eps / 2
# box tuples bounded at once: at n = k = 3 the gathered slot-0 contraction is
# about 0.37 MB; the chunk's (n, 17, chunk) pairing array, its term array
# and the modulus copy the pairing's l_q norms work in are 0.42 MB each; and
# the geometry of the chunk's distinct boxes is at most 2 MB (on random forms
# a few dozen boxes)
_ENCLOSURE_CHUNK = 2 ** 10


def _face_corners(n: int) -> np.ndarray:
    """[i, v, f]: whether vertex v of a box on face f takes hi over lo in
    coordinate i; never in coordinate f, the face's fixed 1.  Vertex v runs
    over the other coordinates f + 1, f + 2, ... mod n, the first most
    significant."""
    local = np.array([c + (False,) for c in itertools.product((False, True), repeat=n - 1)]).T
    return np.stack([local[(np.arange(n) - f - 1) % n] for f in range(n)], axis=-1)


_CORNERS = {n: _face_corners(n) for n in (2, 3)}
# the pairs i <= j of the 2^(n-1) children of a box, for _split_widest's twins
_TWIN_PAIRS = {n: np.triu_indices(2 ** (n - 1)) for n in (2, 3)}


class _Boxes:
    """The slot boxes of multilinear_norm_grid, one table that every slot
    shares, so that box tuples are arrays of box ids: per box, its face, lo
    and hi (n, boxes) and width.  Boxes are only added.  The arrays hold
    spare columns past the first `size`, the boxes, and double when a split
    needs more, so a split writes only its children."""

    def __init__(self, n: int):
        # box f is the whole face f
        self.size = n
        self.face = np.arange(n)
        self.lo = np.where(np.eye(n, dtype=bool), 1.0, -1.0)
        self.hi = np.ones((n, n))
        self.width = np.full(n, 2.0)

    def split(self, parents: np.ndarray) -> np.ndarray:
        """The ids of the 2^(n-1) children of each parent, (children,
        parents), made by halving every coordinate but the face's."""
        n = self.lo.shape[0]
        faces = self.face[parents]
        corners = _CORNERS[n].take(faces, axis=-1)
        lo, hi = self.lo[:, None, parents], self.hi[:, None, parents]
        mid = (lo + hi) / 2
        first, stop = self.size, self.size + corners[0].size
        if stop > self.width.size:
            capacity = max(stop, 2 * self.width.size)
            for name in ("face", "lo", "hi", "width"):
                old = getattr(self, name)
                new = np.empty(old.shape[:-1] + (capacity,), dtype=old.dtype)
                new[..., :first] = old[..., :first]
                setattr(self, name, new)
        self.face[first:stop].reshape(corners.shape[1], -1)[:] = faces
        self.lo[:, first:stop] = np.where(corners, mid, lo).reshape(n, -1)
        self.hi[:, first:stop] = np.where(corners, hi, mid).reshape(n, -1)
        self.width[first:stop].reshape(corners.shape[1], -1)[:] = self.width[parents] / 2
        self.size = stop
        return np.arange(first, stop).reshape(corners.shape[1], -1)


def _distinct(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """np.unique(ids, return_inverse=True) of nonnegative ids, without a
    sort: a mask over [ids.min(), ids.max()] marks the ids present, and the
    running count of the marks ranks them.  Returns the sorted distinct ids
    and each id's index among them, in the shape of ids."""
    top = np.maximum.reduce(ids, axis=None, initial=-1)
    base = np.minimum.reduce(ids, axis=None, initial=top)
    offsets = ids - base
    present = np.zeros(top - base + 1, dtype=bool)
    present[offsets] = True
    rank = np.add.accumulate(present, dtype=np.intp)
    rank -= 1
    return present.nonzero()[0] + base, rank[offsets]


def _box_geometry(coeffs: np.ndarray, face: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  tuples: np.ndarray, p: float, q: float):
    """What every box tuple holding a box reads of it, the box axis last:
    points[i, v] is coordinate i of vertex v (the centre last), contraction
    = sum_a coeffs[a] * points[a], and scale[s] and dots[s] hold, per vertex
    tuple column of slot s (the tuple of centres last), the l_p norm of the
    box's point and its <g, u_a>, g the dual functional of the box centre;
    valid is whether every <g, u_a> is positive.  Returns (points,
    contraction, scale, dots, valid).

    The contraction is one broadcast product summed over its first axis
    by np.add.reduce, term a = 0 first, then 1, ...: the order of the sum
    of Python's sum, except that Python's starts at the integer 0.  That
    can change only the sign of an all-zero sum; the pairing's products
    and sums carry the sign of a zero only into zeros, and the l_q norms
    take moduli."""
    n = lo.shape[0]
    # C-contiguous, as are all that follow: np.take along the box axis of
    # any other layout copies the whole array
    corners = _CORNERS[n].take(face, axis=-1)
    points = np.concatenate([np.where(corners, hi[:, None], lo[:, None]),
                             (lo + hi)[:, None] / 2], axis=1)
    centre = points[:, -1]
    g = np.sign(centre) * np.abs(centre) ** (p - 1.0)
    g /= _lq_columns(g, q)
    dots = np.add.reduce(points[:, :-1] * g[:, None], axis=0)
    spread = (n,) + (1,) * (coeffs.ndim - 1) + points.shape[1:]
    contraction = np.add.reduce(coeffs[..., None, None] * points.reshape(spread), axis=0)
    return (points, contraction, _lq_columns(points, p)[tuples], dots[tuples[:, :-1]],
            np.logical_and.reduce(dots > 0, axis=0))


def _tuple_bounds(coeffs: np.ndarray, boxes: _Boxes, ids: np.ndarray, tuples: np.ndarray,
                  p: float, q: float) -> Tuple[np.ndarray, np.ndarray]:
    """Lower and upper bound of N (see multilinear_norm_grid) over each
    tuple of slot boxes; ids is (slots, tuples) of box ids.  Each distinct
    box is bounded once, then gathered by id."""
    live, ids = _distinct(ids)
    points, contraction, scale, dots, valid = _box_geometry(
        coeffs, boxes.face[live], boxes.lo[:, live], boxes.hi[:, live], tuples, p, q)
    values = contraction.take(ids[0], axis=-1)
    if len(ids) == 2:
        values = _pair_slots(values, points.take(ids[1], axis=-1))
    values = _lq_columns(values, q)
    lower, upper = values, values[:-1]
    for s, box in enumerate(ids):
        lower = lower / scale[s].take(box, axis=-1)
        upper = upper / dots[s].take(box, axis=-1)
    upper = np.maximum.reduce(upper, axis=0) * (1.0 + _ENCLOSURE_MARGIN)
    return (np.maximum.reduce(lower, axis=0),
            np.where(np.logical_and.reduce(valid[ids], axis=0), upper, math.inf))


def _pair_slots(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """phi(u, v, .) for the vertex pairs (u, v) of each tuple, slot 0 most
    significant, then for its pair of centres: values[b, :, a] is
    phi(u_a, e_b, .), points[b, a] coordinate b of the slot-1 point a, both
    with the tuple axis last.  The sum over b is formed term by term, in
    order, in an (n, vertices^2 + 1, tuples) array, with a second array of
    that size for each term.  The sum starts at its first term rather than
    at 0, which can change only the sign of a zero, and the l_q norms that
    follow take moduli."""
    n, vertices, count = len(points), points.shape[1] - 1, points.shape[-1]
    out, term = (np.empty((n, vertices ** 2 + 1, count)) for _ in range(2))
    for b in range(n):
        dest = term if b else out
        np.multiply(values[b][:, :-1, None], points[b][:-1],
                    out=dest[:, :-1].reshape(n, vertices, vertices, count))
        np.multiply(values[b][:, -1:], points[b][-1:], out=dest[:, -1:])
        if b:
            np.add(out, term, out=out)
    return out


def _split_widest(boxes: _Boxes, ids: np.ndarray, twin: np.ndarray) -> np.ndarray:
    """Split each tuple's widest slot box (the first on ties) into its
    2^(n-1) children, child-major; the other slots keep their box ids, and
    a box split by several tuples is split once.  Each tuple (X, X) marked
    in twin is split in both slots at once instead, into the tuples
    (X_i, X_j), i <= j, of X's children, placed after the others; its
    widest box is X, so the same split serves it."""
    widest = boxes.width[ids].argmax(axis=0)
    parents, which = _distinct(ids[widest, np.arange(ids.shape[1])])
    children = boxes.split(parents)[:, which]
    single = ~twin
    out = np.empty((len(ids), len(children), np.count_nonzero(single)), dtype=ids.dtype)
    out[:] = ids[:, None, single]
    out[widest[single], :, np.arange(out.shape[-1])] = children[:, single].T
    out = out.reshape(len(ids), -1)
    if not np.logical_or.reduce(twin):
        return out
    i, j = _TWIN_PAIRS[boxes.lo.shape[0]]
    halves = children[:, twin]
    return np.concatenate([out, np.stack([halves[i].reshape(-1), halves[j].reshape(-1)])], axis=1)


def multilinear_norm_grid(form: MultilinearForm, incumbent: float = 0.0) -> Tuple[float, float]:
    """Certified enclosure (lower, upper) of sup |phi(x_1, ..., x_k)| over
    unit l_p vectors of a real form with n, k in {2, 3}, closed to
    (upper - lower) / lower <= _ENCLOSURE_GAP by branch and bound over cones
    (Horst & Tuy, Global Optimization).

    Hoelder closes the last slot: N(x_1, ..., x_{k-1}) =
    ||phi(x_1, ..., x_{k-1}, .)||_q, q = p'.  A sign change of a slot does
    not change N, so slots 1..k-1 range over the n positive faces
    {u_f = 1, |u_i| <= 1} of the l_inf cube, a box B on a face standing for
    its cone {t u : u in B}.  Per tuple of slot boxes, the lower bound is N
    at the tuple of box centres and at the vertex tuples, each divided by
    the l_p norms of its points.  For the upper bound, g = sign(c) |c|^(p-1), scaled
    to ||g||_q = 1, of a box centre c puts the unit ball in {<g, x> <= 1}
    and its part of the cone in the pyramid conv(0, u_a / <g, u_a>) over
    the box vertices u_a.  N is convex in each slot (a norm of a linear map
    of it), so its sup over the product of pyramids is its max
    N(u_a, ...) / prod <g, u_a> over the vertex tuples; the pyramids touch
    the sphere to second order, so the gap shrinks like the square of the
    box width.  A box with some <g, u_a> <= 0 has bound inf.  All open
    tuples are bounded a round at a time; a tuple is dropped once its upper
    bound is at most max(best, incumbent) * (1 + _ENCLOSURE_GAP), else its
    widest slot box is split into its 2^(n-1) halves.  upper is the largest
    bound of a dropped tuple: the maximizer lies in one of their cones.
    More than MAX_ENCLOSURE_BOXES tuples, counted as a round is about to
    make them, raise BudgetError.

    Pre-split.  The tuples of whole faces are split once before the first
    round, under the same count and budget check as a round's split, and
    never bounded: their pyramids reach the cube's corners, so on random
    forms no face tuple closes, and bounding them would only delay their
    split.  The children cover their parent, so every bound stays proven.

    Mirror.  At k = 3, N(x_1, x_2) = N(x_2, x_1) when the coefficients are
    symmetric in the two box slots, so only the half x_1 <= x_2 in box order
    is searched.  The test is on the coefficients, max|c - c'| <=
    _MIRROR_ASYMMETRY max|c| with c' = c.swapaxes(0, 1).  Only the face
    pairs f_1 <= f_2 are pre-split, and a twin tuple (X, X) is split in
    both slots at once into the 2^(n-2) (2^(n-1) + 1) tuples (X_i, X_j),
    i <= j, of X's children, each mirror (X_j, X_i) left out.  Below a
    tuple of two distinct boxes no twin arises, so every other tuple splits
    as before.
    Either the maximizer or its mirror lies in a kept cone.  k = 2 has one
    box slot and no mirror.

    Box table.  A box sits in many tuples (on random forms at n = k = 3, a
    chunk holds about 256 tuples over 43 distinct boxes), so open tuples are
    arrays of ids into one table of box coordinates (_Boxes) that every
    slot shares.  The table keeps spare columns, doubled when a split needs
    more, so a round writes the children it makes and copies no table.
    Each chunk finds its distinct boxes by a mask over the range of its ids,
    not by a sort (_distinct), and bounds each once: vertices, centre, g,
    l_p norms, <g, u_a> and the slot-0 contraction with the form.  The
    pass over the tuples gathers these by id and forms only the pairing of
    the slots, the l_q norms and the quotients.  At k = 3 the pairing is
    summed term by term into one array per chunk, and each chunk writes
    its bounds into the round's lower and upper arrays.  A round splits
    each chosen box once, whichever tuples chose it, and the other slots
    keep their ids.  Every element is formed by the same operations, in
    the same order, as when each tuple is bounded from its own boxes'
    coordinates, so neither the table nor the chunk size changes a bit of
    the result.

    Incumbent.  incumbent must be a value |phi| attains at unit vectors,
    such as the ascent's; it starts the best lower bound, and the result
    is (max(best, incumbent), upper).  upper is proven whatever the
    incumbent: every tuple is dropped in the end, and the one holding the
    maximizer has a bound of at least S, the sup.  An incumbent above S
    makes only lower wrong.
    With the default 0, lower is the best bound the boxes found.

    Float margin.  Box coordinates are dyadic in [-1, 1], so vertices and
    centres are exact; u is the unit roundoff, S the sup, and every
    |phi_t| = |phi(e_t1, ..., e_tk)| <= S.  (a) The computed l_q norm of a
    row is within 6u relative, so the computed g has ||g||_q <= 1 + 8u and
    the ball lies in {<g, x> <= 1 + 8u}: each slot's pyramid grows by that
    factor.  (b) Splitting starts at 0, so every bounded box, being below
    the whole face, lies in a closed orthant and every term g_i u_i is
    >= 0: each <g, u_a> is within gamma_3 ~ 3u relative, and it is
    at least g_f >= n^(-1/q) >= 1/n.  (c) Each coordinate of phi(u_a, ...)
    rounds at most (k-1)n <= 6 times on a term's path, with |u_i| <= 1, so
    it errs by at most gamma_6 n^(k-1) S and the l_q norm of the errors by
    n^k gamma_6 S <= 163u S.  Let u* be the vertex tuple of the box tuple
    holding the maximizer that attains its exact bound; that bound is at
    least S, so N(u*) >= S prod <g, u*_a> / (1 + 8u)^(k-1), at least
    S / (n^(k-1) (1 + 8u)^(k-1)), and (c) is at most 9 * 163u ~ 1470u of
    N(u*).  (d) Under the mirror the kept tuple may hold only the mirror
    (x_2, x_1) of the maximizer (x_1, x_2).  Every |c_t - c'_t| <=
    8u max|c| <= 8u S, and unit vectors have |x_i| <= 1, so N(x_2, x_1)
    falls short of S by at most n^k 8u S = 216u S, at most 9 * 216u ~ 1950u
    of N(u*) counted as in (c).  With (a), (b), the norm in (c) and the
    products and quotients, the computed bound of u* is at least
    S (1 - 1500u), about S (1 - 1.7e-13), without the mirror, and with (d)
    at least S (1 - 3450u), about S (1 - 3.8e-13).  The margin
    2^-40 ~ 9.1e-13 is 2.4 times the latter.
    """
    n, k, p = form.dim, form.degree, form.params.p
    if n not in (2, 3) or k not in (2, 3):
        raise ValueError("the sup-norm enclosure supports n, k in {2, 3} only")
    if np.logical_or.reduce(form.coeffs.imag != 0, axis=None):
        raise ValueError("the sup-norm enclosure supports real forms only")
    if not 0.0 <= incumbent < math.inf:
        raise ValueError(f"incumbent must be a finite value >= 0, got {incumbent}")
    coeffs = form.coeffs.real
    if not np.logical_or.reduce(coeffs, axis=None):
        return 0.0, 0.0
    q = holder_conjugate(p)
    vertices = 2 ** (n - 1)
    # the vertex tuples, slot 0 most significant, then the tuple of centres
    tuples = np.array(list(itertools.product(range(vertices), repeat=k - 1))
                      + [(vertices,) * (k - 1)]).T
    asymmetry = np.maximum.reduce(np.abs(coeffs - coeffs.swapaxes(0, 1)), axis=None)
    mirror = k == 3 and bool(asymmetry <= _MIRROR_ASYMMETRY
                             * np.maximum.reduce(np.abs(coeffs), axis=None))
    boxes = _Boxes(n)
    # box f is the whole face f
    ids = np.array([f for f in itertools.product(range(n), repeat=k - 1)
                    if not mirror or list(f) == sorted(f)]).T
    best = upper = 0.0
    visited = ids.shape[1]
    while ids.shape[1]:
        # split first: the face tuples are split before they are bounded
        twin = mirror & (ids[0] == ids[-1])
        twins = int(np.count_nonzero(twin))
        # checked before the children are built
        visited += (ids.shape[1] - twins) * vertices + twins * vertices * (vertices + 1) // 2
        check_budget("sup-norm enclosure box", visited, "boxes", MAX_ENCLOSURE_BOXES)
        ids = _split_widest(boxes, ids, twin)
        count = ids.shape[1]
        lower, bound = np.empty(count), np.empty(count)
        for start in range(0, count, _ENCLOSURE_CHUNK):
            part = slice(start, start + _ENCLOSURE_CHUNK)
            lower[part], bound[part] = _tuple_bounds(coeffs, boxes, ids[:, part], tuples, p, q)
        best = max(best, float(np.maximum.reduce(lower)))
        done = bound <= max(best, incumbent) * (1.0 + _ENCLOSURE_GAP)
        upper = max(upper, float(np.maximum.reduce(bound[done], initial=0.0)))
        ids = ids[:, ~done]
    return max(best, incumbent), upper
