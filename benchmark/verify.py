"""Checks of CLI output against computations made apart from the program.

Every check returns a list of problems; an empty list means the op passed.
Norms are recomputed here from the coefficients each record echoes, with
plain Python arithmetic; the zalduendo forms are regenerated from their seed
and symmetrised here.  Nothing is compared against stored program output.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence

import numpy as np

CLOSED_RTOL = 1e-12      # closed forms against the reference norms
WITNESS_RTOL = 1e-12     # witness value against the closed form
ISOMETRY_RTOL = 1e-6     # ascent estimate against the closed form
ASCENT_EXCESS = 1e-12    # the ascent is a lower bound: at most closed * (1 + this)
RECONSTRUCTION_TOL = 1e-12
ZALDUENDO_SLACK = 1e-6   # diagonal_norm <= estimate + slack
GRID_AGREEMENT = 1e-4    # ascent and grid estimates
SAMPLE_RTOL = 1e-12      # estimate >= |phi(x, ..., x)| up to roundoff
SAMPLE_POINTS = 32


def sandwich_tol(k: int, p: float) -> float:
    """The CLI's sandwich tolerance: 1e-10 when k < p, 1e-12 (l_1 case) otherwise."""
    return 1e-10 if k < p else 1e-12


def lq(values: Sequence[complex], q: float) -> float:
    """(sum |v_i|^q)^(1/q), or max |v_i| for q = inf."""
    mags = [abs(complex(v)) for v in values]
    top = max(mags, default=0.0)
    if top == 0.0 or q == math.inf:
        return top
    return top * math.fsum((m / top) ** q for m in mags) ** (1.0 / q)


def pi_norm(coeffs: Sequence[complex], p: float, k: int) -> float:
    """Projective norm of the diagonal tensor: ||a||_{p/k} if k < p, else ||a||_1."""
    return lq(coeffs, p / k if k < p else 1.0)


def oa_norm(coeffs: Sequence[complex], p: float, k: int) -> float:
    """Norm of the orthogonally additive polynomial: ||c||_{p/(p-k)} if k < p, else max |c_i|."""
    return lq(coeffs, p / (p - k) if k < p else math.inf)


def parse_coeff(text: str) -> complex:
    return complex(text.replace("i", "j"))


def symmetrize(raw: np.ndarray) -> np.ndarray:
    k = raw.ndim
    perms = list(itertools.permutations(range(k)))
    return sum(np.transpose(raw, axes=perm) for perm in perms) / len(perms)


def form_on_diagonal(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """phi(x, ..., x) for each row x of ``points``."""
    out = np.broadcast_to(coeffs, (len(points),) + coeffs.shape)
    for _ in range(coeffs.ndim):
        out = np.einsum("mi...,mi->m...", out, points)
    return out


def zalduendo_form(seed: int, trial: int, n: int, k: int) -> np.ndarray:
    """The raw seeded form that ``zalduendo-check`` draws for one trial."""
    return np.random.default_rng([seed, trial]).standard_normal((n,) * k)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


class _Problems(list):
    def need(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _check_common(problems: _Problems, doc: Dict, where: str) -> List[Dict]:
    records = doc.get("records", [])
    problems.need(bool(records), f"{where}: no records")
    problems.need(doc.get("summary", {}).get("passed") is True, f"{where}: summary not passed")
    for r in records:
        problems.need(r.get("passed") is True, f"{where} case {r.get('case_index')}: passed is not true")
    return records


def _check_norm_pair(problems: _Problems, where: str, coeffs, p: float, k: int,
                     pi_closed: float, upper: float, lower: float,
                     oa_closed: float, numeric: float, witness: float) -> None:
    pi_ref, oa_ref = pi_norm(coeffs, p, k), oa_norm(coeffs, p, k)
    problems.need(_rel(pi_closed, pi_ref) <= CLOSED_RTOL,
                  f"{where}: pi closed form {pi_closed!r} != reference {pi_ref!r}")
    problems.need(_rel(oa_closed, oa_ref) <= CLOSED_RTOL,
                  f"{where}: oa closed form {oa_closed!r} != reference {oa_ref!r}")
    tol = sandwich_tol(k, p)
    problems.need(lower <= pi_closed * (1 + tol), f"{where}: lower bound {lower!r} above closed {pi_closed!r}")
    problems.need(upper >= pi_closed * (1 - tol), f"{where}: upper bound {upper!r} below closed {pi_closed!r}")
    problems.need(numeric <= oa_closed * (1 + ASCENT_EXCESS),
                  f"{where}: ascent {numeric!r} above closed {oa_closed!r}")
    problems.need(_rel(numeric, oa_closed) <= ISOMETRY_RTOL,
                  f"{where}: ascent {numeric!r} too far from closed {oa_closed!r}")
    problems.need(_rel(witness, oa_closed) <= WITNESS_RTOL,
                  f"{where}: witness {witness!r} != closed {oa_closed!r}")


def check_sweep(op: Dict, docs: List[Dict]) -> List[str]:
    problems = _Problems()
    records = _check_common(problems, docs[0], "sweep")
    problems.need(len(records) == op["trials"], f"sweep: {len(records)} records")
    for r in records:
        where = f"sweep case {r['case_index']}"
        params, values, devs = r["parameters"], r["values"], r["deviations"]
        problems.need((params["k"], params["p"], params["n"]) == (op["k"], op["p"], op["n"]),
                      f"{where}: parameters {params} do not echo the invocation")
        coeffs = [parse_coeff(s) for s in params["coeffs"]]
        problems.need(len(coeffs) == op["n"], f"{where}: {len(coeffs)} coefficients")
        _check_norm_pair(problems, where, coeffs, op["p"], op["k"],
                         values["pi_closed_form"], values["pi_upper_bound"], values["pi_lower_bound"],
                         values["oa_closed_form"], values["oa_numeric"], values["oa_witness_value"])
        for name in ("reconstruction_offdiagonal", "reconstruction_diagonal"):
            problems.need(devs[name] <= RECONSTRUCTION_TOL, f"{where}: {name} {devs[name]!r}")
    return problems


def check_duality(op: Dict, docs: List[Dict]) -> List[str]:
    problems = _Problems()
    pi_records = _check_common(problems, docs[0], "pi-norm")
    oa_records = _check_common(problems, docs[1], "oa-norm")
    if len(pi_records) != 1 or len(oa_records) != 1:
        problems.append("duality: expected one record per invocation")
        return problems
    pi_rec, oa_rec = pi_records[0], oa_records[0]
    for rec in (pi_rec, oa_rec):
        echoed = [parse_coeff(s) for s in rec["parameters"]["coeffs"]]
        problems.need(echoed == op["coeffs"],
                      f"{rec['command']}: echoed coefficients differ from the ones sent")
    pv, ov = pi_rec["values"], oa_rec["values"]
    _check_norm_pair(problems, "duality", [parse_coeff(s) for s in pi_rec["parameters"]["coeffs"]],
                     op["p"], op["k"], pv["closed_form"], pv["upper_bound"], pv["lower_bound"],
                     ov["closed_form"], ov["numeric_estimate"], ov["witness_value"])
    return problems


def check_zalduendo(op: Dict, docs: List[Dict]) -> List[str]:
    problems = _Problems()
    records = _check_common(problems, docs[0], "zalduendo")
    k, n, p = op["k"], op["n"], op["p"]
    for r in records:
        where = f"zalduendo case {r['case_index']}"
        v, params = r["values"], r["parameters"]
        problems.need((params["k"], params["p"], params["n"], params["seed"]) == (k, p, n, op["seed"]),
                      f"{where}: parameters {params} do not echo the invocation")
        raw = zalduendo_form(op["seed"], params["trial"], n, k)
        sym = symmetrize(raw)
        diag = [raw[(i,) * k] for i in range(n)]
        diag_ref = lq(diag, p / (p - k))
        problems.need(_rel(v["diagonal_norm"], diag_ref) <= CLOSED_RTOL,
                      f"{where}: diagonal_norm {v['diagonal_norm']!r} != reference {diag_ref!r}")
        estimate = max(v["ascent_estimate"], v["grid_estimate"])
        rng = np.random.default_rng([op["seed"], params["trial"], 1])
        points = np.vstack([np.eye(n), rng.standard_normal((SAMPLE_POINTS, n))])
        points /= np.sum(np.abs(points) ** p, axis=1, keepdims=True) ** (1.0 / p)
        top = float(np.max(np.abs(form_on_diagonal(sym, points))))
        problems.need(estimate >= top * (1 - SAMPLE_RTOL),
                      f"{where}: estimate {estimate!r} below |phi(x,...,x)| = {top!r} at a unit point")
        bound = float(np.sum(np.abs(sym)))
        problems.need(estimate <= bound, f"{where}: estimate {estimate!r} above sum |coeffs| = {bound!r}")
        problems.need(v["diagonal_norm"] <= estimate + ZALDUENDO_SLACK,
                      f"{where}: diagonal_norm {v['diagonal_norm']!r} above estimate {estimate!r}")
        problems.need(_rel(v["ascent_estimate"], v["grid_estimate"]) <= GRID_AGREEMENT,
                      f"{where}: ascent {v['ascent_estimate']!r} and grid {v['grid_estimate']!r} disagree")
    return problems


CHECKS = {"sweep": check_sweep, "zalduendo": check_zalduendo, "duality": check_duality}
