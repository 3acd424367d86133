"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the package's own solution paths: the
minimax oracle runs a constrained optimizer over prior profiles, the Pinsker
level is a generic bracketing root search, and the kernel eigen-solver
diagonalizes the quadrature-symmetrized kernel directly. The grid references
are the trapezoid rule written out, and the design sums are the direct
products of a held draw.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq, minimize


def grid_inner(a, b) -> np.ndarray:
    """Trapezoid-rule L2([0,1]) inner products of the rows of a with the rows
    of b, grid values on one equispaced grid (a vector is one row)."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return (a * (np.r_[0.5, np.ones(a.shape[1] - 2), 0.5] / (a.shape[1] - 1))) @ b.T


def grid_norm(values) -> float:
    """Trapezoid-rule L2([0,1]) norm of grid values."""
    return math.sqrt(float(grid_inner(values, values)[0, 0]))


def ellipsoid_sum(theta, beta: float) -> float:
    """sum_k (1 + k^(2 beta)) theta_k^2, the quadratic form of the ellipsoid."""
    k = np.arange(1, len(theta) + 1, dtype=float)
    return float(np.sum((1.0 + k ** (2.0 * beta)) * np.square(theta)))


def operator_matrix(op) -> np.ndarray:
    """U diag(lambda) U^T: an operator's matrix in its basis coordinates."""
    return (op.coeff_vectors * op.eigenvalues) @ op.coeff_vectors.T


def held_moments(spec, n, rng, *, lead=None, split=None):
    """The sums ``designs.stream_moments`` forms, from the held draw:
    ``sample_design(spec, n, rng)``, then ``rng.standard_normal(n)``, then the
    direct products of the first ``split`` rows (default all n) on the first
    ``lead`` columns (default J)."""
    from flrlab.designs import DesignMoments, sample_design

    c = sample_design(spec, n, rng).coeffs
    eps = rng.standard_normal(n)
    m = n if split is None else split
    fit = c[:m]
    lead_cols = fit if lead is None else fit[:, :lead]
    train = c[m:].T @ c[m:] if m < n else None
    return DesignMoments(n, m, lead_cols.T @ fit, lead_cols.T @ eps[:m], train)


def brute_force_linear_minimax(lambdas, beta, c_theta, sigma, n, restarts=8, seed=0):
    """Exact linear minimax risk on K coordinates over the smoothness ellipsoid.

    Maximizes the Bayes risk sum s_k tau_k^2 / (tau_k^2 + s_k) over prior
    variance profiles tau^2 on the ellipsoid boundary (the inner weight
    minimization is closed-form), using SLSQP with random restarts.
    """
    lam = np.asarray(lambdas, dtype=float)
    k = np.arange(1, lam.size + 1, dtype=float)
    b2 = 1.0 + k ** (2.0 * beta)
    s = sigma**2 / (n * lam)

    def neg_value(u):
        tau2 = c_theta * u / b2
        return -float(np.sum(s * tau2 / (tau2 + s)))

    rng = np.random.default_rng(seed)
    cons = ({"type": "eq", "fun": lambda u: np.sum(u) - 1.0},)
    bounds = [(0.0, 1.0)] * lam.size
    starts = [np.full(lam.size, 1.0 / lam.size)]
    starts += [rng.dirichlet(np.ones(lam.size)) for _ in range(restarts - 1)]
    best = -np.inf
    for u0 in starts:
        res = minimize(neg_value, u0, method="SLSQP", bounds=bounds, constraints=cons,
                       options={"maxiter": 500, "ftol": 1e-14})
        if res.success:
            best = max(best, -res.fun)
    return best


def pinsker_level_brentq(lambdas, beta, c_theta, sigma, n):
    """Pinsker level on a finite profile by Brent's method on the full balance
    function sum b_k (1 - x b_k)_+ / lambda_k - c_theta n x / sigma^2 over
    (0, 1/b_1), to the relative resolution of a double."""
    lam = np.asarray(lambdas, dtype=float)
    k = np.arange(1, lam.size + 1, dtype=float)
    b = np.sqrt(1.0 + k ** (2.0 * beta))
    slope = c_theta * n / sigma**2

    def balance(x):
        return float(np.sum(b * np.clip(1.0 - x * b, 0.0, None) / lam)) - slope * x

    return brentq(balance, 0.0, 1.0 / b[0], xtol=1e-300, rtol=4 * np.finfo(float).eps,
                  maxiter=500)


def sharp_risk_exact(lambdas, beta, c_theta, sigma, n) -> float:
    """a_n on a finite profile in exact rational arithmetic on the doubles
    b_k, lambda_k and s = c_theta n / sigma^2: the level S1(K)/(S2(K) + s) on
    the first piece K whose level reaches 1/b_{K+1} (or on the whole profile),
    then (sigma^2/n) sum_{k<=K} (1 - gamma b_k)_+ / lambda_k."""
    lam = [Fraction(float(x)) for x in lambdas]
    k = np.arange(1, len(lam) + 1, dtype=float)
    b = [Fraction(float(x)) for x in np.sqrt(1.0 + k ** (2.0 * beta))]
    s = Fraction(c_theta) * n / Fraction(sigma) ** 2
    s1 = s2 = Fraction(0)
    for kk in range(len(lam)):
        s1 += b[kk] / lam[kk]
        s2 += b[kk] ** 2 / lam[kk]
        gamma = s1 / (s2 + s)
        if kk + 1 == len(lam) or gamma * b[kk + 1] >= 1:
            break
    total = sum(max(1 - gamma * bk, Fraction(0)) / lk for bk, lk in zip(b[:kk + 1], lam))
    return float(Fraction(sigma) ** 2 / n * total)


def eigh_quadrature_kernel(kernel: np.ndarray, weights: np.ndarray, count: int):
    """Leading eigenpairs of a symmetric kernel under the quadrature metric."""
    sw = np.sqrt(weights)
    sym = sw[:, None] * kernel * sw[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    order = np.argsort(vals)[::-1][:count]
    return vals[order], (vecs[:, order] / sw[:, None]).T


def ols_slope(x, y):
    """Plain least-squares slope, independent of the package regression code."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    return float(np.dot(xc, y) / np.dot(xc, xc))
