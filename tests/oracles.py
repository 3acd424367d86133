"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the package's own solution paths: the
minimax oracle runs a constrained optimizer over prior profiles, the Pinsker
level is a generic bracketing root search, and the kernel eigen-solver
diagonalizes the quadrature-symmetrized kernel directly. The grid references
are the trapezoid rule written out, with the projection of grid values onto
a basis and the rendering of an operator's eigenfunctions and kernel. The
white-noise route of the cutoff fit reads z = A^T y through the empirical
eigenbasis. The design draw is numpy's own uniform and normal draws times
the coefficient scales, and the design sums are the direct products of that
draw. The law draw of Brownian design sums is the Bartlett construction
written out entry by entry. The two-sample KS law for equal sizes is
Gnedenko and Korolyuk's alternating binomial sum in exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq, minimize


def trapezoid_weights(grid_size: int) -> np.ndarray:
    """Composite trapezoid weights on ``grid_size`` equispaced nodes of [0, 1]."""
    return np.r_[0.5, np.ones(grid_size - 2), 0.5] / (grid_size - 1)


def grid_inner(a, b) -> np.ndarray:
    """Trapezoid-rule L2([0,1]) inner products of the rows of a with the rows
    of b, grid values on one equispaced grid (a vector is one row)."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return (a * trapezoid_weights(a.shape[1])) @ b.T


def grid_project(values, basis: str, count: int) -> np.ndarray:
    """The first ``count`` coefficients of grid values in the named basis, by
    the trapezoid rule: B (w * values), B the (count, D) matrix of
    ``function_space.basis_matrix``."""
    from flrlab.function_space import basis_matrix

    return basis_matrix(basis, count, values.size) @ (trapezoid_weights(values.size) * values)


def synthesize(basis, coefficients):
    """sum_k c_k phi_k over the rows of a ``function_space.Basis``, as a
    ``GridFunction``."""
    from flrlab.function_space import GridFunction

    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size > basis.count:
        raise ValueError("coefficient vector longer than the basis")
    return GridFunction(c @ basis.functions[: c.size])


def eigenfunctions(op) -> np.ndarray:
    """(r, D) grid values of an operator's eigenfunctions: U^T B, the
    rendering ``serialize.write_eigenfunctions`` writes."""
    from flrlab.function_space import basis_matrix

    u = op.coeff_vectors
    return u.T @ basis_matrix(op.basis, u.shape[0], op.grid_size)


def kernel(op) -> np.ndarray:
    """(D, D) kernel sum_k lambda_k phi_k(s) phi_k(t) of an operator on its
    grid, as ``serialize.write_kernel`` writes it."""
    phi = eigenfunctions(op)
    return phi.T @ (op.eigenvalues[:, None] * phi)


def white_noise_cutoff(z, cov, emp_cov, cutoff: int, m: int | None = None) -> np.ndarray:
    """The cutoff fit read from white-noise coefficients z = A^T y (a
    ``WnCoefficients``) in the empirical eigenbasis (lam-hat_j, phi-hat_j) of
    the same m designs, ``emp_cov`` that operator and ``cov`` the true one
    (lambda_k, phi_k): raw_k = sum_j z_j sqrt(lam-hat_j) <phi-hat_j, phi_k>
    and theta-hat_k = raw_k / (sqrt(m) lambda_k), m = z.n by default.

    This is the white-noise reference route of ``estimators.cutoff_estimator``
    on the cross moment X^T y / m. The two agree: with C the design
    coefficients and A = C U D^-1, D = diag(sqrt(m lam-hat)),
    raw_k = y^T C U U^T e_k / sqrt(m) = y^T C e_k / sqrt(m)
    = sqrt(m) (X^T y / m)_k, because C U U^T = C."""
    from flrlab.function_space import same_coordinates

    lam = cov.eigenvalues[:cutoff]
    m = z.n if m is None else m
    r = emp_cov.rank
    same_coordinates(emp_cov, cov)
    u, v = emp_cov.coeff_vectors, cov.coeff_vectors
    j = min(u.shape[0], v.shape[0])
    overlap = u[:j, :r].T @ v[:j, :cutoff]     # <phi-hat_j, phi_k>, (r, cutoff)
    weighted = np.sqrt(emp_cov.eigenvalues[:r])[:, None] * overlap
    return (z.z[:r] @ weighted) / (math.sqrt(m) * lam)


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


def design_draw(spec, n, rng, width=None) -> np.ndarray:
    """The whole n x width coefficient draw of the first ``width`` (default
    and at most J) coordinates, ``designs.sample_design``'s at width J,
    written out in numpy: centred uniforms R - 1/2 (exact in binary64)
    scaled by sqrt(12) k^(-alpha/2), so G_k = sqrt(12) (R - 1/2) is uniform
    on [-sqrt3, sqrt3], for basis-expansion designs; N(0, 1) G_k scaled by
    lambda_k^(1/2), lambda_k = 1/(pi^2 (k - 1/2)^2), for Brownian ones."""
    j = spec.resolved_truncation(n)
    j = j if width is None else min(width, j)
    k = np.arange(1, j + 1, dtype=float)
    if spec.kind == "basis-expansion":
        return (rng.random((n, j)) - 0.5) * (math.sqrt(12.0) * k ** (-spec.alpha / 2.0))
    return rng.standard_normal((n, j)) * np.sqrt(1.0 / (math.pi**2 * (k - 0.5) ** 2))


def held_moments(spec, n, rng, *, lead=None, width=None, split=None):
    """The sums ``designs.stream_moments`` forms, from the held draw:
    ``design_draw(spec, n, rng, width)``, n x width, then
    ``rng.standard_normal(n)``, then the direct products of the first
    ``split`` rows (default all n) on the first ``lead`` columns (default
    all)."""
    from flrlab.designs import DesignMoments

    c = design_draw(spec, n, rng, width)
    eps = rng.standard_normal(n)
    m = n if split is None else split
    fit = c[:m]
    lead_cols = fit if lead is None else fit[:, :lead]
    train = c[m:].T @ c[m:] if m < n else None
    return DesignMoments(n, m, lead_cols.T @ fit, lead_cols.T @ eps[:m], train)


def law_moments(spec, n, rng, lead, width=None):
    """The sums ``designs.stream_moments`` draws for n integrated-Gaussian
    designs over their first ``width`` (default and at most J) columns, from
    the same stream in the same order, written out: the Bartlett factor L
    (lead x lead; diagonal sqrt(chi^2_{n - i + 1}), then the normals below
    it row by row), Z (lead x (width - lead), row by row) and z (lead);
    gram_ab = sqrt(lambda_a lambda_b) (L [L^T, Z])_ab and
    noise_a = sqrt(lambda_a) (L z)_a."""
    from flrlab.designs import DesignMoments

    j = spec.resolved_truncation(n)
    j = j if width is None else min(width, j)
    diag = np.sqrt(rng.chisquare([n - i for i in range(lead)]))
    below = iter(rng.standard_normal(lead * (lead - 1) // 2))
    factor = np.zeros((lead, lead))
    for a in range(lead):
        factor[a, a] = diag[a]
        for b in range(a):
            factor[a, b] = next(below)
    z_rest = rng.standard_normal((lead, j - lead))
    z = rng.standard_normal(lead)
    g = np.hstack([factor @ factor.T, factor @ z_rest])
    k = np.arange(1, j + 1, dtype=float)
    scale = np.sqrt(1.0 / (math.pi**2 * (k - 0.5) ** 2))
    return DesignMoments(n, n, np.outer(scale[:lead], scale) * g, scale[:lead] * (factor @ z),
                         None)


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


def ks_equal_sizes_sf(n: int, h: int) -> Fraction:
    """P(D_{n,n} >= h / n) for two samples of n draws, exactly: Gnedenko and
    Korolyuk's 2 sum_{j >= 1} (-1)^(j+1) C(2n, n - j h) / C(2n, n), with 1 at h = 0."""
    if h == 0:
        return Fraction(1)
    total = sum((-1) ** (j + 1) * math.comb(2 * n, n - j * h) for j in range(1, n // h + 1))
    return Fraction(2 * total, math.comb(2 * n, n))
