"""Independent oracles for the benchmark's correctness checks.

Everything here is derived from the model equations, not taken from
``slowflow``: the benchmark checks the program's outputs against these closed
forms, so they must not share code with the program under test.

Forced oscillator  u'' + eps*d(u)*u' + (1 + a*eps)*u = eps*lam*sin t  in slow
coordinates u = M sin t + N cos t.  With A = |(M, N)| the one-period integral
of the slow field is

    avg(M, N) = [M*k(A) - a*pi*N,  N*k(A) + a*pi*M - lam*pi],

where k(A) = pi*(1 - 4A/(3*pi)) for d(u) = |u| - 1 and k(A) = pi*(1 - A^2/4)
for d(u) = u^2 - 1.  Its roots have amplitudes solving
A^2*(a^2 + (k(A)/pi)^2) = lam^2 and (M, N) solving the 2x2 system
[[k, -a*pi], [a*pi, k]] @ [M, N] = [0, lam*pi].

Run ``python3 perfbench/oracles.py`` for the self-test against the paper's
constants (unforced amplitudes 3*pi/4 and 2, the linear benchmark's closed
forms) and against brute-force quadrature of the slow field.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
UNFORCED = {"nonsmooth": 3.0 * math.pi / 4.0, "classical": 2.0}


class Mismatch(AssertionError):
    """A program output disagrees with its oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# --- forced oscillators --------------------------------------------------------


def detune(model: str, A: float) -> float:
    """k(A)/pi: the amplitude-dependent part of the averaged damping."""
    if model == "nonsmooth":
        return 1.0 - 4.0 * A / (3.0 * math.pi)
    if model == "classical":
        return 1.0 - A * A / 4.0
    raise ValueError(model)


def detune_slope(model: str, A: float) -> float:
    if model == "nonsmooth":
        return -4.0 / (3.0 * math.pi)
    return -A / 2.0


def slow_field(model: str, t, M, N, a: float, lam: float) -> np.ndarray:
    """g(t, (M, N), 0) written out from the substitution, shape (len(t), 2)."""
    s, c = np.sin(t), np.cos(t)
    u = M * s + N * c
    du = M * c - N * s
    d = np.abs(u) - 1.0 if model == "nonsmooth" else u * u - 1.0
    F = -d * du - a * u + lam * s
    return np.stack([F * c, -F * s], axis=-1)


def averaged_field(model: str, v, a: float, lam: float) -> np.ndarray:
    M, N = float(v[0]), float(v[1])
    k = math.pi * detune(model, math.hypot(M, N))
    return np.array([M * k - a * math.pi * N,
                     N * k + a * math.pi * M - lam * math.pi])


def averaged_jacobian(model: str, v, a: float) -> np.ndarray:
    M, N = float(v[0]), float(v[1])
    A = math.hypot(M, N)
    k = math.pi * detune(model, A)
    dk = math.pi * detune_slope(model, A)
    return np.array([[k + dk * M * M / A, dk * M * N / A - a * math.pi],
                     [dk * M * N / A + a * math.pi, k + dk * N * N / A]])


def amplitude_residual(model: str, A: float, a: float, lam: float) -> float:
    return A * A * (a * a + detune(model, A) ** 2) - lam * lam


def _bisect(fun, lo, hi):
    flo = fun(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if fm == 0.0 or hi - lo <= 1e-15 * max(1.0, mid):
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def amplitudes(model: str, a: float, lam: float) -> list:
    """Positive simple roots of the amplitude equation (sign scan + bisection)."""
    top = 2.0 * UNFORCED[model] + lam + abs(a) + 1.0
    grid = np.linspace(top * 1e-6, top, 20001)
    fun = lambda A: amplitude_residual(model, A, a, lam)  # noqa: E731
    vals = fun(grid)
    return [_bisect(fun, grid[i], grid[i + 1])
            for i in range(len(grid) - 1) if (vals[i] < 0) != (vals[i + 1] < 0)]


def unforced_amplitude(model: str) -> float:
    """Zero of the averaged damping k(A): the unforced limit cycle."""
    return _bisect(lambda A: detune(model, A), 0.0, 4.0)


def forced_root(model: str, a: float, lam: float, A: float) -> np.ndarray:
    """(M, N) of the averaged root with amplitude A, from the 2x2 system."""
    k = math.pi * detune(model, A)
    return np.linalg.solve(np.array([[k, -a * math.pi], [a * math.pi, k]]),
                           np.array([0.0, lam * math.pi]))


def sorted_eigs(J) -> np.ndarray:
    w = np.linalg.eigvals(np.asarray(J, dtype=float)).astype(complex)
    return w[np.lexsort((w.imag, w.real))]


def first_order_multipliers(J, eps: float) -> np.ndarray:
    """Floquet multipliers of the period map to first order: 1 + eps*lambda."""
    return 1.0 + eps * sorted_eigs(J)


def check_multipliers(mults, J, eps: float, what: str) -> None:
    """Multipliers agree with 1 + eps*lambda(J) within O(eps^2).

    The second-order term of the period map is bounded by |lambda|^2/2 plus a
    contribution from the oscillating part of the field; 3*(1 + rho^2)*eps^2
    covers both with margin for the built-in oscillators.
    """
    mults = np.asarray(mults, dtype=complex)
    mults = mults[np.lexsort((mults.imag, mults.real))]
    ref = first_order_multipliers(J, eps)
    rho = float(np.max(np.abs(sorted_eigs(J))))
    tol = 3.0 * (1.0 + rho * rho) * eps * eps
    err = float(np.max(np.abs(mults - ref)))
    expect(err <= tol, f"{what}: multipliers {mults} vs 1+eps*lambda {ref} "
                       f"(error {err:.3e} > {tol:.3e})")


# --- linear benchmark x' = eps*(cos t - x) -------------------------------------


def linear_fixed_point(eps: float) -> float:
    return eps * eps / (1.0 + eps * eps)


def linear_periodic_solution(t, eps: float):
    return eps * (eps * np.cos(t) + np.sin(t)) / (1.0 + eps * eps)


def linear_multiplier(eps: float) -> float:
    """Multiplier of the period map and its exact contraction factor."""
    return math.exp(-TWO_PI * eps)


# --- contraction certificates ---------------------------------------------------


def pnorm(Mx, P) -> float:
    """Operator norm of Mx in |x|_P = sqrt(x'Px), via Cholesky and the 2-norm."""
    L = np.linalg.cholesky(np.asarray(P, dtype=float))
    B = L.T @ np.asarray(Mx, dtype=float) @ np.linalg.inv(L.T)
    return float(np.linalg.norm(B, 2))


def check_certificate(report: dict, J, what: str) -> None:
    """Redo a `certify` contraction certificate with numpy.linalg.

    ``J`` is the closed-form averaged Jacobian; the report's P must solve
    J'P + PJ = -I up to the FD error of the program's Jacobian, and
    |(I + alpha*J)x|_P <= q|x|_P must hold with q < 1.
    """
    c = report["contraction"]
    expect(c is not None, f"{what}: no contraction certificate")
    P = np.asarray(c["lyapunov_P"], dtype=float)
    alpha, q = float(c["alpha"]), float(c["q"])
    expect(np.allclose(P, P.T, rtol=0, atol=1e-12 * np.max(np.abs(P))),
           f"{what}: P not symmetric")
    expect(float(np.min(np.linalg.eigvalsh(P))) > 0, f"{what}: P not positive definite")
    k = J.shape[0]
    lyap = float(np.max(np.abs(J.T @ P + P @ J + np.eye(k))))
    expect(lyap <= 1e-4, f"{what}: Lyapunov residual {lyap:.3e}")
    expect(0.0 < alpha and 0.0 < q < 1.0, f"{what}: alpha={alpha}, q={q}")
    mu = pnorm(np.eye(k) + alpha * J, P)
    expect(mu <= q + 1e-5, f"{what}: |I + alpha*J|_P = {mu:.9f} > q = {q:.9f}")
    expect(abs(c["q_tilde"] - (1.0 - q) / alpha) <= 1e-9 * abs(c["q_tilde"]),
           f"{what}: q_tilde != (1 - q)/alpha")


# --- self-test --------------------------------------------------------------------


def self_test() -> None:
    """Oracles against the paper's constants and brute-force quadrature."""
    expect(abs(unforced_amplitude("nonsmooth") - 3.0 * math.pi / 4.0) < 1e-13,
           "unforced nonsmooth amplitude is not 3*pi/4")
    expect(abs(unforced_amplitude("classical") - 2.0) < 1e-13,
           "unforced classical amplitude is not 2")
    t = np.linspace(0.0, TWO_PI, 1 << 16, endpoint=False)
    h = TWO_PI / t.size
    for model in ("nonsmooth", "classical"):
        for a, lam in ((0.1, 1.0), (0.25, 0.6), (-0.2, 1.4)):
            for A in amplitudes(model, a, lam):
                v = forced_root(model, a, lam, A)
                expect(abs(math.hypot(*v) - A) < 1e-12 * (1 + A),
                       f"{model}: root amplitude differs from A")
                expect(np.max(np.abs(averaged_field(model, v, a, lam))) < 1e-12,
                       f"{model}: forced root does not zero the averaged field")
            v = np.array([0.7, -1.9])
            # periodic trapezoid; the corners of |u| cost O(h^2) ~ 1e-8
            brute = h * slow_field(model, t, v[0], v[1], a, lam).sum(axis=0)
            expect(np.max(np.abs(brute - averaged_field(model, v, a, lam))) < 1e-7,
                   f"{model}: closed-form average disagrees with quadrature")
            d = 1e-6
            fd = np.column_stack([
                (averaged_field(model, v + e, a, lam)
                 - averaged_field(model, v - e, a, lam)) / (2 * d)
                for e in (np.array([d, 0.0]), np.array([0.0, d]))])
            expect(np.max(np.abs(fd - averaged_jacobian(model, v, a))) < 1e-6,
                   f"{model}: closed-form Jacobian disagrees with differences")
    for eps in (0.01, 0.1):
        ts = np.linspace(0.0, TWO_PI, 7)
        dx = eps * (np.cos(ts) - eps * np.sin(ts)) / (1.0 + eps * eps)
        resid = dx - eps * (np.cos(ts) - linear_periodic_solution(ts, eps))
        expect(np.max(np.abs(resid)) < 1e-15, "linear periodic solution")
        expect(linear_periodic_solution(0.0, eps) == linear_fixed_point(eps),
               "linear fixed point")
    J = np.array([[-1.0, 2.0], [0.0, -3.0]])
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4000, 2))
    nx = np.sqrt(np.einsum("ij,jk,ik->i", X, P, X))
    Y = X @ (np.eye(2) + 0.1 * J).T
    ny = np.sqrt(np.einsum("ij,jk,ik->i", Y, P, Y))
    expect(abs(np.max(ny / nx) - pnorm(np.eye(2) + 0.1 * J, P)) < 1e-4,
           "P-norm operator norm disagrees with sampling")


if __name__ == "__main__":
    self_test()
    print("oracles: self-test passed")
