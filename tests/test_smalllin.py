import numpy as np
import pytest

from slowflow.errors import NotHurwitz, Singular
from slowflow.smalllin import (
    cholesky, eig2x2, eigenvalues, lyapunov_solve, solve, solve_lower,
)


def _sorted(vals):
    return np.array(sorted(np.asarray(vals, dtype=complex),
                           key=lambda z: (z.real, z.imag)))


def test_solve_identity():
    b = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(solve(np.eye(3), b), b)


def test_solve_diagonal():
    got = solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    assert np.allclose(got, [1.0, 2.0], atol=1e-14)


def test_solve_zero_matrix_singular():
    with pytest.raises(Singular):
        solve(np.zeros((3, 3)), np.ones(3))


def test_solve_nearly_singular_matrix_singular():
    # a non-zero matrix whose sigma_min (~5.6e-16) sits far below the
    # 1e-13 * |A|_F threshold (2e-13)
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(Singular):
        solve(A, np.ones(2))


def test_solve_residual_contract():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        x = solve(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_solve_matmul_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        x = rng.standard_normal(5)
        assert np.linalg.norm(solve(A, A @ x) - x) < 1e-9


def test_eigenvalues_rotation_generator():
    spec = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(spec.values, [-1j, 1j])


def test_eigenvalues_diagonal():
    spec = eigenvalues(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    assert np.allclose(spec.values, [-2.0, -1.0])


def test_eigenvalues_trace_det_identities():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.standard_normal((5, 5))
        vals = eigenvalues(A).values
        assert abs(np.sum(vals) - np.trace(A)) < 1e-8
        det = np.linalg.det(A)
        assert abs(np.prod(vals) - det) < 1e-6 * max(1.0, abs(det))


def test_eigenvalues_similarity_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.standard_normal((6, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = _sorted(eigenvalues(A).values)
        b = _sorted(eigenvalues(Q.T @ A @ Q).values)
        assert np.max(np.abs(a - b)) < 1e-7


def test_eigenvalues_conjugate_pairs_and_sorting():
    rng = np.random.default_rng(13)
    for _ in range(15):
        A = rng.standard_normal((7, 7))
        vals = eigenvalues(A).values
        order = [(z.real, z.imag) for z in vals]
        assert order == sorted(order)
        complex_part = sorted([z for z in vals if abs(z.imag) > 1e-9],
                              key=lambda z: (z.real, abs(z.imag), z.imag))
        for i in range(0, len(complex_part), 2):
            assert abs(complex_part[i] - complex_part[i + 1].conjugate()) < 1e-9


def test_eigenvalues_match_numpy_up_to_16():
    rng = np.random.default_rng(17)
    for n in (3, 8, 16):
        for _ in range(5):
            A = rng.standard_normal((n, n))
            a = _sorted(eigenvalues(A).values)
            b = _sorted(np.linalg.eigvals(A))
            scale = max(1.0, np.max(np.abs(b)))
            assert np.max(np.abs(a - b)) / scale < 1e-8


def test_eigenvalues_size_cap():
    with pytest.raises(ValueError):
        eigenvalues(np.eye(17))


def test_closed_form_2x2_cross_checks_qr():
    rng = np.random.default_rng(19)
    for _ in range(25):
        B = rng.standard_normal((2, 2))
        direct = _sorted(eig2x2(B[0, 0], B[0, 1], B[1, 0], B[1, 1]))
        # route the same block through the QR path by embedding it at 3x3
        padded = np.zeros((3, 3))
        padded[:2, :2] = B
        padded[2, 2] = 77.0
        via_qr = [z for z in eigenvalues(padded).values if abs(z - 77.0) > 1.0]
        assert np.max(np.abs(direct - _sorted(via_qr))) < 1e-9


def test_spectrum_flags():
    spec = eigenvalues(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    assert spec.is_hurwitz()
    assert not eigenvalues(np.array([[-1.0, 0.0], [0.0, 1e-12]])).is_hurwitz()


def test_lyapunov_minus_identity():
    P = lyapunov_solve(-np.eye(3))
    assert np.allclose(P, 0.5 * np.eye(3), atol=1e-12)


def test_lyapunov_diagonal():
    P = lyapunov_solve(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    assert np.allclose(P, np.diag([0.5, 0.25]), atol=1e-12)


def test_lyapunov_oscillatory():
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    P = lyapunov_solve(A)
    assert np.max(np.abs(A.T @ P + P @ A + np.eye(2))) <= 1e-10
    cholesky(P)     # positive definite


def test_lyapunov_requires_hurwitz():
    with pytest.raises(NotHurwitz):
        lyapunov_solve(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_lyapunov_random_hurwitz_spd():
    rng = np.random.default_rng(23)
    for k in (2, 3, 4):
        for _ in range(6):
            A = rng.standard_normal((k, k)) - (2.0 + k) * np.eye(k)
            if not eigenvalues(A).is_hurwitz():
                continue
            P = lyapunov_solve(A)
            cholesky(P)
            assert np.max(np.abs(A.T @ P + P @ A + np.eye(k))) <= 1e-8


def test_cholesky_triangular_solves():
    rng = np.random.default_rng(29)
    B = rng.standard_normal((4, 4))
    P = B @ B.T + 4.0 * np.eye(4)
    L = cholesky(P)
    assert np.allclose(L @ L.T, P, atol=1e-12)
    b = rng.standard_normal(4)
    assert np.allclose(L @ solve_lower(L, b), b, atol=1e-12)


def test_cholesky_rejects_indefinite():
    with pytest.raises(Singular):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

