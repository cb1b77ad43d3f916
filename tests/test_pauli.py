import math

import numpy as np
import pytest

from blochamp import (
    HermitianPauliVector,
    PauliVectorC,
    PsdState,
    decompose,
    expectation,
    is_pure,
    purity_entropy,
    reconstruct,
    spectrum,
    trace_product,
)
from conftest import random_cone_state


class TestReconstruct:
    def test_pure_z(self):
        m = reconstruct(PsdState(1.0, [0, 0, 1]))
        assert np.allclose(m, [[1, 0], [0, 0]])

    def test_maximally_mixed(self):
        m = reconstruct(PsdState(1.0, [0, 0, 0]))
        assert np.allclose(m, np.eye(2) / 2)

    def test_unnormalized(self):
        m = reconstruct(PsdState(2.0, [1, 1, 0]))
        expected = np.array([[1.0, 0.5 - 0.5j], [0.5 + 0.5j, 1.0]])
        assert np.abs(m - expected).max() <= 1e-14

    def test_trace_and_components(self, rng):
        for _ in range(50):
            tau, r = random_cone_state(rng)
            m = reconstruct(PsdState(tau, r))
            assert abs(np.trace(m).real - tau) <= 1e-14 * max(1, tau)
            sx = np.array([[0, 1], [1, 0]])
            assert abs(np.trace(sx @ m).real - r[0]) <= 1e-14 * max(1, tau)

    def test_round_trip(self, rng):
        for _ in range(1000):
            tau, r = random_cone_state(rng)
            s = decompose(reconstruct(PsdState(tau, r)))
            assert abs(s.tau - tau) <= 1e-12
            assert np.abs(s.r - r).max() <= 1e-12


class TestSpectrum:
    @pytest.mark.parametrize("tau,r,expected", [
        (1.0, (1, 0, 0), (1.0, 0.0)),
        (1.0, (0, 0, 0), (0.5, 0.5)),
        (2.0, (0.6, 0, 0.8), (1.5, 0.5)),
    ])
    def test_known_values(self, tau, r, expected):
        hi, lo = spectrum(PsdState(tau, r))
        assert hi == pytest.approx(expected[0], abs=1e-12)
        assert lo == pytest.approx(expected[1], abs=1e-12)

    def test_matches_dense_eigensolve(self, rng):
        for _ in range(200):
            tau, r = random_cone_state(rng)
            s = PsdState(tau, r)
            dense = np.linalg.eigvalsh(reconstruct(s))
            hi, lo = spectrum(s)
            assert abs(hi - dense[1]) <= 1e-12
            assert abs(lo - dense[0]) <= 1e-12


class TestIsPure:
    def test_pure(self):
        assert is_pure(PsdState(1.0, [0, 0, 1]), 1e-9)

    def test_mixed(self):
        assert not is_pure(PsdState(1.0, [0, 0, 0]), 1e-9)

    def test_diagonal_pure(self):
        v = 1 / math.sqrt(2)
        assert is_pure(PsdState(1.0, [v, v, 0]), 1e-9)

    def test_matches_idempotency(self, rng):
        # Pure exactly when the matrix squares to tau times itself.
        for _ in range(100):
            tau, r = random_cone_state(rng)
            s = PsdState(tau, r)
            m = reconstruct(s)
            idem = np.abs(m @ m - s.tau * m).max() <= 1e-9 * max(1.0, s.tau ** 2)
            assert is_pure(s, 1e-9 * max(1.0, s.tau)) == idem

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            is_pure(PsdState(1.0, [0, 0, 0]), 0.0)


class TestPurityEntropy:
    def test_maximally_mixed(self):
        p, s = purity_entropy(PsdState(1.0, [0, 0, 0]))
        assert p == pytest.approx(0.5, abs=1e-15)
        assert s == pytest.approx(math.log(2), abs=1e-15)

    def test_pure(self):
        p, s = purity_entropy(PsdState(1.0, [1, 0, 0]))
        assert p == pytest.approx(1.0, abs=1e-15)
        assert s == 0.0

    def test_unnormalized_half_radius(self):
        # Eigenvalues of rho are 0.75 and 0.25.
        p, s = purity_entropy(PsdState(2.0, [1, 0, 0]))
        assert p == pytest.approx(0.625, abs=1e-15)
        assert s == pytest.approx(0.5623351446188083, abs=1e-15)


class TestExpectation:
    def test_sigma_z_on_pole(self):
        obs = HermitianPauliVector([0, 0, 0, 1])
        assert expectation(PsdState(1.0, [0, 0, 1]), obs) == pytest.approx(1.0)

    def test_trace_pairing_with_omega_like_observable(self):
        # 2 m^2 (sigma_x - I) with m = 1, paired with the maximally mixed state.
        obs = HermitianPauliVector([-2.0, 2.0, 0.0, 0.0])
        s = PsdState(1.0, [0, 0, 0])
        assert trace_product(s, obs) == pytest.approx(-2.0, abs=1e-14)

    def test_identity_observable(self):
        obs = HermitianPauliVector([1, 0, 0, 0])
        s = PsdState(2.0, [0, 0, 0])
        assert expectation(s, obs) == pytest.approx(1.0)
        assert trace_product(s, obs) == pytest.approx(2.0)

    def test_rescaling_invariance(self, rng):
        for _ in range(100):
            tau, r = random_cone_state(rng)
            obs = HermitianPauliVector(rng.normal(size=4))
            c = 0.1 + 5.0 * rng.random()
            a = expectation(PsdState(tau, r), obs)
            b = expectation(PsdState(c * tau, c * r), obs)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive_trace(self):
        obs = HermitianPauliVector([1, 0, 0, 0])
        s = PsdState(0.0, [0, 0, 0], physical=False)
        with pytest.raises(ValueError):
            expectation(s, obs)


class TestPsdStateValidation:
    def test_apex_rejected(self):
        with pytest.raises(ValueError):
            PsdState(1e-12, [0, 0, 0])

    def test_off_cone_rejected(self):
        with pytest.raises(ValueError):
            PsdState(1.0, [1.1, 0, 0])

    def test_nonphysical_allows_anything(self):
        s = PsdState(0.0, [2, 0, 0], physical=False)
        assert s.cone_margin == -2.0

    def test_cone_margin(self):
        assert PsdState(1.0, [0.6, 0, 0]).cone_margin == pytest.approx(0.4)

    @pytest.mark.parametrize("physical", [True, False])
    @pytest.mark.parametrize("tau,r,field", [(math.nan, [0, 0, 0], "tau"),
                                             (math.inf, [0, 0, 0], "tau"),
                                             (1.0, [math.nan, 0, 0], "r")])
    def test_non_finite_rejected(self, tau, r, field, physical):
        with pytest.raises(ValueError, match=f"PsdState.{field} must be finite"):
            PsdState(tau, r, physical=physical)


class TestPauliVectors:
    def test_complex_round_trip(self, rng):
        for _ in range(200):
            xi = rng.normal(size=4) + 1j * rng.normal(size=4)
            v = PauliVectorC(xi)
            back = PauliVectorC.from_matrix(v.to_matrix())
            assert np.abs(back.xi - xi).max() <= 1e-12

    def test_hermitian_round_trip(self, rng):
        for _ in range(200):
            ell = rng.normal(size=4)
            v = HermitianPauliVector(ell)
            m = v.to_matrix()
            assert np.abs(m - m.conj().T).max() <= 1e-14
            back = HermitianPauliVector.from_matrix(m)
            assert np.abs(back.ell - ell).max() <= 1e-12

    @pytest.mark.parametrize("cls,field", [(PauliVectorC, "xi"),
                                           (HermitianPauliVector, "ell")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, cls, field, bad):
        with pytest.raises(ValueError, match=f"{cls.__name__}.{field} must be finite"):
            cls([0.0, bad, 0.0, 0.0])

    def test_from_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianPauliVector.from_matrix(np.array([[0, 1], [0, 0]]))
