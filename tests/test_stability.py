import numpy as np
import pytest

from advdiff import EquationKind, compute_report, scan_beta_max
from advdiff.quadrature import coef_tables
from advdiff.stability import (FULLY_DISCRETE, KAPPA_DX, N_KAPPA, N_RATIO,
                               SEMI_DISCRETE, STEP_RATIOS, _dhat, amplification,
                               rk_multiplier)

ADV = EquationKind.ADVECTION
DIF = EquationKind.DIFFUSION


def test_symbol_zero_mode_vanishes():
    for mode in (SEMI_DISCRETE, FULLY_DISCRETE):
        assert abs(complex(_dhat(0.0, 0.8, mode))) < 1e-14


def test_symbol_semi_discrete_range_and_limits():
    for kdx in np.linspace(0.01, 2 * np.pi, 20):
        assert 0.0 <= _dhat(kdx, 0.5, SEMI_DISCRETE).real <= 1.0
    # kappa -> infinity: D_L's symbol, and so D_0's, approaches 1
    huge = complex(_dhat(1e8, 1.0, SEMI_DISCRETE))
    assert huge == pytest.approx(1.0, abs=1e-7)


# the right and symmetric families' own symbols, kept as oracles for the
# conjugate and the real part of D_L's
KDX = np.linspace(0.0, 2 * np.pi, 257)


@pytest.mark.parametrize("nu", [1e-3, 0.3, 1.0, 7.0])
def test_semi_discrete_zero_symbol_is_real_part_of_left(nu):
    theta = KDX / nu
    assert np.max(np.abs(theta ** 2 / (1 + theta ** 2)
                         - _dhat(KDX, nu, SEMI_DISCRETE).real)) <= 1e-14


def _jhat_fractions(nu):
    """Jhat(±)/(1 - e^{-nu ∓ i kappa dx}) from the linear quadrature rule."""
    c = coef_tables(nu).linear
    r = np.arange(-3, 3)
    gp = np.exp(1j * np.outer(KDX, r)) @ c / (1 - np.exp(-nu - 1j * KDX))
    gm = np.exp(-1j * np.outer(KDX, r)) @ c / (1 - np.exp(-nu + 1j * KDX))
    return gp, gm


@pytest.mark.parametrize("nu", [1e-3, 0.3, 1.0, 7.0])
def test_fully_discrete_right_symbol_is_conjugate_of_left(nu):
    _, gm = _jhat_fractions(nu)
    dl = _dhat(KDX, nu, FULLY_DISCRETE)
    assert np.max(np.abs((1 - gm) - np.conj(dl))) <= 1e-14


@pytest.mark.parametrize("nu", [1e-3, 0.3, 1.0, 7.0])
def test_fully_discrete_zero_symbol_is_real_part_of_left(nu):
    gp, gm = _jhat_fractions(nu)
    dl = _dhat(KDX, nu, FULLY_DISCRETE)
    assert np.max(np.abs((1 - 0.5 * (gp + gm)) - dl.real)) <= 1e-14


@pytest.mark.parametrize("beta", [0.0, np.nan, np.inf, -0.5])
def test_amplification_rejects_bad_beta(beta):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        amplification(2, ADV, beta, KDX, 1.0)


@pytest.mark.parametrize("ratio", [0.0, -1.0])
@pytest.mark.parametrize("kind", [ADV, DIF])
def test_amplification_rejects_bad_step_ratio(ratio, kind):
    with pytest.raises(ValueError, match="step_ratio must be positive and finite"):
        amplification(2, kind, 1.0, KDX, ratio)


@pytest.mark.parametrize("kind", ["advection", "diffusion", None])
def test_scans_reject_a_kind_that_is_not_an_equation_kind(kind):
    # any other kind used to run the diffusion symbol: scan_beta_max(3,
    # "advection") gave the diffusion bound 0.8367, not 1.2429
    for scan in (lambda: amplification(1, kind, 1.0, KDX, 1.0),
                 lambda: compute_report(1, kind, 1.0), lambda: scan_beta_max(3, kind)):
        with pytest.raises(ValueError, match="kind must be an EquationKind"):
            scan()


def test_amplification_k1_advection_beta2_is_unimodular():
    for s in (0.01, 1.0, 100.0):
        lam = amplification(1, ADV, 2.0, np.linspace(0, 2 * np.pi, 64), s)
        assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-12


def test_amplification_k1_advection_beta1_formula():
    kdx = np.array([0.3, 1.0, 2.5])
    s = 2.0
    lam = amplification(1, ADV, 1.0, kdx, s)
    theta = kdx * s / 1.0
    assert np.allclose(np.abs(lam), (1 + theta ** 2) ** -0.5, rtol=1e-13)


def test_amplification_k1_diffusion_saturates_at_minus_one():
    # large step ratio pushes the symbol to 1: lambda -> 1 - beta
    lam = amplification(1, DIF, 2.0, np.array([np.pi]), 1e9)
    assert lam[0].real == pytest.approx(-1.0, abs=1e-6)


def test_rk_multiplier_values():
    z = -0.5 + 0.2j
    assert rk_multiplier(1, z) == 1 + z
    assert rk_multiplier(2, z) == 1 + z + z * z / 2
    assert rk_multiplier(3, z) == 1 + z + z * z / 2 + z ** 3 / 6


def worst(order, kind, beta, mode):
    return np.max(compute_report(order, kind, beta, mode))


def test_report_max_amplification_examples():
    assert worst(1, ADV, 2.0, SEMI_DISCRETE) == pytest.approx(1.0, abs=1e-12)
    assert worst(2, DIF, 1.0, FULLY_DISCRETE) <= 1 + 1e-10
    assert worst(1, DIF, 2.5, SEMI_DISCRETE) > 1.1


def test_scan_beta_max_first_order():
    assert scan_beta_max(1, ADV) == pytest.approx(2.0, abs=0.01)
    assert scan_beta_max(1, DIF) == pytest.approx(2.0, abs=0.01)


def test_k3_advection_needs_cross_term():
    # without the correction the third-order convection operator is not
    # A-stable for any beta in the scanned range
    uncorrected = max(np.max(np.abs(amplification(3, ADV, 0.5, KAPPA_DX, s, SEMI_DISCRETE,
                                                  cross_term=False)))
                      for s in STEP_RATIOS)
    assert uncorrected > 1 + 1e-6
    assert worst(3, ADV, 1.243, SEMI_DISCRETE) <= 1 + 1e-10


@pytest.mark.parametrize("mode", [SEMI_DISCRETE, FULLY_DISCRETE])
def test_amplification_defaults_to_the_scheme_the_solver_runs(mode):
    # the k=3 advection correction is on by default, as in the solver
    kdx = np.linspace(0, 2 * np.pi, 33)
    default = amplification(3, ADV, 1.0, kdx, 3.7, mode)
    assert np.array_equal(default, amplification(3, ADV, 1.0, kdx, 3.7, mode, cross_term=True))
    assert not np.array_equal(default, amplification(3, ADV, 1.0, kdx, 3.7, mode,
                                                     cross_term=False))
    assert np.array_equal(amplification(3, DIF, 1.0, kdx, 3.7, mode),
                          amplification(3, DIF, 1.0, kdx, 3.7, mode, cross_term=False))


def test_conjugate_symmetry_fully_discrete():
    kdx = np.linspace(0, 2 * np.pi, 33)
    lam = amplification(2, ADV, 1.0, kdx, 3.7, FULLY_DISCRETE)
    assert np.allclose(lam[::-1], np.conj(lam), rtol=1e-12, atol=1e-14)


def test_report_scans_its_default_grid():
    abs_lambda = compute_report(1, DIF, 2.0, mode=FULLY_DISCRETE)
    assert np.max(abs_lambda) <= 1 + 1e-10
    assert abs_lambda.shape == (N_RATIO, N_KAPPA)
    assert STEP_RATIOS.shape == (N_RATIO,) and KAPPA_DX.shape == (N_KAPPA,)
    # row i is the step ratio STEP_RATIOS[i] over KAPPA_DX
    for i in (0, N_RATIO // 2, N_RATIO - 1):
        assert np.array_equal(abs_lambda[i], np.abs(amplification(
            1, DIF, 2.0, KAPPA_DX, STEP_RATIOS[i], FULLY_DISCRETE)))
    # zero mode is neutrally stable in every step-ratio row
    assert KAPPA_DX[0] == 0.0
    assert abs_lambda[:, 0] == pytest.approx(np.ones(N_RATIO), abs=1e-12)
