import math

import numpy as np
import pytest

from vaporspin.dynamics import PumpParams, master_rhs
from vaporspin.spin_algebra import build_coupled_operators, build_spin_matrices, clebsch_gordan

from conftest import random_density_matrix

SQ3 = math.sqrt(3.0)


def test_spin_half_is_half_pauli():
    jx, jy, jz = build_spin_matrices(0.5)
    assert np.allclose(jx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(jy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(jz, [[0.5, 0], [0, -0.5]])


def test_spin_three_halves_matrix_elements():
    jx, jy, jz = build_spin_matrices(1.5)
    # m-descending basis: first raising element is sqrt(3)/2
    assert jx[0, 1] == pytest.approx(SQ3 / 2, abs=1e-15)
    assert np.allclose(np.diag(jz), [1.5, 0.5, -0.5, -1.5])


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.5])
def test_su2_algebra_and_casimir(j):
    jx, jy, jz = build_spin_matrices(j)
    assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-13)
    assert np.allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-13)
    casimir = jx @ jx + jy @ jy + jz @ jz
    assert np.allclose(casimir, j * (j + 1) * np.eye(int(2 * j + 1)), atol=1e-13)


def test_spin_matrices_reject_bad_j():
    with pytest.raises(ValueError):
        build_spin_matrices(0.3)
    with pytest.raises(ValueError):
        build_spin_matrices(-0.5)


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(1.5, 2, 2, 1.5, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_known_values_f2(self):
        # |2,1> = sqrt(3)/2 |1/2, up> + 1/2 |3/2, down>
        assert clebsch_gordan(1.5, 2, 1, 0.5, 0.5) == pytest.approx(SQ3 / 2, abs=1e-14)
        assert clebsch_gordan(1.5, 2, 1, 1.5, -0.5) == pytest.approx(0.5, abs=1e-14)

    def test_known_values_f1_sign_convention(self):
        # lower-F multiplet carries the Condon-Shortley minus on the m_s=+1/2 leg
        assert clebsch_gordan(1.5, 1, 1, 0.5, 0.5) == pytest.approx(-0.5, abs=1e-14)
        assert clebsch_gordan(1.5, 1, 1, 1.5, -0.5) == pytest.approx(SQ3 / 2, abs=1e-14)

    def test_rows_normalized(self):
        for f in (1, 2):
            for m in range(-f, f + 1):
                total = sum(
                    clebsch_gordan(1.5, f, m, mi / 2, ms / 2) ** 2
                    for mi in (-3, -1, 1, 3)
                    for ms in (-1, 1)
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_selection_rules(self):
        assert clebsch_gordan(1.5, 2, 2, 0.5, 0.5) == 0.0  # m mismatch
        assert clebsch_gordan(1.5, 2, 3, 1.5, 0.5) == 0.0  # |m| > f is unreachable
        assert clebsch_gordan(1.5, 3, 0, 0.5, -0.5) == 0.0  # F is not I +- 1/2

    def test_invalid_spins_raise(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1.3, 2, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            clebsch_gordan(1.5, 2, 1, 0.3, 0.5)
        with pytest.raises(ValueError):
            clebsch_gordan(1.5, 0.75, 0.25, 0.5, -0.25)  # quarter-integer F

    def test_spin_one_coupling(self):
        # 1 x 1/2: <1 1; 1/2 -1/2 | 3/2 1/2> = sqrt(1/3)
        assert clebsch_gordan(1, 1.5, 0.5, 1, -0.5) == pytest.approx(
            math.sqrt(1 / 3), abs=1e-14
        )


@pytest.mark.parametrize("nuclear_spin", [k / 2 for k in range(1, 10)])
def test_coupled_basis_is_the_angular_momentum_basis(nuclear_spin):
    # checks of the coupled basis that do not use the coefficients' formula:
    # U is unitary, F_z and F^2 are diagonal with m_F and F(F + 1), F_+ has
    # real non-negative elements (Condon-Shortley), and |I + 1/2, I + 1/2> is
    # the stretched product state, <S_z> = 1/2
    ops = build_coupled_operators(nuclear_spin)
    f, m_f = np.array(ops.labels).T
    assert np.allclose(ops.u @ ops.u.conj().T, np.eye(ops.dim), rtol=0, atol=1e-13)
    assert np.allclose(ops.f_ops[2], np.diag(m_f), rtol=0, atol=1e-13)
    assert np.allclose(sum(g @ g for g in ops.f_ops), np.diag(f * (f + 1)), rtol=0, atol=1e-12)
    f_plus = ops.f_ops[0] + 1j * ops.f_ops[1]
    assert np.all(f_plus.real > -1e-13) and np.allclose(f_plus.imag, 0.0, rtol=0, atol=1e-13)
    assert ops.s_ops[2][0, 0].real == pytest.approx(0.5, abs=1e-14)


def test_five_halves_coefficients():
    # |3, 2> = sqrt(5/6) |3/2, up> + sqrt(1/6) |5/2, down> and
    # |2, 2> = -sqrt(1/6) |3/2, up> + sqrt(5/6) |5/2, down>; U's columns
    # run over (m_I, m_S) with m_I descending, m_S = +1/2 first
    ops = build_coupled_operators(2.5)
    f3, f2 = ops.labels.index((3.0, 2.0)), ops.labels.index((2.0, 2.0))
    up, down = 2, 1  # (m_I, m_S) = (3/2, +1/2) and (5/2, -1/2)
    assert ops.u[f3, up].real == pytest.approx(math.sqrt(5 / 6), abs=1e-15)
    assert ops.u[f3, down].real == pytest.approx(math.sqrt(1 / 6), abs=1e-15)
    assert ops.u[f2, up].real == pytest.approx(-math.sqrt(1 / 6), abs=1e-15)
    assert ops.u[f2, down].real == pytest.approx(math.sqrt(5 / 6), abs=1e-15)


@pytest.fixture(scope="module")
def ops():
    return build_coupled_operators(nuclear_spin=1.5)


class TestCoupledOperators:
    def test_dimension_and_labels(self, ops):
        assert ops.dim == 8
        assert ops.labels == (
            (2.0, 2.0), (2.0, 1.0), (2.0, 0.0), (2.0, -1.0), (2.0, -2.0),
            (1.0, 1.0), (1.0, 0.0), (1.0, -1.0),
        )

    def test_transform_unitary(self, ops):
        assert np.allclose(ops.u @ ops.u.conj().T, np.eye(8), atol=1e-13)

    def test_fz_is_diagonal_with_m_values(self, ops):
        fz = ops.f_ops[2]
        assert np.allclose(fz, np.diag([2, 1, 0, -1, -2, 1, 0, -1]), atol=1e-13)

    def test_f_squared_blocks(self, ops):
        f2 = sum(f @ f for f in ops.f_ops)
        expected = np.diag([6.0] * 5 + [2.0] * 3)
        assert np.allclose(f2, expected, atol=1e-12)

    def test_total_angular_momentum_algebra(self, ops):
        fx, fy, fz = ops.f_ops
        assert np.allclose(fx @ fy - fy @ fx, 1j * fz, atol=1e-13)

    def test_electron_and_nuclear_casimirs(self, ops):
        s2 = sum(s @ s for s in ops.s_ops)
        i2 = sum(i @ i for i in ops.i_ops)
        assert np.allclose(s2, 0.75 * np.eye(8), atol=1e-13)
        assert np.allclose(i2, 3.75 * np.eye(8), atol=1e-13)

    def test_hyperfine_spectrum(self, ops):
        w = np.sort(np.linalg.eigvalsh(ops.i_dot_s))
        assert np.allclose(w[:3], -1.25, atol=1e-12)  # F = 1 triplet
        assert np.allclose(w[3:], 0.75, atol=1e-12)  # F = 2 quintet

    def test_h0_equals_casimir_combination(self, ops):
        f2 = sum(f @ f for f in ops.f_ops)
        alt = 0.5 * (f2 - 3.75 * np.eye(8) - 0.75 * np.eye(8))
        assert np.allclose(ops.i_dot_s, alt, atol=1e-12)

    def test_stretched_state_electron_polarization(self, ops):
        # |2,2> = |m_i=3/2>|up>, so <S_z> = 1/2 exactly
        assert ops.s_ops[2][0, 0].real == pytest.approx(0.5, abs=1e-14)

    def test_maximally_mixed(self, ops):
        rho = ops.maximally_mixed()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(rho, np.eye(8) / 8)

    def test_a_hfs_scales_h0(self, ops, rng):
        # master_rhs takes A from the params: with every other rate zero,
        # drho/dt = -i A [I.S, rho] is linear in A
        rho = random_density_matrix(rng)
        rhs = {
            a: master_rhs(rho, PumpParams(r_op=0.0, s=(0, 0, 0), gamma_se=0.0, gamma_sd=0.0, a_hfs=a), ops)
            for a in (1.0, 7.0)
        }
        assert np.max(np.abs(rhs[1.0])) > 0.1
        assert np.allclose(rhs[7.0], 7.0 * rhs[1.0], rtol=0, atol=1e-12)

    def test_operators_are_built_once_and_read_only(self):
        ops = build_coupled_operators(1.5)
        assert build_coupled_operators(1.5) is ops
        for name in ("s_ops", "i_ops", "f_ops", "i_dot_s", "u"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ops, name)[..., 0, 0] = 0.0

    def test_higher_nuclear_spin(self):
        ops = build_coupled_operators(nuclear_spin=2.5)
        assert ops.dim == 12
        w = np.sort(np.linalg.eigvalsh(ops.i_dot_s))
        assert np.allclose(w[:5], -1.75, atol=1e-12)  # F = 2
        assert np.allclose(w[5:], 1.25, atol=1e-12)  # F = 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_coupled_operators(nuclear_spin=0.0)
        with pytest.raises(ValueError):
            build_coupled_operators(nuclear_spin=0.7)
