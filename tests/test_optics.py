import numpy as np
import pytest

from cbwsim.optics import (
    UNITARY_TOL,
    Arm,
    apply,
    beam_splitter,
    compose,
    intensities,
    is_unitary,
    mzi,
    phase_element,
)


def printed_single_mzi(psi):
    """Lower-arm MZI matrix written out entry by entry (independent oracle)."""
    e = np.exp(1j * psi)
    return 0.5 * np.array([[1 - e, 1j * (1 + e)], [1j * (1 + e), -(1 - e)]])


def random_unitary_chain(rng, length):
    elements = []
    for _ in range(length):
        arm = Arm.UPPER if rng.random() < 0.5 else Arm.LOWER
        phase = rng.uniform(-2 * np.pi, 2 * np.pi)
        elements.append(mzi(arm, phase) if rng.random() < 0.5 else phase_element(arm, phase))
    return elements


class TestBeamSplitter:
    def test_splits_single_input_evenly(self):
        out = apply(beam_splitter(), [1.0, 0.0])
        np.testing.assert_allclose(out, [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-15)

    def test_two_in_a_row_is_full_cross_coupling(self):
        bb = beam_splitter() @ beam_splitter()
        np.testing.assert_allclose(bb, [[0, 1j], [1j, 0]], atol=1e-15)

    def test_unit_determinant_magnitude(self):
        assert abs(abs(np.linalg.det(beam_splitter())) - 1.0) < 1e-15

    def test_is_unitary(self):
        assert is_unitary(beam_splitter())


class TestPhaseElement:
    def test_zero_phase_is_identity(self):
        np.testing.assert_array_equal(phase_element(Arm.LOWER, 0.0), np.eye(2))

    def test_lower_pi(self):
        np.testing.assert_allclose(phase_element(Arm.LOWER, np.pi), np.diag([1, -1]), atol=1e-15)

    def test_upper_half_pi(self):
        np.testing.assert_allclose(phase_element(Arm.UPPER, np.pi / 2), np.diag([1j, 1]), atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_phase(self, bad):
        with pytest.raises(ValueError):
            phase_element(Arm.LOWER, bad)

    def test_array_phase_broadcasts(self):
        phases = np.array([0.0, np.pi / 2, np.pi])
        stack = phase_element(Arm.UPPER, phases)
        assert stack.shape == (3, 2, 2)
        np.testing.assert_allclose(stack[2], np.diag([-1, 1]), atol=1e-15)


class TestMzi:
    def test_cross_port_at_zero_phase(self):
        np.testing.assert_allclose(mzi(Arm.LOWER, 0.0), [[0, 1j], [1j, 0]], atol=1e-15)

    def test_bar_port_at_pi(self):
        np.testing.assert_allclose(mzi(Arm.LOWER, np.pi), [[1, 0], [0, -1]], atol=1e-15)

    def test_upper_arm_corner_entry(self):
        rng = np.random.default_rng(11)
        for psi in rng.uniform(-8, 8, 50):
            expected = (np.exp(1j * psi) - 1) / 2
            assert abs(mzi(Arm.UPPER, psi)[0, 0] - expected) < 1e-14

    def test_matches_printed_matrix_for_many_phases(self):
        rng = np.random.default_rng(7)
        for psi in rng.uniform(-10, 10, 1000):
            np.testing.assert_allclose(mzi(Arm.LOWER, psi), printed_single_mzi(psi), atol=1e-12)


class TestCompose:
    def test_singleton(self):
        m = mzi(Arm.LOWER, 0.3)
        np.testing.assert_array_equal(compose([m]), m)

    def test_two_beam_splitters(self):
        np.testing.assert_allclose(compose([beam_splitter(), beam_splitter()]),
                                   [[0, 1j], [1j, 0]], atol=1e-15)

    def test_first_element_acts_first(self):
        a = phase_element(Arm.UPPER, 0.4)
        b = beam_splitter()
        np.testing.assert_allclose(compose([a, b]), b @ a, atol=1e-15)

    def test_two_stage_cascade_closed_form(self):
        # [W][phi=0][C] must reproduce the halved-period matrix exactly.
        rng = np.random.default_rng(3)
        for psi in rng.uniform(-10, 10, 200):
            m = compose([mzi(Arm.LOWER, psi), phase_element(Arm.UPPER, 0.0), mzi(Arm.UPPER, psi)])
            e2 = np.exp(2j * psi)
            expected = -0.5 * np.array([[1 + e2, 1j * (1 - e2)], [-1j * (1 - e2), 1 + e2]])
            np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            compose([])


class TestApply:
    def test_identity(self):
        np.testing.assert_array_equal(apply(np.eye(2), [0.3 + 0.1j, 0.0]), [0.3 + 0.1j, 0.0])

    def test_half_pi_mzi_balances_outputs(self):
        out = apply(mzi(Arm.LOWER, np.pi / 2), [1.0, 0.0])
        np.testing.assert_allclose(out, [(1 - 1j) / 2, (1j - 1) / 2], atol=1e-15)
        np.testing.assert_allclose(intensities(out), (0.5, 0.5), atol=1e-15)

    def test_cross_matrix(self):
        np.testing.assert_allclose(apply(np.array([[0, 1j], [1j, 0]]), [1.0, 0.0]),
                                   [0.0, 1j], atol=1e-15)


class TestIntensities:
    def test_unit_input(self):
        assert intensities(np.array([1.0, 0.0])) == (1.0, 0.0)

    def test_balanced(self):
        up, lo = intensities(np.array([1 / np.sqrt(2), 1j / np.sqrt(2)]))
        assert abs(up - 0.5) < 1e-15 and abs(lo - 0.5) < 1e-15

    def test_single_mzi_upper_intensity_law(self):
        rng = np.random.default_rng(5)
        for psi in rng.uniform(-10, 10, 200):
            amp = (1 - np.exp(1j * psi)) / 2
            up, _ = intensities(np.array([amp, 0.0]))
            assert abs(up - (1 - np.cos(psi)) / 2) < 1e-14


class TestIsUnitary:
    def test_beam_splitter_yes(self):
        assert is_unitary(beam_splitter(), 1e-12)

    def test_scaled_diagonal_no(self):
        assert not is_unitary(np.diag([1.0, 2.0]), 1e-12)

    def test_six_random_elements_compose_unitary(self):
        rng = np.random.default_rng(13)
        assert is_unitary(compose(random_unitary_chain(rng, 6)), 1e-12)

    def test_requires_positive_tolerance(self):
        with pytest.raises(ValueError):
            is_unitary(np.eye(2), 0.0)


class TestInvariants:
    def test_energy_conservation_random_chains(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            chain = random_unitary_chain(rng, rng.integers(1, 21))
            up, lo = intensities(apply(compose(chain), [1.0, 0.0]))
            assert abs(up + lo - 1.0) < 1e-12

    def test_composition_of_unitaries_is_unitary(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            chain = random_unitary_chain(rng, rng.integers(1, 21))
            assert is_unitary(compose(chain), UNITARY_TOL)

    def test_global_phase_leaves_intensities_alone(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = compose(random_unitary_chain(rng, rng.integers(1, 10)))
            theta = rng.uniform(0, 2 * np.pi)
            base = intensities(apply(m, [1.0, 0.0]))
            shifted = intensities(apply(np.exp(1j * theta) * m, [1.0, 0.0]))
            assert max(abs(base[0] - shifted[0]), abs(base[1] - shifted[1])) < 1e-12


SHAPES = [(), (7,), (3, 4)]


def random_element(rng, shape):
    """A random mzi or phase element over phases of ``shape``."""
    arm = Arm.UPPER if rng.random() < 0.5 else Arm.LOWER
    phase = rng.uniform(-2 * np.pi, 2 * np.pi, shape)
    return mzi(arm, phase) if rng.random() < 0.5 else phase_element(arm, phase)


class TestKernelsMatchNumpy:
    """The entrywise kernels against numpy's ``@`` and ``einsum`` as the oracle."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("arm", [Arm.UPPER, Arm.LOWER])
    def test_mzi_is_bs_phase_bs(self, shape, arm):
        phase = np.random.default_rng(31).uniform(-10, 10, shape)
        bs = beam_splitter()
        got = mzi(arm, phase)
        assert got.shape == shape + (2, 2)
        np.testing.assert_allclose(got, bs @ phase_element(arm, phase) @ bs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_compose_mixing_single_matrices_and_stacks(self, shape):
        rng = np.random.default_rng(32)
        for _ in range(20):
            chain = [random_element(rng, shape if rng.random() < 0.5 else ())
                     for _ in range(rng.integers(1, 9))]
            expected = chain[0]
            for element in chain[1:]:
                expected = element @ expected
            got = compose(chain)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_compose_broadcasts_stacks_of_different_shapes(self):
        rng = np.random.default_rng(33)
        a, b = random_element(rng, (3, 1)), random_element(rng, (4,))
        np.testing.assert_allclose(compose([a, b]), b @ a, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_apply_matches_einsum(self, shape):
        rng = np.random.default_rng(34)
        matrix = compose([random_element(rng, shape) for _ in range(3)])
        for field_shape in [(2,), shape + (2,)]:
            field = rng.normal(size=field_shape) + 1j * rng.normal(size=field_shape)
            expected = np.einsum("...ij,...j->...i", matrix, field)
            got = apply(matrix, field)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_mzi_validates_phase_and_arm(self):
        with pytest.raises(ValueError):
            mzi(Arm.LOWER, [0.0, np.nan])
        with pytest.raises(TypeError):
            mzi("lower", 0.0)

    def test_non_2x2_operands_rejected(self):
        with pytest.raises(ValueError):
            compose([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError):
            apply(np.eye(2), [1.0, 0.0, 0.0])
