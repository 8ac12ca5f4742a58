import numpy as np
import pytest

from cbwsim import optics
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

    # The staged circuit fold builds one arm's MZI and reads the other's
    # through this view; signed zeros must survive it too.
    @pytest.mark.parametrize("phase", [
        -0.0, 0.0, np.pi, -np.pi, 2 * np.pi, 1e6,
        np.random.default_rng(12).uniform(-1e4, 1e4, 257),
        np.random.default_rng(13).uniform(-10, 10, (3, 1)),
    ], ids=["-0", "0", "pi", "-pi", "2pi", "1e6", "1-D", "(3, 1)"])
    @pytest.mark.parametrize("built, other", [(Arm.LOWER, Arm.UPPER), (Arm.UPPER, Arm.LOWER)])
    def test_the_other_arm_is_the_stack_read_anti_transposed(self, phase, built, other):
        view = np.swapaxes(mzi(built, phase)[..., ::-1, ::-1], -1, -2)
        expected = mzi(other, phase)
        assert view.shape == expected.shape
        assert np.array_equal(np.ascontiguousarray(view).view(np.uint64),
                              np.ascontiguousarray(expected).view(np.uint64))


class TestConstructorChecks:
    """``mzi`` and ``phase_element`` check the phase, then the arm, before allocating."""

    @pytest.mark.parametrize("make", [mzi, phase_element], ids=["mzi", "phase_element"])
    def test_a_bad_arm_is_refused_before_any_allocation(self, make, monkeypatch):
        def no_stack(shape):
            raise AssertionError(f"allocated a {shape} stack before checking the arm")

        monkeypatch.setattr(optics, "_empty_stack", no_stack)
        with pytest.raises(TypeError):
            make("lower", np.zeros(5))

    @pytest.mark.parametrize("make", [mzi, phase_element], ids=["mzi", "phase_element"])
    def test_a_non_finite_phase_is_refused_before_the_arm(self, make):
        with pytest.raises(ValueError):
            make("lower", [0.0, np.inf])


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

    def test_exact_identity_yes(self):
        assert is_unitary(np.eye(2), 1e-12)

    def test_mzi_stack_yes(self):
        phases = np.random.default_rng(14).uniform(-2 * np.pi, 2 * np.pi, 1000)
        assert is_unitary(mzi(Arm.UPPER, phases), 1e-12)
        assert is_unitary(mzi(Arm.LOWER, phases), 1e-12)

    def test_stack_with_one_scaled_member_no(self):
        stack = np.stack([beam_splitter(), mzi(Arm.LOWER, 0.4), beam_splitter()])
        assert is_unitary(stack, 1e-12)
        stack[1] *= 1.001
        assert not is_unitary(stack, 1e-12)


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


def matmul_chain(chain):
    """``chain[-1] @ ... @ chain[0]`` with numpy's ``@`` (the oracle)."""
    expected = chain[0]
    for element in chain[1:]:
        expected = element @ expected
    return expected


class TestEntryMajorStacks:
    """Every entry of a returned stack, and every field component, is one contiguous array."""

    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_entries_and_field_components_are_contiguous(self, shape):
        rng = np.random.default_rng(41)
        phase = rng.uniform(-2 * np.pi, 2 * np.pi, shape)
        stacks = {
            "mzi lower": mzi(Arm.LOWER, phase),
            "mzi upper": mzi(Arm.UPPER, phase),
            "phase upper": phase_element(Arm.UPPER, phase),
            "phase lower": phase_element(Arm.LOWER, phase),
            "compose one": compose([mzi(Arm.LOWER, phase)]),
            "compose chain": compose([mzi(Arm.LOWER, phase), phase_element(Arm.UPPER, 0.0),
                                      beam_splitter(), mzi(Arm.UPPER, phase)]),
        }
        for name, stack in stacks.items():
            assert stack.shape == shape + (2, 2), name
            for i in range(2):
                for j in range(2):
                    assert stack[..., i, j].flags.c_contiguous, (name, i, j)
        for field in (apply(stacks["compose chain"], [1.0, 0.0]),
                      apply(beam_splitter(), rng.normal(size=shape + (2,)))):
            assert field.shape == shape + (2,)
            for k in range(2):
                assert field[..., k].flags.c_contiguous, k


IDENTITIES = [np.eye(2), phase_element(Arm.UPPER, 0.0), phase_element(Arm.LOWER, 0.0)]


class TestComposeSkipsExactIdentities:
    @pytest.mark.parametrize("identity", IDENTITIES, ids=["eye", "upper0", "lower0"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_identities_anywhere_match_the_oracle(self, shape, position, identity):
        rng = np.random.default_rng(42)
        a, b = random_element(rng, shape), random_element(rng, shape)
        chain = {"first": [identity, a, b], "middle": [a, identity, identity, b],
                 "last": [a, b, identity]}[position]
        got, expected = compose(chain), matmul_chain(chain)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_only_identities_give_the_identity(self, count):
        chain = [IDENTITIES[k % len(IDENTITIES)] for k in range(count)]
        got = compose(chain)
        assert got.shape == (2, 2)
        np.testing.assert_array_equal(got, matmul_chain(chain))

    def test_batched_identity_still_broadcasts(self):
        identity = phase_element(Arm.UPPER, np.zeros(1))
        assert identity.shape == (1, 2, 2)
        a = mzi(Arm.LOWER, 0.3)
        for chain in ([identity], [identity, identity], [a, identity], [identity, a, IDENTITIES[0]]):
            got = compose(chain)
            assert got.shape == (1, 2, 2)
            np.testing.assert_allclose(got, matmul_chain(chain), rtol=0, atol=1e-12)
        column = phase_element(Arm.LOWER, np.zeros((3, 1)))
        row = random_element(np.random.default_rng(43), (4,))
        assert compose([column, row]).shape == (3, 4, 2, 2)

    def test_diagonal_non_identity_is_kept(self):
        diagonal = phase_element(Arm.UPPER, 0.3)
        a = mzi(Arm.LOWER, 0.7)
        for chain in ([diagonal], [diagonal, diagonal], [a, diagonal], [diagonal, a, IDENTITIES[1]]):
            np.testing.assert_allclose(compose(chain), matmul_chain(chain), rtol=0, atol=1e-12)


class TestInPlaceKernels:
    """``mzi``'s cos/sin entries, the in-place ``compose`` fold and ``apply``'s zero skip."""

    @pytest.mark.parametrize("arm", [Arm.UPPER, Arm.LOWER])
    def test_mzi_has_the_bits_of_the_exp_closed_form(self, arm):
        phase = np.concatenate([[0.0, -0.0, np.pi, -np.pi, 5e-324, -1e-310, 1e300, -1e300],
                                np.random.default_rng(51).uniform(-1e4, 1e4, 1000)])
        e = np.exp(1j * phase)
        bar, cross = 0.5 * (1 - e), 0.5j * (1 + e)
        rows = [[bar, cross], [cross, -bar]] if arm is Arm.LOWER else [[-bar, cross], [cross, bar]]
        expected = np.moveaxis(np.array(rows), (0, 1), (-2, -1))
        got = np.ascontiguousarray(mzi(arm, phase))
        assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(expected).view(np.uint64))

    @pytest.mark.parametrize("length", [3, 4, 5, 6])
    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_chains_match_the_oracle(self, length, shape):
        rng = np.random.default_rng(52 + length)
        a, b = random_element(rng, shape), random_element(rng, shape)
        single = [random_element(rng, ()) for _ in range(length)]
        chains = [
            single[:2] + [a] + single[2:length - 1],            # a stack after two single matrices
            [a, b] * (length // 2) + [a] * (length % 2),       # repeated stack objects
            [a] * length,
            [b] + [random_element(rng, shape if rng.random() < 0.5 else ())
                   for _ in range(length - 1)],
        ]
        for chain in chains:
            assert len(chain) == length
            before = [element.copy() for element in chain]
            got, expected = compose(chain), matmul_chain(chain)
            assert got.shape == expected.shape == shape + (2, 2)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            for element, copy in zip(chain, before):
                np.testing.assert_array_equal(element, copy)

    def test_chain_broadcasts_after_two_single_matrices(self):
        rng = np.random.default_rng(56)
        chain = [random_element(rng, ()), random_element(rng, ()),
                 random_element(rng, (3, 1)), random_element(rng, (4,)), random_element(rng, ())]
        got = compose(chain)
        assert got.shape == (3, 4, 2, 2)
        np.testing.assert_allclose(got, matmul_chain(chain), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_apply_with_a_zero_lower_component_matches_einsum(self, shape):
        rng = np.random.default_rng(57)
        matrix = compose([random_element(rng, shape) for _ in range(3)])
        stack_field = np.zeros(shape + (2,), dtype=complex)
        stack_field[..., 0] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for field in ([0.8, 0.0], [0.3 - 0.4j, -0.0], [0.0, 0.0], stack_field):
            expected = np.einsum("...ij,...j->...i", matrix, np.asarray(field, dtype=complex))
            got = apply(matrix, field)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def first_column(product):
    """A copy of ``product``'s first column, as a ``(..., 2, 1)`` out."""
    return product[..., :, :1].copy()


class TestComposeOnto:
    """``compose(elements, out=)`` folds onto a field column in place."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_folding_the_tail_onto_the_head_has_the_bits_of_one_compose(self, shape):
        rng = np.random.default_rng(61)
        for _ in range(30):
            chain = [random_element(rng, shape)] + [
                random_element(rng, shape if rng.random() < 0.5 else ()) for _ in range(rng.integers(0, 8))]
            for position in sorted(rng.integers(0, len(chain) + 1, rng.integers(0, 3)), reverse=True):
                chain.insert(position, IDENTITIES[rng.integers(len(IDENTITIES))])
            # The head must hold a non-identity, so that it is a product to extend.
            first = next(k for k, m in enumerate(chain) if m.shape != (2, 2) or not np.array_equal(m, np.eye(2)))
            for cut in range(first + 1, len(chain) + 1):
                head = first_column(compose(chain[:cut]))
                got = compose(chain[cut:], out=head)
                assert got is head
                assert bits(got).tolist() == bits(first_column(compose(chain))).tolist()

    def test_elements_may_broadcast_into_out(self):
        rng = np.random.default_rng(62)
        head = compose([random_element(rng, (3, 1)), random_element(rng, (4,))])
        tail = [random_element(rng, (4,)), random_element(rng, ()), random_element(rng, (3, 4))]
        expected = first_column(compose([head] + tail))
        assert np.array_equal(bits(compose(tail, out=first_column(head))), bits(expected))

    def test_an_empty_chain_leaves_out_as_it_is(self):
        out = first_column(compose([random_element(np.random.default_rng(63), (5,))]))
        before = out.copy()
        assert compose([], out=out) is out and np.array_equal(bits(out), bits(before))

    @pytest.mark.parametrize("out_shape, element_shape", [((), (3,)), ((4,), (3, 4)), ((3,), (4,)),
                                                           ((3, 1), (4,))])
    def test_elements_wider_than_out_are_refused_before_any_write(self, out_shape, element_shape):
        rng = np.random.default_rng(64)
        out = first_column(compose([random_element(rng, out_shape), random_element(rng, ())]))
        before = out.copy()
        with pytest.raises(ValueError):
            compose([random_element(rng, ()), random_element(rng, element_shape)], out=out)
        assert np.array_equal(bits(out), bits(before))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_product_stack_is_refused_as_out_before_any_write(self, shape):
        rng = np.random.default_rng(66)
        out = compose([random_element(rng, shape), random_element(rng, ())])
        before = out.copy()
        with pytest.raises(ValueError):
            compose([random_element(rng, shape)], out=out)
        assert np.array_equal(bits(out), bits(before))

    def test_out_must_be_a_complex_stack_that_no_element_aliases(self):
        out = compose([random_element(np.random.default_rng(65), (4,))])
        for bad in (out.real.copy(), out[..., :, :1].real.copy(), np.zeros((4, 2, 2), dtype=complex),
                    np.zeros((4, 2, 3), dtype=complex),
                    np.zeros((4, 1, 2), dtype=complex), np.zeros((4, 2), dtype=complex), [[1, 0], [0, 1]]):
            with pytest.raises(ValueError):
                compose([mzi(Arm.LOWER, 0.3)], out=bad)
        before = out.copy()
        for aliased in (out, out[..., :, :1]):
            with pytest.raises(ValueError):
                compose([out], out=aliased)
        assert np.array_equal(bits(out), bits(before))
