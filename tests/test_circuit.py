import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbwsim import optics
from cbwsim.circuit import (
    CircuitAst,
    CircuitParseError,
    ElementKind,
    ElementNode,
    UnboundParameterError,
    build_cbw_chain,
    evaluate_chain,
    output_intensities,
    parse_circuit,
    render_circuit,
)
from cbwsim.optics import Arm

FIG1_TEXT = (
    "source intensity=1.0\n"
    "mzi C arm=lower phase=psi\n"
    "phase arm=upper value=phi\n"
    "mzi W arm=upper phase=psi\n"
    "detect gamma delta\n"
)


def brute_force_cascade(m, phi, psi):
    """Independent matrix product for the m-stage cascade (test-local oracle)."""
    matrix = np.eye(2, dtype=complex)
    for stage in range(1, m + 1):
        arm = Arm.LOWER if stage % 2 == 1 else Arm.UPPER
        matrix = optics.mzi(arm, psi) @ matrix
        if stage < m or m >= 3:
            matrix = optics.phase_element(Arm.UPPER, phi) @ matrix
    return matrix


class TestParse:
    def test_reference_circuit(self):
        ast = parse_circuit(FIG1_TEXT)
        assert len(ast.elements) == 3
        assert ast.parameters == {"psi", "phi"}
        assert ast.detectors == ("gamma", "delta")
        assert ast.source_intensity == 1.0
        kinds = [e.kind for e in ast.elements]
        assert kinds == [ElementKind.MZI, ElementKind.PHASE, ElementKind.MZI]
        assert [e.arm for e in ast.elements] == [Arm.LOWER, Arm.UPPER, Arm.UPPER]

    def test_comments_and_blank_lines_skipped(self):
        ast = parse_circuit("# a comment\n\nmzi C arm=lower phase=0.5  # inline\n\ndetect a b\n")
        assert len(ast.elements) == 1
        assert ast.elements[0].phase == 0.5

    def test_no_elements_is_an_error(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("source intensity=1.0\ndetect a b\n")

    def test_bad_arm_reports_position_and_expectations(self):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit("mzi C arm=sideways phase=psi")
        err = info.value
        assert err.line == 1
        assert "upper" in err.expected and "lower" in err.expected

    def test_unknown_keyword(self):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit("wibble x=1\ndetect a b\n")
        assert info.value.line == 1
        assert "mzi" in info.value.expected

    def test_malformed_number(self):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit("source intensity=1.2.3\nmzi C arm=lower phase=0\ndetect a b\n")
        assert info.value.line == 1

    @pytest.mark.parametrize("value", ["1e400", "-1e400"])
    def test_overflowing_intensity_reports_its_position(self, value):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(f"mzi C arm=lower phase=0\n  source intensity={value}\ndetect a b\n")
        assert (info.value.line, info.value.column) == (2, 20)
        assert value in info.value.message

    @pytest.mark.parametrize("intensity", [math.inf, -math.inf, math.nan])
    def test_non_finite_intensity_rejected_on_construction(self, intensity):
        with pytest.raises(ValueError, match="source intensity must be finite"):
            CircuitAst(intensity, build_cbw_chain(1).elements, ("a", "b"))

    def test_duplicate_source(self):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit("source intensity=1\nsource intensity=2\nmzi C arm=lower phase=0\ndetect a b\n")
        assert info.value.line == 2

    def test_duplicate_detect(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("mzi C arm=lower phase=0\ndetect a b\ndetect c d\n")

    def test_missing_detect(self):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit("mzi C arm=lower phase=0\n")
        assert "detect" in str(info.value)

    def test_identical_detectors_rejected(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("mzi C arm=lower phase=0\ndetect a a\n")

    def test_source_defaults_to_unit_intensity(self):
        ast = parse_circuit("mzi C arm=lower phase=psi\ndetect a b\n")
        assert ast.source_intensity == 1.0


identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
phases = st.one_of(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    identifiers,
)


@st.composite
def circuit_asts(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    elements = []
    for i in range(n):
        arm = draw(st.sampled_from([Arm.UPPER, Arm.LOWER]))
        phase = draw(phases)
        if draw(st.booleans()):
            elements.append(ElementNode(ElementKind.MZI, arm, phase, f"s{i}"))
        else:
            elements.append(ElementNode(ElementKind.PHASE, arm, phase))
    intensity = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    d1 = draw(identifiers)
    d2 = draw(identifiers.filter(lambda s: s != d1))
    return CircuitAst(intensity, tuple(elements), (d1, d2))


class TestRender:
    def test_reference_round_trip(self):
        ast = parse_circuit(FIG1_TEXT)
        assert parse_circuit(render_circuit(ast)) == ast

    def test_literal_precision_survives(self):
        ast = parse_circuit("mzi C arm=lower phase=3.14159\ndetect a b\n")
        rendered = render_circuit(ast)
        assert "3.14159" in rendered
        assert parse_circuit(rendered).elements[0].phase == 3.14159

    def test_parameter_names_verbatim(self):
        ast = parse_circuit("mzi C arm=lower phase=my_sweep_01\ndetect a b\n")
        assert "my_sweep_01" in render_circuit(ast)

    def test_ends_with_single_newline(self):
        rendered = render_circuit(parse_circuit(FIG1_TEXT))
        assert rendered.endswith("\n") and not rendered.endswith("\n\n")

    @settings(max_examples=200, deadline=None)
    @given(circuit_asts())
    def test_round_trip_is_identity(self, ast):
        assert parse_circuit(render_circuit(ast)) == ast


class TestBuildChain:
    def test_m1_is_bare_single_mzi(self):
        ast = build_cbw_chain(1, phi=0.0)
        assert len(ast.elements) == 1
        rng = np.random.default_rng(2)
        for psi in rng.uniform(-7, 7, 25):
            up, lo = output_intensities(ast, {"psi": psi})
            assert abs(up - (1 - np.cos(psi)) / 2) < 1e-12
            assert abs(lo - (1 + np.cos(psi)) / 2) < 1e-12

    def test_m2_matches_reference_circuit(self):
        ast = build_cbw_chain(2, phi="phi")
        reference = parse_circuit(FIG1_TEXT)
        assert [(e.kind, e.arm, e.phase) for e in ast.elements] == \
            [(e.kind, e.arm, e.phase) for e in reference.elements]

    def test_m2_doubled_fringe_law(self):
        ast = build_cbw_chain(2, phi=0.0)
        rng = np.random.default_rng(3)
        for psi in rng.uniform(-7, 7, 50):
            up, _ = output_intensities(ast, {"psi": psi})
            assert abs(up - (1 + np.cos(2 * psi)) / 2) < 1e-12

    def test_m3_tripled_fringe_law_against_brute_force(self):
        ast = build_cbw_chain(3, phi=0.0)
        psis = np.linspace(0, 2 * np.pi, 101)
        for psi in psis:
            up, _ = output_intensities(ast, {"psi": psi})
            field = brute_force_cascade(3, 0.0, psi) @ np.array([1, 0], dtype=complex)
            assert abs(up - abs(field[0]) ** 2) < 1e-12
            assert abs(up - (1 - np.cos(3 * psi)) / 2) < 1e-12

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            build_cbw_chain(0)

    def test_shares_one_psi_parameter(self):
        assert build_cbw_chain(5, phi=0.25).parameters == {"psi"}


class TestEvaluate:
    def test_symmetric_control_phase_routes_everything_up(self):
        ast = parse_circuit(FIG1_TEXT)
        rng = np.random.default_rng(4)
        for psi in rng.uniform(-7, 7, 25):
            up, lo = output_intensities(ast, {"psi": psi, "phi": np.pi})
            assert abs(up - 1.0) < 1e-12 and abs(lo) < 1e-12

    def test_quarter_control_phase_at_zero_sweep(self):
        ast = parse_circuit(FIG1_TEXT)
        matrix = evaluate_chain(ast, {"psi": 0.0, "phi": np.pi / 2})
        np.testing.assert_allclose(matrix, np.diag([-1.0, -1j]), atol=1e-12)
        up, lo = output_intensities(ast, {"psi": 0.0, "phi": np.pi / 2})
        assert abs(up - 1.0) < 1e-12 and abs(lo) < 1e-12

    def test_doubled_chain_crosses_at_quarter_period(self):
        ast = build_cbw_chain(2, phi=0.0)
        up, lo = output_intensities(ast, {"psi": np.pi / 2})
        assert abs(up) < 1e-12 and abs(lo - 1.0) < 1e-12

    def test_unbound_parameter_is_reported(self):
        ast = parse_circuit(FIG1_TEXT)
        with pytest.raises(UnboundParameterError) as info:
            evaluate_chain(ast, {"psi": 0.1})
        assert info.value.name == "phi"

    def test_array_bindings_give_matrix_stack(self):
        ast = build_cbw_chain(2, phi=0.0)
        psis = np.linspace(0, np.pi, 7)
        stack = evaluate_chain(ast, {"psi": psis})
        assert stack.shape == (7, 2, 2)
        one = evaluate_chain(ast, {"psi": psis[3]})
        np.testing.assert_allclose(stack[3], one, atol=1e-14)

    def test_matches_elementwise_product_for_random_circuits(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            elements = []
            matrices = []
            for i in range(n):
                arm = Arm.UPPER if rng.random() < 0.5 else Arm.LOWER
                phase = float(rng.uniform(-6, 6))
                if rng.random() < 0.5:
                    elements.append(ElementNode(ElementKind.MZI, arm, phase, f"s{i}"))
                    matrices.append(optics.mzi(arm, phase))
                else:
                    elements.append(ElementNode(ElementKind.PHASE, arm, phase))
                    matrices.append(optics.phase_element(arm, phase))
            ast = CircuitAst(1.0, tuple(elements), ("a", "b"))
            expected = optics.compose(matrices)
            np.testing.assert_allclose(evaluate_chain(ast, {}), expected, atol=1e-12)
            assert optics.is_unitary(evaluate_chain(ast, {}))


    def test_repeated_elements_and_two_parameters_match_elementwise_product(self):
        rng = np.random.default_rng(10)
        psi, theta = rng.uniform(-6, 6, 50), rng.uniform(-6, 6, 50)
        bindings = {"psi": psi, "theta": theta}
        for _ in range(40):
            elements, matrices = [], []
            for i in range(int(rng.integers(1, 13))):
                arm = Arm.UPPER if rng.random() < 0.5 else Arm.LOWER
                phase = ["psi", "theta", 0.7][int(rng.integers(3))]
                value = bindings.get(phase, phase)
                if rng.random() < 0.5:
                    elements.append(ElementNode(ElementKind.MZI, arm, phase, f"s{i}"))
                    matrices.append(optics.mzi(arm, value))
                else:
                    elements.append(ElementNode(ElementKind.PHASE, arm, phase))
                    matrices.append(optics.phase_element(arm, value))
            ast = CircuitAst(1.0, tuple(elements), ("a", "b"))
            expected = matrices[0]
            for matrix in matrices[1:]:
                expected = matrix @ expected
            got = evaluate_chain(ast, bindings)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_same_arm_different_parameters_are_not_merged(self):
        ast = CircuitAst(1.0, (ElementNode(ElementKind.MZI, Arm.LOWER, "psi", "A"),
                               ElementNode(ElementKind.MZI, Arm.LOWER, "theta", "B")), ("a", "b"))
        expected = optics.mzi(Arm.LOWER, 0.9) @ optics.mzi(Arm.LOWER, 0.2)
        np.testing.assert_allclose(evaluate_chain(ast, {"psi": 0.2, "theta": 0.9}), expected,
                                   rtol=0, atol=1e-12)
        with pytest.raises(UnboundParameterError) as info:
            evaluate_chain(ast, {"psi": 0.2})
        assert info.value.name == "theta"


class TestChainProperties:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_period_is_two_pi_over_m(self, m):
        ast = build_cbw_chain(m, phi=0.0)
        psis = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        up, lo = output_intensities(ast, {"psi": psis})
        up_shift, lo_shift = output_intensities(ast, {"psi": psis + 2 * np.pi / m})
        assert np.max(np.abs(up - up_shift)) < 1e-10
        assert np.max(np.abs(lo - lo_shift)) < 1e-10

    def test_trailing_control_phase_never_changes_intensities(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            phi = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            psi = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            full = build_cbw_chain(3, phi=phi)
            assert full.elements[-1].kind is ElementKind.PHASE
            stripped = CircuitAst(1.0, full.elements[:-1], full.detectors)
            a = output_intensities(full, {"psi": psi})
            b = output_intensities(stripped, {"psi": psi})
            assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12

    def test_source_intensity_scales_outputs(self):
        ast = build_cbw_chain(2, phi=0.0, source_intensity=3.5)
        up, lo = output_intensities(ast, {"psi": 0.3})
        assert abs(up + lo - 3.5) < 1e-12
