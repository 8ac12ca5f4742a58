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
    MAX_ELEMENTS,
    MAX_MODULES,
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

    @pytest.mark.parametrize("text, position, message", [
        ("mzi C arm=lower phase=1e400\ndetect a b\n", (1, 23), "phase '1e400' overflows to inf"),
        ("phase arm=upper value=-1e999\nmzi C arm=lower phase=0\ndetect a b\n", (1, 23),
         "value '-1e999' overflows to -inf"),
        ("mzi C arm=lower phase=0\nsource intensity=-1\ndetect a b\n", (2, 18),
         "intensity '-1' is negative"),
    ], ids=["phase-overflow", "value-overflow", "negative-intensity"])
    def test_bad_numbers_report_their_position(self, text, position, message):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(text)
        assert (info.value.line, info.value.column) == position
        assert info.value.message == message

    @pytest.mark.parametrize("text, message", [
        ("mzi C arm=lower phase=psi extra\ndetect a b\n",
         "line 1, column 27: unexpected trailing token 'extra'"),
        ("mzi C lower phase=psi\ndetect a b\n",
         "line 1, column 7: expected arm=<value>, got 'lower' (expected arm=...)"),
        ("mzi C side=lower phase=psi\ndetect a b\n",
         "line 1, column 7: expected key 'arm', got 'side' (expected arm=...)"),
        ("mzi C arm= phase=psi\ndetect a b\n",
         "line 1, column 11: empty value for 'arm' (expected upper | lower)"),
        ("mzi C arm=lower phase=1.2.3\ndetect a b\n",
         "line 1, column 23: malformed number or parameter name '1.2.3' "
         "(expected <number> | <parameter name>)"),
        ("mzi 1C arm=lower phase=psi\ndetect a b\n",
         "line 1, column 5: invalid stage name '1C' (expected <name>)"),
        ("mzi C arm=lower phase=psi\ndetect a 2b\n",
         "line 2, column 10: invalid detector label '2b' (expected <name>)"),
    ], ids=["trailing-token", "no-equals", "wrong-key", "empty-value", "malformed-phase",
            "bad-stage-name", "bad-detector-label"])
    def test_malformed_tokens_report_their_position(self, text, message):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(text)
        assert str(info.value) == message

    def test_negative_zero_intensity_is_accepted(self):
        assert parse_circuit("source intensity=-0\nmzi C arm=lower phase=0\ndetect a b\n")

    def test_element_cap_is_the_largest_standard_cascade(self):
        assert len(build_cbw_chain(MAX_MODULES).elements) == MAX_ELEMENTS
        ast = parse_circuit(render_circuit(build_cbw_chain(MAX_MODULES, phi=0.5)))
        assert len(ast.elements) == MAX_ELEMENTS

    @pytest.mark.parametrize("extra", ["mzi X arm=upper phase=psi", "phase arm=lower value=0"])
    def test_element_past_the_cap_is_refused_at_its_line(self, extra):
        lines = ["source intensity=1"] + ["mzi C arm=lower phase=psi"] * MAX_ELEMENTS
        text = "\n".join(lines + [extra, extra, "detect a b"]) + "\n"
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(text)
        assert (info.value.line, info.value.column) == (MAX_ELEMENTS + 2, 1)
        assert info.value.message == f"a circuit has at most {MAX_ELEMENTS} elements"

    @pytest.mark.parametrize("intensity", [math.inf, -math.inf, math.nan])
    def test_non_finite_intensity_rejected_on_construction(self, intensity):
        with pytest.raises(ValueError, match="source intensity must be finite"):
            CircuitAst(intensity, build_cbw_chain(1).elements, ("a", "b"))

    def test_nan_literal_phase_rejected_on_construction(self):
        with pytest.raises(ValueError, match="^literal element phase must be finite$"):
            ElementNode(ElementKind.MZI, Arm.LOWER, math.nan, "C")

    @pytest.mark.parametrize("intensity, elements, detectors, message", [
        (1.0, (), ("a", "b"), "a circuit needs at least one element"),
        (1.0, build_cbw_chain(1).elements, ("a", "a"), "detector labels must be distinct"),
        (-1.0, build_cbw_chain(1).elements, ("a", "b"), "source intensity must be >= 0"),
    ], ids=["no-elements", "equal-detectors", "negative-intensity"])
    def test_invalid_ast_rejected_on_construction(self, intensity, elements, detectors, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CircuitAst(intensity, elements, detectors)

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
    intensity = draw(st.one_of(st.just(1.0), st.just(0.0), st.floats(min_value=0.0, max_value=100.0)))
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

    @pytest.mark.parametrize("m", [-1, 2.5, 2.0])
    def test_m_not_a_positive_integer_rejected(self, m):
        with pytest.raises(ValueError, match=f"^m must be a positive integer number of modules, got {m!r}$"):
            build_cbw_chain(m)

    def test_more_than_max_modules_rejected(self):
        with pytest.raises(ValueError, match=f"^modules must be at most {MAX_MODULES}, got {MAX_MODULES + 1}$"):
            build_cbw_chain(MAX_MODULES + 1)

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


def assert_bit_equal_pairs(got, expected):
    for a, b in zip(got, expected):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


staged_phases = st.one_of(
    st.sampled_from(["psi", "phi"]),
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
)


@st.composite
def staged_circuits(draw):
    """A chain of up to 8 elements over ``psi``/``phi`` and literals, at any source intensity.

    Intensities 1 and 0 are drawn as often as a general value, so every run
    reaches both sides of the stage route's unit-amplitude skip.
    """
    elements = []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        arm = draw(st.sampled_from([Arm.UPPER, Arm.LOWER]))
        phase = draw(staged_phases)
        if draw(st.booleans()):
            elements.append(ElementNode(ElementKind.MZI, arm, phase, f"s{i}"))
        else:
            elements.append(ElementNode(ElementKind.PHASE, arm, phase))
    intensity = draw(st.one_of(st.just(1.0), st.just(0.0), st.floats(min_value=0.0, max_value=100.0)))
    return CircuitAst(intensity, tuple(elements), ("a", "b"))


def random_staged_chain(rng):
    """A chain of 1-11 elements over ``psi``/``phi``, zero and other literals,
    at a source intensity from 1e-3 to 7.  Literals come from a small pool,
    so that literal MZIs often sit on both arms."""
    literals = [0.0, -1.25, float(rng.uniform(-7, 7))]
    elements = []
    for i in range(int(rng.integers(1, 12))):
        arm = Arm.UPPER if rng.random() < 0.5 else Arm.LOWER
        phase = ["psi", "phi", *literals][int(rng.integers(5))]
        if rng.random() < 0.5:
            elements.append(ElementNode(ElementKind.MZI, arm, phase, f"s{i}"))
        else:
            elements.append(ElementNode(ElementKind.PHASE, arm, phase))
    intensity = [1e-3, 1.0, 7.0, float(rng.uniform(1e-3, 7))][int(rng.integers(4))]
    return CircuitAst(intensity, tuple(elements), ("a", "b"))


def stage_cuts(ast):
    """Element counts of the chain's prefixes that end one stage each."""
    mzis = [i for i, e in enumerate(ast.elements) if e.kind is ElementKind.MZI]
    return mzis[1:] + [len(ast.elements)]


class TestStages:
    """``output_intensities(..., stages=True)``: one pair per stage from one fold."""

    PSI = np.random.default_rng(71).uniform(-7, 7, 13)
    BINDINGS = [{"psi": 0.4, "phi": -1.3}, {"psi": PSI, "phi": 2.1},
                {"psi": PSI, "phi": np.random.default_rng(72).uniform(-7, 7, (3, 1))}]

    @settings(max_examples=150, deadline=None)
    @given(staged_circuits(), st.sampled_from(BINDINGS))
    def test_every_pair_is_its_prefix_chain_and_the_last_the_whole_chain(self, ast, bindings):
        pairs = list(output_intensities(ast, bindings, stages=True))
        assert_bit_equal_pairs(pairs[-1], output_intensities(ast, bindings))
        cuts = stage_cuts(ast)
        assert len(pairs) == len(cuts)
        shape = np.shape(pairs[-1][0])
        for pair, cut in zip(pairs, cuts):
            prefix = CircuitAst(ast.source_intensity, ast.elements[:cut], ast.detectors)
            expected = output_intensities(prefix, bindings)
            if np.shape(expected[0]) == shape:
                assert_bit_equal_pairs(pair, expected)
            else:
                # numpy's loops over a narrower shape may round differently.
                for a, b in zip(pair, expected):
                    np.testing.assert_allclose(a, np.broadcast_to(b, shape), rtol=1e-12,
                                               atol=1e-12 * ast.source_intensity)

    def test_a_later_stage_may_broadcast_wider_than_the_first(self):
        ast = parse_circuit("source intensity=2.5\nmzi C arm=lower phase=psi\n"
                            "mzi W arm=upper phase=psi\nphase arm=upper value=phi\n"
                            "mzi X arm=lower phase=0.3\ndetect a b\n")
        bindings = self.BINDINGS[2]
        first, second, last = output_intensities(ast, bindings, stages=True)
        assert_bit_equal_pairs(last, output_intensities(ast, bindings))
        assert np.shape(first[0]) == np.shape(second[0]) == (3, 13)
        single = output_intensities(CircuitAst(2.5, ast.elements[:1], ("a", "b")), bindings)
        for a, b in zip(first, single):
            np.testing.assert_allclose(a, np.broadcast_to(b, (3, 13)), rtol=1e-12, atol=1e-12)

    # The fold builds one MZI stack per distinct MZI phase and reads the
    # other arm's MZI at that phase from it; ``builds`` is its count of
    # ``optics.mzi`` calls.  Each first stage has the whole chain's shape,
    # so every stage is bit-equal to its prefix through evaluate_chain,
    # which builds every arm's MZI.
    SHARED_ARMS = {
        "upper-arm-first": ("mzi W arm=upper phase=psi\nphase arm=upper value=phi\n"
                            "mzi C arm=lower phase=psi\nmzi X arm=upper phase=psi\n", BINDINGS[1], 1),
        "same-literal": ("phase arm=lower value=psi\nmzi C arm=lower phase=-1.25\n"
                         "phase arm=upper value=phi\nmzi W arm=upper phase=-1.25\n", BINDINGS[1], 1),
        "signed-zero-literals": ("phase arm=lower value=psi\nmzi C arm=lower phase=0.0\n"
                                 "mzi W arm=upper phase=-0.0\n", BINDINGS[1], 1),
        "psi-with-column-phi": ("mzi C arm=lower phase=psi\nphase arm=upper value=phi\n"
                                "mzi W arm=upper phase=psi\nphase arm=upper value=phi\n"
                                "mzi X arm=lower phase=psi\n", BINDINGS[2], 1),
        "different-phases": ("mzi C arm=lower phase=psi\nmzi W arm=upper phase=phi\n"
                             "mzi X arm=lower phase=psi\nmzi Y arm=upper phase=0.4\n", BINDINGS[1], 3),
    }

    @pytest.mark.parametrize("intensity", [1.0, 2.5])
    @pytest.mark.parametrize("text, bindings, builds", list(SHARED_ARMS.values()), ids=list(SHARED_ARMS))
    def test_an_mzi_shared_by_both_arms_keeps_the_oracle_bits(self, monkeypatch, intensity,
                                                               text, bindings, builds):
        ast = parse_circuit(f"source intensity={intensity}\n{text}detect a b\n")
        calls = []
        build = optics.mzi

        def counted(arm, phase):
            calls.append(arm)
            return build(arm, phase)
        monkeypatch.setattr(optics, "mzi", counted)
        pairs = list(output_intensities(ast, bindings, stages=True))
        monkeypatch.undo()
        assert len(calls) == builds
        cuts = stage_cuts(ast)
        assert len(pairs) == len(cuts)
        for pair, cut in zip(pairs, cuts):
            prefix = CircuitAst(intensity, ast.elements[:cut], ast.detectors)
            field = optics.apply(evaluate_chain(prefix, bindings), (np.sqrt(intensity), 0))
            assert_bit_equal_pairs(pair, optics.intensities(field))

    def test_leading_phases_join_the_first_stage_and_no_mzi_is_one_stage(self):
        leading = parse_circuit("phase arm=upper value=phi\nphase arm=lower value=0.2\n"
                                "mzi C arm=lower phase=psi\nmzi W arm=upper phase=psi\ndetect a b\n")
        assert len(list(output_intensities(leading, self.BINDINGS[1], stages=True))) == 2
        bare = parse_circuit("phase arm=upper value=phi\nphase arm=lower value=psi\ndetect a b\n")
        (pair,) = output_intensities(bare, self.BINDINGS[1], stages=True)
        assert_bit_equal_pairs(pair, output_intensities(bare, self.BINDINGS[1]))

    @pytest.mark.parametrize("max_m", [1, 2, 3, 4, 7, 20])
    def test_stage_m_of_the_cascade_is_the_m_stage_cascade(self, max_m):
        psi = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
        pairs = output_intensities(build_cbw_chain(max_m, phi=0.0), {"psi": psi}, stages=True)
        count = 0
        for m, pair in enumerate(pairs, start=1):
            assert_bit_equal_pairs(pair, output_intensities(build_cbw_chain(m, phi=0.0), {"psi": psi}))
            count = m
        assert count == max_m

    # The block form reads psi, and in some cases phi too, one block at a
    # time from an iterator.  The blocks are uneven, the last one short,
    # and none has one point: numpy rounds cos/sin of a one-element array
    # through another loop, as _chunks.fold_blocks notes.
    BLOCKS = [slice(0, 5), slice(5, 10), slice(10, 13)]
    PHIS = [1.1, 0.0, BINDINGS[2]["phi"], np.random.default_rng(74).uniform(-7, 7, 13)]

    @pytest.mark.parametrize("seed", range(30))
    def test_the_block_form_keeps_the_one_block_bits(self, seed):
        rng = np.random.default_rng([75, seed])
        for _ in range(10):
            ast = random_staged_chain(rng)
            phi = self.PHIS[int(rng.integers(len(self.PHIS)))]
            bindings = {"psi": self.PSI, "phi": phi}
            whole = list(output_intensities(ast, bindings, stages=True))
            field = optics.apply(evaluate_chain(ast, bindings), (np.sqrt(ast.source_intensity), 0))
            assert_bit_equal_pairs(whole[-1], optics.intensities(field))
            swept = {name: map(value.__getitem__, self.BLOCKS)
                     for name, value in bindings.items() if np.shape(value) == self.PSI.shape}
            folds = output_intensities(ast, {**bindings, **swept}, stages=True)
            count = 0
            for rows, pairs in zip(self.BLOCKS, folds):
                pairs = list(pairs)
                assert len(pairs) == len(whole)
                for got, expected in zip(pairs, whole):
                    if np.shape(expected[0])[-1:] == self.PSI.shape:
                        expected = tuple(e[..., rows] for e in expected)
                    assert_bit_equal_pairs(got, expected)
                count += 1
            assert count == len(self.BLOCKS)

    def test_the_block_form_raises_a_bad_constant_at_the_call_and_a_bad_block_at_its_fold(self):
        ast = parse_circuit(FIG1_TEXT)
        read = []

        def blocks():
            for block in ([0.1, 0.2], [0.3, 0.4], [0.5, np.nan], [0.7, 0.8]):
                read.append(block)
                yield np.array(block)
        for bindings, error in [({}, UnboundParameterError), ({"phi": np.inf}, ValueError),
                                ({"phi": np.array([0.0, np.nan])}, ValueError)]:
            with pytest.raises(error):
                output_intensities(ast, {"psi": blocks(), **bindings}, stages=True)
        assert read == []
        folds = output_intensities(ast, {"psi": blocks(), "phi": 0.3}, stages=True)
        for _ in range(2):
            assert len(list(next(folds))) == 2
        with pytest.raises(ValueError, match="phase must be finite"):
            next(folds)
        assert len(read) == 3

    @pytest.mark.parametrize("bindings, error", [
        ({"psi": 0.3}, UnboundParameterError),
        ({"psi": np.array([0.0, np.nan]), "phi": 0.0}, ValueError),
        ({"psi": 0.3, "phi": np.inf}, ValueError),
    ])
    def test_binding_errors_raise_at_the_call(self, bindings, error):
        with pytest.raises(error):
            output_intensities(parse_circuit(FIG1_TEXT), bindings, stages=True)
