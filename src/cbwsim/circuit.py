"""Circuit description language for cascaded Mach-Zehnder chains.

A circuit is a line-oriented UTF-8 text (``.mzi`` files), one statement per
line, ``#`` starts a comment:

.. code-block:: text

    source intensity=1.0
    mzi C arm=lower phase=psi
    phase arm=upper value=phi
    mzi W arm=upper phase=psi
    detect gamma delta

Statements:

* ``source intensity=<number>`` -- input power (optional, default 1.0,
  at most one; finite and >= 0).
* ``mzi <name> arm=<upper|lower> phase=<param|number>`` -- a full MZI stage.
* ``phase arm=<upper|lower> value=<param|number>`` -- a bare phase shifter.
* ``detect <name> <name>`` -- labels of the two output ports (mandatory,
  exactly one, distinct labels).

Phase values are radians; a bare identifier makes the element depend on a
named parameter that must be bound at evaluation time.  Statement order is
physical order: the first element listed is the first the light traverses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

import numpy as np

from . import optics
from .optics import Arm

__all__ = [
    "CircuitAst",
    "CircuitParseError",
    "ElementKind",
    "ElementNode",
    "UnboundParameterError",
    "build_cbw_chain",
    "evaluate_chain",
    "output_intensities",
    "parse_circuit",
    "render_circuit",
]

PhaseValue = Union[float, str]


class ElementKind(Enum):
    MZI = "mzi"
    PHASE = "phase"


class CircuitParseError(ValueError):
    """Parse failure with 1-based position and the tokens that were expected."""

    def __init__(self, line: int, column: int, message: str, expected: Sequence[str] = ()):
        self.line = line
        self.column = column
        self.message = message
        self.expected = tuple(expected)
        detail = f"line {line}, column {column}: {message}"
        if self.expected:
            detail += " (expected " + " | ".join(self.expected) + ")"
        super().__init__(detail)


class UnboundParameterError(KeyError):
    """Circuit parameters were referenced but not bound at evaluation time.

    ``name`` is the first unbound name and ``names`` all of them.  ``str()``
    is the plain message, not ``KeyError``'s quoted repr of it.
    """

    def __init__(self, name: str, *more: str):
        self.name = name
        self.names = (name, *more)
        plural = "s" if more else ""
        self.message = f"unbound circuit parameter{plural} " + ", ".join(map(repr, self.names))
        super().__init__(self.message)

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class ElementNode:
    """One chain element: a full MZI stage or a bare phase shifter.

    ``phase`` is either a literal value in radians or the name of a
    parameter resolved from the bindings at evaluation time.  ``name`` is
    the stage label for MZI elements (``None`` for phase shifters).
    """

    kind: ElementKind
    arm: Arm
    phase: PhaseValue
    name: str | None = None

    def __post_init__(self):
        if isinstance(self.phase, (int, float)) and not np.isfinite(self.phase):
            raise ValueError("literal element phase must be finite")


@dataclass(frozen=True)
class CircuitAst:
    """Parsed, parameterised interferometer chain."""

    source_intensity: float
    elements: tuple[ElementNode, ...]
    detectors: tuple[str, str]

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ValueError("a circuit needs at least one element")
        if self.detectors[0] == self.detectors[1]:
            raise ValueError("detector labels must be distinct")
        if not np.isfinite(self.source_intensity):
            raise ValueError("source intensity must be finite")
        if self.source_intensity < 0:
            raise ValueError("source intensity must be >= 0")

    @property
    def parameters(self) -> frozenset:
        """Names of all phase parameters referenced by the chain."""
        return frozenset(e.phase for e in self.elements if isinstance(e.phase, str))


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")

_ARM_NAMES = {"upper": Arm.UPPER, "lower": Arm.LOWER}
_KEYWORDS = ("source", "mzi", "phase", "detect")


def _split_tokens(text: str):
    """Yield (token, 1-based column) for one logical line."""
    for match in re.finditer(r"\S+", text):
        yield match.group(0), match.start() + 1


class _LineParser:
    def __init__(self, lineno: int, text: str):
        self.lineno = lineno
        self.tokens = list(_split_tokens(text))
        self.pos = 0
        self.end_column = len(text) + 1

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def take(self, what: str, expected: Sequence[str] = ()):
        if self.done():
            raise CircuitParseError(self.lineno, self.end_column, f"missing {what}", expected)
        token, column = self.tokens[self.pos]
        self.pos += 1
        return token, column

    def finish(self):
        if not self.done():
            token, column = self.tokens[self.pos]
            raise CircuitParseError(self.lineno, column, f"unexpected trailing token {token!r}")

    def key_value(self, key: str, expected_values: Sequence[str] = ()):
        token, column = self.take(f"{key}=<value>", [f"{key}=..."])
        if "=" not in token:
            raise CircuitParseError(self.lineno, column, f"expected {key}=<value>, got {token!r}", [f"{key}=..."])
        name, _, value = token.partition("=")
        if name != key:
            raise CircuitParseError(self.lineno, column, f"expected key {key!r}, got {name!r}", [f"{key}=..."])
        if not value:
            raise CircuitParseError(self.lineno, column + len(key) + 1, f"empty value for {key!r}", expected_values)
        return value, column + len(key) + 1

    def arm_value(self) -> Arm:
        value, column = self.key_value("arm", list(_ARM_NAMES))
        try:
            return _ARM_NAMES[value]
        except KeyError:
            raise CircuitParseError(self.lineno, column, f"unknown arm {value!r}", list(_ARM_NAMES)) from None

    def phase_value(self, key: str) -> PhaseValue:
        value, column = self.key_value(key, ["<number>", "<parameter name>"])
        if _IDENT_RE.match(value):
            return value
        if _NUMBER_RE.match(value):
            return float(value)
        raise CircuitParseError(
            self.lineno, column, f"malformed number or parameter name {value!r}",
            ["<number>", "<parameter name>"],
        )

    def number_value(self, key: str) -> float:
        value, column = self.key_value(key, ["<number>"])
        if not _NUMBER_RE.match(value):
            raise CircuitParseError(self.lineno, column, f"malformed number {value!r}", ["<number>"])
        number = float(value)
        if not np.isfinite(number):
            raise CircuitParseError(self.lineno, column, f"{key} {value!r} overflows to {number}", ["<finite number>"])
        return number

    def ident(self, what: str) -> str:
        token, column = self.take(what, ["<name>"])
        if not _IDENT_RE.match(token):
            raise CircuitParseError(self.lineno, column, f"invalid {what} {token!r}", ["<name>"])
        return token


def parse_circuit(text: str) -> CircuitAst:
    """Parse circuit text into a :class:`CircuitAst`.

    Raises :class:`CircuitParseError` (with 1-based line/column) on unknown
    keywords, malformed or overflowing numbers, bad arm names, duplicate
    ``source`` or ``detect`` statements, a missing ``detect``, or an
    element-free circuit.
    """
    source_intensity: float | None = None
    detectors: tuple[str, str] | None = None
    elements: list[ElementNode] = []
    last_line = 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        if detectors is not None and stripped.strip():
            # Everything after `detect` would silently change the circuit;
            # reject it at its own position.
            token, column = next(_split_tokens(stripped))
            if token == "detect":
                raise CircuitParseError(lineno, column, "duplicate detect statement")
            raise CircuitParseError(lineno, column, "statements after detect are not allowed")

        parser = _LineParser(lineno, stripped)
        keyword, column = parser.take("statement", _KEYWORDS)
        if keyword == "source":
            if source_intensity is not None:
                raise CircuitParseError(lineno, column, "duplicate source statement")
            source_intensity = parser.number_value("intensity")
            parser.finish()
        elif keyword == "mzi":
            name = parser.ident("stage name")
            arm = parser.arm_value()
            phase = parser.phase_value("phase")
            parser.finish()
            elements.append(ElementNode(ElementKind.MZI, arm, phase, name))
        elif keyword == "phase":
            arm = parser.arm_value()
            value = parser.phase_value("value")
            parser.finish()
            elements.append(ElementNode(ElementKind.PHASE, arm, value))
        elif keyword == "detect":
            d1 = parser.ident("detector label")
            d2 = parser.ident("detector label")
            parser.finish()
            if d1 == d2:
                raise CircuitParseError(lineno, column, f"detector labels must be distinct, got {d1!r} twice")
            detectors = (d1, d2)
        else:
            raise CircuitParseError(lineno, column, f"unknown keyword {keyword!r}", _KEYWORDS)

    if detectors is None:
        raise CircuitParseError(last_line + 1, 1, "missing detect statement", ["detect <name> <name>"])
    if not elements:
        raise CircuitParseError(last_line, 1, "circuit has no elements", ["mzi ...", "phase ..."])
    return CircuitAst(
        source_intensity=1.0 if source_intensity is None else source_intensity,
        elements=tuple(elements),
        detectors=detectors,
    )


def _format_phase(value: PhaseValue) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def render_circuit(ast: CircuitAst) -> str:
    """Render the canonical text form; ``parse_circuit`` round-trips it."""
    lines = [f"source intensity={repr(float(ast.source_intensity))}"]
    for element in ast.elements:
        if element.kind is ElementKind.MZI:
            lines.append(f"mzi {element.name} arm={element.arm.value} phase={_format_phase(element.phase)}")
        else:
            lines.append(f"phase arm={element.arm.value} value={_format_phase(element.phase)}")
    lines.append(f"detect {ast.detectors[0]} {ast.detectors[1]}")
    return "\n".join(lines) + "\n"


def build_cbw_chain(m: int, phi: PhaseValue = "phi", source_intensity: float = 1.0) -> CircuitAst:
    """Build the standard m-stage phase-coupled cascade.

    All MZI stages share one swept parameter ``psi`` and alternate the arm
    that carries it: stage 1 on the lower arm, stage 2 on the upper arm,
    stage 3 lower again, and so on.  This alternation is the asymmetric
    coupling that multiplies the fringe frequency: at control phase 0 the
    output intensities oscillate as ``cos(m*psi)`` instead of ``cos(psi)``.

    A control phase element (upper arm, value ``phi``) sits between
    consecutive stages.  ``m=1`` is the bare single MZI and ``m=2`` the
    canonical two-stage circuit; chains with ``m >= 3`` also carry one
    trailing control phase on the output side, which provably never changes
    any output intensity.

    ``phi`` may be a literal in radians or a parameter name (default
    ``"phi"``).
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    elements: list[ElementNode] = []
    for stage in range(1, m + 1):
        arm = Arm.LOWER if stage % 2 == 1 else Arm.UPPER
        label = ("C" if arm is Arm.LOWER else "W") + str(stage)
        elements.append(ElementNode(ElementKind.MZI, arm, "psi", label))
        if stage < m or m >= 3:
            elements.append(ElementNode(ElementKind.PHASE, Arm.UPPER, phi))
    return CircuitAst(source_intensity=source_intensity, elements=tuple(elements), detectors=("gamma", "delta"))


def _element_matrix(element: ElementNode, bindings: Mapping[str, float]) -> np.ndarray:
    phase = element.phase
    if isinstance(phase, str):
        try:
            phase = bindings[phase]
        except KeyError:
            raise UnboundParameterError(element.phase) from None
    if element.kind is ElementKind.MZI:
        return optics.mzi(element.arm, phase)
    return optics.phase_element(element.arm, phase)


def evaluate_chain(ast: CircuitAst, bindings: Mapping[str, float] | None = None) -> np.ndarray:
    """Compose the chain into one transfer matrix at bound parameter values.

    Binding values may be scalars or broadcastable arrays, in which case a
    matrix stack of shape ``(..., 2, 2)`` is returned.  Raises
    :class:`UnboundParameterError` if the chain references a parameter that
    is missing from ``bindings``.  Repeated elements share one matrix, so
    an m-stage cascade builds two MZI stacks, not m.
    """
    bindings = {} if bindings is None else bindings
    # Each distinct (kind, arm, phase) is built once: phase is a literal or
    # a parameter name, and the bindings are fixed for this call.
    matrices: dict = {}
    chain = []
    for element in ast.elements:
        key = (element.kind, element.arm, element.phase)
        if key not in matrices:
            matrices[key] = _element_matrix(element, bindings)
        chain.append(matrices[key])
    return optics.compose(chain)


def output_intensities(ast: CircuitAst, bindings: Mapping[str, float] | None = None):
    """Output intensity pair for the canonical input ``(sqrt(I0), 0)``."""
    matrix = evaluate_chain(ast, bindings)
    amplitude = np.sqrt(ast.source_intensity)
    field = optics.apply(matrix, np.array([amplitude, 0.0], dtype=complex))
    return optics.intensities(field)
