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

A circuit holds at most :data:`MAX_ELEMENTS` elements, and literal phase
values must be finite; each violation is reported at its line and column.

Phase values are radians; a bare identifier makes the element depend on a
named parameter that must be bound at evaluation time.  Statement order is
physical order: the first element listed is the first the light traverses.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterator
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
    "MAX_ELEMENTS",
    "MAX_MODULES",
    "UnboundParameterError",
    "build_cbw_chain",
    "evaluate_chain",
    "output_intensities",
    "parse_circuit",
    "render_circuit",
]

PhaseValue = Union[float, str]

# Largest cascade ``build_cbw_chain`` builds: chain evaluation grows
# linearly with it.
MAX_MODULES = 1000

# Largest number of elements in a parsed circuit: the size of
# ``build_cbw_chain(MAX_MODULES)``, each stage with its control phase.
MAX_ELEMENTS = 2 * MAX_MODULES


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

    def finite(self, key: str, value: str, column: int) -> float:
        number = float(value)
        if not np.isfinite(number):
            raise CircuitParseError(self.lineno, column, f"{key} {value!r} overflows to {number}", ["<finite number>"])
        return number

    def phase_value(self, key: str) -> PhaseValue:
        value, column = self.key_value(key, ["<number>", "<parameter name>"])
        if _IDENT_RE.match(value):
            return value
        if _NUMBER_RE.match(value):
            return self.finite(key, value, column)
        raise CircuitParseError(
            self.lineno, column, f"malformed number or parameter name {value!r}",
            ["<number>", "<parameter name>"],
        )

    def number_value(self, key: str) -> float:
        """A finite number >= 0."""
        value, column = self.key_value(key, ["<number>"])
        if not _NUMBER_RE.match(value):
            raise CircuitParseError(self.lineno, column, f"malformed number {value!r}", ["<number>"])
        number = self.finite(key, value, column)
        if number < 0:
            raise CircuitParseError(self.lineno, column, f"{key} {value!r} is negative", ["<number >= 0>"])
        return number

    def ident(self, what: str) -> str:
        token, column = self.take(what, ["<name>"])
        if not _IDENT_RE.match(token):
            raise CircuitParseError(self.lineno, column, f"invalid {what} {token!r}", ["<name>"])
        return token


def parse_circuit(text: str) -> CircuitAst:
    """Parse circuit text into a :class:`CircuitAst`.

    Raises :class:`CircuitParseError` (with 1-based line/column) on unknown
    keywords, malformed or overflowing numbers, a negative intensity, bad
    arm names, duplicate ``source`` or ``detect`` statements, a missing
    ``detect``, an element-free circuit, or more than :data:`MAX_ELEMENTS`
    elements.  Parsing builds no matrix, so an over-long file is refused
    before any is built.
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
        if detectors is not None:
            # Everything after `detect` would silently change the circuit;
            # reject it at its own position.
            token, column = next(_split_tokens(stripped))
            if token == "detect":
                raise CircuitParseError(lineno, column, "duplicate detect statement")
            raise CircuitParseError(lineno, column, "statements after detect are not allowed")

        parser = _LineParser(lineno, stripped)
        keyword, column = parser.take("statement", _KEYWORDS)
        if keyword in ("mzi", "phase") and len(elements) == MAX_ELEMENTS:
            raise CircuitParseError(lineno, column, f"a circuit has at most {MAX_ELEMENTS} elements")
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
    ``"phi"``).  ``m`` may not exceed :data:`MAX_MODULES`.
    """
    try:
        index = operator.index(m)
    except TypeError:  # not an integer: refused below
        index = 0
    if index < 1:
        raise ValueError(f"m must be a positive integer number of modules, got {m!r}")
    m = index
    if m > MAX_MODULES:
        raise ValueError(f"modules must be at most {MAX_MODULES}, got {m}")
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


_OTHER_ARM = {Arm.UPPER: Arm.LOWER, Arm.LOWER: Arm.UPPER}


def _bound_matrix(element: ElementNode, bindings: Mapping[str, float], matrices: dict,
                  share_arms: bool) -> np.ndarray:
    """The bound matrix of ``element``, built once per distinct ``(kind, arm, phase)``.

    ``matrices`` holds what is built so far, keyed so: phase is a literal or
    a parameter name, and the bindings are fixed for as long as ``matrices``
    lives.  With ``share_arms``, an MZI whose phase an MZI on the other arm
    already has is not built: it is that stack read anti-transposed, a view
    whose (0, 0) and (1, 1) entries are the built (1, 1) and (0, 0) and
    whose off-diagonal is shared.  That holds bit for bit what
    ``optics.mzi`` builds for its arm, as the two arms' closed forms differ
    only by the order of their diagonal.
    """
    key = (element.kind, element.arm, element.phase)
    if key not in matrices:
        other = (element.kind, _OTHER_ARM[element.arm], element.phase)
        if share_arms and element.kind is ElementKind.MZI and other in matrices:
            matrices[key] = np.swapaxes(matrices[other][..., ::-1, ::-1], -1, -2)
        else:
            matrices[key] = _element_matrix(element, bindings)
    return matrices[key]


def evaluate_chain(ast: CircuitAst, bindings: Mapping[str, float] | None = None) -> np.ndarray:
    """Compose the chain into one transfer matrix at bound parameter values.

    Binding values may be scalars or broadcastable arrays, in which case a
    matrix stack of shape ``(..., 2, 2)`` is returned.  Raises
    :class:`UnboundParameterError` if the chain references a parameter that
    is missing from ``bindings``.  Repeated elements share one matrix, so
    an m-stage cascade builds two MZI stacks, not m: one per arm, each
    through ``optics.mzi``.  This is the oracle of the staged fold of
    :func:`output_intensities`, which builds one stack per distinct MZI
    phase and reads the other arm's from it.
    """
    bindings = {} if bindings is None else bindings
    matrices: dict = {}
    return optics.compose([_bound_matrix(e, bindings, matrices, False) for e in ast.elements])


def output_intensities(
    ast: CircuitAst, bindings: Mapping[str, float] | None = None, *, stages: bool = False,
):
    """Output intensity pair for the canonical input ``(sqrt(I0), 0)``.

    With ``stages``, return instead an iterator over one such pair per
    stage: the pair of the chain cut after its first stage, after its
    second, and so on, the last one bit-equal to the pair of the whole
    chain.  A stage is one MZI and the phase elements after it, up to the
    next MZI; phase elements before the first MZI join the first stage, and
    a chain with no MZI is one stage.  Every pair has the shape of the
    whole chain's pair.

    A sweep is folded block by block in one call: with ``stages``, a
    binding whose value is an iterator (a generator of arrays, say) is read
    one block at a time, every such binding in step, and the call returns
    an iterator with one stage iterator per block.  Once per call, every
    element that no iterator binding reaches is bound and built (literal
    MZIs, constant phase elements), exact single identities are dropped and
    the stage cuts are taken, so an unbound parameter or a bad constant
    phase raises at the call.  Each block then builds only the elements its
    values reach, when the outer iterator reaches it, so a non-finite phase
    in block k raises at that block's ``next()``; no block's arrays outlive
    its stage iterator.  Without an iterator binding, the one stage
    iterator is returned: the one-block case of the same fold, with every
    element built at the call.

    Unlike :func:`evaluate_chain`, which builds each arm's MZI, the fold
    builds one MZI stack per distinct MZI phase; the MZI on the other arm
    at that phase is the stack read anti-transposed, a view with the same
    bits, so the cascade's ``psi`` costs one stack per block, not two.  The
    stage iterator folds one field column, the unit input through the first
    element (``optics.apply``) at the broadcast shape of the whole chain,
    stage by stage with ``optics.compose(stage, out=column)``; no
    transfer-matrix product is built.  Every prefix of an m-stage chain
    costs one fold over it, not one per prefix.  Each pair scales the
    column by ``sqrt(I0)`` last, as ``optics.apply`` scales the first
    column of the transfer matrix.
    """
    amplitude = np.sqrt(ast.source_intensity)
    if not stages:
        return optics.intensities(optics.apply(evaluate_chain(ast, bindings), (amplitude, 0)))
    bindings = {} if bindings is None else bindings
    swept = {name: value for name, value in bindings.items() if isinstance(value, Iterator)}
    fold = _stage_fold(ast, bindings, swept, amplitude)
    # map, unlike a zip, holds no block's values once its fold is built.
    return map(fold, *swept.values()) if swept else fold()


def _stage_fold(ast: CircuitAst, bindings: Mapping[str, float], swept: Mapping, amplitude: float):
    """Bind every element of ``ast`` that no name of ``swept`` reaches, and
    return the fold of one block: a block of each swept name, in the order
    of ``swept``, to its iterator of stage pairs."""
    constants: dict = {}
    # An element that a name of swept reaches stands in the chain as itself.
    chain = [e if e.phase in swept else _bound_matrix(e, bindings, constants, True)
             for e in ast.elements]
    shape = np.broadcast_shapes(*(m.shape[:-2] for m in constants.values()))
    cuts = [i for i, element in enumerate(ast.elements) if element.kind is ElementKind.MZI][1:]
    # compose would skip the identities (a zero phase shifter, say) at
    # every block; they are dropped here once.
    stage_chains = [[m for m in chain[start:stop] if not _is_identity(m)]
                    for start, stop in zip([1] + cuts, cuts + [len(chain)])]

    def fold(*blocks) -> Iterator:
        values = dict(zip(swept, blocks))
        matrices: dict = {}

        def bound(item):
            return _bound_matrix(item, values, matrices, True) if isinstance(item, ElementNode) else item
        first = bound(chain[0])
        stages = [[bound(item) for item in stage] for stage in stage_chains]
        block_shape = np.broadcast_shapes(shape, *(m.shape[:-2] for m in matrices.values()))
        column = optics.apply(np.broadcast_to(first, block_shape + (2, 2)), (1, 0))
        return _stage_intensities(column, stages, amplitude)
    return fold


def _is_identity(item) -> bool:
    """Whether ``item`` is a single exact identity, which compose skips."""
    return (isinstance(item, np.ndarray) and item.shape == (2, 2)
            and np.array_equal(item, np.eye(2)))


def _stage_intensities(column: np.ndarray, stage_chains: list, amplitude: float):
    out = column[..., None]
    for stage in stage_chains:
        if stage:
            optics.compose(stage, out=out)
        # Scaled last, as apply scales a matrix's first column by the field
        # (amplitude, 0), so the pairs keep the non-stage route's bits; at
        # amplitude 1 the multiply could only flip the sign of a zero.
        yield optics.intensities(column if amplitude == 1 else column * amplitude)
