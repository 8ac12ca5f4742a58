"""Exact 2x2 complex transfer-matrix algebra for two-path optical fields.

Conventions used throughout the package:

* A two-path field is a length-2 complex vector ``(upper, lower)`` whose
  entries carry sqrt-intensity units; the canonical input is ``(E0, 0)``
  with ``I0 = |E0|**2 = 1``.
* A 50/50 beam splitter is ``(1/sqrt(2)) [[1, 1j], [1j, 1]]``.
* A phase shifter multiplies one arm by ``exp(1j*phase)`` and leaves the
  other untouched.
* Chains are written in physical order (first element hit by the light
  comes first); :func:`compose` therefore puts the first element rightmost
  in the matrix product.
* Global phase is never normalised away.  Matrix-level comparisons against
  closed forms are made either up to a global phase or at intensity level.

All constructors broadcast over array-valued phases and return stacks of
matrices with shape ``(..., 2, 2)``, which keeps dense parameter sweeps in
numpy instead of Python loops.  The kernels work entrywise: :func:`mzi` is
its closed form, and :func:`compose` and :func:`apply` spell the 2x2
products out as ``a_i0*b_0j + a_i1*b_1j`` on broadcast
``(...)``-shaped entry arrays.  That avoids numpy's batched ``@``, whose
per-matrix overhead dominates on large stacks of 2x2 matrices.  The tests
keep ``@``/``einsum`` as the independent oracle for these kernels.

Stacks are stored entry-major: a ``shape + (2, 2)`` stack is a view of a
``(2, 2) + shape`` buffer, and a ``shape + (2,)`` field one of a
``(2,) + shape`` buffer.  Shape, dtype and broadcasting are those of an
ordinary stack, but each entry ``m[..., i, j]`` and each field component
``f[..., k]`` is one contiguous array, so the entrywise kernels never
stride through memory.  The kernels write into their result in place
instead of allocating a temporary per arithmetic step:

* :func:`mzi` writes ``cos(phase)`` and ``sin(phase)`` straight into the
  real and imaginary parts of one entry as ``e = exp(1j*phase)``, with
  no complex ``exp`` and no ``1j*phase`` temporary, then derives the
  other entries from it.
* :func:`compose` copies the first element into the one result stack and
  folds each further element into it column by column, through two
  scratch entries; :func:`is_unitary` builds its Gram matrix with it.
  Given ``out``, a ``(..., 2, 1)`` column such as a field, it folds every
  element onto that one column in place instead, so a caller that reads
  only a chain's first column carries that column, not the product, and
  can read it after each stage without a copy.
  It also drops every element that is an exact single ``(2, 2)``
  identity (a zero phase shifter, say) before it multiplies.  Identity
  stacks with batch axes are kept, as they may broadcast the result's
  shape.
* :func:`apply` writes each output component with ``out=`` and skips an
  input component that is an exact scalar zero, such as the lower arm of
  the canonical input ``(E0, 0)``.

Both skips can only change the sign of a zero entry of a finite result,
so intensities are unchanged bit for bit.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "UNITARY_TOL",
    "Arm",
    "apply",
    "beam_splitter",
    "compose",
    "intensities",
    "is_unitary",
    "mzi",
    "phase_element",
]

# Single tolerance for "is this still unitary" checks.  Double precision
# keeps products of <= 20 elementary 2x2 unitaries well inside 1e-12.
UNITARY_TOL = 1e-12

_IDENTITY = np.eye(2, dtype=complex)


class Arm(Enum):
    """Which interferometer path a phase element acts on."""

    UPPER = "upper"
    LOWER = "lower"


def beam_splitter() -> np.ndarray:
    """Return the 50/50 beam-splitter matrix ``(1/sqrt(2)) [[1, i], [i, 1]]``."""
    return np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2.0)


def _checked_phase(arm: Arm, phase) -> np.ndarray:
    """``phase`` as a float array, after checking it is finite and ``arm`` an :class:`Arm`."""
    phase = np.asarray(phase, dtype=float)
    if not np.isfinite(phase).all():
        raise ValueError("phase must be finite")
    if not isinstance(arm, Arm):
        raise TypeError(f"arm must be an Arm, got {arm!r}")
    return phase


def phase_element(arm: Arm, phase) -> np.ndarray:
    """Diagonal phase shifter: ``exp(i*phase)`` on ``arm``, 1 on the other.

    ``phase`` may be a scalar or an array; the result has shape
    ``phase.shape + (2, 2)``.  Non-finite phases are rejected.
    """
    phase = _checked_phase(arm, phase)
    out = _empty_stack(phase.shape)
    out[..., 0, 1] = out[..., 1, 0] = 0.0
    factor = np.exp(1j * phase)
    if arm is Arm.UPPER:
        out[..., 0, 0] = factor
        out[..., 1, 1] = 1.0
    else:
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = factor
    return out


def mzi(arm: Arm, phase) -> np.ndarray:
    """Mach-Zehnder block ``[BS] [phase] [BS]`` with the phase on ``arm``.

    Built in closed form with ``e = exp(1j*phase)``:

    * ``arm=Arm.LOWER``: ``(1/2) [[1 - e, i(1 + e)], [i(1 + e), e - 1]]``
    * ``arm=Arm.UPPER``: ``(1/2) [[e - 1, i(1 + e)], [i(1 + e), 1 - e]]``

    so phase 0 routes everything to the cross port and phase pi to the bar
    port.  ``phase`` broadcasts as in :func:`phase_element`.
    """
    phase = _checked_phase(arm, phase)
    out = _empty_stack(phase.shape)
    m00, m01, m10, m11 = _entries(out)
    bar, minus_bar = (m00, m11) if arm is Arm.LOWER else (m11, m00)
    # The entries are computed in place, so no other phase-shaped array is
    # allocated.  cos + i*sin of the real phase has the bits of
    # ``exp(1j*phase)`` but for the sign of sin(-0.0), which ``1 - e`` and
    # ``1 + e`` below erase.  Each ufunc takes the closed form's operands in
    # its order, which keeps the values bit-identical to ``0.5 * (1 - e)``.
    e = m01
    np.cos(phase, out=e.real)
    np.sin(phase, out=e.imag)
    np.subtract(1.0, e, out=bar)
    np.multiply(0.5, bar, out=bar)  # bar = (1 - e)/2, the lower-arm (0, 0) entry
    np.negative(bar, out=minus_bar)
    np.add(1.0, e, out=m01)
    np.multiply(0.5j, m01, out=m01)
    m10[...] = m01
    return out


def _empty_stack(shape: tuple) -> np.ndarray:
    """An uninitialised complex ``shape + (2, 2)`` stack with contiguous entries."""
    return np.empty((2, 2) + shape, dtype=complex).transpose(*range(2, 2 + len(shape)), 0, 1)


def _as_matrix(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[-2:] != (2, 2):
        raise ValueError(f"expected a (..., 2, 2) matrix stack, got shape {matrix.shape}")
    return matrix


def _entries(matrix: np.ndarray) -> tuple:
    """The entries ``(m00, m01, m10, m11)`` of a ``(..., 2, 2)`` array, as views."""
    return matrix[..., 0, 0], matrix[..., 0, 1], matrix[..., 1, 0], matrix[..., 1, 1]


def compose(elements: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Multiply a chain of elements given in physical order.

    The first element acts on the field first, i.e. the result is
    ``elements[-1] @ ... @ elements[0]``.  Entries may be single matrices
    or broadcast-compatible stacks of shape ``(..., 2, 2)``.  Single exact
    identities are skipped; if every element is one, the result is the
    identity.  The first element is copied into one stack of the broadcast
    shape, and every further element is folded into that stack in place,
    so the chain allocates nothing else but two scratch entries.

    With ``out``, a complex ``(..., 2, 1)`` column ``v``, every element is
    folded onto it in place instead, and ``out`` is returned holding
    ``elements[-1] @ ... @ elements[0] @ v``; an empty chain leaves it as it
    is.  So when ``a`` holds a non-identity and ``compose(a)`` has the
    broadcast shape of ``a + b``, a copy of ``compose(a)[..., :, :1]`` so
    folded with ``b`` has the bits of column 0 of ``compose(a + b)``.  The
    elements' broadcast shape must fit ``out``'s batch shape, and no element
    may share memory with ``out``; otherwise ``ValueError`` is raised before
    anything is written.
    """
    matrices = [_as_matrix(element) for element in elements]
    matrices = [m for m in matrices if m.shape != (2, 2) or not np.array_equal(m, _IDENTITY)]
    if out is None:
        if len(elements) == 0:
            raise ValueError("cannot compose an empty element chain")
        if not matrices:
            return _IDENTITY.copy()
        shape = np.broadcast_shapes(*(m.shape[:-2] for m in matrices))
        out = _empty_stack(shape)
        out[...] = matrices.pop(0)
    else:
        if not isinstance(out, np.ndarray) or out.dtype != complex or out.shape[-2:] != (2, 1):
            raise ValueError("out must be a complex (..., 2, 1) column")
        shape = out.shape[:-2]
        if (any(m.shape[:-2] != shape for m in matrices)
                and np.broadcast_shapes(shape, *(m.shape[:-2] for m in matrices)) != shape):
            raise ValueError(f"elements broadcast wider than out's batch shape {shape}")
        if any(np.may_share_memory(m, out) for m in matrices):
            raise ValueError("an element shares memory with out")
    columns = [(out[..., 0, j], out[..., 1, j]) for j in range(out.shape[-1])]
    upper_term, lower_term = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for matrix in matrices:
        m00, m01, m10, m11 = _entries(matrix)
        # Column j of M @ P from the old column (p0j, p1j): entry (i, j) is
        # m_i0*p_0j + m_i1*p_1j, with the operands of every multiply and add
        # in that order.
        for p0j, p1j in columns:
            np.multiply(m01, p1j, out=upper_term)
            np.multiply(m10, p0j, out=lower_term)
            np.multiply(m00, p0j, out=p0j)
            p0j += upper_term
            np.multiply(m11, p1j, out=p1j)
            np.add(lower_term, p1j, out=p1j)
    return out


def apply(matrix: np.ndarray, field) -> np.ndarray:
    """Propagate a two-path field through ``matrix`` (plain matrix-vector product).

    A lower component that is an exact scalar zero, as in the canonical
    input ``(E0, 0)``, is skipped; with a finite ``matrix`` its terms are
    signed zeros.
    """
    m00, m01, m10, m11 = _entries(_as_matrix(matrix))
    field = np.asarray(field, dtype=complex)
    if field.shape[-1:] != (2,):
        raise ValueError(f"expected a (..., 2) field, got shape {field.shape}")
    upper, lower = field[..., 0], field[..., 1]
    out = np.empty((2,) + np.broadcast_shapes(m00.shape, upper.shape), dtype=complex)
    skip_lower = field.ndim == 1 and lower == 0
    scratch = None if skip_lower else np.empty(out.shape[1:], dtype=complex)
    for row, m_upper, m_lower in ((out[0, ...], m00, m01), (out[1, ...], m10, m11)):
        np.multiply(m_upper, upper, out=row)
        if not skip_lower:
            np.multiply(m_lower, lower, out=scratch)
            row += scratch
    return out.transpose(*range(1, out.ndim), 0)


def intensities(field) -> tuple:
    """Return ``(|upper|**2, |lower|**2)`` of a two-path field."""
    field = np.asarray(field, dtype=complex)
    # Squared in place (x*x has the bits of x**2), so each component costs
    # one real array, not two.
    upper = np.abs(field[..., 0])
    upper *= upper
    lower = np.abs(field[..., 1])
    lower *= lower
    if upper.ndim == 0:
        return float(upper), float(lower)
    return upper, lower


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """True iff ``max |M^dag M - I| <= tol`` entrywise (stacks: all members)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    matrix = _as_matrix(matrix)
    gram = compose([matrix, np.swapaxes(matrix.conj(), -1, -2)])
    return bool(np.max(np.abs(gram - _IDENTITY)) <= tol)
