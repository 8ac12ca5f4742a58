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
its closed form, and :func:`compose`, :func:`apply` and :func:`is_unitary`
spell the 2x2 products out as ``a_i0*b_0j + a_i1*b_1j`` on broadcast
``(...)``-shaped entry arrays.  That avoids numpy's batched ``@``, whose
per-matrix overhead dominates on large stacks of 2x2 matrices.  The tests
keep ``@``/``einsum`` as the independent oracle for these kernels.
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


def phase_element(arm: Arm, phase) -> np.ndarray:
    """Diagonal phase shifter: ``exp(i*phase)`` on ``arm``, 1 on the other.

    ``phase`` may be a scalar or an array; the result has shape
    ``phase.shape + (2, 2)``.  Non-finite phases are rejected.
    """
    phase = np.asarray(phase, dtype=float)
    if not np.all(np.isfinite(phase)):
        raise ValueError("phase must be finite")
    out = np.zeros(phase.shape + (2, 2), dtype=complex)
    factor = np.exp(1j * phase)
    if arm is Arm.UPPER:
        out[..., 0, 0] = factor
        out[..., 1, 1] = 1.0
    elif arm is Arm.LOWER:
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = factor
    else:
        raise TypeError(f"arm must be an Arm, got {arm!r}")
    return out


def mzi(arm: Arm, phase) -> np.ndarray:
    """Mach-Zehnder block ``[BS] [phase] [BS]`` with the phase on ``arm``.

    Built in closed form with ``e = exp(1j*phase)``:

    * ``arm=Arm.LOWER``: ``(1/2) [[1 - e, i(1 + e)], [i(1 + e), e - 1]]``
    * ``arm=Arm.UPPER``: ``(1/2) [[e - 1, i(1 + e)], [i(1 + e), 1 - e]]``

    so phase 0 routes everything to the cross port and phase pi to the bar
    port.  ``phase`` broadcasts as in :func:`phase_element`.
    """
    phase = np.asarray(phase, dtype=float)
    if not np.all(np.isfinite(phase)):
        raise ValueError("phase must be finite")
    if not isinstance(arm, Arm):
        raise TypeError(f"arm must be an Arm, got {arm!r}")
    e = np.exp(1j * phase)
    bar = 0.5 * (1.0 - e)  # the lower-arm (0, 0) entry
    out = np.empty(phase.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = out[..., 1, 0] = 0.5j * (1.0 + e)
    if arm is Arm.LOWER:
        out[..., 0, 0] = bar
        out[..., 1, 1] = -bar
    else:
        out[..., 0, 0] = -bar
        out[..., 1, 1] = bar
    return out


def _as_matrix(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[-2:] != (2, 2):
        raise ValueError(f"expected a (..., 2, 2) matrix stack, got shape {matrix.shape}")
    return matrix


def _entries(matrix) -> tuple:
    """The entries ``(m00, m01, m10, m11)`` of a ``(..., 2, 2)`` stack, as views."""
    matrix = _as_matrix(matrix)
    return matrix[..., 0, 0], matrix[..., 0, 1], matrix[..., 1, 0], matrix[..., 1, 1]


def _product(a: tuple, b: tuple) -> tuple:
    """Entries of ``A @ B`` from the entries of ``A`` and ``B``; shapes broadcast."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _stack(entries: tuple) -> np.ndarray:
    """Inverse of :func:`_entries`: assemble a ``(..., 2, 2)`` stack."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in entries))
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = entries
    return out


def compose(elements: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply a chain of elements given in physical order.

    The first element acts on the field first, i.e. the result is
    ``elements[-1] @ ... @ elements[0]``.  Entries may be single matrices
    or broadcast-compatible stacks of shape ``(..., 2, 2)``.  The running
    product is kept as four entry arrays and stacked once at the end.
    """
    if len(elements) == 0:
        raise ValueError("cannot compose an empty element chain")
    result = _entries(elements[0])
    for element in elements[1:]:
        result = _product(_entries(element), result)
    return _stack(result)


def apply(matrix: np.ndarray, field) -> np.ndarray:
    """Propagate a two-path field through ``matrix`` (plain matrix-vector product)."""
    m00, m01, m10, m11 = _entries(matrix)
    field = np.asarray(field, dtype=complex)
    if field.shape[-1:] != (2,):
        raise ValueError(f"expected a (..., 2) field, got shape {field.shape}")
    upper, lower = field[..., 0], field[..., 1]
    return np.stack(np.broadcast_arrays(m00 * upper + m01 * lower, m10 * upper + m11 * lower), axis=-1)


def intensities(field) -> tuple:
    """Return ``(|upper|**2, |lower|**2)`` of a two-path field."""
    field = np.asarray(field, dtype=complex)
    upper = np.abs(field[..., 0]) ** 2
    lower = np.abs(field[..., 1]) ** 2
    if upper.ndim == 0:
        return float(upper), float(lower)
    return upper, lower


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """True iff ``max |M^dag M - I| <= tol`` entrywise (stacks: all members)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    matrix = _as_matrix(matrix)
    gram = _stack(_product(_entries(np.swapaxes(matrix.conj(), -1, -2)), _entries(matrix)))
    return bool(np.max(np.abs(gram - _IDENTITY)) <= tol)
