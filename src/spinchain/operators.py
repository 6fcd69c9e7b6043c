"""Pauli/tensor algebra for N-qubit states and density matrices.

Conventions used throughout the package:

* qubit sites are 1-based,
* qubit 1 is the most significant bit, so the basis label ``b1 b2 ... bN``
  maps to the integer index ``sum_k b_k 2^(N-k)``,
* ``|0>`` is the +1 eigenstate of ``sigma_z`` (so a lowering operator
  ``(sigma_x - i sigma_y)/2`` maps ``|0> -> |1>``).

States are plain complex vectors of length ``2^N`` and density matrices are
plain ``2^N x 2^N`` complex arrays; the helpers here validate state vectors
and compare states with pure targets. No kernel forms a dense ``2^N``
operator: gates act on their pair through 4x4 and 16x16 maps.
"""

from __future__ import annotations

import numpy as np

_PAULIS = {
    "identity": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    # (sigma_x - i sigma_y)/2 == |1><0| with the |0> = +z convention.
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


def pauli(kind: str) -> np.ndarray:
    """Return the 2x2 matrix for one of ``identity, x, y, z, minus``."""
    try:
        return _PAULIS[kind].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli kind {kind!r}") from None


def num_qubits(dim: int) -> int:
    """Number of qubits for a state-vector dimension; rejects non-powers of two."""
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def check_state(psi: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    num_qubits(psi.shape[0])
    if abs(np.linalg.norm(psi) - 1.0) > tol:
        raise ValueError("state vector is not normalised")
    return psi


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """``<psi| rho |psi>`` — the Uhlmann fidelity when the target is pure."""
    psi = np.asarray(psi, dtype=complex)
    return float(np.real(psi.conj() @ (rho @ psi)))


def overlap_fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """``|<phi|psi>|^2`` for two pure states."""
    return float(np.abs(np.vdot(phi, psi)) ** 2)
