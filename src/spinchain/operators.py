"""Pauli/tensor algebra for N-qubit states and density matrices.

Conventions used throughout the package:

* qubit sites are 1-based,
* qubit 1 is the most significant bit, so the basis label ``b1 b2 ... bN``
  maps to the integer index ``sum_k b_k 2^(N-k)``,
* ``|0>`` is the +1 eigenstate of ``sigma_z`` (so a lowering operator
  ``(sigma_x - i sigma_y)/2`` maps ``|0> -> |1>``).

States are plain complex vectors of length ``2^N`` and density matrices are
plain ``2^N x 2^N`` complex arrays; the helpers here validate their
invariants and compare states. ``embed`` builds the dense
``2^N x 2^N`` matrix of a local (one- or two-site) operator for oracle
tests; the evolution kernels never form it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A 2x2 or 4x4 block acting on one or two distinct (1-based) sites.

    For two targets the block is read in target order: the first target is
    the first tensor factor of the 4x4 block.
    """

    targets: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self):
        targets = tuple(int(q) for q in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) not in (1, 2):
            raise ValueError("a local operator acts on one or two sites")
        if any(q < 1 for q in targets):
            raise ValueError("qubit indices are 1-based")
        if len(set(targets)) != len(targets):
            raise ValueError("target sites must be distinct")
        block = np.asarray(self.block, dtype=complex)
        object.__setattr__(self, "block", block)
        dim = 2 ** len(targets)
        if block.shape != (dim, dim):
            raise ValueError(
                f"block shape {block.shape} does not match {len(targets)} target(s)"
            )


def embed(op: LocalOperator, n_qubits: int) -> np.ndarray:
    """Dense ``2^N x 2^N`` matrix of a local operator (identity elsewhere).

    Brute-force index construction; O(4^N) memory. Intended for oracle
    tests at small N — production code applies local operators directly.
    """
    if any(q > n_qubits for q in op.targets):
        raise ValueError("target site outside the chain")
    dim = 2**n_qubits
    # Qubit q (1-based, MSB first) owns bit position n_qubits - q.
    shifts = [n_qubits - q for q in op.targets]
    mask = 0
    for s in shifts:
        mask |= 1 << s
    idx = np.arange(dim)
    rest = idx & ~mask
    sub = np.zeros(dim, dtype=np.int64)
    k = len(shifts)
    for pos, s in enumerate(shifts):
        sub |= ((idx >> s) & 1) << (k - 1 - pos)
    out = op.block[sub[:, None], sub[None, :]] * (rest[:, None] == rest[None, :])
    return np.ascontiguousarray(out)


def check_state(psi: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    num_qubits(psi.shape[0])
    if abs(np.linalg.norm(psi) - 1.0) > tol:
        raise ValueError("state vector is not normalised")
    return psi


def check_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-8,
    eig_tol: float = 1e-8,
) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (to tolerance)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    num_qubits(rho.shape[0])
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        raise ValueError("density matrix trace differs from one")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -eig_tol:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return rho


def fidelity(rho_out: np.ndarray, rho_target: np.ndarray) -> float:
    """Squared Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``.

    Both arguments must be valid density matrices of the same dimension.
    For a pure target, :func:`fidelity_to_pure` is the cheap equivalent.
    """
    rho_out = np.asarray(rho_out, dtype=complex)
    rho_target = np.asarray(rho_target, dtype=complex)
    if rho_out.shape != rho_target.shape:
        raise ValueError("density matrices differ in dimension")
    w, v = np.linalg.eigh(0.5 * (rho_out + rho_out.conj().T))
    if w.min() < -1e-6:
        raise ValueError("first argument is not positive within tolerance")
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_rho @ rho_target @ sqrt_rho
    mu = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    if mu.min() < -1e-6:
        raise ValueError("second argument is not positive within tolerance")
    root_sum = np.sum(np.sqrt(np.clip(mu, 0.0, None)))
    return float(root_sum**2)


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """``<psi| rho |psi>`` — the Uhlmann fidelity when the target is pure."""
    psi = np.asarray(psi, dtype=complex)
    return float(np.real(psi.conj() @ (rho @ psi)))


def overlap_fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """``|<phi|psi>|^2`` for two pure states."""
    return float(np.abs(np.vdot(phi, psi)) ** 2)
