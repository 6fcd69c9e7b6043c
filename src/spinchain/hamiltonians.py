"""Gate drives for exchange-coupled qubit pairs.

Each gate kind is a set of pulse channels, a Gaussian pulse multiplying a
constant 4x4 block on the pair (``gate_channel_blocks``). A channel's
pulse is its (A, W) parameters, placed in a slot by
``rescale_channel_params`` and sampled by ``pulses.gaussian``. The SWAP drive
is ``J(t) * (XX + YY + ZZ)``; the CNOT drive is
``J1(t) * (IX + ZI) + J2(t) * (ZX)`` (single-qubit X on the target,
single-qubit Z on the control, plus a ZX coupling). Its x-basis frame —
obtained by conjugating the control with ``R = exp(i (pi/4) sigma_y)`` — is
``J1(t) * (IX - XI) - J2(t) * (XX)``; the sign of the coupling term is
fixed by the conjugation identity itself, which the tests verify to
machine precision.

Within each gate the blocks mutually commute, so the slot propagator
factorises exactly: a common eigenbasis per gate kind turns every time
step into a diagonal phase. ``gate_eigensystem`` exposes that basis.

Blocks live on a qubit pair and never as dense ``2^N`` matrices, so a
``GateSpec`` works unchanged at any chain size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import pauli
from .pulses import check_pulse_params

# Amplitude/width defaults (hbar*omega0, tau0^2) realizing each gate in a
# single slot of duration tau0. The SWAP pulse area is 3*pi/4; the CNOT
# local/coupling areas are 3*pi/4 and pi/4.
DEFAULT_SWAP_PARAMS = (9.36309696, 0.020165)
DEFAULT_CNOT_LOCAL_PARAMS = (9.33360747, 0.0202927)
DEFAULT_CNOT_COUPLING_PARAMS = (3.11530553, 0.02023955)

GATE_KINDS = ("swap", "cnot", "cnot_rotated")

# Control-qubit y-rotation by pi/2 (half-angle convention):
# R = exp(i (pi/4) sigma_y) maps sigma_z -> -sigma_x and sigma_x -> sigma_z.
ROTATION_FRAME = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class GateSpec:
    """A gate kind on a qubit pair, with its per-channel (A, W) parameters.

    ``qubits`` is (control, target) for the CNOT kinds and simply the
    coupled pair for SWAP. ``params`` holds one (A, W) pair for SWAP and
    two — local drive then coupling — for the CNOT kinds, and each must pass
    ``check_pulse_params`` when the gate is made.
    """

    kind: str
    qubits: tuple[int, int]
    params: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = (int(self.qubits[0]), int(self.qubits[1]))
        object.__setattr__(self, "qubits", qubits)
        if qubits[0] == qubits[1] or min(qubits) < 1:
            raise ValueError("gate needs two distinct 1-based qubit indices")
        params = tuple((float(a), float(w)) for a, w in self.params)
        object.__setattr__(self, "params", params)
        expected = 1 if self.kind == "swap" else 2
        if len(params) != expected:
            raise ValueError(f"{self.kind} takes {expected} (A, W) pair(s)")
        check_pulse_params(*zip(*params))


def swap_gate(q1: int, q2: int, params=DEFAULT_SWAP_PARAMS) -> GateSpec:
    return GateSpec(kind="swap", qubits=(q1, q2), params=(tuple(params),))


def cnot_gate(
    control: int,
    target: int,
    local_params=DEFAULT_CNOT_LOCAL_PARAMS,
    coupling_params=DEFAULT_CNOT_COUPLING_PARAMS,
) -> GateSpec:
    return GateSpec(
        kind="cnot",
        qubits=(control, target),
        params=(tuple(local_params), tuple(coupling_params)),
    )


def rotated_cnot_gate(
    control: int,
    target: int,
    local_params=DEFAULT_CNOT_LOCAL_PARAMS,
    coupling_params=DEFAULT_CNOT_COUPLING_PARAMS,
) -> GateSpec:
    return GateSpec(
        kind="cnot_rotated",
        qubits=(control, target),
        params=(tuple(local_params), tuple(coupling_params)),
    )


def _two_site(a: str, b: str) -> np.ndarray:
    return np.kron(pauli(a), pauli(b))


def rescale_channel_params(params, start: float, end: float):
    """The pulse parameters of (A, W) channel parameters in ``[start, end)``.

    A window of duration ``alpha`` carries the rescaled parameters
    ``(A/alpha, W*alpha^2)`` centred mid-window, so the analytic pulse area
    is independent of the slot duration. ``params`` of shape ``(..., C,
    2)`` give amplitudes and widths of shape ``(..., C, 1)``, which
    broadcast against a row of sample times, and the centre. An array of
    window ends, of shape ``(D, 1, 1)``, rescales to D windows at once and
    checks them in order. Rescaled
    parameters outside the float range fail ``check_pulse_params`` with
    ``ValueError``, without a numpy warning.
    """
    alpha = end - start
    if not np.all(alpha > 0.0):
        raise ValueError("gate window must have positive duration")
    params = np.asarray(params, dtype=float)
    # a rescaling past the float range gives inf or 0, which the check
    # refuses; alpha**2 of a Python float would raise OverflowError instead
    with np.errstate(all="ignore"):
        amplitude = params[..., :1] / alpha
        width = params[..., 1:] * (alpha * alpha)
    check_pulse_params(amplitude, width)
    return amplitude, width, 0.5 * (start + end)


def gate_channel_blocks(kind: str) -> tuple[np.ndarray, ...]:
    """Constant 4x4 blocks multiplying each pulse channel of a gate kind.

    SWAP has a single channel; the CNOT kinds have two (local drive,
    coupling). The blocks of one gate commute with each other.
    """
    if kind == "swap":
        return (_two_site("x", "x") + _two_site("y", "y") + _two_site("z", "z"),)
    if kind == "cnot":
        return (
            _two_site("identity", "x") + _two_site("z", "identity"),
            _two_site("z", "x"),
        )
    if kind == "cnot_rotated":
        return (
            _two_site("identity", "x") - _two_site("x", "identity"),
            -_two_site("x", "x"),
        )
    raise ValueError(f"unknown gate kind {kind!r}")


@lru_cache(maxsize=None)
def gate_eigensystem(kind: str) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Common eigenbasis ``V`` and per-channel eigenvalues of a gate kind.

    Because the channel blocks commute, ``V`` diagonalises all of them at
    once and the driven propagator is ``V exp(-i sum_i S_i d_i) V^dag``
    with ``S_i`` the accumulated pulse areas. Diagonality is asserted.
    """
    blocks = gate_channel_blocks(kind)
    # A generic irrational mix keeps common eigenvectors for commuting
    # Hermitian blocks even when one block alone is degenerate.
    weights = [1.0, np.pi, np.e][: len(blocks)]
    mix = sum(w * b for w, b in zip(weights, blocks))
    _, v = np.linalg.eigh(mix)
    diags = []
    for block in blocks:
        d = v.conj().T @ block @ v
        if np.max(np.abs(d - np.diag(np.diag(d)))) > 1e-10:
            raise AssertionError("gate channel blocks do not share the eigenbasis")
        diags.append(np.real(np.diag(d)).copy())
    return v, tuple(diags)


def ideal_gate_matrix(kind: str) -> np.ndarray:
    """The exact 4x4 target unitary of a gate kind (control first)."""
    if kind == "swap":
        return np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
    if kind == "cnot":
        # Flips the target when the control is |1> (the -1 eigenstate of Z).
        return np.array(
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=complex,
        )
    if kind == "cnot_rotated":
        r = np.kron(ROTATION_FRAME, np.eye(2))
        return r @ ideal_gate_matrix("cnot") @ r.conj().T
    raise ValueError(f"unknown gate kind {kind!r}")
