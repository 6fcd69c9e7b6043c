import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    LocalOperator,
    apply_pair_matrix_to_state,
    apply_superop,
    embed,
    fidelity,
    partial_trace_keep_last_two,
    reduced_state,
)

from spinchain.operators import (
    check_state,
    fidelity_to_pure,
    num_qubits,
    pauli,
)


def dense_embed(block, targets, n):
    """Independent embedding oracle: permute a kron-product layout."""
    k = len(targets)
    rest = [q for q in range(1, n + 1) if q not in targets]
    order = list(targets) + rest
    natural = np.arange(2**n)
    grouped = np.zeros_like(natural)
    for position, q in enumerate(order):
        bit = (natural >> (n - q)) & 1
        grouped |= bit << (n - 1 - position)
    kron = np.kron(block, np.eye(2 ** (n - k)))
    return kron[np.ix_(grouped, grouped)]


def random_state(rng, n):
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def random_density(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_pauli_matrices_are_the_textbook_ones():
    assert np.array_equal(pauli("identity"), np.eye(2))
    assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(pauli("y"), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli("z"), np.array([[1, 0], [0, -1]]))


def test_lowering_operator_sends_zero_ket_to_one_ket():
    minus = pauli("minus")
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert np.allclose(minus @ e0, e1)
    assert np.allclose(minus @ e1, 0.0)
    assert np.allclose(minus, (pauli("x") - 1j * pauli("y")) / 2)


def test_pauli_rejects_unknown_kind():
    with pytest.raises(ValueError):
        pauli("w")


def test_num_qubits_requires_power_of_two():
    assert num_qubits(8) == 3
    with pytest.raises(ValueError):
        num_qubits(6)


@pytest.mark.parametrize("n", range(1, 7))
def test_single_site_embedding_matches_dense_oracle(n):
    rng = np.random.default_rng(7 + n)
    block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for q in range(1, n + 1):
        op = LocalOperator(targets=(q,), block=block)
        assert np.allclose(embed(op, n), dense_embed(block, (q,), n), atol=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_two_site_embedding_matches_dense_oracle(n):
    rng = np.random.default_rng(40 + n)
    block = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for q1 in range(1, n + 1):
        for q2 in range(1, n + 1):
            if q1 == q2:
                continue
            op = LocalOperator(targets=(q1, q2), block=block)
            assert np.allclose(
                embed(op, n), dense_embed(block, (q1, q2), n), atol=1e-12
            )


def test_local_operator_validation():
    good = np.eye(2)
    with pytest.raises(ValueError):
        LocalOperator(targets=(0,), block=good)
    with pytest.raises(ValueError):
        LocalOperator(targets=(1, 1), block=np.eye(4))
    with pytest.raises(ValueError):
        LocalOperator(targets=(1,), block=np.eye(4))
    with pytest.raises(ValueError):
        LocalOperator(targets=(1, 2, 3), block=np.eye(8))


def test_embed_rejects_targets_beyond_register():
    op = LocalOperator(targets=(3,), block=np.eye(2))
    with pytest.raises(ValueError):
        embed(op, 2)


# The full-register oracles apply 4x4 pair blocks (states) and 16x16 pair
# superoperators (density matrices) without forming the embedding.


@pytest.mark.parametrize("n", range(2, 6))
def test_state_application_matches_embedded_matrix(n):
    rng = np.random.default_rng(90 + n)
    block = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = LocalOperator(targets=(1, n), block=block)
    psi = random_state(rng, n)
    expected = embed(op, n) @ psi
    got = apply_pair_matrix_to_state(block, (1, n), psi.reshape((2,) * n))
    assert np.allclose(got.reshape(-1), expected, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 6))
def test_density_applications_match_embedded_matrix(n):
    rng = np.random.default_rng(130 + n)
    block = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = LocalOperator(targets=(2, 1), block=block)  # reversed order on purpose
    rho = random_density(rng, n)
    dense = embed(op, n)
    eye = np.eye(4)

    def apply(phi):  # row-major vec: vec(A X B) = (A kron B^T) vec(X)
        return apply_superop(rho, phi, (2, 1), n)

    assert np.allclose(apply(np.kron(block, eye)), dense @ rho, atol=1e-12)
    assert np.allclose(apply(np.kron(eye, block.conj())), rho @ dense.conj().T, atol=1e-12)
    assert np.allclose(
        apply(np.kron(block, block.conj())), dense @ rho @ dense.conj().T, atol=1e-12
    )


@pytest.mark.parametrize("n", range(2, 6))
def test_partial_trace_matches_dense_oracle(n):
    rng = np.random.default_rng(170 + n)
    rho = random_density(rng, n)
    rest = 2 ** (n - 2)
    expected = np.zeros((4, 4), dtype=complex)
    tensor = rho.reshape(rest, 4, rest, 4)
    for r in range(rest):
        expected += tensor[r, :, r, :]
    reduced = partial_trace_keep_last_two(rho)
    assert np.allclose(reduced, expected, atol=1e-12)
    assert np.allclose(reduced_state(rho, (n - 1, n)), expected, atol=1e-12)
    assert abs(np.trace(reduced) - 1.0) < 1e-10


def test_reduced_state_of_a_product_keeps_its_factors_in_keep_order():
    rng = np.random.default_rng(11)
    a, b, c = (random_density(rng, 1) for _ in range(3))
    rho = np.kron(np.kron(a, b), c)
    assert np.allclose(reduced_state(rho, (3, 1)), np.kron(c, a), atol=1e-14)
    assert np.allclose(reduced_state(rho, (2,)), b, atol=1e-14)


def test_partial_trace_on_two_qubits_is_a_copy():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    out = partial_trace_keep_last_two(rho)
    assert np.allclose(out, rho)
    out[0, 0] = 99.0
    assert rho[0, 0] != 99.0


def test_fidelity_of_mixed_with_pure_basis_state():
    rho = np.eye(2) / 2
    target = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert abs(fidelity(rho, target) - 0.5) < 1e-12


def test_fidelity_is_symmetric_and_one_on_identical_states():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 2)
    sigma = random_density(rng, 2)
    assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9
    assert abs(fidelity(rho, rho) - 1.0) < 1e-9


def test_fidelity_on_pure_states_is_squared_overlap():
    rng = np.random.default_rng(12)
    psi = random_state(rng, 2)
    phi = random_state(rng, 2)
    expected = abs(np.vdot(phi, psi)) ** 2
    rho = np.outer(psi, psi.conj())
    sigma = np.outer(phi, phi.conj())
    # the eigen-decomposition route loses ~sqrt(eps) on rank-deficient input
    assert abs(fidelity(rho, sigma) - expected) < 2e-7
    assert abs(fidelity_to_pure(rho, phi) - expected) < 1e-12


def test_fidelity_to_pure_agrees_with_general_fidelity_on_mixed_input():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 2)
    phi = random_state(rng, 2)
    sigma = np.outer(phi, phi.conj())
    assert abs(fidelity(rho, sigma) - fidelity_to_pure(rho, phi)) < 2e-7


def test_check_state_validates_norm_and_dimension():
    with pytest.raises(ValueError):
        check_state(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        check_state(np.array([1.0, 0.0, 0.0]))
    check_state(np.array([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_unitary_conjugation_preserves_fidelity(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2)
    sigma = random_density(rng, 2)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    w, v = np.linalg.eigh(h)
    u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
    before = fidelity(rho, sigma)
    after = fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
    assert abs(before - after) < 1e-8
