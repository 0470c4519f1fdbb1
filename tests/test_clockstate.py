import math

import numpy as np
import pytest

from conftest import haar_state
from gravclock.clockstate import (
    DensityMatrix,
    StateVector,
    binary_entropy,
    concurrence,
    density_from_state,
    entanglement_of_formation,
    reduced_density,
    state_vector,
    tensor_state,
    von_neumann_entropy,
    witness_value,
)
from gravclock.errors import DimensionMismatch, DomainError, UnknownLabel

QQ = (("S", 2), ("P", 2))


def bell():
    return state_vector([1, 0, 0, 1], QQ)


def test_tensor_of_ground_states():
    zero = state_vector([1, 0], [("A", 2)])
    one = state_vector([1, 0], [("B", 2)])
    combined = tensor_state([zero, one])
    np.testing.assert_allclose(combined.amplitudes, [1, 0, 0, 0])
    assert combined.labels == (("A", 2), ("B", 2))
    assert abs(np.linalg.norm(combined.amplitudes) - 1.0) < 1e-15


def test_compose_then_reduce_roundtrip():
    rng = np.random.default_rng(11)
    a = StateVector(haar_state(rng, 2), (("A", 2),))
    b = StateVector(haar_state(rng, 3), (("B", 3),))
    rho_a = reduced_density(tensor_state([a, b]), ["A"])
    np.testing.assert_allclose(
        rho_a.matrix, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-14
    )


def test_bell_state_reduces_to_maximally_mixed():
    rho = reduced_density(bell(), ["S"])
    np.testing.assert_allclose(np.linalg.eigvalsh(rho.matrix), [0.5, 0.5], atol=1e-14)


def test_partial_trace_preserves_trace_on_random_states():
    rng = np.random.default_rng(12)
    for _ in range(200):
        state = StateVector(haar_state(rng, 8), (("S", 2), ("P", 2), ("C", 2)))
        for keep in (["S"], ["P"], ["C"], ["S", "P"], ["S", "C"], ["P", "C"]):
            rho = reduced_density(state, keep)
            assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12


def test_density_matrix_partial_trace_matches_state_route():
    rng = np.random.default_rng(13)
    state = StateVector(haar_state(rng, 8), (("S", 2), ("P", 2), ("C", 2)))
    via_state = reduced_density(state, ["S", "C"]).matrix
    via_rho = reduced_density(density_from_state(state), ["S", "C"]).matrix
    np.testing.assert_allclose(via_state, via_rho, atol=1e-13)


def test_unknown_label_raises():
    with pytest.raises(UnknownLabel):
        reduced_density(bell(), ["Q"])


def test_entropy_of_pure_and_mixed_states():
    assert von_neumann_entropy(density_from_state(bell())) < 1e-12
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2, (("S", 2),))
    assert abs(von_neumann_entropy(mixed) - 1.0) < 1e-12
    skewed = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (("S", 2),))
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(von_neumann_entropy(skewed) - expected) < 1e-12
    assert abs(expected - 0.811278) < 1e-6


def test_entropy_additivity_on_product_states():
    rng = np.random.default_rng(14)
    for _ in range(300):
        p, q = rng.uniform(0.05, 0.95, size=2)
        rho_a = DensityMatrix(np.diag([p, 1 - p]).astype(complex), (("A", 2),))
        rho_b = DensityMatrix(np.diag([q, 1 - q]).astype(complex), (("B", 2),))
        product = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix), (("A", 2), ("B", 2)))
        total = von_neumann_entropy(product)
        assert abs(total - von_neumann_entropy(rho_a) - von_neumann_entropy(rho_b)) < 1e-10


def test_concurrence_endpoints():
    assert concurrence(density_from_state(bell())) > 1.0 - 1e-12
    product = tensor_state(
        [state_vector([1, 0], [("S", 2)]), state_vector([0.6, 0.8], [("P", 2)])]
    )
    assert concurrence(density_from_state(product)) == 0.0


def test_concurrence_invariant_under_local_unitaries():
    rng = np.random.default_rng(15)

    def haar_unitary(n):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for _ in range(200):
        # generic full-rank two-qubit mixture
        states = [haar_state(rng, 4) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        rho = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, states))
        rho = DensityMatrix(rho, QQ)
        u = np.kron(haar_unitary(2), haar_unitary(2))
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, QQ)
        assert abs(concurrence(rho) - concurrence(rotated)) < 1e-10


def test_entanglement_of_formation_values():
    assert entanglement_of_formation(density_from_state(bell())) > 1.0 - 1e-10
    product = tensor_state(
        [state_vector([1, 0], [("S", 2)]), state_vector([1, 1], [("P", 2)])]
    )
    assert entanglement_of_formation(density_from_state(product)) == 0.0
    expected = binary_entropy(0.9)
    assert abs(expected - 0.468996) < 1e-6
    # h((1 + sqrt(1 - 0.36)) / 2) = h(0.9) for C = 0.6
    rho = 0.8 * density_from_state(bell()).matrix + 0.2 * np.eye(4) / 4
    got = entanglement_of_formation(DensityMatrix(rho, QQ))
    c = concurrence(DensityMatrix(rho, QQ))
    assert abs(got - binary_entropy(0.5 * (1 + math.sqrt(1 - c * c)))) < 1e-14


def test_witness_on_maximally_mixed_state_is_zero():
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4, QQ)
    assert witness_value(rho) < 1e-14


def _products(normals):
    """Product states from normals of shape (..., 4, 2).

    The rows are the source's real and imaginary parts, then the path's, in
    the order haar_state draws them.
    """
    s = state_vector(normals[..., 0, :] + 1j * normals[..., 1, :], [("S", 2)])
    p = state_vector(normals[..., 2, :] + 1j * normals[..., 3, :], [("P", 2)])
    return density_from_state(tensor_state([s, p]))


def test_witness_bounded_by_one_on_separable_states():
    rng = np.random.default_rng(16)
    assert witness_value(_products(rng.standard_normal((10_000, 4, 2)))).max() <= 1.0 + 1e-9
    # convex mixtures of products stay separable and bounded
    for _ in range(500):
        mats = _products(rng.standard_normal((3, 4, 2))).matrix
        weights = rng.dirichlet(np.ones(3))
        rho = DensityMatrix(sum(w * m for w, m in zip(weights, mats)), QQ)
        assert witness_value(rho) <= 1.0 + 1e-9


def test_witness_bounded_by_two_everywhere():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        state = StateVector(haar_state(rng, 4), QQ)
        assert witness_value(density_from_state(state)) <= 2.0 + 1e-12


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        concurrence(DensityMatrix(np.eye(8, dtype=complex) / 8, (("S", 2), ("P", 4))))
    with pytest.raises(DimensionMismatch):
        state_vector([1, 0, 0], QQ)
    with pytest.raises(DimensionMismatch):
        tensor_state([state_vector([1, 0], [("A", 2)]), state_vector([1, 0], [("A", 2)])])
    with pytest.raises(DimensionMismatch, match=r"^tensor_state needs at least one factor$"):
        tensor_state([])
    with pytest.raises(DimensionMismatch, match=r"^matrix shape \(3, 3\) != \(2, 2\)$"):
        DensityMatrix(np.eye(3, dtype=complex) / 3, (("S", 2),))


@pytest.mark.parametrize("x", [-0.5, 1.5])
def test_binary_entropy_rejects_arguments_outside_zero_to_one(x):
    with pytest.raises(DomainError, match=rf"^binary entropy argument {x!r} outside \[0, 1\]$"):
        binary_entropy(x)


def test_density_matrix_validation():
    bad_trace = np.eye(2, dtype=complex)
    with pytest.raises(DomainError):
        DensityMatrix(bad_trace, (("S", 2),))
    non_hermitian = np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex)
    with pytest.raises(DomainError):
        DensityMatrix(non_hermitian, (("S", 2),))
    not_psd = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(DomainError):
        DensityMatrix(not_psd, (("S", 2),))
    # NaN fails every comparison, so each check must reject it, not pass it
    for nan_entry in ((0, 0), (0, 1)):
        with_nan = np.eye(2, dtype=complex) / 2
        with_nan[nan_entry] = np.nan
        with pytest.raises(DomainError):
            DensityMatrix(with_nan, (("S", 2),))


# --- the batch axis --------------------------------------------------------


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _scalar_reference_measures(amplitudes, labels):
    """The measures as the per-state code computed them before the batch axis."""
    amps = amplitudes / np.linalg.norm(amplitudes)
    dims = tuple(d for _, d in labels)
    psi = amps.reshape(dims[0], -1)
    rho_s = psi @ psi.conj().T
    rho_s = 0.5 * (rho_s + rho_s.conj().T)
    eigs = np.clip(np.linalg.eigvalsh(rho_s), 0.0, None)
    eigs = eigs[eigs > 1e-12]
    entropy = 0.0 if eigs.size == 0 else -float(np.sum(eigs * np.log(eigs))) / math.log(2)
    rho = np.outer(amps, amps.conj())
    r = rho @ np.kron(SIGMA_Y, SIGMA_Y) @ rho.conj() @ np.kron(SIGMA_Y, SIGMA_Y)
    lam = np.clip(np.linalg.eigvals(r).real, 0.0, None)
    lam[lam < 1e-14 * max(1e-300, lam.max())] = 0.0
    lam = np.sort(np.sqrt(lam))
    conc = max(0.0, float(lam[3] - lam[2] - lam[1] - lam[0]))
    witness = abs(float(np.real(np.trace(rho @ np.kron(SIGMA_X, SIGMA_Z))))) + abs(
        float(np.real(np.trace(rho @ np.kron(SIGMA_Z, SIGMA_Y))))
    )
    return amps, entropy, conc, witness


def _random_stack(rng, k, dim):
    return rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))


def test_single_state_measures_exactly_as_the_per_state_code():
    rng = np.random.default_rng(20)
    for _ in range(200):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps, entropy, conc, witness = _scalar_reference_measures(raw, QQ)
        state = state_vector(raw, QQ)
        rho = density_from_state(state)
        assert np.array_equal(state.amplitudes, amps)
        assert von_neumann_entropy(reduced_density(state, ["S"])) == entropy
        assert concurrence(rho) == conc
        assert witness_value(rho) == witness
        for value in (concurrence(rho), witness_value(rho), von_neumann_entropy(rho)):
            assert np.ndim(value) == 0


def test_batched_measures_equal_the_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(21)
    labels = (("S", 2), ("P", 2), ("C", 2))
    raw = _random_stack(rng, 300, 8)
    raw[0] = [1, 0, 0, 0, 0, 0, 0, 0]  # product: zero entropies, eigenvalues dropped
    stack = state_vector(raw, labels)
    singles = [state_vector(v, labels) for v in raw]
    for i, single in enumerate(singles):
        assert np.array_equal(stack.amplitudes[i], single.amplitudes)
    for keep in (["S"], ["C"], ["S", "P"], ["P", "C"]):
        rho = reduced_density(stack, keep)
        via_matrix = reduced_density(density_from_state(stack), keep)
        measures = [von_neumann_entropy]
        if rho.dims == (2, 2):
            measures += [concurrence, entanglement_of_formation, witness_value]
        batched = {fn: fn(rho) for fn in measures}
        for i, single in enumerate(singles):
            one = reduced_density(single, keep)
            assert np.array_equal(rho.matrix[i], one.matrix)
            assert np.array_equal(via_matrix.matrix[i], reduced_density(density_from_state(single), keep).matrix)
            for fn, values in batched.items():
                assert values[i] == fn(one), (fn.__name__, keep, i)


def test_tensor_state_composes_member_by_member_and_broadcasts():
    rng = np.random.default_rng(22)
    a = state_vector(_random_stack(rng, 5, 2), [("A", 2)])
    b = state_vector(_random_stack(rng, 5, 3), [("B", 3)])
    fixed = state_vector([0.6, 0.8j], [("C", 2)])
    ab = tensor_state([a, b])
    abc = tensor_state([a, b, fixed])
    assert ab.amplitudes.shape == (5, 6) and abc.amplitudes.shape == (5, 12)
    for i in range(5):
        single_a = StateVector(a.amplitudes[i], a.labels)
        single_b = StateVector(b.amplitudes[i], b.labels)
        assert np.array_equal(ab.amplitudes[i], np.kron(single_a.amplitudes, single_b.amplitudes))
        assert np.array_equal(abc.amplitudes[i], tensor_state([single_a, single_b, fixed]).amplitudes)


def test_stacks_with_two_batch_axes():
    rng = np.random.default_rng(23)
    raw = _random_stack(rng, 12, 4).reshape(3, 4, 4)
    rho = density_from_state(state_vector(raw, QQ))
    values = witness_value(rho)
    assert values.shape == (3, 4)
    assert values[2, 1] == witness_value(density_from_state(state_vector(raw[2, 1], QQ)))


def _with_bad_member(index, bad, good):
    stack = np.stack([np.asarray(good, dtype=complex)] * 5)
    stack[index] = bad
    return stack


def test_a_bad_stack_member_raises_the_single_message_with_its_index():
    for bad_amplitude, reason in ((1.0 + 1e-9, "state norm 1.000000001"), (np.nan, "state norm nan")):
        bad = np.array([bad_amplitude, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(DomainError) as single:
            StateVector(bad, QQ)
        with pytest.raises(DomainError) as stacked:
            StateVector(_with_bad_member(3, bad, [1.0, 0.0, 0.0, 0.0]), QQ)
        assert reason in str(single.value) and "at stack index" not in str(single.value)
        assert str(stacked.value) == f"{single.value} at stack index 3"

    good = np.eye(2, dtype=complex) / 2
    negative = np.diag([1.2, -0.2]).astype(complex)
    for bad, reason in (
        (np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex), "not Hermitian"),
        (negative, "negative eigenvalue -0.2"),
        (np.eye(2, dtype=complex), "trace (2+0j) deviates"),
        (np.diag([np.nan, 0.5]).astype(complex), "not Hermitian: max |m - m^dagger| = nan"),
    ):
        with pytest.raises(DomainError) as single:
            DensityMatrix(bad, (("S", 2),))
        with pytest.raises(DomainError) as stacked:
            DensityMatrix(_with_bad_member(2, bad, good), (("S", 2),))
        assert reason in str(single.value) and "at stack index" not in str(single.value)
        assert str(stacked.value) == f"{single.value} at stack index 2"
    nested = np.stack([np.stack([good] * 3)] * 2)
    nested[1, 2] = negative
    with pytest.raises(DomainError, match=r"negative eigenvalue -0.2 at stack index \(1, 2\)$"):
        DensityMatrix(nested, (("S", 2),))


def test_zero_vector_in_a_stack_is_named():
    with pytest.raises(DomainError, match="cannot normalize the zero vector at stack index 1"):
        state_vector(np.array([[1, 0], [0, 0], [0, 1]], dtype=complex), [("A", 2)])
