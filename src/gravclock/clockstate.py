"""Labeled finite-dimensional quantum states and entanglement measures.

This is the independent numeric route against which the closed-form
visibility and entanglement expressions are checked: tensor products,
partial traces, von Neumann entropy, Wootters concurrence / entanglement of
formation, and the two-qubit correlation witness of the source/path pair.

States and matrices carry optional leading batch axes: a stack of states
over the same labeled subsystems is validated once and measured member by
member, each member exactly as it would be alone.  A single state is a
stack with no batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, UnknownLabel

NORM_TOL = 1e-12
PSD_TOL = 1e-10
EIG_CLAMP = 1e-12
_LN2 = math.log(2)

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _reject(bad, error: type[Exception], message: Callable[[tuple[int, ...]], str]) -> None:
    """Raise ``error`` if any member of a stack is ``bad``.

    Callers write each check as ``~(value <= tolerance)``, so that a NaN
    value, which fails every comparison, counts as bad.

    ``bad`` has the stack's batch shape, () for a single state.  The message is
    ``message(index)`` for the first bad member, followed by that member's
    stack index when there is a batch axis.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    index = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
    text = message(index)
    raise error(f"{text} at stack index {index[0] if len(index) == 1 else index}" if index else text)


def _dot_self(x: np.ndarray) -> np.ndarray:
    # x . x per vector through the BLAS dot np.linalg.norm uses on one vector
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _norms(amplitudes: np.ndarray) -> np.ndarray:
    """Euclidean norm of each amplitude vector, rounded as np.linalg.norm rounds one."""
    return np.sqrt(_dot_self(amplitudes.real) + _dot_self(amplitudes.imag))


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -2, -1)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.outer of each pair of vectors, with the same products
    return a[..., :, None] * b[..., None, :]


def _dims(labels: tuple[tuple[str, int], ...]) -> int:
    return int(np.prod([d for _, d in labels])) if labels else 0


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over ordered, named subsystems.

    ``amplitudes`` has shape (..., dim): one state, or a stack of states of
    the same subsystems along leading batch axes.  Every member is validated.
    """

    amplitudes: np.ndarray
    labels: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        dim = _dims(self.labels)
        if self.amplitudes.shape[-1:] != (dim,):
            raise DimensionMismatch(
                f"amplitude length {self.amplitudes.shape} != product of label dims {dim}"
            )
        names = [name for name, _ in self.labels]
        if len(set(names)) != len(names):
            raise DimensionMismatch("subsystem labels must be unique")
        norm = _norms(self.amplitudes)
        _reject(
            ~(np.abs(norm - 1.0) <= NORM_TOL),
            DomainError,
            lambda i: f"state norm {float(norm[i])} deviates from 1 beyond {NORM_TOL}",
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.labels)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.labels)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over named subsystems.

    ``matrix`` has shape (..., dim, dim): one matrix, or a stack along leading
    batch axes.  Every member is validated.
    """

    matrix: np.ndarray
    labels: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        dim = _dims(self.labels)
        m = self.matrix
        if m.shape[-2:] != (dim, dim):
            raise DimensionMismatch(f"matrix shape {m.shape} != ({dim}, {dim})")
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        asymmetry = np.abs(m - _dagger(m)).max(axis=(-2, -1))
        _reject(
            ~(asymmetry <= NORM_TOL * scale),
            DomainError,
            lambda i: f"density matrix is not Hermitian: max |m - m^dagger| = {float(asymmetry[i])}",
        )
        tr = np.trace(m, axis1=-2, axis2=-1)
        _reject(
            ~(np.abs(tr - 1.0) <= NORM_TOL),
            DomainError,
            lambda i: f"trace {complex(tr[i])} deviates from 1 beyond {NORM_TOL}",
        )
        min_eig = np.linalg.eigvalsh(m).min(axis=-1)
        _reject(
            ~(min_eig >= -PSD_TOL),
            DomainError,
            lambda i: f"matrix has negative eigenvalue {float(min_eig[i])}",
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.labels)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.labels)


def state_vector(amplitudes: Iterable[complex], labels: Sequence[tuple[str, int]]) -> StateVector:
    """Build a StateVector, normalizing the given amplitudes.

    An array of shape (..., dim) gives a stack with each vector normalized.
    """
    amps = np.asarray(
        amplitudes if isinstance(amplitudes, np.ndarray) else list(amplitudes), dtype=complex
    )
    norm = _norms(amps)
    _reject(norm == 0, DomainError, lambda i: "cannot normalize the zero vector")
    return StateVector(amps / norm[..., None], tuple((str(n), int(d)) for n, d in labels))


def tensor_state(parts: Sequence[StateVector]) -> StateVector:
    """Kronecker composition of normalized states, respecting label order.

    Stacked factors compose member by member; their batch shapes broadcast.
    """
    if not parts:
        raise DimensionMismatch("tensor_state needs at least one factor")
    amps = parts[0].amplitudes
    labels: list[tuple[str, int]] = list(parts[0].labels)
    for part in parts[1:]:
        product = _outer(amps, part.amplitudes)
        amps = product.reshape(product.shape[:-2] + (-1,))
        labels.extend(part.labels)
    return StateVector(amps, tuple(labels))


def density_from_state(state: StateVector) -> DensityMatrix:
    """|psi><psi| of each state in the stack."""
    return DensityMatrix(_outer(state.amplitudes, state.amplitudes.conj()), state.labels)


def reduced_density(state: StateVector | DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Partial trace onto the subsystems in `keep` (original label order), per stack member."""
    keep_set = set(keep)
    unknown = keep_set - set(state.names)
    if unknown:
        raise UnknownLabel(f"unknown subsystem label(s): {sorted(unknown)}")
    dims = state.dims
    n_sys = len(dims)
    keep_idx = [i for i, name in enumerate(state.names) if name in keep_set]
    trace_idx = [i for i in range(n_sys) if i not in keep_idx]
    keep_dim = int(np.prod([dims[i] for i in keep_idx])) if keep_idx else 1

    trace_dim = int(np.prod([dims[i] for i in trace_idx])) if trace_idx else 1

    perm = keep_idx + trace_idx
    if isinstance(state, StateVector):
        batch = state.amplitudes.shape[:-1]
        nb = len(batch)
        psi = state.amplitudes.reshape(batch + dims)
        psi = np.moveaxis(psi, [nb + i for i in perm], range(nb, nb + n_sys))
        psi = psi.reshape(batch + (keep_dim, trace_dim))
        rho = psi @ _dagger(psi)
    else:
        batch = state.matrix.shape[:-2]
        nb = len(batch)
        rho_t = state.matrix.reshape(batch + dims + dims)
        sources = [nb + i for i in perm] + [nb + n_sys + i for i in perm]
        rho_t = np.moveaxis(rho_t, sources, range(nb, nb + 2 * n_sys))
        rho_t = rho_t.reshape(batch + (keep_dim, trace_dim, keep_dim, trace_dim))
        rho = np.einsum("...iaja->...ij", rho_t)

    rho = 0.5 * (rho + _dagger(rho))
    labels = tuple(state.labels[i] for i in keep_idx)
    return DensityMatrix(rho, labels)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda log2 lambda over the spectrum, with 0 log 0 := 0; one value per stack member."""
    eigs = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
    kept = eigs > EIG_CLAMP
    safe = np.where(kept, eigs, 1.0)
    ent = -np.sum(np.where(kept, safe * np.log(safe), 0.0), axis=-1)
    return (ent / _LN2)[()]


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), in bits, elementwise; NaN gives NaN.

    An argument less than EIG_CLAMP outside [0, 1] is clamped into it; one
    farther out raises :class:`DomainError`.  h is taken on q, the smaller
    of x and 1 - x (which is exact), as -q ln q - (1 - q) log1p(-q): two
    non-negative terms, so the sum does not cancel.
    """
    x = np.asarray(x, dtype=float)
    bad = (x <= -EIG_CLAMP) | (x >= 1.0 + EIG_CLAMP)
    if bad.any():
        raise DomainError(f"binary entropy argument {float(x[bad][0])!r} outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    q = np.minimum(x, 1.0 - x)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0, masked
        q_log_q = np.where(q == 0.0, 0.0, q * np.log(q))
    return ((-q_log_q - (1.0 - q) * np.log1p(-q)) / _LN2)[()]


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"expected a two-qubit state, got dims {rho.dims}")


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix, one value per stack member."""
    _require_two_qubits(rho)
    r = rho.matrix @ _SIGMA_YY @ rho.matrix.conj() @ _SIGMA_YY
    eigs = np.clip(np.linalg.eigvals(r).real, 0.0, None)
    # spectrum of rho rho~ is real non-negative up to roundoff; zero out the
    # rank-deficiency noise (observed ~1e-17 relative) so its square roots
    # cannot pollute the sum, while keeping genuinely small eigenvalues
    floor = 1e-14 * np.maximum(1e-300, eigs.max(axis=-1, keepdims=True))
    lams = np.sort(np.sqrt(np.where(eigs < floor, 0.0, eigs)), axis=-1)
    return np.maximum(0.0, lams[..., 3] - lams[..., 2] - lams[..., 1] - lams[..., 0])[()]


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """h((1 + sqrt(1 - C^2)) / 2) from the concurrence C, in bits, one value per stack member."""
    conc = concurrence(rho)
    return binary_entropy(0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - conc * conc))))


# sigma_x (x) sigma_z and sigma_z (x) sigma_y on the source/path pair
_WITNESS_TERMS = (np.kron(_SIGMA_X, _SIGMA_Z), np.kron(_SIGMA_Z, _SIGMA_Y))


def witness_value(rho: DensityMatrix) -> float:
    """|<sigma_x^S sigma_z^P>| + |<sigma_z^S sigma_y^P>|; above 1 certifies entanglement.

    The operators are written in the storage bases: the source qubit in its
    {|0>, |1>} basis, the path qubit in the after-beam-splitter {|L'>, |R'>}
    basis, where sigma_z^P = |L'><L'| - |R'><R'| is the which-port observable
    and sigma_y^P reads the relative phase of the two ports.  The two source
    observables anticommute, as do the two path observables, so on a product
    state the sum is at most sqrt(s_x^2 + s_z^2) sqrt(p_z^2 + p_y^2) <= 1, and by convexity
    on every separable state (Bose et al., PRL 119, 240401 (2017)).

    One value per stack member.
    """
    _require_two_qubits(rho)
    return sum(
        np.abs(np.real(np.trace(rho.matrix @ term, axis1=-2, axis2=-1))) for term in _WITNESS_TERMS
    )[()]
