"""Labeled finite-dimensional quantum states and entanglement measures.

This is the independent numeric route against which the closed-form
visibility and entanglement expressions are checked: tensor products,
partial traces, von Neumann entropy, Wootters concurrence / entanglement of
formation, and the two-qubit correlation witness of the source/path pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, UnknownLabel
from .logdomain import per_element

NORM_TOL = 1e-12
PSD_TOL = 1e-10
EIG_CLAMP = 1e-12

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over ordered, named subsystems."""

    amplitudes: np.ndarray
    labels: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        dim = int(np.prod([d for _, d in self.labels])) if self.labels else 0
        if self.amplitudes.shape != (dim,):
            raise DimensionMismatch(
                f"amplitude length {self.amplitudes.shape} != product of label dims {dim}"
            )
        names = [name for name, _ in self.labels]
        if len(set(names)) != len(names):
            raise DimensionMismatch("subsystem labels must be unique")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.labels)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.labels)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over named subsystems."""

    matrix: np.ndarray
    labels: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        dim = int(np.prod([d for _, d in self.labels])) if self.labels else 0
        if self.matrix.shape != (dim, dim):
            raise DimensionMismatch(f"matrix shape {self.matrix.shape} != ({dim}, {dim})")
        scale = max(1.0, float(np.abs(self.matrix).max()))
        if np.abs(self.matrix - self.matrix.conj().T).max() > NORM_TOL * scale:
            raise DomainError("density matrix is not Hermitian")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > NORM_TOL:
            raise DomainError(f"trace {tr} deviates from 1 beyond {NORM_TOL}")
        min_eig = float(np.linalg.eigvalsh(self.matrix).min())
        if min_eig < -PSD_TOL:
            raise DomainError(f"matrix has negative eigenvalue {min_eig}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.labels)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.labels)


def state_vector(amplitudes: Iterable[complex], labels: Sequence[tuple[str, int]]) -> StateVector:
    """Build a StateVector, normalizing the given amplitudes."""
    amps = np.asarray(list(amplitudes), dtype=complex)
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise DomainError("cannot normalize the zero vector")
    return StateVector(amps / norm, tuple((str(n), int(d)) for n, d in labels))


def tensor_state(parts: Sequence[StateVector]) -> StateVector:
    """Kronecker composition of normalized states, respecting label order."""
    if not parts:
        raise DimensionMismatch("tensor_state needs at least one factor")
    amps = parts[0].amplitudes
    labels: list[tuple[str, int]] = list(parts[0].labels)
    for part in parts[1:]:
        amps = np.kron(amps, part.amplitudes)
        labels.extend(part.labels)
    return StateVector(amps, tuple(labels))


def density_from_state(state: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), state.labels)


def reduced_density(state: StateVector | DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Partial trace onto the subsystems in `keep` (original label order)."""
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

    if isinstance(state, StateVector):
        psi = state.amplitudes.reshape(dims)
        psi = np.moveaxis(psi, keep_idx + trace_idx, range(n_sys))
        psi = psi.reshape(keep_dim, trace_dim)
        rho = psi @ psi.conj().T
    else:
        rho_t = state.matrix.reshape(dims + dims)
        perm = keep_idx + trace_idx
        sources = perm + [n_sys + i for i in perm]
        rho_t = np.moveaxis(rho_t, sources, range(2 * n_sys))
        rho_t = rho_t.reshape(keep_dim, trace_dim, keep_dim, trace_dim)
        rho = np.einsum("iaja->ij", rho_t)

    rho = 0.5 * (rho + rho.conj().T)
    labels = tuple(state.labels[i] for i in keep_idx)
    return DensityMatrix(rho, labels)


def purity(rho: DensityMatrix) -> float:
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def von_neumann_entropy(rho: DensityMatrix, base: float = 2) -> float:
    """-sum lambda log lambda over the spectrum, with 0 log 0 := 0."""
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = np.clip(eigs.real, 0.0, None)
    eigs = eigs[eigs > EIG_CLAMP]
    if eigs.size == 0:
        return 0.0
    ent = -float(np.sum(eigs * np.log(eigs)))
    return ent / math.log(base)


def _binary_entropy(x: float, base: float) -> float:
    if math.isnan(x):
        return math.nan
    if not 0.0 <= x <= 1.0:
        if -EIG_CLAMP < x < 0.0 or 1.0 < x < 1.0 + EIG_CLAMP:
            x = min(max(x, 0.0), 1.0)
        else:
            raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    acc = 0.0
    if x > 0.0:
        acc -= x * math.log(x)
    if x < 1.0:
        acc -= (1.0 - x) * math.log(1.0 - x)
    return acc / math.log(base)


def binary_entropy(x: float, base: float = 2) -> float:
    """h(x) = -x log x - (1-x) log(1-x) in the given base.

    Elementwise over arrays, with ``math.log`` on each element; NaN gives NaN.
    """
    return per_element(_binary_entropy, x, base)


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"expected a two-qubit state, got dims {rho.dims}")


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    _require_two_qubits(rho)
    r = rho.matrix @ _SIGMA_YY @ rho.matrix.conj() @ _SIGMA_YY
    eigs = np.clip(np.linalg.eigvals(r).real, 0.0, None)
    # spectrum of rho rho~ is real non-negative up to roundoff; zero out the
    # rank-deficiency noise (observed ~1e-17 relative) so its square roots
    # cannot pollute the sum, while keeping genuinely small eigenvalues
    eigs[eigs < 1e-14 * max(1e-300, eigs.max())] = 0.0
    lams = np.sqrt(eigs)
    lams.sort()
    return max(0.0, float(lams[3] - lams[2] - lams[1] - lams[0]))


def entanglement_of_formation(rho: DensityMatrix, base: float = 2) -> float:
    """h((1 + sqrt(1 - C^2)) / 2) from the concurrence C."""
    conc = concurrence(rho)
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - conc * conc))), base)


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
    """
    _require_two_qubits(rho)
    return sum(abs(float(np.real(np.trace(rho.matrix @ term)))) for term in _WITNESS_TERMS)
