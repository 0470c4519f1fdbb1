"""Equivalence-principle test theory for the frame-dragging coupling.

The test theory gives the frame-dragging coupling its own internal
Hamiltonian H_f, generally non-commuting with the Newtonian-sector
Hamiltonian H_N.  With the clock prepared in an H_N eigenstate whose
decomposition in the H_f eigenbasis is cos(theta)|g'> + e^{i varphi}
sin(theta)|e'>, the interferometer closed forms become

    V      = sqrt(1 - sin^2(2 theta) sin^2(dE' delta_tau / hbar))
    xi*dt  = -arg(cos psi + i cos(2 theta) sin psi),  psi = dE' delta_tau / hbar
    Pr(L') = (1 + V cos(Ebar' delta_tau / hbar + xi delta_tau)) / 2

with the xi branch chosen continuous in delta_tau (xi -> -cos(2 theta) dE'/hbar
as delta_tau -> 0).  The same doubled-branch phase convention as
:mod:`gravclock.interferometry` is used so closed forms and state-vector
constructions agree identically; at theta = 0 every output reduces to the
equal-Hamiltonian interferometer with the clock frozen at its occupied
branch energy.

All matrices are stored in the H_N eigenbasis (ground state first).

Every route broadcasts over a theory whose energies and angles are numpy
arrays, with ``H_N`` one 2x2 matrix or a stack of them: the closed forms
(:func:`qep_visibility`, :func:`xi_phase`, :func:`qep_probabilities`,
:func:`qep_gme_entanglement`) give arrays, and the matrix routes (H_f, the
arm states, the final state, the evolutions and the commutator diagnostic)
give stacks with the batch axes leading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import clockstate as cs
from .constants import CODATA, PhysicalConstants
from .errors import DomainError, require_finite
from .interferometry import _gme_state
from .logdomain import per_element, squared

COMMUTATOR_WARN_THRESHOLD = 0.1


def _divide(a: float, b: complex) -> complex:
    # Python's complex division; numpy's multiplies by 1/denominator and rounds differently
    return float(a) / complex(b)


def _spectral_norm(m: np.ndarray) -> np.ndarray:
    return np.linalg.norm(m, 2, axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class QepTestTheory:
    """Newtonian-sector Hamiltonian plus a mixed frame-dragging sector.

    ``H_N`` is any 2x2 Hermitian matrix (joules); its eigenbasis, ground
    state first, is the storage basis.  ``E_g_prime``/``E_e_prime`` are the
    frame-dragging eigenvalues and ``theta``/``varphi`` fix how the H_N
    ground state decomposes over the primed eigenbasis.
    """

    H_N: np.ndarray
    E_g_prime: float
    E_e_prime: float
    theta: float
    varphi: float = 0.0
    initial_state: str = "ground"

    def __post_init__(self) -> None:
        h_n = np.asarray(self.H_N, dtype=complex)
        if h_n.ndim < 2 or h_n.shape[-2:] != (2, 2):
            raise DomainError("H_N must be a 2x2 matrix")
        scale = np.maximum(1.0, np.abs(h_n).max(axis=(-2, -1)))
        asymmetry = np.abs(h_n - np.swapaxes(h_n.conj(), -2, -1)).max(axis=(-2, -1))
        if not np.all(asymmetry <= 1e-12 * scale):  # NaN fails the comparison too
            raise DomainError("H_N must be finite and Hermitian")
        for name in ("E_g_prime", "E_e_prime", "varphi"):
            require_finite(name, getattr(self, name))
        if not np.all((0.0 <= self.theta) & (self.theta <= 0.5 * math.pi)):
            raise DomainError("theta must lie in [0, pi/2]")
        if self.initial_state not in ("ground", "excited"):
            raise DomainError("initial_state must be 'ground' or 'excited'")
        # rotate H_N to its own eigenbasis (ascending => ground first)
        eigvals = np.linalg.eigh(h_n)[0]
        diagonal = np.zeros(h_n.shape, dtype=complex)
        diagonal[..., 0, 0] = eigvals[..., 0]
        diagonal[..., 1, 1] = eigvals[..., 1]
        object.__setattr__(self, "H_N", diagonal)

    @cached_property
    def commutator_ratio(self) -> float:
        """Dimensionless smallness diagnostic ||[H_N, H_f]|| / (||H_N|| ||H_f||).

        Raises :class:`DomainError`, naming both sets of energies, when
        max|H_N| * max|H_f| overflows: the products in the commutator would
        too, and the diagnostic would then be NaN, or 0 for no reason.
        """
        h_f = self.h_f_matrix()
        with np.errstate(over="ignore"):
            bound = np.abs(self.H_N).max(axis=(-2, -1)) * np.abs(h_f).max(axis=(-2, -1))
        bad = ~np.isfinite(bound)
        if bad.any():
            i = np.unravel_index(int(np.argmax(bad)), bad.shape)
            e_n = np.broadcast_to(self.H_N, bad.shape + (2, 2))[i].diagonal().real
            e_g, e_e = (float(np.broadcast_to(e, bad.shape)[i]) for e in (self.E_g_prime, self.E_e_prime))
            raise DomainError(
                f"H_N energies ({e_n[0]:.6g}, {e_n[1]:.6g}) J times primed energies "
                f"({e_g:.6g}, {e_e:.6g}) J overflow the commutator diagnostic"
            )
        comm = self.H_N @ h_f - h_f @ self.H_N
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # as float arithmetic did
            scale = _spectral_norm(self.H_N) * _spectral_norm(h_f)
            ratio = _spectral_norm(comm) / scale
        return np.where(scale > 0, ratio, 0.0)[()]

    @property
    def gap_prime(self) -> float:
        return self.E_e_prime - self.E_g_prime

    @property
    def mean_prime(self) -> float:
        return 0.5 * (self.E_g_prime + self.E_e_prime)

    @property
    def commutator_warning(self) -> bool:
        return self.commutator_ratio > COMMUTATOR_WARN_THRESHOLD

    def primed_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Kets |g'>, |e'> in the H_N eigenbasis, of shape (..., 2)."""
        ct = np.asarray(np.cos(self.theta), dtype=complex)
        st = np.sin(self.theta)
        phase = np.exp(1j * np.asarray(self.varphi, dtype=float))
        e_first = per_element(_divide, st, phase, dtype=complex)  # sin(theta) e^{-i varphi}
        g_prime = np.stack(np.broadcast_arrays(ct, -phase * st), axis=-1)
        e_prime = np.stack(np.broadcast_arrays(e_first, ct), axis=-1)
        return g_prime, e_prime

    def h_f_matrix(self) -> np.ndarray:
        g_p, e_p = self.primed_basis()
        e_g = np.asarray(self.E_g_prime)[..., None, None]
        e_e = np.asarray(self.E_e_prime)[..., None, None]
        return e_g * cs._outer(g_p, g_p.conj()) + e_e * cs._outer(e_p, e_p.conj())

    def initial_ket(self) -> np.ndarray:
        return np.array([1.0, 0.0] if self.initial_state == "ground" else [0.0, 1.0], dtype=complex)

    def cos2alpha(self) -> float:
        """cos(2 alpha) for the primed-basis weights of the initial state."""
        c2 = np.cos(2.0 * self.theta)
        return c2 if self.initial_state == "ground" else -c2


@dataclass(frozen=True)
class QepResult:
    visibility: float
    xi_delta_tau: float
    xi: float
    pr_left: float = math.nan
    pr_right: float = math.nan
    ee_spc: float = math.nan
    ef_sp: float = math.nan


def _exp_hermitian(h: np.ndarray, factor: complex) -> np.ndarray:
    """exp(factor * h) for Hermitian h via its spectral decomposition.

    ``h`` may be a stack of shape (..., n, n) and ``factor`` an array over its
    batch axes.
    """
    eigvals, eigvecs = np.linalg.eigh(h)
    weights = np.exp(np.asarray(factor)[..., None] * eigvals)
    return (eigvecs * weights[..., None, :]) @ np.swapaxes(eigvecs.conj(), -2, -1)


def qep_relative_evolution(
    tt: QepTestTheory, delta_tau: float, constants: PhysicalConstants = CODATA
) -> np.ndarray:
    """exp(H_f delta_tau / i hbar) in the H_N eigenbasis."""
    return _exp_hermitian(tt.h_f_matrix(), 1j * (-delta_tau / constants.hbar))


def _doubled_h_f(tt: QepTestTheory) -> np.ndarray:
    # branch energies Ebar' -+ dE' about the mean: closed-form convention
    h_f = tt.h_f_matrix()
    mean = np.asarray(tt.mean_prime)[..., None, None]
    eye = np.eye(2, dtype=complex)
    return mean * eye + 2.0 * (h_f - mean * eye)


def qep_arm_states(
    tt: QepTestTheory, delta_tau: float, constants: PhysicalConstants = CODATA
) -> tuple[np.ndarray, np.ndarray]:
    """Clock states |chi_1>, |chi_2> after traversing the two arms, of shape (..., 2)."""
    h_eff = _doubled_h_f(tt)
    chi0 = tt.initial_ket()
    u1 = _exp_hermitian(h_eff, 1j * (0.5 * delta_tau / constants.hbar))
    u2 = _exp_hermitian(h_eff, 1j * (-0.5 * delta_tau / constants.hbar))
    return u1 @ chi0, u2 @ chi0


def _continuous_arctan(cos2alpha: float, psi: float) -> float:
    """Unwrapped arg(cos psi + i cos2alpha sin psi), continuous in psi."""
    k = np.rint(psi / math.pi)
    rem = psi - k * math.pi
    # np.arctan2 rounds differently from math.atan2 on a few % of inputs
    return k * math.pi + per_element(math.atan2, cos2alpha * np.sin(rem), np.cos(rem))


def qep_visibility(
    tt: QepTestTheory, delta_tau: float, constants: PhysicalConstants = CODATA
) -> tuple[float, float]:
    """(visibility, xi) of the test theory; xi in rad/s, 0 at delta_tau = 0.

    The defining relation tan(xi delta_tau) = -cos(2 theta) tan(dE'
    delta_tau / hbar) only fixes xi up to branch; the branch returned is the
    one continuous in delta_tau, which at the points where the visibility
    vanishes (theta = pi/4, psi an odd multiple of pi/2) degenerates to a
    step.  The product V cos((Ebar' + xi) delta_tau / hbar) that enters every
    observable stays continuous through those points.
    """
    psi = tt.gap_prime * delta_tau / constants.hbar
    s2 = np.sin(2.0 * tt.theta)
    vis = np.sqrt(np.maximum(0.0, 1.0 - s2 * s2 * squared(np.sin(psi))))
    xi_dtau = -_continuous_arctan(tt.cos2alpha(), psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(xi_dtau, delta_tau)
    xi = np.where(delta_tau != 0.0, ratio, -tt.cos2alpha() * tt.gap_prime / constants.hbar)[()]
    return vis, xi


def xi_phase(tt: QepTestTheory, delta_tau: float, constants: PhysicalConstants = CODATA) -> float:
    """The phase offset xi * delta_tau (radians) on the continuous branch."""
    psi = tt.gap_prime * delta_tau / constants.hbar
    return -_continuous_arctan(tt.cos2alpha(), psi)


def _mean_energy(tt: QepTestTheory, mean_energy: float | None) -> float:
    return tt.mean_prime if mean_energy is None else mean_energy


def qep_final_state(
    tt: QepTestTheory,
    mean_energy: float | None,
    delta_tau: float,
    constants: PhysicalConstants = CODATA,
) -> cs.StateVector:
    """Source (x) path (x) clock state of the GME sequence under the test theory.

    A stacked theory gives a stack of states.
    """
    chi1, chi2 = qep_arm_states(tt, delta_tau, constants)
    shift = _mean_energy(tt, mean_energy) - tt.mean_prime
    if np.any(shift != 0.0):
        # an overridden mean shifts both primed levels, leaving the gap alone
        angle = 0.5 * shift * delta_tau / constants.hbar
        chi1 = np.exp(1j * np.asarray(angle))[..., None] * chi1
        chi2 = np.exp(1j * -np.asarray(angle))[..., None] * chi2
    return _gme_state(chi1, chi2)


def _probabilities_and_phase(
    tt: QepTestTheory,
    mean_energy: float | None,
    delta_tau: float,
    constants: PhysicalConstants,
) -> tuple[QepResult, float]:
    """Closed-form probabilities and the phase (Ebar' + xi) delta_tau / hbar."""
    vis, xi = qep_visibility(tt, delta_tau, constants)
    xi_dtau = xi_phase(tt, delta_tau, constants)
    phase = _mean_energy(tt, mean_energy) * delta_tau / constants.hbar + xi_dtau
    pr_left = 0.5 * (1.0 + vis * np.cos(phase))
    res = QepResult(
        visibility=vis, xi_delta_tau=xi_dtau, xi=xi, pr_left=pr_left, pr_right=1.0 - pr_left
    )
    return res, phase


def qep_probabilities(
    tt: QepTestTheory,
    mean_energy: float | None,
    delta_tau: float,
    constants: PhysicalConstants = CODATA,
) -> QepResult:
    """Closed-form detection probabilities of the test theory.

    ``mean_energy`` overrides the mean of the primed eigenvalues (shifting
    both levels, preserving the gap); pass None to use the H_f mean.
    """
    return _probabilities_and_phase(tt, mean_energy, delta_tau, constants)[0]


def qep_gme_entanglement(
    tt: QepTestTheory,
    mean_energy: float | None,
    delta_tau: float,
    constants: PhysicalConstants = CODATA,
    base: float = 2,
) -> QepResult:
    """Closed-form probabilities and entanglement of the GME state under the
    test theory; :func:`qep_final_state` is the state-vector reference."""
    res, phase = _probabilities_and_phase(tt, mean_energy, delta_tau, constants)
    ee = cs.binary_entropy(res.pr_left, base)
    ef_arg = 1.0 - squared(res.visibility * np.sin(phase))
    ef = cs.binary_entropy(0.5 * (1.0 + np.sqrt(np.maximum(0.0, ef_arg))), base)
    return replace(res, ee_spc=ee, ef_sp=ef)


def qep_phase_accumulation(
    tt: QepTestTheory,
    newtonian_integral: float,
    framedrag_integral: float,
    constants: PhysicalConstants = CODATA,
) -> np.ndarray:
    """Phase operator exp((-H_N I_N + H_f I_f) / i hbar) of one traversal.

    ``newtonian_integral`` is int (1 - v^2/2c^2 + Phi/c^2 - Phi^2/c^4) dt and
    ``framedrag_integral`` is int sum_i g_0i / (c g_00) dx^i, both in seconds.
    Valid under the small-commutator factorization the test theory assumes;
    the commutator diagnostic on ``tt`` flags when that is doubtful.
    """
    generator = -tt.H_N * newtonian_integral + tt.h_f_matrix() * framedrag_integral
    return _exp_hermitian(generator, -1j / constants.hbar)
