"""Closed forms for the memoryless single-use channel.

A single transit of duration tau_p through the damped cavity (cavity
starting in its ground state) acts on the qubit as an amplitude-damping
channel.  With coupling lam and cavity decay rate gamma the excited-state
amplitude is multiplied by

    h = exp(-gamma tau_p / 4) [ (gamma/z) sinh(z tau_p / 4) + cosh(z tau_p / 4) ],
    z = sqrt(gamma^2 - 16 lam^2),

so the channel parameter is eta = h^2.  For gamma < 4 lam the square root
is imaginary and the bracket becomes (gamma/|z|) sin + cos; both branches
are evaluated in real arithmetic, with a series limit at the branch point.
The undamped limit is h = cos(lam tau_p).

Also provided: the quantum capacity Q and the product-encoding classical
capacity C1 of the amplitude-damping channel (single-letter formulas,
valid because the channel is degradable), and the resulting analytic
single-use map used as an oracle for the exact window maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qlinalg import SpaceLayout
from .states import DensityMatrix

_BRANCH_EPS = 1e-6  # |z| below this (in units of lam) uses the z->0 series


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x), with 0 log 0 = 0."""
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    out = 0.0
    if x > 0.0:
        out -= x * np.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * np.log2(1.0 - x)
    return out


def transit_amplitude(gamma: float, lam: float, tau_p: float) -> float:
    """Amplitude retained by |e> across one transit of the damped cavity."""
    if lam <= 0 or tau_p <= 0:
        raise ValueError("lam and tau_p must be positive")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0.0:
        return float(np.cos(lam * tau_p))
    z_sq = gamma * gamma - 16.0 * lam * lam
    x = tau_p / 4.0
    if abs(z_sq) < (_BRANCH_EPS * lam) ** 2:
        bracket = gamma * x + 1.0  # limit of (gamma/z) sinh(z x) + cosh(z x)
        return float(np.exp(-gamma * x) * bracket)
    if z_sq > 0.0:
        # overdamped branch: fold the exp(-gamma x) prefactor into the
        # exponentials so sinh cannot overflow; z - gamma computed without
        # cancellation as -16 lam^2 / (z + gamma) <= 0
        z = np.sqrt(z_sq)
        z_minus_gamma = -16.0 * lam * lam / (z + gamma)
        return float(
            ((gamma + z) / (2.0 * z)) * np.exp(z_minus_gamma * x)
            - ((gamma - z) / (2.0 * z)) * np.exp(-(z + gamma) * x)
        )
    w = np.sqrt(-z_sq)
    bracket = (gamma / w) * np.sin(w * x) + np.cos(w * x)
    return float(np.exp(-gamma * x) * bracket)


def eta_gamma(gamma: float, lam: float, tau_p: float) -> float:
    """Damping-dependent channel parameter eta = h^2 of one transit."""
    eta = transit_amplitude(gamma, lam, tau_p) ** 2
    if eta > 1.0 and eta < 1.0 + 1e-12:
        eta = 1.0
    return float(eta)


def eta_weak_damping(gamma: float, lam: float, tau_p: float) -> float:
    """First order of eta in gamma/lam around the undamped value.

    eta(0) + (gamma / 4 lam) [sin(2 lam tau_p) - 2 lam tau_p cos^2(lam tau_p)].
    The bracket's sign decides whether weak damping helps or hurts; for
    lam tau_p << 1 it is positive (small damping improves the channel).
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    x = lam * tau_p
    eta0 = np.cos(x) ** 2
    correction = (gamma / (4.0 * lam)) * (np.sin(2.0 * x) - 2.0 * x * np.cos(x) ** 2)
    return float(eta0 + correction)


@dataclass(frozen=True)
class AmplitudeDampingChannel:
    """Qubit relaxation channel with retention parameter eta in [0, 1]."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")

    def kraus_ops(self) -> tuple[np.ndarray, np.ndarray]:
        e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(self.eta)]], dtype=complex)
        e1 = np.array([[0.0, np.sqrt(1.0 - self.eta)], [0.0, 0.0]], dtype=complex)
        completeness = e0.conj().T @ e0 + e1.conj().T @ e1
        assert np.abs(completeness - np.eye(2)).max() < 1e-14
        return e0, e1


def apply_ad_channel(channel: AmplitudeDampingChannel, rho: DensityMatrix) -> DensityMatrix:
    """Amplitude-damp a single-qubit state: [[1-p eta, r sqrt(eta)], [..., p eta]]."""
    if rho.dim != 2:
        raise ValueError("apply_ad_channel expects a single-qubit state")
    eta = channel.eta
    p = rho.op[1, 1].real
    r = rho.op[0, 1]
    out = np.array(
        [[1.0 - p * eta, r * np.sqrt(eta)], [np.conj(r) * np.sqrt(eta), p * eta]],
        dtype=complex,
    )
    return DensityMatrix(out, rho.layout)


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, coarse: float, xtol: float
) -> tuple[float, float, float, float]:
    """Coarse grid on [lo, hi], then golden section around its best point.

    Unimodality of the objectives is not guaranteed a priori, so the grid
    brackets the global maximum before refining.  Returns the best grid
    point, its value and the final bracket (a, b) with b - a <= xtol;
    callers pick the answer from these by their own tie rule.
    """
    grid = np.arange(lo, hi + coarse / 2, coarse)
    vals = np.array([f(x) for x in grid])
    i = int(np.argmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return grid[i], vals[i], a, b


def _maximize_on_unit_interval(
    f: Callable[[float], float], coarse_step: float, xtol: float
) -> tuple[float, float]:
    p_grid, v_grid, a, b = golden_section_max(f, 0.0, 1.0, coarse_step, xtol)
    x = 0.5 * (a + b)
    v = f(x)
    if v < v_grid:  # refinement never beats the grid point it brackets
        return float(p_grid), float(v_grid)
    return float(x), float(v)


def coherent_info_diagonal(p: float, eta: float) -> float:
    """Single-use coherent information of the diagonal input diag(1-p, p)."""
    return binary_entropy(eta * p) - binary_entropy((1.0 - eta) * p)


def holevo_info_binary(p: float, eta: float) -> float:
    """Single-use Holevo information of the two-codeword +/- ensemble at p."""
    root = np.sqrt(max(1.0 - 4.0 * eta * (1.0 - eta) * p * p, 0.0))
    return binary_entropy(eta * p) - binary_entropy((1.0 + root) / 2.0)


def memoryless_Q(eta: float) -> tuple[float, float]:
    """Quantum capacity of the amplitude-damping channel and its maximizer.

    Q = max_p [H2(eta p) - H2((1-eta) p)] for eta > 1/2, zero otherwise
    (for eta <= 1/2 the environment receives at least as much as the
    output and no quantum information goes through).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    if eta <= 0.5:
        return 0.0, 0.0
    p, q = _maximize_on_unit_interval(lambda x: coherent_info_diagonal(x, eta), 1e-3, 1e-8)
    return q, p


def memoryless_C1(eta: float) -> tuple[float, float]:
    """Product-encoding classical capacity C1 and its maximizer p."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    p, c = _maximize_on_unit_interval(lambda x: holevo_info_binary(x, eta), 1e-3, 1e-8)
    return c, p


def analytic_single_use(
    rho_in: DensityMatrix, gamma: float, lam: float, tau_p: float
) -> DensityMatrix:
    """Closed-form single-transit output [[1 - p h^2, r h], [r* h, p h^2]].

    This is the exact solution of the damped Jaynes-Cummings master
    equation restricted to the one-excitation subspace, and serves as an
    independent oracle for the exact window maps of ``dynamics``.
    """
    if rho_in.dim != 2:
        raise ValueError("analytic_single_use expects a single-qubit state")
    h = transit_amplitude(gamma, lam, tau_p)
    p = rho_in.op[1, 1].real
    r = rho_in.op[0, 1]
    out = np.array(
        [[1.0 - p * h * h, r * h], [np.conj(r) * h, p * h * h]], dtype=complex
    )
    return DensityMatrix(out, rho_in.layout)


def ground_state_qubit() -> DensityMatrix:
    return DensityMatrix(np.diag([1.0, 0.0]).astype(complex), SpaceLayout([("Q1", 2)]))


def _self_check() -> None:
    # eta must equal the squared transit amplitude on both branches and at
    # the branch point; run once at import
    for gamma, lam, tau_p in [(0.05, 1.0, 0.225), (0.5, 1.0, 0.464), (5.0, 1.0, 0.3), (4.0, 1.0, 0.2)]:
        eta = eta_gamma(gamma, lam, tau_p)
        h = transit_amplitude(gamma, lam, tau_p)
        assert abs(eta - h * h) < 1e-14, (gamma, lam, tau_p)


_self_check()
