"""Exact two-use channel maps and entropies, independent of the program's integrator.

The correctness oracles recompute every two-use quantity with this module
and compare it to the CSV.  Nothing here calls the program: each window of
the run (two transits and two idle windows, with the oscillator dephased
between the uses when asked) is the matrix exponential of its Lindblad
generator, written out from the model in ``memchannel.dynamics``:

    d rho / dt = -i [H, rho] + gamma (a rho a^dag - {a^dag a, rho} / 2),
    H = lam (a^dag sigma_-^(k) + a sigma_+^(k)) in transit k, H = 0 when idle.

The oscillator starts in |0> and the coupling conserves excitation, so
N_USES + 1 Fock levels hold the dynamics exactly.  The program integrates
with fixed-step RK4 instead; the two agree to about 1e-12 bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

N_USES = 2
LEVELS = N_USES + 1
Q_DIM = 2**N_USES
D = Q_DIM * LEVELS  # Q1, Q2, oscillator
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|, ground state first
_LOWER = np.diag(np.sqrt(np.arange(1.0, LEVELS)), 1)
_A = np.kron(np.eye(Q_DIM), _LOWER)  # oscillator lowering operator on the full space
_START = [i * LEVELS for i in range(Q_DIM)]  # Q basis state i with the oscillator in |0>
# Liouville-space mask that zeroes oscillator coherences |m><n|, m != n
_DEPHASE = (np.arange(D)[:, None] % LEVELS == np.arange(D)[None, :] % LEVELS).ravel()


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring a degree-20 Taylor series."""
    norm = np.abs(m).sum(axis=0).max()
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    a = m / 2.0**s
    out = np.eye(len(m), dtype=complex)
    term = out
    for k in range(1, 21):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def liouvillian(H: np.ndarray | None, gamma: float) -> np.ndarray:
    """Generator acting on row-major vec(rho): vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(D)
    n = _A.T @ _A
    out = gamma * (np.kron(_A, _A) - 0.5 * np.kron(n, eye) - 0.5 * np.kron(eye, n))
    if H is not None:
        out = out - 1j * (np.kron(H, eye) - np.kron(eye, H.T))
    return out


def transit_hamiltonian(k: int, lam: float) -> np.ndarray:
    """lam (a^dag sigma_- + h.c.) with qubit k (0-based) in the cavity."""
    qubits = [SIGMA_MINUS if j == k else np.eye(2) for j in range(N_USES)]
    term = np.kron(np.kron(qubits[0], qubits[1]), _LOWER.T)
    return lam * (term + term.T)


@functools.lru_cache(maxsize=16)
def _transit(k: int, lam: float, gamma: float, tau_p: float) -> np.ndarray:
    """Propagator of transit window k; every tau of a request shares it."""
    return _expm(liouvillian(transit_hamiltonian(k, lam), gamma) * tau_p)


def channel(lam: float, gamma: float, tau_p: float, tau: float,
            dephase: bool = False) -> np.ndarray:
    """Process map T[a, b, i, j] of the two-use run on Q1 Q2.

    The output of ``rho`` is ``einsum('abij,ij->ab', T, rho)``.
    """
    idle = _expm(liouvillian(None, gamma) * (tau - tau_p))
    prop = np.eye(D * D, dtype=complex)
    for k in range(N_USES):
        prop = _transit(k, lam, gamma, tau_p) @ prop
        prop = idle @ prop
        if dephase and k < N_USES - 1:
            prop = prop * _DEPHASE[:, None]
    T = np.empty((Q_DIM, Q_DIM, Q_DIM, Q_DIM), dtype=complex)
    for i, ri in enumerate(_START):
        for j, cj in enumerate(_START):
            out = prop[:, ri * D + cj].reshape(Q_DIM, LEVELS, Q_DIM, LEVELS)
            T[:, :, i, j] = np.einsum("aobo->ab", out)
    return T


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits."""
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log2(vals)).sum())


def coherent_info(T: np.ndarray, p: float) -> float:
    """Ic = S(Q') - S(R Q') of two purified inputs diag(1 - p, p)."""
    pure = np.diag([math.sqrt(1.0 - p), math.sqrt(p)])  # amplitudes [r, q] of one use
    psi = np.einsum("ac,bd->abcd", pure, pure).reshape(Q_DIM, Q_DIM)  # [R1 R2, Q1 Q2]
    joint = np.einsum("abij,ri,sj->rasb", T, psi, psi.conj()).reshape(Q_DIM**2, Q_DIM**2)
    out = np.einsum("abij,ri,rj->ab", T, psi, psi.conj())
    return entropy(out) - entropy(joint)


def codewords(p_tilde: float) -> tuple[np.ndarray, np.ndarray]:
    a, b = math.sqrt(1.0 - p_tilde), math.sqrt(p_tilde)
    return np.array([a, b]), np.array([a, -b])


def product_ensemble(p_tilde: float) -> list[np.ndarray]:
    psi0, psi1 = codewords(p_tilde)
    return [np.kron(x, y) for x in (psi0, psi1) for y in (psi0, psi1)]


def holevo_info(T: np.ndarray, kets: list[np.ndarray]) -> float:
    """chi of equiprobable pure codewords sent through T."""
    outs = [np.einsum("abij,i,j->ab", T, k, k.conj()) for k in kets]
    return entropy(sum(outs) / len(outs)) - sum(entropy(o) for o in outs) / len(outs)
