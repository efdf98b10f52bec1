"""Time evolution of the qubit train coupled to the damped oscillator.

The model: qubits enter a cavity one at a time, qubit k at time (k-1) tau,
and interact for a transit time tau_p under the resonant interaction-picture
Jaynes-Cummings coupling lam (a^dag sigma_-^(k) + a sigma_+^(k)).  The
cavity mode is damped at rate gamma by the standard zero-temperature
Lindblad dissipator at all times.  Reference qubits (or any other
spectator factors) ride along untouched.

Within a window the Lindblad generator does not depend on time, so each
window is one exact process map: the matrix exponential of its Liouvillian
(scaling and squaring of a degree-20 Taylor series).  A map is built only
on the factors its window acts on: a transit on (Qk, O), an idle window of
pure damping on O alone.  References and the other qubits are spectators,
and one einsum applies a map to a whole stack of states.  Because the
cavity starts in its ground state and the coupling conserves total
excitation number, a Fock cutoff of n_uses plus one guard level is exact;
the guard level's population is checked against 1e-10 after every use.

``ChannelSchedule.dt`` and ``idle_dt`` are kept as schedule fields, config
keys and CSV columns, but nothing steps any more: they choose no step and
do not change any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qlinalg import SpaceLayout, kron_chain, partial_trace
from .states import DensityMatrix, Ensemble

OSC_LABEL = "O"

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)  # |g><g| - |e><e|

TRACE_CHECK = 1e-9
EIG_CHECK = 1e-10
GUARD_CHECK = 1e-10


class IntegrationError(RuntimeError):
    """An evolved state violated its invariants beyond tolerance."""


def lowering_op(dim: int) -> np.ndarray:
    """Oscillator annihilation operator truncated to ``dim`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim)).astype(complex)


@dataclass(frozen=True)
class ChannelSchedule:
    """Physical parameters and timing of a run of channel uses.

    lam      : qubit-oscillator coupling (Rabi frequency of |e,0> <-> |g,1>)
    tau_p    : transit time of one qubit through the cavity
    tau      : entry-to-entry separation of consecutive qubits (tau >= tau_p)
    gamma    : oscillator damping rate (tau_d = 1/gamma)
    n_uses   : number of qubits sent
    fock_cutoff : highest Fock level kept; oscillator dimension is cutoff+1.
        Defaults to n_uses + 1 so the top level is a guard that must stay
        empty.  Must be at least n_uses (total excitation never exceeds it).
    dt       : recorded transit step, unused since every window is an exact map;
        defaults to min(tau_p, 1/gamma, 1/lam)/1000 and must be <= tau_p/100
    idle_dt  : recorded damping-only step, likewise unused; defaults to 0.005/gamma
    dephase_between_uses : if True, kill all oscillator Fock coherences after
        each use except the last
    """

    lam: float
    tau_p: float
    tau: float
    gamma: float
    n_uses: int = 2
    fock_cutoff: int | None = None
    dt: float | None = None
    idle_dt: float | None = None
    dephase_between_uses: bool = False

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("coupling lam must be positive")
        if self.tau_p <= 0:
            raise ValueError("transit time tau_p must be positive")
        if self.tau < self.tau_p:
            raise ValueError(
                f"tau={self.tau} < tau_p={self.tau_p}: qubits would overlap in the "
                "cavity (the low-rate regime requires tau >= tau_p)"
            )
        if self.gamma < 0:
            raise ValueError("damping rate gamma must be nonnegative")
        if self.n_uses < 1:
            raise ValueError("n_uses must be at least 1")
        if self.fock_cutoff is None:
            object.__setattr__(self, "fock_cutoff", self.n_uses + 1)
        if self.fock_cutoff < self.n_uses:
            raise ValueError(
                f"fock_cutoff={self.fock_cutoff} < n_uses={self.n_uses}: with the "
                "oscillator starting in |0> up to n_uses excitations can accumulate"
            )
        if self.dt is None:
            scale = min(self.tau_p, 1.0 / self.lam)
            if self.gamma > 0:
                scale = min(scale, 1.0 / self.gamma)
            object.__setattr__(self, "dt", scale / 1000.0)
        if not 0 < self.dt <= self.tau_p / 100.0:
            raise ValueError(f"dt={self.dt} must lie in (0, tau_p/100]")
        if self.idle_dt is None:
            object.__setattr__(
                self, "idle_dt", 0.005 / self.gamma if self.gamma > 0 else self.tau
            )
        if self.idle_dt <= 0:
            raise ValueError("idle_dt must be positive")

    @property
    def osc_dim(self) -> int:
        return self.fock_cutoff + 1

    @property
    def tau_d(self) -> float:
        return 1.0 / self.gamma if self.gamma > 0 else math.inf

    @property
    def memory_mu(self) -> float:
        """Memory parameter tau_d / (tau + tau_d); 0 is memoryless, 1 full memory."""
        if self.gamma == 0:
            return 1.0
        return 1.0 / (1.0 + self.gamma * self.tau)

    def qubit_labels(self) -> tuple[str, ...]:
        return tuple(f"Q{k + 1}" for k in range(self.n_uses))


def jc_hamiltonian(active_qubit: str, layout: SpaceLayout, lam: float) -> np.ndarray:
    """lam (a^dag sigma_- + a sigma_+) on (active_qubit, oscillator), identity elsewhere."""
    q_pos = layout.index(active_qubit)
    o_pos = layout.index(OSC_LABEL)
    if layout.dim_of(active_qubit) != 2:
        raise ValueError(f"active qubit {active_qubit!r} must have dimension 2")
    ops = []
    for i, (lbl, dim) in enumerate(layout.factors):
        if i == q_pos:
            ops.append(SIGMA_MINUS)
        elif i == o_pos:
            ops.append(lowering_op(dim).conj().T)
        else:
            ops.append(np.eye(dim, dtype=complex))
    term = kron_chain(ops)
    return lam * (term + term.conj().T)


def lindblad_rhs(
    rho: DensityMatrix, H: np.ndarray | None, gamma: float, layout: SpaceLayout | None = None
) -> np.ndarray:
    """Right-hand side -i[H, rho] + gamma (a rho a^dag - {a^dag a, rho}/2).

    Reference implementation built from the explicit jump operator; the
    window generator is tested against it.
    """
    layout = layout or rho.layout
    op = rho.op
    if H is not None:
        H = np.asarray(H)
        if H.shape != op.shape:
            raise ValueError(f"Hamiltonian shape {H.shape} does not match state {op.shape}")
    a_full = _jump_operator(layout)
    out = np.zeros_like(op)
    if H is not None:
        out += -1j * (H @ op - op @ H)
    if gamma:
        n_full = a_full.conj().T @ a_full
        out += gamma * (a_full @ op @ a_full.conj().T - 0.5 * (n_full @ op + op @ n_full))
    return out


def _jump_operator(layout: SpaceLayout) -> np.ndarray:
    """Oscillator lowering operator on the whole layout."""
    o_pos = layout.index(OSC_LABEL)
    return kron_chain(
        [lowering_op(dim) if i == o_pos else np.eye(dim) for i, (_, dim) in enumerate(layout.factors)]
    )


def _liouvillian(layout: SpaceLayout, H: np.ndarray | None, gamma: float) -> np.ndarray:
    """Generator of ``lindblad_rhs`` on row-major vec(rho): vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(layout.dim)
    a = _jump_operator(layout)
    n = a.conj().T @ a
    out = gamma * (np.kron(a, a.conj()) - 0.5 * np.kron(n, eye) - 0.5 * np.kron(eye, n.T))
    if H is not None:
        out = out - 1j * (np.kron(H, eye) - np.kron(eye, H.T))
    return out


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


def _window_map(
    layout: SpaceLayout, H: np.ndarray | None, gamma: float, duration: float
) -> np.ndarray:
    """Exact process map S[a, b, i, j] of one window on ``layout``.

    The window's output of ``rho`` is ``einsum('abij,ij->ab', S, rho)``.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    d = layout.dim
    return _expm(_liouvillian(layout, H, gamma) * duration).reshape(d, d, d, d)


def _apply(
    S: np.ndarray, stack: np.ndarray, layout: SpaceLayout, acted_labels: Sequence[str]
) -> np.ndarray:
    """Apply a process map to the named factors of every operator in a stack.

    ``stack`` has shape (batch, d, d) over ``layout``; ``acted_labels`` lists
    the factors in the order the map was built over.  Every other factor is
    a spectator.
    """
    dims = layout.dims
    n = len(dims)
    positions = [layout.index(lbl) for lbl in acted_labels]
    acted_dims = [dims[p] for p in positions]
    d_act = int(np.prod(acted_dims))
    if S.shape != (d_act, d_act, d_act, d_act):
        raise ValueError(f"map shape {S.shape} incompatible with acted dims {acted_dims}")
    m = len(positions)
    batch = 2 * n + 2 * m  # subscript of the leading stack axis
    rho_sub = [batch] + list(range(2 * n))
    s_sub = (
        [2 * n + k for k in range(m)]
        + [2 * n + m + k for k in range(m)]
        + [positions[k] for k in range(m)]
        + [n + positions[k] for k in range(m)]
    )
    out_sub = list(rho_sub)
    for k, p in enumerate(positions):
        out_sub[1 + p] = 2 * n + k
        out_sub[1 + n + p] = 2 * n + m + k
    rho_t = stack.reshape((len(stack),) + dims + dims)
    out = np.einsum(rho_t, rho_sub, S.reshape(tuple(acted_dims) * 4), s_sub, out_sub)
    return np.ascontiguousarray(out.reshape(stack.shape))


def _ground(osc_dim: int) -> np.ndarray:
    ground = np.zeros((osc_dim, osc_dim), dtype=complex)
    ground[0, 0] = 1.0
    return ground


def _with_oscillator(rho: DensityMatrix, osc_dim: int) -> tuple[np.ndarray, SpaceLayout]:
    if OSC_LABEL in rho.layout.labels:
        raise ValueError("input state already contains an oscillator factor")
    return np.kron(rho.op, _ground(osc_dim)), rho.layout.extended(OSC_LABEL, osc_dim)


def _guard_population(op: np.ndarray, f: int) -> float:
    diag = np.real(np.diagonal(op, axis1=-2, axis2=-1))
    return float(diag[..., f - 1 :: f].sum(axis=-1).max())


def _check_states(stack: np.ndarray, layout: SpaceLayout, schedule: ChannelSchedule, where: str):
    tr_dev = np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0).max()
    if tr_dev > TRACE_CHECK:
        raise IntegrationError(f"trace deviates by {tr_dev:.3e} {where}")
    min_eig = np.linalg.eigvalsh(stack).min()
    if min_eig < -EIG_CHECK:
        raise IntegrationError(f"negative eigenvalue {min_eig:.3e} {where}")
    if schedule.fock_cutoff > schedule.n_uses:
        guard = _guard_population(stack, layout.factors[-1][1])
        if guard > GUARD_CHECK:
            raise IntegrationError(
                f"guard Fock level holds population {guard:.3e} {where} "
                "(Fock cutoff too small)"
            )


def _dephase_stack(stack: np.ndarray, f: int) -> np.ndarray:
    stack = np.ascontiguousarray(stack)
    q = stack.shape[-1] // f
    view = stack.reshape(stack.shape[:-2] + (q, f, q, f))
    view *= np.eye(f)[None, :, None, :]
    return stack


def _run_stack(
    stack: np.ndarray,
    layout: SpaceLayout,
    schedule: ChannelSchedule,
    extra_idle_windows: int,
    check: bool,
) -> np.ndarray:
    # the oscillator is the last factor of ``layout``
    osc = SpaceLayout([layout.factors[-1]])
    idle = _window_map(osc, None, schedule.gamma, schedule.tau - schedule.tau_p)
    for k in range(schedule.n_uses):
        transit = layout.restricted_to([f"Q{k + 1}", OSC_LABEL])
        H = jc_hamiltonian(f"Q{k + 1}", transit, schedule.lam)
        S = _window_map(transit, H, schedule.gamma, schedule.tau_p)
        stack = _apply(S, stack, layout, transit.labels)
        stack = _apply(idle, stack, layout, osc.labels)
        if schedule.dephase_between_uses and k < schedule.n_uses - 1:
            stack = _dephase_stack(stack, osc.dim)
        if check:
            _check_states(stack, layout, schedule, f"after use {k + 1}")
    if extra_idle_windows:  # a whole separation tau with no qubit in the cavity
        idle = _window_map(osc, None, schedule.gamma, schedule.tau)
    for j in range(extra_idle_windows):
        stack = _apply(idle, stack, layout, osc.labels)
        if check:
            _check_states(stack, layout, schedule, f"after idle window {j + 1}")
    return stack


def run_schedule(
    rho_in: DensityMatrix, schedule: ChannelSchedule, extra_idle_windows: int = 0
) -> DensityMatrix:
    """Send the qubits of ``rho_in`` through the cavity on the given schedule.

    The input layout must contain the system qubits Q1..Qn (n = n_uses);
    any other factors (references) are spectators.  The oscillator starts
    in its ground state and is appended as the last factor of the output.
    Each use is a transit window of length tau_p followed by a damping-only
    window of length tau - tau_p; ``extra_idle_windows`` appends further
    damping-only windows of length tau each.

    Raises IntegrationError if any evolved state drifts beyond the trace,
    positivity, or guard-level tolerances.
    """
    for lbl in schedule.qubit_labels():
        if rho_in.layout.dim_of(lbl) != 2:
            raise ValueError(f"system qubit {lbl!r} must have dimension 2")
    op, layout = _with_oscillator(rho_in, schedule.osc_dim)
    stack = _run_stack(op[None], layout, schedule, extra_idle_windows, check=True)
    return DensityMatrix.trusted(stack[0], layout)


def run_ensemble(
    ensemble: Ensemble,
    schedule: ChannelSchedule,
    extra_idle_windows: int = 0,
    keep_oscillator: bool = False,
) -> Ensemble:
    """Evolve every ensemble member through the schedule (batched).

    Member weights are unchanged.  The oscillator is traced out of the
    outputs unless ``keep_oscillator`` is set.
    """
    ops_layouts = [_with_oscillator(dm, schedule.osc_dim) for _, dm in ensemble.members]
    layout = ops_layouts[0][1]
    stack = np.stack([op for op, _ in ops_layouts])
    stack = _run_stack(stack, layout, schedule, extra_idle_windows, check=True)
    out_members = []
    for (w, _), op in zip(ensemble.members, stack):
        dm = DensityMatrix.trusted(op, layout)
        if not keep_oscillator:
            dm = dm.ptrace([lbl for lbl in layout.labels if lbl != OSC_LABEL])
        out_members.append((w, dm))
    return Ensemble(tuple(out_members))


def evolve_window(
    rho: DensityMatrix, schedule: ChannelSchedule, H: np.ndarray | None, duration: float
) -> DensityMatrix:
    """Evolve ``rho`` exactly through one window of length ``duration``.

    ``H`` is the (full-space) Hamiltonian for the window, or None for a
    damping-only window; the damping rate is ``schedule.gamma``.  The map
    is the exponential of the window's Liouvillian on the whole layout of
    ``rho``, and ``schedule.dt`` is not used.  Fails with diagnostics if the
    output violates density-matrix invariants beyond 1e-8.
    """
    if OSC_LABEL not in rho.layout.labels:
        raise ValueError("evolve_window expects a state that includes the oscillator")
    S = _window_map(rho.layout, H, schedule.gamma, duration)
    out = _apply(S, rho.op[None], rho.layout, rho.layout.labels)[0]
    tr_dev = abs(out.trace() - 1.0)
    min_eig = np.linalg.eigvalsh(out).min()
    if tr_dev > 1e-8 or min_eig < -1e-8:
        raise IntegrationError(
            f"window output invalid: |tr-1|={tr_dev:.3e}, min eig={min_eig:.3e} "
            "(Fock cutoff too small?)"
        )
    return DensityMatrix.trusted(out, rho.layout)


def dephase_oscillator(rho: DensityMatrix) -> DensityMatrix:
    """Zero every matrix element off-diagonal in the oscillator Fock index."""
    layout = rho.layout
    pos = layout.index(OSC_LABEL)
    dims = layout.dims
    n = len(dims)
    f = dims[pos]
    mask_shape = [1] * (2 * n)
    mask_shape[pos] = f
    mask_shape[n + pos] = f
    mask = np.eye(f).reshape(mask_shape)
    out = (rho.op.reshape(dims + dims) * mask).reshape(rho.op.shape)
    return DensityMatrix.trusted(out, layout)


def pi0_reset(rho: DensityMatrix) -> DensityMatrix:
    """Discard qubit-oscillator correlations and reset the oscillator to |0>.

    Returns Tr_O[rho] (x) |0><0| with the oscillator as the last factor.
    """
    layout = rho.layout
    f = layout.dim_of(OSC_LABEL)
    keep = [lbl for lbl in layout.labels if lbl != OSC_LABEL]
    reduced = partial_trace(rho.op, layout, keep)
    out_layout = layout.restricted_to(keep).extended(OSC_LABEL, f)
    return DensityMatrix.trusted(np.kron(reduced, _ground(f)), out_layout)


def channel_superoperator(
    schedule: ChannelSchedule, keep_oscillator: bool = False
) -> np.ndarray:
    """Process map of the full n_uses run on the system qubits.

    Returns S with shape (d_out, d_out, d_in, d_in) where d_in = 2**n_uses,
    such that the channel output of ``rho`` is
    ``einsum('abij,ij->ab', S, rho)``.  The evolution is linear, so column
    (i, j) of S is the output of the matrix unit |i><j| (x) |0><0|; the d_in^2
    units run through the schedule as one stack.  With ``keep_oscillator``
    the output space includes the oscillator factor.
    """
    d_in, f = 2**schedule.n_uses, schedule.osc_dim
    layout = SpaceLayout([(lbl, 2) for lbl in schedule.qubit_labels()]).extended(OSC_LABEL, f)
    units = np.eye(d_in * d_in).reshape(-1, d_in, d_in)  # |i><j| at index i d_in + j
    stack = _run_stack(np.kron(units, _ground(f)), layout, schedule, 0, check=False)
    out = stack.reshape(d_in, d_in, d_in * f, d_in * f)
    if not keep_oscillator:
        out = out.reshape(d_in, d_in, d_in, f, d_in, f).trace(axis1=3, axis2=5)
    return np.ascontiguousarray(out.transpose(2, 3, 0, 1))


def apply_channel_map(
    S: np.ndarray, rho: DensityMatrix, acted_labels: Sequence[str]
) -> DensityMatrix:
    """Apply a process map to the named factors of ``rho``, identity elsewhere.

    ``acted_labels`` must list the factors in the order the map was built
    over (Q1, Q2, ...).  The map must preserve the acted dimension, so
    reference factors keep their positions and the output layout equals the
    input layout.
    """
    return DensityMatrix.trusted(_apply(S, rho.op[None], rho.layout, acted_labels)[0], rho.layout)


def apply_channel_to_ensemble(S: np.ndarray, ensemble: Ensemble) -> Ensemble:
    """Push every ensemble member through a process map with no spectators."""
    layout = ensemble.layout
    stack = _apply(S, np.stack([dm.op for _, dm in ensemble.members]), layout, layout.labels)
    return Ensemble(
        tuple((w, DensityMatrix.trusted(op, layout)) for (w, _), op in zip(ensemble.members, stack))
    )
