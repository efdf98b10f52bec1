"""The numerical studies: sweeps, optimizations, and bound checks.

Each routine here drives the channel dynamics over a parameter grid and
reduces the evolved states to entropic summaries.  Grid points are
independent; records are returned in grid order.  Every sweep also carries its
memoryless baseline, always evaluated at the damping-dependent channel
parameter eta(gamma) so the baseline includes damping during the transit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import admap
from .dynamics import (
    ChannelSchedule,
    apply_channel_map,
    apply_channel_to_ensemble,
    channel_superoperator,
    pi0_reset,
    run_ensemble,
    run_schedule,
)
from .infomeasures import (
    TwoUseReport,
    coherent_information,
    holevo_information,
    holevo_via_enlarged,
    mutual_information,
    per_use_holevo,
    per_use_reduction,
    von_neumann_entropy,
)
from .qlinalg import trace_norm_distance
from .states import (
    DensityMatrix,
    Ensemble,
    diagonal_product_input,
    holevo_separable_ensemble,
    purified_qubit_train,
    theta_ensemble,
)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a two-use sweep, with baselines attached."""

    schedule: ChannelSchedule
    tau: float
    mu: float
    eta: float
    report: TwoUseReport
    q_memoryless: float | None = None
    c1_memoryless: float | None = None
    identity_gap: float | None = None

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"memory parameter mu={self.mu} outside (0, 1]")


def default_tau_grid(schedule: ChannelSchedule, step: float = 0.25, span: float = 10.0) -> np.ndarray:
    """tau values tau_p + {0, step, ..., span}; resolves the small-tau knee."""
    return schedule.tau_p + np.arange(0.0, span + step / 2, step)


def _drop_oscillator(joint: DensityMatrix) -> DensityMatrix:
    return joint.ptrace([lbl for lbl in joint.layout.labels if lbl != "O"])


def _coherent_point(input_dm: DensityMatrix, s_refs_in: float, sched: ChannelSchedule):
    joint = _drop_oscillator(run_schedule(input_dm, sched))
    ci = coherent_information(joint)
    u1 = per_use_reduction(joint, 1)
    u2 = per_use_reduction(joint, 2)
    refs = [lbl for lbl in joint.layout.labels if lbl.startswith("R")]
    outs = [lbl for lbl in joint.layout.labels if lbl.startswith("Q")]
    mi = mutual_information(joint, refs, outs)
    gap = abs(mi - s_refs_in - ci.ic)
    report = TwoUseReport(
        tau=sched.tau,
        ic=ci.ic, s_exchange=ci.s_exchange, s_out=ci.s_out,
        ic_1=u1.ic, ic_2=u2.ic,
        se_1=u1.s_exchange, se_2=u2.s_exchange,
        s_out_1=u1.s_out, s_out_2=u2.s_out,
        corr_rq=u1.s_exchange + u2.s_exchange - ci.s_exchange,
    )
    return report, gap


def coherent_sweep(
    schedule_base: ChannelSchedule,
    tau_grid: Sequence[float] | None = None,
    p: float = 0.5,
    r: complex = 0.0,
) -> list[SweepRecord]:
    """Two-use coherent information against the qubit separation time.

    The input is the twice-purified product state with excited population p
    and coherence r (r = 0 is optimal in the memoryless limit).  Each
    record carries the memoryless quantum capacity Q(eta(gamma)) and the
    residual of the identity S(R':Q') - S(R) = Ic as a numerical check.
    """
    if schedule_base.n_uses != 2:
        raise ValueError("coherent_sweep reports two-use quantities; n_uses must be 2")
    if tau_grid is None:
        tau_grid = default_tau_grid(schedule_base)
    eta = admap.eta_gamma(schedule_base.gamma, schedule_base.lam, schedule_base.tau_p)
    q_mem, _ = admap.memoryless_Q(eta)
    input_dm = purified_qubit_train(p, r, 2)
    s_refs_in = von_neumann_entropy(input_dm.ptrace(["R1", "R2"]))
    records = []
    for tau in tau_grid:
        sched = replace(schedule_base, tau=float(tau))
        report, gap = _coherent_point(input_dm, s_refs_in, sched)
        records.append(
            SweepRecord(
                schedule=sched, tau=float(tau), mu=sched.memory_mu, eta=eta,
                report=report, q_memoryless=q_mem, identity_gap=gap,
            )
        )
    return records


def _holevo_point(ensemble: Ensemble, sched: ChannelSchedule):
    outs = run_ensemble(ensemble, sched)
    hi = holevo_information(outs)
    h1 = per_use_holevo(outs, 1)
    h2 = per_use_holevo(outs, 2)
    gap = abs(holevo_via_enlarged(outs) - hi.chi)
    report = TwoUseReport(
        tau=sched.tau,
        chi=hi.chi, s_out=hi.s_out, avg_s_out=hi.avg_s_out,
        chi_1=h1.chi, chi_2=h2.chi,
        s_out_1=h1.s_out, s_out_2=h2.s_out,
        avg_s_out_1=h1.avg_s_out, avg_s_out_2=h2.avg_s_out,
    )
    return report, gap


def holevo_sweep(
    schedule_base: ChannelSchedule,
    tau_grid: Sequence[float] | None = None,
    p_tilde: float = 0.5,
) -> list[SweepRecord]:
    """Two-use Holevo information of the four-codeword product ensemble.

    Each record carries the memoryless product-encoding capacity
    C1(eta(gamma)) and the residual between the two Holevo formulas
    (ensemble form vs classical-flag mutual information).
    """
    if schedule_base.n_uses != 2:
        raise ValueError("holevo_sweep reports two-use quantities; n_uses must be 2")
    if tau_grid is None:
        tau_grid = default_tau_grid(schedule_base)
    eta = admap.eta_gamma(schedule_base.gamma, schedule_base.lam, schedule_base.tau_p)
    c1_mem, _ = admap.memoryless_C1(eta)
    ensemble = holevo_separable_ensemble(p_tilde)
    records = []
    for tau in tau_grid:
        sched = replace(schedule_base, tau=float(tau))
        report, gap = _holevo_point(ensemble, sched)
        records.append(
            SweepRecord(
                schedule=sched, tau=float(tau), mu=sched.memory_mu, eta=eta,
                report=report, c1_memoryless=c1_mem, identity_gap=gap,
            )
        )
    return records


def optimize_input(
    schedule: ChannelSchedule,
    quantity: str,
    bounds: tuple[float, float] = (0.0, 1.0),
) -> tuple[float, float]:
    """Maximize Ic(p) or chi(p) of the two-use run at a fixed schedule.

    The channel map is built once (it does not depend on the input) and
    the objective is then evaluated by contraction, so the coarse grid plus
    golden-section refinement costs a single run of the schedule.
    Returns (p_opt, value at p_opt).
    """
    if quantity not in ("coherent", "holevo"):
        raise ValueError("quantity must be 'coherent' or 'holevo'")
    if schedule.n_uses != 2:
        raise ValueError("optimize_input expects a two-use schedule")
    S = channel_superoperator(schedule)
    acted = schedule.qubit_labels()

    if quantity == "coherent":

        def objective(p: float) -> float:
            joint = apply_channel_map(S, purified_qubit_train(p, 0.0, 2), acted)
            return coherent_information(joint).ic

    else:

        def objective(p: float) -> float:
            outs = apply_channel_to_ensemble(S, holevo_separable_ensemble(p))
            return holevo_information(outs).chi

    _, _, a, b = admap.golden_section_max(objective, *bounds, 0.01, 1e-5)
    x = 0.5 * (a + b)
    fx, fa = objective(x), objective(a)
    if fa >= fx - 1e-12:  # flat objectives resolve to the smaller parameter
        return float(a), fa
    return float(x), fx


@dataclass(frozen=True)
class ThetaRecord:
    tau: float
    theta: float
    chi: float
    identity_gap: float


def theta_sweep(
    schedule: ChannelSchedule,
    p_tilde: float,
    theta_grid: Sequence[float] | None = None,
    tau_list: Sequence[float] | None = None,
) -> list[ThetaRecord]:
    """Holevo information of the interpolating ensemble over theta and tau.

    One channel map per tau; all theta points are contractions.
    Records are ordered tau-major, theta-minor.
    """
    if theta_grid is None:
        theta_grid = np.arange(0.0, np.pi + 1e-12, np.pi / 64)
    if tau_list is None:
        tau_list = schedule.tau_p + np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    records = []
    for tau in tau_list:
        S = channel_superoperator(replace(schedule, tau=float(tau)))
        for theta in theta_grid:
            outs = apply_channel_to_ensemble(S, theta_ensemble(float(theta), p_tilde))
            chi = holevo_information(outs).chi
            gap = abs(holevo_via_enlarged(outs) - chi)
            records.append(ThetaRecord(float(tau), float(theta), chi, gap))
    return records


def argmax_theta(records: Sequence[ThetaRecord], tau: float) -> ThetaRecord:
    at_tau = [r for r in records if r.tau == tau]
    if not at_tau:
        raise ValueError(f"no records at tau={tau}")
    return max(at_tau, key=lambda r: r.chi)


@dataclass(frozen=True)
class DephasingPair:
    tau: float
    plain: SweepRecord
    dephased: SweepRecord


def dephasing_comparison(
    schedule: ChannelSchedule,
    kind: str,
    p: float,
    r: complex = 0.0,
    tau_grid: Sequence[float] | None = None,
) -> list[DephasingPair]:
    """Same sweep with and without oscillator dephasing between the uses.

    Dephasing the oscillator destroys the qubit-oscillator entanglement
    created by the first transit; comparing the pair isolates how much of
    the memory advantage rides on that entanglement.  ``p`` is the input
    population for kind 'coherent' and the codeword parameter for 'holevo'.
    """
    if kind not in ("coherent", "holevo"):
        raise ValueError("kind must be 'coherent' or 'holevo'")
    plain_sched = replace(schedule, dephase_between_uses=False)
    deph_sched = replace(schedule, dephase_between_uses=True)
    if kind == "coherent":
        plain = coherent_sweep(plain_sched, tau_grid, p=p, r=r)
        deph = coherent_sweep(deph_sched, tau_grid, p=p, r=r)
    else:
        plain = holevo_sweep(plain_sched, tau_grid, p_tilde=p)
        deph = holevo_sweep(deph_sched, tau_grid, p_tilde=p)
    return [DephasingPair(a.tau, a, b) for a, b in zip(plain, deph)]


@dataclass(frozen=True)
class ForgetfulnessRecord:
    n_idle: int
    lhs: float
    bound: float
    multi_block_bound: float


def forgetfulness_check(
    schedule: ChannelSchedule,
    l_grid: Sequence[int],
    p: float = 1.0,
    m_blocks: int = 2,
) -> list[ForgetfulnessRecord]:
    """Distance of the post-run qubit-oscillator state from a reset product.

    After n_uses transits plus L idle windows of length tau, the joint
    state rho'_QO should approach Tr_O[rho'] (x) |0><0| at the rate the
    oscillator forgets: the trace-norm distance is bounded by
    4 sqrt(B) exp(-L gamma tau / 2) with B = 1/(1 - exp(-gamma tau)), the
    stationary cap on the mean photon number.  The multi-block variant
    multiplies the bound by (m_blocks - 1).

    The input is the diagonal product with excited population p; the
    default p = 1 maximizes the excitation fed to the oscillator.
    """
    if schedule.gamma <= 0:
        raise ValueError(
            "forgetfulness requires damping: with gamma = 0 the mean photon "
            "bound B is undefined and the channel never forgets"
        )
    input_dm = diagonal_product_input(p, schedule.n_uses)
    b_cap = 1.0 / (1.0 - np.exp(-schedule.gamma * schedule.tau))
    records = []
    for l_idle in l_grid:
        out = run_schedule(input_dm, schedule, extra_idle_windows=int(l_idle))
        lhs = trace_norm_distance(out.op, pi0_reset(out).op)
        decay = np.exp(-l_idle * schedule.gamma * schedule.tau / 2.0)
        bound = 4.0 * np.sqrt(b_cap) * decay
        records.append(
            ForgetfulnessRecord(int(l_idle), lhs, float(bound), float((m_blocks - 1) * bound))
        )
    return records


@dataclass(frozen=True)
class BlockingBoundRecord:
    lhs_ic: float
    rhs_ic: float
    n_idle: int
    slack: float  # rhs + n_idle - lhs, nonnegative when the bound holds


def blocking_bound_check(
    schedule: ChannelSchedule, input_dm: DensityMatrix, n_coding: int = 1
) -> BlockingBoundRecord:
    """Coherent-information cost of ignoring the trailing idle uses.

    Compares the full-run coherent information against that of the blocked
    channel which codes only over the first ``n_coding`` uses (the
    remaining uses still traverse the cavity but their outputs and
    references are discarded).  Discarding L = n_uses - n_coding qubit
    outputs can cost at most L qubits of coherent information:
    lhs <= rhs + L.
    """
    if not 1 <= n_coding < schedule.n_uses:
        raise ValueError("n_coding must leave at least one idle use")
    joint = _drop_oscillator(run_schedule(input_dm, schedule))
    lhs = coherent_information(joint).ic
    keep = [f"R{k + 1}" for k in range(n_coding)] + [f"Q{k + 1}" for k in range(n_coding)]
    rhs = coherent_information(joint.ptrace(keep)).ic
    n_idle = schedule.n_uses - n_coding
    return BlockingBoundRecord(lhs, rhs, n_idle, rhs + n_idle - lhs)
