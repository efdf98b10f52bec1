import numpy as np
import pytest

from memchannel.admap import coherent_info_diagonal, eta_gamma, transit_amplitude
from memchannel.dynamics import (
    ChannelSchedule,
    apply_channel_map,
    channel_superoperator,
    dephase_oscillator,
    evolve_window,
    jc_hamiltonian,
    lindblad_rhs,
    lowering_op,
    number_op,
    pi0_reset,
    run_ensemble,
    run_schedule,
)
from memchannel.infomeasures import coherent_information, von_neumann_entropy
from memchannel.qlinalg import SpaceLayout, kron_chain, trace_norm_distance
from memchannel.states import (
    DensityMatrix,
    Ensemble,
    holevo_separable_ensemble,
    purified_qubit_train,
    purify,
    single_qubit_input,
)


def random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def total_excitation(layout: SpaceLayout) -> np.ndarray:
    """sum_k sigma_+ sigma_-^(k) + a^dag a over the system qubits and oscillator."""
    total = np.zeros((layout.dim, layout.dim), dtype=complex)
    for lbl, dim in layout.factors:
        if lbl.startswith("Q"):
            op = np.diag([0.0, 1.0]).astype(complex)
        elif lbl == "O":
            op = number_op(dim)
        else:
            continue
        total += kron_chain(
            [op if l2 == lbl else np.eye(d2, dtype=complex) for l2, d2 in layout.factors]
        )
    return total


def expect(op, rho):
    return float(np.trace(op @ rho).real)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_defaults():
    s = ChannelSchedule(lam=1.0, tau_p=0.464, tau=1.0, gamma=0.5)
    assert s.n_uses == 2
    assert s.fock_cutoff == 3  # one guard level above the excitation count
    assert s.osc_dim == 4
    assert s.dt == pytest.approx(0.464 / 1000)
    assert s.idle_dt == pytest.approx(0.01)
    assert s.memory_mu == pytest.approx(1.0 / 1.5)
    assert 0 < s.memory_mu < 1


def test_schedule_validation():
    with pytest.raises(ValueError, match="tau >= tau_p"):
        ChannelSchedule(lam=1.0, tau_p=0.5, tau=0.4, gamma=0.1)
    with pytest.raises(ValueError, match="fock_cutoff"):
        ChannelSchedule(lam=1.0, tau_p=0.5, tau=0.5, gamma=0.1, fock_cutoff=1)
    with pytest.raises(ValueError, match="dt"):
        ChannelSchedule(lam=1.0, tau_p=0.5, tau=0.5, gamma=0.1, dt=0.1)
    with pytest.raises(ValueError, match="positive"):
        ChannelSchedule(lam=-1.0, tau_p=0.5, tau=0.5, gamma=0.1)


# ---------------------------------------------------------------------------
# operators and right-hand side
# ---------------------------------------------------------------------------


def test_jc_matrix_element():
    lay = SpaceLayout([("Q1", 2), ("O", 3)])
    lam = 1.3
    H = jc_hamiltonian("Q1", lay, lam)
    ket_e0 = np.kron([0, 1], [1, 0, 0])
    ket_g1 = np.kron([1, 0], [0, 1, 0])
    assert abs(ket_g1 @ H @ ket_e0 - lam) < 1e-14
    ket_g0 = np.kron([1, 0], [1, 0, 0])
    assert np.abs(H @ ket_g0).max() == 0.0
    assert np.abs(H - H.conj().T).max() == 0.0


def test_jc_conserves_excitation():
    lay = SpaceLayout([("R1", 2), ("Q1", 2), ("Q2", 2), ("O", 4)])
    H = jc_hamiltonian("Q2", lay, 0.7)
    N = total_excitation(lay)
    assert np.abs(H @ N - N @ H).max() < 1e-12


def test_jc_unknown_label():
    lay = SpaceLayout([("Q1", 2), ("O", 3)])
    with pytest.raises(ValueError, match="Q9"):
        jc_hamiltonian("Q9", lay, 1.0)


def test_lindblad_rhs_stationary_ground():
    lay = SpaceLayout([("Q1", 2), ("O", 3)])
    ground = np.zeros((6, 6), dtype=complex)
    ground[0, 0] = 1.0
    rho = DensityMatrix(ground, lay)
    H = jc_hamiltonian("Q1", lay, 1.0)
    assert np.abs(lindblad_rhs(rho, H, 0.8)).max() < 1e-14


def test_lindblad_rhs_pure_decay():
    lay = SpaceLayout([("O", 2)])
    rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), lay)
    out = lindblad_rhs(rho, None, 0.8)
    assert np.abs(out - 0.8 * np.diag([1.0, -1.0])).max() < 1e-14


def test_lindblad_rhs_traceless():
    rng = np.random.default_rng(31)
    lay = SpaceLayout([("Q1", 2), ("O", 3)])
    rho = DensityMatrix(random_state(rng, 6), lay)
    H = jc_hamiltonian("Q1", lay, 1.0)
    assert abs(np.trace(lindblad_rhs(rho, H, 0.8))) < 1e-14


def test_liouvillian_matches_lindblad_rhs():
    # the window generator against the explicit jump-operator form
    from memchannel.dynamics import _liouvillian

    rng = np.random.default_rng(32)
    lay = SpaceLayout([("Q1", 2), ("Q2", 2), ("O", 4)])
    rho = DensityMatrix(random_state(rng, 16), lay)
    for H in (jc_hamiltonian("Q1", lay, 1.1), None):  # transit and idle forms
        out = (_liouvillian(lay, H, 0.6) @ rho.op.ravel()).reshape(16, 16)
        assert np.abs(out - lindblad_rhs(rho, H, 0.6)).max() < 1e-12


def rk4_on_rhs(rho, H, gamma, duration, steps):
    """Fixed-step classical Runge-Kutta on lindblad_rhs: an oracle with no matrix exponential."""
    def f(x):
        return lindblad_rhs(DensityMatrix.trusted(x, rho.layout), H, gamma)

    h = duration / steps
    x = rho.op
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def test_rabi_oscillation_undamped():
    lam, tau_p = 1.0, 0.225
    sched = ChannelSchedule(lam=lam, tau_p=tau_p, tau=tau_p, gamma=0.0, n_uses=1)
    lay = SpaceLayout([("Q1", 2), ("O", sched.osc_dim)])
    ket = np.kron([0, 1], [1] + [0] * (sched.osc_dim - 1))
    rho = DensityMatrix(np.outer(ket, ket).astype(complex), lay)
    H = jc_hamiltonian("Q1", lay, lam)
    out = evolve_window(rho, sched, H, tau_p)
    pop = (ket @ out.op @ ket).real
    assert abs(pop - np.cos(lam * tau_p) ** 2) < 1e-10


def test_evolve_window_zero_duration():
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=0.5, gamma=0.5, n_uses=1)
    lay = SpaceLayout([("Q1", 2), ("O", sched.osc_dim)])
    rng = np.random.default_rng(33)
    rho = DensityMatrix(random_state(rng, lay.dim), lay)
    out = evolve_window(rho, sched, None, 0.0)
    assert np.array_equal(out.op, rho.op)


def test_evolve_window_matches_rk4():
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=1.0, gamma=0.5, n_uses=1)
    lay = SpaceLayout([("Q1", 2), ("O", sched.osc_dim)])
    rho = DensityMatrix(random_state(np.random.default_rng(38), lay.dim), lay)
    H = jc_hamiltonian("Q1", lay, sched.lam)
    for window_H, duration in ((H, sched.tau_p), (None, sched.tau - sched.tau_p)):
        exact = evolve_window(rho, sched, window_H, duration).op
        stepped = rk4_on_rhs(rho, window_H, sched.gamma, duration, 1000)
        assert np.abs(exact - stepped).max() < 1e-12


def test_single_use_matches_analytic_map():
    gamma, lam, tau_p = 0.5, 1.0, 0.464
    sched = ChannelSchedule(lam=lam, tau_p=tau_p, tau=tau_p, gamma=gamma, n_uses=1)
    rho_in = single_qubit_input(0.37, 0.21)
    out = run_schedule(rho_in, sched).ptrace(["Q1"])
    h = transit_amplitude(gamma, lam, tau_p)
    p, r = 0.37, 0.21
    expected = np.array([[1 - p * h * h, r * h], [r * h, p * h * h]])
    assert np.abs(out.op - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# full schedule
# ---------------------------------------------------------------------------


def test_zeno_freeze():
    # strong damping dominates and suppresses the Rabi transfer entirely
    sched = ChannelSchedule(lam=1.0, tau_p=0.225, tau=0.225, gamma=100.0, n_uses=1)
    rho_in = single_qubit_input(0.5, 0.3)
    out = run_schedule(rho_in, sched).ptrace(["Q1"])
    assert trace_norm_distance(out.op, rho_in.op) < 0.02


def test_two_uses_decouple_at_large_separation():
    gamma, lam, tau_p, p = 0.5, 1.0, 0.464, 0.4497
    tau = tau_p + 40.0 / gamma
    sched = ChannelSchedule(lam=lam, tau_p=tau_p, tau=tau, gamma=gamma)
    joint = run_schedule(purified_qubit_train(p, 0.0, 2), sched)
    ci = coherent_information(joint.ptrace(["R1", "Q1", "R2", "Q2"]))
    single = coherent_info_diagonal(p, eta_gamma(gamma, lam, tau_p))
    assert abs(ci.ic - 2.0 * single) < 1e-3


def test_schedule_preserves_trace():
    sched = ChannelSchedule(lam=1.0, tau_p=0.225, tau=0.475, gamma=0.05)
    joint = run_schedule(purified_qubit_train(0.4751, 0.0, 2), sched)
    assert abs(np.trace(joint.op) - 1.0) < 1e-9
    assert joint.layout.labels == ("R1", "Q1", "R2", "Q2", "O")


def test_excitation_recursion_bound():
    # mean photon number after each full use: n((k+1) tau) <= n(k tau) e^(-gamma tau) + 1
    lam, tau_p, tau, gamma = 1.0, 0.464, 0.6, 0.5
    sched = ChannelSchedule(lam=lam, tau_p=tau_p, tau=tau, gamma=gamma)
    lay = SpaceLayout([("Q1", 2), ("Q2", 2), ("O", sched.osc_dim)])
    ee = np.zeros((4, 4), dtype=complex)
    ee[3, 3] = 1.0
    ground = np.zeros((sched.osc_dim, sched.osc_dim), dtype=complex)
    ground[0, 0] = 1.0
    rho = DensityMatrix(np.kron(ee, ground), lay)
    N_osc = kron_chain([np.eye(2), np.eye(2), number_op(sched.osc_dim)])

    H1 = jc_hamiltonian("Q1", lay, lam)
    rho = evolve_window(rho, sched, H1, tau_p)
    rho = evolve_window(rho, sched, None, tau - tau_p)
    n1 = expect(N_osc, rho.op)
    H2 = jc_hamiltonian("Q2", lay, lam)
    rho = evolve_window(rho, sched, H2, tau_p)
    rho = evolve_window(rho, sched, None, tau - tau_p)
    n2 = expect(N_osc, rho.op)
    assert n1 <= 0.0 * np.exp(-gamma * tau) + 1.0 + 1e-9
    assert n2 <= n1 * np.exp(-gamma * tau) + 1.0 + 1e-9
    assert n1 < 1.0 / (1.0 - np.exp(-gamma * tau))  # stationary cap B


def test_excitation_conserved_without_damping():
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=0.464, gamma=0.0, n_uses=1)
    lay = SpaceLayout([("Q1", 2), ("O", sched.osc_dim)])
    rng = np.random.default_rng(34)
    rho = DensityMatrix(random_state(rng, lay.dim), lay)
    N = total_excitation(lay)
    before = expect(N, rho.op)
    out = evolve_window(rho, sched, jc_hamiltonian("Q1", lay, 1.0), 0.464)
    assert abs(expect(N, out.op) - before) < 1e-9


def test_excitation_decreases_during_idle():
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=1.0, gamma=0.5, n_uses=1)
    lay = SpaceLayout([("Q1", 2), ("O", sched.osc_dim)])
    one = np.zeros((sched.osc_dim, sched.osc_dim), dtype=complex)
    one[1, 1] = 1.0
    rho = DensityMatrix(np.kron(np.eye(2) / 2, one), lay)
    N = total_excitation(lay)
    values = [expect(N, rho.op)]
    for _ in range(4):
        rho = evolve_window(rho, sched, None, 0.25)
        values.append(expect(N, rho.op))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_purity_decreases_within_half_life():
    gamma = 0.5
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=1.0, gamma=gamma, n_uses=1)
    lay = SpaceLayout([("Q1", 2), ("O", sched.osc_dim)])
    one = np.zeros((sched.osc_dim, sched.osc_dim), dtype=complex)
    one[1, 1] = 1.0
    rho = DensityMatrix(np.kron(np.diag([0.25, 0.75]), one), lay)
    half_life = np.log(2.0) / gamma
    purities = [np.trace(rho.op @ rho.op).real]
    for _ in range(5):
        rho = evolve_window(rho, sched, None, half_life / 5)
        purities.append(np.trace(rho.op @ rho.op).real)
    assert all(b < a for a, b in zip(purities, purities[1:]))


# ---------------------------------------------------------------------------
# dephasing and reset
# ---------------------------------------------------------------------------


def test_dephase_oscillator():
    lay = SpaceLayout([("O", 2)])
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = dephase_oscillator(DensityMatrix(plus, lay))
    assert np.abs(out.op - np.diag([0.5, 0.5])).max() < 1e-14

    rng = np.random.default_rng(35)
    lay2 = SpaceLayout([("Q1", 2), ("O", 3)])
    rho = DensityMatrix(random_state(rng, 6), lay2)
    once = dephase_oscillator(rho)
    twice = dephase_oscillator(once)
    assert np.abs(once.op - twice.op).max() == 0.0  # idempotent
    assert abs(np.trace(once.op) - 1.0) < 1e-12
    diag = DensityMatrix(np.diag(np.diag(rho.op)) / np.trace(np.diag(np.diag(rho.op))), lay2)
    assert np.abs(dephase_oscillator(diag).op - diag.op).max() == 0.0


def test_pi0_reset():
    rng = np.random.default_rng(36)
    lay = SpaceLayout([("Q1", 2), ("O", 3)])
    rho_q = random_state(rng, 2)
    ground = np.zeros((3, 3), dtype=complex)
    ground[0, 0] = 1.0
    product = DensityMatrix(np.kron(rho_q, ground), lay)
    assert np.abs(pi0_reset(product).op - product.op).max() < 1e-14

    entangled = DensityMatrix(random_state(rng, 6), lay)
    reset = pi0_reset(entangled)
    osc = reset.ptrace(["O"])
    assert von_neumann_entropy(osc) < 1e-12
    assert abs(osc.op[0, 0].real - 1.0) < 1e-12  # ground population w0' = 1
    assert np.abs(reset.ptrace(["Q1"]).op - entangled.ptrace(["Q1"]).op).max() < 1e-12


# ---------------------------------------------------------------------------
# process map and batched evolution
# ---------------------------------------------------------------------------


def test_superoperator_matches_direct_run():
    rng = np.random.default_rng(37)
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=0.714, gamma=0.5)
    S = channel_superoperator(sched)
    rho2q = DensityMatrix(random_state(rng, 4), SpaceLayout([("Q1", 2), ("Q2", 2)]))
    psi = purify(rho2q, "R")
    direct = run_schedule(psi, sched).ptrace(["R", "Q1", "Q2"])
    mapped = apply_channel_map(S, psi, ("Q1", "Q2"))
    assert np.abs(direct.op - mapped.op).max() < 1e-10


def test_superoperator_with_dephasing_matches_direct_run():
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=0.714, gamma=0.5,
                            dephase_between_uses=True)
    S = channel_superoperator(sched)
    psi = purified_qubit_train(0.4496, 0.0, 2)
    direct = run_schedule(psi, sched).ptrace(["R1", "Q1", "R2", "Q2"])
    mapped = apply_channel_map(S, psi, ("Q1", "Q2"))
    assert np.abs(direct.op - mapped.op).max() < 1e-10


def test_run_ensemble_matches_individual_runs():
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=0.6, gamma=0.5)
    ens = holevo_separable_ensemble(0.4338)
    outs = run_ensemble(ens, sched)
    for (w_in, dm_in), (w_out, dm_out) in zip(ens.members, outs.members):
        assert w_in == w_out
        solo = run_schedule(dm_in, sched).ptrace(["Q1", "Q2"])
        assert np.abs(solo.op - dm_out.op).max() < 1e-12


def test_run_ensemble_keep_oscillator():
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=0.6, gamma=0.5)
    ens = Ensemble(((1.0, holevo_separable_ensemble(0.3).members[0][1]),))
    out = run_ensemble(ens, sched, keep_oscillator=True)
    assert out.layout.labels == ("Q1", "Q2", "O")


def test_step_halving_stability():
    base = ChannelSchedule(lam=1.0, tau_p=0.225, tau=0.475, gamma=0.05)
    halved = ChannelSchedule(
        lam=1.0, tau_p=0.225, tau=0.475, gamma=0.05,
        dt=base.dt / 2, idle_dt=base.idle_dt / 2,
    )
    psi = purified_qubit_train(0.4751, 0.0, 2)
    ic1 = coherent_information(run_schedule(psi, base).ptrace(["R1", "Q1", "R2", "Q2"]))
    ic2 = coherent_information(run_schedule(psi, halved).ptrace(["R1", "Q1", "R2", "Q2"]))
    assert abs(ic1.ic - ic2.ic) < 1e-8
    assert abs(ic1.s_exchange - ic2.s_exchange) < 1e-8


def test_run_schedule_rejects_oscillator_in_input():
    sched = ChannelSchedule(lam=1.0, tau_p=0.464, tau=0.6, gamma=0.5, n_uses=1)
    lay = SpaceLayout([("Q1", 2), ("O", 3)])
    ground = np.zeros((6, 6), dtype=complex)
    ground[0, 0] = 1.0
    with pytest.raises(ValueError, match="oscillator"):
        run_schedule(DensityMatrix(ground, lay), sched)
