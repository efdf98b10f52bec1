"""Command-line front end: plain-text configs in, CSV tables out.

Config files are ``key = value`` lines ('#' starts a comment).  Numbers may
use a ``pi`` shorthand (``pi/64``, ``0.5pi``, ``2*pi``).  Grids are either
comma lists (``0, 0.5, 1``) or inclusive ranges ``start:step:stop``.
Every experiment writes one CSV (17 significant digits, so values
round-trip exactly) plus a human-readable summary with the parameter echo
and the pass/fail of the run's internal consistency checks.  Output is
deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import admap, experiments
from .dynamics import ChannelSchedule
from .states import diagonal_product_input, purified_qubit_train

KINDS = (
    "eta-curve",
    "capacity",
    "coherent-sweep",
    "holevo-sweep",
    "optimize",
    "theta-sweep",
    "dephasing",
    "forgetfulness",
    "blocking-bound",
)


class ConfigError(ValueError):
    """Raised with one line per violated constraint."""


def _parse_number(tok: str) -> float:
    tok = tok.strip().lower()
    if "pi" in tok:
        m = re.fullmatch(r"(-?[0-9.]+)?\s*\*?\s*pi\s*(?:/\s*([0-9.]+))?", tok)
        if not m:
            raise ValueError(f"cannot parse number {tok!r}")
        a = float(m.group(1)) if m.group(1) else 1.0
        b = float(m.group(2)) if m.group(2) else 1.0
        return a * math.pi / b
    return float(tok)


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (_parse_number(p) for p in parts)
        if step <= 0:
            raise ValueError(f"grid step must be positive in {text!r}")
        return list(np.arange(start, stop + step / 2, step))
    return [_parse_number(t) for t in text.split(",") if t.strip()]


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


# key -> parser
_PARSERS: dict[str, Callable[[str], object]] = {
    "experiment": str.strip,
    "lambda": _parse_number,
    "tau_p": _parse_number,
    "tau": _parse_number,
    "gamma": _parse_number,
    "n_uses": lambda s: int(s),
    "fock_cutoff": lambda s: int(s),
    "dt": _parse_number,
    "idle_dt": _parse_number,
    "dephase": _parse_bool,
    "p": _parse_number,
    "r": _parse_number,
    "p_tilde": _parse_number,
    "quantity": str.strip,
    "bounds_lo": _parse_number,
    "bounds_hi": _parse_number,
    "tau_offsets": _parse_grid,
    "tau_offset_list": _parse_grid,
    "theta_grid": _parse_grid,
    "l_grid": _parse_grid,
    "eta_grid": _parse_grid,
    "gamma_grid": _parse_grid,
    "p_grid": _parse_grid,
    "n_coding": lambda s: int(s),
    "m_blocks": lambda s: int(s),
    "output": str.strip,
}

_SCHEDULE_KEYS = ("lambda", "tau_p", "gamma", "n_uses", "fock_cutoff", "dt", "idle_dt")
_COMMON = ("experiment", "output")
_TWO_USE_KINDS = ("coherent-sweep", "holevo-sweep", "optimize", "theta-sweep", "dephasing")

_ALLOWED: dict[str, tuple[str, ...]] = {
    "eta-curve": _COMMON + ("lambda", "tau_p", "gamma_grid"),
    "capacity": _COMMON + ("eta_grid",),
    "coherent-sweep": _COMMON + _SCHEDULE_KEYS + ("p", "r", "tau_offsets", "dephase"),
    "holevo-sweep": _COMMON + _SCHEDULE_KEYS + ("p_tilde", "tau_offsets", "dephase"),
    "optimize": _COMMON + _SCHEDULE_KEYS + ("quantity", "bounds_lo", "bounds_hi", "tau_offsets"),
    "theta-sweep": _COMMON + _SCHEDULE_KEYS + ("p_tilde", "theta_grid", "tau_offset_list"),
    "dephasing": _COMMON + _SCHEDULE_KEYS + ("quantity", "p", "r", "p_tilde", "tau_offsets"),
    "forgetfulness": _COMMON + _SCHEDULE_KEYS + ("tau", "l_grid", "p", "m_blocks"),
    "blocking-bound": _COMMON + _SCHEDULE_KEYS + ("tau", "p_grid", "n_coding"),
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "eta-curve": ("lambda", "tau_p", "gamma_grid"),
    "capacity": ("eta_grid",),
    "coherent-sweep": ("lambda", "tau_p", "gamma", "p"),
    "holevo-sweep": ("lambda", "tau_p", "gamma", "p_tilde"),
    "optimize": ("lambda", "tau_p", "gamma", "quantity"),
    "theta-sweep": ("lambda", "tau_p", "gamma", "p_tilde"),
    "dephasing": ("lambda", "tau_p", "gamma", "quantity"),
    "forgetfulness": ("lambda", "tau_p", "tau", "gamma"),
    "blocking-bound": ("lambda", "tau_p", "tau", "gamma"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    values: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def schedule(self, tau: float | None = None, dt_override: float | None = None) -> ChannelSchedule:
        v = self.values
        return ChannelSchedule(
            lam=v["lambda"],
            tau_p=v["tau_p"],
            tau=v.get("tau", v["tau_p"]) if tau is None else tau,
            gamma=v.get("gamma", 0.0),
            n_uses=v.get("n_uses", 2),
            fock_cutoff=v.get("fock_cutoff"),
            dt=dt_override if dt_override is not None else v.get("dt"),
            idle_dt=v.get("idle_dt"),
            dephase_between_uses=v.get("dephase", False),
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config file; collects every violation."""
    errors: list[str] = []
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")

    kind = values.get("experiment")
    if kind is None:
        errors.append("missing required key 'experiment'")
    elif kind not in KINDS:
        errors.append(f"unknown experiment kind {kind!r}; choose from {', '.join(KINDS)}")
        kind = None

    if kind is not None:
        allowed = set(_ALLOWED[kind])
        for key in values:
            if key not in allowed:
                errors.append(f"key {key!r} is not accepted by experiment {kind!r}")
        for key in _REQUIRED[kind]:
            if key not in values:
                errors.append(f"experiment {kind!r} requires key {key!r}")

    errors += _validate_physics(kind, values)
    if errors:
        raise ConfigError("\n".join(errors))
    return ExperimentConfig(kind=kind, values=values)


def _validate_physics(kind: str | None, v: dict) -> list[str]:
    errors = []
    if v.get("lambda", 1.0) <= 0:
        errors.append("lambda must be positive")
    if v.get("tau_p", 1.0) <= 0:
        errors.append("tau_p must be positive")
    if v.get("gamma", 0.0) < 0:
        errors.append("gamma must be nonnegative")
    if "tau" in v and "tau_p" in v and v["tau"] < v["tau_p"]:
        errors.append(
            f"tau={v['tau']} < tau_p={v['tau_p']}: the low-rate regime requires "
            "tau >= tau_p (qubits must not overlap in the cavity)"
        )
    n_uses = v.get("n_uses", 2)
    if n_uses < 1:
        errors.append("n_uses must be at least 1")
    if kind in _TWO_USE_KINDS and n_uses != 2:
        errors.append(f"experiment {kind!r} reports two-use quantities; n_uses must be 2")
    if "fock_cutoff" in v and v["fock_cutoff"] < n_uses:
        errors.append(
            f"fock_cutoff={v['fock_cutoff']} < n_uses={n_uses}: up to one excitation "
            "per use can accumulate in the oscillator"
        )
    if "dt" in v and "tau_p" in v and not 0 < v["dt"] <= v["tau_p"] / 100:
        errors.append("dt must lie in (0, tau_p/100]")
    for key in ("p", "p_tilde"):
        if key in v and not 0 <= v[key] <= 1:
            errors.append(f"{key} must lie in [0, 1]")
    if kind == "theta-sweep" and not 0 < v.get("p_tilde", 0.5) < 1:
        errors.append("p_tilde must lie in (0, 1) for theta-sweep (at 0 or 1 the codewords coincide)")
    if "p_grid" in v and any(not 0 <= p <= 1 for p in v["p_grid"]):
        errors.append("p_grid values must lie in [0, 1]")
    if "quantity" in v and v["quantity"] not in ("coherent", "holevo"):
        errors.append("quantity must be 'coherent' or 'holevo'")
    if kind == "dephasing" and v.get("quantity") == "coherent" and "p" not in v:
        errors.append("dephasing with quantity 'coherent' requires key 'p'")
    if kind == "dephasing" and v.get("quantity") == "holevo" and "p_tilde" not in v:
        errors.append("dephasing with quantity 'holevo' requires key 'p_tilde'")
    if "tau_offsets" in v and any(off < 0 for off in v["tau_offsets"]):
        errors.append("tau_offsets must be nonnegative (they are added to tau_p)")
    if "l_grid" in v:
        if any(l != int(l) or l < 0 for l in v["l_grid"]):
            errors.append("l_grid must contain nonnegative integers")
    if "eta_grid" in v and any(not 0 <= e <= 1 for e in v["eta_grid"]):
        errors.append("eta_grid values must lie in [0, 1]")
    if kind == "forgetfulness" and v.get("gamma", 0.0) <= 0:
        errors.append("forgetfulness requires gamma > 0 (undamped channels never forget)")
    return errors


# ---------------------------------------------------------------------------
# experiment drivers: each returns (header, rows, summary_lines, n_failed)
# ---------------------------------------------------------------------------

_FMT = "{:.17g}"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) or isinstance(x, np.floating):
        return _FMT.format(float(x))
    return str(x)


def _schedule_columns(sched: ChannelSchedule) -> dict:
    return {
        "lambda": sched.lam,
        "tau_p": sched.tau_p,
        "tau": sched.tau,
        "gamma": sched.gamma,
        "n_uses": sched.n_uses,
        "fock_cutoff": sched.fock_cutoff,
        "dt": sched.dt,
        "idle_dt": sched.idle_dt,
        "dephase": sched.dephase_between_uses,
    }


def _sweep_rows(config: ExperimentConfig, dt_override, coherent: bool):
    v = config.values
    base = config.schedule(dt_override=dt_override)
    offsets = v.get("tau_offsets", list(np.arange(0.0, 10.125, 0.25)))
    taus = [base.tau_p + off for off in offsets]

    def one(tau: float):
        sched = replace(base, tau=tau)
        try:
            if coherent:
                recs = experiments.coherent_sweep(sched, [tau], p=v["p"], r=v.get("r", 0.0))
            else:
                recs = experiments.holevo_sweep(sched, [tau], p_tilde=v["p_tilde"])
            return recs[0], None
        except Exception as exc:  # keep the sweep's other points
            return None, f"{type(exc).__name__}: {exc}"

    results = [one(tau) for tau in taus]
    rows, summary, failed = [], [], 0
    good: list[experiments.SweepRecord] = []
    for tau, (rec, err) in zip(taus, results):
        if rec is None:
            failed += 1
            sched = replace(base, tau=tau)
            row = _schedule_columns(sched)
            row.update({"mu": sched.memory_mu, "status": f"failed: {err}"})
            rows.append(row)
            continue
        good.append(rec)
        rep = rec.report
        row = _schedule_columns(rec.schedule)
        row.update({"mu": rec.mu, "eta": rec.eta})
        if coherent:
            row.update(
                {
                    "Q_memoryless": rec.q_memoryless,
                    "Ic": rep.ic,
                    "Ic_per_use": rep.ic / 2.0,
                    "Se": rep.s_exchange,
                    "Sout": rep.s_out,
                    "Ic1": rep.ic_1,
                    "Ic2": rep.ic_2,
                    "Se1": rep.se_1,
                    "Se2": rep.se_2,
                    "Sout1": rep.s_out_1,
                    "Sout2": rep.s_out_2,
                    "corr_RQ": rep.corr_rq,
                }
            )
        else:
            row.update(
                {
                    "C1_memoryless": rec.c1_memoryless,
                    "chi": rep.chi,
                    "chi_per_use": rep.chi / 2.0,
                    "Sout": rep.s_out,
                    "avgSout": rep.avg_s_out,
                    "chi1": rep.chi_1,
                    "chi2": rep.chi_2,
                    "Sout1": rep.s_out_1,
                    "Sout2": rep.s_out_2,
                    "avgSout1": rep.avg_s_out_1,
                    "avgSout2": rep.avg_s_out_2,
                }
            )
        row.update({"identity_gap": rec.identity_gap, "status": "ok"})
        rows.append(row)

    if good:
        vals = [r.report.ic if coherent else r.report.chi for r in good]
        mono = all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        summary.append(_check_line(f"{'Ic' if coherent else 'chi'}(tau) non-increasing", mono))
        gap = max(r.identity_gap for r in good)
        summary.append(_check_line(f"identity residual <= 1e-9 (max {gap:.3e})", gap <= 1e-9))
        base_val = good[0].q_memoryless if coherent else good[0].c1_memoryless
        summary.append(
            f"baseline {'Q' if coherent else 'C1'}_memoryless = {_fmt(base_val)}"
        )
        summary.append(
            f"per-use value at smallest tau = {_fmt(vals[0] / 2)} "
            f"(enhancement {_fmt(vals[0] / 2 - base_val)})"
        )
    return rows, summary, failed


def _optimize_rows(config: ExperimentConfig, dt_override):
    v = config.values
    base = config.schedule(dt_override=dt_override)
    offsets = v.get("tau_offsets", list(np.arange(0.0, 10.125, 0.25)))
    taus = [base.tau_p + off for off in offsets]
    quantity = v["quantity"]
    bounds = (v.get("bounds_lo", 0.0), v.get("bounds_hi", 1.0))
    eta = admap.eta_gamma(base.gamma, base.lam, base.tau_p)
    baseline, p_mem = (
        admap.memoryless_Q(eta) if quantity == "coherent" else admap.memoryless_C1(eta)
    )

    def one(tau: float):
        sched = replace(base, tau=tau)
        try:
            p_opt, value = experiments.optimize_input(sched, quantity, bounds)
            return (p_opt, value), None
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"

    results = [one(tau) for tau in taus]
    rows, failed = [], 0
    for tau, (res, err) in zip(taus, results):
        sched = replace(base, tau=tau)
        row = _schedule_columns(sched)
        row.update({"mu": sched.memory_mu, "eta": eta, "quantity": quantity})
        if res is None:
            failed += 1
            row["status"] = f"failed: {err}"
        else:
            p_opt, value = res
            row.update(
                {
                    "baseline_memoryless": baseline,
                    "p_memoryless": p_mem,
                    "p_opt": p_opt,
                    "value": value,
                    "value_per_use": value / 2.0,
                    "status": "ok",
                }
            )
        rows.append(row)
    summary = [
        f"memoryless baseline = {_fmt(baseline)} at p = {_fmt(p_mem)}",
    ]
    return rows, summary, failed


def _theta_rows(config: ExperimentConfig, dt_override):
    v = config.values
    base = config.schedule(dt_override=dt_override)
    theta_grid = v.get("theta_grid")
    offsets = v.get("tau_offset_list", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    tau_list = [base.tau_p + off for off in offsets]
    recs = experiments.theta_sweep(base, v["p_tilde"], theta_grid, tau_list)
    rows = []
    for r in recs:
        row = _schedule_columns(replace(base, tau=r.tau))
        row.update({"mu": replace(base, tau=r.tau).memory_mu, "theta": r.theta,
                    "chi": r.chi, "identity_gap": r.identity_gap, "status": "ok"})
        rows.append(row)
    summary = []
    half_pi = math.pi / 2
    thetas = sorted({r.theta for r in recs})
    step = min(b - a for a, b in zip(thetas, thetas[1:])) if len(thetas) > 1 else math.inf
    ok_max = True
    for tau in tau_list:
        best = experiments.argmax_theta(recs, tau)
        dist = min(abs(best.theta - k * half_pi) for k in range(0, 4))
        ok_max &= dist <= step / 2 + 1e-12
        summary.append(f"tau = {_fmt(tau)}: argmax theta = {_fmt(best.theta)} chi = {_fmt(best.chi)}")
    summary.append(_check_line("chi maximized at multiples of pi/2", ok_max))
    return rows, summary, 0


def _dephasing_rows(config: ExperimentConfig, dt_override):
    v = config.values
    base = config.schedule(dt_override=dt_override)
    quantity = v["quantity"]
    p = v["p"] if quantity == "coherent" else v["p_tilde"]
    offsets = v.get("tau_offsets", list(np.arange(0.0, 10.125, 0.25)))
    taus = [base.tau_p + off for off in offsets]

    def one(tau: float):
        try:
            pairs = experiments.dephasing_comparison(
                replace(base, tau=tau), quantity, p, r=v.get("r", 0.0), tau_grid=[tau]
            )
            return pairs[0], None
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"

    results = [one(tau) for tau in taus]
    rows, failed = [], 0
    pairs = []
    for tau, (pair, err) in zip(taus, results):
        sched = replace(base, tau=tau)
        row = _schedule_columns(sched)
        row["mu"] = sched.memory_mu
        if pair is None:
            failed += 1
            row["status"] = f"failed: {err}"
            rows.append(row)
            continue
        pairs.append(pair)
        a, b = pair.plain.report, pair.dephased.report
        if quantity == "coherent":
            row.update(
                {
                    "Q_memoryless": pair.plain.q_memoryless,
                    "Ic": a.ic, "Ic_deph": b.ic,
                    "Se": a.s_exchange, "Se_deph": b.s_exchange,
                    "Sout": a.s_out, "Sout_deph": b.s_out,
                    "corr_RQ": a.corr_rq, "corr_RQ_deph": b.corr_rq,
                }
            )
        else:
            row.update(
                {
                    "C1_memoryless": pair.plain.c1_memoryless,
                    "chi": a.chi, "chi_deph": b.chi,
                    "avgSout": a.avg_s_out, "avgSout_deph": b.avg_s_out,
                    "Sout": a.s_out, "Sout_deph": b.s_out,
                }
            )
        row["status"] = "ok"
        rows.append(row)
    summary = []
    if pairs:
        if quantity == "coherent":
            dominated = all(p2.dephased.report.ic <= p2.plain.report.ic + 1e-9 for p2 in pairs)
            summary.append(_check_line("dephased Ic <= plain Ic pointwise", dominated))
            c0, d0 = pairs[0].plain.report.corr_rq, pairs[0].dephased.report.corr_rq
            summary.append(
                f"inter-use correlation at smallest tau: plain {_fmt(c0)}, dephased {_fmt(d0)}"
            )
        else:
            dominated = all(p2.dephased.report.chi <= p2.plain.report.chi + 1e-9 for p2 in pairs)
            summary.append(_check_line("dephased chi <= plain chi pointwise", dominated))
    return rows, summary, failed


def _forgetfulness_rows(config: ExperimentConfig, dt_override):
    v = config.values
    base = config.schedule(dt_override=dt_override)
    l_grid = [int(l) for l in v.get("l_grid", list(range(9)))]
    recs = experiments.forgetfulness_check(
        base, l_grid, p=v.get("p", 1.0), m_blocks=v.get("m_blocks", 2)
    )
    rows = []
    for r in recs:
        row = _schedule_columns(base)
        row.update(
            {
                "L": r.n_idle,
                "lhs": r.lhs,
                "bound": r.bound,
                "multi_block_bound": r.multi_block_bound,
                "status": "ok",
            }
        )
        rows.append(row)
    bounded = all(r.lhs <= r.bound for r in recs)
    lhs = [r.lhs for r in recs]
    mono = all(a >= b - 1e-12 for a, b in zip(lhs, lhs[1:]))
    summary = [
        _check_line("lhs <= 4 sqrt(B) exp(-L gamma tau / 2) at every L", bounded),
        _check_line("lhs non-increasing in L", mono),
        f"lhs at largest L = {_fmt(lhs[-1])}",
    ]
    return rows, summary, 0


def _blocking_rows(config: ExperimentConfig, dt_override):
    v = config.values
    base = config.schedule(dt_override=dt_override)
    p_grid = v.get("p_grid", [0.5])
    n_coding = v.get("n_coding", 1)
    rows, failed = [], 0
    slacks = []
    for p in p_grid:
        row = _schedule_columns(base)
        row["p"] = p
        try:
            rec = experiments.blocking_bound_check(
                base, purified_qubit_train(p, 0.0, base.n_uses), n_coding
            )
            slacks.append(rec.slack)
            row.update(
                {
                    "lhs_Ic": rec.lhs_ic,
                    "rhs_Ic": rec.rhs_ic,
                    "n_idle": rec.n_idle,
                    "margin": rec.slack,
                    "status": "ok",
                }
            )
        except Exception as exc:
            failed += 1
            row["status"] = f"failed: {type(exc).__name__}: {exc}"
        rows.append(row)
    summary = [
        _check_line(
            "Ic(full) <= Ic(blocked) + L qubits", bool(slacks) and min(slacks) >= -1e-9
        )
    ]
    return rows, summary, failed


def _eta_curve_rows(config: ExperimentConfig, dt_override):
    v = config.values
    rows = []
    for gamma in v["gamma_grid"]:
        rows.append(
            {
                "lambda": v["lambda"],
                "tau_p": v["tau_p"],
                "gamma": gamma,
                "eta": admap.eta_gamma(gamma, v["lambda"], v["tau_p"]),
                "eta_weak_damping": admap.eta_weak_damping(gamma, v["lambda"], v["tau_p"]),
                "status": "ok",
            }
        )
    return rows, [], 0


def _capacity_rows(config: ExperimentConfig, dt_override):
    rows = []
    for eta in config.values["eta_grid"]:
        q, p_q = admap.memoryless_Q(eta)
        c1, p_c = admap.memoryless_C1(eta)
        rows.append(
            {"eta": eta, "Q": q, "p_star_Q": p_q, "C1": c1, "p_star_C1": p_c, "status": "ok"}
        )
    return rows, [], 0


_DRIVERS = {
    "eta-curve": _eta_curve_rows,
    "capacity": _capacity_rows,
    "coherent-sweep": lambda c, d: _sweep_rows(c, d, coherent=True),
    "holevo-sweep": lambda c, d: _sweep_rows(c, d, coherent=False),
    "optimize": _optimize_rows,
    "theta-sweep": _theta_rows,
    "dephasing": _dephasing_rows,
    "forgetfulness": _forgetfulness_rows,
    "blocking-bound": _blocking_rows,
}


def _check_line(label: str, ok: bool) -> str:
    return f"check {label}: {'PASS' if ok else 'FAIL'}"


def run(
    config: ExperimentConfig,
    outdir: Path,
    threads: int = 1,
    dt_override: float | None = None,
) -> int:
    """Execute one experiment; write CSV and summary; return exit status.

    Grid points run one after another.  ``threads`` is accepted for
    compatibility and no longer parallelises: with one exact map per
    window a point takes milliseconds, and a thread pool only slowed the
    sweeps down.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows, summary, failed = _DRIVERS[config.kind](config, dt_override)

    name = config.get("output", f"{config.kind}.csv")
    csv_path = outdir / name
    header: list[str] = []
    for row in rows:  # union of keys, first-seen order; rows may differ on failure
        for key in row:
            if key not in header:
                header.append(key)
    with open(csv_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) if k in row else "" for k in header) + "\n")

    summary_path = csv_path.with_suffix(".summary.txt")
    check_failed = any(line.endswith("FAIL") for line in summary)
    with open(summary_path, "w") as fh:
        fh.write(f"experiment: {config.kind}\n")
        for key in sorted(config.values):
            if key in ("experiment", "output"):
                continue
            val = config.values[key]
            if isinstance(val, list):
                val = "[" + ", ".join(_fmt(x) for x in val) + "]"
            else:
                val = _fmt(val)
            fh.write(f"{key} = {val}\n")
        fh.write(f"rows: {len(rows)} total, {failed} failed\n")
        for line in summary:
            fh.write(line + "\n")
        fh.write(f"wrote {csv_path.name}\n")
    print(f"wrote {csv_path} and {summary_path}")
    if failed:
        bad = [row for row in rows if row.get("status", "ok") != "ok"]
        for row in bad:
            point = row.get("tau", row.get("p", row.get("L", "?")))
            print(f"  point {point}: {row['status']}", file=sys.stderr)
    return 1 if failed or check_failed else 0


def _preset_dir():
    return resources.files("memchannel") / "figures"


def list_presets() -> list[str]:
    return sorted(p.name[: -len(".cfg")] for p in _preset_dir().iterdir() if p.name.endswith(".cfg"))


def preset_text(name: str) -> str:
    path = _preset_dir() / f"{name}.cfg"
    if not path.is_file():
        raise FileNotFoundError(f"no preset named {name!r}; available: {', '.join(list_presets())}")
    return path.read_text()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="memchannel",
        description="Memory amplitude-damping channel experiments (config in, CSV out).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=False, help="path to a config file")
        p.add_argument("--preset", required=False, help="name of a shipped preset config")
        p.add_argument("--outdir", default=".", help="directory for CSV and summary output")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; grid points always run serially")
        p.add_argument("--dt", type=float, default=None,
                       help="override the recorded dt column (windows are exact maps, not steps)")

    for kind in KINDS:
        add_run_flags(sub.add_parser(kind, help=f"run a {kind} experiment"))

    val = sub.add_parser("validate", help="parse a config and report every violation")
    val.add_argument("--config", required=True)

    pre = sub.add_parser("presets", help="list shipped figure preset configs")
    pre.add_argument("--show", help="print the named preset config")

    args = parser.parse_args(argv)
    try:
        return _command(args)
    except ConfigError as exc:
        print(f"invalid config:\n{exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unreadable config, unknown preset, failed run: one line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _command(args: argparse.Namespace) -> int:
    if args.command == "presets":
        if args.show:
            print(preset_text(args.show), end="")
        else:
            for name in list_presets():
                print(name)
        return 0

    if args.command == "validate":
        config = parse_config(Path(args.config).read_text())
        print(f"valid {config.kind} config")
        return 0

    if bool(args.config) == bool(args.preset):
        print("provide exactly one of --config or --preset", file=sys.stderr)
        return 2
    text = Path(args.config).read_text() if args.config else preset_text(args.preset)
    config = parse_config(text)
    if config.kind != args.command:
        print(
            f"config declares experiment {config.kind!r} but was passed to {args.command!r}",
            file=sys.stderr,
        )
        return 1
    return run(config, Path(args.outdir), threads=args.threads, dt_override=args.dt)


if __name__ == "__main__":
    sys.exit(main())
