"""Integration work of a request, computed from its generated inputs.

Nothing here is measured: the counts follow from each request's schedules,
built with ``ChannelSchedule``'s own ``dt`` and ``idle_dt`` defaults, and the
step rule of the RK4 window integrator, so they repeat exactly for a seed.
Transit FLOPs count only the two complex matrix products per right-hand-side
evaluation (8 d^3 real operations each, four evaluations per step); the
element-wise work of both window kinds is left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from memchannel.dynamics import ChannelSchedule

from .workloads import Request

N_USES = 2


def rk4_steps(duration: float, step: float) -> int:
    """Steps the window integrator takes, counting a shortened final step."""
    if duration <= 0:
        return 0
    n = int(math.floor(duration / step + 1e-9))
    return n + (max(duration - n * step, 0.0) > 1e-9 * step)


@dataclass
class Counts:
    transit_steps: int = 0
    idle_steps: int = 0
    state_steps: int = 0  # steps times the number of states integrated together
    transit_flop: int = 0
    windows: int = 0
    repeated_windows: int = 0  # windows identical to one already integrated in the request

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


def _integrations(req: Request):
    """(stack size, input key, schedule) of every integration the request runs."""
    sched0 = ChannelSchedule(lam=req.lam, tau_p=req.tau_p, tau=req.tau_p, gamma=req.gamma,
                             n_uses=N_USES)
    for tau in req.taus:
        sched = replace(sched0, tau=tau)
        if req.kind == "coherent-sweep":
            yield 1, ("purified", req.p), sched
        elif req.kind == "holevo-sweep":
            yield 4, ("codewords", req.p), sched
        else:  # dephasing runs each point plain and dephased
            yield 4, ("codewords", req.p), sched
            yield 4, ("codewords", req.p), replace(sched, dephase_between_uses=True)


def request_counts(req: Request) -> Counts:
    in_dim = 4**N_USES if req.kind == "coherent-sweep" else 2**N_USES
    c = Counts()
    seen = set()
    for stack, key, s in _integrations(req):
        d = in_dim * s.osc_dim
        key = (key, s.lam, s.gamma)
        idle = s.tau - s.tau_p
        for k in range(s.n_uses):
            windows = [("transit", k, s.tau_p, s.dt, rk4_steps(s.tau_p, s.dt)),
                       ("idle", None, idle, s.idle_dt, rk4_steps(idle, s.idle_dt))]
            for kind, active, duration, step, n in windows:
                if n == 0:
                    continue
                key = (key, kind, active, duration, step)
                c.windows += 1
                c.repeated_windows += key in seen
                seen.add(key)
                c.state_steps += n * stack
                if kind == "transit":
                    c.transit_steps += n
                    c.transit_flop += n * stack * 4 * 2 * 8 * d**3
                else:
                    c.idle_steps += n
            if s.dephase_between_uses and k < s.n_uses - 1:
                key = (key, "dephase")
    return c


def total_counts(requests) -> Counts:
    return sum((request_counts(r) for r in requests), Counts())
