"""Seeded request streams for the benchmark workloads.

A workload is a closed loop with one client: it sends request cycles back to
back, each cycle holding one request of every kind the workload uses, and a
run always ends on a cycle boundary so every run carries the same request
mix.  Cycle ``i`` of a workload is drawn from its own generator seeded with
``(workload, seed, i)``, so a cycle is reproducible without generating the
cycles before it and no two cycles repeat.

The program sees only the generated config text.  Tau offsets are drawn
stratified over [0, OFFSET_SPAN] with antithetic pairs (see
``stratified_offsets``), so the damping-only integration work of a request,
which grows with the offset, is the same for every seed while each offset
is still uniform on its bin.  This module imports nothing from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

LAM = 1.0
TAU_P_SET = (0.225, 0.464, 0.685)  # transit times of the paper's figures
OFFSET_SPAN = 10.0
POP_JITTER = 0.02  # input populations are drawn within this of the memoryless optimum

# optimum(quantity, gamma, tau_p) -> memoryless optimal input population
Optimum = Callable[[str, float, float], float]


@dataclass(frozen=True)
class Request:
    """One ``cli.run`` call: the config text plus what the checker expects."""

    kind: str
    text: str
    output: str  # CSV file name inside the output directory
    tau_p: float
    gamma: float
    taus: tuple[float, ...]
    rows: int  # CSV rows the request must produce
    quantity: str  # "coherent" or "holevo"
    p: float | None = None  # coherent input population or codeword parameter

    @property
    def lam(self) -> float:
        return LAM


def _num(x: float) -> str:
    return repr(float(x))  # shortest text that parses back to the same float


def _config(kind: str, output: str, values: dict) -> str:
    lines = [f"experiment = {kind}"]
    for key, val in values.items():
        if isinstance(val, (list, tuple)):
            val = ", ".join(_num(v) for v in val)
        elif isinstance(val, float):
            val = _num(val)
        lines.append(f"{key} = {val}")
    lines.append(f"output = {output}")
    return "\n".join(lines) + "\n"


def stratified_offsets(rng: random.Random, n: int) -> list[float]:
    """One uniform draw in each of n equal bins of [0, OFFSET_SPAN], ascending.

    Bins j and n-1-j take antithetic positions u and 1-u, so for even n the
    offsets sum to n * OFFSET_SPAN / 2 on every draw.
    """
    pos = [0.0] * n
    for j in range(n // 2):
        u = rng.random()
        pos[j], pos[n - 1 - j] = u, 1.0 - u
    if n % 2:
        pos[n // 2] = rng.random()
    return [OFFSET_SPAN * (j + u) / n for j, u in enumerate(pos)]


class _Draw:
    """Per-request draws shared by every request kind."""

    def __init__(self, rng: random.Random, stream: "RequestStream", n_taus: int):
        self.tau_p = rng.choice(TAU_P_SET)
        self.offsets = stratified_offsets(rng, n_taus)
        self.taus = tuple(self.tau_p + off for off in self.offsets)
        self._rng = rng
        self._stream = stream

    def population(self, quantity: str) -> float:
        best = self._stream.optimum(quantity, self.tau_p)
        return best + self._rng.uniform(-POP_JITTER, POP_JITTER)


def _sweep(kind: str, quantity: str):
    key = "p" if quantity == "coherent" else "p_tilde"

    def build(d: _Draw, gamma: float, output: str) -> Request:
        p = d.population(quantity)
        values = {"lambda": LAM, "tau_p": d.tau_p, "gamma": gamma}
        if kind == "dephasing":
            values["quantity"] = quantity
        values.update({key: p, "tau_offsets": d.offsets})
        return Request(kind, _config(kind, output, values), output, d.tau_p, gamma, d.taus,
                       len(d.taus), quantity, p)

    return build


@dataclass(frozen=True)
class Kind:
    """One request kind of a workload's cycle."""

    build: Callable[[_Draw, float, str], Request]
    taus: int  # tau points per request
    preset: str  # the shipped figure preset (src/memchannel/figures) this request mirrors


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gamma: float
    threads: int
    kinds: tuple[Kind, ...]  # one request of each per cycle
    input_size: str


# The shipped presets sweep 41 taus (fig1a, fig3_inset, fig7), 20-45 s per request, and a
# run should hold several whole cycles, so requests are cut to 8 and 4 taus; the traced
# run reports repeated_window_frac at the preset sizes next to the benchmark's.  There is
# no tomography workload: its run-to-run spread exceeds any bound (see WORKLOADS.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coherent-weak",
            "64-dim single-state transits at gamma=0.05: large matmuls in run_schedule dominate",
            gamma=0.05,
            threads=1,
            kinds=(Kind(_sweep("coherent-sweep", "coherent"), 8, "fig1a"),),
            input_size="1 coherent-sweep request per cycle, 8 tau points each (fig1a has 41); "
            "a point integrates one 64-dim state over 2 transits of 1000 RK4 steps",
        ),
        Workload(
            "holevo-damped-2t",
            "4x16-dim stacks at gamma=0.5 with idle steps as many as transit steps, "
            "on the threads=2 point pool",
            gamma=0.5,
            threads=2,
            kinds=(Kind(_sweep("holevo-sweep", "holevo"), 8, "fig3_inset"),
                   Kind(_sweep("dephasing", "holevo"), 4, "fig7")),
            input_size="holevo-sweep (8 tau points; fig3_inset has 41) + dephasing holevo "
            "(4 tau points, 2 runs each; fig7 has 41) per cycle; a run integrates 4 16-dim "
            "states, up to 1000 idle steps per use",
        ),
    )
}


class RequestStream:
    """The seeded, unbounded sequence of request cycles of one workload."""

    def __init__(self, workload: str, seed: int, optimum: Optimum):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = WORKLOADS[workload]
        self.seed = int(seed)
        gamma = self.workload.gamma
        self._optima = {
            (q, tau_p): optimum(q, gamma, tau_p)
            for q in ("coherent", "holevo")
            for tau_p in TAU_P_SET
        }

    def optimum(self, quantity: str, tau_p: float) -> float:
        return self._optima[(quantity, tau_p)]

    def _requests(self, tag: str, sizes) -> list[Request]:
        rng = random.Random(f"{self.workload.name}:{self.seed}:{tag}")
        out = []
        for j, (kind, n_taus) in enumerate(zip(self.workload.kinds, sizes)):
            out.append(kind.build(_Draw(rng, self, n_taus), self.workload.gamma,
                                  f"{tag}_{j}.csv"))
        return out

    def cycle(self, i: int) -> list[Request]:
        return self._requests(f"c{i:05d}", [k.taus for k in self.workload.kinds])

    def warmup(self) -> Request:
        """A single-point request of the first kind, run untimed during set-up.

        The kinds of one workload share one integration path, so this pays
        its lazy initialisation (such as OpenBLAS starting its threads).
        """
        return self._requests("warmup", [1])[0]
