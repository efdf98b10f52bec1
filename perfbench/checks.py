"""Correctness of each request's CSV and summary, checked after timing.

A point is one CSV row.  It fails if its request raised or returned a
non-zero status, if the summary has a ``check ...: FAIL`` line, if the row
is missing, malformed, not ``ok`` or not at the requested tau, or if it
misses an oracle below.  Every oracle holds for any seed:

* every two-use value (``Ic``, ``chi``, ``Ic_deph``, ``chi_deph``) equals
  the exact channel of ``perfbench.reference``, which shares no code with
  the program's integrator; it agreed to 3e-12 on the seed code;
* coherent-sweep: use-1 ``Ic1`` equals the closed form
  ``coherent_info_diagonal(p, eta_gamma(gamma, lam, tau_p))`` (input r = 0);
* holevo-sweep: ``chi1`` equals ``holevo_info_binary(p_tilde, eta)``;
* every ``identity_gap`` column is within the tolerance.

The closed forms agreed to about 1e-14.  The tolerance is fixed: results at
dt and dt/2 differ by about 1e-13 bits and the CLI's own identity checks use
1e-9.  A faster integrator must stay within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from memchannel import admap

from . import reference
from .workloads import Request

ORACLE_TOL = 1e-9
TAU_TOL = 1e-12
_TEXT_COLUMNS = {"status", "quantity", "dephase"}


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail_all(self, reason: str) -> "Outcome":
        self.failed = self.attempted
        self.reasons.append(reason)
        return self


def read_rows(path: Path) -> list[dict | None]:
    """CSV rows as dicts of floats (text columns kept); None for a malformed row."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            rows.append(None)
            continue
        row = {}
        try:
            for key, cell in zip(header, cells):
                if key in _TEXT_COLUMNS or cell == "":
                    row[key] = cell
                else:
                    row[key] = float(cell)
        except ValueError:
            row = None
        rows.append(row)
    return rows


class _Reference:
    """Exact two-use values of one request, one channel map per (tau, dephase)."""

    def __init__(self, req: Request):
        self.req = req
        self._maps = {}

    def channel(self, tau: float, dephase: bool = False):
        key = (tau, dephase)
        if key not in self._maps:
            r = self.req
            self._maps[key] = reference.channel(r.lam, r.gamma, r.tau_p, tau, dephase)
        return self._maps[key]

    def value(self, tau: float, p: float, dephase: bool = False) -> float:
        T = self.channel(tau, dephase)
        if self.req.quantity == "coherent":
            return reference.coherent_info(T, p)
        return reference.holevo_info(T, reference.product_ensemble(p))


def _mismatch(what: str, got: float, want: float) -> str | None:
    if abs(got - want) > ORACLE_TOL:
        return f"{what} {got!r} != {want!r}"
    return None


def _row_error(req: Request, i: int, row: dict | None, ref: _Reference) -> str | None:
    if row is None:
        return "malformed row"
    if row.get("status") != "ok":
        return f"status {row.get('status')!r}"
    for key, val in row.items():
        if isinstance(val, float) and not math.isfinite(val):
            return f"{key} is not finite"
    tau = req.taus[i]
    if abs(row.get("tau", math.nan) - tau) > TAU_TOL:
        return f"tau {row.get('tau')} != requested {tau}"
    if abs(row.get("identity_gap", 0.0)) > ORACLE_TOL:
        return f"identity_gap {row['identity_gap']:.3e}"
    eta = admap.eta_gamma(req.gamma, req.lam, req.tau_p)
    column = "Ic" if req.quantity == "coherent" else "chi"
    if req.kind == "coherent-sweep":
        return (_mismatch("Ic1 vs closed form", row["Ic1"],
                          admap.coherent_info_diagonal(req.p, eta))
                or _mismatch("Ic vs exact channel", row["Ic"], ref.value(tau, req.p)))
    if req.kind == "holevo-sweep":
        return (_mismatch("chi1 vs closed form", row["chi1"], admap.holevo_info_binary(req.p, eta))
                or _mismatch("chi vs exact channel", row["chi"], ref.value(tau, req.p)))
    if req.kind == "dephasing":
        return (_mismatch(f"{column} vs exact channel", row[column], ref.value(tau, req.p))
                or _mismatch(f"{column}_deph vs exact channel", row[f"{column}_deph"],
                             ref.value(tau, req.p, dephase=True)))
    return None


def check_request(req: Request, csv_path: Path, rc: int | None, error: str | None) -> Outcome:
    """Attempted and failed points of one request."""
    out = Outcome(attempted=req.rows)
    if error is not None:
        return out.fail_all(f"raised {error}")
    if rc != 0:
        return out.fail_all(f"cli.run returned {rc}")
    summary_path = Path(csv_path).with_suffix(".summary.txt")
    if not Path(csv_path).is_file() or not summary_path.is_file():
        return out.fail_all("output files missing")
    checks = [ln for ln in summary_path.read_text().splitlines() if ln.startswith("check ")]
    bad = [ln for ln in checks if not ln.endswith(": PASS")]
    if bad:
        return out.fail_all(bad[0])
    rows = read_rows(csv_path)
    if len(rows) > req.rows:
        return out.fail_all(f"{len(rows)} rows, expected {req.rows}")
    ref = _Reference(req)
    for i in range(req.rows):
        err = _row_error(req, i, rows[i], ref) if i < len(rows) else "missing row"
        if err is not None:
            out.failed += 1
            out.reasons.append(f"row {i}: {err}")
    return out
