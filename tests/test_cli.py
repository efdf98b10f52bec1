import math

import numpy as np
import pytest

from memchannel import cli
from memchannel.cli import (
    ConfigError,
    ExperimentConfig,
    _parse_grid,
    _parse_number,
    list_presets,
    main,
    parse_config,
    preset_text,
    run,
)

MINIMAL_COHERENT = """
# smallest useful coherent sweep
experiment = coherent-sweep
lambda = 1
tau_p = 0.225
gamma = 0.05
p = 0.4751
tau_offsets = 0, 2
output = tiny.csv
"""


SMALL_THETA = """
experiment = theta-sweep
lambda = 1
tau_p = 0.464
gamma = 0.5
p_tilde = 0.4339
theta_grid = 0:pi/8:pi/2
tau_offset_list = 0
output = theta.csv
"""

# the keys each two-use kind needs besides the schedule
TWO_USE_EXTRAS = {
    "coherent-sweep": "p = 0.4751",
    "holevo-sweep": "p_tilde = 0.4339",
    "optimize": "quantity = holevo",
    "theta-sweep": "p_tilde = 0.4339",
    "dephasing": "quantity = holevo\np_tilde = 0.4339",
}


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_parse_number_pi_forms():
    assert _parse_number("pi") == pytest.approx(math.pi)
    assert _parse_number("pi/64") == pytest.approx(math.pi / 64)
    assert _parse_number("2*pi") == pytest.approx(2 * math.pi)
    assert _parse_number("0.5pi") == pytest.approx(math.pi / 2)
    assert _parse_number("1.5e-3") == pytest.approx(0.0015)
    with pytest.raises(ValueError):
        _parse_number("two pies")


def test_parse_grid_forms():
    assert _parse_grid("0:0.5:1") == pytest.approx([0.0, 0.5, 1.0])
    assert _parse_grid("1, 2, 3") == pytest.approx([1.0, 2.0, 3.0])
    assert _parse_grid("0:pi/2:pi") == pytest.approx([0.0, math.pi / 2, math.pi])
    with pytest.raises(ValueError, match="start:step:stop"):
        _parse_grid("0:1")


def test_parse_config_minimal():
    config = parse_config(MINIMAL_COHERENT)
    assert config.kind == "coherent-sweep"
    assert config.get("p") == 0.4751
    sched = config.schedule(tau=1.0)
    assert sched.gamma == 0.05 and sched.tau == 1.0


def test_parse_config_collects_every_violation():
    bad = """
experiment = forgetfulness
lambda = 1
tau_p = 0.5
tau = 0.4
gamma = 0
l_grid = 0:1:4
typo_key = 1
"""
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "tau >= tau_p" in msg
    assert "typo_key" in msg
    assert "gamma > 0" in msg


def test_parse_config_rejects_unknown_kind_and_foreign_keys():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config("experiment = banana\n")
    with pytest.raises(ConfigError, match="not accepted"):
        parse_config(MINIMAL_COHERENT + "\ntheta_grid = 0:1:2\n")
    with pytest.raises(ConfigError, match="requires key"):
        parse_config("experiment = capacity\n")


@pytest.mark.parametrize("p_tilde", ["0", "1"])
def test_parse_config_rejects_degenerate_theta_codewords(p_tilde):
    # at p_tilde 0 or 1 the two codewords coincide and theta_ensemble has no basis
    with pytest.raises(ConfigError, match="p_tilde must lie in \\(0, 1\\) for theta-sweep"):
        parse_config(SMALL_THETA.replace("p_tilde = 0.4339", f"p_tilde = {p_tilde}"))


@pytest.mark.parametrize("kind", sorted(TWO_USE_EXTRAS))
def test_parse_config_rejects_n_uses_other_than_two_for_two_use_kinds(kind):
    text = f"experiment = {kind}\nlambda = 1\ntau_p = 0.464\ngamma = 0.5\n{TWO_USE_EXTRAS[kind]}\n"
    assert parse_config(text + "n_uses = 2\n").kind == kind
    with pytest.raises(ConfigError, match=f"experiment '{kind}' reports two-use quantities"):
        parse_config(text + "n_uses = 3\n")


def test_run_coherent_sweep_writes_csv_and_summary(tmp_path):
    config = parse_config(MINIMAL_COHERENT)
    status = run(config, tmp_path)
    assert status == 0
    header, rows = read_csv(tmp_path / "tiny.csv")
    assert rows[0]["status"] == "ok"
    assert {"tau", "Ic", "Ic_per_use", "Q_memoryless", "Se", "Sout", "corr_RQ"} <= set(header)
    ic_per_use = [float(r["Ic_per_use"]) for r in rows]
    assert ic_per_use[0] >= ic_per_use[1]
    summary = (tmp_path / "tiny.summary.txt").read_text()
    assert "Ic(tau) non-increasing: PASS" in summary
    assert "identity residual" in summary and "PASS" in summary


def test_run_is_deterministic_and_round_trips(tmp_path):
    config = parse_config(MINIMAL_COHERENT)
    run(config, tmp_path / "a")
    run(config, tmp_path / "b")
    text_a = (tmp_path / "a" / "tiny.csv").read_text()
    text_b = (tmp_path / "b" / "tiny.csv").read_text()
    assert text_a == text_b
    # 17 significant digits reproduce the doubles exactly
    _, rows = read_csv(tmp_path / "a" / "tiny.csv")
    val = float(rows[0]["Ic"])
    assert f"{val:.17g}" == rows[0]["Ic"]


def test_run_threaded_matches_serial(tmp_path):
    config = parse_config(MINIMAL_COHERENT)
    run(config, tmp_path / "serial", threads=1)
    run(config, tmp_path / "pool", threads=2)
    assert (tmp_path / "serial" / "tiny.csv").read_text() == (
        tmp_path / "pool" / "tiny.csv"
    ).read_text()


def test_run_forgetfulness_csv(tmp_path):
    text = """
experiment = forgetfulness
lambda = 1
tau_p = 0.464
tau = 1
gamma = 0.5
l_grid = 0, 2, 4
output = forget.csv
"""
    assert run(parse_config(text), tmp_path) == 0
    _, rows = read_csv(tmp_path / "forget.csv")
    assert len(rows) == 3
    for row in rows:
        assert float(row["lhs"]) <= float(row["bound"])


def test_run_blocking_bound_csv(tmp_path):
    text = """
experiment = blocking-bound
lambda = 1
tau_p = 0.225
tau = 0.225
gamma = 0.05
p_grid = 0.4751
output = block.csv
"""
    assert run(parse_config(text), tmp_path) == 0
    header, rows = read_csv(tmp_path / "block.csv")
    assert len(rows) == 1
    assert {"lhs_Ic", "rhs_Ic", "margin"} <= set(header)
    assert float(rows[0]["margin"]) >= -1e-9


def test_run_eta_curve_and_capacity(tmp_path):
    text = """
experiment = eta-curve
lambda = 1
tau_p = 0.464
gamma_grid = 0, 0.05, 0.5
"""
    assert run(parse_config(text), tmp_path) == 0
    _, rows = read_csv(tmp_path / "eta-curve.csv")
    assert float(rows[0]["eta"]) == pytest.approx(np.cos(0.464) ** 2)

    text2 = """
experiment = capacity
eta_grid = 0.4, 0.95, 1.0
"""
    assert run(parse_config(text2), tmp_path) == 0
    _, rows2 = read_csv(tmp_path / "capacity.csv")
    assert float(rows2[0]["Q"]) == 0.0
    assert float(rows2[2]["Q"]) == pytest.approx(1.0, abs=1e-9)
    assert abs(float(rows2[1]["p_star_Q"]) - 0.4751) < 5e-4


def test_run_theta_sweep_small(tmp_path):
    assert run(parse_config(SMALL_THETA), tmp_path) == 0
    _, rows = read_csv(tmp_path / "theta.csv")
    assert len(rows) == 5
    chis = [float(r["chi"]) for r in rows]
    assert max(chis) == pytest.approx(chis[0])
    summary = (tmp_path / "theta.summary.txt").read_text()
    assert "multiples of pi/2: PASS" in summary


def test_presets_exist_and_validate():
    names = list_presets()
    for expected in ("fig1a", "fig1b", "fig2", "fig3", "fig5", "fig6", "fig7",
                     "forgetfulness", "blocking_bound"):
        assert expected in names
    for name in names:
        config = parse_config(preset_text(name))
        assert config.kind in {
            "coherent-sweep", "holevo-sweep", "optimize", "theta-sweep",
            "dephasing", "forgetfulness", "blocking-bound",
        }


def test_main_validate_and_presets(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL_COHERENT)
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "valid coherent-sweep" in capsys.readouterr().out

    cfg.write_text("experiment = coherent-sweep\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "requires key" in capsys.readouterr().err

    assert main(["presets"]) == 0
    assert "fig1a" in capsys.readouterr().out
    assert main(["presets", "--show", "fig5"]) == 0
    assert "theta-sweep" in capsys.readouterr().out


def test_main_runs_experiment_and_checks_kind(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL_COHERENT)
    assert main(["coherent-sweep", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "tiny.csv").exists()
    capsys.readouterr()
    assert main(["holevo-sweep", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1
    assert "declares experiment" in capsys.readouterr().err


def test_main_dt_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL_COHERENT.replace("tau_offsets = 0, 2", "tau_offsets = 0"))
    assert main(
        ["coherent-sweep", "--config", str(cfg), "--outdir", str(tmp_path), "--dt", "0.002"]
    ) == 0
    _, rows = read_csv(tmp_path / "tiny.csv")
    assert float(rows[0]["dt"]) == pytest.approx(0.002)


def test_config_schedule_requires_one_source(capsys, tmp_path):
    assert main(["coherent-sweep", "--outdir", str(tmp_path)]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_main_reports_missing_config_file_in_one_line(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    for argv in (["coherent-sweep", "--config", missing, "--outdir", str(tmp_path)],
                 ["validate", "--config", missing]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and err.count("\n") == 1


def test_main_reports_unknown_preset_in_one_line(tmp_path, capsys):
    assert main(["coherent-sweep", "--preset", "no-such", "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError: no preset named 'no-such'")
    assert err.count("\n") == 1


def test_main_reports_run_failure_in_one_line(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("no memory left")

    monkeypatch.setattr(cli, "run", fail)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL_COHERENT)
    assert main(["coherent-sweep", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: no memory left\n"
