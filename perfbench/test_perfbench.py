"""Tests of the benchmark itself: generator, tracer and correctness checks."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from memchannel import admap, cli, infomeasures, states  # noqa: E402

from perfbench import checks, opcount, reference, tracing, worker  # noqa: E402
from perfbench.workloads import LAM, OFFSET_SPAN, WORKLOADS, Request, RequestStream  # noqa: E402


def fake_optimum(quantity, gamma, tau_p):
    return 0.45 if quantity == "coherent" else 0.43


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_is_deterministic_per_seed(name):
    a, b = RequestStream(name, 7, fake_optimum), RequestStream(name, 7, fake_optimum)
    other = RequestStream(name, 8, fake_optimum)
    for i in range(3):
        assert a.cycle(i) == b.cycle(i)
        assert [r.text for r in a.cycle(i)] != [r.text for r in other.cycle(i)]
    assert a.cycle(0) != a.cycle(1)
    assert a.warmup() == b.warmup()
    for req in a.cycle(0) + [a.warmup()]:
        config = cli.parse_config(req.text)  # the program accepts every generated config
        assert config.kind == req.kind
        n = len(req.taus)
        offsets = [tau - req.tau_p for tau in req.taus]
        for j, off in enumerate(offsets):  # one offset in each of n equal bins
            assert OFFSET_SPAN * j / n <= off + 1e-12 <= OFFSET_SPAN * (j + 1) / n + 1e-12
        if n % 2 == 0:  # antithetic pairs fix the idle work of a request
            assert sum(offsets) == pytest.approx(n * OFFSET_SPAN / 2)


def test_stream_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown workload"):
        RequestStream("nope", 1, fake_optimum)


def test_counts_repeat_and_see_the_shared_first_transit():
    stream = RequestStream("coherent-weak", 3, fake_optimum)
    req = stream.cycle(0)[0]
    c = opcount.request_counts(req)
    assert c == opcount.request_counts(req)
    # 8 taus x 2 uses x 1000 transit steps; every tau after the first repeats use 1's transit
    assert c.transit_steps == 8 * 2 * 1000
    assert c.repeated_windows == 7
    assert c.idle_steps == sum(opcount.rk4_steps(t - req.tau_p, 0.1) for t in req.taus) * 2


def test_tracer_restores_every_binding(tmp_path):
    before = tracing.bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.bindings() != before
        cli.run(cli.parse_config("experiment = capacity\neta_grid = 0.6, 0.8\n"),
                tmp_path, 1)
        infomeasures.coherent_information(states.purified_qubit_train(0.4, 0.0, 1))
    assert tracing.bindings() == before
    names = {s[2] for s in tracer.spans}
    assert {"cli.parse_config", "cli.run", "admap.memoryless_Q", "states.purified_qubit_train",
            "infomeasures.von_neumann_entropy", "qlinalg.eigvals_hermitian",
            "states.DensityMatrix.ptrace"} <= names
    stats = tracing.span_stats(tracer.spans)
    vn = stats["infomeasures.von_neumann_entropy"]
    assert vn["calls"] >= 2 and 0 <= vn["self_s"] <= vn["busy_s"]

    with pytest.raises(ZeroDivisionError), tracing.Tracer():
        1 / 0
    assert tracing.bindings() == before


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [(1, None, "cli.run", 0.0, 10.0, 0),
             (2, 1, "experiments.a", 1.0, 5.0, 0),
             (3, 1, "experiments.b", 2.0, 6.0, 0)]  # two pool threads overlap
    stats = tracing.span_stats(spans)
    assert stats["cli.run"]["self_s"] == pytest.approx(5.0)
    assert tracing.outermost_busy(spans, "experiments") == pytest.approx(8.0)


def _holevo_request(tmp_path):
    text = ("experiment = holevo-sweep\nlambda = 1\ntau_p = 0.464\ngamma = 0.5\n"
            "p_tilde = 0.43\ntau_offsets = 0.0\noutput = h.csv\n")
    req = Request("holevo-sweep", text, "h.csv", 0.464, 0.5, (0.464,), 1, "holevo", 0.43)
    rc = cli.run(cli.parse_config(text), tmp_path, 1)
    return req, rc, tmp_path / "h.csv"


def _rewrite(path, column, fn):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    i = header.index(column)
    cells[i] = fn(cells[i])
    path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")


@pytest.mark.parametrize("column", ["chi1", "chi"])
def test_perturbed_output_value_is_a_failed_point(tmp_path, column):
    req, rc, csv_path = _holevo_request(tmp_path)
    assert checks.check_request(req, csv_path, rc, None).failed == 0
    _rewrite(csv_path, column, lambda v: repr(float(v) + 1e-6))
    out = checks.check_request(req, csv_path, rc, None)
    assert (out.attempted, out.failed) == (1, 1)
    assert out.reasons[0].startswith(f"row 0: {column} ")


def test_fail_line_or_bad_status_fails_the_request(tmp_path):
    req, rc, csv_path = _holevo_request(tmp_path)
    summary = csv_path.with_suffix(".summary.txt")
    summary.write_text(summary.read_text().replace(": PASS", ": FAIL", 1))
    assert checks.check_request(req, csv_path, rc, None).failed == 1
    assert checks.check_request(req, csv_path, 1, None).failed == 1
    assert checks.check_request(req, csv_path, None, "ValueError: x").failed == 1


def test_reference_generator_matches_the_program_model():
    from memchannel import dynamics
    from memchannel.qlinalg import SpaceLayout

    layout = SpaceLayout([("Q1", 2), ("Q2", 2), ("O", reference.LEVELS)])
    rng = np.random.default_rng(1)
    x = rng.normal(size=(reference.D,) * 2) + 1j * rng.normal(size=(reference.D,) * 2)
    for k in range(2):
        H = dynamics.jc_hamiltonian(f"Q{k + 1}", layout, 0.7)
        assert np.array_equal(reference.transit_hamiltonian(k, 0.7), H.real)
        want = dynamics.lindblad_rhs(states.DensityMatrix.trusted(x, layout), H, 0.3)
        got = reference.liouvillian(reference.transit_hamiltonian(k, 0.7), 0.3) @ x.ravel()
        assert np.allclose(got.reshape(x.shape), want, atol=1e-13)


def _coherent_csv(path, req, ic1, ic):
    path.with_suffix(".summary.txt").write_text("check x: PASS\n")
    path.write_text(f"tau,Ic1,Ic,identity_gap,status\n{req.taus[0]!r},{ic1!r},{ic!r},0.0,ok\n")


def test_two_use_values_are_checked_against_the_exact_channel(tmp_path):
    eta = admap.eta_gamma(0.05, LAM, 0.225)
    req = Request("coherent-sweep", "", "c.csv", 0.225, 0.05, (1.0,), 1, "coherent", 0.47)
    ic1 = float(admap.coherent_info_diagonal(0.47, eta))
    ic = reference.coherent_info(reference.channel(LAM, 0.05, 0.225, 1.0), 0.47)
    path = tmp_path / "c.csv"
    for values, failed in (((ic1, ic), 0), ((ic1 + 1e-8, ic), 1), ((ic1, ic + 1e-8), 1)):
        _coherent_csv(path, req, *values)
        assert checks.check_request(req, path, 0, None).failed == failed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_request_kind_passes_its_checks_on_the_program(tmp_path, name):
    for req in RequestStream(name, 5, fake_optimum).cycle(0):
        text = "\n".join(line.split(",")[0] if line.startswith("tau_offset") else line
                         for line in req.text.splitlines())  # first tau only
        req = replace(req, text=text, taus=req.taus[:1], rows=1)
        rc = cli.run(cli.parse_config(text), tmp_path, 1)
        out = checks.check_request(req, tmp_path / req.output, rc, None)
        assert (out.attempted, out.failed) == (1, 0), out.reasons


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stream = RequestStream("holevo-damped-2t", 1, fake_optimum)
    tracer = tracing.Tracer()
    tracer.spans.append((1, None, "cli.run", 0.0, 1.0, 0))
    done = [{"req": stream.cycle(0)[0], "err": "skipped", "cpu": 0.5}]
    metrics = worker.layer_metrics(tracer, stream, {"done": done, "wall": 1.0}, {"wall": 0.9}, ROOT)
    assert [(k, m["unit"]) for k, m in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
