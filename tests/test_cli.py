"""Command-line interface: commands, exit codes, formats, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from finslerconn import cli, verify
from finslerconn.catalog import catalog, catalog_entry
from finslerconn.cli import main
from finslerconn.errors import DegeneracyError, InvalidStateError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_second_class(capsys):
    code, out, _ = run_cli(
        capsys, "inspect", "--metric", "second-class", "--x", "0,1,0", "--dx", "1,0.5,0.5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degeneracy"]["rank"] == 0
    assert doc["degeneracy"]["D"] == 2
    assert len(doc["connection"]["C"]) == 2
    # the constraint residuals at this point: |C1| = |d2 + x1 d0| = 1.5
    assert abs(abs(doc["connection"]["C"][0]) - 1.5) < 1e-12


def test_inspect_euclidean_zero_spray(capsys):
    code, out, _ = run_cli(
        capsys, "inspect", "--metric", "euclidean-2", "--x", "0,0", "--dx", "3,4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["connection"]["G"] == [0, 0]
    assert doc["connection"]["N"] == [[0, 0], [0, 0]]


def test_inspect_missing_dx_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "inspect", "--metric", "euclidean-2", "--x", "0,0")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidStateError"
    assert "--dx" in payload["message"]


def test_inspect_missing_metric_is_one_json_line(capsys):
    code, out, err = run_cli(capsys, "inspect", "--x", "1.2,0.3", "--dx", "0.6,0.5")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "InvalidStateError"
    assert "--metric" in payload["message"]


def test_negative_vector_value_after_option(capsys):
    args = ("inspect", "--metric", "quartic-root", "--dx", "0.6,0.5")
    code, out, _ = run_cli(capsys, *args, "--x", "-0.5,0.3")
    code_eq, out_eq, _ = run_cli(capsys, *args, "--x=-0.5,0.3")
    assert code == code_eq == 0
    assert out == out_eq


def test_guard_violation_prints_a_plain_float(capsys):
    code, _, err = run_cli(
        capsys, "inspect", "--metric", "riemann-2d-curved", "--x=-0.2,0.3", "--dx", "0.6,0.5"
    )
    assert code == 2
    assert json.loads(err)["message"] == "guard violated: value -0.20866933079506123"


def _strict_loads(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_infinite_error_detail_is_written_as_null(capsys):
    # rank 0, so the wrapped stencil error carries gap_ratio = inf; the
    # stencil point dx - (h/2) e0 lands on L = d0 + d2 = 0
    code, out, err = run_cli(
        capsys, "inspect", "--metric", "second-class", "--x", "0,1,0",
        "--dx", "5.0000000062499995e-05,1,0",
    )
    assert code == 2 and out == ""
    payload = _strict_loads(err)
    assert payload["detail"] == {"gap_ratio": None, "sing_values": [0.0, 0.0, 0.0]}


def test_json_text_is_strict():
    from finslerconn.serialize import to_json_text

    doc = {"nan": float("nan"), "inf": [np.inf, -np.inf, 1.5], "text": 'a\nb\t"c"\x01\\'}
    text = to_json_text(doc)
    # json.loads refuses raw control characters inside strings by default
    assert _strict_loads(text) == {"nan": None, "inf": [None, None, 1.5],
                                   "text": 'a\nb\t"c"\x01\\'}
    assert '"a\\u000ab\\u0009\\"c\\"\\u0001\\\\"' in text


def test_inspect_does_its_base_point_work_once(monkeypatch, capsys):
    import finslerconn.cli as cli_mod
    import finslerconn.connection as conn_mod

    x, dx = [1.2, 0.3], [0.6, 0.5]
    calls = {"jet": 0, "analyze": 0, "N": 0}

    def count(module, name, key, points):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += sum(
                np.array_equal(px, x) and np.array_equal(pdx, dx)
                for px, pdx in points(*args, **kwargs)
            )
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(cli_mod, "compute_jet", "jet", lambda spec, pt, **_: [(pt.x, pt.dx)])
    count(conn_mod, "compute_jets", "jet", lambda spec, xs, dxs, **_: zip(xs, dxs))
    for module in (cli_mod, conn_mod):
        count(module, "analyze", "analyze", lambda jet, **_: [(jet.x, jet.dx)])
        count(module, "coefficients_N", "N", lambda spec, pt, **_: [(pt.x, pt.dx)])
    code, _, _ = run_cli(
        capsys, "inspect", "--metric", "riemann-2d-curved", "--x", "1.2,0.3", "--dx", "0.6,0.5",
        "--curvature",
    )
    assert code == 0
    assert calls == {"jet": 1, "analyze": 1, "N": 1}


def test_halting_run_writes_no_numpy_warning(tmp_path, capsys):
    import warnings

    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"dimension": 3, "expression": "sqrt(d0^2 + d1^2 + d2^2) + x0*d1"}
    ))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            capsys, "geodesic", "--metric", str(path), "--x=0.789,0.839,0.253",
            "--dx=-0.249,0.949,0.278", "--steps", "30", "--h", "0.02",
        )
    assert code == 3
    assert [str(w.message) for w in caught] == []
    for line in err.splitlines():
        json.loads(line)


def test_inspect_bad_point_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "inspect", "--metric", "potential-system",
        "--x", "0,0,0,0", "--dx=-1,0,0,0",
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "DomainError"


@pytest.mark.parametrize("argv, error", [
    (["geodesic", "--metric", "riemann-2d-curved", "--x", "1.2,0.3", "--dx", "0.6,0.5",
      "--steps", "0"], "InvalidStateError"),
    (["inspect", "--metric", "euclidean-2", "--x", "0,0,0", "--dx", "1,0"], "InvalidStateError"),
    (["inspect", "--metric", "euclidean-2", "--x", "nan,0", "--dx", "1,0"], "InvalidStateError"),
    (["geodesic", "--metric", "riemann-2d-curved", "--x", "1.2,nan", "--dx", "1,0",
      "--steps", "2"], "InvalidStateError"),
    (["inspect", "--metric", "/nonexistent/m.json", "--x", "0,0", "--dx", "1,0"],
     "FileNotFoundError"),
    (["inspect", "--metric", "euclidean-2", "--x", "0,abc", "--dx", "1,0"], "ValueError"),
])
def test_input_error_exit_2_with_one_json_line(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == error


@pytest.mark.parametrize("rank_tol", ["nan", "1", "-1e-9"])
def test_inspect_rank_tol_outside_unit_interval_exit_2(capsys, rank_tol):
    code, out, err = run_cli(
        capsys, "inspect", "--metric", "riemann-2d-curved",
        "--x", "1.2,0.3", "--dx", "0.6,0.5", f"--rank-tol={rank_tol}",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "InvalidStateError"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_inspect_homogeneity_tol_not_finite_nonnegative_exit_2(capsys, tol):
    code, out, err = run_cli(
        capsys, "inspect", "--metric", "riemann-2d-curved",
        "--x", "1.2,0.3", "--dx", "0.6,0.5", f"--homogeneity-tol={tol}",
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidStateError"
    assert "homogeneity tolerance" in payload["message"]


def test_inspect_curvature_flag(capsys):
    code, out, _ = run_cli(
        capsys, "inspect", "--metric", "euclidean-2",
        "--x", "0,0", "--dx", "1,1", "--curvature",
    )
    assert code == 0
    doc = json.loads(out)
    assert np.max(np.abs(np.array(doc["curvature"]["R"]))) == 0.0


def test_inspect_metric_file(tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "expression": "sqrt(d0^2 + d1^2)",
        "parameters": {},
        "guard": None,
    }))
    code, out, _ = run_cli(capsys, "inspect", "--metric", str(path), "--x", "0,0", "--dx", "3,4")
    assert code == 0
    assert json.loads(out)["jet"]["L"] == 5.0


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------


def test_geodesic_csv_output(tmp_path, capsys):
    from finslerconn.catalog import catalog_entry
    from finslerconn.dsl import evaluate

    entry = catalog_entry("potential-system")
    x0 = [0.0, 0.5, -0.3, 0.2]
    ray = np.array([1.0, 1.2, 0.9, -0.8])
    dx0 = ray / evaluate(entry.spec, x0, ray)  # unit metric value
    out_path = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "geodesic", "--metric", "potential-system",
        "--x", ",".join(map(str, x0)),
        "--dx", ",".join(repr(float(v)) for v in dx0),
        "--gauge", "arclength",
        "--h", "1e-3", "--steps", "300", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "tau"
    taus = [float(line.split(",")[0]) for line in lines[1:]]
    assert taus == sorted(taus)
    l_col = header.index("L")
    Ls = [float(line.split(",")[l_col]) for line in lines[1:]]
    assert max(Ls) - min(Ls) < 1e-6  # nearly constant in arc length
    summary = json.loads(out)
    assert summary["halt_reason"] is None


def test_geodesic_second_class_constraints_small(tmp_path, capsys):
    out_path = tmp_path / "sc.csv"
    code, _, _ = run_cli(
        capsys, "geodesic", "--metric", "second-class",
        "--x", "0,0.8,0.3", "--dx", "1,0.3,-0.8",
        "--h", "1e-2", "--steps", "80", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    c1 = header.index("C1")
    c2 = header.index("C2")
    for line in lines[1:]:
        parts = line.split(",")
        assert abs(float(parts[c1])) < 1e-8
        assert abs(float(parts[c2])) < 1e-8


def test_geodesic_inadmissible_initial_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "geodesic", "--metric", "potential-system",
        "--x", "0,0,0,0", "--dx=-1,0.1,0,0",
    )
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "InvalidStateError"


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_geodesic_non_finite_step_exit_2(capsys, h):
    code, out, err = run_cli(
        capsys, "geodesic", "--metric", "riemann-2d-curved",
        "--x", "1.2,0.3", "--dx", "0.6,0.5", "--steps", "3", "--h", h,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "InvalidStateError"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_geodesic_initial_node_failure_exit_2(capsys, fmt):
    code, out, err = run_cli(
        capsys, "geodesic", "--metric", "frenkel", "--x", "0,0.1,-0.2,0",
        "--dx", "1,0.5,0.4,1.19e-5", "--steps", "5", "--h", "0.01", "--format", fmt,
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidStateError"
    assert payload["message"].startswith("initial state cannot be resolved: ")


def test_geodesic_halt_exit_3_with_partial_output(tmp_path, capsys):
    out_path = tmp_path / "halt.csv"
    code, out, err = run_cli(
        capsys, "geodesic", "--metric", "riemann-2d-curved",
        "--x", "0.6,0", "--dx", "0.9999,-0.02",
        "--gauge", "time", "--h", "1e-2", "--steps", "500",
        "--out", str(out_path),
    )
    assert code == 3
    assert out_path.exists()
    lines = out_path.read_text().strip().splitlines()
    assert 1 < len(lines) < 502
    assert json.loads(err.strip().splitlines()[-1])["error"] == "TrajectoryHalt"


def test_geodesic_overflow_halt_exit_3(capsys):
    # the first step takes x0 from 1.7e308 past the largest float
    code, out, err = run_cli(
        capsys, "geodesic", "--metric", "euclidean-2", "--x", "1.7e308,0", "--dx", "1,0",
        "--gauge", "arclength", "--h", "1e308",
    )
    assert code == 3
    assert len(out.strip().splitlines()) == 2  # the header and node 0
    assert json.loads(err) == {"error": "TrajectoryHalt", "message": "non-finite state"}


def test_geodesic_json_format(tmp_path, capsys):
    out_path = tmp_path / "traj.json"
    code, _, _ = run_cli(
        capsys, "geodesic", "--metric", "euclidean-2",
        "--x", "0,0", "--dx", "0.6,0.8", "--gauge", "arclength",
        "--h", "0.05", "--steps", "10", "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["nodes"]) == 11
    assert doc["summary"]["L_drift"] == 0.0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_filtered_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "frenkel")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert "frenkel" in out


def test_verify_rejects_broken_metric(tmp_path, capsys):
    # quadratic (degree-2) expression is not positively 1-homogeneous
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({
        "dimension": 2,
        "expression": "d0^2 + d1^2",
        "parameters": {},
        "guard": None,
    }))
    code, out, _ = run_cli(capsys, "verify", "--only", "broken", "--extra-metric", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_verify_norm_conservation_fails_on_halted_transport(monkeypatch):
    transport = verify.parallel_transport

    def halted(*args):
        return dataclasses.replace(transport(*args), halt_reason="DegeneracyError: injected")

    entry = catalog_entry("riemann-2d-curved")
    order_check = verify._check_norm_conservation(entry)[0]
    assert order_check.passed
    monkeypatch.setattr(verify, "parallel_transport", halted)
    order_check = verify._check_norm_conservation(entry)[0]
    assert order_check.name == "transport/norm-conservation-order/riemann-2d-curved"
    assert not order_check.passed


def test_verify_reports_a_raising_check_as_an_error_line(monkeypatch):
    # the first check of each catalog entry and extra metric raises, so
    # each ends in one error line and runs no further check
    def raising(entry, points):
        raise DegeneracyError(f"injected at {entry.name}")

    monkeypatch.setattr(verify, "_check_metric_homogeneity", raising)
    results = verify.run_verification(extra_metrics=[("mine", catalog_entry("euclidean-2").spec)])
    names = [f"error/{e.name}" for e in catalog()] + ["error/extra:mine"]
    assert [r.name for r in results] == names
    assert not any(r.passed for r in results)
    assert results[-1].detail == "DegeneracyError: injected at extra:mine"
    assert "FAIL  error/frenkel" in verify.render_report(results)


def test_verify_determinism_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--only", "degeneracy")
    code2, out2, _ = run_cli(capsys, "verify", "--only", "degeneracy")
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# catalog + config
# ---------------------------------------------------------------------------


def test_catalog_listing_and_dump(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    names = {row["name"] for row in json.loads(out)}
    assert "frenkel" in names and "second-class" in names

    code, out, _ = run_cli(capsys, "catalog", "--name", "second-class")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3
    assert "x1" in doc["expression"]


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"h": 0.05, "steps": 10, "gauge": "arclength"}))
    out_path = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "--config", str(cfg), "geodesic", "--metric", "euclidean-2",
        "--x", "0,0", "--dx", "0.6,0.8", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 12  # header + 11 nodes from the config's steps=10
    # explicit flags still win over config values
    code, _, _ = run_cli(
        capsys, "--config", str(cfg), "geodesic", "--metric", "euclidean-2",
        "--x", "0,0", "--dx", "0.6,0.8", "--steps", "4", "--out", str(out_path),
    )
    assert code == 0
    assert len(out_path.read_text().strip().splitlines()) == 6


def test_config_values_parse_like_their_flags(tmp_path, capsys):
    # a number's text through the option's type, a choice, a JSON boolean
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": "2", "h": 1, "format": "json", "project": False}))
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "geodesic", "--metric", "euclidean-2",
        "--x", "0,0", "--dx", "0.6,0.8",
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["steps_requested"], doc["h"], len(doc["nodes"])) == (2, 1.0, 3)


def test_config_repeatable_option_takes_a_list(tmp_path):
    cfg = tmp_path / "run.json"
    argv = ["--config", str(cfg), "verify"]
    cfg.write_text(json.dumps({"extra_metric": ["a.json", "b.json"]}))
    parser = cli.build_parser()
    cli._apply_config(parser, argv)
    assert parser.parse_args(argv).extra_metric == ["a.json", "b.json"]
    cfg.write_text(json.dumps({"extra_metric": "a.json"}))
    with pytest.raises(InvalidStateError, match="not valid for option 'extra_metric'"):
        cli._apply_config(cli.build_parser(), argv)


def test_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "catalog")
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidStateError"
    assert "bogus_key" in payload["message"]


@pytest.mark.parametrize("content, error", [
    ("{bad", "JSONDecodeError"),
    (None, "FileNotFoundError"),
    ("[1, 2]", "InvalidStateError"),
    # each value is parsed as its option parses its command-line text
    ('{"steps": 2.5}', "InvalidStateError"),
    ('{"steps": [3]}', "InvalidStateError"),
    ('{"h": [1]}', "InvalidStateError"),
    ('{"out": 5}', "InvalidStateError"),
    ('{"format": "xml"}', "InvalidStateError"),
    ('{"project": "no"}', "InvalidStateError"),
])
def test_config_unreadable_exit_2(tmp_path, capsys, content, error):
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_text(content)
    code, out, err = run_cli(capsys, "--config", str(cfg), "catalog")
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == error


def test_env_verbosity_does_not_affect_output(monkeypatch, capsys):
    monkeypatch.setenv("FINSLER_LOG", "debug")
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "frenkel" in out


def test_cli_byte_identical_inspect(capsys):
    args = ["inspect", "--metric", "riemann-2d-curved", "--x", "1.1,0.4", "--dx", "0.5,0.6"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
