"""End-to-end CLI invocations: bundles, analyses, determinism, error paths."""

import json

import pytest

from orbitcodes.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "inst1_p2.json"
    code = main(["instantiate", "--p", "2", "--m", "2", "--inst", "I", "--r", "1/2", "--out", str(path)])
    assert code == 0
    return str(path)


def test_instantiate_bundle_contents(bundle_path):
    with open(bundle_path) as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 1
    assert doc["n"] == 48
    assert doc["graph"] == {
        "n_left": 12,
        "n_right": 16,
        "left_degree": 4,
        "right_degree": 3,
        "edges": 48,
        "simple": True,
    }
    assert len(doc["omega"]) == 48
    assert doc["field"]["p"] == 2 and doc["field"]["k"] == 6


def test_instantiate_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["instantiate", "--p", "2", "--m", "2", "--inst", "I", "--r", "1/2", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_instantiate_rejects_composite_p(capsys):
    code, out = _run(capsys, "instantiate", "--p", "4", "--m", "2", "--inst", "I")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "ParameterError"
    assert "prime" in doc["error"]["condition"]


def test_instantiate_rejects_bad_gamma(capsys):
    code, out = _run(capsys, "instantiate", "--p", "2", "--m", "2", "--inst", "II", "--gamma", "1/3")
    assert code == 2
    assert "gamma" in json.loads(out)["error"]["condition"]


def test_instantiate_ii_formula(capsys):
    code, out = _run(capsys, "instantiate", "--p", "2", "--m", "2", "--inst", "II", "--gamma", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 448
    assert doc["graph"]["n_left"] == 112 and doc["graph"]["n_right"] == 64


def test_graph_csv_export(bundle_path, capsys):
    code, out = _run(capsys, "graph", "--bundle", bundle_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "edge_id,left_idx,right_idx"
    assert len(lines) == 49
    assert lines[1].startswith("0,")


def test_spectrum_command(bundle_path, capsys):
    code, out = _run(capsys, "spectrum", "--bundle", bundle_path)
    assert code == 0
    doc = json.loads(out)
    sec = doc["spectrum"]
    assert abs(sec["sigma2_exact"] - sec["sigma2_svd"]) <= 1e-9
    assert sec["sigma2_exact"] <= sec["bound_instance"] + 1e-9
    assert sec["lambda_max"] == "1/3"
    assert sec["ok"] is True


def test_rate_command(bundle_path, capsys):
    code, out = _run(capsys, "rate", "--bundle", bundle_path)
    assert code == 0
    sec = json.loads(out)["rate"]
    assert sec["dim"] == 11
    assert sec["monomial_count"] == 2
    assert sec["ok"] is True


def test_distance_command(bundle_path, capsys):
    code, out = _run(capsys, "distance", "--bundle", bundle_path)
    assert code == 0
    sec = json.loads(out)["distance"]
    assert sec["status"] == "computed"
    assert sec["distance"] == 18
    assert sec["mode"] == "prime-subcode"


def test_encode_verify_roundtrip_and_corruption(bundle_path, tmp_path, capsys):
    # encode the monomial X (a legal message), verify, then corrupt and re-verify
    msg = tmp_path / "msg.json"
    msg.write_text(json.dumps({"coeffs": [[0], [1]]}))
    cw_path = tmp_path / "cw.json"
    code = main(["encode", "--bundle", bundle_path, "--message", str(msg), "--out", str(cw_path)])
    assert code == 0
    code, out = _run(capsys, "verify", "--bundle", bundle_path, "--codeword", str(cw_path))
    assert code == 0
    assert json.loads(out)["verify"]["ok"] is True

    data = json.loads(cw_path.read_text())
    data["values"][0] = [1 - data["values"][0][0]] + data["values"][0][1:]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data))
    code, out = _run(capsys, "verify", "--bundle", bundle_path, "--codeword", str(bad_path))
    assert code == 1
    doc = json.loads(out)["verify"]
    assert doc["ok"] is False
    assert doc["local_rs"]["failures"]  # the failing vertex is listed


def test_encode_rejects_illegal_message(bundle_path, tmp_path, capsys):
    msg = tmp_path / "msg.json"
    # X^2 violates the scaling-side constraint (deg_h = 2 >= 3/2)
    msg.write_text(json.dumps({"coeffs": [[0], [0], [1]]}))
    code, out = _run(capsys, "encode", "--bundle", bundle_path, "--message", str(msg))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ConstraintViolation"


def test_verify_basis_mode(bundle_path, capsys):
    code, out = _run(capsys, "verify", "--bundle", bundle_path)
    assert code == 0
    sec = json.loads(out)["verify"]
    assert sec["ok"] is True
    assert sec["basis_checked"] == 11


def test_report_full_exit_zero(bundle_path, capsys):
    code, out = _run(capsys, "report", "--bundle", bundle_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    for section in ("spectrum", "rate", "distance", "verify"):
        assert section in doc


def test_report_section_flags(bundle_path, capsys):
    code, out = _run(capsys, "report", "--bundle", bundle_path, "--spectrum")
    assert code == 0
    doc = json.loads(out)
    assert "spectrum" in doc and "rate" not in doc


def test_report_determinism(bundle_path, capsys):
    _, out1 = _run(capsys, "report", "--bundle", bundle_path)
    _, out2 = _run(capsys, "report", "--bundle", bundle_path)
    assert out1 == out2


def test_sweep_csv(capsys):
    code, out = _run(
        capsys,
        "sweep",
        "--inst",
        "I",
        "--m",
        "2",
        "--r-grid",
        "1/4,1/2,3/4",
        "--rho-grid",
        "1/2,1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 6
    assert lines[0].startswith("inst,m,r,rho,gamma,")
    # the r=1/2, rho=1 row carries the plateau volume
    row = [l for l in lines if l.startswith("I,2,1/2,1,")][0]
    assert "0.000260416" in row


def test_budget_env_override(bundle_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITCODES_DISTANCE_BUDGET", "4")
    code, out = _run(capsys, "distance", "--bundle", bundle_path)
    assert code == 0  # budget skip is not a failure
    sec = json.loads(out)["distance"]
    assert sec["status"].startswith("skipped: budget")


def _assert_structured_error(code, out, *fragments):
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ParameterError"
    for frag in fragments:
        assert frag in err["condition"]


def test_budget_env_non_integer_is_structured_error(bundle_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITCODES_DISTANCE_BUDGET", "abc")
    code, out = _run(capsys, "distance", "--bundle", bundle_path)
    _assert_structured_error(code, out, "ORBITCODES_DISTANCE_BUDGET", "not an integer")


def test_budget_env_negative_is_structured_error(bundle_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITCODES_VERIFY_BASIS", "-1")
    code, out = _run(capsys, "verify", "--bundle", bundle_path)
    _assert_structured_error(code, out, "ORBITCODES_VERIFY_BASIS", "negative")


def test_invalid_json_message_is_structured_error(bundle_path, tmp_path, capsys):
    msg = tmp_path / "msg.json"
    msg.write_text("{not json")
    code, out = _run(capsys, "encode", "--bundle", bundle_path, "--message", str(msg))
    _assert_structured_error(code, out, "not valid JSON")


def test_message_without_coeffs_is_structured_error(bundle_path, tmp_path, capsys):
    msg = tmp_path / "msg.json"
    msg.write_text(json.dumps({"values": [[1]]}))
    code, out = _run(capsys, "encode", "--bundle", bundle_path, "--message", str(msg))
    _assert_structured_error(code, out, "'coeffs'")


def test_codeword_without_values_is_structured_error(bundle_path, tmp_path, capsys):
    cw = tmp_path / "cw.json"
    cw.write_text(json.dumps({"coeffs": [[1]]}))
    code, out = _run(capsys, "verify", "--bundle", bundle_path, "--codeword", str(cw))
    _assert_structured_error(code, out, "'values'")


def test_missing_message_file_is_structured_error(bundle_path, tmp_path, capsys):
    code, out = _run(capsys, "encode", "--bundle", bundle_path, "--message", str(tmp_path / "absent.json"))
    _assert_structured_error(code, out, "absent.json")


def test_missing_codeword_file_is_structured_error(bundle_path, tmp_path, capsys):
    code, out = _run(capsys, "verify", "--bundle", bundle_path, "--codeword", str(tmp_path / "absent.json"))
    _assert_structured_error(code, out, "absent.json")
