"""End-to-end CLI invocations: bundles, analyses, determinism, error paths."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcodes
from orbitcodes import cli, report
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


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules loaded by other tests do not count
    src = str(Path(orbitcodes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, orbitcodes.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_section_imports_no_numpy_random():
    # the Schur pairs come from the stdlib stream; numpy.random costs several ms to import in a fresh process
    src = str(Path(orbitcodes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys\n"
        "from orbitcodes.instance import InstanceConfig, build_instance\n"
        "from orbitcodes.report import verify_section\n"
        "sec = verify_section(build_instance(InstanceConfig('I', 2, 2)))\n"
        "print(sec['ok'], sec['schur_pairs_checked'], 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["True", "10", "False"]


def test_ladder_timer_digests_the_bytes_of_orbitcodes_report(bundle_path, tmp_path):
    # tools/ladder.py builds the rung and makes the report's calls, so its digest is that of the report file
    out = tmp_path / "report.json"
    assert main(["report", "--bundle", bundle_path, "--rate", "--verify", "--out", str(out)]) == 0
    tool = Path(__file__).resolve().parents[1] / "tools" / "ladder.py"
    argv = [sys.executable, str(tool), "--inst", "I", "--p", "2", "--m", "2", "--sections", "rate,verify"]
    line = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
    assert line["report_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert line["ok"] and line["n"] == line["D"] == 48 and sorted(line["sections"]) == ["rate", "verify"]
    assert all(sec["s"] >= 0 and sec["minflt"] >= 0 for sec in [line["build"], *line["sections"].values()])


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


@pytest.mark.parametrize("grid", [",", "1/2,,1/3", "1/2,"], ids=["only-a-comma", "empty-middle", "trailing-comma"])
def test_sweep_refuses_an_empty_grid_entry(capsys, grid):
    for r_grid, rho_grid in ((grid, "1"), ("1/2", grid)):
        code, out = _run(capsys, "sweep", "--inst", "I", "--m", "2", "--r-grid", r_grid, "--rho-grid", rho_grid)
        _assert_structured_error(code, out, "malformed fraction list", repr(grid))


def test_sweep_needs_a_gamma_grid_for_ii(capsys):
    argv = ["sweep", "--inst", "II", "--m", "2", "--r-grid", "1/2", "--rho-grid", "1/2,1"]
    code, out = _run(capsys, *argv)
    _assert_structured_error(code, out, "instantiation II needs --gamma-grid")
    code, out = _run(capsys, *argv, "--gamma-grid", "1/2,1")
    assert code == 0
    assert [line.split(",")[4] for line in out.strip().splitlines()[1:]] == ["1/2", "1", "1/2", "1"]


def test_sweep_refuses_a_gamma_grid_for_i(capsys):
    argv = ["sweep", "--inst", "I", "--m", "2", "--r-grid", "1/2", "--rho-grid", "1", "--gamma-grid", "1/2"]
    code, out = _run(capsys, *argv)
    _assert_structured_error(code, out, "instantiation I takes no --gamma-grid")


def test_budget_env_override(bundle_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITCODES_DISTANCE_BUDGET", "4")
    code, out = _run(capsys, "distance", "--bundle", bundle_path)
    assert code == 0  # budget skip is not a failure
    sec = json.loads(out)["distance"]
    assert sec["status"].startswith("skipped: budget")
    assert "min_distance_sampled (--sample) gives an upper bound" in sec["status"]


def test_refused_svd_oracle_still_feeds_sigma2_to_the_report(bundle_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITCODES_ORACLE_EDGES", "47")
    code, out = _run(capsys, "report", "--bundle", bundle_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["spectrum"]["oracle"] == "skipped: budget (graph of 48 edges exceeds the oracle edge budget 47)"
    assert doc["distance"]["expander_form"] == "finite-p form"


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


@pytest.mark.parametrize("value,fragment", [("2e6", "not an integer"), ("-5", "negative")])
def test_oracle_edges_env_bad_value_is_structured_error(bundle_path, capsys, monkeypatch, value, fragment):
    monkeypatch.setenv("ORBITCODES_ORACLE_EDGES", value)
    code, out = _run(capsys, "spectrum", "--bundle", bundle_path)
    _assert_structured_error(code, out, "ORBITCODES_ORACLE_EDGES", fragment)


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


@pytest.mark.parametrize("option,key", [("--message", "coeffs"), ("--codeword", "values")])
@pytest.mark.parametrize(
    "entry",
    [[1.5], [1e30], ["1"], [True], [0, 0, 0, 0, 0, 0, 0], 1, "1"],
    ids=["float", "huge-float", "string", "bool", "more-than-k-digits", "bare-int", "bare-string"],
)
def test_digit_input_that_is_not_a_list_of_integers_is_structured_error(
    bundle_path, tmp_path, capsys, option, key, entry
):
    # only lists of at most k JSON integers are digit input; nothing is coerced
    path = tmp_path / "digits.json"
    path.write_text(json.dumps({key: [entry]}))
    command = "encode" if option == "--message" else "verify"
    code, out = _run(capsys, command, "--bundle", bundle_path, option, str(path))
    _assert_structured_error(code, out, repr(key), "integers")


def test_missing_message_file_is_structured_error(bundle_path, tmp_path, capsys):
    code, out = _run(capsys, "encode", "--bundle", bundle_path, "--message", str(tmp_path / "absent.json"))
    _assert_structured_error(code, out, "absent.json")


def test_missing_codeword_file_is_structured_error(bundle_path, tmp_path, capsys):
    code, out = _run(capsys, "verify", "--bundle", bundle_path, "--codeword", str(tmp_path / "absent.json"))
    _assert_structured_error(code, out, "absent.json")


@pytest.mark.parametrize("option", ["--bundle", "--message", "--codeword"])
def test_input_file_that_is_not_utf8_is_structured_error(bundle_path, tmp_path, capsys, option):
    # a UTF-16 file with its byte-order mark ff fe is malformed input, not a crash
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"coeffs": [], "values": []}'.encode("utf-16-le"))
    command = {"--bundle": "rate", "--message": "encode", "--codeword": "verify"}[option]
    argv = [command, "--bundle", str(path)] if option == "--bundle" else [command, "--bundle", bundle_path, option, str(path)]
    code, out = _run(capsys, *argv)
    _assert_structured_error(code, out, f"{path} is not valid JSON", "utf-8")


@pytest.mark.parametrize("target", ["missing-directory", "existing-directory"])
@pytest.mark.parametrize("command", ["instantiate", "report"])
def test_out_path_that_cannot_be_written_is_structured_error(bundle_path, tmp_path, capsys, command, target):
    out = tmp_path / "absent" / "out.json" if target == "missing-directory" else tmp_path
    if command == "instantiate":
        argv = ["instantiate", "--p", "2", "--m", "2", "--inst", "I"]
    else:
        argv = ["report", "--bundle", bundle_path, "--rate"]
    code, text = _run(capsys, *argv, "--out", str(out))
    _assert_structured_error(code, text, f"cannot write {out}: ")
    assert not (tmp_path / "absent").exists()


def _bundle_with(tmp_path, doc):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _valid_bundle(bundle_path):
    with open(bundle_path) as fh:
        return json.load(fh)


def test_bundle_that_is_an_array_is_structured_error(tmp_path, capsys):
    code, out = _run(capsys, "spectrum", "--bundle", _bundle_with(tmp_path, [1, 2]))
    _assert_structured_error(code, out, "JSON object", "list")


def test_bundle_config_that_is_a_list_is_structured_error(bundle_path, tmp_path, capsys):
    doc = _valid_bundle(bundle_path)
    doc["config"] = ["I", 2, 2]
    code, out = _run(capsys, "spectrum", "--bundle", _bundle_with(tmp_path, doc))
    _assert_structured_error(code, out, "config must be a JSON object")


@pytest.mark.parametrize("key", ["instantiation", "p", "m"])
def test_bundle_config_without_a_required_key_is_structured_error(bundle_path, tmp_path, capsys, key):
    doc = _valid_bundle(bundle_path)
    del doc["config"][key]
    code, out = _run(capsys, "spectrum", "--bundle", _bundle_with(tmp_path, doc))
    _assert_structured_error(code, out, f"lacks {key}")


@pytest.mark.parametrize("key", ["m", "D"])
def test_bundle_config_with_a_non_integer_value_is_structured_error(bundle_path, tmp_path, capsys, key):
    doc = _valid_bundle(bundle_path)
    doc["config"][key] = "two"
    code, out = _run(capsys, "spectrum", "--bundle", _bundle_with(tmp_path, doc))
    _assert_structured_error(code, out, "malformed config value")


def test_config_validation_errors_are_not_reported_as_malformed_values(bundle_path, tmp_path, capsys):
    # only a value that fails to convert carries the prefix; the config's own checks keep their wording
    code, out = _run(capsys, "instantiate", "--p", "2", "--m", "2", "--inst", "I", "--seed", "-1")
    _assert_structured_error(code, out)
    assert json.loads(out)["error"]["condition"] == "seed must be >= 0, got -1"
    cases = [
        ("m", 1, "m must be >= 2, got 1"),
        ("instantiation", ["I"], "instantiation must be 'I' or 'II', got ['I']"),
        ("m", "two", "malformed config value: invalid literal for int() with base 10: 'two'"),
        ("p", None, "malformed config value: int() argument must be"),
    ]
    for key, value, condition in cases:
        doc = _valid_bundle(bundle_path)
        doc["config"][key] = value
        code, out = _run(capsys, "spectrum", "--bundle", _bundle_with(tmp_path, doc))
        _assert_structured_error(code, out)
        assert json.loads(out)["error"]["condition"].startswith(condition), key


@pytest.mark.parametrize(
    "key,value",
    [("m", 2.6), ("D", 7.9), ("D", True), ("p", 2.0), ("seed", 1.5), ("seed", False)],
    ids=["float-m", "float-D", "bool-D", "float-p", "float-seed", "bool-seed"],
)
def test_bundle_config_with_a_float_or_bool_integer_is_structured_error(bundle_path, tmp_path, capsys, key, value):
    # JSON floats and booleans are refused, not truncated to an int
    doc = _valid_bundle(bundle_path)
    doc["config"][key] = value
    code, out = _run(capsys, "spectrum", "--bundle", _bundle_with(tmp_path, doc))
    _assert_structured_error(code, out, "malformed config value", f"{key}={value!r}")


@pytest.mark.parametrize(
    "key,value",
    [("r", 0.1), ("gamma", 0.5), ("r", True)],
    ids=["float-r", "float-gamma", "bool-r"],
)
def test_bundle_config_with_a_float_or_bool_fraction_is_structured_error(bundle_path, tmp_path, capsys, key, value):
    # a float holds the nearest binary fraction (0.1 is 3602879701896397/36028797018963968), not the rational it spells
    doc = _valid_bundle(bundle_path)
    if key == "gamma":
        doc["config"].update(instantiation="II", p=3)  # gamma = 1/2 divides p - 1 = 2
    doc["config"][key] = value
    code, out = _run(capsys, "rate", "--bundle", _bundle_with(tmp_path, doc))
    _assert_structured_error(code, out, "malformed config value", f"{key}={value!r}")


GRAPH_COUNTS = ("n_left", "n_right", "left_degree", "right_degree", "edges")


@pytest.mark.parametrize(
    "key,tamper",
    [
        ("schema_version", lambda v: True),
        ("n", float),
        ("alpha", lambda v: [float(c) for c in v]),
        *[("graph", lambda g, c=c: {**g, c: float(g[c])}) for c in GRAPH_COUNTS],
        ("graph", lambda g: {**g, "simple": int(g["simple"])}),
    ],
    ids=["bool-schema_version", "float-n", "float-alpha", *(f"float-graph-{c}" for c in GRAPH_COUNTS), "int-graph-simple"],
)
def test_bundle_with_a_bool_or_float_for_a_stored_integer_is_structured_error(
    bundle_path, tmp_path, capsys, key, tamper
):
    # true == 1 and 48.0 == 48 in Python, but the bundle records JSON integers
    # (and the graph summary's simple flag a JSON boolean)
    doc = _valid_bundle(bundle_path)
    assert tamper(doc[key]) == doc[key]
    doc[key] = tamper(doc[key])
    code, out = _run(capsys, "rate", "--bundle", _bundle_with(tmp_path, doc))
    _assert_structured_error(code, out)


def test_running_out_of_memory_is_structured_error(capsys, monkeypatch):
    # numpy reports a failed allocation with a private subclass of MemoryError
    class _ArrayMemoryError(MemoryError):
        pass

    def exhausted(config):
        raise _ArrayMemoryError("Unable to allocate 26.3 GiB for an array")

    monkeypatch.setattr(cli, "build_instance", exhausted)
    code, out = _run(capsys, "instantiate", "--p", "2", "--m", "5", "--inst", "I")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "MemoryError", "condition": "Unable to allocate 26.3 GiB for an array"}


def test_instance_too_large_to_index_is_structured_error(bundle_path, tmp_path, capsys):
    # p^m = 2^100 exceeds every index, so the build stops before it allocates; at m = 40 it runs out of memory
    flag = ["instantiate", "--p", "2", "--m", "100", "--inst", "I"]
    doc = _valid_bundle(bundle_path)
    doc["config"]["m"] = 100
    for argv in (flag, ["spectrum", "--bundle", _bundle_with(tmp_path, doc)]):
        code, out = _run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "OverflowError"


def test_bundle_config_with_a_decimal_fraction_string_is_accepted(bundle_path, tmp_path, capsys):
    doc = _valid_bundle(bundle_path)
    doc["config"]["r"] = "0.5"
    code, out = _run(capsys, "rate", "--bundle", _bundle_with(tmp_path, doc))
    assert code == 0
    assert json.loads(out)["config"]["r"] == "1/2"


@pytest.fixture(scope="module")
def bundle_ii_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "inst2_p2.json"
    assert main(["instantiate", "--p", "2", "--m", "2", "--inst", "II", "--gamma", "1", "--out", str(path)]) == 0
    return str(path)


def test_budget_past_int64_skips_to_the_sampler(bundle_ii_path, capsys, monkeypatch):
    # II(2,2) at D = n: 2^70 admits the 2^70 prime-subcode messages, whose int64 codes would overflow
    monkeypatch.setenv("ORBITCODES_DISTANCE_BUDGET", str(2**70))
    code, out = _run(capsys, "distance", "--bundle", bundle_ii_path, "--sample", "5")
    assert code == 0
    sec = json.loads(out)["distance"]
    assert sec["status"] == (
        "skipped: budget (p^dim = 2^70 messages reach 2^63, the int64 limit of their codes; "
        "min_distance_sampled (--sample) gives an upper bound instead)"
    )
    assert sec["ok"] and 1 <= sec["sampled_upper_bound"] <= 448


@pytest.mark.parametrize("command", ["distance", "report"])
def test_negative_sample_is_structured_error(bundle_ii_path, capsys, command):
    # II(2,2) is over the exhaustive budget, so the sample count is what the distance section would use
    code, out = _run(capsys, command, "--bundle", bundle_ii_path, "--sample", "-5")
    _assert_structured_error(code, out, "sample count must be >= 0, got -5")


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--spectrum"],
        ["report", "--rate", "--verify"],
        ["report", "--spectrum", "--rate"],
        ["report"],
        ["distance"],
    ],
)
def test_negative_sample_is_refused_before_any_section(bundle_path, capsys, monkeypatch, argv):
    # the count is refused whatever sections are chosen, and before any of them runs
    called = []
    for name in ("spectrum", "rate", "distance", "verify"):
        section = f"{name}_section"
        for module in (cli, report):
            monkeypatch.setattr(module, section, lambda *a, _name=section, **kw: called.append(_name))
    code, out = _run(capsys, *argv, "--bundle", bundle_path, "--sample", "-3")
    _assert_structured_error(code, out, "sample count must be >= 0, got -3")
    assert called == []


def test_bundle_config_with_an_integer_string_is_accepted(bundle_path, tmp_path, capsys):
    doc = _valid_bundle(bundle_path)
    doc["config"]["D"] = "40"
    code, out = _run(capsys, "rate", "--bundle", _bundle_with(tmp_path, doc))
    assert code == 0
    assert json.loads(out)["config"]["D"] == 40


def test_negative_seed_is_structured_error(bundle_path, tmp_path, capsys):
    code, out = _run(capsys, "instantiate", "--p", "2", "--m", "2", "--inst", "I", "--seed", "-3")
    _assert_structured_error(code, out, "seed must be >= 0")
    doc = _valid_bundle(bundle_path)
    doc["config"]["seed"] = -3
    code, out = _run(capsys, "verify", "--bundle", _bundle_with(tmp_path, doc))
    _assert_structured_error(code, out, "seed must be >= 0")


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--r", "abc"),
        ("--r", "1/0"),
        ("--D", "abc"),
        ("--gamma", "x"),
        ("--r-grid", "abc"),
        ("--r-grid", "1/0"),
        ("config.r", "1/0"),
    ],
)
def test_malformed_number_is_structured_error(bundle_path, tmp_path, capsys, flag, value):
    if flag == "config.r":
        doc = _valid_bundle(bundle_path)
        doc["config"]["r"] = value
        argv = ["rate", "--bundle", _bundle_with(tmp_path, doc)]
    elif flag == "--r-grid":
        argv = ["sweep", "--inst", "I", "--m", "2", "--rho-grid", "1", flag, value]
    else:
        argv = ["instantiate", "--p", "2", "--m", "2", "--inst", "II" if flag == "--gamma" else "I", flag, value]
    code, out = _run(capsys, *argv)
    _assert_structured_error(code, out)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_codeword_output_is_pinned(tmp_path, capsys):
    # the all-vertex JSON of one II(2,2) codeword at D = 96, then with one value flipped so that vertices fail
    bundle = str(tmp_path / "bundle.json")
    assert main(["instantiate", "--p", "2", "--m", "2", "--inst", "II", "--gamma", "1", "--D", "96", "--out", bundle]) == 0
    msg, cw = tmp_path / "msg.json", tmp_path / "cw.json"
    msg.write_text(json.dumps({"coeffs": [[1], [0, 1]]}))
    assert main(["encode", "--bundle", bundle, "--message", str(msg), "--out", str(cw)]) == 0
    code, out = _run(capsys, "verify", "--bundle", bundle, "--codeword", str(cw))
    assert code == 0
    assert _sha256(out) == "54624ba48e2661577fbd8ecf1b50cdb89e222581d808497bd2671ad8202456dc"
    data = json.loads(cw.read_text())
    data["values"][5][0] = 1 - data["values"][5][0]
    cw.write_text(json.dumps(data))
    code, out = _run(capsys, "verify", "--bundle", bundle, "--codeword", str(cw))
    assert code == 1
    assert json.loads(out)["verify"]["local_rs"]["failures"]
    assert _sha256(out) == "c7bb129edada16ea512869fb50210c2cd1aa1ab574f12112523d82b2439d56dc"


def test_verify_basis_output_is_pinned(tmp_path, capsys):
    # I(3,2) at D = n: the first 64 of 108 basis codewords and 10 Schur pairs
    bundle = str(tmp_path / "bundle.json")
    assert main(["instantiate", "--p", "3", "--m", "2", "--inst", "I", "--D", "n", "--out", bundle]) == 0
    code, out = _run(capsys, "verify", "--bundle", bundle)
    assert code == 0
    assert _sha256(out) == "6d3db572876529d69d7256de3a526cc8c81528abcc85235cd8e00524d534429f"


@pytest.fixture(scope="module")
def pinned_bundles(tmp_path_factory):
    base = tmp_path_factory.mktemp("pinned")
    configs = {
        "II22-D96": ["--p", "2", "--m", "2", "--inst", "II", "--gamma", "1", "--D", "96"],
        "I32-r1/3-D200": ["--p", "3", "--m", "2", "--inst", "I", "--r", "1/3", "--D", "200"],
    }
    paths = {}
    for name, args in configs.items():
        paths[name] = str(base / f"{name.replace('/', '_')}.json")
        assert main(["instantiate", *args, "--out", paths[name]]) == 0
    return paths


@pytest.mark.parametrize(
    "command,bundle,digest",
    [
        ("spectrum", "II22-D96", "7c1d09ddb05a0f3399c4ee8294f745523d6963ebbbbf6c58357cc58cb063b55c"),
        ("rate", "II22-D96", "9be4944c986873d7f94b986b2c63feaf80b300995378de9dd2e40e01f36bf046"),
        ("rate", "I32-r1/3-D200", "8e860ab4d6e2c5f7a38ac93209f068c216fcaeed570a5b1f47d477e11e954a93"),
    ],
    ids=["spectrum-II22", "rate-II22", "rate-I32"],
)
def test_spectrum_and_rate_output_is_pinned(pinned_bundles, capsys, command, bundle, digest):
    # the σ₂ bounds and the rate section's bound record, on both constructions
    code, out = _run(capsys, command, "--bundle", pinned_bundles[bundle])
    assert code == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["--inst", "I", "--m", "3", "--r-grid", "1/3,2/3", "--rho-grid", "1/5,1"],
            "eeb518f2a414c2c23822eddd4016a85fb2b19050ca28feb435c55e6d3e64e303",
        ),
        (
            ["--inst", "II", "--m", "2", "--r-grid", "1/4,1/2", "--rho-grid", "1/2,1", "--gamma-grid", "1/2,1"],
            "422bcc5eab88bbeae22ab77164549bdd3606cd0afbb08a20c1df77c18abec7d6",
        ),
    ],
    ids=["I-m3", "II-m2"],
)
def test_sweep_output_is_pinned(capsys, argv, digest):
    code, out = _run(capsys, "sweep", *argv)
    assert code == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize(
    "args,digests",
    [
        (
            ["--p", "2", "--m", "2", "--inst", "I"],
            (
                "84b9b0b3647a55b63f3e0cbfd6deba1f625c7146b085ae27b3225e57b0373e2b",
                "8b82554eb378517497e47035a6c0de98f0b0fffb597af019c2c730ef0ec4cd78",
                "254a972f0c7b3cd5876ffa24fc26bf83b4425ccc79c8eeb0e5d6284a15f12fbe",
                "950d661362508de2409750ee54266a563f8a446863a10ec05522ae720b0174a9",
            ),
        ),
        (
            ["--p", "2", "--m", "2", "--inst", "II", "--gamma", "1", "--D", "96"],
            (
                "eb2c5475e0d240719cd67e9bad2caee117a0f69b91e73c6a61955c895ddd5600",
                "ba9be34d44d868dfa82794faf5a56034504e54e7d5fe6f631395445202d98616",
                "54624ba48e2661577fbd8ecf1b50cdb89e222581d808497bd2671ad8202456dc",
                "119401a3d9f3bdcc1375718b73d4988241dec9864f3c7c7d77332e64fc5f921b",
            ),
        ),
        (
            ["--p", "3", "--m", "2", "--inst", "I", "--D", "200"],
            (
                "d77658c38c3f1e7ba70c68851578af5886806ec992073478c5c08207eb89a317",
                "b25db5121cc7f6e96367f7855e28df0073a8d93955536caf09bc27bf4c0ed12b",
                "3d22d725a4e2b8ea160eac9fca0ac50295c591fca19e8549753d601ef89f2ad0",
                "02c1f1f2c22a55c83d8d8df22978194192e494686952ec1d6e92125c88fcfe98",
            ),
        ),
    ],
    ids=["I22", "II22-D96", "I32-D200"],
)
def test_bundle_graph_and_verify_output_is_pinned(tmp_path, capsys, args, digests):
    # the bundle, the graph CSV, and the all-vertex verify JSON of the codeword of 1 + X,
    # then of that codeword with value 0 replaced by 1, which fails its local check
    bundle = tmp_path / "bundle.json"
    assert main(["instantiate", *args, "--out", str(bundle)]) == 0
    code, graph = _run(capsys, "graph", "--bundle", str(bundle))
    assert code == 0
    msg, cw = tmp_path / "msg.json", tmp_path / "cw.json"
    msg.write_text(json.dumps({"coeffs": [[1], [0, 1]]}))
    assert main(["encode", "--bundle", str(bundle), "--message", str(msg), "--out", str(cw)]) == 0
    code, good = _run(capsys, "verify", "--bundle", str(bundle), "--codeword", str(cw))
    assert code == 0
    data = json.loads(cw.read_text())
    data["values"][0] = [1]
    cw.write_text(json.dumps(data))
    code, bad = _run(capsys, "verify", "--bundle", str(bundle), "--codeword", str(cw))
    assert code == 1
    outputs = (bundle.read_text(), graph, good, bad)
    assert tuple(_sha256(text) for text in outputs) == digests
