"""CLI subcommands: state files, reports, exit codes, determinism."""

import io
import json
import math

import pytest

import entclass as ec
from entclass.cli import (
    parse_state_document,
    read_state_file,
    render,
    run,
    state_document,
)
from entclass.errors import StateFileError

from conftest import ALL_LABELS, natural_n


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, psi, name="state.json"):
    path = tmp_path / name
    path.write_text(render(state_document(psi)) + "\n")
    return str(path)


def test_classify_ghz_file(tmp_path, capsys):
    path = write_state(tmp_path, ec.representative("GHZ", 2))
    code, out, err = invoke(["classify", "--in", path], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == "entclass-report/1"
    assert doc["result"]["label"] == "GHZ"
    assert doc["result"]["invariants"]["det222_abs"] == pytest.approx(0.25)
    assert doc["result"]["invariants"]["local_ranks"] == [2, 2, 2]


def test_rep_classify_roundtrip_all_classes(tmp_path, capsys):
    for label in ALL_LABELS:
        for n in range(natural_n(label), 5):
            path = str(tmp_path / f"{label.name}-{n}.json")
            code, _, err = invoke(
                ["rep", "--class", label.name, "--n", str(n), "--out", path], capsys
            )
            assert code == 0, err
            code, out, err = invoke(["classify", "--in", path], capsys)
            assert code == 0, err
            assert json.loads(out)["result"]["label"] == label.display_name


def test_state_file_roundtrip_numeric_identity():
    psi = ec.representative("C223_GEN", 3)
    doc = state_document(psi)
    again = parse_state_document(doc)
    assert again.allclose(psi, atol=1e-15)


def test_state_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2, 2], "amplitudes": []}')
    with pytest.raises(StateFileError, match="nonempty"):
        read_state_file(str(bad))
    bad.write_text(
        '{"dims": [2, 2], "amplitudes": [{"index": [0, 5], "re": 1.0}]}'
    )
    with pytest.raises(StateFileError, match="out of range"):
        read_state_file(str(bad))
    bad.write_text(
        '{"dims": [2, 2], "amplitudes": ['
        '{"index": [0, 0], "re": 1.0}, {"index": [0, 0], "re": 1.0}]}'
    )
    with pytest.raises(StateFileError, match="duplicate"):
        read_state_file(str(bad))
    bad.write_text('{"dims": [2, 2], "amplitudes": [{"index": [0, 0], "re": 0.0}]}')
    with pytest.raises(StateFileError):
        read_state_file(str(bad))
    # Non-integer indices and dims are rejected rather than truncated, and
    # "normalize" must be a JSON boolean.
    ghz = '[{"index": [0, 0, 0], "re": 1.0}, {"index": [1, 1, 0.9], "re": 1.0}]'
    one = '[{"index": [0, 0, 0], "re": 1.0}]'
    for doc, field in (
        ('{"dims": [2, 2, 2], "amplitudes": %s}' % ghz, "'index'"),
        ('{"dims": [2, 2, 2.7], "amplitudes": %s}' % one, "'dims'"),
        ('{"dims": [2, 2, true], "amplitudes": %s}' % one, "'dims'"),
        ('{"dims": [2, 2, 2], "amplitudes": %s, "normalize": "false"}' % one, "'normalize'"),
    ):
        bad.write_text(doc)
        with pytest.raises(StateFileError, match=field):
            read_state_file(str(bad))


@pytest.mark.parametrize("command", ["classify", "invariants"])
@pytest.mark.parametrize(
    "label,n,present",
    [
        ("GHZ", 2, ("det222", "det223")),
        ("GHZ", 4, ("det222", "det223")),
        ("C223_GEN", 3, ("det223",)),
        ("GEN224", 4, ()),
    ],
)
def test_report_det_values_are_re_im_objects_or_null(
    command, label, n, present, tmp_path, capsys
):
    path = write_state(tmp_path, ec.representative(label, n))
    code, out, err = invoke([command, "--in", path], capsys)
    assert code == 0, err
    invariants = json.loads(out)["result"]["invariants"]
    for key in ("det222", "det223"):
        value = invariants[key]
        if key in present:
            assert sorted(value) == ["im", "re"]
            assert all(isinstance(part, (int, float)) for part in value.values())
            assert math.hypot(value["re"], value["im"]) == pytest.approx(
                invariants[key + "_abs"], rel=1e-15
            )
        else:
            assert value is None and invariants[key + "_abs"] is None


def test_cli_exit_codes(tmp_path, capsys):
    code, _, err = invoke(["classify", "--in", str(tmp_path / "missing.json")], capsys)
    assert code == 1 and "missing.json" in err
    code, _, err = invoke(["unknown-subcommand"], capsys)
    assert code == 1
    code, _, err = invoke(["order", "--from", "GHZ"], capsys)
    assert code == 1
    code, _, err = invoke(["distill", "--target", "XYZ"], capsys)
    assert code == 1


def test_cli_ambiguity_exits_two(tmp_path, capsys, monkeypatch):
    # Exit code 2 is reserved for the classifier's det/rank disagreement.
    from entclass.errors import AmbiguityError

    def always_ambiguous(psi, policy):
        raise AmbiguityError((2, 2, 2), ec.ClassLabel.GHZ, ec.ClassLabel.W, 1)

    monkeypatch.setattr("entclass.cli.classify", always_ambiguous)
    path = write_state(tmp_path, ec.representative("GHZ", 2))
    code, _, err = invoke(["classify", "--in", path], capsys)
    assert code == 2
    assert "ambiguous" in err


def test_invariants_subcommand(tmp_path, capsys):
    path = write_state(tmp_path, ec.representative("W", 3))
    code, out, err = invoke(["invariants", "--in", path], capsys)
    assert code == 0, err
    inv = json.loads(out)["result"]["invariants"]
    assert inv["local_ranks"] == [2, 2, 2]
    assert inv["rank_rtr"] == 1
    assert inv["det222_abs"] == pytest.approx(0.0, abs=1e-12)


def test_invariants_subcommand_wide_clare(tmp_path, capsys):
    # invariants work for any (2, 2, n) up to the cap
    psi = ec.random_state((2, 2, 6), ec.RandomSource(77))
    path = write_state(tmp_path, psi, "wide.json")
    code, out, err = invoke(["invariants", "--in", path], capsys)
    assert code == 0, err
    inv = json.loads(out)["result"]["invariants"]
    assert inv["local_ranks"] == [2, 2, 4]
    assert inv["rank_rtr"] == 4
    assert len(inv["singular_values_rtr"]) == 6
    assert inv["det222"] is None and inv["det223"] is None


def test_order_query(capsys):
    code, out, err = invoke(["order", "--from", "224-generic", "--to", "B3"], capsys)
    assert code == 0, err
    doc = json.loads(out)["result"]
    assert doc["reachable"] is True
    assert doc["witness"] is not None
    assert any(not inv for inv in doc["witness"]["invertible"])
    chain = doc["witness_chain"]
    assert chain[0] == "224-generic" and chain[-1] == "B3"
    assert len(chain) == 4
    code, out, _ = invoke(["order", "--from", "GHZ", "--to", "W"], capsys)
    doc = json.loads(out)["result"]
    assert doc["reachable"] is False and doc["witness"] is None


def test_order_dump(capsys):
    code, out, err = invoke(["order", "--dump"], capsys)
    assert code == 0, err
    doc = json.loads(out)["result"]
    assert len(doc["nodes"]) == 9
    assert len(doc["edges"]) == 15
    assert ["224-generic", "223-generic"] in doc["edges"]


def test_swap_trace(capsys):
    code, out, err = invoke(["swap"], capsys)
    assert code == 0, err
    doc = json.loads(out)["result"]
    assert len(doc["branches"]) == 4
    for branch in doc["branches"]:
        assert branch["class"] == "B3"
        assert branch["probability"] == pytest.approx(0.25)
    assert doc["probability_sum"] == pytest.approx(1.0)


def test_distill_trace(capsys):
    code, out, err = invoke(["distill", "--target", "W"], capsys)
    assert code == 0, err
    doc = json.loads(out)["result"]
    assert doc["branch"]["class"] == "W"
    assert doc["branch"]["probability"] == pytest.approx(3 / 8)


def test_dim_subcommand(capsys):
    code, out, err = invoke(["dim", "--dims", "2,2,2,2", "--delta", "0"], capsys)
    assert code == 0, err
    assert json.loads(out)["result"]["raw"] == 3
    code, out, _ = invoke(["dim", "--dims", "2,2,4"], capsys)
    assert json.loads(out)["result"]["raw"] == 0
    code, _, err = invoke(["dim", "--dims", "3,3,3"], capsys)
    assert code == 1 and "--delta" in err


def test_monotone_subcommand(capsys):
    argv = ["monotone", "--measure", "det222", "--trials", "150", "--seed", "7"]
    code, out, err = invoke(argv, capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["seed"] == 7
    assert doc["result"]["pass"] is True
    assert doc["result"]["trials"] == 150
    assert doc["result"]["min_slack"] >= -1e-9 * doc["result"]["min_slack_measure_before"]


def test_monotone_reports_failures_with_exit_one(capsys):
    # det223 at scale hits genuine violations of the raw averaged
    # inequality; the command reports them and exits nonzero.
    argv = ["monotone", "--measure", "det223", "--trials", "600", "--seed", "11"]
    code, out, err = invoke(argv, capsys)
    doc = json.loads(out)
    assert doc["result"]["failures"] > 0
    assert code == 1
    assert doc["result"]["min_slack_seed"] == [11, doc["result"]["min_slack_trial"]]


def test_env_overrides(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, ec.representative("GHZ", 2))
    monkeypatch.setenv("ENTCLASS_RANK_EPS", "1e-7")
    monkeypatch.setenv("ENTCLASS_DET_EPS", "1e-8")
    code, out, err = invoke(["classify", "--in", path], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["tolerances"]["rank_rel_eps"] == pytest.approx(1e-7)
    assert doc["tolerances"]["det_rel_eps"] == pytest.approx(1e-8)
    # flags win over the environment
    code, out, _ = invoke(["classify", "--in", path, "--rank-eps", "1e-6"], capsys)
    assert json.loads(out)["tolerances"]["rank_rel_eps"] == pytest.approx(1e-6)
    monkeypatch.setenv("ENTCLASS_SEED", "55")
    code, out, _ = invoke(["monotone", "--measure", "det222", "--trials", "50"], capsys)
    assert json.loads(out)["seed"] == 55


def test_reports_byte_identical(tmp_path, capsys):
    path = write_state(tmp_path, ec.representative("C223_DEG", 3))
    runs = []
    for _ in range(2):
        _, out, _ = invoke(["classify", "--in", path], capsys)
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out, _ = invoke(
            ["monotone", "--measure", "det222", "--trials", "120", "--seed", "3"],
            capsys,
        )
        runs.append(out)
    assert runs[0] == runs[1]


def test_render_17_digit_floats():
    text = render({"x": 1 / 3, "y": math.sqrt(2)})
    assert "0.33333333333333331" in text
    assert "1.4142135623730951" in text


def test_rep_stdout_pipes_into_classify(capsys, tmp_path, monkeypatch):
    code, out, err = invoke(["rep", "--class", "W"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["dims"] == [2, 2, 2]
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, err = invoke(["classify", "--in", "-"], capsys)
    assert code == 0, err
    assert json.loads(out)["result"]["label"] == "W"


@pytest.mark.parametrize(
    "argv",
    [
        ["swap"],
        ["distill", "--target", "GHZ"],
        ["order", "--from", "GHZ", "--to", "B1"],
        ["dim", "--dims", "2,2,4"],
        ["monotone", "--measure", "det222", "--trials", "5", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_tolerances_reported_only_where_used(argv, capsys, monkeypatch):
    monkeypatch.setenv("ENTCLASS_RANK_EPS", "1e-7")
    code, out, err = invoke(argv, capsys)
    assert code == 0, err
    assert json.loads(out)["tolerances"] is None
