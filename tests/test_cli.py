"""CLI subcommands: state files, reports, exit codes, determinism."""

import contextlib
import enum
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import entclass as ec
from entclass import cli
from entclass.cli import (
    parse_state_document,
    read_state_file,
    render,
    run,
    state_document,
)
from entclass.errors import StateFileError

from conftest import ALL_LABELS, EDGE_SCALES, mantissa, natural_n, pattern, times_two_to

#: sha256 per report case; see ``report_digests``.
DIGESTS = json.loads(Path(__file__).with_name("cli_report_digests.json").read_text())


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
    # Non-integer indices and dims are rejected rather than truncated,
    # re/im must be JSON numbers rather than coerced strings or booleans, and
    # "normalize" must be a JSON boolean.
    ghz = '[{"index": [0, 0, 0], "re": 1.0}, {"index": [1, 1, 0.9], "re": 1.0}]'
    one = '[{"index": [0, 0, 0], "re": 1.0}]'
    re_im = r"amplitudes\[0\]: 're' and 'im'"
    for doc, field in (
        ('{"dims": [2, 2, 2], "amplitudes": %s}' % ghz, "'index'"),
        ('{"dims": [2, 2, 2.7], "amplitudes": %s}' % one, "'dims'"),
        ('{"dims": [2, 2, true], "amplitudes": %s}' % one, "'dims'"),
        ('{"dims": [2, 2, 2], "amplitudes": %s, "normalize": "false"}' % one, "'normalize'"),
        ('{"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0], "re": "0.5"}]}', re_im),
        ('{"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0], "re": 1, "im": true}]}', re_im),
        # An integer beyond float range is an input error, not an OverflowError.
        (
            '{"dims": [2, 2, 2], "amplitudes": [%s, {"index": [1, 1, 1], "re": 1%s}]}'
            % (one[1:-1], "0" * 400),
            r"amplitudes\[1\]: 're' and 'im' exceed the float range",
        ),
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


@pytest.mark.parametrize("amp", [1.5e308, 1.5e308 + 1.5e308j])
@pytest.mark.parametrize("normalize", [True, False])
def test_classify_when_the_norm_overflows(tmp_path, capsys, normalize, amp):
    # Amplitudes of 1.5e308 are finite, their 2-norm is not. The state is
    # classified; JSON has no inf, so the report of an unnormalized one
    # carries the norm as mantissa * 2**exp2.
    psi = ec.make_state((2, 2, 2), [((0, 0, 0), amp), ((1, 1, 1), amp)])
    path = tmp_path / "huge.json"
    path.write_text(render(state_document(psi, normalize=normalize)))
    code, out, err = invoke(["classify", "--in", str(path)], capsys)
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["label"] == "GHZ"
    if not normalize:
        norm = result["invariants"]["norm"]
        assert sorted(norm) == ["exp2", "mantissa"] and 0.5 <= norm["mantissa"] < 1
        assert math.ldexp(norm["mantissa"], norm["exp2"] - 1000) == pytest.approx(
            math.sqrt(2) * abs(amp * 2.0**-1000), rel=1e-15
        )


@pytest.mark.parametrize("scale", EDGE_SCALES)
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
def test_classify_a_subnormal_or_overflowing_state_file(
    tmp_path, capsys, label, normalize, scale
):
    # The norm of pattern * scale is that of pattern * m times 2**e; it is
    # reported as a float, or as mantissa * 2**exp2 above the float range.
    m, e = mantissa(scale)
    psi = ec.StateTensor(pattern(label).shape, pattern(label) * scale)
    path = tmp_path / "edge.json"
    path.write_text(render(state_document(psi, normalize=normalize)))
    code, out, err = invoke(["classify", "--in", str(path)], capsys)
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["label"] == label.display_name
    norm = result["invariants"]["norm"]
    unit_norm = ec.StateTensor(psi.dims, pattern(label) * m).norm
    if normalize:
        assert norm == pytest.approx(1.0, abs=1e-15)
    elif times_two_to(unit_norm, e) == math.inf:
        assert 0.5 <= norm["mantissa"] < 1
        assert math.ldexp(norm["mantissa"], norm["exp2"] - e) == pytest.approx(
            unit_norm, rel=1e-15
        )
    else:
        assert norm == pytest.approx(times_two_to(unit_norm, e), rel=1e-15, abs=5e-324)


def test_cli_exit_codes(tmp_path, capsys):
    code, _, err = invoke(["classify", "--in", str(tmp_path / "missing.json")], capsys)
    assert code == 1 and "missing.json" in err
    code, _, err = invoke(["unknown-subcommand"], capsys)
    assert code == 1
    code, _, err = invoke(["order", "--from", "GHZ"], capsys)
    assert code == 1
    code, _, err = invoke(["distill", "--target", "XYZ"], capsys)
    assert code == 1


def test_dims_cap_checked_before_allocation(tmp_path, capsys):
    # A huge Clare dimension must fail on the cap, not in allocating the
    # dense amplitude array (5.82 TiB here).
    path = tmp_path / "huge.json"
    path.write_text(
        '{"dims": [2, 2, 100000000000], "amplitudes": [{"index": [0, 0, 0], "re": 1}]}'
    )
    code, out, err = invoke(["classify", "--in", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"entclass: {path}: dims (2, 2, 100000000000) exceed the per-party cap 16\n"
    )


def test_overlong_integer_literal_is_a_state_file_error(tmp_path, capsys):
    # json.load raises a plain ValueError for an integer of more than 4,300
    # digits; it must name the file like every other state-file error.
    path = tmp_path / "long.json"
    path.write_text(
        '{"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0], "re": 1%s}]}'
        % ("0" * 5000)
    )
    with pytest.raises(StateFileError, match="long.json: Exceeds the limit"):
        read_state_file(str(path))
    code, out, err = invoke(["classify", "--in", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"entclass: {path}: Exceeds the limit (4300 digits)")


def test_duplicate_range_checks_left_to_the_library(capsys):
    # --trials and rep --n are checked where the work is done; the exit
    # codes are those of any other input error.
    code, out, err = invoke(["monotone", "--measure", "det222", "--trials", "0"], capsys)
    assert (code, out, err) == (1, "", "entclass: trials must be positive\n")
    code, out, err = invoke(["rep", "--class", "GHZ", "--n", "17"], capsys)
    assert (code, out) == (1, "")
    assert err == "entclass: dims (2, 2, 17) exceed the per-party cap 16\n"


@pytest.mark.parametrize("target", ["missing-dir/rep.json", "."], ids=["missing-dir", "directory"])
def test_rep_unwritable_out_is_an_input_error(tmp_path, capsys, target):
    # A path that cannot be opened for writing is reported, not raised.
    path = str(tmp_path / target)
    code, out, err = invoke(["rep", "--class", "GHZ", "--out", path], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"entclass: cannot write {path}: ")


@pytest.mark.parametrize(
    "extra", [["--from", "GHZ"], ["--to", "W"], ["--from", "GHZ", "--to", "W"]]
)
def test_order_dump_rejects_from_and_to(capsys, extra):
    code, out, err = invoke(["order", "--dump", *extra], capsys)
    assert (code, out) == (1, "")
    assert err == "entclass: use either --dump or both --from and --to\n"


def test_cli_ambiguity_exits_two(tmp_path, capsys, monkeypatch):
    # Exit code 2 is reserved for an unresolved class-boundary decision.
    from entclass.errors import AmbiguityError

    def always_ambiguous(psi, policy):
        raise AmbiguityError("det222", 5e-14, (1.4e-14, 1e-13))

    monkeypatch.setattr("entclass.cli.classify", always_ambiguous)
    path = write_state(tmp_path, ec.representative("GHZ", 2))
    code, _, err = invoke(["classify", "--in", path], capsys)
    assert code == 2
    assert err == (
        "entclass: unresolved decision on det222: distance 5e-14, "
        "unresolved band (1.4e-14, 1e-13]\n"
    )


def test_cli_lapack_failure_exits_one(tmp_path, capsys, monkeypatch):
    def not_converged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(ec.invariants, "_lapack", not_converged)
    path = write_state(tmp_path, ec.representative("GHZ", 2))
    code, out, err = invoke(["classify", "--in", path], capsys)
    assert (code, out, err) == (1, "", "entclass: SVD did not converge\n")


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


def test_distill_target_spellings_match_the_library(capsys):
    # The CLI parses --target with the library's own normalisation.
    for spelling, target in (("bell-ab", "BELL_AB"), ("ghz", "GHZ")):
        code, out, err = invoke(["distill", "--target", spelling], capsys)
        assert (code, err) == (0, "")
        _, want, _ = invoke(["distill", "--target", target], capsys)
        doc, ref = json.loads(out), json.loads(want)
        assert doc.pop("command") == ["distill", "--target", spelling]
        ref.pop("command")
        assert doc == ref and doc["result"]["target"] == target
    code, out, err = invoke(["distill", "--target", "bell-bc"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("entclass: argument --target: invalid choice: 'BELL_BC'")


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
    # Unlike an input error, the report is on stdout and stderr stays empty.
    assert out.endswith("}\n") and err == ""
    assert doc["result"]["min_slack_seed"] == [11, doc["result"]["min_slack_trial"]]


def test_env_overrides(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, ec.representative("GHZ", 2))
    monkeypatch.setenv("ENTCLASS_DISTANCE_EPS", "1e-12")
    code, out, err = invoke(["classify", "--in", path], capsys)
    assert code == 0, err
    assert json.loads(out)["tolerances"] == {"distance_eps": 1e-12}
    # flags win over the environment
    code, out, _ = invoke(["classify", "--in", path, "--distance-eps", "1e-11"], capsys)
    assert json.loads(out)["tolerances"] == {"distance_eps": 1e-11}
    monkeypatch.setenv("ENTCLASS_SEED", "55")
    code, out, _ = invoke(["monotone", "--measure", "det222", "--trials", "50"], capsys)
    assert json.loads(out)["seed"] == 55
    # A malformed value is a usage error that names the variable and the value.
    for name, value, kind, argv in (
        ("ENTCLASS_DISTANCE_EPS", "abc", "float", ["classify", "--in", path]),
        ("ENTCLASS_DISTANCE_EPS", "1e-x", "float", ["invariants", "--in", path]),
        ("ENTCLASS_SEED", "x7", "int", ["monotone", "--measure", "det222", "--trials", "5"]),
    ):
        with monkeypatch.context() as env:
            env.setenv(name, value)
            code, out, err = invoke(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"entclass: {name}={value!r} is not a valid {kind}\n"


def test_help_and_version_return_zero(tmp_path, capsys):
    # run() returns the exit code for every argv instead of raising SystemExit.
    path = write_state(tmp_path, ec.representative("GHZ", 2))
    _, before, _ = invoke(["classify", "--in", path], capsys)
    code, out, err = invoke(["--version"], capsys)
    assert (code, out, err) == (0, f"entclass {ec.__version__}\n", "")
    code, out, err = invoke(["--help"], capsys)
    assert code == 0 and err == "" and out.startswith("usage: entclass [-h] [--version]")
    assert all(name in out for name in ("classify", "monotone", "distill", "dim"))
    code, out, err = invoke(["classify", "--help"], capsys)
    assert code == 0 and err == "" and out.startswith("usage: entclass classify [-h] --in INFILE")
    assert invoke(["classify", "--in", path], capsys) == (0, before, "")


#: Argv for the route comparison: every subcommand's valid form and --help,
#: and the usage errors argparse reports.
_ROUTE_ARGV = [
    ["classify", "--in", "state.json"],
    ["classify", "--in", "-", "--distance-eps", "1e-12"],
    ["invariants", "--in", "state.json", "--distance-eps=1e-11"],
    ["monotone", "--measure", "det222", "--trials", "5"],
    ["monotone", "--measure", "det223", "--trials", "5", "--seed", "3", "--party", "2"],
    ["monotone", "--meas", "det222", "--trials", "5"],
    ["order", "--from", "GHZ", "--to", "W"],
    ["order", "--dump"],
    ["swap"],
    ["distill", "--target", "bell-ab"],
    ["rep", "--class", "W", "--n", "3", "--out", "out.json"],
    ["rep", "--class", "GHZ"],
    ["dim", "--dims", "2,2,4", "--delta", "0"],
    *([name, "--help"] for name in ("classify", "invariants", "monotone", "order", "swap",
                                    "distill", "rep", "dim")),
    ["swap", "-h"],
    [],
    ["--version"],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--"],
    ["--", "swap"],
    ["swap", "--"],
    ["--version", "swap"],
    ["classify"],
    ["classify", "--in"],
    ["swap", "extra"],
    ["classify", "--in", "state.json", "extra"],
    ["classify", "--in", "state.json", "--distance-eps", "x"],
    ["monotone", "--measure", "det222", "--trials", "x"],
    ["monotone", "--measure", "det222", "--trials", "5", "--party", "4"],
    ["monotone", "--measure", "nope", "--trials", "5"],
    ["distill", "--target", "nope"],
    ["classify", "--version"],
    ["dim", "--dims"],
]


def _parse_outcome(parse, argv, capsys):
    """What one parse gives: the namespace's fields, or the exception raised
    with what it printed."""
    try:
        result = ("namespace", vars(parse(argv)))
    except (cli.UsageError, cli._Exit) as exc:
        result = (type(exc), exc.args)
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", _ROUTE_ARGV, ids=" ".join)
def test_direct_route_parses_as_the_top_level_parser(argv, capsys, monkeypatch):
    parser, subparsers = cli._build_parser()
    want = _parse_outcome(parser.parse_args, list(argv), capsys)
    if argv and argv[0] in subparsers:  # the top-level parser must not run
        monkeypatch.setattr(parser, "parse_args", None)
    assert _parse_outcome(cli._parse, list(argv), capsys) == want


def test_cached_parser_carries_no_state_between_requests(tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    path = write_state(tmp_path, ec.representative("C223_GEN", 3))
    argv = ["classify", "--in", path]
    monkeypatch.delenv("ENTCLASS_DISTANCE_EPS", raising=False)
    assert invoke(["order", "--from", "GHZ"], capsys)[0] == 1
    assert invoke(["--help"], capsys)[0] == 0
    code, plain, err = invoke(argv, capsys)
    assert code == 0, err
    monkeypatch.setenv("ENTCLASS_DISTANCE_EPS", "1e-12")
    code, from_env, err = invoke(argv, capsys)
    assert code == 0, err
    code, from_flag, err = invoke(argv + ["--distance-eps", "1e-11"], capsys)
    assert code == 0, err
    monkeypatch.delenv("ENTCLASS_DISTANCE_EPS")
    assert invoke(argv, capsys) == (0, plain, "")
    reports = [json.loads(text) for text in (plain, from_env, from_flag)]
    assert [r["tolerances"]["distance_eps"] for r in reports] == [1e-13, 1e-12, 1e-11]
    # Distances do not depend on the tolerance: only the tolerances tell
    # the two plain requests apart.
    for r in reports[:2]:
        del r["tolerances"]
    assert reports[0] == reports[1]


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


def test_render_pins_every_value_type():
    value = {
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "flags": [True, np.bool_(False), None],
        "ints": [np.int64(-7), 3],
        "floats": [np.float64(0.1), -2.5e-300, 1e22],
        "complex": [1 - 0.5j],
        "text": 'Grüße "q" → \U0001d11e',
        10: "ten",
        9: "nine",
    }
    body = [
        '"10": "ten",',
        '"9": "nine",',
        '"complex": [',
        "  {",
        '    "im": -0.5,',
        '    "re": 1',
        "  }",
        "],",
        '"empty": {',
        '  "dict": {},',
        '  "list": [],',
        '  "tuple": []',
        "},",
        '"flags": [',
        "  true,",
        "  false,",
        "  null",
        "],",
        '"floats": [',
        "  0.10000000000000001,",
        "  -2.5e-300,",
        "  1e+22",
        "],",
        '"ints": [',
        "  -7,",
        "  3",
        "],",
        r'"text": "Gr\u00fc\u00dfe \"q\" \u2192 \ud834\udd1e"',
    ]
    for indent in (0, 1):
        pad = "  " * indent
        want = "{\n" + "".join(f"{pad}  {line}\n" for line in body) + pad + "}"
        assert render(value, indent) == want
    assert render({}) == "{}" and render([]) == "[]" and render("é") == r'"\u00e9"'
    for bad in (math.nan, -math.inf, np.float64(math.inf), [complex(1, math.nan)]):
        with pytest.raises(ValueError, match="non-finite"):
            render({"x": bad})
    with pytest.raises(TypeError, match="ndarray"):
        render({"x": np.zeros(2)})


def reference_render(value, indent=0):
    """``render`` as an ``isinstance`` walk, the form it had before it
    dispatched on exact builtin types; the reference for the test below."""
    parts = []
    emit = parts.append

    def walk(value, pad):
        if isinstance(value, str):
            return emit(cli._quote(value))
        if isinstance(value, (float, np.floating)):
            if not math.isfinite(value):
                raise ValueError(f"cannot serialize non-finite float {float(value)}")
            return emit(format(float(value), ".17g"))
        if isinstance(value, dict):
            items = [(cli._quote(str(k)) + ": ", value[k]) for k in sorted(value, key=str)]
            ends = "{}"
        elif isinstance(value, (list, tuple)):
            items, ends = [("", v) for v in value], "[]"
        elif isinstance(value, (bool, np.bool_)) or value is None:
            return emit("null" if value is None else "true" if value else "false")
        elif isinstance(value, (int, np.integer)):
            return emit(str(int(value)))
        elif isinstance(value, (complex, np.complexfloating)):
            return walk({"re": float(value.real), "im": float(value.imag)}, pad)
        else:
            raise TypeError(f"cannot serialize {type(value)!r}")
        if not items:
            return emit(ends)
        inner = pad + "  "
        sep = ends[0] + "\n" + inner
        for key, item in items:
            emit(sep + key)
            walk(item, inner)
            sep = ",\n" + inner
        emit("\n" + pad + ends[1])

    walk(value, "  " * indent)
    return "".join(parts)


class _Text(str):
    def __str__(self):  # neither render reads it
        return "not the text"


class _Int(int):
    pass


class _Float(float):
    pass


class _Dict(dict):
    pass


class _Party(enum.IntEnum):
    CLARE = 3


#: Leaves for the renderer comparison: the edge floats and ints, non-ASCII
#: text, subclasses and numpy scalars.
_LEAVES = [
    "", "plain", 'Grüße "q" \\ → \U0001d11e', "tab\tnew\nline\x00", _Text("sub"), _Text("é"),
    0, -7, 2**64, 2**64 + 1, -(2**70), 10**40, _Int(5), _Party.CLARE,
    0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3, 1e22, _Float(2.5), _Float(-0.0),
    np.float64(-0.0), np.float64(0.1), np.float32(0.1), np.int64(-(2**63)), np.uint64(2**64 - 1),
    np.bool_(True), np.bool_(False), True, False, None,
    1 - 0.5j, complex(-0.0, 5e-324), np.complex128(2 + 3j),
]


def _random_value(gen, depth):
    """A seeded nested value: dicts (and a subclass) with int and str keys,
    lists, tuples and leaves."""
    kind = int(gen.integers(0, 6 if depth else 1))
    if kind == 0 or kind > 3:
        return _LEAVES[int(gen.integers(0, len(_LEAVES)))]
    size = int(gen.integers(0, 5))
    items = [_random_value(gen, depth - 1) for _ in range(size)]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    keys = [str(gen.integers(0, 20)) if gen.random() < 0.5 else int(gen.integers(-5, 20)) for _ in items]
    return (_Dict if gen.random() < 0.3 else dict)(zip(keys, items))


def test_render_matches_the_isinstance_walk(gen):
    for trial in range(400):
        value = _random_value(gen, 4)
        for indent in (0, 1, 3):
            assert render(value, indent) == reference_render(value, indent), (trial, value)
    for leaf in _LEAVES:
        assert render({"k": [leaf, (leaf,)]}) == reference_render({"k": [leaf, (leaf,)]})
    bad = [math.nan, -math.inf, np.float64(math.inf), np.float32(math.nan), _Float("nan"),
           complex(1, math.nan), np.complex128(complex(math.inf, 0)),
           np.zeros(2), object(), {1, 2}, b"bytes"]
    for leaf in bad:
        for value in (leaf, [1, {"a": (2, leaf)}]):
            errors = []
            for fn in (render, reference_render):
                with pytest.raises((ValueError, TypeError)) as info:
                    fn(value)
                errors.append((info.type, str(info.value)))
            assert errors[0] == errors[1], leaf


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
    monkeypatch.setenv("ENTCLASS_DISTANCE_EPS", "1e-12")
    code, out, err = invoke(argv, capsys)
    assert code == 0, err
    assert json.loads(out)["tolerances"] is None


def report_digests(tmp_dir: str) -> dict[str, str]:
    """sha256 of the exit code, stdout and stderr of each CLI report case.

    The cases are rep, classify and invariants on the nine representatives
    at their natural Clare dimension and at n = 16, the order, swap, distill,
    monotone and dim reports, and usage and file errors. ``tmp_dir`` is
    replaced by ``<tmp>`` in the keys and in the hashed text.
    """
    cases = [
        ["order", "--dump"],
        ["order", "--from", "224-generic", "--to", "B3"],
        # The two kinds of "no": a shared signature, and a rank that rises.
        ["order", "--from", "W", "--to", "GHZ"],
        ["order", "--from", "B1", "--to", "224-generic"],
        ["swap"],
        *(["distill", "--target", target] for target in ("GHZ", "W", "BELL_AB")),
        ["monotone", "--measure", "det223", "--trials", "600", "--seed", "11"],
        ["dim", "--dims", "2,2,4"],
        ["dim", "--dims", "2,2,2,2", "--delta", "0"],
        ["dim", "--dims", "3,3,3"],
        ["order", "--from", "GHZ"],
        ["classify", "--in", os.path.join(tmp_dir, "missing.json")],
    ]
    for label in ALL_LABELS:
        for size in ([], ["--n", "16"]):
            path = os.path.join(tmp_dir, f"{label.name}{''.join(size)}.json")
            rep = ["rep", "--class", label.name, *size]
            cases += [rep, rep + ["--out", path]]
            cases += [[command, "--in", path] for command in ("classify", "invariants")]
    digests = {}
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        text = f"{code}\n{out.getvalue()}\0{err.getvalue()}".replace(tmp_dir, "<tmp>")
        key = " ".join(argv).replace(tmp_dir, "<tmp>")
        digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_reports_match_parent_digests(tmp_path, monkeypatch):
    # Refactors keep every report byte-identical; a deliberate change to a
    # report regenerates cli_report_digests.json and says so in CHANGES.md.
    for name in ("ENTCLASS_DISTANCE_EPS", "ENTCLASS_SEED"):
        monkeypatch.delenv(name, raising=False)
    got = report_digests(str(tmp_path))
    assert sorted(got) == sorted(DIGESTS)
    assert [key for key in DIGESTS if got[key] != DIGESTS[key]] == []
