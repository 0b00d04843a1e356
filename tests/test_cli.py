"""Command-line interface: output formats, round-tripping, exit codes."""

from __future__ import annotations

import json
import sys
import time

import pytest

from codedensity import __version__
from codedensity.cli import main
from codedensity.guards import ENV_GUARD


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qbinom_plain_output(capsys):
    code, out, _ = run_cli(capsys, "qbinom", "4", "2", "2")
    assert code == 0 and out == "35\n"


def test_exact_density_plain_output(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--metric", "hamming", "--q", "2", "--ell", "1",
        "--s", "2", "--n", "2", "--k", "1", "--d", "2",
    )
    assert code == 0 and out == "3/5\n"


def test_volume_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "volume", "--metric", "rank", "--q", "2", "--ell", "1", "--s", "2",
        "--n", "2", "--radius", "1", "--oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"volume": 10, "oracle": 10, "match": True}
    assert doc["tool"] == "codedensity"
    assert doc["version"]
    assert doc["config"]["metric"] == "rank"


def test_volume_oracle_accepts_a_prime_power_q_for_hamming(capsys):
    code, out, _ = run_cli(
        capsys, "volume", "--metric", "hamming", "--q", "4", "--s", "1", "--n", "2",
        "--radius", "1", "--oracle",
    )
    assert code == 0
    assert json.loads(out)["result"] == {"volume": 7, "oracle": 7, "match": True}


def test_volume_oracle_ignores_the_enumeration_guard(capsys, monkeypatch):
    # the oracle is held to ORACLE_SPACE, never to the enumeration cap
    monkeypatch.setenv(ENV_GUARD, "0")
    code, out, _ = run_cli(
        capsys, "volume", "--metric", "sumrank", "--q", "3", "--s", "2", "--n", "2",
        "--t", "2", "--radius", "1", "--oracle",
    )
    assert code == 0
    assert json.loads(out)["result"]["match"] is True


def test_classify_document_and_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--family", "msrd", "--growing", "q", "--ell", "1",
        "--eta", "1", "--t", "10", "--d", "5", "--m", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "dense"
    assert doc["result"]["cross_check"]["agrees"] is True
    # parsing then re-serializing is byte-identical
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_classify_not_dense_has_rational_upper(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--family", "mrd", "--growing", "s", "--q", "2",
        "--ell", "1", "--n", "3", "--d", "2",
    )
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "not-dense"
    assert doc["result"]["upper_bound"] == "2/9"


def test_bound_density_bracket(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "density-bracket", "--metric", "hamming",
        "--q", "2", "--ell", "1", "--s", "2", "--n", "2", "--k", "1", "--d", "2",
    )
    doc = json.loads(out)
    assert doc["result"]["lower"] == "3/5"
    assert doc["result"]["upper"] == "3/5"
    assert doc["result"]["theta_bar"] == "1"


def test_bound_singleton_and_kstar(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "singleton", "--metric", "sumrank", "--q", "2",
        "--ell", "1", "--s", "2", "--n", "2", "--t", "2", "--d", "2",
    )
    assert json.loads(out)["result"]["max_cardinality"] == 4
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "kstar", "--metric", "rank", "--q", "2",
        "--ell", "2", "--s", "1", "--n", "3", "--d", "2",
    )
    doc = json.loads(out)
    assert doc["result"] == {"k_star": 1, "extremal_is_singleton": False}


def test_region_csv(capsys):
    code, out, _ = run_cli(capsys, "region", "--t-max", "3", "--eta-max", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "t,eta,verdict"
    assert "1,1,dense" in lines
    assert "1,2,unclassified" in lines
    assert len(lines) == 1 + 6


def test_table1_csv(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines == [
        "eta,t,d,verdict",
        "1,10,5,dense",
        "2,>=1,2,not-dense",
        ">=2,10,5,sparse",
        "3,>=1,3,sparse",
    ]


def test_probe_csv(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "--family", "mds", "--growing", "q", "--ell", "1",
        "--n", "4", "--s", "2", "--d", "2", "--probes", "5,7,11",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "probe,rho,bracket_lower,bracket_upper"
    assert len(lines) == 4


def test_estimate_stream_invariant_json(capsys):
    argv = [
        "estimate", "--metric", "hamming", "--q", "2", "--ell", "1", "--s", "2",
        "--n", "2", "--k", "1", "--d", "2", "--trials", "300", "--seed", "9",
    ]
    _, out1, _ = run_cli(capsys, *argv, "--streams", "1")
    _, out4, _ = run_cli(capsys, *argv, "--streams", "4")
    doc1, doc4 = json.loads(out1), json.loads(out4)
    assert doc1["result"] == doc4["result"]
    assert json.dumps(doc1["result"], sort_keys=True) == json.dumps(doc4["result"], sort_keys=True)
    assert doc1["config"]["streams"] == 1 and doc4["config"]["streams"] == 4
    assert doc1["seed"] == 9


def test_estimate_rejects_more_streams_than_trials(capsys):
    code, out, err = run_cli(
        capsys, "estimate", "--metric", "hamming", "--q", "2", "--ell", "1", "--s", "2",
        "--n", "2", "--k", "1", "--d", "2", "--trials", "10", "--streams", "1000000000",
    )
    assert code == 2
    assert out == "" and "worker_streams" in err


def test_verify_micro_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "micro")
    assert code == 0
    assert out.strip().endswith("PASS (micro grid)")


def test_verify_failure_exit_code(capsys, monkeypatch):
    from codedensity import cli as cli_module
    from codedensity.harness import Verdict

    monkeypatch.setattr(
        cli_module, "run_verification", lambda grid, guards: [Verdict("volume", False, {})]
    )
    code, out, _ = run_cli(capsys, "verify", "--grid", "micro")
    assert code == 1
    assert "FAIL" in out


def test_invalid_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--metric", "euclid", "--q", "2", "--n", "2", "--radius", "1"])
    assert exc.value.code == 2
    # semantic errors (not argparse-level) also map to exit 2
    code, _, err = run_cli(
        capsys, "volume", "--metric", "hamming", "--q", "6", "--ell", "1", "--s", "1",
        "--n", "2", "--radius", "1",
    )
    assert code == 2 and "error" in err


def test_guard_violation_exit_three(capsys, monkeypatch):
    monkeypatch.setenv(ENV_GUARD, "5")
    code, _, err = run_cli(
        capsys, "exact", "--metric", "hamming", "--q", "2", "--ell", "1", "--s", "1",
        "--n", "3", "--S", "3", "--d", "2",
    )
    assert code == 3
    assert "exceeds guard 5" in err


def test_approx_rendering(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--metric", "hamming", "--q", "2", "--ell", "1", "--s", "2",
        "--n", "2", "--k", "1", "--d", "2", "--approx", "4",
    )
    assert code == 0 and out == "0.6000\n"


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "region", "--t-max", "2", "--eta-max", "2", "-o", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert "t,eta,verdict" in text


_ESTIMATE = (
    "estimate", "--metric", "hamming", "--q", "2", "--ell", "1", "--s", "2",
    "--n", "2", "--k", "1", "--d", "2", "--trials", "50",
)


@pytest.mark.parametrize("seed", [str(2**64 + 1), "-1"])
def test_estimate_seed_outside_64_bits_exits_two(capsys, seed):
    code, out, err = run_cli(capsys, *_ESTIMATE, "--seed", seed)
    assert code == 2 and out == ""
    assert "seed must lie in [0, 2^64)" in err


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_estimate_seed_at_64_bit_edges_runs(capsys, seed):
    code, out, _ = run_cli(capsys, *_ESTIMATE, "--seed", str(seed))
    assert code == 0
    assert json.loads(out)["seed"] == seed


def test_level_zero_denominator_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_ESTIMATE, "--level", "1/0"])
    assert exc.value.code == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("ell", ["0", "-5"])
def test_nonpositive_ell_exits_two(capsys, ell):
    code, out, err = run_cli(
        capsys, "volume", "--metric", "rank", "--q", "2", "--ell", ell, "--s", "2",
        "--n", "2", "--radius", "1",
    )
    assert code == 2 and out == ""
    assert f"--ell must be positive, got {ell}" in err


def test_volume_over_a_huge_prime_power(capsys):
    code, out, _ = run_cli(
        capsys, "volume", "--metric", "hamming", "--q", str(2**1100), "--s", "1",
        "--n", "1", "--radius", "0",
    )
    assert code == 0
    assert json.loads(out)["result"] == {"volume": 1}


@pytest.mark.parametrize("raw", ["many", "-5"])
def test_bad_guard_environment_exits_two(capsys, monkeypatch, raw):
    monkeypatch.setenv(ENV_GUARD, raw)
    code, out, err = run_cli(capsys, "qbinom", "4", "2", "2")
    assert code == 2 and out == ""
    assert f"{ENV_GUARD} must be a nonnegative integer" in err


def test_output_to_directory_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "qbinom", "4", "2", "2", "-o", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path}")


def test_qbinom_prints_integers_of_any_size(capsys):
    from codedensity.combinat import qbinom

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, _ = run_cli(capsys, "qbinom", "400", "200", "256")
    assert code == 0
    assert limit() == before  # the CLI restores the interpreter's digit limit
    expected = qbinom(400, 200, 256)
    digits = out.strip()
    assert len(digits) > 4300 and digits.isdigit()
    # parse in short pieces, so the check itself stays under the digit limit
    value = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i : i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    assert value == expected


def test_estimate_beyond_the_weight_table_guard_exits_three(capsys, monkeypatch):
    # 2^40 words would need a 1 TB weight table: refused before any of it exists
    from codedensity import metrics

    def no_table(*args):
        raise AssertionError("the weight table was being built")

    monkeypatch.setattr(metrics, "_fp_span", no_table)
    code, out, err = run_cli(
        capsys, "estimate", "--metric", "hamming", "--q", "2", "--ell", "1", "--s", "8",
        "--n", "5", "--k", "1", "--d", "2", "--trials", "10",
    )
    assert code == 3 and out == ""
    assert f"weight table entries: exact count {2**40} exceeds guard 1000000" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("estimate", "--metric", "hamming", "--q", "2", "--s", "25", "--n", "1", "--S", "2",
          "--d", "1", "--trials", "1"), "tower extension degree: exact count 25 exceeds guard 24"),
        (("volume", "--metric", "hamming", "--q", "2", "--s", "17", "--n", "1", "--radius", "1",
          "--oracle"), f"volume oracle space size: exact count {2**17} exceeds guard {2**16}"),
    ],
)
def test_fixed_caps_exit_three(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert message in err


_SPACE_ARGS = ("--metric", "hamming", "--q", "2", "--ell", "1", "--s", "1")


@pytest.fixture
def no_formula(monkeypatch):
    """Stub out the formulas behind the guarded commands, so that a missing
    guard fails a test at once instead of computing for minutes."""
    from codedensity import cli

    def refuse(*args):
        raise AssertionError("the formula was being evaluated")

    for name in ("qbinom", "ball_volume", "gv_cardinality", "nonlinear_bracket"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("qbinom", "20000", "10000", "2"), 10000 * 10000 * 2),
        (("bound", "--kind", "density-bracket", *_SPACE_ARGS, "--n", "10000000", "--d", "3",
          "--S", "4"), 10**7 * 2),
        (("bound", "--kind", "gv", *_SPACE_ARGS, "--n", "50000000", "--d", "3"), 5 * 10**7 * 2),
        (("volume", "--metric", "rank", "--q", "2", "--ell", "1", "--s", "3000", "--n", "3000",
          "--radius", "1000"), 3000 * 3000 * 2),
    ],
)
def test_formula_output_beyond_the_size_guard_exits_three(capsys, no_formula, argv, bound):
    # each of these ran for minutes before the output-size guard existed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert f"output size bound in bits: exact count {bound} exceeds guard {2**20}" in err


def test_output_size_guard_admits_its_cap(capsys, monkeypatch):
    from codedensity import cli

    monkeypatch.setattr(cli, "qbinom", lambda a, b, base: 0)
    # 128 * 128 * bits(2^63) = 2^20 exactly; one more row is past the cap
    assert run_cli(capsys, "qbinom", "256", "128", str(2**63))[:2] == (0, "0\n")
    assert run_cli(capsys, "qbinom", "257", "128", str(2**63))[0] == 3


@pytest.mark.parametrize("raw", ["0", str(10**12)])
def test_output_size_guard_ignores_the_enumeration_guard(capsys, monkeypatch, raw):
    monkeypatch.setenv(ENV_GUARD, raw)
    code, out, _ = run_cli(capsys, "qbinom", "300", "150", "256")
    assert code == 0 and len(out) > 4300
    monkeypatch.setattr("codedensity.cli.qbinom", lambda a, b, base: 0)
    assert run_cli(capsys, "qbinom", "20000", "10000", "2")[0] == 3


def _document_of(command, config, result):
    return {
        "command": command, "config": config, "result": result, "seed": None,
        "tool": "codedensity", "version": __version__,
    }


_README_SPACE = {"ell": 1, "m": None, "n": 2, "q": 2, "s": 2, "t": 1}


@pytest.mark.parametrize(
    "argv, document",
    [
        (
            ("volume", "--metric", "rank", "--q", "2", "--ell", "1", "--s", "2", "--n", "2",
             "--radius", "1", "--oracle"),
            _document_of(
                "volume",
                {**_README_SPACE, "metric": "rank", "oracle": True, "radius": 1},
                {"match": True, "oracle": 10, "volume": 10},
            ),
        ),
        (
            ("bound", "--kind", "density-bracket", "--metric", "hamming", "--q", "2", "--ell",
             "1", "--s", "2", "--n", "2", "--k", "1", "--d", "2"),
            _document_of(
                "bound",
                {**_README_SPACE, "S": None, "d": 2, "k": 1, "kind": "density-bracket",
                 "metric": "hamming"},
                {"lower": "3/5", "raw_lower": "3/5", "raw_upper": "3/5", "theta_bar": "1",
                 "upper": "3/5"},
            ),
        ),
    ],
)
def test_readme_formula_examples_stay_under_the_size_guard(capsys, argv, document):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(document, sort_keys=True, indent=2) + "\n"
