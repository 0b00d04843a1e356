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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("--family", "custom", "--metric", "hamming", "--growing", "q", "--ell", "0", "--n", "4",
             "--s", "1", "--d", "2", "--S-coeff", "-1", "--S-intercept", "2"),
            "cardinality coefficient must be positive",
        ),
        (
            ("--family", "custom", "--metric", "hamming", "--growing", "q", "--ell", "0", "--n", "4",
             "--s", "1", "--d", "2", "--S-coeff", "0", "--S-intercept", "2"),
            "cardinality coefficient must be positive",
        ),
        (
            ("--family", "mds", "--growing", "n", "--ell", "1", "--q", "2", "--s", "1", "--d", "2",
             "--eta", "7"),
            "leave it unset when n grows",
        ),
    ],
)
def test_classify_rejects_meaningless_scenarios(capsys, argv, message):
    code, out, err = run_cli(capsys, "classify", *argv)
    assert code == 2 and out == ""
    assert message in err


_GV_REFUSAL = "Gilbert-Varshamov family needs d - 1 below the diameter"


@pytest.mark.parametrize(
    "argv, classify_message, probe_message",
    [
        # d - 1 = 4 exceeds the Hamming diameter 1
        (
            ("--family", "gv", "--metric", "hamming", "--growing", "q", "--ell", "1", "--n", "1",
             "--s", "1", "--d", "5"),
            _GV_REFUSAL,
            "d=5 out of range [1, 2]",
        ),
        # d - 1 = 3 exceeds the eventual rank diameter m = 2
        (
            ("--family", "gv", "--metric", "rank", "--growing", "n", "--ell", "1", "--q", "2",
             "--s", "2", "--d", "4"),
            _GV_REFUSAL,
            "d=4 out of range [1, 3]",
        ),
        # nonlinear: d - 1 = 2 reaches the eventual rank diameter m = s = 2
        (
            ("--family", "gv", "--metric", "rank", "--growing", "n", "--ell", "0", "--q", "2",
             "--s", "2", "--d", "3"),
            _GV_REFUSAL,
            "existence-bound family collapses at probe 2",
        ),
        (
            ("--family", "custom", "--metric", "hamming", "--growing", "q", "--ell", "1", "--n", "3",
             "--s", "1", "--d", "2", "--k-slope", "0", "--k-intercept", "5/2"),
            "dimension k=5/2 is not an integer",
            "dimension k=5/2 invalid",
        ),
    ],
)
def test_classify_refuses_what_probe_refuses(capsys, argv, classify_message, probe_message):
    code, out, err = run_cli(capsys, "classify", *argv)
    assert code == 2 and out == ""
    assert classify_message in err
    code, out, err = run_cli(capsys, "probe", *argv, "--probes", "2,3,5")
    assert code == 2 and out == ""
    assert probe_message in err


def test_classify_gv_distance_stops_below_the_diameter(capsys):
    # at d - 1 = n = 3 no code has distance d: probes bracket the density
    # at [0, 0], so a "dense" verdict there would be wrong
    argv = lambda d: ("--family", "gv", "--metric", "hamming", "--growing", "q", "--ell", "1", "--n", "3",
                      "--s", "1", "--d", d)
    for d in ("2", "3"):
        assert run_cli(capsys, "classify", *argv(d))[0] == 0
    code, out, err = run_cli(capsys, "classify", *argv("4"))
    assert code == 2 and _GV_REFUSAL in err
    code, out, _ = run_cli(capsys, "probe", *argv("4"), "--probes", "2,3,5")
    assert code == 0
    assert [row.split(",")[2:] for row in out.splitlines()[-3:]] == [["0", "0"]] * 3


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


def test_estimate_json_is_reproducible(capsys):
    argv = [
        "estimate", "--metric", "hamming", "--q", "2", "--ell", "1", "--s", "2",
        "--n", "2", "--k", "1", "--d", "2", "--trials", "300", "--seed", "9",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 9 and "streams" not in doc["config"]


def test_estimate_has_no_streams_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_ESTIMATE, "--streams", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("metric", ["hamming", "rank"])
def test_space_command_with_t_outside_sumrank_exits_two(capsys, metric):
    # the block count is refused, not dropped for the t = 1 space
    code, out, err = run_cli(
        capsys, "volume", "--metric", metric, "--q", "2", "--s", "1", "--n", "4",
        "--t", "2", "--radius", "1",
    )
    assert code == 2 and out == ""
    assert "t is only meaningful for the sum-rank metric" in err


@pytest.mark.parametrize("command", ["classify", "probe"])
def test_classify_with_t_outside_sumrank_exits_two(capsys, command):
    probes = ["--probes", "5,7"] if command == "probe" else []
    code, out, err = run_cli(
        capsys, command, "--family", "mds", "--growing", "q", "--ell", "1",
        "--n", "4", "--s", "2", "--d", "2", "--t", "2", *probes,
    )
    assert code == 2 and out == ""
    assert "t is only meaningful for the sum-rank metric" in err


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


@pytest.mark.parametrize("family", ["custom", "gv"])
def test_unsupported_nonlinear_asymptotics_exit_two(capsys, family):
    # the library raises UnsupportedAsymptotics; the CLI reports it as an
    # invalid request, with no traceback
    code, out, err = run_cli(
        capsys, "classify", "--family", family, "--metric", "hamming", "--growing", "s",
        "--ell", "0", "--n", "2", "--q", "2", "--d", "2", "--S", "2",
    )
    assert code == 2 and out == ""
    assert "error: nonlinear classification supports growing q and n" in err
    assert "Traceback" not in err


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


def test_approx_leaves_the_decimal_context_alone(capsys):
    import decimal

    before = decimal.getcontext().prec
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "density-bracket", "--metric", "hamming", "--q", "2",
        "--s", "2", "--n", "3", "--d", "2", "--S", "3", "--approx", "5",
    )
    assert code == 0 and "." in out
    assert decimal.getcontext().prec == before == 28


@pytest.mark.parametrize("approx", ["-3", "-1", "x"])
def test_negative_approx_exits_two(capsys, approx):
    with pytest.raises(SystemExit) as exc:
        main([
            "exact", "--metric", "hamming", "--q", "2", "--ell", "1", "--s", "2",
            "--n", "2", "--k", "1", "--d", "2", "--approx", approx,
        ])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--approx: expected a nonnegative integer" in captured.err


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


def test_exact_decimal_matches_the_builtin_conversion():
    # the halving conversion against Decimal(int), at the 4096-bit piece
    # size, its neighbours and several levels of halving, with both signs;
    # fractions past the piece size print the digits the builtin gives on
    # the exact and the --approx paths
    import random
    from decimal import Decimal, localcontext
    from fractions import Fraction

    from codedensity.cli import _exact_decimal, _fmt

    rng = random.Random(24)
    values = [0, 1, 4096]
    for bits in (4095, 4096, 4097, 8193, 3 * 4096 + 5, 40000):
        values += [(1 << bits) - 1, 1 << bits, rng.getrandbits(bits) | 1]
    for v in values + [-v for v in values]:
        assert _exact_decimal(v).as_tuple() == Decimal(v).as_tuple(), v.bit_length()
    for a, b in zip(values[3::3], values[5::3]):
        x = Fraction(a, b + 2)
        assert _fmt(x, None) == f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
        with localcontext() as ctx:
            ctx.prec = 40
            want = str((Decimal(x.numerator) / Decimal(x.denominator)).quantize(Decimal(1).scaleb(-30)))
        assert _fmt(x, 30) == want


def test_subset_walk_past_the_guard_is_refused_from_a_bound(capsys, monkeypatch):
    # C(2^21, 2^20 + 1) has 631 303 digits and took most of a minute to
    # compute: 2^min(S, N-S) already exceeds the guard, so it is never built
    from codedensity import harness

    def no_count(*args):
        raise AssertionError("C(N, S) was being computed")

    monkeypatch.setattr(harness, "binom", no_count)
    code, out, err = run_cli(
        capsys, "exact", "--metric", "hamming", "--q", "2", "--s", "1", "--n", "21",
        "--S", "1048577", "--d", "2",
    )
    assert code == 3 and out == ""
    assert "subset code enumeration: count at least 2^20 exceeds guard 1000000" in err


def test_subset_guard_counts_the_sets_the_walk_scores(capsys, monkeypatch):
    # C(64, 5) = 7 624 512 sets are past the default guard, but the walk
    # scores only the C(63, 4) = 595 665 that hold the zero word
    monkeypatch.delenv(ENV_GUARD, raising=False)
    code, out, err = run_cli(
        capsys, "exact", "--metric", "hamming", "--q", "2", "--s", "2", "--n", "3", "--S", "5", "--d", "2",
    )
    assert code == 0 and out == "2496/13237\n", err


def test_estimate_beyond_the_weight_table_guard_exits_three(capsys, monkeypatch):
    # 2^40 words would need a 1 TB weight table: refused before any of it
    # exists
    from codedensity import metrics

    def no_table(*args):
        raise AssertionError("the weight table was being built")

    monkeypatch.setattr(metrics, "_word_columns", no_table)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--S", "3", "--d", "2"),
        ("estimate", "--k", "1", "--d", "2"),
        ("exact", "--S", "3", "--d", "2"),
    ],
)
def test_codeword_commands_need_a_prime_q(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--metric", "hamming", "--q", "4", "--s", "1", "--n", "2")
    assert code == 2 and out == ""
    assert "codeword-level operations need a prime q (towers over F_q); got q=4" in err


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
