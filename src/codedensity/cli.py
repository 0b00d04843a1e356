"""Command-line front door.

Data goes to stdout (or --output), logs to stderr.  JSON documents carry the
tool version, the fully resolved configuration, and the seed, and serialize
exact rationals as "numerator/denominator" strings (decimal rendering only on
--approx).  Delimited output is RFC-4180 CSV preceded by `#` metadata lines.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 guard violation (message carries the exact offending count).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from decimal import Decimal, getcontext
from fractions import Fraction

from . import __version__
from .bounds import (
    CodeFamilySpec,
    gv_cardinality,
    max_linear_dimension,
    nonlinear_bracket,
    singleton_max,
    sublinear_bracket,
)
from .classifier import (
    NOT_DENSE,
    Scenario,
    classify,
    msrd_eta_region,
    specialized_verdict,
)
from .combinat import qbinom
from .guards import OUTPUT_BITS, Guards, GuardExceeded
from .harness import (
    DEFAULT_SEED,
    convergence_experiment,
    estimate_density,
    exact_density,
    run_verification,
)
from .metrics import AmbientSpace, ball_volume, ball_volume_oracle

_METRICS = ("hamming", "rank", "sumrank")


def _fmt(value, approx: int | None):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        if approx is None:
            return f"{value.numerator}/{value.denominator}"
        getcontext().prec = approx + 10
        quantum = Decimal(1).scaleb(-approx)
        return str((Decimal(value.numerator) / Decimal(value.denominator)).quantize(quantum))
    if isinstance(value, dict):
        return {k: _fmt(v, approx) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v, approx) for v in value]
    return value


def _document(command: str, config: dict, result, seed=None, approx=None) -> str:
    doc = {
        "command": command,
        "config": _fmt(config, None),
        "result": _fmt(result, approx),
        "seed": seed,
        "tool": "codedensity",
        "version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_output(command: str, config: dict, header: list[str], rows, seed=None) -> str:
    buf = io.StringIO()
    buf.write(f"# tool: codedensity {__version__}\n")
    buf.write(f"# command: {command}\n")
    buf.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
    if seed is not None:
        buf.write(f"# seed: {seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _add_space_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", choices=_METRICS, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--s", type=int)
    p.add_argument("--m", type=int, help="alternative to --s; m = ell*s")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=1, help="sum-rank block count")
    p.add_argument("--output", "-o", default=None)


def _space_from(args) -> AmbientSpace:
    ell = args.ell
    if ell < 1:
        raise ValueError(f"--ell must be positive, got {ell}")
    s = args.s
    if s is None:
        if args.m is None:
            raise ValueError("provide --s or --m")
        if args.m % ell:
            raise ValueError(f"--m {args.m} is not a multiple of --ell {ell}")
        s = args.m // ell
    return AmbientSpace(args.q, ell, s, args.n, args.metric, t=args.t if args.metric == "sumrank" else 1)


def _family_from(args) -> CodeFamilySpec:
    if args.S is not None and args.k is not None:
        raise ValueError("give either --S (nonlinear) or --k (linear), not both")
    if args.S is not None:
        return CodeFamilySpec(linearity=0, d=args.d, size=args.S)
    if args.k is not None:
        return CodeFamilySpec(linearity=args.ell, d=args.d, dim=args.k)
    raise ValueError("give --S (nonlinear) or --k (linear)")


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


@contextlib.contextmanager
def _exact_int_output():
    """Let exact integers print in full: lift the int-to-str digit limit
    (Python >= 3.10.7 caps it at 4300 digits) and restore it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _hold_output_bits(bits: int) -> None:
    """Refuse, before any work, a formula whose integers may run past
    ``OUTPUT_BITS`` bits; ``bits`` bounds their size from the inputs."""
    if bits > OUTPUT_BITS:
        raise GuardExceeded("output size bound in bits", bits, OUTPUT_BITS)


def _space_within(args) -> AmbientSpace:
    """The command's ambient space F_{q^m}^n, held to m * n * bits(q) bits,
    the size of q^(m n), which sets the scale of every volume and bound."""
    space = _space_from(args)
    _hold_output_bits(space.m * space.n * space.q.bit_length())
    return space


def _cmd_qbinom(args, guards: Guards) -> int:
    # [a, b]_q < 4 q^(b (a - b)), so b (a - b) bits(q) bounds its bits but for
    # a couple of bits
    _hold_output_bits(args.b * (args.a - args.b) * args.base.bit_length())
    _emit(f"{qbinom(args.a, args.b, args.base)}\n", args.output)
    return 0


def _cmd_volume(args, guards: Guards) -> int:
    space = _space_within(args)
    vol = ball_volume(space, args.radius)
    result = {"volume": vol}
    if args.oracle:
        counted = ball_volume_oracle(space, args.radius)
        result["oracle"] = counted
        result["match"] = vol == counted
    config = _config_of(args, ("metric", "q", "ell", "s", "m", "n", "t", "radius", "oracle"))
    _emit(_document("volume", config, result, approx=args.approx), args.output)
    return 0 if result.get("match", True) else 1


def _cmd_bound(args, guards: Guards) -> int:
    space = _space_within(args)
    config = _config_of(args, ("kind", "metric", "q", "ell", "s", "m", "n", "t", "d", "S", "k"))
    if args.kind == "singleton":
        result = {"max_cardinality": singleton_max(space, args.d)}
    elif args.kind == "gv":
        result = {"guaranteed_cardinality": gv_cardinality(space, args.d)}
    elif args.kind == "kstar":
        k_star, exact = max_linear_dimension(space, args.d, args.ell)
        result = {"k_star": k_star, "extremal_is_singleton": exact}
    else:
        spec = _family_from(args)
        if spec.linearity == 0:
            bracket, terms = nonlinear_bracket(space, spec.size, spec.d)
            extra = {
                "theta": terms.theta,
                "beta0": terms.beta0,
                "beta1": terms.beta1,
            }
        else:
            bracket, terms = sublinear_bracket(space, spec.dim, spec.linearity, spec.d)
            extra = {"theta_bar": terms.theta_bar}
        result = {
            "lower": bracket.lower,
            "upper": bracket.upper,
            "raw_lower": bracket.raw_lower,
            "raw_upper": bracket.raw_upper,
            **extra,
        }
    _emit(_document("bound", config, result, approx=args.approx), args.output)
    return 0


def _scenario_from(args) -> Scenario:
    family_map = {"mds": "hamming", "mrd": "rank", "msrd": "sumrank"}
    if args.family in family_map:
        metric = family_map[args.family]
        family = "extremal"
    else:
        if args.metric is None:
            raise ValueError(f"--metric is required for family {args.family}")
        metric = args.metric
        family = args.family if args.family == "gv" else None
        if family is None:
            if args.k is not None or args.k_slope is not None:
                family = "dimension"
            elif args.S_coeff is not None or args.S is not None:
                family = "cardinality"
            else:
                raise ValueError("custom families need --k/--k-slope or --S/--S-coeff")
    growing = args.growing
    ell = args.ell
    if growing == "ell":
        if ell not in (None, 0):
            raise ValueError("--ell must be omitted when it is the growing parameter")
        ell = None
    elif ell is None:
        ell = 1
    s = args.s
    if s is None and args.m is not None and growing != "s":
        div = 1 if not ell else ell
        if args.m % div:
            raise ValueError(f"--m {args.m} is not a multiple of --ell {div}")
        s = args.m // div
    kwargs = {}
    if family == "dimension":
        if args.k is not None:
            kwargs["dim_intercept"] = Fraction(args.k)
        if args.k_slope is not None:
            kwargs["dim_slope"] = args.k_slope
        if args.k_intercept is not None:
            kwargs["dim_intercept"] = args.k_intercept
    if family == "cardinality":
        if args.S is not None:
            kwargs["card_coeff"] = Fraction(args.S)
        if args.S_coeff is not None:
            kwargs["card_coeff"] = args.S_coeff
        if args.S_slope is not None:
            kwargs["card_slope"] = args.S_slope
        if args.S_intercept is not None:
            kwargs["card_intercept"] = args.S_intercept
    return Scenario(
        metric=metric,
        growing=growing,
        family=family,
        d=args.d,
        ell=ell,
        q=args.q if growing != "q" else None,
        n=args.n if growing != "n" else None,
        s=s if growing != "s" else None,
        t=args.t,
        eta=args.eta,
        **kwargs,
    )


def _classification_result(sc: Scenario) -> dict:
    outcome = classify(sc)
    cross = specialized_verdict(sc)
    result = {
        "verdict": outcome.verdict,
        "source": outcome.source,
        "witness": dict(outcome.witness),
    }
    if outcome.upper_bound is not None:
        result["upper_bound"] = outcome.upper_bound
    if outcome.notes:
        result["notes"] = list(outcome.notes)
    if cross is not None:
        result["cross_check"] = {
            "verdict": cross.verdict,
            "source": cross.source,
            "upper_bound": cross.upper_bound,
            "agrees": cross.verdict == outcome.verdict
            and (cross.verdict != NOT_DENSE or cross.upper_bound == outcome.upper_bound),
        }
        if cross.notes:
            result["cross_check"]["notes"] = list(cross.notes)
    return result


_SCENARIO_KEYS = (
    "family", "growing", "metric", "q", "ell", "s", "m", "n", "t", "eta", "d",
    "k", "k_slope", "k_intercept", "S", "S_coeff", "S_slope", "S_intercept",
)


def _cmd_classify(args, guards: Guards) -> int:
    sc = _scenario_from(args)
    result = _classification_result(sc)
    config = _config_of(args, _SCENARIO_KEYS)
    _emit(_document("classify", config, result, approx=args.approx), args.output)
    return 0


def _cmd_region(args, guards: Guards) -> int:
    cells = msrd_eta_region(args.t_max, args.eta_max)
    config = {"t_max": args.t_max, "eta_max": args.eta_max}
    rows = [(t, eta, label) for t, eta, label in cells]
    _emit(_csv_output("region", config, ["t", "eta", "verdict"], rows), args.output)
    return 0


_TABLE1_ROWS = (
    ("1", "10", "5", [(1, 10, 5)]),
    ("2", ">=1", "2", [(2, t, 2) for t in range(1, 11)]),
    (">=2", "10", "5", [(eta, 10, 5) for eta in (2, 3, 4)]),
    ("3", ">=1", "3", [(3, t, 3) for t in range(1, 11)]),
)


def _cmd_table1(args, guards: Guards) -> int:
    rows = []
    for eta_label, t_label, d_label, instances in _TABLE1_ROWS:
        verdicts = set()
        for eta, t, d in instances:
            sc = Scenario("sumrank", "q", "extremal", d, ell=1, s=eta, t=t, eta=eta)
            verdicts.add(classify(sc).verdict)
        if len(verdicts) != 1:
            raise AssertionError(f"table row (eta={eta_label}, t={t_label}) is not homogeneous: {verdicts}")
        rows.append((eta_label, t_label, d_label, verdicts.pop()))
    _emit(_csv_output("table1", {}, ["eta", "t", "d", "verdict"], rows), args.output)
    return 0


def _cmd_estimate(args, guards: Guards) -> int:
    space = _space_from(args)
    spec = _family_from(args)
    report = estimate_density(
        space,
        spec,
        trials=args.trials,
        seed=args.seed,
        level=args.level,
        worker_streams=args.streams,
        guards=guards,
    )
    config = _config_of(
        args, ("metric", "q", "ell", "s", "m", "n", "t", "S", "k", "d", "trials", "level", "streams")
    )
    _emit(_document("estimate", config, report.payload(), seed=args.seed), args.output)
    return 0


def _cmd_exact(args, guards: Guards) -> int:
    space = _space_from(args)
    spec = _family_from(args)
    density = exact_density(space, spec, guards)
    _emit(f"{_fmt(density, args.approx)}\n", args.output)
    return 0


def _cmd_probe(args, guards: Guards) -> int:
    sc = _scenario_from(args)
    probes = [int(v) for v in args.probes.split(",") if v.strip()]
    rows = convergence_experiment(sc, probes)
    config = _config_of(args, _SCENARIO_KEYS + ("probes",))
    out_rows = [
        (r.probe, _fmt(r.rho, args.approx), _fmt(r.lower, args.approx), _fmt(r.upper, args.approx))
        for r in rows
    ]
    _emit(
        _csv_output("probe", config, ["probe", "rho", "bracket_lower", "bracket_upper"], out_rows),
        args.output,
    )
    return 0


def _cmd_verify(args, guards: Guards) -> int:
    verdicts = run_verification(args.grid, guards)
    failed = [v for v in verdicts if not v.passed]
    by_subject: dict[str, list] = {}
    for v in verdicts:
        by_subject.setdefault(v.subject, []).append(v)
    for subject, items in sorted(by_subject.items()):
        bad = sum(1 for v in items if not v.passed)
        status = "ok" if bad == 0 else f"{bad} FAILED"
        sys.stdout.write(f"{subject}: {len(items) - bad}/{len(items)} passed ({status})\n")
    for v in failed:
        sys.stdout.write(f"FAIL {v.subject}: {v.details}\n")
    sys.stdout.write(("PASS" if not failed else "FAIL") + f" ({args.grid} grid)\n")
    return 0 if not failed else 1


def _config_of(args, keys) -> dict:
    out = {}
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if isinstance(val, Fraction):
            val = str(val)
        out[key] = val
    return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedensity",
        description="Exact density brackets, Singleton/GV bounds, and asymptotic "
        "classification for codes in the Hamming, rank, and sum-rank metrics.",
    )
    parser.add_argument("--version", action="version", version=f"codedensity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str) -> argparse.ArgumentParser:
        """A subcommand whose handler main calls as func(args, guards)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = add("qbinom", _cmd_qbinom, help="exact Gaussian binomial coefficient")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("base", type=int)
    p.add_argument("--output", "-o", default=None)

    p = add("volume", _cmd_volume, help="exact ball volume, optionally cross-checked")
    _add_space_args(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--approx", type=int, default=None)

    p = add("bound", _cmd_bound, help="Singleton/GV/k*/density-bracket bounds")
    p.add_argument("--kind", choices=("singleton", "gv", "density-bracket", "kstar"), required=True)
    _add_space_args(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--S", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--approx", type=int, default=None)

    for name, func, text in (
        ("classify", _cmd_classify, "asymptotic verdict"),
        ("probe", _cmd_probe, "finite convergence table"),
    ):
        p = add(name, func, help=text)
        p.add_argument("--family", choices=("mds", "mrd", "msrd", "gv", "custom"), required=True)
        p.add_argument("--growing", choices=("q", "n", "ell", "s"), required=True)
        p.add_argument("--metric", choices=_METRICS, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--s", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--t", type=int, default=1)
        p.add_argument("--eta", type=int, default=None)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--k-slope", type=_frac, default=None)
        p.add_argument("--k-intercept", type=_frac, default=None)
        p.add_argument("--S", type=int, default=None)
        p.add_argument("--S-coeff", type=_frac, default=None)
        p.add_argument("--S-slope", type=_frac, default=None)
        p.add_argument("--S-intercept", type=_frac, default=None)
        p.add_argument("--approx", type=int, default=None)
        p.add_argument("--output", "-o", default=None)
        if name == "probe":
            p.add_argument("--probes", required=True, help="comma-separated probe values")

    p = add("region", _cmd_region, help="dense/sparse region grid over (t, eta)")
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--eta-max", type=int, required=True)
    p.add_argument("--output", "-o", default=None)

    p = add("table1", _cmd_table1, help="the four sum-rank example rows as CSV")
    p.add_argument("--output", "-o", default=None)

    p = add("estimate", _cmd_estimate, help="seeded Monte Carlo density estimate")
    _add_space_args(p)
    p.add_argument("--S", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--level", type=_frac, default=Fraction(99, 100))

    p = add("exact", _cmd_exact, help="exhaustive exact density")
    _add_space_args(p)
    p.add_argument("--S", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--approx", type=int, default=None)

    p = add("verify", _cmd_verify, help="run the verification suites")
    p.add_argument("--grid", choices=("micro", "desk"), default="micro")

    return parser


@_exact_int_output()
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, Guards.from_env())
    except GuardExceeded as exc:
        sys.stderr.write(f"guard violation: {exc}\n")
        return 3
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(parser.format_usage())
        return 2


if __name__ == "__main__":
    sys.exit(main())
