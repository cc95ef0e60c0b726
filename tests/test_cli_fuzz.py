"""Argv fuzz of the CLI's exit-code contract.

Every subcommand is driven by a bounded grammar of small counts and of
well-formed, malformed and out-of-range descriptors and literals. Whatever
the argv, the CLI exits 0, 1, 2 or 3 (4 would be a fault of the program),
prints no traceback, writes strict JSON under --format json, and exits 1
only from a verify report that failed.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hardylab.cli import main

MEANS = ["arithmetic", "power:1/2", "power:0", "power:-2", "power:3", "power:-inf",
         "power:inf", "power:1e400", "power:1e-400", "power:-1e9", "power:nan",
         "power:zzz", "quasiarithmetic:log", "quasiarithmetic:sqrt",
         "quasiarithmetic:identity", "quasiarithmetic:cube", "bogus"]
WEIGHTS = ["ones", "dyadic", "geometric:1/2", "geometric:2", "geometric:1",
           "geometric:1/1000", "geometric:1e400", "geometric:1e-400", "geometric:0",
           "geometric:-1", "perturbed-dyadic:2", "perturbed-dyadic:0", "power:-2",
           "power:-1", "power:1/2", "power:-3/2", "power:400", "power:-400",
           "power:1e400", "power:-1e400", "power:1e-400", "nonsense"]
NUMBERS = ["1", "2", "1/2", "3/4", "0", "-1", "inf", "-inf", "nan", "1e400", "-1e400",
           "1e-400", "0.5", "abc", "3/0"]
COUNTS = ["1", "2", "3", "5", "8", "0", "-1", "1/2", "nan"]
LISTS = ["1,2", "3,1,2", "1/2,1/3", "4,2,1", "1", "1,,2", "inf,1", "1e400,1",
         "0,1", "-1,2", "0.5,1", "nan,1", ",", "1;2", "1/1" + "0" * 400 + ",1,1"]
BLOCKS = ["1", "2", "2,1", "1,3,2", "0", "-1", "2,x"]
SEEDS = ["0", "1", "7"]

number = st.sampled_from(NUMBERS)
count = st.sampled_from(COUNTS)


def _opt(flag, values):
    """Either nothing or one flag with a drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _cmd(*parts):
    """Concatenate fixed tokens and drawn token lists into one argv."""
    parts = [st.just(list(p)) if isinstance(p, tuple) else p for p in parts]
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


def _one(flag, values):
    return values.map(lambda v: [flag, v])


MEAN = _one("--mean", st.sampled_from(MEANS))
WEIGHT = _one("--weights", st.sampled_from(WEIGHTS))
N = _one("--N", count)
TRIALS = _one("--trials", count)
SEED = _opt("--seed", st.sampled_from(SEEDS))
TOL = _opt("--tol", number)

# the commands that read number literals other than weights, and so take
# --float
FLOAT_COMMANDS = st.one_of(
    _cmd(("constant",), _one("--copson", number)),
    _cmd(("verify", "jcin"), MEAN,
         st.one_of(_cmd(_one("--x", st.sampled_from(LISTS)),
                        _one("--w", st.sampled_from(LISTS))),
                   TRIALS),
         TOL),
    _cmd(("verify", "decreasing"), MEAN, _one("--x", st.sampled_from(LISTS)),
         _one("--w", st.sampled_from(LISTS)), _one("--grid", st.sampled_from(LISTS)),
         TOL),
    _cmd(("verify", "mu1-sweep"), MEAN, TRIALS, N, _opt("--cap", number), TOL),
    _cmd(("explore", "continuity"), MEAN, _opt("--s-grid", st.sampled_from(LISTS)),
         N, _opt("--starts", count)),
)
# the commands without --float (it is a usage error there): weights are
# never read as floats
PLAIN_COMMANDS = st.one_of(
    _cmd(("constant", "--arithmetic"), WEIGHT, N,
         st.sampled_from([[], ["--certified"]])),
    _cmd(("estimate", "--method", "finite"), MEAN, WEIGHT, N,
         _opt("--starts", count), SEED),
    _cmd(("estimate", "--method", "kedlaya"), MEAN, WEIGHT, N),
    _cmd(("verify", "axioms"), MEAN, TRIALS, SEED, TOL),
    _cmd(("verify", "cut"), MEAN, WEIGHT, _one("--blocks", st.sampled_from(BLOCKS)),
         _opt("--N", count)),
    _cmd(("verify", "lsc-example"), _one("--kmax", st.sampled_from(["1", "3", "0"])), N),
    _cmd(("estimate", "--method", "nonweighted-limit"), MEAN, N),
)
FORMAT = st.sampled_from(["json", "json", "csv", "text"]).map(lambda f: ["--format", f])
ARGVS = st.one_of(
    _cmd(FLOAT_COMMANDS, FORMAT, st.sampled_from([[], ["--float"]])),
    _cmd(PLAIN_COMMANDS, FORMAT),
)


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _failed(report: dict) -> bool:
    """A verify report that records a failed claim."""
    if "converged" in report:  # lsc-example
        return not report["converged"] or any(k >= 2 for k in report["dip_positions"])
    return report.get("outcome") == "fail" or report.get("passed") is False


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an option's value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_non_finite_report_values_are_strict_json():
    code, out, _ = _run(["verify", "mu1-sweep", "--mean", "power:1/2", "--trials", "1",
                         "--N", "8", "--cap", "inf", "--format", "json"])
    assert code == 0
    assert json.loads(out, parse_constant=_refuse_constant)["report"]["margin"] == "inf"


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGVS)
def test_every_argv_keeps_the_exit_code_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    doc = None
    if code in (0, 1) and "json" in argv:
        doc = json.loads(out, parse_constant=_refuse_constant)
    if code == 1:
        assert argv[0] == "verify", argv
        if doc is not None:
            assert _failed(doc["report"]), argv
