import csv
import hashlib
import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from hardylab.cli import main
from hardylab.hardy import arithmetic_hardy
from hardylab.weights import make_sequence


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses an option's value
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_big_fraction(text):
    """A "p/q" string of any size (Fraction(str) and int(str) refuse more
    than sys.get_int_max_str_digits() digits, Decimal does not)."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


class TestConstant:
    def test_copson_half_is_four(self, capsys):
        code, out, _ = run(capsys, "constant", "--copson", "1/2",
                           "--format", "text")
        assert code == 0
        assert "4" in out

    def test_copson_json_value(self, capsys):
        code, out, _ = run(capsys, "constant", "--copson", "0", "--format",
                           "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hardy-lab/1"
        assert doc["command"] == "constant"
        assert doc["report"]["value"] == pytest.approx(math.e, rel=1e-15)

    def test_certified_interval(self, capsys):
        code, out, _ = run(capsys, "constant", "--arithmetic", "--weights",
                           "dyadic", "--N", "40", "--certified",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        rep = doc["report"]
        assert rep["direction"] == "interval"
        lo, hi = Fraction(rep["lower"]), Fraction(rep["upper"])
        assert lo < Fraction(16066951524150000, 10 ** 16) < hi
        assert float(hi - lo) < 1e-9

    def test_certified_text_uses_readable_floats(self, capsys):
        code, out, _ = run(capsys, "constant", "--arithmetic", "--weights",
                           "dyadic", "--N", "40", "--certified",
                           "--format", "text")
        assert code == 0
        assert "/" not in out.splitlines()[-1]  # no thousand-digit rationals
        assert "1.6066951524" in out

    def test_exact_results_of_any_size_print(self, capsys):
        # at N = 1000 both ends have about 91,600 digits above and below the
        # bar, beyond the 4,300 digits str() renders by default
        code, out, err = run(capsys, "constant", "--arithmetic", "--weights",
                             "dyadic", "--N", "1000", "--certified", "--format", "json")
        assert code == 0, err
        rep = json.loads(out)["report"]
        want = arithmetic_hardy(make_sequence("dyadic"), 1000, certified=True)
        assert parse_big_fraction(rep["lower"]) == want.lower
        assert rep["upper"].count("/") == 1 and len(rep["upper"]) > 2 * 90_000

        code, out, err = run(capsys, "constant", "--arithmetic", "--weights",
                             "dyadic", "--N", "250", "--certified")
        assert code == 0, err
        assert "/" not in out and len(out) < 100  # text mode prints floats only

    def test_integer_power_weights_certify_exactly(self, capsys):
        code, out, _ = run(capsys, "constant", "--arithmetic", "--weights", "power:-2",
                           "--N", "6", "--certified", "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        lo, hi = rep["lower"], rep["upper"]
        assert isinstance(lo, str) and isinstance(hi, str) and "/" in lo and "/" in hi
        assert Fraction(lo) < Fraction(hi)
        assert Fraction(hi) - Fraction(lo) == Fraction(rep["diagnostics"]["tail_bound"]) \
            / sum(Fraction(1, n * n) for n in range(1, 7))

    def test_divergent_weights_cannot_certify(self, capsys):
        code, _, err = run(capsys, "constant", "--arithmetic", "--weights",
                           "ones", "--certified")
        assert code == 3
        assert "tail" in err

    @pytest.mark.parametrize("desc", ["power:-3/2", "power:-5/2"])
    def test_float_weights_cannot_certify(self, capsys, desc):
        # non-integral powers have float terms, which certify nothing
        code, out, err = run(capsys, "constant", "--arithmetic", "--weights", desc,
                             "--N", "100", "--certified")
        assert code == 3
        assert out == ""
        assert err == f"hardy: {desc}: float weights certify nothing, so the partial " \
                      "sum cannot be closed into a two-sided interval\n"

    def test_copson_reads_no_arithmetic_options(self, capsys):
        code, out, err = run(capsys, "constant", "--copson", "1/2", "--weights", "bogus",
                             "--N", "5", "--certified")
        assert code == 2
        assert out == ""
        assert err.startswith("hardy: --copson takes none of --weights, --N and --certified")

    def test_arithmetic_defaults_fill_the_config(self, capsys):
        code, out, _ = run(capsys, "constant", "--arithmetic", "--N", "3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["config"] == {"arithmetic": True, "weights": "dyadic",
                                             "N": 3, "certified": False}


class TestEstimate:
    def test_finite_section_stays_under_cap(self, capsys):
        code, out, _ = run(capsys, "estimate", "--method", "finite",
                           "--mean", "power:1/2", "--weights", "dyadic",
                           "--N", "24", "--starts", "4", "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["kind"] == "finite-section"
        assert rep["direction"] == "lower_bound"
        assert 1.0 < rep["value"] < 4.0
        assert len(rep["witness"]) == 24

    @pytest.mark.parametrize("order", ["1/1000000000", "-1/1000000000",
                                       "3/100000000"])
    def test_finite_section_near_geometric_order(self, capsys, order):
        # the spot check compares the search's prefix means with the kernel,
        # so both must treat orders near 0 alike
        code, out, _ = run(capsys, "estimate", "--method", "finite",
                           "--mean", f"power:{order}", "--weights", "ones",
                           "--N", "8", "--format", "json")
        assert code == 0
        assert 1.0 < json.loads(out)["report"]["value"] < math.e

    @pytest.mark.parametrize("desc, N", [("dyadic", "60"), ("geometric:99/100", "256")])
    def test_arithmetic_section_gives_the_float_partial_sum(self, capsys, desc, N):
        # the fast float arithmetic sum of an exact descriptor: upper_section
        # of the vertex route, not a float view of the weights
        code, out, _ = run(capsys, "estimate", "--method", "finite", "--mean",
                           "arithmetic", "--weights", desc, "--N", N)
        assert code == 0
        upper = json.loads(out)["report"]["diagnostics"]["upper_section"]
        exact = float(arithmetic_hardy(make_sequence(desc), int(N)).lower)
        assert abs(upper - exact) <= 4 * math.ulp(exact)

    def test_kedlaya_route(self, capsys):
        code, out, _ = run(capsys, "estimate", "--method", "kedlaya",
                           "--mean", "power:0", "--weights", "ones",
                           "--N", "2000", "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["kind"] == "substitution"
        assert rep["value"] == pytest.approx(math.e, rel=0.01)

    def test_nonweighted_limit(self, capsys):
        code, out, _ = run(capsys, "estimate", "--method", "nonweighted-limit",
                           "--mean", "power:0", "--N", "2000",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["value"] == pytest.approx(2.711875018209425, rel=1e-12)
        # the route runs on unit weights, and the config says so
        assert doc["config"]["weights"] == doc["report"]["weights"] == "ones"

    def test_kedlaya_refuses_convergent_weights(self, capsys):
        code, _, err = run(capsys, "estimate", "--method", "kedlaya",
                           "--mean", "power:0", "--weights", "dyadic",
                           "--N", "50")
        assert code == 3
        assert "diverge" in err


class TestVerifySubcommands:
    def test_axioms_pass_for_power_mean(self, capsys):
        code, out, _ = run(capsys, "verify", "axioms", "--mean", "power:1/2",
                           "--trials", "40", "--format", "text")
        assert code == 0
        assert "PASS" in out

    def test_jcin_single_instance_counterexample_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "jcin", "--mean", "power:2",
                           "--x", "1,3", "--w", "2,1", "--format", "json")
        assert code == 0  # informational: a counterexample is a finding
        rep = json.loads(out)["report"]
        assert rep["outcome"] == "counterexample_found"
        assert rep["margin"] == pytest.approx(-0.18280340794379923)

    def test_jcin_sweep_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "jcin", "--mean", "power:1",
                           "--trials", "25", "--format", "json")
        assert code == 0
        assert json.loads(out)["report"]["outcome"] == "pass"

    def test_cut_exact(self, capsys):
        code, out, _ = run(capsys, "verify", "cut", "--weights",
                           "geometric:1/2", "--blocks", "2,3,1",
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["passed"] is True
        assert rep["details"]["mode"] == "arithmetic-exact"

    def test_cut_uniform_blocks_shorthand(self, capsys):
        code, out, _ = run(capsys, "verify", "cut", "--weights", "ones",
                           "--blocks", "3", "--N", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

    def test_cut_mean_mode_requires_coarsening(self, capsys):
        code, _, err = run(capsys, "verify", "cut", "--mean", "power:2",
                           "--weights", "ones", "--blocks", "2", "--N", "4")
        assert code == 3
        assert "concave" in err or "coarsening" in err

    def test_cut_refuses_min_as_discontinuous_in_weights(self, capsys):
        code, _, err = run(capsys, "verify", "cut", "--weights", "ones",
                           "--blocks", "2", "--N", "3", "--mean", "power:-inf")
        assert code == 3
        assert "continuous in their weights" in err

    def test_cut_identity_generator_is_the_exact_route(self, capsys):
        argv = ("verify", "cut", "--weights", "geometric:1/2", "--blocks", "2,3,1",
                "--format", "json")
        reports = []
        for mean in ("quasiarithmetic:identity", "arithmetic"):
            code, out, _ = run(capsys, *argv, "--mean", mean)
            assert code == 0
            reports.append(json.loads(out)["report"])
        ident, arith = reports
        assert ident["details"]["mode"] == "arithmetic-exact"
        for key in ("passed", "margin", "witness"):
            assert ident[key] == arith[key]

    @pytest.mark.parametrize("mean", ["arithmetic", "power:1/2"])
    def test_cut_refuses_float_mode_weights(self, capsys, mean):
        # non-integer power:ALPHA weights are float-mode: the route's
        # precondition fails (exit 3), the argv is well formed (not 2)
        code, out, err = run(capsys, "verify", "cut", "--mean", mean, "--weights",
                             "power:-3/2", "--blocks", "2", "--N", "4")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "exact-rational weights" in err

    def test_cut_certified_sections(self, capsys):
        code, out, _ = run(capsys, "verify", "cut", "--mean", "power:1/2",
                           "--weights", "ones", "--blocks", "2", "--N", "3",
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["details"]["mode"] == "certified-sections"
        assert rep["passed"] is True and rep["margin"] >= 0

    def test_decreasing_pass_and_refusal(self, capsys):
        code, out, _ = run(capsys, "verify", "decreasing", "--mean",
                           "arithmetic", "--x", "4,2,1", "--w", "1,1,1",
                           "--grid", "1,2,3", "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["passed"] and rep["margin"] == pytest.approx(2 / 3)

        code, _, err = run(capsys, "verify", "decreasing", "--mean",
                           "arithmetic", "--x", "1,3", "--w", "1,1",
                           "--grid", "1,2")
        assert code == 3
        assert "nonincreasing" in err

    def test_lsc_example_converges_at_full_depth(self, capsys):
        code, out, _ = run(capsys, "verify", "lsc-example", "--kmax", "25",
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["converged"] is True
        assert rep["dip_positions"] == [1]

    def test_lsc_example_json_bytes_are_pinned(self, capsys):
        # the report as the exact Fraction partial sums gave it
        code, out, _ = run(capsys, "verify", "lsc-example", "--kmax", "25",
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "9bc2e5b67400694269d5aa4dffaa3e1fe45d62f87c8467621f73e3085d45909b"

    def test_lsc_example_shallow_depth_fails(self, capsys):
        code, _, _ = run(capsys, "verify", "lsc-example", "--kmax", "5",
                         "--N", "40")
        assert code == 1

    def test_mu1_sweep_low_cap_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "mu1-sweep", "--mean",
                           "power:1/2", "--trials", "2", "--N", "16",
                           "--cap", "1", "--format", "json")
        assert code == 1
        assert json.loads(out)["report"]["outcome"] == "fail"

    def test_mu1_sweep_small_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "mu1-sweep", "--mean",
                           "power:1/2", "--trials", "2", "--N", "16",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

    def test_mu1_sweep_caps_a_builtin_generator_by_its_order(self, capsys):
        # quasiarithmetic:sqrt is the power mean of order 1/2, with C(1/2) = 4
        code, out, err = run(capsys, "verify", "mu1-sweep", "--mean",
                             "quasiarithmetic:sqrt", "--trials", "2", "--N", "16",
                             "--format", "json")
        assert code == 0, err
        rep = json.loads(out)["report"]
        assert rep["passed"] is True and rep["details"]["cap"] == 4.0


class TestExplore:
    def test_continuity_sweep_is_informational(self, capsys):
        code, out, _ = run(capsys, "explore", "continuity", "--mean",
                           "power:1/2", "--s-grid", "1/2,3/4", "--N", "16",
                           "--starts", "3", "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert len(rep["rows"]) == 2
        for search in rep["rows"] + [rep["ones_search"]]:
            assert search["solver"] == "fixed-point"
            assert search["gap"] >= 0 and search["iterations"] >= 0
        assert rep["ones_value"] <= rep["ones_search"]["upper_section"]

    def test_continuity_caps_a_builtin_generator_by_its_order(self, capsys):
        code, out, _ = run(capsys, "explore", "continuity", "--mean",
                           "quasiarithmetic:sqrt", "--s-grid", "1/2", "--N", "16",
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["closed_form_cap"] == 4.0
        assert rep["ones_search"]["solver"] == "fixed-point"

    def test_continuity_csv_carries_the_ones_row(self, capsys):
        code, out, _ = run(capsys, "explore", "continuity", "--mean",
                           "power:1/2", "--s-grid", "1/2,3/4", "--N", "16",
                           "--starts", "3", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert rows[0] == ["s", "value", "gap_to_ones"]
        assert [r[0] for r in rows[1:]] == ["1/2", "3/4", "ones"]
        ones = float(rows[-1][1])
        for _, value, gap in rows[1:]:
            assert float(gap) == ones - float(value)


class TestPlumbing:
    def test_json_output_is_byte_deterministic(self, capsys):
        args = ("estimate", "--method", "finite", "--mean", "power:1/2",
                "--weights", "ones", "--N", "12", "--starts", "3",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_csv_cells_of_lists_read_back_as_json(self, capsys):
        args = ("estimate", "--method", "finite", "--mean", "power:1/2",
                "--weights", "dyadic", "--N", "6")
        _, out, _ = run(capsys, *args, "--format", "json")
        rep = json.loads(out)["report"]
        code, out, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        cells = dict(csv.reader(io.StringIO(out)))
        assert json.loads(cells["witness"]) == rep["witness"]
        assert (json.loads(cells["diagnostics.start_values"])
                == rep["diagnostics"]["start_values"])

    def test_no_timestamps_in_json(self, capsys):
        _, out, _ = run(capsys, "constant", "--copson", "1/2",
                        "--format", "json")
        doc = json.loads(out)
        assert "time" not in json.dumps(doc).lower()

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "lsc-example", "--kmax", "3",
                           "--N", "40", "--format", "csv")
        assert code == 1  # not converged at depth 3, still renders csv
        lines = out.strip().splitlines()
        assert lines[0] == "k,value"
        assert len(lines) == 4

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "constant", "--copson", "1/2",
                           "--format", "json", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["schema"] == "hardy-lab/1"

    def test_float_gate_blocks_float_literals(self, capsys):
        code, _, err = run(capsys, "verify", "jcin", "--mean", "power:1",
                           "--x", "1.5,2.5", "--w", "1,1")
        assert code == 2
        assert "--float" in err or "rational" in err

    def test_float_gate_opens_with_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "jcin", "--float", "--mean",
                           "power:1", "--x", "1.5,2.5", "--w", "1,1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["report"]["outcome"] == "pass"

    @pytest.mark.parametrize("argv", [
        ("verify", "jcin", "--float", "--mean", "power:1", "--x", "1.5,2.5",
         "--w", "0.5,1"),
        ("verify", "decreasing", "--float", "--mean", "arithmetic", "--x", "4,2,1",
         "--w", "1,0.5,1", "--grid", "1,2,3"),
    ])
    def test_weights_stay_exact_with_float_flag(self, capsys, argv):
        # --float reads x and the grid as floats, never the weights, so the
        # refusal names --w and does not advise the flag already given
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "'0.5' is a float literal" in err and "--w" in err
        assert "pass --float" not in err

    @pytest.mark.parametrize("argv", [
        ("constant", "--copson", "banana"),
        ("estimate", "--method", "finite", "--weights", "nonsense"),
        ("estimate", "--method", "finite", "--mean", "power:zzz"),
        ("verify", "jcin", "--mean", "power:1", "--x", "1,,2", "--w", "1,1"),
        ("verify", "cut", "--weights", "ones", "--blocks", "0"),
        # literals beyond the float range
        ("estimate", "--method", "finite", "--mean", "power:1e400",
         "--weights", "dyadic", "--N", "8"),
        ("constant", "--copson", "1e400"),
        ("verify", "mu1-sweep", "--mean", "power:1/2", "--cap", "1e400",
         "--trials", "1", "--N", "4"),
        ("estimate", "--method", "finite", "--weights", "power:-1e400", "--N", "8"),
        ("estimate", "--method", "finite", "--weights", "power:1e400", "--N", "8"),
        ("estimate", "--method", "finite", "--weights", "geometric:1e400", "--N", "8"),
        ("constant", "--arithmetic", "--weights", "power:-1e400", "--certified"),
        ("verify", "cut", "--weights", "power:1e400", "--blocks", "2,1", "--N", "5"),
        # decimal literals need --float wherever a number is read
        ("constant", "--copson", "0.5"),
        ("verify", "mu1-sweep", "--mean", "power:1/2", "--cap", "4.5",
         "--trials", "1", "--N", "4"),
        ("explore", "continuity", "--mean", "power:1/2", "--s-grid", "0.5",
         "--N", "4"),
        # non-finite points
        ("verify", "jcin", "--mean", "power:1", "--x", "inf,1", "--w", "1,1"),
        ("verify", "jcin", "--float", "--mean", "power:1", "--x", "1e400,1",
         "--w", "1,1"),
        # a search needs at least one start
        ("estimate", "--method", "finite", "--mean", "power:1/2", "--N", "4",
         "--starts", "0"),
        ("estimate", "--method", "finite", "--mean", "power:1/2", "--N", "4",
         "--starts", "-3"),
        # tolerances must be finite and >= 0, counts whole numbers >= 1
        ("verify", "mu1-sweep", "--mean", "power:1/2", "--trials", "1", "--N", "4",
         "--tol", "nan"),
        ("verify", "jcin", "--mean", "power:1/2", "--x", "3,1", "--w", "1,1",
         "--tol", "nan"),
        ("verify", "cut", "--weights", "ones", "--blocks", "2,3", "--N", "3"),
        ("verify", "decreasing", "--mean", "arithmetic", "--x", "4,2,1", "--w", "1,1,1",
         "--grid", "1,2,3", "--tol", "inf"),
        ("verify", "axioms", "--mean", "power:1/2", "--trials", "0"),
        ("verify", "mu1-sweep", "--mean", "power:1/2", "--trials", "1/2", "--N", "4"),
        ("estimate", "--method", "finite", "--mean", "power:1/2", "--N", "nan"),
        ("estimate", "--method", "finite", "--mean", "power:1/2", "--N", "4",
         "--starts", "1.5"),
        # removed routes and options
        ("estimate", "--method", "geometric-probe", "--weights", "dyadic", "--N", "60"),
        ("estimate", "--method", "finite", "--weights", "dyadic", "--N", "8",
         "--q", "1/2"),
        ("estimate", "--method", "kedlaya", "--mean", "power:0", "--weights", "ones",
         "--N", "100", "--window", "1/2"),
        # the unweighted limit reads no weights, so neither option applies
        ("estimate", "--method", "nonweighted-limit", "--mean", "power:0",
         "--weights", "dyadic", "--N", "40"),
        ("estimate", "--method", "nonweighted-limit", "--mean", "power:0",
         "--weights", "ones", "--N", "40"),
        ("estimate", "--method", "nonweighted-limit", "--mean", "power:0",
         "--N", "40", "--float"),
        # --float only where number literals are read
        ("verify", "axioms", "--mean", "power:1/2", "--trials", "2", "--float"),
        ("verify", "cut", "--weights", "geometric:1/2", "--blocks", "2,3,1", "--float"),
        ("verify", "lsc-example", "--kmax", "3", "--N", "11", "--float"),
        # weights are never read as floats
        ("estimate", "--method", "finite", "--mean", "power:1/2", "--weights", "dyadic",
         "--N", "8", "--float"),
        ("constant", "--arithmetic", "--weights", "dyadic", "--N", "60", "--certified",
         "--float"),
        # --weights, --N and --certified steer --arithmetic only
        ("constant", "--copson", "1/2", "--weights", "dyadic"),
        ("constant", "--copson", "1/2", "--N", "5"),
        ("constant", "--copson", "1/2", "--certified"),
    ])
    def test_usage_errors_exit_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "usage" in err or "hardy:" in err

    def test_float_flag_accepts_decimal_copson_order(self, capsys):
        code, out, _ = run(capsys, "constant", "--float", "--copson", "0.5",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["report"]["value"] == pytest.approx(4.0, rel=1e-15)

    def test_argparse_rejects_unknown_method(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--method", "warp"])
        assert exc.value.code == 2

    def test_help_renders(self, capsys):
        for argv in (["--help"], ["constant", "--help"],
                     ["verify", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out.lower()

    def test_estimate_takes_no_float_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--help"])
        assert exc.value.code == 0
        assert "--float" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("verify", "cut", "--mean", "power:1/2", "--weights", "geometric:1/1000",
         "--blocks", "2", "--N", "120"),
        ("estimate", "--method", "finite", "--mean", "power:1/2",
         "--weights", "geometric:1/1000", "--N", "120"),
    ])
    def test_float_underflow_is_a_domain_error(self, capsys, argv):
        # well-formed argv whose weights underflow in float mode: exit 3,
        # not the usage error 2
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "underflow" in err
        assert "usage" not in err

    def test_unexpected_errors_exit_four_in_one_line(self, capsys, monkeypatch):
        import hardylab.cli as cli

        def broken(args):
            raise OverflowError("int too large to convert to float")
        monkeypatch.setattr(cli, "_cmd_constant", broken)
        code, out, err = run(capsys, "constant", "--copson", "1/2")
        assert code == 4
        assert out == ""
        assert err == "hardy: internal error: OverflowError: int too large to convert to float\n"

    def test_unwritable_output_is_a_usage_error_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "constant", "--copson", "1/2", "--output", str(path))
        assert code == 2
        assert out == ""
        assert err == f"hardy: cannot write {path}: No such file or directory\n"


class TestParserReuse:
    ARGVS = [
        ("constant", "--copson", "1/2", "--format", "json"),
        ("verify", "lsc-example", "--kmax", "3", "--N", "11", "--format", "csv"),
        ("constant", "--arithmetic", "--weights", "geometric:9/10", "--N", "30",
         "--certified"),
        ("verify", "cut", "--weights", "geometric:1/2", "--blocks", "2,3,1",
         "--format", "json"),
        ("estimate", "--method", "nonweighted-limit", "--mean", "power:0", "--N", "40"),
        ("verify", "jcin", "--mean", "power:1/2", "--x", "1,3,2", "--w", "1,2,1/2",
         "--format", "json"),
        ("constant", "--copson", "0.5"),  # a usage error: exit 2 on stderr
        ("estimate", "--method", "finite", "--mean", "power:1/2", "--weights", "dyadic",
         "--N", "6", "--starts", "2", "--format", "csv"),
        ("verify", "cut", "--weights", "power:-3/2", "--blocks", "2", "--N", "4"),
    ]

    def test_interleaved_calls_print_the_bytes_of_lone_calls(self, capsys):
        import hardylab.cli as cli

        def lone(argv):
            cli._parser.cache_clear()  # a parser of its own
            return run(capsys, *argv)

        want = {argv: lone(argv) for argv in self.ARGVS}
        cli._parser.cache_clear()
        # each command after every other one, with the parser kept
        order = self.ARGVS + self.ARGVS[::-1] + self.ARGVS[::2] + self.ARGVS[1::2]
        for argv in order:
            assert run(capsys, *argv) == want[argv], argv

    def test_the_parser_is_built_once_per_process(self, capsys, monkeypatch):
        import hardylab.cli as cli

        build, built = cli.build_parser, []

        def counting():
            built.append(1)
            return build()
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for argv in self.ARGVS[:3]:
                run(capsys, *argv)
        finally:
            cli._parser.cache_clear()  # drop the parser built by the wrapper
        assert len(built) == 1
