"""CLI behavior: subcommands, exit codes, JSON schema."""

import json
from types import SimpleNamespace

import pytest

import shiftbribe as sb
from shiftbribe import cli, oracle, scoring_solvers
from shiftbribe.cli import main


@pytest.fixture
def thm6_file(tmp_path):
    path = tmp_path / "thm6_k1.sb"
    path.write_text(sb.serialize_instance(sb.gen_theorem6(1)), encoding="utf-8")
    return str(path)


class TestSolve:
    def test_two_pass_with_oracle(self, thm6_file, capsys):
        assert main(["solve", thm6_file, "--algo", "A", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "cost:         4" in out
        assert "ratio:        1/1" in out

    def test_single_pass_ratio(self, thm6_file, capsys):
        assert main(["solve", thm6_file, "--algo", "G", "--oracle", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cost"] == 5
        assert report["oracle_cost"] == 4
        assert report["ratio"] == "5/4"
        assert report["shift_action"] == [0, 0, 0, 0, 4, 0]

    def test_json_schema_golden(self, thm6_file, capsys):
        assert main(["solve", thm6_file, "--algo", "B", "--oracle", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        report["wall_time_ms"] = 0
        assert report == {
            "algorithm": "B",
            "instance_digest": "26f8e29f07de",
            "cost": 4,
            "shift_action": [0, 0, 1, 1, 0, 0],
            "successful": True,
            "oracle_cost": 4,
            "ratio": "1/1",
            "wall_time_ms": 0,
        }

    def test_json_keys_without_oracle(self, thm6_file, capsys):
        assert main(["solve", thm6_file, "--algo", "exact", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report.keys()) == [
            "algorithm",
            "instance_digest",
            "cost",
            "shift_action",
            "successful",
            "oracle_cost",
            "ratio",
            "wall_time_ms",
        ]
        assert report["oracle_cost"] is None
        assert report["ratio"] is None

    def test_exact_with_oracle_solves_once(self, thm6_file, capsys, monkeypatch):
        cost, action = sb.exact_shift_opt(sb.gen_theorem6(1))
        calls = []
        real = cli.exact_shift_opt

        def counted(inst, *args, **kwargs):
            calls.append(inst)
            return real(inst, *args, **kwargs)

        monkeypatch.setattr(cli, "exact_shift_opt", counted)
        assert main(["solve", thm6_file, "--algo", "exact", "--oracle", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        report["wall_time_ms"] = 0
        assert report == {
            "algorithm": "exact",
            "instance_digest": "26f8e29f07de",
            "cost": cost,
            "shift_action": list(action.shifts),
            "successful": True,
            "oracle_cost": cost,
            "ratio": "1/1",
            "wall_time_ms": 0,
        }

    def test_aeps_with_custom_eps(self, thm6_file, capsys):
        assert main(["solve", thm6_file, "--algo", "Aeps:0.5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] == 4

    def test_aeps_default_eps(self, thm6_file, capsys):
        assert main(["solve", thm6_file, "--algo", "Aeps", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "Aeps"

    def test_bootstrap_weighted_on_weighted_instance(self, tmp_path, capsys):
        inst = sb.gen_random(3, 3, 3, 5, weighted=True)
        path = tmp_path / "w.sb"
        path.write_text(sb.serialize_instance(inst), encoding="utf-8")
        assert main(["solve", str(path), "--algo", "Bw", "--oracle", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["successful"] is True
        assert report["cost"] <= 2 * report["oracle_cost"]

    def test_incompatible_algo_exits_2(self, thm6_file):
        assert main(["solve", thm6_file, "--algo", "maximin-log"]) == 2
        assert main(["solve", thm6_file, "--algo", "copeland-m"]) == 2
        assert main(["solve", thm6_file, "--algo", "Bw"]) == 2
        assert main(["solve", thm6_file, "--algo", "nonsense"]) == 2

    @pytest.mark.parametrize(
        "algo,message",
        [
            ("nope", "unknown algorithm 'nope'"),
            ("Aepsx", "unknown algorithm 'Aepsx'"),
            ("aeps", "unknown algorithm 'aeps'"),
            ("exact:1", "unknown algorithm 'exact:1'"),
            ("Aeps:", "malformed eps in 'Aeps:'"),
            ("Aeps:x", "malformed eps in 'Aeps:x'"),
            ("Aeps:1/0", "malformed eps in 'Aeps:1/0'"),
            ("Aeps:0", "eps must be positive"),
        ],
    )
    def test_bad_algo_token_exits_2(self, thm6_file, capsys, algo, message):
        assert main(["solve", thm6_file, "--algo", algo]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_parse_error_exits_3(self, tmp_path):
        bad = tmp_path / "bad.sb"
        bad.write_text("not an instance\n", encoding="utf-8")
        assert main(["solve", str(bad), "--algo", "A"]) == 3

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"shiftbribe v1\nrule borda\n2 1\np c\norder: 1 0\nprices: \xff\n", 6),
            (b"shiftbribe v1\xc3", 1),
        ],
        ids=("invalid-byte", "cut-sequence"),
    )
    def test_non_utf8_file_exits_3(self, tmp_path, capsys, data, line):
        path = tmp_path / "bad8.sb"
        path.write_bytes(data)
        assert main(["solve", str(path), "--algo", "A"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error: not UTF-8 (") and err.endswith(f") at line {line}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["missing.sb", "."])
    def test_unreadable_path_exits_3(self, tmp_path, capsys, name):
        assert main(["solve", str(tmp_path / name), "--algo", "A"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_guard_exceeded_exits_4(self, thm6_file, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_ENUM_GUARD", 10)
        assert main(["solve", thm6_file, "--algo", "exact"]) == 4

    @pytest.mark.parametrize("algo", ["Aeps:1/100000000000000000000", "B"])
    def test_guard_hint_names_no_solver_already_run(
        self, thm6_file, tmp_path, monkeypatch, capsys, algo
    ):
        # Only A suggests solve_two_pass_scaled; Aeps and B already are it.
        # The guard counts min(P, G), so a tiny eps trips it only where the
        # gain total G is large too, as with weights up to 10**6.
        path = thm6_file
        if algo == "B":
            monkeypatch.setattr(scoring_solvers, "DEFAULT_CELL_GUARD", 10)
        else:
            path = tmp_path / "heavy.sb"
            inst = sb.gen_random(1, 20, 8, 10**6, weighted=True)
            path.write_text(sb.serialize_instance(inst), encoding="utf-8")
        assert main(["solve", str(path), "--algo", algo]) == 4
        err = capsys.readouterr().err
        assert err.startswith("guard exceeded: budget DP needs ") and err.count("\n") == 1
        assert "solve_two_pass_scaled" not in err

    @pytest.mark.parametrize("value", ["1", "abc"])
    def test_guard_environment_variable_is_ignored(self, thm6_file, monkeypatch, value):
        # the guards are module constants: no environment variable lowers
        # them or makes a solve fail
        inst = sb.gen_theorem6(1)
        want = sb.solve_two_pass(inst), sb.exact_shift_opt(inst)
        monkeypatch.setenv("SHIFTBRIBE_GUARD", value)
        assert (sb.solve_two_pass(inst), sb.exact_shift_opt(inst)) == want
        assert main(["solve", thm6_file, "--algo", "exact"]) == 0

    @pytest.mark.parametrize("algo", ["A", "G", "Aeps", "B", "Bw"])
    def test_int64_overflow_exits_2(self, tmp_path, capsys, algo):
        e = sb.Election(("p", "c"), ((1, 0), (1, 0)), (1 << 62, 1 << 62))
        costs = (sb.CostFunction((1,)), sb.CostFunction((1,)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(2)))
        path = tmp_path / "huge.sb"
        path.write_text(sb.serialize_instance(inst), encoding="utf-8")
        assert main(["solve", str(path), "--algo", algo]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("algo,code", [("exact", 2), ("A", 2), ("G", 2), ("Aeps", 0), ("B", 0)])
    def test_exact_price_total_overflow_exits_2(self, tmp_path, capsys, algo, code):
        # The largest prices sum to 2**63: the oracle, A and G refuse the
        # total, while Aeps and B check only the re-priced totals they sweep
        # and answer, though the file's total leaves the 64-bit range.
        e = sb.Election(("p", "c"), ((1, 0), (1, 0)))
        costs = (sb.CostFunction((1 << 62,)), sb.CostFunction((1 << 62,)))
        inst = sb.ShiftBriberyInstance(e, costs, sb.ScoringRule(sb.borda(2)))
        path = tmp_path / "pricey.sb"
        path.write_text(sb.serialize_instance(inst), encoding="utf-8")
        assert main(["solve", str(path), "--algo", algo, "--json"]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("error: total of the largest prices") and err.count("\n") == 1
        else:
            assert json.loads(out)["cost"] == 4611686018427387904

    def test_price_beyond_int64_exits_2(self, tmp_path, capsys):
        # copeland-m sums prices as Python ints and would answer, at cost 1.
        text = (
            "shiftbribe v1\nrule copeland 1/2\n2 3\np c\norder: 1 0\nprices: 1\n"
            "order: 1 0\nprices: 9223372036854775808\norder: 0 1\nprices:\n"
        )
        path = tmp_path / "huge_price.sb"
        path.write_text(text, encoding="utf-8")
        assert main(["solve", str(path), "--algo", "copeland-m"]) == 2
        err = capsys.readouterr().err
        assert err == "error: price exceeds the 64-bit integer range at line 8\n"

    def test_wall_time_from_perf_counter_ns(self, thm6_file, capsys, monkeypatch):
        ticks = iter((5_000_000, 7_999_999))
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter_ns=lambda: next(ticks)))
        assert main(["solve", thm6_file, "--algo", "A", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["wall_time_ms"] == 2

    def test_condorcet_algos(self, tmp_path, capsys):
        for rule, algo in (
            (sb.CopelandRule(sb.CopelandAlpha(1, 2)), "copeland-m"),
            (sb.MAXIMIN, "maximin-log"),
        ):
            inst = sb.gen_random(5, 3, 3, 4, rule=rule)
            path = tmp_path / f"{algo}.sb"
            path.write_text(sb.serialize_instance(inst), encoding="utf-8")
            assert main(["solve", str(path), "--algo", algo, "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["successful"] is True


class TestGen:
    def test_theorem6_shape(self, tmp_path):
        out = tmp_path / "t.sb"
        assert main(["gen", "--family", "theorem6", "--k", "3", "-o", str(out)]) == 0
        inst = sb.parse_instance(out.read_text(encoding="utf-8"))
        assert inst.num_candidates == 14
        assert inst.num_voters == 14

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.sb", tmp_path / "b.sb"
        args = ["gen", "--family", "random", "--seed", "7", "--n", "4", "--m", "4",
                "--max-price", "6"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        assert main(["gen", "--family", "theorem6", "--k", "1", "-o", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, refused",
        [
            (["--max-price", "9999999999999999999"], "price"),
            (["--weighted", "--max-price", "99999999999999999999"], "weight"),
        ],
        ids=("price", "weight"),
    )
    def test_values_beyond_int64_exit_2(self, tmp_path, capsys, flags, refused):
        # solve would refuse the file, so gen writes none
        out = tmp_path / "hp.sb"
        args = ["gen", "--family", "random", "--n", "2", "--m", "3", *flags, "-o", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {refused} exceeds the 64-bit integer range\n"
        assert not out.exists()

    def test_invalid_params_exit_2(self, tmp_path):
        assert main(["gen", "--family", "theorem6", "--k", "0"]) == 2
        assert main(["gen", "--family", "theorem6"]) == 2
        assert main(["gen", "--family", "random", "--n", "3"]) == 2

    def test_rule_flags(self, tmp_path):
        out = tmp_path / "r.sb"
        assert main(
            ["gen", "--family", "random", "--n", "3", "--m", "3",
             "--rule", "copeland:1/2", "-o", str(out)]
        ) == 0
        inst = sb.parse_instance(out.read_text(encoding="utf-8"))
        assert inst.rule == sb.CopelandRule(sb.CopelandAlpha(1, 2))

    @pytest.mark.parametrize(
        "token,rule",
        [
            ("borda", sb.ScoringRule(sb.borda(3))),
            ("maximin", sb.MAXIMIN),
            ("kapproval:2", sb.ScoringRule(sb.k_approval(3, 2))),
            ("scoring:5,1,0", sb.ScoringRule(sb.ScoringVector((5, 1, 0)))),
        ],
    )
    def test_rule_tokens_follow_the_file_grammar(self, tmp_path, token, rule):
        out = tmp_path / "r.sb"
        args = ["gen", "--family", "random", "--n", "3", "--m", "3", "--rule", token]
        assert main(args + ["-o", str(out)]) == 0
        assert sb.parse_instance(out.read_text(encoding="utf-8")).rule == rule

    @pytest.mark.parametrize(
        "token,message",
        [
            ("kapproval:x", "malformed rule (invalid literal"),
            ("kapproval", "unknown rule 'kapproval'"),
            ("scoring:2,1", "malformed rule (scoring vector needs 3 entries)"),
            ("copeland:1/2.5", "malformed rule ("),
            ("veto", "unknown rule 'veto'"),
        ],
    )
    def test_malformed_rule_token_exits_2(self, tmp_path, capsys, token, message):
        out = tmp_path / "r.sb"
        args = ["gen", "--family", "random", "--n", "3", "--m", "3", "--rule", token]
        assert main(args + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1
        assert not out.exists()


class TestBench:
    def test_thm6_ratio_rows(self, capsys):
        assert main(["bench", "--suite", "thm6-ratio", "--k-min", "1", "--k-max", "3",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [row["k"] for row in data["rows"]] == [1, 2, 3]
        for row in data["rows"]:
            k = row["k"]
            assert row["cost_A"] == 2 * k * (2 * k)
            assert row["cost_G"] == 4 * k * (2 * k) - 3 * k
        ratios = [row["ratio_float"] for row in data["rows"]]
        assert ratios == sorted(ratios)

    def test_random_ratio_bounds(self, capsys):
        assert main(["bench", "--suite", "random-ratio", "--count", "8", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 8
        assert data["summary"]["A_max_ratio"] <= 2.0

    def test_random_ratio_seeded(self, capsys):
        args = ["--seed", "1", "--count", "6", "--n", "4", "--m", "4", "--json"]
        assert main(["bench", "--suite", "random-ratio"] + args) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["A_max_ratio"] == 10 / 7
        assert summary["B_max_ratio"] == 15 / 14

    def test_empty_range(self, capsys):
        assert main(["bench", "--suite", "thm6-ratio", "--k-min", "5", "--k-max", "1"]) == 0
        assert "empty" in capsys.readouterr().out
