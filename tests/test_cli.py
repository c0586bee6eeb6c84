"""End-to-end CLI checks: exit codes, formats, schemas, determinism."""

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hyperspectra.cli import (build_parser, frac_str, jsonable, main, parse_rational,
                              shared_parser)
from hyperspectra.hypergraph import Hypergraph

import oracles


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def put(name, payload):
        path = d / name
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        return str(path)

    return SimpleNamespace(
        dir=d,
        edge3=put("edge3.json", Hypergraph(3, 3, [(0, 1, 2)]).to_json()),
        bare3=put("bare3.json", Hypergraph(3, 3, []).to_json()),
        path5=put("path5.json",
                  Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)]).to_json()),
        cycle=put("cycle.json",
                  Hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (1, 4, 5)]).to_json()),
        k4=put("k4.json",
               Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).to_json()),
        triangle=put("triangle.json",
                     Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)]).to_json()),
        c4=put("c4.json",
               Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]).to_json()),
        host2=put("host2.json",
                  Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]).to_json()),
        pair=put("pair.json", {
            "g": Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]).to_json_dict(),
            "roots": 3, "h_edges": [[0, 1, 2]]}),
        **{f"{name}12": put(f"{name}12.json", g.to_json())
           for name, g in zip(("board", "twin", "holed"), oracles.twelve_vertex_boards())},
    )


SUBCOMMANDS = next(action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))


def invocations(files) -> dict[str, list[str]]:
    """One small successful run of every subcommand."""
    return {
        "sample": ["sample", "--s", "3", "--n", "12", "--alpha", "2"],
        "density": ["density", "--in", files.path5],
        "balance": ["balance", "--in", files.path5],
        "classify-pair": ["classify-pair", "--in", files.pair, "--alpha", "1/2"],
        "extend": ["extend", "--in", files.pair, "--host", files.host2,
                   "--roots", "0,1,2"],
        "decompose": ["decompose", "--in", files.cycle, "--m", "3"],
        "game": ["game", "--g1", files.edge3, "--g2", files.edge3, "--k", "2"],
        "eval": ["eval", "--in", files.edge3, "--formula",
                 "(exists x (exists y (exists z (N x y z))))"],
        "bounds": ["bounds", "--theorem", "8", "--s", "3", "--k", "5"],
        "sweep": ["sweep", "--s", "3", "--n", "10,12", "--alphas", "2,3",
                  "--trials", "4", "--builtin", "contains-edge"],
        "poisson": ["poisson", "--pattern", files.triangle, "--n", "30",
                    "--trials", "15"],
        "count-copies": ["count-copies", "--in", files.path5, "--pattern", files.edge3],
        "unextendable": ["unextendable", "--in", files.pair, "--n", "25", "--trials", "8"],
        "schema-dump": ["schema-dump"],
    }


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_success(self, files, capsys):
        code, out, err = run(["density", "--in", files.edge3], capsys)
        assert code == 0 and err == ""

    def test_usage_errors_exit_two(self, files, capsys):
        for argv in (["density"],                      # missing required flag
                     ["density", "--in", files.edge3, "--frmt", "json"],
                     ["no-such-command"],
                     ["bounds", "--theorem", "5", "--s", "3", "--k", "5"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2

    def test_runtime_errors_exit_one(self, files, capsys):
        cases = [
            ["density", "--in", str(files.dir / "missing.json")],
            ["bounds", "--theorem", "7", "--s", "3", "--k", "7"],  # cap
            ["bounds", "--theorem", "9", "--s", "3", "--k", "7"],  # needs --a
            ["eval", "--in", files.edge3, "--formula", "(N x y z)"],
            ["game", "--g1", files.edge3, "--g2", files.triangle, "--k", "2"],
            ["sample", "--s", "3", "--n", "10", "--p", "x/y"],
            # forbidden vertices outside the host, like roots outside it
            ["extend", "--in", files.pair, "--host", files.host2, "--roots", "0,1,2",
             "--forbidden", "99"],
            ["extend", "--in", files.pair, "--host", files.host2, "--roots", "0,1,2",
             "--forbidden=-1"],
        ]
        for argv in cases:
            code, out, err = run(argv, capsys)
            assert code == 1, argv
            assert err.startswith("error:")

    def test_seed_and_trial_beyond_64_bits(self, capsys):
        # the Philox key holds each in one 64-bit word
        for flag, name in (("--seed", "seed"), ("--trial", "trial_index")):
            argv = ["sample", "--s", "2", "--n", "10", "--p", "0.5", flag, str(2**64)]
            code, out, err = run(argv, capsys)
            assert (code, out) == (1, ""), flag
            assert err == f"error: {name} must fit in 64 bits\n"
            assert run(argv[:-1] + [str(2**64 - 1)], capsys)[0] == 0

    def test_negative_rounds_refused(self, files, capsys):
        # every strategy refuses k < 0 with the solver's message, before
        # the budget check and before any position is built
        for strategy in ("optimal", "mirror", "extension"):
            code, out, err = run(["game", "--g1", files.edge3, "--g2", files.edge3,
                                  "--k=-1", "--strategy", strategy], capsys)
            assert (code, out, err) == (1, "", "error: k must be nonnegative\n"), strategy

    def test_decompose_needs_a_finite_bound(self, files, capsys):
        # m(s-1) = 1 would put a zero under the bound m/(m(s-1) - 1)
        code, out, err = run(["decompose", "--in", files.triangle, "--m", "1"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: need s >= 2 and m(s-1) >= 2, got m=1, s=2\n"

    def test_jobs_only_on_monte_carlo_commands(self, files, capsys):
        for argv in (["density", "--in", files.edge3],
                     ["game", "--g1", files.edge3, "--g2", files.edge3, "--k", "2"],
                     ["bounds", "--theorem", "8", "--s", "3", "--k", "5"]):
            with pytest.raises(SystemExit) as info:
                main(argv + ["--jobs", "2"])
            assert info.value.code == 2, argv
        for argv in (["sweep", "--s", "3", "--n", "10", "--alphas", "2",
                      "--trials", "3", "--builtin", "contains-edge"],
                     ["poisson", "--pattern", files.triangle, "--n", "20", "--trials", "3"],
                     ["unextendable", "--in", files.pair, "--n", "12", "--trials", "3"]):
            code, _, err = run(argv + ["--jobs", "2"], capsys)
            assert code == 0, err
            # no run fits fewer than one worker or trial: refused as usage
            for flag in ("--jobs", "--trials"):
                with pytest.raises(SystemExit) as info:
                    main(argv + [flag, "0"])
                assert info.value.code == 2, (argv, flag)
                assert f"argument {flag}: must be at least 1, got 0" in capsys.readouterr().err

    def test_seed_and_budget_only_where_read(self, files, capsys):
        for argv in (["density", "--in", files.edge3],
                     ["game", "--g1", files.edge3, "--g2", files.edge3, "--k", "2"],
                     ["bounds", "--theorem", "8", "--s", "3", "--k", "5"]):
            with pytest.raises(SystemExit) as info:
                main(argv + ["--seed", "1"])
            assert info.value.code == 2, argv
        for argv in (["density", "--in", files.edge3],
                     ["balance", "--in", files.edge3],
                     ["schema-dump"]):
            with pytest.raises(SystemExit) as info:
                main(argv + ["--budget", "100"])
            assert info.value.code == 2, argv

    def test_budget_below_one_is_a_usage_error(self, files, capsys):
        # no work fits a budget below 1: refused as usage, not run to fail
        for argv in (["sweep", "--s", "3", "--n", "10", "--trials", "3", "--format", "csv",
                      "--builtin", "contains-edge", "--alphas", "1,2"],
                     ["eval", "--in", files.edge3, "--formula", "(exists x (= x x))"],
                     ["game", "--g1", files.edge3, "--g2", files.edge3, "--k", "2"],
                     ["count-copies", "--in", files.path5, "--pattern", files.edge3]):
            for bad in ("-1", "0", "-5", "1.5"):
                with pytest.raises(SystemExit) as info:
                    main(argv + ["--budget", bad])
                assert info.value.code == 2, (argv, bad)
                assert "argument --budget" in capsys.readouterr().err
            code, _, err = run(argv + ["--budget", "1000"], capsys)
            assert code == 0, (argv, err)

    def test_count_study_budget_is_only_the_samplers(self, files, capsys, monkeypatch):
        # a loose 3-uniform 7-cycle has 14 vertices, past the default
        # automorphism cap of 12; --budget raises only the sampler's budget
        loop = files.dir / "loop7.json"
        loop.write_text(Hypergraph(3, 14, [(2 * i, 2 * i + 1, (2 * i + 2) % 14)
                                           for i in range(7)]).to_json())
        argv = ["poisson", "--pattern", str(loop), "--n", "20", "--trials", "2"]
        for extra in ([], ["--budget", "1000000"]):
            code, out, err = run(argv + extra, capsys)
            assert (code, out) == (1, ""), extra
            assert "cap is 12" in err
        monkeypatch.setenv("HYPERSPECTRA_BUDGET", "14")
        code, out, err = run(argv, capsys)
        assert code == 0, err
        assert json.loads(out)["trials"] == 2

    def test_count_studies_over_budget(self, files, capsys):
        # C(400, 3) potential edges exceed the sampler's default budget
        for argv in (["poisson", "--pattern", files.edge3, "--n", "400", "--trials", "3"],
                     ["unextendable", "--in", files.pair, "--n", "400", "--trials", "3"]):
            code, out, err = run(argv, capsys)
            assert (code, out) == (1, ""), argv
            assert err == "error: 3 of 3 trials ran over the budget\n"

    def test_budget_reaches_the_sampler(self, files, capsys):
        # the same studies as above fit once --budget covers C(400, 3)
        for argv in (["poisson", "--pattern", files.edge3, "--n", "400", "--trials", "2"],
                     ["unextendable", "--in", files.pair, "--n", "400", "--trials", "2"]):
            code, out, err = run(argv + ["--budget", "20000000"], capsys)
            assert code == 0, err
            assert json.loads(out)["trials"] == 2
        doc = run_json(["sweep", "--s", "3", "--n", "400", "--alphas", "2",
                        "--builtin", "contains-edge", "--trials", "2",
                        "--budget", "20000000"], capsys)
        assert [c["budget_exceeded"] for c in doc["cells"]] == [0]
        assert doc["cells"][0]["trials"] == 2

    @pytest.mark.parametrize("argv", [["--help"], ["--version"]] + [
        [name, "--help"] for name in SUBCOMMANDS],
        ids=lambda argv: "_".join(arg.strip("-") for arg in argv))
    def test_help_and_version(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "hyperspectra.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "hyperspectra" in proc.stdout


class TestRendering:
    def test_rational_and_float_contract(self):
        assert frac_str(Fraction(39, 8)) == "39/8"
        assert jsonable(Fraction(2)) == "2/1"
        assert jsonable(0.12345678901234567) == 0.123456789012
        assert jsonable({"a": [Fraction(1, 3), None, True]}) == \
            {"a": ["1/3", None, True]}

    def test_parse_rational(self):
        assert parse_rational("3/4") == (Fraction(3, 4), False)
        assert parse_rational("7") == (Fraction(7), False)
        assert parse_rational("0.25") == (Fraction(1, 4), True)
        assert parse_rational("1e-2") == (Fraction(1, 100), True)
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_density_document(self, files, capsys):
        doc = run_json(["density", "--in", files.edge3], capsys)
        assert doc["rho"] == "1/3" and doc["rho_max"] == "1/3"
        assert doc["schema"] == "hyperspectra.density.v1"

    def test_csv_and_text_formats(self, files, capsys):
        code, out, _ = run(["density", "--in", files.edge3,
                            "--format", "csv"], capsys)
        assert code == 0 and out.splitlines()[0] == "field,value"
        code, out, _ = run(["density", "--in", files.edge3,
                            "--format", "text"], capsys)
        assert code == 0 and "rho: 1/3" in out

    def test_every_document_carries_schema(self, files, capsys):
        for argv in invocations(files).values():
            doc = run_json(argv, capsys)
            assert doc["schema"].startswith("hyperspectra."), argv


class TestSubcommands:
    def test_bounds_documents(self, files, capsys):
        doc = run_json(["bounds", "--theorem", "6", "--s", "3", "--k", "4"],
                       capsys)
        assert doc["threshold"] == "2/1"
        assert doc["meaning"] == "law-holds-below"
        doc = run_json(["bounds", "--theorem", "7", "--s", "3", "--k", "5"],
                       capsys)
        assert (doc["v"], doc["e"]) == (111, 468)
        doc = run_json(["bounds", "--theorem", "9", "--s", "3", "--k", "7",
                        "--a", "1"], capsys)
        assert doc["rho"] == "17/33"
        assert (doc["a1"], doc["a2"], doc["a3"]) == (5, 1, 4)
        doc = run_json(["bounds", "--theorem", "10", "--s", "2", "--k", "12",
                        "--j", "1"], capsys)
        assert doc["sigma"] == "24/1" and doc["m"] == 2
        doc = run_json(["bounds", "--theorem", "11", "--s", "2", "--k", "5",
                        "--m", "1"], capsys)
        assert doc["l"] == doc["l_closed_form"] == 2
        assert doc["alpha"] == "3/4"

    def test_bounds_emit_alias(self, files, capsys):
        # --format is the one output flag; --emit is a usage error
        argv = ["bounds", "--theorem", "6", "--s", "3", "--k", "4"]
        code, out, _ = run(argv + ["--format", "text"], capsys)
        assert code == 0 and "threshold: 2/1" in out
        with pytest.raises(SystemExit) as info:
            main(argv + ["--emit", "text"])
        assert info.value.code == 2
        assert "unrecognized arguments: --emit" in capsys.readouterr().err

    def test_bounds_budget_override(self, files, capsys):
        doc = run_json(["bounds", "--theorem", "7", "--s", "3", "--k", "7",
                        "--budget", "11000"], capsys)
        assert doc["v"] == 10130

    def test_game_winner(self, files, capsys):
        doc = run_json(["game", "--g1", files.edge3, "--g2", files.edge3,
                        "--k", "2"], capsys)
        assert doc["winner"] == "duplicator"
        doc = run_json(["game", "--g1", files.edge3, "--g2", files.bare3,
                        "--k", "3"], capsys)
        assert doc["winner"] == "spoiler"
        doc = run_json(["game", "--g1", files.edge3, "--g2", files.edge3,
                        "--k", "3", "--strategy", "mirror"], capsys)
        assert doc["duplicator_wins"] is True
        doc = run_json(["game", "--g1", files.edge3, "--g2", files.bare3,
                        "--k", "3", "--strategy", "extension"], capsys)
        assert doc["duplicator_wins"] is False
        # k=4 on 12 vertices: a search over pairs of chosen tuples would need
        # (13^4)^2 > 10^8 positions, over the default budget
        for other, winner in ((files.twin12, "duplicator"), (files.holed12, "spoiler")):
            doc = run_json(["game", "--g1", files.board12, "--g2", other, "--k", "4"], capsys)
            assert doc["winner"] == winner

    def test_eval_document(self, files, capsys):
        doc = run_json(["eval", "--in", files.edge3, "--formula",
                        "(exists x (exists y (exists z (N x y z))))"], capsys)
        assert doc["value"] is True and doc["depth"] == 3
        doc = run_json(["eval", "--in", files.bare3, "--formula",
                        "(exists x (exists y (exists z (N x y z))))"], capsys)
        assert doc["value"] is False

    def test_extend_lists_placements(self, files, capsys):
        doc = run_json(["extend", "--in", files.pair, "--host", files.host2,
                        "--roots", "0,1,2"], capsys)
        # ordered images of the three added vertices: 3! placements
        assert doc["count"] == 6
        assert all(sorted(t) == [3, 4, 5] for t in doc["extensions"])
        doc = run_json(["extend", "--in", files.pair, "--host", files.host2,
                        "--roots", "0,1,2", "--forbidden", "4"], capsys)
        assert doc["count"] == 0

    def test_decompose_verdicts(self, files, capsys):
        doc = run_json(["decompose", "--in", files.cycle, "--m", "3"], capsys)
        assert doc["in_family"] is True and len(doc["steps"]) >= 1
        assert doc["density_bound"] == "3/5"
        doc = run_json(["decompose", "--in", files.k4, "--m", "3"], capsys)
        assert doc["in_family"] is False and doc["steps"] is None

    def test_classify_pair_document(self, files, capsys):
        doc = run_json(["classify-pair", "--in", files.pair,
                        "--alpha", "1/2"], capsys)
        assert doc["kind"] in ("safe", "rigid", "neutral", "none")
        assert doc["rho_pair"] == "1/3"
        assert doc["decimal_inputs"] == []

    def test_count_copies_document(self, files, capsys):
        doc = run_json(["count-copies", "--in", files.path5,
                        "--pattern", files.edge3], capsys)
        assert doc["embeddings"] == 12 and doc["copies"] == 2
        assert doc["automorphisms"] == 6

    @pytest.mark.parametrize("induced", [False, True])
    def test_count_copies_searches_once(self, files, capsys, monkeypatch, tmp_path,
                                        induced):
        from hyperspectra import hypergraph
        host = tmp_path / "host.json"
        # the loose 3-cycle plus a chord edge (0, 1, 3)
        graph = Hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (1, 4, 5), (0, 1, 3)])
        host.write_text(graph.to_json())
        runs = []
        embed = hypergraph._embedding_search
        # a cold command: the pattern's group is not cached yet
        hypergraph._symmetry.cache_clear()

        def counted_embed(searched_host, pattern, *args, **kw):
            runs.append((searched_host, pattern))
            return embed(searched_host, pattern, *args, **kw)

        monkeypatch.setattr(hypergraph, "_embedding_search", counted_embed)
        argv = ["count-copies", "--in", str(host), "--pattern", files.path5]
        doc = run_json(argv + ["--induced"] if induced else argv, capsys)
        # one search into the host, one core -> core for the automorphisms,
        # which the host search needs first and automorphism_count reuses
        path = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        assert runs == [(graph, path), (path, path)]
        # 5 loose 2-paths, 2 of them with a third host edge inside
        assert doc == {"schema": "hyperspectra.count-copies.v1",
                       "embeddings": 24 if induced else 40,
                       "copies": 3 if induced else 5,
                       "automorphisms": 8, "induced": induced}

    def test_sample_round_trip(self, files, capsys, tmp_path):
        out = tmp_path / "sampled.json"
        doc = run_json(["sample", "--s", "3", "--n", "18", "--alpha", "3/2",
                        "--seed", "9", "--out", str(out)], capsys)
        assert doc["alpha"] == "3/2" and doc["decimal_inputs"] == []
        back = run_json(["density", "--in", str(out)], capsys)
        assert back["v"] == 18

    def test_bounds_out_writes_witness(self, files, capsys, tmp_path):
        out = tmp_path / "witness.json"
        run_json(["bounds", "--theorem", "9", "--s", "3", "--k", "7",
                  "--a", "1", "--out", str(out)], capsys)
        doc = run_json(["balance", "--in", str(out)], capsys)
        assert doc["strictly_balanced"] is True and doc["rho"] == "17/33"

    def test_decimal_inputs_flagged(self, files, capsys):
        doc = run_json(["sample", "--s", "3", "--n", "10", "--p", "0.25"],
                       capsys)
        assert doc["decimal_inputs"] == ["p"] and doc["p"] == 0.25
        doc = run_json(["classify-pair", "--in", files.pair,
                        "--alpha", "0.5"], capsys)
        assert doc["decimal_inputs"] == ["alpha"] and doc["alpha"] == "1/2"

    def test_sweep_csv_table(self, files, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, text, _ = run(["sweep", "--s", "3", "--n", "10,12",
                             "--alphas", "2,5/2", "--trials", "4",
                             "--builtin", "contains-edge", "--format", "csv",
                             "--out", str(out)], capsys)
        assert code == 0
        lines = text.splitlines()
        assert lines[0].startswith("# digest: ")
        assert lines[1] == ("n,alpha,p,trials,successes,estimate,"
                            "ci_lo,ci_hi,budget_exceeded")
        assert len(lines) == 2 + 4
        assert out.read_bytes().decode() == text
        # --out holds the CSV table whatever --format prints
        json_out = tmp_path / "sweep-json.csv"
        code, _, _ = run(["sweep", "--s", "3", "--n", "10,12",
                          "--alphas", "2,5/2", "--trials", "4",
                          "--builtin", "contains-edge", "--out", str(json_out)], capsys)
        assert code == 0 and json_out.read_bytes() == out.read_bytes()

    def test_sweep_rejects_open_formula(self, files, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, text, err = run(["sweep", "--s", "3", "--n", "10", "--alphas", "1,2",
                               "--trials", "3", "--formula",
                               "(exists x (or (= x x) (N x y z)))",
                               "--out", str(out)], capsys)
        assert code == 1 and text == ""
        assert err.strip() == "error: formula has free variables: y, z"
        assert not out.exists()

    def test_schema_dump_parses(self, files, capsys):
        doc = run_json(["schema-dump"], capsys)
        assert doc["csv_summary"]["fields"][0] == "n"
        assert "sample" in doc["documents"]

    @pytest.mark.parametrize("command", sorted(set(SUBCOMMANDS) - {"schema-dump"}))
    def test_document_matches_schema(self, files, capsys, command):
        keys = run_json(["schema-dump"], capsys)["documents"][command]
        doc = run_json(invocations(files)[command], capsys)
        if command == "bounds":
            # its computed values differ per theorem, one key each
            assert set(keys) - {"<one key per computed value>"} <= set(doc)
        else:
            assert sorted(doc) == sorted(keys)
        if command == "sweep":
            # every sweep thresholds one draw per trial at all of its exponents
            assert doc["coupled"] is True


class TestSharedParser:
    """`main` parses with one parser per process, which no call may change."""

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("sequence", ["usage_error", "append", "exclusive_group"])
    def test_calls_leave_no_state(self, files, capsys, sequence):
        """Each call of a sequence prints and returns what it does on a
        parser of its own, as in a process that runs it alone."""
        calls = {
            "usage_error": [["density"], ["density", "--in", files.edge3]],
            "append": [["poisson", "--pattern", files.triangle, "--pattern", files.c4,
                        "--n", "40", "--trials", "5", "--p", "1/20"],
                       ["poisson", "--pattern", files.triangle,
                        "--n", "40", "--trials", "5", "--p", "1/20"]],
            "exclusive_group": [["sample", "--s", "3", "--n", "12", "--p", "1/50"],
                                ["sample", "--s", "3", "--n", "12", "--alpha", "2"]],
        }[sequence]
        alone = []
        for argv in calls:
            shared_parser.cache_clear()
            alone.append(self.outcome(argv, capsys))
        shared_parser.cache_clear()
        assert [self.outcome(argv, capsys) for argv in calls] == alone
        assert [code for code, _, _ in alone] == [2 if sequence == "usage_error" else 0, 0]

    def test_later_calls_build_no_parser(self, files, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        assert build_parser() is not build_parser() and built  # the count sees a build
        argv = ["density", "--in", files.edge3]
        assert self.outcome(argv, capsys)[0] == 0  # builds the shared parser if no test has
        built.clear()
        assert self.outcome(argv, capsys)[0] == 0
        assert built == []


class TestDeterminism:
    def test_byte_identical_reruns(self, files, capsys):
        argv_sets = [
            ["sample", "--s", "3", "--n", "20", "--alpha", "2", "--seed", "7"],
            ["sweep", "--s", "3", "--n", "10", "--alphas", "2,3",
             "--trials", "6", "--builtin", "contains-edge", "--seed", "3"],
            ["poisson", "--pattern", files.triangle, "--n", "30",
             "--trials", "10", "--seed", "2"],
        ]
        for argv in argv_sets:
            _, first, _ = run(argv, capsys)
            _, second, _ = run(argv, capsys)
            assert first == second, argv

    def test_sweep_jobs_byte_identical(self, files, capsys, tmp_path):
        base = ["sweep", "--s", "3", "--n", "14,20", "--alphas", "3/2,2,5/2",
                "--trials", "11", "--pattern", files.path5, "--seed", "4",
                "--format", "csv"]
        texts, written = {}, {}
        for jobs in ("1", "2"):
            out = tmp_path / f"sweep{jobs}.csv"
            code, texts[jobs], err = run(base + ["--jobs", jobs, "--out", str(out)], capsys)
            assert code == 0, err
            written[jobs] = out.read_bytes()
        assert texts["1"] == texts["2"]
        assert written["1"] == written["2"]
        assert texts["1"].startswith("# digest: ")
        successes = {row.split(",")[4] for row in texts["1"].splitlines()[2:]}
        assert len(successes) > 1  # the exponents separate, so the counts are compared

    @pytest.mark.parametrize("command", ["poisson", "unextendable"])
    def test_count_jobs_byte_identical(self, files, capsys, command):
        argv = {"poisson": ["poisson", "--pattern", files.triangle, "--pattern",
                            files.c4, "--n", "40", "--trials", "13", "--p", "1/20"],
                "unextendable": ["unextendable", "--in", files.pair, "--n", "9",
                                 "--trials", "13", "--p", "0.06"]}[command]
        texts = {}
        for jobs in ("1", "2"):
            code, texts[jobs], err = run(argv + ["--seed", "4", "--jobs", jobs], capsys)
            assert code == 0, err
        assert texts["1"] == texts["2"]
        doc = json.loads(texts["1"])
        histograms = doc["histograms"] if command == "poisson" else [doc["histogram"]]
        assert all(len(h) > 1 for h in histograms)  # the trials differ

    def test_trial_index_changes_sample(self, files, capsys):
        base = ["sample", "--s", "3", "--n", "25", "--alpha", "3/2",
                "--seed", "1"]
        a = run_json(base, capsys)
        b = run_json(base + ["--trial", "1"], capsys)
        assert a["edges"] != b["edges"]

    def test_env_budget_cap(self, files, capsys, monkeypatch):
        monkeypatch.setenv("HYPERSPECTRA_BUDGET", "4")
        code, _, err = run(["count-copies", "--in", files.path5,
                            "--pattern", files.path5], capsys)
        assert code == 1 and "cap" in err
        monkeypatch.delenv("HYPERSPECTRA_BUDGET")
        code, _, _ = run(["count-copies", "--in", files.path5,
                          "--pattern", files.path5], capsys)
        assert code == 0
