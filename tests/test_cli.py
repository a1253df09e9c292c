import json
from importlib import resources

import pytest

from gpam2d import montecarlo
from gpam2d.classify import IN_G4, PUBLISHED_DEFECT, VANISHES
from gpam2d.cli import main
from gpam2d.kernels import gconv_limits_check


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSymbols:
    def test_solution_table(self, capsys):
        code, out = run(capsys, "symbols", "--structure", "unprimed", "--side", "sol")
        assert code == 0
        assert "I(Xi)" in out and "1/2-kappa" in out

    def test_primed_rhs_has_four_entries(self, capsys):
        code, out = run(capsys, "symbols", "--structure", "primed", "--side", "RHS",
                        "--json")
        assert code == 0
        table = json.loads("\n".join(out.splitlines()[1:]))
        assert len(table) == 4

    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["symbols", "--structure", "bogus", "--side", "sol"])
        assert err.value.code == 2


class TestGraphs:
    def test_validate_default_corpus(self, capsys):
        code, out = run(capsys, "graphs", "validate")
        assert code == 0
        assert "0 failures" in out

    def test_pair_counts(self, capsys):
        code, out = run(capsys, "graphs", "pair", "--graph", "four_noise_a:a01",
                        "--constraint", "12-34")
        assert code == 0
        assert "4 pairings" in out

    def test_pair_from_corpus_file_matches_file_graph_spec(self, capsys):
        fixture = str(resources.files("gpam2d.fixtures").joinpath("ladder_pair.txt"))
        code, by_name = run(capsys, "graphs", "pair", "--corpus", fixture,
                            "--graph", "ladder-recentred", "--constraint", "12-34")
        assert code == 0
        code, by_spec = run(capsys, "graphs", "pair", "--graph", "ladder_pair:ladder-recentred",
                            "--constraint", "12-34")
        assert code == 0
        lines = by_name.splitlines()[1:]
        assert lines == by_spec.splitlines()[1:] and lines[-1] == "4 pairings"
        assert len(lines) == 5

    def test_classify_mismatch_exit(self, tmp_path, capsys):
        # A critical graph annotated as vanishing must be flagged.
        fixture = tmp_path / "bad.txt"
        fixture.write_text(
            "graph wrong\n"
            "expect VanishesViaAdjustment\n"
            "prefactor 2\n"
            "v root root\n"
            "v left int\n"
            "v left1 int\n"
            "v right int\n"
            "v right1 int\n"
            "e left root Test\n"
            "e right root Test\n"
            "e left1 left K1\n"
            "e left1 right1 DDRho\n"
            "e left right DDRho\n"
            "e right1 right K1\n"
        )
        code, out = run(capsys, "graphs", "classify", "--corpus", str(fixture))
        assert code == 1
        blob = json.loads(out.splitlines()[1] and "\n".join(out.splitlines()[1:]))
        assert blob["mismatches"] == 1

    def test_classify_reports_the_known_published_defect(self, capsys):
        code, out = run(capsys, "graphs", "classify")
        blob = json.loads("\n".join(out.splitlines()[1:]))
        assert code == 0
        assert blob["expected_from"] == "published partition"
        assert blob["mismatches"] == 0 and not blob["agrees"]
        assert blob["disagreements"] == [{
            "graph_ref": PUBLISHED_DEFECT, "verdict": IN_G4,
            "expected": VANISHES, "known": True,
        }]

    def test_classify_empty_corpus(self, tmp_path, capsys):
        fixture = tmp_path / "empty.txt"
        fixture.write_text("# nothing here\n")
        code, out = run(capsys, "graphs", "classify", "--corpus", str(fixture))
        assert code == 0


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["graphs", "pair"],
            ["graphs", "pair", "--graph", "nosuch"],
            ["graphs", "pair", "--graph", "four_noise_a:nosuch"],
            ["graphs", "pair", "--graph", "nofile:x"],
            ["graphs", "pair", "--graph", "four_noise_a:a01:x"],
            ["graphs", "pair", "--graph", "four_noise_a::a01"],
            ["constants", "geps", "--eps", "0"],
            ["constants", "geps", "--eps", "1/4..1"],
            ["mc", "noise", "--n", "100"],
            ["graphs", "pair", "--graph", "four_noise_a:a01", "--constraint", "12-3"],
            ["graphs", "pair", "--graph", "four_noise_a:a01", "--constraint", "11-34"],
            ["graphs", "pair", "--graph", "four_noise_a:a01", "--constraint", "1-2-3"],
            ["constants", "geps", "--eps", "1..1/3"],
            ["constants", "geps", "--eps", "1/4..1/10"],
            ["mc", "xiixi", "--samples", "15"],
            ["mc", "weighted", "--samples", "1"],
            ["mc", "xiixi", "--eps", "1", "--n", "4", "--samples", "16", "--resolution", "8"],
            ["mc", "weighted", "--eps", "1", "--n", "4", "--samples", "16", "--resolution", "8"],
            ["mc", "weighted", "--eps", "1", "--n", "4", "--samples", "16", "--resolution", "8",
             "--which", "xxiixi"],
            ["mc", "weighted", "--eps", "1", "--n", "4", "--samples", "16", "--resolution", "8",
             "--axis", "2"],
            ["mc", "weighted", "--eps", "2", "--n", "2", "--samples", "16", "--resolution", "8"],
            ["mc", "xiixi", "--eps", "80", "--n", "16", "--samples", "16", "--resolution", "8"],
            ["mc", "weighted", "--eps", "80", "--n", "16", "--samples", "16", "--resolution", "8"],
            ["constants", "gconv", "--eps", "1e300", "--n", "8", "--resolution", "8"],
            ["constants", "geps", "--eps", "1e160"],
            ["constants", "geps", "--eps", "1e-160", "--resolution", "8"],
            ["constants", "geps", "--eps", "nan"],
            ["constants", "geps", "--eps", "2^x"],
            ["constants", "geps", "--eps", "1..1/4..1/8"],
            ["constants", "geps", "--eps", "64", "--resolution", "8"],
        ],
        ids=["pair-without-graph", "unknown-corpus-graph", "unknown-fixture-graph",
             "unknown-fixture-file", "graph-spec-two-colons", "graph-spec-double-colon",
             "zero-scale", "ascending-range", "grid-not-power-of-2",
             "constraint-sides-unequal", "constraint-repeated-digit", "constraint-two-dashes",
             "range-end-off-grid", "range-overshoots-end", "xiixi-samples-below-16",
             "weighted-samples-below-16", "xiixi-bump-only-at-origin",
             "weighted-bump-only-at-origin", "xxiixi-bump-only-at-origin",
             "weighted-axis-2-bump-only-at-origin", "weighted-grid-of-2",
             "xiixi-mollified-noise-vanishes", "weighted-mollified-noise-vanishes",
             "gconv-square-overflows", "geps-square-overflows", "geps-square-underflows",
             "nan-scale", "bad-exponent", "two-range-dots", "geps-above-32"],
    )
    def test_one_error_line_no_artifact_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "artifact.txt"
        code = main(["--out", str(path)] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()

    def test_graph_too_wide_for_int64_subset_bitmasks(self, tmp_path, capsys):
        # Power counting enumerates subsets as int64 bitmasks: a 63-vertex
        # graph is refused instead of enumerated.
        lines = ["graph wide", "v root root"] + [f"v x{i} int" for i in range(62)]
        lines += ["e x0 root K"] + [f"e x{i + 1} x{i} K" for i in range(61)]
        lines += ["e x1 x3 DDRho eps=1"]
        fixture = tmp_path / "wide.txt"
        fixture.write_text("\n".join(lines) + "\n")
        path = tmp_path / "artifact.json"
        code = main(["--out", str(path), "graphs", "classify", "--corpus", str(fixture)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: 63 vertices") and err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("action", ["validate", "classify"])
    def test_stray_fixture_field_names_its_line(self, action, tmp_path, capsys):
        fixture = tmp_path / "stray.txt"
        fixture.write_text("graph g\nv o root\nv x int\ne x o Test foo=1\n")
        path = tmp_path / "artifact.txt"
        code = main(["--out", str(path), "graphs", action, "--corpus", str(fixture)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: fixture line 4: unknown field 'foo=1'")
        assert err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "fname,graph,count",
        [("adhoc_labels", "adhoc-a", 3), ("bad4_patterns", "pattern-parallel", 2)],
    )
    def test_classify_refuses_label_lines(self, fname, graph, count, tmp_path, capsys):
        # classify labels every graph from its edge types: a fixture's own
        # labels would be dropped, so it names the first labelled graph and
        # stops; validate reads the same file as before.
        fixture = str(resources.files("gpam2d.fixtures").joinpath(f"{fname}.txt"))
        path = tmp_path / "artifact.json"
        code = main(["--out", str(path), "graphs", "classify", "--corpus", fixture])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: graph {graph!r} has label lines, but graphs classify "
                       "labels every graph from its edge types\n")
        assert not path.exists()
        code, out = run(capsys, "graphs", "validate", "--corpus", fixture)
        assert code == 1 and f"checked {count} graphs, {count} failures" in out

    @pytest.mark.parametrize(
        "fname,graph,budget,mollifiers",
        [("axis_variants", "b10j2", 2, 3), ("four_noise_a", "a01", 2, 4),
         ("four_noise_b", "b01", 2, 4), ("ladder_pair", "ladder-recentred", 2, 4),
         ("two_noise_tree", "chain2", 1, 2), ("weighted_tree", "wchain2", 1, 2)],
    )
    def test_classify_names_the_unpaired_graph(self, fname, graph, budget, mollifiers,
                                               tmp_path, capsys):
        # Stochastic graphs spend fewer epsilons than they have mollifiers;
        # their Wick pairings are what classify takes.
        fixture = str(resources.files("gpam2d.fixtures").joinpath(f"{fname}.txt"))
        path = tmp_path / "artifact.json"
        code = main(["--out", str(path), "graphs", "classify", "--corpus", fixture])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: graph {graph!r} spends epsilon^{budget} against {mollifiers} "
                       "mollifiers, but graphs classify takes second-moment (Wick-paired) "
                       "graphs, whose budget matches their mollifiers\n")
        assert not path.exists()

    def test_classify_refuses_an_unknown_expect_word(self, tmp_path, capsys):
        fixture = tmp_path / "typo.txt"
        fixture.write_text("graph typo\nexpect Bogus\nv o root\nv x int\ne x o Test\n")
        path = tmp_path / "artifact.json"
        code = main(["--out", str(path), "graphs", "classify", "--corpus", str(fixture)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: graph 'typo' expects 'Bogus', which is not a verdict")
        assert err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("name", ["crit", "g2", "g3", "g4", "van"])
    @pytest.mark.parametrize("action", ["classify", "validate"])
    def test_corpus_refuses_class_manifests(self, action, name, tmp_path, capsys):
        fixture = str(resources.files("gpam2d.fixtures").joinpath(f"class_{name}.txt"))
        path = tmp_path / "artifact.json"
        code = main(["--out", str(path), "graphs", action, "--corpus", fixture])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: {fixture!r} is a class manifest (a 'list' file), "
                       "not a graph fixture file\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "noise", "--n", "0"],
            ["mc", "noise", "--samples", "0"],
            ["mc", "noise", "--samples", "-1"],
            ["mc", "xiixi", "--n", "0"],
            ["mc", "xiixi", "--resolution", "0"],
            ["constants", "gconv", "--n", "0"],
            ["constants", "gconv", "--n", "-4"],
            ["constants", "crho", "--resolution", "-1"],
            ["mc", "noise", "--n", "abc"],
        ],
        ids=["noise-n-0", "noise-samples-0", "noise-samples-negative", "xiixi-n-0",
             "xiixi-resolution-0", "gconv-n-0", "gconv-n-negative", "crho-resolution-negative",
             "noise-n-not-a-number"],
    )
    def test_non_positive_size_is_an_argument_error(self, argv, tmp_path, capsys):
        # Rejected by the parser: the usage line, then one error line naming
        # the option; nothing runs and no artifact is written.
        path = tmp_path / "artifact.txt"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(path)] + argv)
        last = capsys.readouterr().err.splitlines()[-1]
        assert exc.value.code == 2
        assert f"error: argument {argv[2]}: " in last and "positive integer" in last
        assert not path.exists()


class TestOutPlacement:
    @pytest.mark.parametrize(
        "argv",
        [
            ["symbols", "--structure", "unprimed", "--side", "sol"],
            ["mc", "noise", "--n", "32", "--samples", "16", "--seed", "4"],
        ],
        ids=["symbols", "mc-noise"],
    )
    def test_before_and_after_subcommand_write_same_bytes(self, argv, tmp_path):
        before, after = tmp_path / "before.out", tmp_path / "after.out"
        assert main(["--out", str(before)] + argv) == 0
        assert main(argv[:1] + ["--out", str(after)] + argv[1:]) == 0
        assert before.read_bytes() == after.read_bytes()


class TestVerbose:
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "crho", "--resolution", "32"],
            ["mc", "xiixi", "--eps", "1/8", "--n", "64", "--samples", "16",
             "--resolution", "32"],
        ],
        ids=["constants-crho", "mc-xiixi"],
    )
    def test_artifact_bytes_do_not_depend_on_v(self, argv, tmp_path, capsys):
        quiet, loud = tmp_path / "quiet.out", tmp_path / "loud.out"
        assert main(["--out", str(quiet)] + argv) == 0
        assert capsys.readouterr().err == ""
        assert main(["-v", "--out", str(loud)] + argv) == 0
        err = capsys.readouterr().err
        assert quiet.read_bytes() == loud.read_bytes()
        assert "stage crho_squared spatial: " in err
        assert "cache kernels._legendre: CacheInfo(" in err
        assert "default mollifier 32 tables: profile1, profile2" in err
        if argv[0] == "mc":
            assert "cache montecarlo._spectral: CacheInfo(" in err
            assert "cache montecarlo._mean_field: CacheInfo(" in err


class TestConstantsAndMc:
    def test_crho_route_agreement(self, capsys):
        code, out = run(capsys, "constants", "crho", "--route", "both",
                        "--resolution", "64")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("crho")]
        vals = [float(l.split(",")[3]) for l in lines]
        assert len(vals) == 2
        assert abs(vals[0] - vals[1]) < 1e-3 * vals[0]

    def test_gconv_rows_match_the_limits_check(self, capsys):
        argv = ["constants", "gconv", "--eps", "2^-4", "--n", "64", "--resolution", "16"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        expected = gconv_limits_check(2**-4, n=64, resolution=16)
        rows = [line.split(",") for line in out1.splitlines()[2:]]
        assert rows == [[f"gconv_{key}", "0.0625", "16", repr(val), "", "smoothing-residual"]
                        for key, val in expected.items()]
        assert [row[0] for row in rows] == ["gconv_limit1", "gconv_limit2", "gconv_limit3"]

    def test_mc_reproducible_bytes(self, tmp_path, capsys):
        argv = ["mc", "xiixi", "--eps", "1/8", "--n", "64", "--samples", "32",
                "--seed", "7", "--resolution", "64"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "var_ratio" in out1

    def test_mc_weighted_draws_each_noise_once(self, monkeypatch, capsys):
        draws = []
        sample_noise = montecarlo.sample_noise
        monkeypatch.setattr(montecarlo, "sample_noise",
                            lambda n, seed: draws.append(seed) or sample_noise(n, seed))
        code, out = run(capsys, "mc", "weighted", "--eps", "1/8..1/16", "--n", "64",
                        "--samples", "16", "--resolution", "32")
        assert code == 0
        assert len(out.splitlines()) == 4  # header, column names, two scales
        assert len(draws) == 16

    def test_mc_grid_guard(self, capsys):
        code, _ = run(capsys, "mc", "xiixi", "--eps", "1/1024", "--n", "64",
                      "--samples", "32", "--resolution", "64")
        assert code == 2

    def test_mc_noise_below_16_samples_leaves_se_empty(self, capsys):
        code, out = run(capsys, "mc", "noise", "--n", "32", "--samples", "8", "--seed", "3")
        assert code == 0
        header, row = out.splitlines()[1:]
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["se"] == "" and float(cells["value"]) > 0

    def test_out_file_embeds_config(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code = main(["--out", str(path), "mc", "noise", "--n", "64",
                     "--samples", "20", "--seed", "3"])
        assert code == 0
        text = path.read_text()
        header = json.loads(text.splitlines()[0].lstrip("# "))
        assert header["config"]["seed"] == 3
        assert header["version"]
