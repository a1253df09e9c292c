import json

import pytest

from gpam2d import montecarlo
from gpam2d.classify import IN_G4, PUBLISHED_DEFECT, VANISHES
from gpam2d.cli import main


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
            ["constants", "geps", "--eps", "0"],
            ["constants", "geps", "--eps", "1/4..1"],
            ["mc", "noise", "--n", "100"],
        ],
        ids=["pair-without-graph", "unknown-corpus-graph", "unknown-fixture-graph",
             "unknown-fixture-file", "zero-scale", "ascending-range", "grid-not-power-of-2"],
    )
    def test_one_error_line_no_artifact_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "artifact.txt"
        code = main(["--out", str(path)] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
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


class TestConstantsAndMc:
    def test_crho_route_agreement(self, capsys):
        code, out = run(capsys, "constants", "crho", "--route", "both",
                        "--resolution", "64")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("crho")]
        vals = [float(l.split(",")[3]) for l in lines]
        assert len(vals) == 2
        assert abs(vals[0] - vals[1]) < 1e-3 * vals[0]

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

    def test_out_file_embeds_config(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code = main(["--out", str(path), "mc", "noise", "--n", "64",
                     "--samples", "20", "--seed", "3"])
        assert code == 0
        text = path.read_text()
        header = json.loads(text.splitlines()[0].lstrip("# "))
        assert header["config"]["seed"] == 3
        assert header["version"]
