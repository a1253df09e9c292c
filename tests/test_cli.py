import argparse
import ast
import inspect
import json
import re
from functools import lru_cache
from importlib import resources

import pytest

from gpam2d import cli, kernels, montecarlo
from gpam2d.classify import IN_G4, PUBLISHED_DEFECT, VANISHES
from gpam2d.cli import build_parser, main
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
            ["graphs", "pair", "--graph", "four_noise_a:a01", "--corpus", "nosuch.txt"],
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
             "graph-spec-with-corpus",
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

    def test_validate_fail_lines_name_the_offenders(self, capsys):
        fixture = str(resources.files("gpam2d.fixtures").joinpath("bad4_patterns.txt"))
        code, out = run(capsys, "graphs", "validate", "--corpus", fixture)
        assert code == 1
        assert out.splitlines()[1:] == [
            "pattern-parallel: FAIL item 1 [2, 3, 4, 5]; item 2 [5, 6]; item 6 [6, 7]",
            "pattern-crossed: FAIL item 1 [2, 3, 4, 5]; item 2 [5, 6]; item 6 [6, 7]",
            "checked 2 graphs, 2 failures",
        ]

    @pytest.mark.parametrize("argv", [["validate"], ["classify"], ["pair", "--graph", "g"]],
                             ids=["validate", "classify", "pair"])
    def test_label_line_is_an_unknown_directive(self, argv, tmp_path, capsys):
        # Every graph is labelled from its edge types: no action reads labels.
        fixture = tmp_path / "labelled.txt"
        fixture.write_text("graph g\nv o root\nv x int\ne x o Test\nlabel 0 a=0 r=0\n")
        path = tmp_path / "artifact.txt"
        code = main(["--out", str(path), "graphs", *argv, "--corpus", str(fixture)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: fixture line 5: unknown directive: 'label 0 a=0 r=0'\n"
        assert not path.exists()

    @pytest.mark.parametrize("argv", [["validate"], ["classify"], ["pair", "--graph", "g"]],
                             ids=["validate", "classify", "pair"])
    def test_corpus_that_is_a_directory(self, argv, tmp_path, capsys):
        path = tmp_path / "artifact.txt"
        code = main(["--out", str(path), "graphs", *argv, "--corpus", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot read fixture file {str(tmp_path)!r}: ")
        assert err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("out", ["missing/artifact.txt", "."],
                             ids=["parent-missing", "a-directory"])
    def test_unwritable_out(self, out, tmp_path, capsys):
        # The run completes; its artifact cannot be written.
        path = tmp_path / out
        code = main(["--out", str(path), "symbols", "--structure", "unprimed", "--side", "sol"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {str(path)!r}: ")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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
                       "mollifiers, but canonical labelling takes second-moment (Wick-paired) "
                       "graphs, whose budget matches their mollifiers\n")
        assert not path.exists()

    @pytest.mark.parametrize("argv", [["validate"], ["classify"], ["pair", "--graph", "g"]],
                             ids=["validate", "classify", "pair"])
    def test_expect_word_is_checked_when_parsed(self, argv, tmp_path, capsys):
        # dumbbell_variance:var-straight, which every action takes, with a misspelt verdict.
        fixture = tmp_path / "typo.txt"
        fixture.write_text("graph var-straight\nexpect Bogus\nprefactor 2\nv root root\n"
                           "v left int\nv left1 int\nv right int\nv right1 int\n"
                           "e left root Test\ne right root Test\ne left1 left K1\n"
                           "e left1 right1 DDRho\ne left right DDRho\ne right1 right K1\n")
        path = tmp_path / "artifact.txt"
        code = main(["--out", str(path), "graphs", *argv, "--corpus", str(fixture)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: fixture line 2: unknown verdict 'Bogus' (one of "
                              "VanishesViaAdjustment, InG2, InG3, InG4, Critical, Unclassified)")
        assert err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("first,second", [("expect InG2", "expect InG3"),
                                              ("coeff 2", "coeff 5"),
                                              ("prefactor 2", "prefactor 2")],
                             ids=["expect", "coeff", "prefactor"])
    @pytest.mark.parametrize("argv", [["validate"], ["classify"],
                                      ["pair", "--graph", "var-straight"]],
                             ids=["validate", "classify", "pair"])
    def test_repeated_directive_is_rejected(self, argv, first, second, tmp_path, capsys):
        # A second line would silently overwrite the first.
        budget = "" if first.startswith("prefactor") else "prefactor 2\n"
        fixture = tmp_path / "twice.txt"
        fixture.write_text(f"graph var-straight\n{first}\n{second}\n{budget}v root root\n"
                           "v left int\nv left1 int\nv right int\nv right1 int\n"
                           "e left root Test\ne right root Test\ne left1 left K1\n"
                           "e left1 right1 DDRho\ne left right DDRho\ne right1 right K1\n")
        path = tmp_path / "artifact.txt"
        code = main(["--out", str(path), "graphs", *argv, "--corpus", str(fixture)])
        err = capsys.readouterr().err
        assert code == 2
        directive = first.split()[0]
        assert err == (f"error: fixture line 3: second {directive} line in graph "
                       f"'var-straight': {second!r}\n")
        assert not path.exists()

    @pytest.mark.parametrize("name,line", [("crit", 2), ("g2", 4), ("g3", 3), ("g4", 3),
                                           ("van", 3)], ids=["crit", "g2", "g3", "g4", "van"])
    @pytest.mark.parametrize("argv", [["classify"], ["validate"], ["pair", "--graph", "g"]],
                             ids=["classify", "validate", "pair"])
    def test_corpus_refuses_class_manifests(self, argv, name, line, tmp_path, capsys):
        fixture = str(resources.files("gpam2d.fixtures").joinpath(f"class_{name}.txt"))
        path = tmp_path / "artifact.json"
        code = main(["--out", str(path), "graphs", *argv, "--corpus", fixture])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: fixture line {line}: unknown directive (a class-manifest line): "
                       f"'list {name}'\n")
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
            ["mc", "noise", "--seed", "-1"],
        ],
        ids=["noise-n-0", "noise-samples-0", "noise-samples-negative", "xiixi-n-0",
             "xiixi-resolution-0", "gconv-n-0", "gconv-n-negative", "crho-resolution-negative",
             "noise-n-not-a-number", "noise-seed-negative"],
    )
    def test_non_positive_size_is_an_argument_error(self, argv, tmp_path, capsys):
        # Rejected by the parser: the usage line, then one error line naming
        # the option; nothing runs and no artifact is written.
        path = tmp_path / "artifact.txt"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(path)] + argv)
        last = capsys.readouterr().err.splitlines()[-1]
        assert exc.value.code == 2
        assert f"error: argument {argv[2]}: " in last
        assert last.endswith(("is not a positive integer", "is not a non-negative integer"))
        assert not path.exists()

    @pytest.mark.parametrize("action, sizes", [
        ("constants crho", []),
        ("constants geps", ["--eps", "1/8"]),
        ("constants gconv", ["--n", "64", "--eps", "1/8"]),
        ("mc xiixi", ["--n", "64", "--samples", "16", "--eps", "1/8"]),
        ("mc weighted", ["--n", "64", "--samples", "16", "--eps", "1/8"]),
    ], ids=["crho", "geps", "gconv", "xiixi", "weighted"])
    def test_resolution_above_the_ceiling_is_an_argument_error(self, action, sizes, tmp_path,
                                                               capsys):
        # 384 is where c_rho^2's 8R-node rule reaches the 3072 nodes up to
        # which the Gauss-Legendre rule states its accuracy; the parser
        # refuses more, so nothing is built.
        path = tmp_path / "artifact.txt"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(path)] + action.split() + sizes + ["--resolution", "385"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: gpam2d {action} ")
        assert err.splitlines()[-1] == (
            f"gpam2d {action}: error: argument --resolution: 385 is above the ceiling 384: "
            "c_rho^2 takes 8 x resolution Gauss-Legendre nodes, accurate up to 3072")
        assert not path.exists()


# The 15 (action, option) pairs that each command once accepted for all of
# its actions, though the action never read the option; each with a value
# that an action taking the option accepts.
NOT_TAKEN = [
    ("graphs", "validate", "--graph", "four_noise_a:a01"),
    ("graphs", "validate", "--constraint", "12-34"),
    ("graphs", "classify", "--graph", "four_noise_a:a01"),
    ("graphs", "classify", "--constraint", "12-34"),
    ("constants", "crho", "--eps", "1/4"),
    ("constants", "crho", "--n", "64"),
    ("constants", "geps", "--route", "fourier"),
    ("constants", "geps", "--n", "64"),
    ("constants", "gconv", "--route", "spatial"),
    ("mc", "noise", "--eps", "1/8"),
    ("mc", "noise", "--resolution", "16"),
    ("mc", "noise", "--which", "xxiixi"),
    ("mc", "noise", "--axis", "2"),
    ("mc", "xiixi", "--which", "xxiixi"),
    ("mc", "xiixi", "--axis", "2"),
]


def _action_parsers():
    """``(command, action, parser)`` of every action; symbols has no action."""

    def actions_of(parser):
        return next((a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)), None)

    for command, parser in actions_of(build_parser()).items():
        for action, sub in (actions_of(parser) or {None: parser}).items():
            yield command, action, sub


def _options(parser) -> set[str]:
    return {a.dest for a in parser._actions} - {"help", "out", "verbose"}


def _args_reads() -> dict[str, set[str]]:
    """The ``args.<name>`` reads of each cli function, with those of every cli
    function it calls, however deep."""
    tree = ast.parse(inspect.getsource(cli))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    direct, calls = {}, {}
    for name, func in funcs.items():
        nodes = list(ast.walk(func))
        direct[name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name) and n.value.id == "args"}
        calls[name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                       and isinstance(n.func, ast.Name) and n.func.id in funcs}
    reads = {}
    for name in funcs:
        seen, todo = set(), [name]
        while todo:
            if (f := todo.pop()) not in seen:
                seen.add(f)
                todo += calls[f]
        reads[name] = set().union(*(direct[f] for f in seen))
    return reads


class TestOptionSets:
    @pytest.mark.parametrize("command,action,option,value", NOT_TAKEN,
                             ids=[f"{c}-{a}-{o[2:]}" for c, a, o, _ in NOT_TAKEN])
    def test_option_the_action_does_not_read_is_a_usage_error(self, command, action, option,
                                                             value, tmp_path, capsys):
        path = tmp_path / "artifact.txt"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(path), command, action, option, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: gpam2d {command} {action} ")
        assert err.splitlines()[-1] == (
            f"gpam2d {command} {action}: error: unrecognized arguments: {option} {value}")
        assert not path.exists()

    def test_each_action_declares_exactly_the_options_its_handler_reads(self):
        reads = _args_reads()
        for command, action, parser in _action_parsers():
            handler = parser.get_default("func").__name__
            # --out and -v belong to every parser; the action is the dispatch key.
            assert _options(parser) == reads[handler] - {"out", "verbose", "action"}, \
                (command, action)

    def test_thirty_action_option_pairs(self):
        assert sum(len(_options(p)) for *_, p in _action_parsers()) == 30

    @pytest.mark.parametrize("argv", [
        ["graphs", "validate"],
        ["constants", "crho", "--route", "fourier", "--resolution", "16"],
        ["mc", "noise", "--n", "16", "--samples", "4"],
    ], ids=["graphs-validate", "constants-crho", "mc-noise"])
    def test_config_line_lists_only_the_action_options(self, argv, capsys):
        code, out = run(capsys, *argv)
        parser = dict(((c, a), p) for c, a, p in _action_parsers())[tuple(argv[:2])]
        assert code == 0
        config = json.loads(out.splitlines()[0][2:])["config"]
        assert config.keys() - {"command", "action"} <= _options(parser)
        assert config["command"] == argv[0] and config["action"] == argv[1]


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

    def test_before_after_and_between_command_and_action(self, tmp_path, capsys):
        argv = ["mc", "noise", "--n", "16", "--samples", "4"]
        paths = [tmp_path / f"{i}.out" for i in range(4)]
        for i, path in zip((0, 1, 2, len(argv)), paths):
            assert main(argv[:i] + ["-v", "--out", str(path)] + argv[i:]) == 0
            assert "stage sample noise: " in capsys.readouterr().err
        assert len({path.read_bytes() for path in paths}) == 1


class TestVerbose:
    @pytest.fixture(autouse=True)
    def fresh_default_mollifiers(self, monkeypatch):
        # The tables line lists what this test's runs built, not what earlier
        # tests left on the process-wide default mollifiers.
        monkeypatch.setattr(kernels, "_default_mollifier",
                            lru_cache(maxsize=4)(kernels._default_mollifier.__wrapped__))

    @pytest.mark.parametrize(
        "argv, stage, tables",
        [
            (["constants", "crho", "--resolution", "32"], "crho_squared spatial",
             "profile2, mean2, fourier"),
            (["constants", "geps", "--eps", "1", "--resolution", "32"], "square kernel",
             "profile2, mean2, harmonic4"),
            (["mc", "xiixi", "--eps", "1/8", "--n", "64", "--samples", "16",
              "--resolution", "32"], "crho_squared spatial", "profile2, mean2"),
        ],
        ids=["constants-crho", "constants-geps", "mc-xiixi"],
    )
    def test_artifact_bytes_do_not_depend_on_v(self, argv, stage, tables, tmp_path, capsys):
        quiet, loud = tmp_path / "quiet.out", tmp_path / "loud.out"
        assert main(["--out", str(quiet)] + argv) == 0
        assert capsys.readouterr().err == ""
        assert main(["-v", "--out", str(loud)] + argv) == 0
        err = capsys.readouterr().err
        assert quiet.read_bytes() == loud.read_bytes()
        assert f"stage {stage}: " in err
        stages = [line for line in err.splitlines() if line.startswith("stage ")]
        assert all(re.fullmatch(r"stage .+: \d+\.\d{3} s, \d+ page faults", line)
                   for line in stages), stages
        assert "cache kernels._legendre: CacheInfo(" in err
        assert f"default mollifier 32 tables: {tables}" in err.splitlines()
        if argv[0] == "mc":
            assert "cache montecarlo._spectral: CacheInfo(" in err
            assert "cache montecarlo._mean_field: CacheInfo(" in err

    def test_fourier_route_builds_the_fourier_table_alone(self, tmp_path, capsys):
        argv = ["-v", "--out", str(tmp_path / "crho.out"), "constants", "crho",
                "--route", "fourier", "--resolution", "32"]
        assert main(argv) == 0
        assert "default mollifier 32 tables: fourier" in capsys.readouterr().err.splitlines()


class TestConstantsAndMc:
    def test_crho_route_agreement(self, capsys):
        code, out = run(capsys, "constants", "crho", "--route", "both",
                        "--resolution", "64")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("crho")]
        vals = [float(l.split(",")[3]) for l in lines]
        assert len(vals) == 2
        assert abs(vals[0] - vals[1]) < 1e-3 * vals[0]

    def test_crho_runs_at_resolution_one(self, capsys):
        # Both routes are far off there (0.160 and 0.251 against 0.214), so
        # the action reports that they disagree, after printing both rows.
        code, out = run(capsys, "constants", "crho", "--resolution", "1")
        assert code == 1
        rows = [line.split(",") for line in out.splitlines() if line.startswith("crho")]
        assert [row[:3] for row in rows] == [["crho_squared_spatial", "", "1"],
                                             ["crho_squared_fourier", "", "1"]]
        assert all(float(row[3]) > 0 for row in rows)

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

    @pytest.mark.parametrize("scales, code, flagged", [
        (None, 0, []), ("2^-10", 1, ["0.0009765625"]), ("1e-150", 1, ["1e-150"]),
    ], ids=["default", "2^-10", "1e-150"])
    def test_geps_states_its_error_and_flags_what_it_misses(self, scales, code, flagged,
                                                             tmp_path, capsys):
        # The default scales are resolved; at 2^-10 the rule does not resolve
        # the kernel (it prints 0.35 against 0.214), and at 1e-150 all of it
        # lies inside the rule's inner radius (it prints 9.7e-306).
        path = tmp_path / "geps.csv"
        argv = ["constants", "geps", "--resolution", "64"] + (["--eps", scales] if scales else [])
        assert main(["--out", str(path)] + argv) == code
        err = capsys.readouterr().err
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        assert len(rows) == (3 if scales is None else 1)
        over = [eps for _, eps, _, value, error, _ in rows if float(error) > 1e-4 * float(value)]
        assert over == flagged
        assert all(float(row[4]) > 0 for row in rows)
        if flagged:
            assert err == (f"error: square-kernel integral unresolved at eps {flagged[0]}: "
                           "error estimate above 1e-4 of the value\n")
        else:
            assert err == ""

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
