import argparse
import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnkit
from bnkit import chain, cli
from bnkit.cli import COMMANDS, GROUPS, _csv_cell, build_parser, main
from bnkit.errors import InternalCheckError

from cli_table_goldens import TABLE_GOLDENS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


class TestScalarCommands:
    def test_rho(self, capsys):
        env = run_json(capsys, "rho", "-g", "8", "-r", "2", "-d", "7")
        assert env["result"] == {"rho": -1}
        assert env["inputs"] == {"g": 8, "r": 2, "d": 7}

    def test_rho_k(self, capsys):
        env = run_json(capsys, "rho-k", "-g", "12", "-r", "2", "-d", "7", "-k", "3")
        assert env["result"] == {"rho_k": 1}

    def test_count_and_syt(self, capsys):
        assert run_json(capsys, "count", "-g", "4", "-r", "1", "-d", "3")["result"] == {
            "count": 2
        }
        assert run_json(capsys, "syt", "--rows", "2", "--cols", "3")["result"] == {
            "count": 5
        }

    def test_chi_hilbert_smrc_interp(self, capsys):
        assert run_json(capsys, "chi", "-g", "2", "-r", "3", "-d", "5")["result"] == {
            "chi": 17
        }
        assert run_json(
            capsys, "hilbert", "-g", "2", "-r", "3", "-d", "5", "-k", "2"
        )["result"] == {"value": 9}
        assert run_json(
            capsys, "smrc", "-g", "13", "-r", "5", "-d", "16", "-k", "2"
        )["result"] == {"expected_dim": -1}
        assert run_json(capsys, "interp", "-g", "2", "-r", "3", "-d", "5")["result"] == {
            "formula_value": 10,
            "is_exception": True,
            "count": 9,
        }


class TestStructuredCommands:
    def test_splitting_tree(self, capsys):
        # values starting with "-" use the -e=... form
        assert run_json(capsys, "splitting", "rd", "-g", "5", "-e=-2,-2,1")[
            "result"
        ] == {"r": 1, "d": 4}
        assert run_json(capsys, "splitting", "rho", "-g", "5", "-e=-3,-1,1")[
            "result"
        ] == {"rho_splitting": 0}
        env = run_json(
            capsys, "splitting", "maximal", "-g", "8", "-r", "2", "-d", "7", "-k", "4"
        )
        assert env["result"]["types"] == ["-4,0,0,0", "-3,-2,0,1", "-2,-2,-2,2"]
        env = run_json(
            capsys, "splitting", "majorizes", "--outer=-2,-2,1", "--inner=-3,-1,1"
        )
        assert env["result"] == {"majorizes": True, "reason": ""}

    def test_loci_tree(self, capsys):
        assert run_json(capsys, "loci", "dual", "-g", "12", "-r", "1", "-d", "3")[
            "result"
        ] == {"g": 12, "r": 9, "d": 19}
        env = run_json(capsys, "loci", "maximal", "-g", "8", "-r", "1", "-d", "4")
        assert env["result"]["is_expected_maximal"] and env["result"]["is_maximal_exception"]
        env = run_json(capsys, "loci", "enumerate", "-g", "7")
        assert {
            "g": 7, "r": 2, "d": 6, "rho": -2,
            "expected_maximal": True, "exception": True,
        } in env["result"]

    def test_kfill(self, capsys):
        env = run_json(
            capsys, "kfill", "--core", "4,2,1,1", "-k", "3", "-g", "5", "--witnesses"
        )
        assert env["result"] == {
            "count": 2,
            "witnesses": ["0,1,2,1,0", "0,2,1,2,0"],
        }

    def test_chain_tree(self, capsys):
        env = run_json(
            capsys, "chain", "h0", "--aspects", "0,4;2,2;0,4", "--dist", "3,0,1"
        )
        assert env["result"] == {"h0": 3}
        assert env["inputs"]["window"] == 4  # defaults to g+1 and is echoed
        env = run_json(capsys, "chain", "min-h0", "--aspects", "0,4;2,2;0,4")
        assert env["result"]["min_h0"] == 3
        env = run_json(
            capsys, "chain", "tables", "--aspects", "0,4;2,2;0,4", "-r", "2"
        )
        assert env["result"]["a"] == [[0, 1, 2], [0, 2, 3], [1, 2, 4]]
        env = run_json(capsys, "chain", "star", "--aspects", "0,4;2,2;0,4", "-r", "2")
        assert env["result"]["pairs"] == [[1, 0], [2, 1], [3, 2]]
        env = run_json(
            capsys, "chain", "search", "-g", "3", "-r", "2", "-d", "4", "--witnesses"
        )
        assert env["result"]["count_exact"] == 1
        assert {"aspects": "0,4;2,2;0,4", "min_h0": 3} in env["result"]["witnesses"]

    def test_lattice_tree(self, capsys):
        assert run_json(capsys, "lattice", "min-degree", "-r", "3", "-g", "4")[
            "result"
        ] == {"min_degree": 6}
        env = run_json(
            capsys, "lattice", "reachable", "-r", "3", "--g-max", "2", "--d-max", "5"
        )
        assert env["result"] == [
            {"d": 3, "g": 0},
            {"d": 4, "g": 0},
            {"d": 4, "g": 1},
            {"d": 5, "g": 0},
            {"d": 5, "g": 1},
            {"d": 5, "g": 2},
        ]
        env = run_json(capsys, "lattice", "certificate", "-r", "3", "-d", "5", "-g", "2")
        assert env["result"]["moves"] == "BB" and env["result"]["chi"] == 17

    def test_certificate_payload_shape(self, capsys):
        env = run_json(capsys, "lattice", "certificate", "-r", "3", "-d", "6", "-g", "4")
        assert env["result"] == {
            "moves": "C",
            "steps": [{"move": "C", "bundle": [-1, -1, -1], "h1": 0}],
            "chi": 15,
        }

    def test_nb_tree(self, capsys):
        assert run_json(capsys, "nb", "project", "-d", "3")["result"] == {
            "sub": 5,
            "quot": 5,
            "total_rank": 2,
            "total_degree": 10,
        }
        env = run_json(capsys, "nb", "odd-cert", "-d", "5")
        assert env["result"] == {
            "d": 5,
            "peels": 1,
            "sub": 8,
            "quot": 8,
            "balanced": True,
            "total": 18,
        }
        env = run_json(
            capsys,
            "nb", "modify", "--degrees", "2,1,1", "--summand", "0", "--sign", "-",
            "--points", "1",
        )
        assert env["result"] == {"degrees": [2, 0, 0]}


class TestEnvelopeDiscipline:
    def test_json_is_canonical_and_deterministic(self, capsys):
        args = ("chain", "search", "-g", "3", "-r", "2", "-d", "4")
        _, out1, _ = run(capsys, "--format", "json", *args)
        _, out2, _ = run(capsys, "--format", "json", *args)
        assert out1 == out2
        parsed = json.loads(out1)
        assert json.dumps(parsed, sort_keys=True) == out1

    def test_table_and_csv_formats(self, capsys):
        code, out, _ = run(capsys, "rho", "-g", "8", "-r", "2", "-d", "7")
        assert code == 0 and "rho = -1" in out
        code, out, _ = run(
            capsys, "--format", "csv", "loci", "enumerate", "-g", "8"
        )
        assert code == 0
        assert out.splitlines()[0] == "d,exception,expected_maximal,g,r,rho"

    @pytest.mark.parametrize("argv", sorted(TABLE_GOLDENS))
    def test_every_result_is_a_dict_or_a_list_of_dicts(self, capsys, argv):
        # the table and csv forms read no other shape
        result = run_json(capsys, *argv.split())["result"]
        rows = result if isinstance(result, list) else [result]
        assert all(isinstance(row, dict) for row in rows), result

    def test_an_empty_list_is_an_empty_csv_line_and_a_bare_table_header(self, capsys):
        argv = ["lattice", "reachable", "-r", "3", "--g-max", "0", "--d-max", "2"]
        assert run_json(capsys, *argv)["result"] == []
        assert main(["--format", "csv", *argv]) == 0
        assert capsys.readouterr().out == "\n"
        assert main(["--format", "table", *argv]) == 0
        assert capsys.readouterr().out == "lattice reachable  r=3 g_max=0 d_max=2\n"

    def test_a_count_below_the_formula_is_missing_with_a_note(self, capsys):
        argv = ["interp", "-g", "4", "-r", "3", "-d", "6"]
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0 and '"count": null' in out
        assert json.loads(out)["result"] == {
            "count": None,
            "formula_value": 12,
            "is_exception": True,
            "note": "below formula; exact count not pinned",
        }
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1:] == [
            "  count = ",
            "  formula_value = 12",
            "  is_exception = True",
            "  note = below formula; exact count not pinned",
        ]


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "rho", "-g", "8", "-r", "2")
        assert code == 2

    def test_precondition_error_names_violation(self, capsys):
        code, _, err = run(capsys, "count", "-g", "8", "-r", "2", "-d", "7")
        assert code == 2
        assert "rho" in err

    def test_a_reader_that_stops_early_gets_exit_0(self):
        """A 2.8 MB listing, more than a pipe holds, read for 10 bytes and
        closed: the command did its work, so exit 0 and nothing on stderr."""
        src = str(Path(bnkit.__file__).resolve().parent.parent)
        argv = "--format json chain search -g 6 -r 2 -d 7 --witnesses".split()
        with subprocess.Popen([sys.executable, "-m", "bnkit.cli", *argv], env={"PYTHONPATH": src},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{"command"'
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (0, b"")

    def test_too_small_window_is_a_precondition_error(self, capsys):
        code, _, err = run(
            capsys, "chain", "tables", "--aspects", "0,4;2,2;0,4", "-r", "2", "--window", "0"
        )
        assert code == 2
        assert "window 0" in err

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_negative_window_is_refused_by_chain_h0(self, capsys, fmt):
        # h0 sweeps no window, but refuses a negative one like every chain command
        code, out, err = run(capsys, "--format", fmt, "chain", "h0", "--aspects", "0,4;2,2;0,4",
                             "--dist", "3,0,1", "--window", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: need window >= 0, got window=-5\n"

    @pytest.mark.parametrize("flag,argv", [
        ("--core", ["kfill", "--core", "4,a", "-k", "3", "-g", "5"]),
        ("--dist", ["chain", "h0", "--aspects", "0,4;2,2;0,4", "--dist", "1,x,3"]),
        ("--aspects", ["chain", "min-h0", "--aspects", "0,4;2"]),
        ("--degrees", ["nb", "modify", "--degrees", "1,,2", "--summand", "0",
                       "--sign", "+", "--points", "1"]),
        ("-e", ["splitting", "rd", "-g", "5", "-e=1,x"]),
        ("--outer", ["splitting", "majorizes", "--outer=1,,2", "--inner=0,0"]),
        ("--inner", ["splitting", "majorizes", "--outer=0,0", "--inner=0;1"]),
        ("-e", ["splitting", "predicates", "-e=gen,1"]),
    ])
    def test_malformed_value_is_a_parse_error(self, capsys, flag, argv):
        code, out, err = run(capsys, "--format", "json", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: malformed {flag} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("aspects,why", [
        ("0,4;2,3;0,4", "exact aspects have different total degrees [4, 5]"),
        ("gen;gen", "no exact aspect fixes the total degree"),
    ])
    def test_total_degree_diagnostic(self, capsys, fmt, aspects, why):
        code, out, err = run(capsys, "--format", fmt, "chain", "min-h0", "--aspects", aspects)
        assert code == 2
        assert out == ""
        assert err == f"error: malformed --aspects {aspects!r}: {why}\n"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_internal_check_failure_exits_3(self, capsys, monkeypatch, fmt):
        def broken(*args, **kwargs):
            raise InternalCheckError("x")

        monkeypatch.setattr(chain, "vanishing_tables", broken)
        code, out, err = run(capsys, "--format", fmt, "chain", "tables",
                             "--aspects", "0,4;2,2;0,4", "-r", "2")
        assert code == 3
        assert out == ""
        assert err == "internal invariant violation: x\n"

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv,named", [
        (["chain", "tables", "--aspects", "0,4;2,2;0,4", "-r", "-1"], "r=-1"),
        (["chain", "star", "--aspects", "0,4;2,2;0,4", "-r", "-1"], "r=-1"),
        (["chain", "search", "-g", "3", "-r", "-1", "-d", "4"], "r=-1"),
        (["splitting", "maximal", "-g", "8", "-r", "2", "-d", "7", "-k", "1"], "k=1"),
        (["hilbert", "-g", "5", "-r", "3", "-d", "1", "-k", "1"], "rho"),
        (["splitting", "maximal", "-g", "8", "-r", "-1", "-d", "2", "-k", "4"], "r=-1"),
        (["loci", "dual", "-g", "8", "-r", "-1", "-d", "2"], "r=-1"),
        (["splitting", "rd", "-g", "-4", "-e=0,0"], "g=-4"),
        (["splitting", "rho", "-g", "-4", "-e=0,0"], "g=-4"),
    ])
    def test_out_of_domain_index_is_a_precondition_error(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and named in err

    def test_listing_past_the_hit_guard_is_refused(self, capsys):
        code, out, err = run(capsys, "chain", "search", "-g", "6", "-r", "3", "-d", "10",
                             "--witnesses")
        assert code == 2
        assert out == ""
        assert err == f"error: listing refused: 1827904 hits (guard {chain._MAX_HITS})\n"

    def test_kfill_listing_past_the_hit_guard_is_refused(self, capsys):
        argv = ["kfill", "--core", "5,5,5,5", "-k", "20", "-g", "20"]
        assert run(capsys, *argv) == (0, "kfill  core=5,5,5,5 k=20 g=20\n  count = 1662804", "")
        code, out, err = run(capsys, *argv, "--witnesses")
        assert code == 2
        assert out == ""
        assert err == f"error: listing refused: 1662804 fillings (guard {chain._MAX_HITS})\n"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("argv", ["syt --rows 60 --cols 60", "count -g 14400 -r 1 -d 7201"])
    def test_answer_past_the_digit_limit_is_refused(self, capsys, argv, fmt):
        # both answers have more digits than int -> str allows (4,300 by default)
        code, out, err = run(capsys, "--format", fmt, *argv.split())
        assert code == 2
        assert out == ""
        assert err == f"error: the answer has more than {sys.get_int_max_str_digits()} digits\n"

    def test_predicates_take_the_rank_from_the_type(self, capsys):
        env = run_json(capsys, "splitting", "predicates", "-e=0,0,0")
        assert env["inputs"] == {"e": "0,0,0"}
        assert env["result"] == {"basepoint_free": True, "very_ample_sufficient": False}
        code, _, err = run(capsys, "splitting", "predicates", "-e=0,0,0", "-r", "3")
        assert code == 2
        assert "unrecognized arguments: -r 3" in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_aspects_echo_in_canonical_form(self, capsys, fmt):
        argv = ["chain", "min-h0", "--aspects", "[0,4; 2,2; 0,4]"]
        code, out, _ = run(capsys, "--format", fmt, *argv)
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["inputs"] == {"aspects": "0,4;2,2;0,4", "window": 4}
        else:
            assert out.splitlines()[0] == "chain min-h0  aspects=0,4;2,2;0,4 window=4"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_splitting_type_echoes_as_typed(self, capsys, fmt):
        # the type is read in ascending order, but echoed as the user typed it
        code, out, _ = run(capsys, "--format", fmt, "splitting", "rd", "-g", "5", "-e=1,-2,-2")
        assert code == 0
        if fmt == "json":
            env = json.loads(out)
            assert env["inputs"] == {"g": 5, "e": "1,-2,-2"}
            assert env["result"] == {"r": 1, "d": 4}
        else:
            assert out.splitlines()[0] == "splitting rd  g=5 e=1,-2,-2"

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


class TestCommandTable:
    def test_every_serialized_flag_names_one_reader(self):
        # a flag whose value is text (no type, no choices, not a switch) is
        # read by a library function before the command runs; a flag name
        # shared by several commands is read the same way in each
        readers = {}
        for cmd in COMMANDS:
            for flag in cmd.flags:
                text = not {"type", "choices", "action"} & set(flag.spec)
                assert (flag.read is not None) == text, (cmd.name, flag.name)
                if text:
                    assert readers.setdefault(flag.name, flag.read) is flag.read, flag.name
        assert set(readers) == {"--aspects", "--dist", "--core", "-e", "--outer", "--inner",
                                "--degrees"}

    @pytest.mark.parametrize("argv", sorted(TABLE_GOLDENS))
    def test_table_output_is_pinned(self, capsys, argv):
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == TABLE_GOLDENS[argv]

    def test_every_command_has_a_pinned_argv(self):
        pinned = {out.split("  ", 1)[0] for out in TABLE_GOLDENS.values()}
        assert pinned == {cmd.name for cmd in COMMANDS}
        assert len(pinned) == len(COMMANDS)

    @pytest.mark.parametrize("argv", sorted(TABLE_GOLDENS))
    def test_csv_rows_have_as_many_fields_as_the_header(self, capsys, argv):
        assert main(["--format", "csv", *argv.split()]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) >= 2
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_csv_quotes_as_in_rfc_4180(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "kfill", "--core", "4,2,1,1", "-k", "3", "-g", "5",
            "--witnesses",
        )
        assert code == 0
        assert out == 'count,witnesses\n2,"0,1,2,1,0;0,2,1,2,0"'
        assert _csv_cell('say "a,b"') == '"say ""a,b"""'
        assert _csv_cell("a\nb") == '"a\nb"'


_RHO = ["rho", "-g", "8", "-r", "2", "-d", "7"]
#: argvs that are not one valid command, or that a one-command parse must
#: hand to the whole tree: help, no command, unknown words, format spellings
#: that argparse takes but the lookup does not, leftovers and bad values
_EDGE_ARGVS = [
    [], ["-h"], ["--help"], ["chain"], ["chain", "-h"], ["rho", "-h"],
    ["chain", "search", "-h"], ["--format", "json", "splitting", "rd", "--help"],
    ["--format", "xml", *_RHO], ["--fo", "json", *_RHO], ["--format=csv", *_RHO],
    ["--format", "json", "--format", "csv", *_RHO], ["--format"], ["--format", "json"],
    ["frobnicate", "-g", "1"], ["chain", "frobnicate"], ["chain", "search rho"],
    [*_RHO, "--format", "json"], [*_RHO, "--bogus"], [*_RHO, "8"], ["-5", "rho"],
    ["--", *_RHO], ["rho", "-g", "8", "-r", "2"], ["rho", "-g", "x", "-r", "2", "-d", "7"],
    ["chain", "search", "-g", "6", "-r", "1", "-d", "4", "--window"],
    ["chain", "min-h0", "--aspects", "0,4;x"],
    ["nb", "modify", "--degrees", "2,1", "--summand", "0", "--sign", "*", "--points", "1"],
]


def _count_parsers(monkeypatch):
    """Count the ``argparse.ArgumentParser``s built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


class TestOneCommandParser:
    @pytest.mark.parametrize("argv", [
        *(["--format", fmt, *argv.split()] for argv in sorted(TABLE_GOLDENS)
          for fmt in ("table", "json", "csv")),
        *_EDGE_ARGVS,
    ], ids=repr)
    def test_same_bytes_and_code_as_the_whole_tree(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        one = run(capsys, *argv)
        monkeypatch.setattr(cli, "_named", lambda argv: None)
        assert one == run(capsys, *argv)

    @pytest.mark.parametrize("argv", sorted(TABLE_GOLDENS))
    def test_one_command_builds_at_most_three_parsers(self, capsys, monkeypatch, argv):
        build_parser.cache_clear()
        built = _count_parsers(monkeypatch)
        assert main(["--format", "json", *argv.split()]) == 0
        name = TABLE_GOLDENS[argv].split("  ", 1)[0]
        assert len(built) == 1 + len(name.split(" ")) <= 3  # top, group, leaf

    def test_help_builds_the_whole_tree(self, capsys, monkeypatch):
        build_parser.cache_clear()
        built = _count_parsers(monkeypatch)
        assert main(["-h"]) == 0
        assert len(built) == 1 + len(GROUPS) + len(COMMANDS)
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert all(cmd.name.split(" ")[0] in usage for cmd in COMMANDS)

    def test_json_is_imported_only_for_json_output(self):
        src = str(Path(bnkit.__file__).resolve().parent.parent)
        code = "import bnkit.cli, sys; sys.exit('json' in sys.modules)"
        res = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                             capture_output=True, timeout=60)
        assert res.returncode == 0, res.stderr


# Serialized values: comma lists of tokens, alone or joined by ";" into
# groups, or well-formed aspects.  Tokens are integers of any size or junk,
# and the separators keep integers from running together.  Each flag stays
# bounded at any size: --aspects fixes d, and the chain DP refuses more than
# 10**6 cells before it builds an array; --dist feeds h0_chain, O(g) integer
# steps; -e, --outer/--inner and --degrees are O(length) in the integers;
# --core meets the O(rows) core test first, and with -k <= 9 and at most 4
# rows a k-core's rows are shorter than 4k, so it refuses any larger row.
_INT = st.one_of(st.integers(0, 9), st.integers()).map(str)
_TOKEN = st.one_of(_INT, st.sampled_from(["", " ", "-", "+", "x", "gen", "[", "]"]))
_GROUP = st.lists(_TOKEN, min_size=1, max_size=4).map(",".join)
_ASPECT = st.one_of(st.just("gen"), st.tuples(_INT, _INT).map(",".join))
_VALUE = st.one_of(
    _GROUP,
    st.lists(_GROUP, max_size=4).map(";".join),
    st.lists(_ASPECT, min_size=1, max_size=5).map(";".join),
)
_SMALL = st.integers(-3, 9).map(str)

FUZZED = {
    "--aspects": lambda v, w, n, m: ["chain", "min-h0", f"--aspects={v}"],
    "--aspects -r": lambda v, w, n, m: ["chain", "star", f"--aspects={v}", "-r", n],
    "--dist": lambda v, w, n, m: ["chain", "h0", f"--aspects={w}", f"--dist={v}"],
    "--core": lambda v, w, n, m: ["kfill", f"--core={v}", "-k", n, "-g", m, "--witnesses"],
    "-e": lambda v, w, n, m: ["splitting", "rd", "-g", n, f"-e={v}"],
    "-e predicates": lambda v, w, n, m: ["splitting", "predicates", f"-e={v}"],
    "--outer --inner": lambda v, w, n, m: [
        "splitting", "majorizes", f"--outer={v}", f"--inner={w}"
    ],
    "--degrees": lambda v, w, n, m: [
        "nb", "modify", f"--degrees={v}", "--summand", n, "--sign", "-", "--points", m
    ],
}


class TestFuzzSerializedFlags:
    @pytest.mark.parametrize("flags", sorted(FUZZED))
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(v=_VALUE, w=_VALUE, n=_SMALL, m=_SMALL, fmt=st.sampled_from(["table", "json", "csv"]))
    def test_exit_code_contract(self, flags, v, w, n, m, fmt):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--format", fmt, *FUZZED[flags](v, w, n, m)])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
