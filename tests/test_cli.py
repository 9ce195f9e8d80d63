"""CLI behavior: inputs, outputs, JSON round trips, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zforce import (
    InvariantViolation, cli, family, kernels, numeric_rank, read_matrix, reproduce,
    search, write_graph6, zero_forcing_number,
)
from zforce.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_param_family_path(capsys):
    code, out, _ = run(capsys, "param", "--family", "path", "5",
                       "--rule", "standard")
    assert code == 0
    assert "Z = 1" in out and "{1}" in out


def test_param_pinwheel_psd(capsys):
    code, out, _ = run(capsys, "param", "--family", "pinwheel12", "--rule", "psd")
    assert code == 0 and "Z+ = 3" in out


def test_param_all_min_json_roundtrip(capsys):
    g6 = write_graph6(family("complete", [4]))
    code, out, _ = run(capsys, "param", "--g6", g6, "--all-min", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3
    assert payload["sets"] == [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    assert payload["sets_zero_based"][0] == [0, 1, 2]
    assert json.loads(json.dumps(payload)) == payload


def test_param_certificate(capsys):
    code, out, _ = run(capsys, "param", "--family", "path", "4",
                       "--certificate")
    assert code == 0
    assert "rule standard" in out and "1 1 -> 2" in out


PINWHEEL_CERTIFICATES = {
    "standard": """\
Z = 4  (n = 12, 130 closures)
  {1, 2, 6, 8}
rule standard
initial 1 2 6 8
1 2 -> 3
2 3 -> 5
3 1 -> 4
4 5 -> 7
5 7 -> 9
6 6 -> 10
7 4 -> 12
8 10 -> 11
""",
    "psd": """\
Z+ = 3  (n = 12, 41 closures)
  {1, 2, 6}
rule psd
initial 1 2 6
1 2 -> 3 [3 4 5 7 8 9 10 11 12]
2 3 -> 5 [4 5 7 8 9 10 11 12]
3 1 -> 4 [4 10 11 12]
4 5 -> 7 [7 8 9]
5 6 -> 9 [8 9]
6 6 -> 10 [10 11 12]
7 4 -> 12 [11 12]
8 7 -> 8 [8]
9 10 -> 11 [11]
""",
}


@pytest.mark.parametrize("rule", sorted(PINWHEEL_CERTIFICATES))
def test_param_pinwheel_certificate_text(capsys, rule):
    code, out, _ = run(capsys, "param", "--family", "pinwheel12", "--rule", rule,
                       "--certificate")
    assert code == 0 and out == PINWHEEL_CERTIFICATES[rule]


def test_g6_file_input(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_text(write_graph6(family("cycle", [5])) + "\n")
    code, out, _ = run(capsys, "param", "--g6", str(path))
    assert code == 0 and "Z = 2" in out


def test_edge_list_input(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n2 3\n3 4\n")
    code, out, _ = run(capsys, "param", "--edges", str(path))
    assert code == 0 and "Z = 1" in out


def test_bounds_human_and_json(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "pinwheel12")
    assert code == 0
    assert "P (path cover) = 3" in out and "cc (edge clique cover) = 9" in out
    code, out, _ = run(capsys, "bounds", "--family", "pinwheel12", "--json")
    payload = json.loads(out)
    assert payload["z"] == 4 and payload["zplus"] == 3
    assert payload["lower_mplus"] == 3


def test_os_command(capsys):
    code, out, _ = run(capsys, "os", "--family", "star", "4")
    assert code == 0 and "OS = 4" in out and "Z+ = 1" in out


def _minus_one(ids):
    return [_minus_one(v) if isinstance(v, list) else v - 1 for v in ids]


@pytest.mark.parametrize("argv", [
    ["param", "--family", "path", "3"],
    ["param", "--family", "path", "3", "--all-min"],
    ["param", "--family", "path", "3", "--certificate"],
    ["bounds", "--family", "pinwheel12"],
    ["os", "--family", "mobius_ladder", "8"],
    ["witness", "tree-clique", "--family", "path", "3", "--r", "2"],
    ["witness", "h43"],
])
def test_json_output_is_one_document(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    for key in ("sets", "order", "witnesses"):
        if isinstance(payload.get(key), list):  # witness's "order" is an int
            assert payload[f"{key}_zero_based"] == _minus_one(payload[key])
    if "--certificate" in argv:
        _, text, _ = run(capsys, *argv)
        assert text.endswith("\n".join(payload["certificate"]) + "\n")


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "param", "--g6", "A\x07")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--family", "path", "3", "--workers", "2"),
    ("bounds", "--family", "path", "3", "--search-limit", "30"),
    ("reproduce", "--workers", "2"),
    ("witness", "tree-clique", "--family", "path", "2", "--r", "2",
     "--tol", "1e-6"),
    ("witness", "h43", "--tol", "1e-6"),
    ("param", "--family", "path", "3", "--workers", "2"),
    # the graph comes in through --g6, so the old tree flags are the only fault
    ("witness", "tree-clique", "--g6", "Bg", "--r", "2", "--tree", "Bg"),
    ("witness", "tree-clique", "--g6", "Bg", "--r", "2", "--tree-family", "path", "3"),
])
def test_removed_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    removed = next(a for a in reversed(argv) if a.startswith("--"))
    assert f"unrecognized arguments: {removed}" in capsys.readouterr().err


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_exit_code_bad_max_n(max_n, capsys):
    code, out, err = run(capsys, "reproduce", "--max-n", max_n)
    assert code == 2 and "max_n" in err and out == ""


def test_exit_code_size_guard(capsys):
    code, _, err = run(capsys, "param", "--family", "path", "30")
    assert code == 3 and "refused" in err


def test_os_guard_names_the_refusing_function(capsys):
    code, _, err = run(capsys, "os", "--family", "cycle", "9")
    assert code == 3 and "maximum_os_set refused" in err
    assert "--search-limit" in err


def test_os_ceiling_is_not_lifted_by_search_limit(capsys):
    code, out, err = run(capsys, "os", "--family", "path", "21", "--search-limit", "21")
    assert code == 3 and out == ""
    assert "ceiling 20" in err and "raise it" not in err


def test_all_min_guard_refuses_before_any_search(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        pytest.fail("the Z search ran before the --all-min guard refused")

    monkeypatch.setattr(cli, "zero_forcing_number", no_search)
    code, _, err = run(capsys, "param", "--family", "four_hub_wheel", "4",
                       "--all-min")
    assert code == 3 and "all_minimum_zfs refused" in err


def test_all_min_runs_the_z_search_once(capsys, monkeypatch, cold_memo):
    calls = []
    lex = kernels.first_forcing_lex

    def counted(*args):
        calls.append(args[2])
        return lex(*args)

    monkeypatch.setattr(kernels, "first_forcing_lex", counted)
    code, out, _ = run(capsys, "param", "--family", "pinwheel12", "--rule", "psd",
                       "--all-min")
    assert code == 0 and "Z+ = 3  (n = 12, 41 closures)" in out
    in_cli = list(calls)
    calls.clear()
    search._serial_scan.cache_clear()
    zero_forcing_number(family("pinwheel12"), "psd")
    assert in_cli == calls and calls


def test_exit_code_huge_family_parameter(capsys):
    code, _, err = run(capsys, "param", "--family", "complete", "1000000")
    assert code == 2 and "at most 128" in err


def test_exit_code_huge_tree_clique_witness(capsys):
    code, _, err = run(capsys, "witness", "tree-clique", "--family", "path",
                       "2", "--r", "1000000")
    assert code == 3 and "refused" in err


def test_exit_code_witness_degenerate(capsys):
    code, _, err = run(capsys, "witness", "h43", "--a15-6", "0")
    assert code == 2 and "nonzero" in err


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("flag", ["--a15-6", "--a3-12", "--a3-14"])
def test_exit_code_witness_non_finite(capsys, flag, value):
    # argparse reads a separate "-inf" as an option, so the "=" form is needed
    code, _, err = run(capsys, "witness", "h43", f"{flag}={value}")
    name = flag[2:].replace("-", "_")
    assert code == 2 and err == f"error: free parameter {name} must be finite\n"


@pytest.mark.parametrize("arg", ["--a15-6=1e9", "--a3-12=1e-10"])
def test_witness_small_entry_is_not_called_zero(capsys, arg):
    # the constant entries fall below the pattern tolerance, but are not zero
    code, _, err = run(capsys, "witness", "h43", arg)
    assert code == 2 and "below 1e-09 times the largest entry" in err
    assert "degenerated to zero" not in err


def test_witness_overflowed_entry_is_named(capsys):
    # entries (7,14), (11,14) and (15,14) overflow; the first in reading order
    # is named, not a finite entry that the overflow dwarfs
    code, out, err = run(capsys, "witness", "h43", "--a15-6=1e200", "--a3-14=1e200")
    assert code == 2 and out == ""
    assert err == ("error: entry at row vertex 7, column vertex 14 is not finite; "
                   "pick different free parameters\n")


def test_witness_negative_free_parameters(capsys):
    code, out, _ = run(capsys, "witness", "h43", "--a15-6=-1j", "--a3-12=-1j",
                       "--a3-14=-1j", "--json")
    assert code == 0 and json.loads(out)["rank"] == 3


def test_witness_h43_writes_matrix(tmp_path, capsys):
    out_file = tmp_path / "w.mat"
    code, out, _ = run(capsys, "witness", "h43", "--out", str(out_file),
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3 and payload["nullity"] == 5
    with open(out_file) as fh:
        a = read_matrix(fh)
    assert a.shape == (8, 8) and numeric_rank(a) == 3


@pytest.mark.parametrize("argv, sha256", [
    (("witness", "h43"),
     "53bebf773a3c1c06126dd19b557217cfbee75b861fc71a94a0af68bd727d608b"),
    (("witness", "h43", "--root", "omega-bar"),
     "af1e0c537ceba8d0e6ed410481e310072417ac4a1d0fc867cd03546be86478e3"),
    (("witness", "tree-clique", "--family", "path", "3", "--r", "2"),
     "cb62e1ff406cf68358a21ef7796f56f7db10e3ed4e83324fb901a768beb1b056"),
])
def test_written_witness_is_pinned_byte_for_byte(tmp_path, capsys, argv, sha256):
    out_file = tmp_path / "w.mat"
    code, _, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == sha256


def test_witness_tree_clique_from_graph6(tmp_path, capsys):
    """The tree comes through the shared graph flags, each giving the same P3."""
    g6_file, edge_file = tmp_path / "t.g6", tmp_path / "t.edges"
    g6_file.write_text("Bg\n")
    edge_file.write_text("1 2\n2 3\n")
    out_file = tmp_path / "w.mat"
    runs = []
    for tree in (("--g6", "Bg"), ("--g6", str(g6_file)), ("--edges", str(edge_file)),
                 ("--family", "path", "3")):
        code, out, _ = run(capsys, "witness", "tree-clique", *tree, "--r", "2",
                           "--json", "--out", str(out_file))
        assert code == 0
        runs.append((json.loads(out), out_file.read_bytes()))
    assert runs[0] == runs[1] == runs[2] == runs[3]


def test_witness_tree_clique(capsys):
    code, out, _ = run(capsys, "witness", "tree-clique", "--family",
                       "path", "2", "--r", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3 and payload["nullity"] == 3
    assert payload["psd"] and payload["pattern_exact"]


def test_witness_real_root_rejected(capsys):
    code, _, err = run(capsys, "witness", "h43", "--root", "real")
    assert code == 2 and "3/4" in err


def test_reproduce_only_h43(capsys):
    code, out, _ = run(capsys, "reproduce", "--only", "h43")
    assert code == 0 and out.startswith("PASS h43")


def test_exit_code_reproduce_failure(capsys, monkeypatch):
    def broken(**cap):
        return reproduce.CriterionResult("broken", False, ["forced to fail"])

    monkeypatch.setattr(reproduce, "CRITERIA", reproduce.CRITERIA + (("broken", broken),))
    code, out, _ = run(capsys, "reproduce", "--only", "broken")
    assert code == 1
    assert out == "FAIL broken: forced to fail\nFAILURES: broken\n"


def test_exit_code_invariant_violation(capsys, monkeypatch):
    def violated(g):
        raise InvariantViolation("bounds disagree")

    monkeypatch.setattr(cli, "bounds_report", violated)
    code, out, err = run(capsys, "bounds", "--family", "path", "3")
    assert code == 4 and out == ""
    assert err.startswith("internal invariant violation:")


def test_reproduce_unknown_name(capsys):
    code, _, err = run(capsys, "reproduce", "--only", "nope")
    assert code == 2 and "unknown criteria" in err


def test_reproduce_list(capsys):
    code, out, _ = run(capsys, "reproduce", "--list")
    assert code == 0 and "pinwheel" in out and "h43" in out


def test_family_with_bad_params(capsys):
    code, _, err = run(capsys, "param", "--family", "cycle", "2")
    assert code == 2


@pytest.mark.parametrize("argv, bad", [
    (("param", "--family", "cycle", "x"), "x"),
    (("witness", "tree-clique", "--family", "path", "2.5", "--r", "2"), "2.5"),
])
def test_family_with_non_integer_param(argv, bad, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: invalid literal for int() with base 10: {bad!r}\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_quietly(unbuffered):
    """A reader that closed the pipe is not bad input: no traceback, and
    the exit code a shell gives a writer killed by SIGPIPE."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zforce.cli", "witness", "h43"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
