import hashlib
import json
import os
import subprocess
import sys

import pytest

import qalcove as qa
from qalcove import alcove, charident, genfun, qbg
from qalcove.cli import main
from qalcove.genfun import TermTable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_chain_lex_empty(capsys):
    code, out = run(capsys, "chain", "lex", "--type", "A2", "--lambda", "0,0")
    assert code == 0
    assert json.loads(out)["roots"] == []


def test_adm_enumerate_worked_example(tmp_path, capsys):
    rs = qa.build_root_system("A2")
    lam = rs.weight([-2, 1])
    roots = (rs.root([0, 1]), rs.root([-1, 0]), rs.root([-1, -1]), rs.root([-1, 0]))
    chain = qa.compute_levels(rs, roots, lam)
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(chain.to_json()))
    code, out = run(
        capsys,
        "adm", "enumerate", "--type", "A2", "--lambda", "-2,1",
        "--w", "s2", "--chain", f"@{path}",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 13  # header + 12 rows


def test_ops_golden(capsys):
    code, out = run(capsys, "ops", "golden", "--type", "G2")
    assert code == 0
    assert "12/12 matrices match" in out


def test_ops_verify_props(capsys):
    code, out = run(capsys, "ops", "verify-props", "--type", "C2", "--k", "2")
    assert code == 0 and "ok" in out


def test_gf_eval_json(capsys):
    code, out = run(
        capsys, "gf", "eval", "--type", "A1", "--lambda", "1", "--w", "s1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert {tuple(d["mu"]) for d in data} == {(-1,), (1,)}


def test_generating_function_json_layout(tmp_path, capsys):
    rs = qa.build_root_system("C2")
    for name, lam in (("c1.json", [1, 1]), ("c2.json", [1, 0])):
        (tmp_path / name).write_text(json.dumps(qa.lex_chain(rs, rs.weight(lam)).to_json()))
    commands = (
        ("gf", "eval", "--type", "G2", "--lambda", "1,-1", "--w", "s2", "--xi", "1,-2"),
        ("gf", "compose", "--type", "C2", "--chain1", str(tmp_path / "c1.json"),
         "--chain2", str(tmp_path / "c2.json"), "--w", "s1"),
        ("gf", "ghat", "--type", "A2", "--lambda", "1,1", "--xi", "1,0", "--floor", "-6"),
        ("gf", "ghat", "--type", "C2", "--lambda", "1,1", "--floor", "5"),  # no term
        ("chev", "rhs", "--type", "C2", "--mu", "1,1", "--lambda", "2,1", "--floor", "-8"),
    )
    for argv in commands:
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        items = json.loads(out)
        assert out == json.dumps(items, indent=1) + "\n"
        code, compact = run(capsys, *argv)
        assert code == 0
        assert compact == json.dumps(items) + "\n"
    # the Yang-Baxter sijection report is indented JSON under either format
    argv = ("yb", "sijection", "--type", "C2", "--lambda", "1,1", "--t", "0", "--q", "4", "--w", "s2")
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0 and out == json.dumps(json.loads(out), indent=1) + "\n"
    assert run(capsys, *argv) == (0, out)


def test_chev_vanish(capsys):
    code, out = run(capsys, "chev", "vanish", "--type", "A2", "--lambda", "-1,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case\tresult\tmax_abs_qexp\tseconds"
    assert len(lines) == 7 and all("zero" in l for l in lines[1:])


def test_usage_errors(capsys, tmp_path):
    code, _ = run(capsys, "adm", "enumerate", "--type", "A2", "--w", "s2")
    assert code == 2
    code, _ = run(capsys, "chain", "lex", "--type", "ZZ9", "--lambda", "1")
    assert code == 2
    code, _ = run(capsys, "gf", "eval", "--type", "X9", "--lambda", "1")
    assert code == 2
    code, _ = run(capsys, "gf", "eval", "--type", "G2", "--lambda", "1,1,1")
    assert code == 2
    code, _ = run(capsys, "gf", "eval", "--type", "G2", "--lambda", "1,1", "--w", "s9")
    assert code == 2
    code, _ = run(capsys, "chain", "lex", "--type", "A2", "--lambda", "1,-1")
    assert code == 2
    code, _ = run(capsys, "ops", "matrix", "--type", "A2", "--seq", "2,0")
    assert code == 2
    code, _ = run(capsys, "suite", "all", "--workers", "2")
    assert code == 2
    # --type fixes the rank, so there is no --rank option
    code, _ = run(capsys, "gf", "eval", "--type", "A2", "--rank", "2", "--lambda", "1,1")
    assert code == 2
    # a non-integer weight, index or translation is a usage error, not a failed check
    for argv in (
        ("chain", "lex", "--type", "A2", "--lambda", "a,1"),
        ("adm", "stats", "--type", "A2", "--lambda", "1,1", "--indices", "x"),
        # an index set that is no admissible subset
        ("adm", "stats", "--type", "C2", "--lambda", "2,1", "--indices", "1,3"),
        ("gf", "eval", "--type", "A2", "--lambda", "1,1", "--xi", "1,q"),
    ):
        code, out = run(capsys, *argv)
        assert (code, out) == (2, "")
    # an integer list with an empty item is a usage error; --indices "" is
    # the empty subset
    for argv in (
        ("gf", "eval", "--type", "A2", "--lambda", "1,,0"),
        ("gf", "eval", "--type", "A2", "--lambda", ",1,0"),
        ("gf", "eval", "--type", "A2", "--lambda", "1,0,"),
        ("gf", "eval", "--type", "A2", "--lambda", "1,0", "--xi", "1,,0"),
        ("adm", "stats", "--type", "A2", "--lambda", "1,1", "--indices", "1,,2"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err == f"usage error: not a comma-separated list of integers: {argv[-1]!r}\n"
    code, out = run(capsys, "adm", "stats", "--type", "A2", "--lambda", "1,1", "--indices", "")
    assert code == 0 and out
    # a --w that is not a word names its text, as a usage error, also one
    # with an empty part between or after its s's
    for argv, text in (
        (("gf", "eval", "--type", "A2", "--lambda", "1,0", "--w", "x"), "x"),
        (("adm", "enumerate", "--type", "G2", "--lambda", "1,-2", "--w", "s2s1x"), "s2s1x"),
        (("adm", "enumerate", "--type", "A2", "--lambda", "1,0", "--w", "s"), "s"),
        (("adm", "enumerate", "--type", "A2", "--lambda", "1,0", "--w", "ss"), "ss"),
        (("gf", "eval", "--type", "A2", "--lambda", "1,0", "--w", "s1s"), "s1s"),
        (("gf", "eval", "--type", "A2", "--lambda", "1,0", "--w", "s1ss2"), "s1ss2"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"usage error: not a Weyl word: {text!r}\n")
    # positions that are no Yang-Baxter segment of the chain, in or out of range
    for action in ("apply", "sijection"):
        for t, q in (("9", "3"), ("-1", "3"), ("0", "2")):
            argv = ("yb", action, "--type", "A2", "--lambda", "2,1", "--t", t, "--q", q)
            assert run(capsys, *argv) == (2, "")
    # chain transform at positions that hold no segment or no (beta, -beta) pair
    for extra in (("--t", "9", "--q", "3"), ("--t", "0", "--q", "2"), ("--delete", "7")):
        argv = ("chain", "transform", "--type", "A2", "--lambda", "2,1") + extra
        assert run(capsys, *argv) == (2, "")
    # --seed belongs to suite only, and --format has no dot choice
    for argv in (
        ("gf", "eval", "--type", "A2", "--lambda", "1,0", "--seed", "99"),
        ("qbg", "export", "--type", "A2", "--format", "dot"),
    ):
        assert run(capsys, *argv) == (2, "")
    # verify-props outside rank 2 or outside 0..q
    for argv in (
        ("ops", "verify-props", "--type", "A3"),
        ("ops", "verify-props", "--type", "G2", "--k", "9"),
        ("ops", "verify-props", "--type", "G2", "--k", "-1"),
    ):
        assert run(capsys, *argv) == (2, "")
    # a chain file is read only under its own type, and names both types
    a2 = qa.build_root_system("A2")
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(qa.segment_chain(a2, a2.weight([1, -1])).to_json()))
    for argv in (
        ("gf", "eval", "--type", "A1xA1", "--chain", str(path)),
        ("chain", "validate", "--type", "A1xA1", "--chain", str(path)),
        ("gf", "compare", "--type", "C2", "--chain1", str(path), "--chain2", str(path)),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith("usage error: chain file has type A2, not ")
    # an option that the action never reads is named, not ignored
    for argv, flag in (
        (("gf", "eval", "--type", "A1", "--lambda", "1", "--chain1", "nofile.json"), "--chain1"),
        (("adm", "enumerate", "--type", "A2", "--lambda", "1,0", "--indices", "1"), "--indices"),
        (("chain", "lex", "--type", "A2", "--lambda", "1,0", "--t", "3"), "--t"),
        (("yb", "segments", "--type", "A2", "--lambda", "1,1", "--t", "0", "--w", "s1"), "--w"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err == f"usage error: {argv[0]} {argv[1]} does not take {flag}\n"


# a value for each option, by argparse dest
OPTION_VALUES = {
    "lam": ("--lambda", "1,0"), "chain": ("--chain", "c.json"), "t": ("--t", "1"),
    "q": ("--q", "1"), "delete": ("--delete", "1"), "indices": ("--indices", "1"),
    "w": ("--w", "s1"), "seq": ("--seq", "1,0"), "k": ("--k", "1"),
    "floor": ("--floor", "1"), "chain1": ("--chain1", "a.json"),
    "chain2": ("--chain2", "b.json"), "xi": ("--xi", "1,0"), "mu": ("--mu", "1,0"),
}


def test_every_unread_option_is_usage_error(capsys):
    # each option in the table, given to its action with everything the
    # action requires, is a usage error that names it, before any file is read
    from qalcove.cli import _UNREAD

    for (command, action), names in _UNREAD.items():
        required = ()
        if action in ("compare", "compose"):
            required = ("--chain1", "a.json", "--chain2", "b.json")
        elif command == "chev":
            required = ("--lambda", "-1,0")
        for name in names:
            flag, value = OPTION_VALUES[name]
            argv = [command, action, "--type", "A2", flag, value, *required]
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), argv
            assert captured.err == f"usage error: {command} {action} does not take {flag}\n", argv


def test_chev_without_mu_is_usage_error(capsys):
    # --mu has no default, so a missing one is named, not read as an empty weight
    for action in ("rhs", "factor"):
        _missing_option(capsys, ("chev", action, "--type", "A2", "--lambda", "1,0"), "--mu")


def test_chev_invalid_mu_or_chain_is_usage_error(tmp_path, capsys):
    # a --mu that is not dominant, or a --chain for another lambda, is bad
    # input, not a failed check
    rs = qa.build_root_system("A2")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(qa.lex_chain(rs, rs.weight([2, 1])).to_json()))
    cases = (
        (("chev", "rhs", "--type", "A2", "--mu", "-1,0", "--lambda", "1,0"),
         "chev rhs needs a dominant --mu"),
        (("chev", "factor", "--type", "A2", "--mu", "1,-1", "--lambda", "-1,1"),
         "chev factor needs a dominant --mu"),
        (("chev", "rhs", "--type", "A2", "--mu", "1,0", "--lambda", "1,0", "--chain", str(path)),
         "the --chain file is a chain for lambda 2,1, not --lambda 1,0"),
    )
    for argv, message in cases:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"usage error: {message}\n"), argv
    # the API keeps its ValueError for both
    x = qa.AffineWeylElt(rs.identity, qa.Coroot((0, 0)))
    chain = qa.lex_chain(rs, rs.weight([1, 0]))
    for mu, lam in (([-1, 0], [1, 0]), ([1, 0], [2, 1])):
        with pytest.raises(ValueError):
            charident.rhs_chevalley(rs, rs.weight(mu), rs.weight(lam), chain, x, -4)


def test_ops_options_only_where_read(capsys):
    # matrix needs --seq; --seq belongs to matrix and --k to verify-props
    # only, so no other action accepts and ignores them
    cases = (
        (("ops", "matrix", "--type", "C2"), "ops matrix needs --seq"),
        (("ops", "matrix", "--type", "C2", "--seq", "1,0", "--k", "1"), "--k"),
        (("ops", "yang-baxter", "--type", "A2", "--seq", "1,0"), "--seq"),
        (("ops", "yang-baxter", "--type", "A2", "--k", "1"), "--k"),
        (("ops", "verify-props", "--type", "C2", "--seq", "1,0"), "--seq"),
        (("ops", "golden", "--type", "G2", "--seq", "1,0"), "--seq"),
        (("ops", "golden", "--type", "G2", "--k", "2"), "--k"),
    )
    for argv, named in cases:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith("usage error: ") and named in captured.err


def _missing_option(capsys, argv, flag):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"usage error: {argv[0]} {argv[1]} needs {flag}\n"


def test_chain_lex_without_lambda_is_usage_error(capsys):
    _missing_option(capsys, ("chain", "lex", "--type", "A2"), "--lambda")


def test_gf_compare_without_chains_is_usage_error(capsys):
    _missing_option(capsys, ("gf", "compare", "--type", "A2", "--lambda", "1,0"), "--chain1")


def test_gf_compose_without_chains_is_usage_error(tmp_path, capsys):
    _missing_option(capsys, ("gf", "compose", "--type", "A2"), "--chain1")
    rs = qa.build_root_system("A2")
    path = tmp_path / "c1.json"
    path.write_text(json.dumps(qa.lex_chain(rs, rs.weight([1, 0])).to_json()))
    _missing_option(capsys, ("gf", "compose", "--type", "A2", "--chain1", str(path)), "--chain2")


def test_chev_without_lambda_is_usage_error(capsys):
    for action in ("rhs", "vanish", "factor"):
        _missing_option(capsys, ("chev", action, "--type", "A2", "--mu", "1,0"), "--lambda")


def test_ops_golden_names_covered_types(capsys):
    # a type without golden data is a usage error, not a vacuous 0/0 pass
    for label in ("A2", "A3"):
        code = main(["ops", "golden", "--type", label])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "golden data covers C2, G2" in captured.err


def test_yb_invalid_chain_file_is_failed_check(tmp_path, capsys):
    # a chain that fails validation stays a failed check, also in yb
    rs = qa.build_root_system("A2")
    data = qa.lex_chain(rs, rs.weight([2, 1])).to_json()
    data["levels"] = [l + 1 for l in data["levels"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for action in ("apply", "sijection"):
        argv = ("yb", action, "--type", "A2", "--chain", f"@{path}", "--t", "0", "--q", "3")
        assert run(capsys, *argv) == (1, "")


def test_shell_check_rank3(capsys):
    # reflection orders from reduced words of w0, paths counted by the sweep
    for label in ("B3", "C3"):
        code, out = run(capsys, "qbg", "shell-check", "--type", label)
        assert (code, out) == (0, "orders=42 pairs=2304 violations=0\n")


def test_shell_check_bfs_once_per_element(capsys, monkeypatch):
    # the distance table is built once per root system, not once per order
    rs = qa.build_root_system("A3")
    monkeypatch.setattr(rs, "_distances", None)
    calls = []
    bfs = qbg._bfs
    monkeypatch.setattr(qbg, "_bfs", lambda rs, s: calls.append(s) or bfs(rs, s))
    code, out = run(capsys, "qbg", "shell-check", "--type", "A3")
    assert (code, out) == (0, "orders=16 pairs=576 violations=0\n")
    assert sorted(calls) == list(range(24))


def test_adm_stats_without_indices_is_usage_error(capsys):
    # a missing --indices is named; an explicit empty one is the empty subset
    base = ("adm", "stats", "--type", "A2", "--lambda", "1,1")
    _missing_option(capsys, base, "--indices")
    code, out = run(capsys, *base, "--indices", "")
    assert (code, out.splitlines()[1]) == (0, "{}\t1,1\te\t0,0\t0\t0")


def test_yb_sijection_tsv_is_usage_error(capsys):
    # the report is JSON only, so an explicit --format tsv is refused
    argv = ["yb", "sijection", "--type", "A2", "--lambda", "2,1", "--t", "0", "--q", "3", "--format", "tsv"]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "usage error: yb sijection has no TSV output\n"


def test_chev_vanish_sweeps_support_once_per_element(capsys, monkeypatch):
    # the vanishing check and the max_abs_qexp column share one support sweep
    calls = []
    support = alcove.admissible_support

    def counted(chain, w):
        calls.append(w.index)
        return support(chain, w)

    monkeypatch.setattr(alcove, "admissible_support", counted)
    monkeypatch.setattr(charident, "admissible_support", counted)
    code, out = run(capsys, "chev", "vanish", "--type", "G2", "--lambda", "-2,-1")
    assert code == 0 and len(out.splitlines()) == 13
    assert sorted(calls) == list(range(12))


def test_adm_stats_rejects_non_subsets(capsys):
    base = ("adm", "stats", "--type", "A2", "--lambda", "1,1", "--indices")
    for bad in ("-1", "0", "5", "1,1", "2,3,2"):
        code, out = run(capsys, *base, bad)
        assert (code, out) == (2, "")
    # an index set of the chain that is not admissible is bad input too
    code, out = run(capsys, *base, "1,2", "--w", "s1s2s1")
    assert (code, out) == (2, "")


def test_chev_vanish_mixed_sign_is_usage_error(capsys):
    code = main(["chev", "vanish", "--type", "A2", "--lambda", "1,-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "usage error: lex chains need a dominant or antidominant weight" in captured.err


def test_chev_vanish_dominant_or_zero_is_usage_error(capsys):
    # the vanishing sums are defined for antidominant nonzero lambda only
    for lam in ("1,1", "0,0"):
        code = main(["chev", "vanish", "--type", "C2", "--lambda", lam])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "usage error: chev vanish needs an antidominant nonzero --lambda" in captured.err


def test_format_only_where_read(capsys):
    # qbg and ops print text only and take no --format
    for argv in (
        ("qbg", "export", "--type", "A1", "--format", "json"),
        ("ops", "yang-baxter", "--type", "A2", "--format", "json"),
        ("ops", "golden", "--type", "C2", "--format", "tsv"),
    ):
        assert run(capsys, *argv) == (2, "")
    # chain validate and chev vanish|factor take --format tsv but not json
    validate = ("chain", "validate", "--type", "A2", "--lambda", "1,1")
    vanish = ("chev", "vanish", "--type", "A2", "--lambda", "-1,0")
    factor = ("chev", "factor", "--type", "A2", "--mu", "1,1", "--lambda", "-1,1", "--floor", "-5")
    for argv in (validate, vanish, factor):
        code, out = run(capsys, *argv, "--format", "tsv")
        assert code == 0 and out
        code = main([*argv, "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "has no JSON output" in captured.err


def test_repeated_main_calls_in_one_process(capsys):
    # main builds its parser once; later calls must print the same bytes and
    # return the same codes as the first ones
    calls = (
        ("gf", "eval", "--type", "C2", "--lambda", "1,1", "--w", "s1", "--xi", "1,-1", "--format", "json"),
        ("gf", "ghat", "--type", "A2", "--lambda", "1,1", "--xi", "1,0", "--floor", "-6", "--format", "json"),
        ("chev", "rhs", "--type", "C2", "--mu", "1,1", "--lambda", "2,1", "--floor", "-8"),
        ("gf", "eval", "--type", "A2", "--lambda", "1,0", "--seed", "99"),
        ("gf", "eval", "--type", "C2", "--lambda", "1,1", "--w", "s1", "--xi", "1,-1"),
    )
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _ in first] == [0, 0, 0, 2, 0]
    assert all(out for code, out in first if code == 0)
    for _ in range(2):
        assert [run(capsys, *argv) for argv in calls] == first


def test_corrupt_chain_fails_validation(tmp_path, capsys):
    # a well-formed file whose roots are not a chain is a failed check, not misuse
    rs = qa.build_root_system("A2")
    data = qa.lex_chain(rs, rs.weight([1, 1])).to_json()
    data["roots"] = data["roots"][::-1]
    del data["levels"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _ = run(capsys, "chain", "validate", "--type", "A2", "--chain", str(path))
    assert code == 1
    # a vector that is not a root is likewise a bad chain file, not misuse
    data = qa.lex_chain(rs, rs.weight([1, 1])).to_json()
    data["roots"][0] = [2, 0]
    path.write_text(json.dumps(data))
    code, _ = run(capsys, "chain", "validate", "--type", "A2", "--chain", str(path))
    assert code == 1
    # a transform of a chain file that fails validation is a failed check too
    code, _ = run(capsys, "chain", "transform", "--type", "A2", "--chain", str(path), "--delete", "0")
    assert code == 1


def test_malformed_chain_file_is_a_chain_error(tmp_path, capsys):
    # a chain file that lacks a field or is not JSON raises ChainError naming
    # the field or the parse error, and fails as a bad chain file does
    rs = qa.build_root_system("A2")
    data = qa.lex_chain(rs, rs.weight([1, 1])).to_json()
    del data["lambda"]
    path = tmp_path / "bad.json"
    for text, message in (
        (json.dumps(data), "chain file has no 'lambda' field"),
        ("{", "chain file is not JSON: Expecting property name"),
        ("[]", "chain file does not hold a JSON object"),
    ):
        path.write_text(text)
        with pytest.raises(qa.ChainError, match=message):
            qa.LambdaChain.load(str(path), rs)
        assert main(["chain", "validate", "--type", "A2", "--chain", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"verification error: {message}")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("lambda", "ab", "chain file field 'lambda' is not a list of 2 integers"),
        ("roots", [1, 2], "chain file field 'roots' is not a list of lists of 2 integers"),
        ("lambda", [1, 1, 0], "chain file field 'lambda' is not a list of 2 integers"),
        ("type", ["A2"], "chain file field 'type' is not a string"),
    ],
)
def test_misshapen_chain_field_is_a_usage_error(tmp_path, capsys, field, value, message):
    # a field of the wrong JSON shape is unusable input: ChainError naming the
    # field, reported by the CLI as a usage error (exit 2), as a chain file
    # of another type is
    rs = qa.build_root_system("A2")
    data = qa.lex_chain(rs, rs.weight([1, 1])).to_json()
    data[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(qa.ChainError, match=message):
        qa.LambdaChain.load(str(path), rs)
    assert main(["chain", "validate", "--type", "A2", "--chain", str(path)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_deterministic_reports(capsys):
    args = ("yb", "segments", "--type", "A2", "--lambda", "1,1")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_qbg_export(capsys):
    code, out = run(capsys, "qbg", "export", "--type", "A2")
    assert code == 0 and out.startswith("digraph")


def test_adm_stats_single_set(capsys):
    code, out = run(
        capsys, "adm", "stats", "--type", "A1", "--lambda", "1",
        "--w", "s1", "--indices", "1",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split("\t")
    assert row == ["{1}", "1", "e", "1", "1", "0"]


def test_chain_transform_and_delete(tmp_path, capsys):
    code, out = run(capsys, "chain", "lex", "--type", "A2", "--lambda", "1,0")
    chain_file = tmp_path / "c.json"
    chain_file.write_text(out)
    code, out = run(
        capsys, "chain", "validate", "--type", "A2", "--chain", str(chain_file)
    )
    assert code == 0 and "reduced" in out
    code, out = run(
        capsys, "yb", "segments", "--type", "A2", "--chain", str(chain_file)
    )
    assert code == 0
    # insert via the library, delete via the CLI: the round trip is the chain
    rs = qa.build_root_system("A2")
    chain = qa.LambdaChain.load(str(chain_file))
    inserted = qa.insert_pair(chain, 1, rs.highest_root)
    chain_file.write_text(json.dumps(inserted.to_json()))
    code, out = run(
        capsys, "chain", "transform", "--type", "A2", "--chain", str(chain_file), "--delete", "1"
    )
    assert code == 0 and json.loads(out) == chain.to_json()


def test_gf_compare_and_compose(tmp_path, capsys):
    rs = qa.build_root_system("A2")
    c1 = qa.lex_chain(rs, rs.weight([1, 0]))
    c2 = qa.segment_chain(rs, rs.weight([1, 0]))
    f1, f2 = tmp_path / "c1.json", tmp_path / "c2.json"
    f1.write_text(json.dumps(c1.to_json()))
    f2.write_text(json.dumps(c2.to_json()))
    code, out = run(
        capsys, "gf", "compare", "--type", "A2", "--w", "s1",
        "--chain1", str(f1), "--chain2", str(f2),
    )
    assert code == 0 and "equal" in out
    code, out = run(
        capsys, "gf", "compose", "--type", "A2", "--w", "e",
        "--chain1", str(f1), "--chain2", str(f2), "--format", "json",
    )
    assert code == 0 and json.loads(out)


def test_ops_matrix_seq(capsys):
    code, out = run(
        capsys, "ops", "matrix", "--type", "A1", "--seq", "1"
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows == [["1", "Q1"], ["1", "1"]]


def test_ops_matrix_prints_golden_bytes(capsys):
    # a sequence that starts with a negative root needs no --seq=; the
    # printed matrix is the golden file, byte for byte
    from qalcove import qbops

    for item in qbops.load_golden_manifest()[::5]:
        seq = ";".join(",".join(map(str, c)) for c in item["sequence"])
        code, out = run(capsys, "ops", "matrix", "--type", item["type"], "--seq", seq)
        assert code == 0
        assert out.encode("utf-8") == qbops._golden_root().joinpath(item["file"]).read_bytes()


def test_chev_rhs_and_factor(capsys):
    code, out = run(
        capsys, "chev", "rhs", "--type", "A2", "--mu", "1,0",
        "--lambda", "0,1", "--w", "e", "--floor", "-4", "--format", "json",
    )
    assert code == 0 and json.loads(out)
    code, out = run(
        capsys, "chev", "factor", "--type", "A2", "--mu", "1,1",
        "--lambda", "-1,1", "--w", "e", "--floor", "-5",
    )
    assert code == 0 and "holds" in out


@pytest.mark.parametrize("fmt", ("json", "tsv"))
def test_term_outputs_build_no_laurent(capsys, monkeypatch, fmt):
    # G, Ghat and the character expansion go from the sweep to the output
    # as int-keyed tables of {exponent: count} dicts, with no polynomial type
    # beside them, and neither layout goes through the items of to_json
    assert not hasattr(genfun, "Laurent") and not hasattr(qa, "Laurent")
    monkeypatch.setattr(TermTable, "to_json", lambda self: pytest.fail("a term output built its items"))
    for argv in (
        ("gf", "eval", "--type", "C2", "--lambda", "1,1", "--w", "s1", "--xi", "1,-1"),
        ("gf", "ghat", "--type", "G2", "--lambda", "1,0", "--xi", "0,1", "--floor", "-6"),
        ("chev", "rhs", "--type", "A2", "--mu", "1,0", "--lambda", "1,1", "--floor", "-4"),
    ):
        code, out = run(capsys, *argv, "--format", fmt)
        assert code == 0 and len(json.loads(out)) > 1


def test_suite_all_cli(capsys):
    code, out = run(capsys, "suite", "all")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.startswith("PASS")]
    assert len(lines) == 11


def run_closed_pipe(*argv):
    """Run the CLI in a child whose stdout reader is gone before it writes.

    The child's stdout is block-buffered, as by default for a pipe.
    """
    src = os.path.dirname(os.path.dirname(qa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from qalcove.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err.decode()


def test_closed_stdout_pipe(tmp_path):
    # short output: lost at the final flush, the command's own code stays
    assert run_closed_pipe("gf", "eval", "--type", "A1", "--lambda", "1") == (0, "")
    rs = qa.build_root_system("A2")
    for name, lam in (("a.json", [1, 0]), ("b.json", [0, 1])):
        (tmp_path / name).write_text(json.dumps(qa.lex_chain(rs, rs.weight(lam)).to_json()))
    argv = ["gf", "compare", "--type", "A2", "--chain1", str(tmp_path / "a.json"),
            "--chain2", str(tmp_path / "b.json")]
    assert run_closed_pipe(*argv) == (1, "")
    # output beyond the stdout buffer: the command is cut short
    long_out = ["gf", "eval", "--type", "C2", "--lambda", "2,2", "--format", "json"]
    assert run_closed_pipe(*long_out) == (141, "")


def test_debug_traceback(tmp_path, capsys, monkeypatch):
    rs = qa.build_root_system("A2")
    data = qa.lex_chain(rs, rs.weight([1, 1])).to_json()
    data["roots"] = data["roots"][::-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = ["chain", "validate", "--type", "A2", "--chain", str(path)]
    monkeypatch.delenv("QALCOVE_DEBUG", raising=False)
    assert main(argv) == 1
    quiet = capsys.readouterr().err
    assert quiet.startswith("verification error:") and "Traceback" not in quiet
    monkeypatch.setenv("QALCOVE_DEBUG", "1")
    assert main(argv) == 1
    loud = capsys.readouterr().err
    assert loud.startswith("Traceback (most recent call last):")
    assert loud.endswith(quiet)


def test_outdir_names_file_per_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QALCOVE_OUTDIR", str(tmp_path))
    code, lex = run(capsys, "chain", "lex", "--type", "A2", "--lambda", "1,0", "--format", "json")
    assert code == 0
    code, gf = run(capsys, "gf", "eval", "--type", "A1", "--lambda", "1")
    assert code == 0
    # the sijection report is JSON with or without --format json
    code, sij = run(capsys, "yb", "sijection", "--type", "A2", "--lambda", "2,1", "--t", "0", "--q", "3")
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["chain-lex.json", "gf-eval.txt", "yb-sijection.json"]
    assert (tmp_path / "chain-lex.json").read_text(encoding="utf-8") == lex
    assert (tmp_path / "gf-eval.txt").read_text(encoding="utf-8") == gf
    assert (tmp_path / "yb-sijection.json").read_text(encoding="utf-8") == sij


def test_g2_lambda_33_json_is_pinned(capsys):
    # G for G2 at lambda = (3, 3), w = e: 12,101 terms from 55,318 sweep end
    # states, 2.7 MB; the digest was recorded from the tuple-keyed sweep
    code = main(["gf", "eval", "--type", "G2", "--lambda", "3,3", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    digest = "ccd35cd012628a0b976c53ba8fc81cb990cf77d9915be764387f826bff54d282"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        # 15,610 items; Ghat's C2 heads fall on 140 (mu, w) prefixes
        (
            "gf ghat --type C2 --lambda 2,2 --floor -14 --format json",
            "6cdb00f03421dc032a6d3d37727d6782143ede0ceb687f2d2a7bb27fe518a365",
        ),
        # 13,611 items from 100 heads on 92 prefixes that share 10 head sets
        (
            "gf ghat --type G2 --lambda 1,1 --floor -16 --format json",
            "97649f721962d1eb2d2c6497846c8a3210b5275cd77be3113afee4955da76f48",
        ),
    ],
)
def test_large_ghat_json_is_pinned(capsys, argv, digest):
    # the digests were recorded from the per-head convolution
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        # 12,101 items, 1.2 MB
        (
            "gf eval --type G2 --lambda 3,3",
            "b818d3bf1a07ed13fdbc703a27b8c34ac5e1bd0a15d62afa62cc7b808d8c5ab5",
        ),
        # 13,611 items on 92 prefixes that share 10 blocks
        (
            "gf ghat --type G2 --lambda 1,1 --floor -16",
            "6ee6968d34ec90dfa2fa938f96262045a8f81600bef03d55d872df733eab1980",
        ),
        (
            "chev rhs --type C2 --mu 1,1 --lambda 2,1 --floor -8",
            "22c7cb7d2cf40ba1123adf2b6426eaddfed538d6e2f5def94678c79335ca092f",
        ),
    ],
)
def test_default_format_json_is_pinned(capsys, argv, digest):
    # the compact JSON printed without --format; the digests were recorded
    # from the flat {(mu, w, *tail): poly} term table
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
