import json

import pytest

import qalcove as qa
from qalcove.cli import main


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


def test_chev_vanish(capsys):
    code, out = run(capsys, "chev", "vanish", "--type", "A2", "--lambda", "-1,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case\tresult\tmax_abs_qexp\tseconds"
    assert len(lines) == 7 and all("zero" in l for l in lines[1:])


def test_usage_errors(capsys):
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
    # insert + delete round trip via library, transform via CLI
    code, out = run(
        capsys, "yb", "segments", "--type", "A2", "--chain", str(chain_file)
    )
    assert code == 0


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


def test_suite_all_cli(capsys):
    code, out = run(capsys, "suite", "all", "--workers", "2")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.startswith("PASS")]
    assert len(lines) == 11
