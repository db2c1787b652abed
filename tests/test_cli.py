"""CLI surface: exit codes, output formats, schemas, golden handling."""

import json
import os

import pytest

from frobetti.cli import _tail_diff, load_schema, main, validate_output
from frobetti.polyring import parse_poly
from frobetti.resolution import BettiTable, betti_over_R

CYC3 = "x*y^2 + y*z^2 + z*x^2"
CYC4 = "x*y^3 + y*z^3 + z*x^3"


def run(capsys, argv):
    rc = main(argv)
    got = capsys.readouterr()
    return rc, got.out, got.err


# --- argument handling ---


def test_q_not_a_power_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check-compressed", "-p", "5", "-f", CYC3, "-q", "4"])
    assert e.value.code == 2


def test_allow_any_q_overrides(capsys):
    with pytest.warns(RuntimeWarning):
        rc, out, _ = run(
            capsys,
            ["check-compressed", "-p", "5", "-f", CYC3, "-q", "9", "--allow-any-q"],
        )
    assert rc == 0


def test_non_prime_p_rejected(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check-compressed", "-p", "6", "-f", CYC3, "-q", "6"])
    assert e.value.code == 2


def test_math_precondition_is_exit_3(capsys):
    rc, out, err = run(
        capsys, ["betti", "-p", "5", "-f", CYC3, "-q", "5", "--degree-cap", "8"]
    )
    assert rc == 3
    assert "degree_cap" in err


def test_threads_flag_sets_blas_env(capsys, monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    rc, _, _ = run(
        capsys, ["check-compressed", "-p", "5", "-f", CYC3, "-q", "5", "--threads", "2"]
    )
    assert rc == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_random_f_is_echoed_and_reparseable(capsys):
    rc, out, err = run(
        capsys,
        ["check-compressed", "-p", "5", "-f", "random", "-d", "2", "--seed", "1", "-q", "5"],
    )
    assert rc == 0
    echoed = out.splitlines()[0].split("f = ")[1]
    assert parse_poly(echoed, 5, 3).deg == 2


# --- check-compressed ---


def test_check_compressed_table(capsys):
    rc, out, _ = run(capsys, ["check-compressed", "-p", "5", "-f", CYC3, "-q", "25"])
    assert rc == 0
    assert "q = 25: compressed" in out


def test_check_compressed_json_schema(capsys):
    rc, out, _ = run(
        capsys,
        ["check-compressed", "-p", "5", "-f", CYC3, "-q", "5,25", "--format", "json"],
    )
    assert rc == 0
    obj = json.loads(out)
    assert validate_output(obj, load_schema("check-compressed")) == []
    assert [r["verdict"] for r in obj["results"]] == [True, True]


# --- betti ---


def test_betti_grid_matches_library(capsys):
    rc, out, _ = run(capsys, ["betti", "-p", "5", "-f", CYC3, "-q", "5", "--steps", "2"])
    assert rc == 0
    assert betti_over_R(parse_poly(CYC3, 5, 3), 5, 2).to_grid() in out


def test_betti_json_schema(capsys):
    rc, out, _ = run(
        capsys,
        ["betti", "-p", "5", "-f", CYC3, "-q", "5", "--steps", "2", "--format", "json"],
    )
    obj = json.loads(out)
    assert validate_output(obj, load_schema("betti")) == []
    assert obj["tables"][0]["entries"][0] == [0, 0, 1]


def _golden_table(name):
    from importlib import resources

    text = resources.files("frobetti").joinpath(f"golden/{name}.json").read_text()
    return BettiTable.from_json(text)


def test_tail_diff_agrees_after_shift():
    rec = _tail_diff(3, 7, _golden_table("cyc4-q7"), 49, _golden_table("cyc4-q49"))
    assert rec["agree"]
    assert rec["shift"] == 63
    assert "tails equal after shift 63" in rec["detail"]


def test_tail_diff_without_tails_disagrees():
    rec = _tail_diff(3, 5, _golden_table("cyc3-q5"), 25, _golden_table("cyc3-q25"))
    assert not rec["agree"]


def test_tail_diff_refuses_shift_for_n_other_than_3():
    rec = _tail_diff(4, 7, _golden_table("cyc4-q7"), 49, _golden_table("cyc4-q49"))
    assert not rec["agree"] and rec["shift"] == 0
    assert "n = 3 only" in rec["detail"]


def test_betti_four_variables_prints_tables_without_shift(capsys):
    rc, out, _ = run(
        capsys, ["betti", "-p", "2", "-n", "4", "-f", "x*y+z*w", "-q", "2,4", "--steps", "6"]
    )
    assert rc == 0
    assert "q = 2\n" in out and "q = 4\n" in out
    assert "tails differ" not in out
    assert "q = 2 vs q = 4: the shift 3(q1-q0)/2 holds for n = 3 only (got n=4)" in out


# --- reproduce-examples ---


def test_reproduce_single_case(capsys):
    rc, out, _ = run(capsys, ["reproduce-examples", "--only", "cyc3-q5"])
    assert rc == 0
    assert "cyc3-q5: ok" in out
    assert "1/1 ok" in out


def test_reproduce_unknown_case_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["reproduce-examples", "--only", "nope"])
    assert e.value.code == 2


def _write_corpus(dirpath, grid_text, json_text):
    case = {"name": "tiny", "p": 5, "n": 3, "f": CYC3, "q": 5, "steps": 2}
    (dirpath / "cases.json").write_text(json.dumps([case]))
    (dirpath / "tiny.txt").write_text(grid_text)
    (dirpath / "tiny.json").write_text(json_text)


def test_reproduce_env_dir_pass(tmp_path, monkeypatch, capsys):
    tab = betti_over_R(parse_poly(CYC3, 5, 3), 5, 2)
    _write_corpus(tmp_path, tab.to_grid(), tab.to_json() + "\n")
    monkeypatch.setenv("FROBETTI_GOLDEN_DIR", str(tmp_path))
    rc, out, _ = run(capsys, ["reproduce-examples"])
    assert rc == 0
    assert "tiny: ok" in out


def test_reproduce_mismatch_names_case_exit_4(tmp_path, monkeypatch, capsys):
    tab = betti_over_R(parse_poly(CYC3, 5, 3), 5, 2)
    _write_corpus(tmp_path, "wrong grid\n", tab.to_json() + "\n")
    monkeypatch.setenv("FROBETTI_GOLDEN_DIR", str(tmp_path))
    rc, out, _ = run(capsys, ["reproduce-examples", "--format", "json"])
    assert rc == 4
    obj = json.loads(out)
    assert validate_output(obj, load_schema("reproduce-examples")) == []
    assert obj["cases"][0] == {"name": "tiny", "ok": False, "detail": "grid mismatch"}


def test_reproduce_corrupt_golden_named(tmp_path, monkeypatch, capsys):
    tab = betti_over_R(parse_poly(CYC3, 5, 3), 5, 2)
    _write_corpus(tmp_path, tab.to_grid(), "{not json")
    monkeypatch.setenv("FROBETTI_GOLDEN_DIR", str(tmp_path))
    rc, out, _ = run(capsys, ["reproduce-examples"])
    assert rc == 4
    assert "tiny: FAIL (golden file unreadable" in out


# --- socle / hk / pfaffian-check / ledger ---


def test_socle_json_schema(capsys):
    rc, out, _ = run(capsys, ["socle", "-p", "5", "-f", CYC3, "-q", "5", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert validate_output(obj, load_schema("socle")) == []
    assert obj["results"][0]["agree"] is True


def test_hk_json_values(capsys):
    rc, out, _ = run(
        capsys, ["hk", "-p", "7", "-f", CYC4, "-q", "7", "--series", "--format", "json"]
    )
    assert rc == 0
    obj = json.loads(out)
    assert validate_output(obj, load_schema("hk")) == []
    rec = obj["results"][0]
    assert rec["direct"] == 142
    assert rec["formula"] == "142"
    assert rec["agrees"] is True
    assert rec["series_check"] is True


def test_pfaffian_check_certifies(capsys):
    rc, out, _ = run(capsys, ["pfaffian-check", "-p", "7", "-f", CYC4, "-q", "7"])
    assert rc == 0
    assert "Pfaffian certificate: yes" in out


def test_pfaffian_check_reports_missing_tail(capsys):
    rc, out, _ = run(
        capsys,
        ["pfaffian-check", "-p", "5", "-f", "x^4 + y^4 + z^4", "-q", "25", "--format", "json"],
    )
    assert rc == 0
    obj = json.loads(out)
    assert validate_output(obj, load_schema("pfaffian-check")) == []
    assert obj["results"][0]["tail"]["found"] is False
    assert obj["results"][0]["certified"] is None


def test_ledger_json_schema(capsys):
    rc, out, _ = run(capsys, ["ledger", "-p", "5", "-f", CYC3, "-q", "5", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert validate_output(obj, load_schema("ledger")) == []
    assert obj["contained"] is True
    assert obj["m"] == 5  # ceil(s/2) for s = 9


def test_ledger_respects_m(capsys):
    rc, out, _ = run(capsys, ["ledger", "-p", "5", "-f", CYC3, "-q", "5", "-m", "10"])
    assert rc == 0
    assert "m = 10" in out


# --- output determinism and validator ---


def test_stdout_is_deterministic(capsys):
    argv = ["betti", "-p", "5", "-f", CYC3, "-q", "5", "--steps", "2", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_validator_flags_problems():
    schema = load_schema("hk")
    assert validate_output({"kind": "hk"}, schema) != []  # missing keys
    good = {"kind": "hk", "p": 7, "n": 3, "f": "x", "results": []}
    assert validate_output(good, schema) == []
    assert validate_output({**good, "extra": 1}, schema) != []
    assert validate_output({**good, "p": "7"}, schema) != []
    assert validate_output({**good, "p": True}, schema) != []  # bool is not integer


def test_socle_computes_each_link_profile_once(capsys, monkeypatch):
    from frobetti import linkage

    calls = []
    profile = linkage.measured_generator_profile

    def counted(*args, **kw):
        calls.append(args[1])
        return profile(*args, **kw)

    monkeypatch.setattr(linkage, "measured_generator_profile", counted)
    rc, out, _ = run(
        capsys, ["socle", "-p", "5", "-f", "random", "-d", "2", "--seed", "1", "-q", "5,25"]
    )
    assert rc == 0
    assert sorted(calls) == [5, 25]
    assert out == (
        "p = 5  n = 3  f = 4*x*y + y*z + 3*z^2\n"
        "q = 5: direct {6: 4}  via link {6: 4}  agree\n"
        "q = 25: direct {36: 4}  via link {36: 4}  agree\n"
        "q = 5 vs q = 25: socle shift 30 ok\n"
    )
