import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import onefac
from onefac import cli, core, cyclic, docio, families, gf, starters, verify
from onefac.core import MultiFactorization


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_writes_document_and_summary(tmp_path, capsys):
    out = tmp_path / "n9l3.json"
    code, stdout, _ = run_cli(capsys, "construct", "--n", "9",
                              "--lambda", "3", "--out", str(out))
    assert code == 0
    assert "factors=51 valid=true simple=false certificate=proven" in stdout
    mf = docio.read_mf(out)
    assert mf.n == 9 and mf.lam == 3 and len(mf.factors) == 51


def test_construct_document_on_stdout(capsys):
    code, stdout, stderr = run_cli(capsys, "construct", "--n", "5", "--lambda", "2")
    assert code == 0
    doc = docio.parse(stdout)
    assert doc["lambda"] == 2
    assert "certificate=proven" in stderr


def test_construct_t3(tmp_path, capsys):
    out = tmp_path / "t3.json"
    code, stdout, _ = run_cli(capsys, "construct", "--family", "t3",
                              "--p", "5", "--m", "1", "--out", str(out))
    assert code == 0
    assert "factors=10" in stdout and "simple=true" in stdout
    assert docio.read_mf(out).model["tag"] == "field"


@pytest.mark.parametrize("m", ["0", "-1"])
def test_construct_t3_bad_degree_exits_2(m, capsys):
    code, stdout, stderr = run_cli(capsys, "construct", "--family", "t3",
                                   "--p", "3", "--m", m)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


def test_construct_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.json"
    code, stdout, stderr = run_cli(capsys, "construct", "--n", "9",
                                   "--lambda", "3", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


def test_construct_out_of_range_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "construct", "--n", "9", "--lambda", "30")
    assert code == 2 and "no family" in stderr


def test_construct_family_out_of_domain_exits_2(capsys):
    code, _, _ = run_cli(capsys, "construct", "--family", "P1",
                         "--n", "9", "--lambda", "4")
    assert code == 2


def test_verify_passing_checks(tmp_path, capsys):
    out = tmp_path / "t3.json"
    run_cli(capsys, "construct", "--family", "t3", "--p", "5", "--m", "1",
            "--out", str(out))
    code, stdout, _ = run_cli(capsys, "verify", str(out),
                              "--checks", "validity,simple,indecomposable")
    assert code == 0
    report = json.loads(stdout)
    assert report["validity"] == "pass"
    assert report["simple"] == "pass"
    assert report["indecomposable"] == "pass"


def test_verify_decomposable_fails_with_witness(tmp_path, capsys):
    mf = MultiFactorization.make(2, 2, cyclic.lucas_factorization(4) * 2)
    path = tmp_path / "gk4x2.json"
    docio.write_mf(mf, path)
    code, stdout, _ = run_cli(capsys, "verify", str(path),
                              "--checks", "indecomposable")
    assert code == 1
    report = json.loads(stdout)
    assert report["indecomposable"] == "fail"
    assert report["witness"]["lambda0"] == 1


def test_verify_truncated_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format": 1, "model"')
    code, _, stderr = run_cli(capsys, "verify", str(path))
    assert code == 2 and "error" in stderr


def test_verify_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, stdout, stderr = run_cli(capsys, "verify", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


def test_verify_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # Past Python's int conversion limit json.loads raises a plain ValueError;
    # without the limit the document still lacks its other keys.
    path = tmp_path / "huge.json"
    path.write_text('{"format":2,"n":' + "9" * 5000 + "}")
    code, stdout, stderr = run_cli(capsys, "verify", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


def test_verify_unknown_check_exits_2(tmp_path, capsys):
    path = tmp_path / "doc.json"
    mf = MultiFactorization.make(2, 1, cyclic.lucas_factorization(4))
    docio.write_mf(mf, path)
    code, _, _ = run_cli(capsys, "verify", str(path), "--checks", "bogus")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--checks", "bogus"], "unknown checks"),
    (["--checks", ","], "names no check"),
    (["--checks", " "], "names no check"),
    (["--max-nodes", "-1"], "search budget"),
])
def test_verify_checks_its_arguments_before_the_document(argv, message, tmp_path, capsys):
    # Before the document is read, so a broken file reports the bad
    # argument, not its parse error; an empty --checks used to print {}
    # and exit 0 having checked nothing.
    good, broken = tmp_path / "doc.json", tmp_path / "broken.json"
    docio.write_mf(MultiFactorization.make(2, 1, cyclic.lucas_factorization(4)), good)
    broken.write_text('{"format": 3, "model"')
    for path in (good, broken):
        code, stdout, stderr = run_cli(capsys, "verify", str(path), *argv)
        assert code == 2 and stdout == "", path
        assert stderr.startswith("error:") and message in stderr, path


def test_verify_budget_exhaustion_exits_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "doc.json"
    from onefac import families
    docio.write_mf(families.construct(6, 4), path)
    code, stdout, _ = run_cli(capsys, "verify", str(path),
                              "--checks", "indecomposable", "--max-nodes", "5")
    assert code == 4
    report = json.loads(stdout)
    assert report["indecomposable"] == "exhausted"
    assert report["lambda0_exhausted"] == [1, 2]  # both targets of lambda = 4


def test_verify_search_past_the_counter_limit_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gk4x2.json"
    docio.write_mf(MultiFactorization.make(2, 2, cyclic.lucas_factorization(4) * 2), path)
    monkeypatch.setattr(verify, "MAX_COUNTER_BYTES", 5)  # the search needs 6

    def not_reached(mf):
        raise AssertionError("validated a document the search refuses")

    # The size is checked first, in O(1), also with validity asked for.
    monkeypatch.setattr(cli, "validate_factorization", not_reached)
    monkeypatch.setattr(verify, "validate_factorization", not_reached)
    for checks in ("indecomposable", "validity,indecomposable"):
        code, stdout, stderr = run_cli(capsys, "verify", str(path), "--checks", checks)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
        assert "MAX_COUNTER_BYTES" in stderr and "Traceback" not in stderr


def test_construct_plans_once(monkeypatch, capsys):
    calls = []
    real_plan = families.plan

    def counting_plan(n, lam):
        calls.append((n, lam))
        return real_plan(n, lam)

    monkeypatch.setattr(families, "plan", counting_plan)
    monkeypatch.setattr(cli, "plan", counting_plan)
    code, _, stderr = run_cli(capsys, "construct", "--n", "9", "--lambda", "3")
    assert code == 0 and "certificate=proven" in stderr
    assert calls == [(9, 3)]


def test_construct_realizes_each_profile_once(monkeypatch, capsys):
    calls = []
    real_find_starter = starters.find_starter

    def counting_find_starter(n, target):
        calls.append((n, tuple(sorted(target.items()))))
        return real_find_starter(n, target)

    monkeypatch.setattr(starters, "find_starter", counting_find_starter)
    # (22, 44) is a P8 case: three pins and two free slots.
    code, _, stderr = run_cli(capsys, "construct", "--n", "22", "--lambda", "44")
    assert code == 0 and "certificate=proven" in stderr
    assert len(calls) == len(set(calls)) == 5


def test_construct_starter_search_failure_exits_3(monkeypatch, capsys):
    def unrealizable(family, n, lam):
        return [{0: n}]  # only the identity, whose stabilizer is all of H

    monkeypatch.setattr(families, "family_profiles", unrealizable)
    code, stdout, stderr = run_cli(capsys, "construct", "--n", "22", "--lambda", "44")
    assert code == 3 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


def test_construct_starter_set_violation_exits_3(monkeypatch, capsys):
    real_profiles = families.family_profiles

    def doubled(family, n, lam):
        return [t for t in real_profiles(family, n, lam) for _ in range(2)]

    # Each starter twice: the copies share an H-orbit.
    monkeypatch.setattr(families, "family_profiles", doubled)
    code, stdout, stderr = run_cli(capsys, "construct", "--n", "23", "--lambda", "30")
    assert code == 3 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
    assert "share an H-orbit" in stderr
    assert "('" not in stderr and "[" not in stderr  # no repr of the exception's args


@pytest.mark.parametrize("content", [None, b"\x80\x81"],
                         ids=["missing", "not-utf8"])
def test_verify_unreadable_file_exits_2(content, tmp_path, capsys):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)  # not UTF-8
    code, stdout, stderr = run_cli(capsys, "verify", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


@pytest.mark.parametrize("name,value", [
    ("--max-nodes", "-1"), ("--max-seconds", "-1"), ("--max-seconds", "nan")])
def test_verify_negative_or_nan_budget_exits_2(name, value, tmp_path, capsys):
    # Unchecked, a NaN time bound never stops the search and -1 nodes
    # reports "exhausted".
    path = tmp_path / "doc.json"
    docio.write_mf(families.construct(5, 3), path)
    code, stdout, stderr = run_cli(capsys, "verify", str(path),
                                   "--checks", "indecomposable", name, value)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


def test_verify_zero_max_nodes_is_honoured(tmp_path, capsys):
    path = tmp_path / "doc.json"
    docio.write_mf(families.construct(5, 3), path)  # proven_none in 7 nodes
    code, stdout, _ = run_cli(capsys, "verify", str(path),
                              "--checks", "indecomposable", "--max-nodes", "0")
    assert code == 4
    assert json.loads(stdout)["indecomposable"] == "exhausted"


def test_verify_zero_max_seconds_is_honoured(tmp_path, capsys):
    # The clock is read after the first packed vector is built, so a 0 s
    # budget stops the set-up; unbounded, (9, 8) finishes in 714 nodes,
    # (5, 3) in 7.
    for n, lam in [(9, 8), (5, 3)]:
        path = tmp_path / f"doc{n}_{lam}.json"
        docio.write_mf(families.construct(n, lam), path)
        code, stdout, _ = run_cli(capsys, "verify", str(path), "--checks",
                                  "indecomposable", "--max-seconds", "0")
        assert code == 4
        assert json.loads(stdout)["indecomposable"] == "exhausted"


def test_coverage_output(capsys):
    code, stdout, _ = run_cli(capsys, "coverage", "--s", "18")
    lines = stdout.strip().splitlines()
    assert code == 0 and len(lines) == 16
    assert lines[0] == "lambda=2 base_n=5 family=P2"
    assert lines[-1] == "lambda=17 base_n=9 family=P8"


def test_coverage_small_s_exits_2(capsys):
    code, _, _ = run_cli(capsys, "coverage", "--s", "10")
    assert code == 2


def test_selftest_quick(capsys):
    code, stdout, _ = run_cli(capsys, "selftest", "--scale", "quick")
    lines = stdout.strip().splitlines()
    assert code == 0
    assert [line.split()[0] for line in lines] == ["A1", "A2", "A3", "A4", "A5"]
    assert all("PASS" in line for line in lines)


def test_selftest_refuses_to_run_without_asserts():
    # Under python -O every criterion's assert is stripped, so a PASS would mean nothing.
    env = dict(os.environ, PYTHONPATH=str(Path(onefac.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-O", "-m", "onefac", "selftest", "--scale", "quick"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "-O" in done.stderr


@pytest.fixture
def unrealizable_p3_n9_l10(monkeypatch):
    real_family_profiles = families.family_profiles

    def corrupted(family, n, lam):
        if (family, n, lam) == ("P3", 9, 10):
            return [{0: 9}, {1: 9}]  # unrealizable starters
        return real_family_profiles(family, n, lam)

    monkeypatch.setattr(families, "family_profiles", corrupted)


def test_selftest_fails_on_unrealizable_searched_profiles(unrealizable_p3_n9_l10):
    from onefac import acceptance
    results = acceptance.run(["A8"])
    assert not results[0].passed and "P3 at n=9, lambda=10" in results[0].detail


def test_construct_family_with_unrealizable_profiles_exits_3(unrealizable_p3_n9_l10,
                                                            capsys):
    # --family takes the same path as plain construct, so an unrealizable
    # profile ends as a construction failure, not a traceback.
    outcomes = []
    for extra in (["--family", "P3"], []):
        code, stdout, stderr = run_cli(capsys, "construct", "--n", "9",
                                       "--lambda", "10", *extra)
        assert code == 3 and stdout == ""
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
        outcomes.append(stderr)
    assert outcomes[0] == outcomes[1]


def test_verify_validity_of_a_huge_empty_document_is_bounded(tmp_path, capsys):
    # Listing every uncovered pair of n = 100000 would take about 2e10
    # entries; the report keeps the first 10 and the scan stops there.
    path = tmp_path / "empty.json"
    path.write_text('{"format":1,"model":{"tag":"plain"},"n":100000,'
                    '"lambda":2,"factors":[]}')
    start = time.monotonic()
    code, stdout, _ = run_cli(capsys, "verify", str(path), "--checks", "validity")
    assert time.monotonic() - start < 1.0
    report = json.loads(stdout)
    assert code == 1 and report["validity"] == "fail"
    assert report["validity_errors"] == [[[0, v], 0, 2] for v in range(1, 11)]
    code, stdout, stderr = run_cli(capsys, "verify", str(path),
                                   "--checks", "indecomposable")
    assert code == 2 and stdout == "" and "not a valid" in stderr


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(onefac.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "onefac", "coverage", "--s", "18"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == run_cli(capsys, "coverage", "--s", "18")[1]


# Start-up cost no command needs: `dataclasses` pulls in `inspect`, `ast`
# and `tokenize`, and `acceptance`, which only `selftest` runs, pulls in
# `importlib.resources` and `typing`.
NOT_AT_START_UP = {"dataclasses", "inspect", "typing", "ast",
                   "importlib.resources", "onefac.acceptance"}


def test_cli_start_up_imports_only_what_it_needs():
    env = dict(os.environ, PYTHONPATH=str(Path(onefac.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "onefac",
                           "coverage", "--s", "18"], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert "onefac.families" in loaded
    assert not loaded & NOT_AT_START_UP


_K4 = '"model":{"tag":"plain"},"n":2,"lambda":2'


@pytest.mark.parametrize("tail", [
    '"factors":[[[0,1],[2,3]]]',  # no counts
    '"factors":[[[0,1],[2,3]]],"counts":{"0":2}',
    '"factors":[[[0,1],[2,3]]],"counts":[1,1]',
    '"factors":[[[0,1],[2,3]]],"counts":[true]',
    '"factors":[[[0,1],[2,3]]],"counts":[0]',
    '"factors":[[[0,1],[2,3]]],"counts":[2.0]',
    '"factors":[[[0,1],[2,3]]],"counts":[1000000000000]',
])
def test_verify_malformed_counts_exit_2(tail, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"format":2,' + _K4 + "," + tail + "}")
    start = time.monotonic()
    code, stdout, stderr = run_cli(capsys, "verify", str(path), "--checks", "validity")
    assert time.monotonic() - start < 1.0
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


def test_verify_count_above_lambda_fails_validity(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"format":2,' + _K4 + ',"factors":[[[0,1],[2,3]],[[0,2],[1,3]],'
                    '[[0,3],[1,2]]],"counts":[3,2,1]}')
    code, stdout, _ = run_cli(capsys, "verify", str(path), "--checks", "validity")
    report = json.loads(stdout)
    assert code == 1 and report["validity"] == "fail"
    assert [[0, 1], 3, 2] in report["validity_errors"]


@pytest.fixture
def validation_calls(monkeypatch):
    calls = []

    def counting(mf):
        calls.append(mf)
        return core.validate_factorization(mf)
    monkeypatch.setattr(cli, "validate_factorization", counting)
    monkeypatch.setattr(verify, "validate_factorization", counting)
    return calls


@pytest.mark.parametrize("checks", ["validity", "indecomposable",
                                    "validity,indecomposable",
                                    "indecomposable,simple,validity"])
def test_verify_validates_once(checks, validation_calls, tmp_path, capsys):
    path = tmp_path / "doc.json"
    docio.write_mf(gf.agl_orbit_factorization(gf.field_ctx(7, 1)), path)
    code, stdout, _ = run_cli(capsys, "verify", str(path), "--checks", checks)
    report = json.loads(stdout)
    assert code == 0 and len(validation_calls) == 1
    assert all(report[check] == "pass" for check in checks.split(","))


def test_verify_invalid_document_validates_once(validation_calls, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"format":2,' + _K4 + ',"factors":[[[0,1],[2,3]],[[0,2],[1,3]],'
                    '[[0,3],[1,2]]],"counts":[3,2,1]}')
    code, stdout, _ = run_cli(capsys, "verify", str(path), "--checks", "validity")
    report = json.loads(stdout)
    assert code == 1 and report["validity"] == "fail" and report["validity_errors"]
    code, stdout, stderr = run_cli(capsys, "verify", str(path),
                                   "--checks", "validity,indecomposable")
    assert code == 2 and stdout == "" and "not a valid" in stderr
    assert len(validation_calls) == 2  # one per command


@pytest.mark.parametrize("check", ["validity", "indecomposable"])
@pytest.mark.parametrize("vertex", ["1.0", "1e0", "true"])
def test_verify_non_integer_vertex_exits_2(vertex, check, tmp_path, capsys):
    # Unchecked, 1.0 passes validity and crashes the search, and true
    # reads as vertex 1.
    path = tmp_path / "doc.json"
    path.write_text('{"format":1,' + _K4 + ',"factors":[[[0,' + vertex + '],[2,3]],'
                    '[[0,1],[2,3]],[[0,2],[1,3]],[[0,2],[1,3]],[[0,3],[1,2]],[[0,3],[1,2]]]}')
    code, stdout, stderr = run_cli(capsys, "verify", str(path), "--checks", check)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
