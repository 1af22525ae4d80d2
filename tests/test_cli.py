from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from decimal import Decimal

import pytest

from _oracles import euler_product_direct
from liegrowth import cli
from liegrowth import growth as growthmod
from liegrowth.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_dims_csv_frozen_rows(capsys):
    code, out = run_cli(["dims", "--d", "2", "--max-n", "4"], capsys)
    assert code == 0
    assert out == "n,dim,gamma\n1,2,2\n2,1,3\n3,2,5\n4,3,8\n"


def test_dims_json_schema(capsys):
    code, out = run_cli(["dims", "--d", "3", "--max-n", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "command": "dims",
        "d": 3,
        "max_n": 2,
        "rows": [
            {"n": 1, "dim": 3, "gamma": 3},
            {"n": 2, "dim": 3, "gamma": 6},
        ],
    }


def test_growth_wplus_csv_has_bound_columns(capsys):
    code, out = run_cli(["growth", "--d", "1", "--max-n", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,gamma,a_n,spanning_count,growth_bound"
    for line in lines[1:]:
        n, gamma, a_n, spanning, bound = map(int, line.split(","))
        assert gamma == 2 * n + 1
        assert bound == 2 * n + 1
        assert spanning == growthmod.wplus_spanning_count(1, n)
        assert gamma <= bound


def test_growth_w_mode_matches_closed_form(capsys):
    code, out = run_cli(
        ["growth", "--d", "2", "--max-n", "5", "--mode", "W", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    closed = growthmod.w_gamma_closed(2, 5)
    assert [row["gamma"] for row in doc["rows"]] == closed[1:]
    assert all(set(row) == {"n", "gamma", "a_n"} for row in doc["rows"])


def test_euler_fit_json_schema_and_pass(capsys):
    code, out = run_cli(
        ["euler-fit", "--d", "1", "--fit-n", "64", "--tolerance", "0.15"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "command", "mode", "d", "fit_n", "method", "classification",
        "points", "final", "target", "tolerance", "pass",
    ]
    assert doc["mode"] == "Wplus"
    assert doc["target"] == 0.5
    assert doc["classification"] == "intermediate"
    assert [p["n"] for p in doc["points"]] == [16, 32, 64]
    assert doc["pass"] is True


def test_euler_fit_failing_target_exits_1(capsys):
    code, out = run_cli(
        ["euler-fit", "--d", "1", "--fit-n", "32", "--target", "0.99",
         "--tolerance", "0.001"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_euler_fit_input_file_and_dump(tmp_path, capsys):
    src = tmp_path / "ones.csv"
    src.write_text("n,a_n\n" + "".join(f"{n},1\n" for n in range(1, 65)))
    dump = tmp_path / "coeffs.csv"
    code, out = run_cli(
        ["euler-fit", "--input", str(src), "--fit-n", "32",
         "--dump-coeffs", str(dump)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "input"
    assert doc["d"] is None
    assert doc["target"] is None and doc["pass"] is None
    rows = dump.read_text().splitlines()
    assert rows[0] == "n,b_n"
    assert rows[1] == "0,1"
    assert rows[5] == "4,5" and rows[11] == "10,42"  # partition numbers


def test_euler_fit_dumps_coefficients_past_the_int_string_limit(tmp_path, capsys):
    # a_n = 10^100 takes b_64 past 4,300 decimal digits, where str() of an int
    # fails by default; the dump must write it whole, and leave the limit alone
    a = [0] + [10 ** 100] * 64
    b_64 = euler_product_direct(a)[64]
    assert b_64.bit_length() > 4300 * math.log2(10)
    src = tmp_path / "huge.csv"
    src.write_text("n,a_n\n" + "".join(f"{n},{a[n]}\n" for n in range(1, 65)))
    dump = tmp_path / "coeffs.csv"
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run_cli(["euler-fit", "--input", str(src), "--fit-n", "32", "--dump-coeffs", str(dump)], capsys)
    assert code == 0
    assert json.loads(out)["mode"] == "input"
    n, b_n = dump.read_text().splitlines()[-1].split(",")
    assert n == "64" and Decimal(b_n) == b_64
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_euler_fit_largest_benchmark_output_is_pinned(tmp_path, capsys):
    # the largest exponent-fit job: 4,097 coefficients of up to 2,692 bits
    report, dump = tmp_path / "report.json", tmp_path / "coeffs.csv"
    argv = ["euler-fit", "--mode", "Wplus", "--d", "3", "--fit-n", "2048", "--out", str(report), "--dump-coeffs", str(dump)]
    assert run_cli(argv, capsys) == (0, "")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == "5d0140e9141934fa1c8eda7e1ec69df385b515cf20d9ed44f1aa346031fc6a06"
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == "8a6281603c8c075dcd6ce4bbda3aa6802d7571ac5ad6072ce9ed0d3098be7250"


def test_euler_fit_input_reads_only_the_rows_the_fit_needs(tmp_path, capsys):
    # b_n depends only on a_1..a_n: rows past 2 * fit_n change neither the
    # report nor the dumped b_0..b_(2 fit_n), which stops there
    a = growthmod.wplus_graded_dims(2, 8192)
    reports = []
    for name, n_top in (("long.csv", 8192), ("short.csv", 32)):
        src = tmp_path / name
        src.write_text("n,a_n\n" + "".join(f"{n},{a[n]}\n" for n in range(1, n_top + 1)))
        dump = tmp_path / f"{name}.dump"
        code, out = run_cli(["euler-fit", "--input", str(src), "--fit-n", "16", "--dump-coeffs", str(dump)], capsys)
        assert code == 0
        reports.append((out, dump.read_text()))
    assert reports[0] == reports[1]
    rows = reports[0][1].splitlines()
    assert rows[0] == "n,b_n" and len(rows) == 1 + 33 and rows[-1].startswith("32,")


def test_euler_fit_input_with_a_huge_n_allocates_nothing_for_it(tmp_path, capsys):
    # one row at n = 4e9 reaches 2 * fit_n, so it is read and its a_n checked,
    # but no list reaches it; a_1..a_32 are all 0, so every b_n is 1
    src = tmp_path / "far.csv"
    src.write_text("4000000000,1\n")
    with pytest.raises(SystemExit) as exc:
        main(["euler-fit", "--input", str(src), "--fit-n", "16"])
    assert exc.value.code == 2
    assert "b must exceed 1" in capsys.readouterr().err
    src.write_text("4000000000,-1\n")
    with pytest.raises(SystemExit) as exc:
        main(["euler-fit", "--input", str(src), "--fit-n", "16"])
    assert exc.value.code == 2
    assert "graded dimensions must be nonnegative" in capsys.readouterr().err


def test_verify_presentation_passes(capsys):
    code, out = run_cli(
        ["verify", "--suite", "presentation", "--d", "2", "--bound-s", "3",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "presentation"
    assert doc["mode"] == "Wplus"
    assert doc["failures"] == []
    assert doc["checked"] > 0


def test_verify_towers_passes(capsys):
    code, out = run_cli(["verify", "--suite", "towers", "--d", "2", "--bound-s", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    # two instances, hypotheses plus the 5x5 grid each
    assert doc["checked"] == 2 * (6 + 25)


def test_verify_embedding_reports_ranks(capsys):
    code, out = run_cli(
        ["verify", "--suite", "embedding", "--d", "2", "--max-n", "4"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert [r["rank"] for r in doc["ranks"]] == [r["expected"] for r in doc["ranks"]]


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["dims", "--d", "0"],
        ["growth", "--max-n", "0"],
        ["euler-fit", "--fit-n", "-3"],
        ["no-such-command"],
        ["euler-fit", "--input", "/nonexistent/file.csv"],
        # flags a subcommand does not read are not accepted
        ["dims", "--seed", "1"],
        ["growth", "--seed", "1"],
        ["euler-fit", "--format", "json"],
        ["verify", "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        capsys.readouterr()
        assert exc.value.code == 2, argv
    # nor a flag that does not apply to the chosen use; the message names it
    for argv, flag in (
        (["euler-fit", "--input", "a.csv", "--mode", "metabelian"], "--mode"),
        (["euler-fit", "--input", "a.csv", "--d", "5", "--fit-n", "2"], "--d"),
        (["verify", "--suite", "embedding", "--mode", "Wplus"], "--mode"),
        (["verify", "--suite", "embedding", "--mode", "Wplus", "--trials", "3", "--d", "2"], "--mode"),
        (["verify", "--suite", "model-laws", "--d", "1", "--trials", "-3"], "--trials"),
        (["verify", "--suite", "embedding", "--d", "1", "--trials", "-1"], "--trials"),
        # JSON has no nan or inf, and a nan or negative tolerance never passes
        (["euler-fit", "--fit-n", "16", "--target", "nan"], "--target"),
        (["euler-fit", "--fit-n", "16", "--target", "inf"], "--target"),
        (["euler-fit", "--fit-n", "16", "--target=-inf"], "--target"),
        (["euler-fit", "--fit-n", "16", "--tolerance", "nan"], "--tolerance"),
        (["euler-fit", "--fit-n", "16", "--tolerance", "inf"], "--tolerance"),
        (["euler-fit", "--fit-n", "16", "--tolerance=-0.5"], "--tolerance"),
        (["euler-fit", "--input", "a.csv", "--tolerance", "nan"], "--tolerance"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert f"{flag} " in capsys.readouterr().err, argv
        assert exc.value.code == 2, argv
    code, out = run_cli(
        ["verify", "--suite", "model-laws", "--d", "2", "--trials", "2", "--format", "json", "--seed", "7"],
        capsys,
    )
    assert code == 0 and json.loads(out)["failures"] == []
    # embedding reads --trials (two ranks plus the trials) and accepts --mode W
    for extra, checked in ([], 2 + 25), (["--trials", "3"], 2 + 3), (["--mode", "W", "--trials", "0"], 2):
        code, out = run_cli(["verify", "--suite", "embedding", "--d", "2", "--max-n", "2"] + extra, capsys)
        assert code == 0 and json.loads(out)["checked"] == checked, extra


@pytest.mark.parametrize(
    "suite,flag",
    (
        ("presentation", "--max-n"),
        ("presentation", "--seed"),
        ("presentation", "--trials"),
        ("towers", "--max-n"),
        ("towers", "--seed"),
        ("towers", "--trials"),
        ("embedding", "--bound-s"),
        ("model-laws", "--bound-s"),
        ("model-laws", "--max-n"),
    ),
)
def test_verify_rejects_flags_its_suite_does_not_read(capsys, suite, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", suite, "--d", "2", flag, "3"])
    assert exc.value.code == 2
    assert f"{flag} " in capsys.readouterr().err


def test_output_bytes_are_stable(tmp_path):
    outputs = []
    for i in range(2):
        path = tmp_path / f"run{i}.json"
        code = main(
            ["euler-fit", "--d", "2", "--fit-n", "32", "--out", str(path)]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]

    growth_outputs = []
    for i in range(2):
        path = tmp_path / f"growth{i}.csv"
        assert main(["growth", "--d", "2", "--max-n", "6", "--out", str(path)]) == 0
        growth_outputs.append(path.read_bytes())
    assert growth_outputs[0] == growth_outputs[1]


def test_main_builds_one_parser_and_reuses_it(tmp_path, monkeypatch, capsys):
    # one process calls main many times, as the benchmark does; every call
    # after the first reuses the parser, and gives the bytes the first gave
    cli._build_parser.cache_clear()
    calls = (
        (["growth", "--d", "2", "--max-n", "5"], 0),
        (["verify", "--suite", "presentation", "--d", "2", "--bound-s", "2"], 0),
        (["verify", "--suite", "towers", "--mode", "W"], 2),
        (["euler-fit", "--d", "2", "--fit-n", "32"], 0),
        (["verify", "--suite", "model-laws", "--d", "2", "--trials", "3"], 0),
    )
    rounds = []
    for r in range(2):
        outputs = []
        for i, (argv, code) in enumerate(calls):
            path = tmp_path / f"round{r}-call{i}"
            argv = [*argv, "--out", str(path)]
            if code == 2:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2 and not path.exists()
                outputs.append(capsys.readouterr().err)
            else:
                assert main(argv) == 0, argv
                outputs.append(path.read_bytes())
        rounds.append(outputs)
    assert rounds[0] == rounds[1]
    assert cli._build_parser.cache_info().misses == 1
    # the suites look their functions up by name when called, so one replaced
    # after the parser is built is the one called
    real, checked = cli.check_presentation, []

    def recording(pres):
        checked.append(pres.bounds)
        return real(pres)

    monkeypatch.setattr(cli, "check_presentation", recording)
    path = tmp_path / "patched"
    assert main(["verify", "--suite", "presentation", "--d", "2", "--bound-s", "2", "--out", str(path)]) == 0
    assert checked == [{"s_max": 2}]
    assert path.read_bytes() == rounds[0][1]
    assert cli._build_parser.cache_info().misses == 1


# stdout of eight commands at a fixed configuration, byte for byte
DIMS_JSON = """\
{
  "command": "dims",
  "d": 3,
  "max_n": 2,
  "rows": [
    {
      "n": 1,
      "dim": 3,
      "gamma": 3
    },
    {
      "n": 2,
      "dim": 3,
      "gamma": 6
    }
  ]
}
"""

GROWTH_W_CSV = """\
n,gamma,a_n
1,4,4
2,8,4
3,14,6
4,22,8
5,32,10
6,44,12
"""

GROWTH_WPLUS_JSON = """\
{
  "command": "growth",
  "mode": "Wplus",
  "d": 2,
  "max_n": 5,
  "rows": [
    {
      "n": 1,
      "gamma": 6,
      "a_n": 6,
      "spanning_count": 6,
      "growth_bound": 6
    },
    {
      "n": 2,
      "gamma": 14,
      "a_n": 8,
      "spanning_count": 10,
      "growth_bound": 16
    },
    {
      "n": 3,
      "gamma": 30,
      "a_n": 16,
      "spanning_count": 16,
      "growth_bound": 34
    },
    {
      "n": 4,
      "gamma": 54,
      "a_n": 24,
      "spanning_count": 24,
      "growth_bound": 60
    },
    {
      "n": 5,
      "gamma": 86,
      "a_n": 32,
      "spanning_count": 34,
      "growth_bound": 94
    }
  ]
}
"""

EMBEDDING_JSON = """\
{
  "suite": "embedding",
  "mode": "W",
  "d": 2,
  "bounds": {
    "max_n": 4
  },
  "checked": 29,
  "ranks": [
    {
      "n": 1,
      "rank": 2,
      "expected": 2
    },
    {
      "n": 2,
      "rank": 1,
      "expected": 1
    },
    {
      "n": 3,
      "rank": 2,
      "expected": 2
    },
    {
      "n": 4,
      "rank": 3,
      "expected": 3
    }
  ],
  "failures": []
}
"""

PRESENTATION_W_JSON = """\
{
  "suite": "presentation",
  "mode": "W",
  "d": 2,
  "m": 2,
  "n": 2,
  "bounds": {
    "pair_len_max": 1
  },
  "checked": 24,
  "failures": []
}
"""

TOWERS_JSON = """\
{
  "suite": "towers",
  "mode": "Wplus",
  "d": 2,
  "bounds": {
    "i_max": 1,
    "j_max": 1
  },
  "checked": 20,
  "failures": []
}
"""

MODEL_LAWS_JSON = """\
{
  "suite": "model-laws",
  "mode": "Wplus",
  "d": 2,
  "bounds": {
    "trials": 2
  },
  "checked": 43,
  "failures": []
}
"""


EULER_FIT_METABELIAN_JSON = """\
{
  "command": "euler-fit",
  "mode": "metabelian",
  "d": 2,
  "fit_n": 48,
  "method": "doubling-log-ratio",
  "classification": "intermediate",
  "points": [
    {
      "n": 16,
      "alphaHat": 0.7855035557442864
    },
    {
      "n": 32,
      "alphaHat": 0.7528161718186624
    },
    {
      "n": 48,
      "alphaHat": 0.7384075518834149
    }
  ],
  "final": 0.7384075518834149,
  "target": 0.6666666666666666,
  "tolerance": 0.1,
  "pass": true
}
"""


@pytest.mark.parametrize(
    "argv,expected",
    (
        ("dims --d 3 --max-n 2 --format json", DIMS_JSON),
        ("growth --mode W --d 2 --max-n 6", GROWTH_W_CSV),
        ("growth --mode Wplus --d 2 --max-n 5 --format json", GROWTH_WPLUS_JSON),
        ("verify --suite embedding --d 2 --max-n 4", EMBEDDING_JSON),
        ("verify --suite presentation --mode W --d 2 --bound-s 1", PRESENTATION_W_JSON),
        ("verify --suite towers --d 2 --bound-s 1", TOWERS_JSON),
        ("verify --suite model-laws --d 2 --trials 2 --seed 7", MODEL_LAWS_JSON),
        # points 16, 32 and 48: a fit-n that is not a power of two is a point itself
        ("euler-fit --mode metabelian --d 2 --fit-n 48", EULER_FIT_METABELIAN_JSON),
    ),
)
def test_output_bytes_are_pinned(capsys, argv, expected):
    code, out = run_cli(argv.split(), capsys)
    assert code == 0
    assert out.encode() == expected.encode()


@pytest.mark.parametrize(
    "argv,digest",
    (
        # the largest filtration-growth search of the benchmark
        ("--mode Wplus --d 4 --max-n 7", "e9d93c7f664462349c5b82a3852e7124f339dadea9445321797ca98d049360e0"),
        ("--mode W --d 4 --max-n 7", "4d3ab6b5e6b7c9ac6df3d7e265b03683dd631714518c37b990de0e9c0615c134"),
        ("--mode metabelian --d 4 --max-n 10", "3b5647c22004fafdce4c7a571c74bdaab2f9be05a6dcff05a186bb78487c6bd2"),
        # the other two metabelian searches of the benchmark
        ("--mode metabelian --d 2 --max-n 75", "77882e11ae8f23e767f9364b8afd95cfb968cdaf57977c28109b34887b2e62ea"),
        ("--mode metabelian --d 3 --max-n 18", "2b33e2d6db377ad7e5b10c36a3a870260bf4fcf5eeeb9ec5380459e8d105a0cc"),
    ),
    ids=("Wplus-d4-n7", "W-d4-n7", "metabelian-d4-n10", "metabelian-d2-n75", "metabelian-d3-n18"),
)
def test_growth_search_bytes_are_pinned(capsys, argv, digest):
    code, out = run_cli(["growth", *argv.split()], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_euler_fit_rejects_one_generator_metabelian(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["euler-fit", "--mode", "metabelian", "--d", "1", "--fit-n", "32"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the metabelian algebra on 1 generator is one-dimensional, so every b_n is 1"
        " and there is no growth exponent to fit; use --d 2 or more\n"
    )


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "liegrowth", "dims", "--d", "2", "--max-n", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n,dim,gamma\n1,2,2\n2,1,3\n3,2,5\n"


def test_failed_cross_check_exits_1(monkeypatch, capsys):
    def disagreeing(*args, **kwargs):
        raise ArithmeticError("filtration search disagrees with the closed-form count")

    monkeypatch.setattr(growthmod, "growth_bfs", disagreeing)
    assert main(["growth", "--d", "2", "--max-n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "closed-form" in captured.err


def test_verify_towers_rejects_mode_w(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "towers", "--mode", "W", "--d", "2"])
    assert exc.value.code == 2
    assert "--mode W" in capsys.readouterr().err
    # without --mode, and with the explicit default, the suite runs as before
    for extra in ([], ["--mode", "Wplus"]):
        code, out = run_cli(["verify", "--suite", "towers", "--d", "2", "--bound-s", "2"] + extra, capsys)
        assert code == 0
        assert json.loads(out)["mode"] == "Wplus"


def test_failed_w_closed_form_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(growthmod, "w_gamma_closed", lambda d, n_max: [0] * (n_max + 1))
    assert main(["growth", "--mode", "W", "--d", "2", "--max-n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "closed-form" in captured.err


@pytest.mark.parametrize(
    "patched,value,message",
    (
        ("wplus_spanning_count", 7, "gamma(1) = 6 is outside [spanning count 7, growth bound 7]"),
        ("wplus_growth_bound", 5, "gamma(1) = 6 is outside [spanning count 6, growth bound 5]"),
    ),
    ids=("lower", "upper"),
)
def test_wplus_growth_table_checks_both_bounds(monkeypatch, capsys, patched, value, message):
    """Claim: gamma(n) of Wplus grows like n^d.

    Each row of `growth --mode Wplus` checks spanning_count(d, n) <= gamma(n)
    <= growth_bound(d, n), two polynomials of degree d in n, so a table that
    exits 0 shows gamma ~ n^d on its range. Stand-in: the tables for d <= 4,
    n <= 8 exit 0, and a table with a failing lower or upper bound exits 1
    with a message that names n, gamma(n) and both bounds. (The growth bound
    is the spanning count at 2n - 1, so a patched spanning count moves both.)
    """
    for d in range(1, 5):
        assert main(["growth", "--mode", "Wplus", "--d", str(d), "--max-n", "8"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(growthmod, patched, lambda d, n: value)
    assert main(["growth", "--mode", "Wplus", "--d", "2", "--max-n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failed: {message}\n"


@pytest.mark.parametrize(
    "rows,message",
    (
        ("n,a_n\n1,2\n1,5\n2,3\n", "given twice"),
        ("1,2\n2,3\n2,3\n", "given twice"),
        ("n,a_n\n0,7\n1,2\n2,3\n", "n must be >= 1"),
        ("n,a_n\n1,2\n-3,1\n2,3\n", "n must be >= 1"),
        ("n,a_n\n1,2\n2\n", "bad csv row: '2'"),
        ("n,a_n\n1,2,3\n2,3\n", "bad csv row: '1,2,3'"),
        ("", "empty sequence file"),
        ("n,a_n\n", "empty sequence file"),
        ("n,a_n\n1,2\n", "input provides a_n up to n = 1, need 2 for fit_n = 1"),
    ),
)
def test_euler_fit_input_rejects_bad_rows(tmp_path, capsys, rows, message):
    src = tmp_path / "bad.csv"
    src.write_text(rows)
    with pytest.raises(SystemExit) as exc:
        main(["euler-fit", "--input", str(src), "--fit-n", "1"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
