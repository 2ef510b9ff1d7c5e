import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from affprimes import arith, cli, forms

AP4_SYSTEM = {
    "d": 2,
    "t": 4,
    "forms": [
        {"coeffs": [1, 0], "const": 0},
        {"coeffs": [1, 1], "const": 0},
        {"coeffs": [1, 2], "const": 0},
        {"coeffs": [1, 3], "const": 0},
    ],
}


def run(tmp_path, command, cfg, extra=()):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main(
        [command, "--config", str(cfg_path), "--out", str(out), *extra]
    )
    report = json.loads((out / "report.json").read_text()) if (out / "report.json").exists() else None
    return code, report, out


def test_complexity_command(tmp_path):
    code, report, _ = run(tmp_path, "complexity", {"system": AP4_SYSTEM})
    assert code == 0
    assert report["result"]["overall"] == 2
    assert report["result"]["per_index"] == [2, 2, 2, 2]


def test_singular_series_command(tmp_path):
    cfg = {"system": AP4_SYSTEM, "min_prime": 5, "pmax": 10**6}
    code, report, _ = run(tmp_path, "singular-series", cfg)
    assert code == 0
    val = 0.75 * report["result"]["truncated_product"]
    assert abs(val - 0.4764) < 5e-5


def test_normalize_command(tmp_path):
    code, report, _ = run(tmp_path, "normalize", {"system": AP4_SYSTEM, "s": 2})
    assert code == 0
    assert report["result"]["is_normal_form"] is True
    assert report["result"]["lattice_equal"] is True


def test_compare_command_csv(tmp_path):
    cfg = {
        "system": {
            "d": 2,
            "t": 3,
            "forms": [
                {"coeffs": [1, 0], "const": 0},
                {"coeffs": [1, 1], "const": 0},
                {"coeffs": [1, 2], "const": 0},
            ],
        },
        "body": {
            "dim": 2,
            "halfspaces": [
                {"a": [-1, 0], "c": -1},
                {"a": [0, -1], "c": -1},
                {"a": [1, 2], "c": {"times_N": 1}},
            ],
        },
        "N": 3000,
        "pmax": 10**4,
    }
    code, report, out = run(tmp_path, "compare", cfg, extra=["--format", "csv"])
    assert code == 0
    assert 0.7 < report["result"]["ratio_integral"] < 1.3
    csv_text = (out / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "N,empirical,pred_log,pred_int,ratio_log,ratio_int,seconds"


def test_nil_check_determinism(tmp_path):
    cfg = {"trials": 25, "seed": 42}
    code1, rep1, _ = run(tmp_path, "nil-check", cfg)
    (tmp_path / "config.json").unlink()
    code2, rep2, _ = run(tmp_path, "nil-check", cfg)
    assert code1 == code2 == 0
    assert rep1["result"] == rep2["result"]
    assert rep1["result"]["hk_success"] == 25
    assert rep1["result"]["hk_perturbed_failures"] == 25


def test_gowers_command(tmp_path):
    code, report, _ = run(tmp_path, "gowers", {"N": 16, "s": 1, "input": "delta"})
    assert code == 0
    assert report["result"]["norm"] == pytest.approx(16 ** (-3 / 4))


def test_mobius_corr_command(tmp_path):
    cfg = {
        "system": {"d": 1, "t": 1, "forms": [{"coeffs": [1], "const": 0}]},
        "body": {"dim": 1, "halfspaces": [{"a": [-1], "c": -1}], "N": 10000},
        "N": 10000,
    }
    code, report, _ = run(tmp_path, "mobius-corr", cfg)
    assert code == 0
    assert abs(report["result"]["normalized_correlation"]) < 0.02


def test_chowla_command(tmp_path):
    cfg = {"N": 500, "factors": [[1, 0], [0, 1], [1, 1], [1, 2]]}
    code, report, _ = run(tmp_path, "chowla", cfg)
    assert code == 0
    assert abs(report["result"]["value"]) < 0.2


def test_sieve_check_command(tmp_path):
    cfg = {"N": 3000, "gamma": 0.3, "w": 3.0, "b_list": [1, 5], "C": 20}
    code, report, _ = run(tmp_path, "sieve-check", cfg)
    assert code == 0
    res = report["result"]
    assert res["nu_min"] >= 0.5
    assert abs(res["measure"] - 1) < 0.1
    assert res["correlation"]["holds"]


def test_mn_corr_command(tmp_path):
    code, report, _ = run(tmp_path, "mn-corr", {"N": 20000, "kind": "phase", "alpha": 0.618})
    assert code == 0
    assert report["result"]["abs"] < 0.05


def test_malformed_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = cli.main(["complexity", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1


def test_missing_key_exit_code(tmp_path):
    code, _, _ = run(tmp_path, "predict", {"system": AP4_SYSTEM})
    assert code == 1


def test_resource_guard_exit_code(tmp_path):
    cfg = {"N": 10**9, "kind": "phase"}
    code, _, _ = run(tmp_path, "mn-corr", cfg)
    assert code == 2


def test_flag_overrides_config(tmp_path):
    cfg = {"system": AP4_SYSTEM, "min_prime": 5, "pmax": 100}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main(
        ["singular-series", "--config", str(cfg_path), "--out", str(out), "--pmax", "1000"]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["pmax"] == 1000
    assert report["config"]["pmax"] == 1000


def test_report_payload_deterministic(tmp_path):
    cfg = {"system": AP4_SYSTEM, "pmax": 10**4}
    code1, rep1, _ = run(tmp_path, "singular-series", cfg)
    code2, rep2, _ = run(tmp_path, "singular-series", cfg)
    rep1.pop("timing")
    rep2.pop("timing")
    assert rep1 == rep2


def test_cli_import_does_not_load_scipy():
    # scipy serves only c_{chi,2} (gysieve.sieve_factor with a = 2) and is
    # imported there; the numpy submodules the commands use load with the CLI
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, affprimes.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    code = "import sys, affprimes.cli; print(all(m in sys.modules for m in ('numpy.fft', 'numpy.polynomial', 'numpy.random')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


TWIN_1000 = {
    "system": {"d": 1, "t": 2, "forms": [{"coeffs": [1], "const": 0}, {"coeffs": [1], "const": 2}]},
    "body": {"dim": 1, "halfspaces": [{"a": [-1], "c": -1}, {"a": [1], "c": 998}]},
    "N": 1000,
}


@pytest.mark.parametrize("command, cfg", [
    ("count", TWIN_1000),
    ("compare", TWIN_1000),
    ("mobius-corr", TWIN_1000),
    ("chowla", {"N": 500, "factors": [[1, 0], [0, 1], [1, 1]]}),
    ("gowers", {"N": 1000, "s": 1, "input": "wtrick"}),
    ("sieve-check", {"N": 1000, "gamma": 0.3, "w": 3.0, "b_list": [1]}),
])
def test_table_guard_exits_2_before_sieving(tmp_path, monkeypatch, capsys, command, cfg):
    # the one table-size guard is arith.build_tables; patched down, no table is allocated
    sieved = []
    monkeypatch.setattr(arith, "TABLE_GUARD", 100)
    monkeypatch.setattr(arith, "prime_sieve", lambda n_max: sieved.append(n_max))
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 2 and report is None
    assert sieved == []
    assert "exceeds the 100 guard" in capsys.readouterr().err


def test_gy_verify_builds_only_r_sized_tables(tmp_path, monkeypatch):
    sizes = []
    build = arith.build_tables
    monkeypatch.setattr(arith, "build_tables", lambda n_max: sizes.append(n_max) or build(n_max))
    code, report, _ = run(tmp_path, "gy-verify", {**TWIN_1000, "gamma": 0.3})
    assert code == 0
    assert sizes and max(sizes) <= report["result"]["R"]


@pytest.mark.parametrize("command, cfg, key", [
    ("sieve-check", {"N": 1000, "b_list": 5}, "b_list"),
    ("sieve-check", {"N": 1000, "b_list": ["1"]}, "b_list"),
    ("sieve-check", {"N": 1000, "gamma": [0.3]}, "gamma"),
    ("count", {**TWIN_1000, "weights": "mobius"}, "weights"),
    ("count", {**TWIN_1000, "weights": [["mobius"], "mobius"]}, "weights"),
    ("count", {**TWIN_1000, "N": "1000"}, "N"),
    ("count", {**TWIN_1000, "system": [1, 2]}, "system"),
    ("count", {**TWIN_1000, "system": {"forms": [5]}}, "system"),
    ("count", {**TWIN_1000, "body": {"dim": 1, "halfspaces": [7]}}, "body"),
    ("gy-verify", {**TWIN_1000, "chi": ["tent_taper"]}, "chi"),
    ("gy-verify", {**TWIN_1000, "a_list": 1}, "a_list"),
    ("mobius-corr", {**TWIN_1000, "f": None}, "f"),
    ("gowers", {"N": 16, "s": "two", "input": "delta"}, "s"),
    ("chowla", {"N": 500, "factors": [1, 2]}, "factors"),
    ("mn-corr", {"N": 100, "kind": 3}, "kind"),
    ("nil-check", {"trials": {}}, "trials"),
    ("gy-verify", {**TWIN_1000, "chi": "bump"}, "chi"),
    ("sieve-check", {"N": 1000, "b_list": []}, "b_list"),
])
def test_wrong_type_exits_1_naming_the_key(tmp_path, capsys, command, cfg, key):
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    if cfg.get("chi") == "bump":
        assert "tent_taper" in err and "normalized_bump" in err


@pytest.mark.parametrize("cfg", [[AP4_SYSTEM], "N system"])
def test_config_must_be_an_object(tmp_path, capsys, cfg):
    code, _, _ = run(tmp_path, "complexity", cfg, extra=["--pmax", "10"])
    assert code == 1
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [TypeError("a\nb"), AssertionError("broken invariant"), ZeroDivisionError()])
def test_internal_fault_exits_3(tmp_path, monkeypatch, capsys, exc):
    def fault(*args, **kwargs):
        raise exc

    monkeypatch.setattr(forms, "complexity", fault)
    code, report, _ = run(tmp_path, "complexity", {"system": AP4_SYSTEM})
    assert code == 3 and report is None
    err = capsys.readouterr().err
    assert err.startswith("internal error: " + type(exc).__name__) and err.count("\n") == 1
