import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from affprimes import arith, cli, forms, gysieve, nilseq

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


def test_normalize_extension_spans_the_same_lattice(tmp_path):
    # the extension only appends columns A·f, so its lattice is the system's
    system = {"forms": [{"coeffs": [2, 3, 0]}, {"coeffs": [3, 1, 2]}, {"coeffs": [-1, 1, -2]}]}
    code, report, _ = run(tmp_path, "normalize", {"system": system, "s": 0})
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


def _scalar_nil_check_inputs(seed, trials):
    """nil-check's inputs drawn by one scalar rng.integers call each, in the order of the
    former loops (the oracle of the per-entry-bounds draw): the (theta, n) of every
    quadratic_phase_orbit, the (g, x0, n, h) of every orbit_cube and the generator's state after."""
    rng = np.random.default_rng(seed)

    def rand_frac():
        return Fraction(int(rng.integers(-30, 30)), int(rng.integers(1, 12)))

    quad = []
    for _ in range(trials):
        theta = rand_frac()
        quad.append((theta, int(rng.integers(-300, 300))))
    cubes = []
    for _ in range(trials):
        g = nilseq.HeisenbergElement(rand_frac(), rand_frac(), rand_frac())
        x0 = nilseq.HeisenbergElement(rand_frac(), rand_frac(), rand_frac())
        h = tuple(int(rng.integers(-5, 6)) for _ in range(3))
        cubes.append((g, x0, int(rng.integers(-5, 6)), h))
    return quad, cubes, rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**63 + 5])
@pytest.mark.parametrize("trials", [1, 2, 7, 150])
def test_nil_check_draws_what_scalar_draws_would(monkeypatch, seed, trials):
    quad, cubes, gens = [], [], []
    default_rng, orbit, orbit_cube = np.random.default_rng, nilseq.quadratic_phase_orbit, nilseq.orbit_cube

    def record_rng(s):
        gens.append(default_rng(s))
        return gens[-1]

    def record_orbit(theta, n):
        quad.append((theta, n))
        return orbit(theta, n)

    def record_cube(g, x0, n, h):
        cubes.append((g, x0, n, h))
        return orbit_cube(g, x0, n, h)

    monkeypatch.setattr(np.random, "default_rng", record_rng)
    monkeypatch.setattr(nilseq, "quadratic_phase_orbit", record_orbit)
    monkeypatch.setattr(nilseq, "orbit_cube", record_cube)
    payload, _, _ = cli.cmd_nil_check(seed=seed, trials=trials)
    want_quad, want_cubes, want_state = _scalar_nil_check_inputs(seed, trials)
    assert quad == want_quad and cubes == want_cubes
    assert [type(v) for c in cubes for v in (c[2], *c[3])] == [int] * 4 * trials
    assert gens[0].bit_generator.state == want_state
    assert payload["hk_success"] == payload["hk_perturbed_failures"] == trials


@pytest.mark.parametrize("command, cfg, key, bound", [
    ("nil-check", {"trials": -1}, "trials", 1),
    ("nil-check", {"trials": 0}, "trials", 1),
    ("nil-check", {"seed": -1}, "seed", 0),
    ("sieve-check", {"N": 1000, "gamma": 0.3, "seed": -1}, "seed", 0),
])
def test_negative_seed_or_no_trials_exits_1_naming_the_key(tmp_path, capsys, command, cfg, key, bound):
    # trials -1 ran no trial and exited 0; a negative seed failed in numpy (nil-check) or passed unread
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 1 and report is None
    assert capsys.readouterr().err == f"error: config key {key!r} must be at least {bound}, not {cfg[key]}\n"


def test_negative_seed_flag_exits_1(tmp_path, capsys):
    code, report, _ = run(tmp_path, "nil-check", {"trials": 2}, ("--seed", "-3"))
    assert code == 1 and report is None
    assert capsys.readouterr().err == "error: config key 'seed' must be at least 0, not -3\n"


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


def test_mn_corr_constant_matches_float_mean(tmp_path):
    # the mean of mu from its exact int64 sum, against the mean of a float64 copy of mu
    def float_mean(n):
        return float(arith.build_tables(n + 2).mobius[1: n + 1].astype(float).mean())

    for n in range(1, 301):
        payload, _, _ = cli.cmd_mn_corr(n, "constant")
        assert (payload["real"].hex(), payload["imag"]) == (float_mean(n).hex(), 0.0), n
    for n in (65537, 10**6):
        code, report, _ = run(tmp_path, "mn-corr", {"N": n, "kind": "constant"})
        assert code == 0 and report["result"]["real"].hex() == float_mean(n).hex(), n


def test_malformed_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = cli.main(["complexity", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1


def test_missing_key_exit_code(tmp_path):
    code, _, _ = run(tmp_path, "predict", {"system": AP4_SYSTEM})
    assert code == 1


def test_body_needs_n_where_the_command_does_not_read_it(tmp_path, capsys):
    # compare takes no N, but its body is read at the scale N, even a body that carries its own
    cfg = {"system": {"forms": [{"coeffs": [1]}]}, "body": {"dim": 1, "halfspaces": [], "N": 100}}
    code, report, _ = run(tmp_path, "compare", cfg)
    assert code == 1 and report is None
    assert capsys.readouterr().err == "error: config key 'N' required\n"


def test_resource_guard_exit_code(tmp_path, monkeypatch):
    # a guard patched down to 100 and N = 1000: were the guard to stop firing,
    # the test fails on a small table instead of allocating past memory
    monkeypatch.setattr(arith, "TABLE_GUARD", 100)
    cfg = {"N": 1000, "kind": "phase"}
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


def test_gowers_u3_loads_no_module_past_the_cli():
    # the local norm's normaliser thread uses threading, which the CLI import
    # already loads; the row-block kernel uses only numpy modules loaded there
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, affprimes.cli\n"
            "from affprimes import arith, gowers\n"
            "before = set(sys.modules)\n"
            "f = arith.lambda_bw_array(200, 1, arith.w_trick(w=5.0), primed=True) - 1.0\n"
            "gowers.gowers_norm_local(f, 2)\n"
            "print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _spy_allocations(monkeypatch, module=arith, alloc="ones"):
    """The lengths of the np.<alloc> arrays `module` allocates from now on
    (by default arith's np.ones, prime_sieve's among them)."""
    sizes = []

    class Numpy:
        def __getattr__(self, name):
            if name != alloc:
                return getattr(np, name)
            return lambda shape, *args, **kwargs: sizes.append(shape) or getattr(np, name)(shape, *args, **kwargs)

    monkeypatch.setattr(module, "np", Numpy())
    return sizes


def _spy_array_sizes(monkeypatch, *modules):
    """The sizes of the arrays that the numpy functions called from `modules`
    return from now on."""
    sizes = []

    class Numpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if not callable(attr) or isinstance(attr, type):
                return attr

            def spy(*args, **kwargs):
                out = attr(*args, **kwargs)
                if isinstance(out, np.ndarray):
                    sizes.append(out.size)
                return out

            return spy

    for module in modules:
        monkeypatch.setattr(module, "np", Numpy())
    return sizes


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
    # the one table-size guard is arith.prime_sieve's; patched down, no table is allocated
    sieved = _spy_allocations(monkeypatch)
    monkeypatch.setattr(arith, "TABLE_GUARD", 100)
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 2 and report is None
    assert sieved == []
    assert "exceeds the 100 guard" in capsys.readouterr().err


TWIN_50 = {**TWIN_1000, "body": {"dim": 1, "halfspaces": [{"a": [-1], "c": -1}, {"a": [1], "c": 48}]}, "N": 50}


@pytest.mark.parametrize("pmax", [0, -3])
@pytest.mark.parametrize("command, cfg", [
    ("singular-series", {"system": AP4_SYSTEM}),
    ("local-factors", {"system": AP4_SYSTEM}),
    ("predict", TWIN_50),
    ("compare", TWIN_50),
    ("gy-verify", {**TWIN_50, "gamma": 0.3}),
])
def test_pmax_below_1_exits_1(tmp_path, capsys, command, cfg, pmax):
    # refused before the sieve up to pmax, by a message naming the key
    code, report, _ = run(tmp_path, command, {**cfg, "pmax": pmax})
    assert code == 1 and report is None
    assert capsys.readouterr().err == f"error: pmax must be at least 1, not {pmax}\n"


@pytest.mark.parametrize("command, cfg, sieved", [
    ("singular-series", {"system": AP4_SYSTEM, "pmax": 1000}, []),
    ("predict", {**TWIN_50, "pmax": 1000}, []),
    # the count's table, up to 50 + 2, comes first, then the recursive sieves of its sieving primes
    # (up to 7 and 2); nothing near the guard
    ("compare", {**TWIN_50, "pmax": 1000}, [53, 8, 3]),
])
def test_pmax_past_the_table_guard_exits_2(tmp_path, monkeypatch, capsys, command, cfg, sieved):
    # the singular series sieves up to pmax through the same guarded prime_sieve
    allocated = _spy_allocations(monkeypatch)
    monkeypatch.setattr(arith, "TABLE_GUARD", 100)
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 2 and report is None
    assert allocated == sieved
    assert "table of size 1000 exceeds the 100 guard" in capsys.readouterr().err


def test_gy_tables_past_the_table_guard_exit_2(tmp_path, monkeypatch, capsys):
    # pmax is under the guard but the forms reach 1000: gysieve's form-sized
    # weight table is refused before its np.full, as prime_sieve refuses
    filled = _spy_allocations(monkeypatch, gysieve, "full")
    sieved = _spy_allocations(monkeypatch)
    monkeypatch.setattr(arith, "TABLE_GUARD", 100)
    code, report, _ = run(tmp_path, "gy-verify", {**TWIN_1000, "gamma": 0.3, "pmax": 50})
    assert code == 2 and report is None
    assert filled == [] and sieved == []
    assert "table of size 1002 exceeds the 100 guard" in capsys.readouterr().err


TWIN_PM500 = {**TWIN_1000, "body": {"dim": 1, "halfspaces": [{"a": [-1], "c": 500}, {"a": [1], "c": 500}]}, "N": 500}


def test_gy_shifted_table_past_the_table_guard_exits_2(tmp_path, monkeypatch, capsys):
    # twins over [-500, 500]: Lambda's table up to 504 passes the guard, the
    # table shifted by 500 does not, and gy-verify stops before allocating it
    filled = _spy_allocations(monkeypatch, gysieve, "full")
    sieved = _spy_allocations(monkeypatch)
    monkeypatch.setattr(arith, "TABLE_GUARD", 504)
    code, report, _ = run(tmp_path, "gy-verify", {**TWIN_PM500, "gamma": 0.3, "a_list": [1, 2]})
    assert code == 2 and report is None
    assert filled == [] and sieved == []
    assert "table of size 1004 exceeds the 504 guard" in capsys.readouterr().err


def test_gy_verify_where_forms_go_negative(tmp_path):
    # the forms reach -500: the count reads Lambda's even table at shifted
    # arguments, and the report (timing dropped) is pinned by its sha256
    code, report, _ = run(tmp_path, "gy-verify", {**TWIN_PM500, "gamma": 0.3, "a_list": [1, 2]})
    assert code == 0 and report["result"]["volume"] == 1001
    report.pop("timing")
    digest = hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()
    assert digest == "b66155b16b0b7daae76150734ae9d3253759f3b05411b6700911a7412092ea84"


@pytest.mark.parametrize("argv", [
    ["count", "--N", "abc"],
    ["count", "--bogus"],
    ["count", "--threads", "2"],
    ["no-such-command"],
    [],
])
def test_usage_error_exits_1(capsys, argv):
    # argparse's own exit code 2 would read as a resource guard
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("usage: affprimes")


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: affprimes")


def test_w_trick_allocates_nothing_of_size_w_n(tmp_path, monkeypatch):
    # the W-trick reads only its progression W n + b, n <= N: no array of W N entries
    n, wp = 2000, arith.w_trick(w=5.0)
    sizes = _spy_array_sizes(monkeypatch, arith, gysieve, cli)
    assert run(tmp_path, "sieve-check", {"N": n, "gamma": 0.3, "w": 5.0, "b_list": [1, 29]})[0] == 0
    assert run(tmp_path, "gowers", {"N": n, "s": 1, "input": "wtrick", "b": 29})[0] == 0
    gysieve.sharp_gowers_check(n, 29, wp, 1, 0.4)
    assert sizes and max(sizes) < wp.W * n
    sieve = gysieve.build_enveloping_sieve(n, 0.3, 5.0, [7, 11])
    gysieve.domination_constant(sieve)
    assert max(sizes) < wp.W * n
    gysieve.tau_moments(sieve)                  # pairs 7 - 11 and 11 - 7 sieve to sqrt(W N + 4)
    assert max(sizes) < wp.W * n


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
    ("chowla", {"N": 500, "factors": []}, "factors"),
    ("local-factors", {"system": {"coeffs": [1]}}, "system"),
    ("count", {**TWIN_1000, "body": {"halfspaces": [{"a": [-1], "c": -1}]}}, "body"),
    # int() read 0.5 as 0 and 2.7 as 2; a constant form named no key
    ("count", {**TWIN_1000, "system": {"forms": [{"coeffs": [1]}, {"coeffs": [0.5]}]}}, "system"),
    ("count", {**TWIN_1000, "system": {"forms": [{"coeffs": [1]}, {"coeffs": [1], "const": 2.7}]}}, "system"),
    ("count", {**TWIN_1000, "system": {"forms": [{"coeffs": [1]}, {"coeffs": [0]}]}}, "system"),
    # a short b_list raised IndexError (exit 3); a long one, or a long a_list, was cut without a word
    ("count", {**TWIN_1000, "weights": ["lambda_bw"] * 2, "b_list": [1]}, "b_list"),
    ("count", {**TWIN_1000, "weights": ["lambda_bw"] * 2, "b_list": [1, 7, 11]}, "b_list"),
    ("gy-verify", {**TWIN_1000, "gamma": 0.3, "a_list": [1]}, "a_list"),
    ("gy-verify", {**TWIN_1000, "gamma": 0.3, "a_list": [1, 1, 2]}, "a_list"),
    # a declared key is checked where the run does not read it
    ("mn-corr", {"N": 100, "kind": "constant", "alpha": "x"}, "alpha"),
    ("count", {**TWIN_1000, "w": "abc"}, "w"),
    # Fraction("1/0") raised ZeroDivisionError, an internal error (exit 3)
    ("count", {**TWIN_1000, "body": {"dim": 1, "halfspaces": [{"a": [-1], "c": "1/0"}]}}, "body"),
    # a bad factor was refused inside the command, by a message that named no key
    ("chowla", {"N": 500, "factors": [[1, 0], [1.5, 1]]}, "factors"),
    ("chowla", {"N": 500, "factors": [[0, 0]]}, "factors"),
])
def test_wrong_type_exits_1_naming_the_key(tmp_path, capsys, command, cfg, key):
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    if cfg.get("chi") == "bump":
        assert "tent_taper" in err and "normalized_bump" in err


@pytest.mark.parametrize("command, cfg, key, extra", [
    ("mn-corr", {"N": 100, "kind": "phase", "alpha": float("nan")}, "alpha", ()),
    ("mn-corr", {"N": 100, "kind": "phase", "alpha": "nan"}, "alpha", ()),
    ("mn-corr", {"N": 100, "kind": "heisenberg", "theta": "-inf"}, "theta", ()),
    ("gy-verify", {**TWIN_1000, "gamma": float("inf")}, "gamma", ()),
    ("sieve-check", {"N": 1000}, "gamma", ("--gamma", "nan")),
    ("local-factors", {"system": AP4_SYSTEM, "pmax": float("inf")}, "pmax", ()),
])
def test_non_finite_number_exits_1_naming_the_key(tmp_path, capsys, command, cfg, key, extra):
    # json.loads reads NaN and Infinity, float() reads "nan" and "inf"; neither is a value
    code, report, _ = run(tmp_path, command, cfg, extra)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: config key ") and repr(key) in err


@pytest.mark.parametrize("command, cfg, key", [
    ("nil-check", {"trials": 2.9}, "trials"),
    ("nil-check", {"trials": "3"}, "trials"),
    ("local-factors", {"system": AP4_SYSTEM, "pmax": True}, "pmax"),
    ("singular-series", {"system": AP4_SYSTEM, "min_prime": False}, "min_prime"),
    ("gowers", {"N": 16, "s": True, "input": "delta"}, "s"),
    ("count", {**TWIN_1000, "N": True}, "N"),
    ("count", {**TWIN_1000, "N": 1000.0}, "N"),
    ("normalize", {"system": AP4_SYSTEM, "s": 2.0}, "s"),
])
def test_int_key_takes_no_fraction_bool_or_string(tmp_path, capsys, command, cfg, key):
    # int(v) used to truncate 2.9 to 2 trials and read true as pmax 1
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: config key ") and repr(key) in err


def test_int_key_takes_an_integral_float(tmp_path):
    code, report, _ = run(tmp_path, "nil-check", {"trials": 3.0, "seed": 5.0})
    assert code == 0
    assert type(report["result"]["trials"]) is int and report["result"]["trials"] == 3
    assert report["result"]["seed"] == 5


def test_sieve_check_at_infinite_w_exits_1(tmp_path):
    # w = inf never leaves arith.w_trick's prime loop (while p <= w) unless the config is
    # refused first; in a subprocess with a timeout, a regression fails instead of hanging
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"N": 1000, "gamma": 0.3, "w": "inf"}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "affprimes.cli", "sieve-check", "--config", str(cfg_path), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1
    assert out.stderr == "error: config key 'w' must be finite, not inf\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, cfg", [
    ("gowers", {"N": 50, "s": 1, "input": "wtrick", "w": 7}),
    ("sieve-check", {"N": 50, "gamma": 0.3, "w": 7.0}),
    ("count", {**TWIN_50, "weights": ["lambda_bw", "lambda_bw"], "w": 7}),
])
def test_w_trick_past_the_table_guard_exits_2(tmp_path, monkeypatch, capsys, command, cfg):
    # W = 210 residues against a guard patched down to 100: refused before the residue loop
    sieved = _spy_allocations(monkeypatch)
    monkeypatch.setattr(arith, "TABLE_GUARD", 100)
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 2 and report is None
    assert sieved == []
    assert "table of size 210 exceeds the 100 guard" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("count", TWIN_1000),
    ("predict", TWIN_1000),
    ("compare", TWIN_1000),
    ("mobius-corr", TWIN_1000),
    ("gy-verify", {**TWIN_1000, "gamma": 0.3}),
    ("chowla", {"factors": [[1, 0], [0, 1], [1, 1]]}),
    ("gowers", {"s": 1, "input": "delta"}),
    ("gowers", {"s": 1, "input": "wtrick"}),
    ("sieve-check", {"gamma": 0.3, "w": 3.0, "b_list": [1]}),
    ("mn-corr", {"kind": "phase"}),
    ("mn-corr", {"kind": "constant"}),
    ("complexity", {"system": AP4_SYSTEM}),     # N scales a system's times_N constants
])
@pytest.mark.parametrize("n", [0, -1])
def test_scale_below_one_exits_1_naming_n(tmp_path, capsys, command, cfg, n):
    code, report, _ = run(tmp_path, command, {**cfg, "N": n})
    assert code == 1 and report is None
    assert capsys.readouterr().err == f"error: config key 'N' must be at least 1, not {n}\n"


def test_sieve_check_at_r_one_exits_1(tmp_path, capsys):
    # N = 1 passes the N >= 1 check, but R = N^gamma = 1 leaves no sieve
    code, report, _ = run(tmp_path, "sieve-check", {"N": 1, "gamma": 0.3})
    assert code == 1 and report is None
    assert capsys.readouterr().err == "error: R = N^gamma must exceed 1\n"


def test_count_with_w_tricked_weights(tmp_path):
    # the W-tricked weights span the forms' range, as every selector does
    cfg = {**TWIN_1000, "weights": ["lambda_bw", "lambda_prime_bw"], "b_list": [1, 7]}
    code, report, _ = run(tmp_path, "count", cfg)
    assert code == 0
    wp = arith.w_trick(w=5.0)
    want = sum(arith.lambda_bw(n, 1, wp) * arith.lambda_bw(n + 2, 7, wp, primed=True) for n in range(1, 999))
    assert report["result"]["count"] == pytest.approx(want, rel=1e-12) and want > 0


def _strict_json(text):
    """json.loads that refuses NaN and +-Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


TWIN_AT = {   # the twin body 1 <= n <= N - 2 at N = 1 and N = 2
    n: {**TWIN_1000, "body": {"dim": 1, "halfspaces": [{"a": [-1], "c": -1}, {"a": [1], "c": n - 2}]}, "N": n,
        "pmax": 100}
    for n in (1, 2)
}


@pytest.mark.parametrize("command, cfg", [("compare", TWIN_AT[1]), ("predict", {**TWIN_AT[1], "mode": "log_power"})])
def test_log_power_at_n_one_exits_1_naming_n(tmp_path, capsys, command, cfg):
    code, report, _ = run(tmp_path, command, cfg)
    assert code == 1 and report is None
    assert capsys.readouterr().err == "error: the log_power prediction divides by log N: N must be at least 2, not 1\n"


@pytest.mark.parametrize("command, cfg, keys", [
    ("compare", TWIN_AT[2], ("ratio_integral", "ratio_log_power")),
    ("gy-verify", {**TWIN_AT[2], "gamma": 0.3}, ("ratio",)),
])
def test_zero_prediction_writes_null_ratios(tmp_path, command, cfg, keys):
    code, _, out = run(tmp_path, command, cfg)
    assert code == 0
    result = _strict_json((out / "report.json").read_text())["result"]
    assert all(result[k] is None for k in keys)
    assert result.get("predicted", result.get("predicted_integral")) == 0.0


@pytest.mark.parametrize("cfg", [[AP4_SYSTEM], "N system"])
def test_config_must_be_an_object(tmp_path, capsys, cfg):
    code, _, _ = run(tmp_path, "complexity", cfg, extra=["--pmax", "10"])
    assert code == 1
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [TypeError("a\nb"), AssertionError("broken invariant"), ZeroDivisionError(), KeyError()])
def test_internal_fault_exits_3(tmp_path, monkeypatch, capsys, exc):
    def fault(*args, **kwargs):
        raise exc

    monkeypatch.setattr(forms, "complexity", fault)
    code, report, _ = run(tmp_path, "complexity", {"system": AP4_SYSTEM})
    assert code == 3 and report is None
    err = capsys.readouterr().err
    assert err.startswith("internal error: " + type(exc).__name__) and err.count("\n") == 1


def test_chowla_refuses_a_non_integral_factor(tmp_path, capsys):
    # [1.5, 1] was read as [1, 1] and cancelled against the real [1, 1]
    code, report, _ = run(tmp_path, "chowla", {"N": 500, "factors": [[1, 0], [1, 1], [1.5, 1]]})
    assert code == 1 and report is None
    assert "1.5" in capsys.readouterr().err


def test_integral_floats_and_times_n_read_as_integers(tmp_path):
    twins = {**TWIN_1000, "system": {"forms": [{"coeffs": [1.0]}, {"coeffs": [1], "const": 2.0}]}}
    code, report, _ = run(tmp_path, "count", twins)
    assert code == 0 and report["result"]["count"] == 35
    assert report["result"]["system"]["forms"][1] == {"coeffs": [1], "const": 2}
    # n -> N - n maps the twins n, n + 2 with 1 <= n <= 998 to those with 2 <= n <= 999: the same 35
    reflected = {"forms": [{"coeffs": [-1], "const": {"times_N": 1}}, {"coeffs": [-1.0], "const": 1002.0}]}
    code, report, _ = run(tmp_path, "count", {**twins, "system": reflected})
    assert code == 0 and report["result"]["count"] == 35


def test_readme_lists_every_key_of_every_command():
    # one README line per subcommand: "* `name`: `key` kind = default; `key` kind; ..."
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    for name, cmd in cli.COMMANDS.items():
        (line,) = re.findall(rf"^\* `{name}`: (.*)$", readme, re.MULTILINE)
        keys = [re.match(r"`(\w+)`", item).group(1) for item in line.split("; ")]
        assert keys == list(inspect.signature(cmd).parameters), name
