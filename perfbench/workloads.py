"""The benchmark's workloads: which operations run, on which inputs, and how
each operation's output is checked.

An operation ("op") is either an `affprimes.cli.main([...])` subcommand run
in-process on a config from `configs/`, or a direct call to a public library
function that no subcommand reaches.  Configs are fixed; the workload seed
picks only the seeded inputs (see `seeded_inputs`).
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
GOLDENS = HERE / "goldens.json"

# Units mod W = 30 (w = 5): the W-trick residues b the seed chooses from.
W30_RESIDUES = (1, 7, 11, 13, 17, 19, 23, 29)

# Criterion-4 brackets on the integral-refined Hardy-Littlewood ratio.
AP3_BRACKET = (0.95, 1.05)
AP4_BRACKET = (0.90, 1.10)


def seeded_inputs(seed):
    """The only inputs the workload seed changes."""
    rng = random.Random(seed)
    return {
        "b": rng.choice(W30_RESIDUES),
        "nil_seed": rng.getrandbits(32),
        "mc_seed": rng.getrandbits(32),
    }


# ---------------------------------------------------------------------------
# output checks (each returns None when the output passes, else a reason)


def _ratio_in(lo, hi):
    def check(out, inputs):
        r = out["ratio_integral"]
        if not lo <= r <= hi:
            return f"ratio_integral {r} outside criterion-4 bracket [{lo}, {hi}]"
    return check


def _nil_check(out, inputs):
    if out["seed"] != inputs["nil_seed"]:
        return f"seed {out['seed']} was not the workload's {inputs['nil_seed']}"
    if out["hk_success"] != out["trials"] or out["quadratic_phase_exact"] != out["trials"]:
        return f"HK success {out['hk_success']} / quadratic {out['quadratic_phase_exact']} of {out['trials']}"


def _sieve_mean(out, inputs):
    if abs(out["measure"] - 1.0) > 0.1:
        return f"sieve mean {out['measure']} not within 0.1 of 1"


def _lf_montecarlo(out, inputs):
    # Criterion 9: the linear-forms deviation of nu at N = 1e5 is at most 0.2.
    if out["method"] != "montecarlo":
        return f"route {out['method']!r}, expected montecarlo"
    if not (out["deviation"] <= 0.2 and 0 < out["stderr"] < 0.01):
        return f"deviation {out['deviation']} (stderr {out['stderr']})"


# ---------------------------------------------------------------------------
# library ops (no CLI subcommand reaches these calls)


def _sieve(cfg, b):
    from affprimes import arith, gysieve

    wp = arith.w_trick(w=cfg["w"])
    tables = arith.build_tables(wp.W * cfg["N"] + b + 2)
    sieve = gysieve.build_enveloping_sieve(
        cfg["N"], cfg["gamma"], cfg["w"], [b], cfg["C"], tables=tables
    )
    return sieve, tables


def lib_tau_moments(cfg, inputs):
    from affprimes import gysieve

    sieve, tables = _sieve(cfg, inputs["b"])
    return {str(q): v for q, v in gysieve.tau_moments(sieve, tables).items()}


def lib_lf_montecarlo(cfg, inputs):
    from affprimes import forms, gysieve

    sieve, _ = _sieve(cfg, inputs["b"])
    res = gysieve.linear_forms_check(sieve, forms.ap_system(4), seed=inputs["mc_seed"])
    return {
        "deviation": res.deviation,
        "expectation": res.expectation,
        "method": res.method,
        "stderr": res.stderr,
    }


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Op:
    name: str
    config: str
    command: str = None          # CLI subcommand; None for a library call
    call: object = None          # library call (cfg, inputs) -> output
    overrides: tuple = ()        # (config key, seeded input, wrap in list)
    golden: str = "fixed"        # "fixed", "b" (one golden per residue) or None
    check: object = None         # paper criterion, (output, inputs) -> reason

    def config_for(self, inputs):
        cfg = json.loads((CONFIGS / f"{self.config}.json").read_text())
        for key, source, as_list in self.overrides:
            cfg[key] = [inputs[source]] if as_list else inputs[source]
        return cfg

    def golden_key(self, inputs):
        return f"b={inputs['b']}" if self.golden == "b" else self.golden


WORKLOADS = {
    # The paper's headline experiment: prime progressions against the
    # Hardy-Littlewood prediction.  Sparse counting, archimedean enumeration
    # and both integral routes (quadrature at N = 5e4, exact at N = 1e4) do
    # most of the work; tables are small.  The Vinogradov form N - n1 - n2 is
    # listed before n2 so that it drives the sparse path with coefficient -1.
    "hl-progressions": (
        Op("compare-ap3-5e4", "hl_ap3_5e4", "compare", check=_ratio_in(*AP3_BRACKET)),
        Op("compare-ap4-5e4", "hl_ap4_5e4", "compare", check=_ratio_in(*AP4_BRACKET)),
        Op("compare-ap4-1e4", "hl_ap4_1e4", "compare", check=_ratio_in(*AP4_BRACKET)),
        Op("compare-twins-2e5", "hl_twins_2e5", "compare"),
        Op("count-vinogradov-5e4", "hl_vinogradov_5e4", "count"),
    ),
    # The same counting and geometry layers used differently: the dense +-1
    # driver, dim-2 vectorised runs and dim-3 recursive runs; no sparse
    # driver and no predict.
    "mobius-box": (
        Op("mobius-corr-mu-ap4", "mb_mu_ap4_2e4", "mobius-corr"),
        Op("mobius-corr-lambda-ap4", "mb_lambda_ap4_2e4", "mobius-corr"),
        Op("chowla-3000", "mb_chowla_3000", "chowla"),
        Op("count-mu-cube3", "mb_mu_cube3_300", "count"),
    ),
    # Table build and memory weigh most: every op builds tables up to
    # W*N + b = 3e6.  The only workload that reaches gysieve and gowers.
    "sieve-gowers": (
        Op("sieve-check", "sg_sieve_1e5", "sieve-check",
           overrides=(("b_list", "b", True),), golden="b", check=_sieve_mean),
        Op("gowers-u2-1e5", "sg_gowers_u2_1e5", "gowers",
           overrides=(("b", "b", False),), golden="b"),
        Op("gowers-u3-1000", "sg_gowers_u3_1000", "gowers",
           overrides=(("b", "b", False),), golden="b"),
        Op("gy-verify-twins", "sg_gy_twins_1e5", "gy-verify"),
        Op("tau-moments", "sg_sieve_1e5", call=lib_tau_moments, golden="b"),
        Op("linear-forms-montecarlo", "sg_sieve_1e5", call=lib_lf_montecarlo,
           golden=None, check=_lf_montecarlo),
    ),
    # Pure-Python exact rationals: many small calls, little numpy.  The only
    # workload that measures forms, linalg and nilseq.
    "exact-algebra": (
        Op("complexity-cube4", "ea_complexity_cube4", "complexity"),
        Op("normalize-ap6", "ea_normalize_ap6", "normalize"),
        Op("local-factors-ap4", "ea_local_factors_ap4", "local-factors"),
        Op("singular-series-cube4", "ea_singular_series_cube4", "singular-series"),
        Op("nil-check", "ea_nil_check", "nil-check",
           overrides=(("seed", "nil_seed", False),), golden=None, check=_nil_check),
        Op("mn-corr-heisenberg", "ea_mn_corr_heisenberg", "mn-corr"),
    ),
}


# ---------------------------------------------------------------------------
# golden comparison


def normalize(op, out):
    """Drop the fields that legitimately differ between runs."""
    if op.command == "compare":
        out["meta"].pop("seconds", None)
    return out


def mismatch(got, want, path="$"):
    """First difference between an output and its golden, or None.

    Floats agree to 1e-9 relative; everything else must be equal.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for k in sorted(want):
            diff = mismatch(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = mismatch(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got):
            return None
        if abs(got - want) <= 1e-9 * abs(want):
            return None
        return f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


def load_goldens():
    return json.loads(GOLDENS.read_text())
