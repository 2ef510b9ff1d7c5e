"""Every perfbench config's report.json, pinned by sha256.

The CLI runs in process on each of the 19 configs in perfbench/configs, read
as they are (without the workload seed's overrides).  Each report is hashed
after dropping what differs between runs: its "timing" and the "seconds" in
its result's "meta".  Bit reproducibility is a documented property, so a pin
that moves is a changed output.  A change that means to change an output
re-pins the configs it moves in the same change, with a line in CHANGES.md
saying which outputs moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from affprimes import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PINS = {
    "ea_complexity_cube4": "81ef317f66cd33b213106a1ab76c1a78aea43fc6be05c5e25eb9fab5d91e0aec",
    "ea_local_factors_ap4": "6abd3937913abe3ca422b2ab4de53160958f75c4357154422a5789c2a050877a",
    "ea_mn_corr_heisenberg": "fce3e466935dd2879353c359c49f2b92817770820ccab694c876b79a42258781",
    "ea_nil_check": "da1e175319822858139e13d8d9ba2c34981f24f2364265d4ea5d51743706acf1",
    "ea_normalize_ap6": "e056a28d444f0da0f223af02e7f85cd94e70448166ef93854e80cdfb4d3683af",
    "ea_singular_series_cube4": "362b0a7bd9ec5ce8c79ffabd27594091d42af66ad2ac16ded6cd7d0253e1ba83",
    "hl_ap3_5e4": "b50b43c6169d421aacd10b0baa57971757a01f94864368e159bbf441f515f0a4",
    "hl_ap4_1e4": "7533d173c3f4c43c290957b1e2e20a05a26bbbbdd845527c86a9b44a115cd8e4",
    "hl_ap4_5e4": "05475e1f5cc3b40acb9509d3feeef2020640028397f31ba36777d4241294cc3b",
    "hl_twins_2e5": "73dddb23203323618247aa1c8673801dcdb47ad6b77070564a092f63ed743e84",
    "hl_vinogradov_5e4": "1ee9615333235d3c406cb3e2d364376f3ca44c92e6a9131c04645c974df467d2",
    "mb_chowla_3000": "58d2313c2563906ba56f26d0928890af86dfa7b418e1101e45977a1efc9b8779",
    "mb_lambda_ap4_2e4": "f6d0fcbcfb26a407fe5a954a77a855691e05562952a3528d4230f7bfb29731e0",
    "mb_mu_ap4_2e4": "cc40840ba5d3f9e85362e1e0767e468f353a23ef5cfc51c6044a4df6e1550a76",
    "mb_mu_cube3_300": "83dc7843324b75d756a54305a03926ab0f7ce306aca1ca2727d1e5bdfd9c4fcc",
    "sg_gowers_u2_1e5": "5c0311bd9669166bb45e68a93c97828b7c0edfed7c9f572458cc132a4f7880e4",
    "sg_gowers_u3_1000": "f0ca3a4c4407c5a3738e83cfdb8856f9c5ec28332d165656efabb9518bcc8e05",
    "sg_gy_twins_1e5": "b1e2d19ef0365988c4da3ca7c280095f3c8601ac200cee07cc49878474e147ce",
    "sg_sieve_1e5": "26241c6def8ee12ad71f65543ffe75fda0f4de384801ef175b85aba98986bfb0",
}


def _commands():
    """{config name: CLI subcommand} from the benchmark's workloads."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return {op.config: op.command for ops in workloads.WORKLOADS.values() for op in ops if op.command}


COMMANDS = _commands()


def test_every_config_is_pinned():
    assert sorted(p.stem for p in (PERFBENCH / "configs").glob("*.json")) == sorted(PINS) == sorted(COMMANDS)
    assert len(PINS) == 19


def _report_digest(report):
    report.pop("timing")
    meta = report["result"].get("meta") if isinstance(report["result"], dict) else None
    if isinstance(meta, dict):
        meta.pop("seconds", None)
    return hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_report_bytes_pinned(tmp_path, name):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([COMMANDS[name], "--config", str(PERFBENCH / "configs" / f"{name}.json"),
                         "--out", str(tmp_path)])
    assert code == 0
    assert _report_digest(json.loads((tmp_path / "report.json").read_text())) == PINS[name]


def test_digest_drops_only_the_timings():
    def report(seconds, meta_seconds, ratio):
        return {"command": "compare", "config": {}, "timing": {"seconds": seconds},
                "result": {"meta": {"seconds": meta_seconds, "N": 5}, "ratio": ratio}}

    assert _report_digest(report(2.0, 1.0, 0.5)) == _report_digest(report(9.0, 7.0, 0.5))
    assert _report_digest(report(2.0, 1.0, 0.5)) != _report_digest(report(2.0, 1.0, 0.5000000000000001))
