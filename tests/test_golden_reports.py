"""Golden report digests: small reference reports keep their exact bytes.

Each case builds its model and campaign from a config mapping, the way the
CLI does, runs the campaign and renders the JSON report (rows and summary).
The SHA-256 of that text is pinned, so any change to an enclosure, a
coefficient, a sampler or the float formatting shows up as a digest change.
A psi-validate case reads its gauge, exponent, rule and depth from the
mapping with ``gauge_from_config``, as ``pettis-forge psi validate`` does.
"""

import hashlib

import pytest

from pettis_forge import CarrierFamily, allocate_carriers, campaigns
from pettis_forge.config import (
    build_campaign_from_config,
    build_model_from_config,
    gauge_from_config,
)

_REF = {
    "kind": "pettis",
    "psi": {"family": "power", "exponent": 0.75},
    "K": 1.0,
    "p": 2.0,
    "rule": {"kind": "affine", "a": 1, "b": 0},
    "depth": 24,
    "carriers": {"scheme": "greedy-gap"},
}
_D16 = {**_REF, "depth": 16}
_LOWER = {"kind": "lower-bound", "samples": 2000, "dyadic_level": 8, "seed": 11}


def _explicit_carriers(scheme, depth):
    """The carriers block of an explicit copy of a built-in family."""
    family = allocate_carriers(depth, scheme)
    return CarrierFamily.from_sets(depth, {nk: family.carrier(*nk) for nk in family.cells()}).to_json()


_RUNNERS = {
    campaigns.LOWER_BOUND: campaigns.run_lower_bound_sweep,
    campaigns.PAIRING: campaigns.run_pairing_check,
    campaigns.BLOWUP: campaigns.run_blowup,
    campaigns.HALFPOWER: campaigns.run_halfpower_statistic,
    campaigns.BOCHNER: campaigns.run_bochner_divergence,
    campaigns.CONTINUOUS: campaigns.run_continuous_campaign,
}

# id -> (model config, campaign config, SHA-256 of the JSON report)
GOLDEN = {
    "lower-bound-greedy-d16-p2": (
        _D16,
        _LOWER,
        "bcc18f6486efcb78557c1d1add5021299491db3c18301ad926dd66d456e27177",
    ),
    "lower-bound-greedy-d16-p3": (
        {**_D16, "p": 3.0},
        _LOWER,
        "f284031c9aa07e529e929e11ddfbdaf18b73357595a5a3257baeea3aa2eac173",
    ),
    "lower-bound-greedy-d16-pinf": (
        {**_D16, "p": "inf", "psi": {"family": "power", "exponent": 0.25},
         "rule": {"kind": "affine", "a": 4, "b": 0}},
        _LOWER,
        "8b251396c340c6a97a72598b7829f533e644060613ab492410054bcfbd7cc671",
    ),
    "lower-bound-stratified-d16": (
        {**_D16, "carriers": {"scheme": "stratified"}},
        _LOWER,
        "93a1dfbdeeb464e66142141e8800edb69be1d591b0ccd5d67ae7e7443b391b3c",
    ),
    # the sweep's explicit-family branch, which clips with overlap and
    # carrier_measure; level 5 is the deepest above the depth-8 measure floor
    "lower-bound-explicit-greedy-d8": (
        {**_REF, "depth": 8, "carriers": _explicit_carriers("greedy-gap", 8)},
        {**_LOWER, "dyadic_level": 5},
        "b1bef103333b3024b42506f0a6facb266e545bbb40cdaf37a468f900ac315863",
    ),
    "pairing-stratified-d8": (
        {**_REF, "depth": 8, "carriers": {"scheme": "stratified"}},
        {"kind": "pairing", "samples": 30, "sets": 6, "seed": 13},
        "a507e55c6c1e3e1b64856c5f05f9fe1d98da44e46632e436dbffc7213b539e73",
    ),
    "blowup-ref24": (
        _REF,
        {"kind": "blowup"},
        "a2395b7c6cdedad3e93cd9b6b3ca2320c847f2fce5af7bf00304dda19d60addc",
    ),
    "halfpower-ref24": (
        _REF,
        {"kind": "halfpower", "samples": 12, "j_min": 8, "j_max": 20, "seed": 17},
        "be88236a602c9fdd128a5e88b3ef7c57584f79ad335c8722352a8e161b120e7c",
    ),
    "bochner-ref24": (
        _REF,
        {"kind": "bochner", "interval": [0.25, 0.5]},
        "a09fa04fa7da899d664cc92443b23c2a1c017c8f7915a6560e9da077a5389162",
    ),
    "continuous-ref9": (
        {"kind": "continuous", "psi": {"family": "power", "exponent": 0.25}, "K": 1.0,
         "rule": {"kind": "affine", "a": 4, "b": 0}, "depth": 9},
        {"kind": "continuous", "samples": 2000},
        "7c3b4e3c965a036c604997ff7a2533fddded1af896779aee9fd7460b0873d934",
    ),
    "psi-validate-power34": (
        {"psi": {"family": "power", "exponent": 0.75}, "p": 2.0, "rule": {"kind": "affine"}},
        {"kind": "psi-validate"},
        "5140d789fa834ba1d775bc19baf4d12505d12a81b8b68e18d0dd009414dd83f6",
    ),
}


def _report_sha256(model_cfg, campaign_cfg):
    cfg = build_campaign_from_config(campaign_cfg)
    if cfg.kind == campaigns.PSI_VALIDATE:
        spec, rule, p, depth = gauge_from_config(model_cfg)
        report = campaigns.run_psi_validate(spec, p, rule, depth)
    else:
        report = _RUNNERS[cfg.kind](build_model_from_config(model_cfg), cfg)
    assert report.passed
    return hashlib.sha256(report.render("json").encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_report_digest(case):
    model_cfg, campaign_cfg, digest = GOLDEN[case]
    assert _report_sha256(model_cfg, campaign_cfg) == digest
