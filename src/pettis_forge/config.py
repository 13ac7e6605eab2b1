"""JSON configuration and archive handling for the CLI.

Config schema:

    {
      "model": {
        "kind": "pettis" | "continuous",        # default "pettis"
        "psi": {"family": ..., "exponent"|"epsilon"|...},
        "K": 1.0,
        "p": 2.0 | "inf",
        "rule": {"kind": "affine", "a": 1, "b": 0} | {"kind": "list", "list": [...]},
        "depth": 24,
        "carriers": {"scheme": "greedy-gap"},   # "params": {} is accepted, nothing else
        "archive": "path.json"                  # alternative to the fields above
      },
      "campaign": {"kind": ..., "samples": ..., "seed": ..., ...}
    }

An archive holds the model's generator: its config (above), plus the
coefficient table for a pettis model, which is checked against the rebuilt
schedule, and the carrier sets of an explicit family.  Carrier sets found
in a config or archive are treated as untrusted input: they are verified
for disjointness, containment, and positivity before any model is built on
top of them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

from .campaigns import CampaignConfig
from .carriers import CarrierFamily, DisjointnessReport, allocate_carriers, verify_disjointness
from .continuous import ContinuousModel, build_continuous_model
from .errors import ConfigError, PettisForgeError
from .pettis import PettisModel, build_model
from .psi import PsiSpec, SequenceRule, parse_exponent, parse_number


def load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return obj


def build_carriers_from_config(obj: Mapping | None, depth: int) -> CarrierFamily:
    obj = dict(obj or {})
    if "sets" in obj:
        family = CarrierFamily.from_json({"depth": obj.get("depth", depth), **obj})
        _require_sound(family)
        return family
    # Older configs and archives carry an empty "params"; no scheme reads one.
    if obj.get("params", {}) != {}:
        raise ConfigError(f"carrier params must be {{}} if given, got {obj['params']!r}")
    return allocate_carriers(depth, str(obj.get("scheme", "greedy-gap")))


def _require_sound(family: CarrierFamily) -> DisjointnessReport:
    """The family's disjointness report, or a ConfigError naming its first violation."""
    report = verify_disjointness(family)
    if not report.passed:
        first = report.violations[0]
        raise ConfigError(f"disjointness violated: {first}")
    return report


def gauge_from_config(obj: Mapping) -> tuple[PsiSpec, SequenceRule, float, int]:
    """The gauge, level rule, norm exponent p and depth of a model object:
    what its growth certificate is built from.

    p is a model setting (default 2).  Older configs and archives also
    carry a gauge "p"; it is validated, and read only when the model has
    no "p".  The depth is a JSON integer, default 24.
    """
    for key in ("psi", "rule"):
        if key in obj and not isinstance(obj[key], Mapping):
            raise ConfigError(f"model {key} must be an object, got {obj[key]!r}")
    if "psi" not in obj:
        raise ConfigError("model config missing 'psi'")
    p = parse_exponent(obj["psi"].get("p", 2.0))
    if "p" in obj:
        p = parse_exponent(obj["p"])
    rule = SequenceRule.from_json(obj.get("rule", {"kind": "affine"}))
    depth = obj.get("depth", 24)
    if type(depth) is not int:
        raise ConfigError(f"model depth must be an integer, got {depth!r}")
    return PsiSpec.from_json(obj["psi"]), rule, p, depth


def build_model_from_config(obj: Mapping) -> PettisModel | ContinuousModel:
    if "archive" in obj:
        return load_archive(obj["archive"])
    kind = str(obj.get("kind", "pettis"))
    if "carriers" in obj and not isinstance(obj["carriers"], Mapping):
        raise ConfigError(f"model carriers must be an object, got {obj['carriers']!r}")
    psi, rule, p, depth = gauge_from_config(obj)
    K = parse_number(obj.get("K", 1.0), "K")
    if kind == "continuous":
        return build_continuous_model(psi, K=K, rule=rule, depth=depth)
    if kind != "pettis":
        raise ConfigError(f"unknown model kind {kind!r}")
    carriers = build_carriers_from_config(obj.get("carriers"), depth)
    return build_model(carriers, psi, K=K, p=p, rule=rule, depth=depth)


def build_campaign_from_config(obj: Mapping, kind: str | None = None) -> CampaignConfig:
    obj = dict(obj or {})
    if kind is not None:
        obj["kind"] = kind
    if "kind" not in obj:
        raise ConfigError("campaign config needs a 'kind'")
    known = {f for f in CampaignConfig.__dataclass_fields__}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown campaign fields: {sorted(unknown)}")
    if "t_grid" in obj:
        if not isinstance(obj["t_grid"], (list, tuple)):
            raise ConfigError(f"campaign t_grid must be a list, got {obj['t_grid']!r}")
        obj["t_grid"] = tuple(parse_number(t, "campaign t_grid point") for t in obj["t_grid"])
    if "interval" in obj:
        iv = obj["interval"]
        if not (isinstance(iv, (list, tuple)) and len(iv) == 2):
            raise ConfigError(f"campaign interval must be [lo, hi], got {iv!r}")
        obj["interval"] = tuple(parse_number(x, "campaign interval bound") for x in iv)
    try:
        return CampaignConfig(**obj)
    except TypeError as exc:
        raise ConfigError(f"bad campaign config: {exc}") from exc


# ---------------------------------------------------------------------------
# Archives
# ---------------------------------------------------------------------------


def archive_model(model: PettisModel | ContinuousModel) -> dict:
    """The model's generator as a JSON bundle.

    A continuous archive is {kind, config}.  A pettis archive adds the
    coefficient table, which ``load_archive`` compares with the rebuilt
    schedule.  A built-in carrier family is named by the config's scheme
    and rebuilt bit for bit, so only an explicit family adds a ``carriers``
    block with its sets, and those sets are verified on load.
    """
    if isinstance(model, ContinuousModel):
        return {"kind": "continuous", "config": model.config_json()}
    out = {"kind": "pettis", "config": model.config_json(), "table": model.table.to_json()}
    if model.carriers.sets is not None:
        out["carriers"] = model.carriers.to_json()
    return out


def write_archive(model: PettisModel | ContinuousModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(archive_model(model), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_archive(path: str | Path) -> PettisModel | ContinuousModel:
    obj = load_json(path)
    kind = obj.get("kind")
    config = obj.get("config")
    if not isinstance(config, Mapping):
        raise ConfigError(f"archive {path} has no model config")
    if "archive" in config:  # write_archive never writes one; it could name this file
        raise ConfigError(f"archive {path} config names another archive")
    if kind == "continuous":
        return build_model_from_config(config)
    if kind != "pettis":
        raise ConfigError(f"archive {path} has unknown kind {kind!r}")
    carriers_obj = obj.get("carriers")
    model_cfg = dict(config)
    if isinstance(carriers_obj, Mapping) and "sets" in carriers_obj:
        model_cfg["carriers"] = dict(carriers_obj)
    model = build_model_from_config(model_cfg)
    table_obj = obj.get("table")
    if isinstance(table_obj, Mapping) and isinstance(model, PettisModel):
        _check_table(model, table_obj, path)
    return model


def _check_table(model: PettisModel, table_obj: Mapping, path: str | Path) -> None:
    levels = table_obj.get("levels")
    if levels is not None and levels != list(model.table.levels):
        raise ConfigError(f"archive {path} table levels disagree with its config")
    coeffs = table_obj.get("coeffs")
    if isinstance(coeffs, Mapping):
        for m_str, c in coeffs.items():
            if not m_str.isdecimal():
                raise ConfigError(f"archive {path} table level {m_str!r} is not an integer")
            mine = model.table.coefficient(int(m_str))
            theirs = parse_number(c, f"archive {path} coefficient at level {m_str}")
            # 1e-12 admits libm drift: coefficients are 2K*psi(s), and psi calls pow (ROADMAP item 17)
            if not math.isclose(mine, theirs, rel_tol=1e-12, abs_tol=1e-300):
                raise ConfigError(
                    f"archive {path} coefficient at level {m_str} disagrees with its config"
                )


__all__ = [
    "load_json",
    "gauge_from_config",
    "build_model_from_config",
    "build_campaign_from_config",
    "build_carriers_from_config",
    "archive_model",
    "write_archive",
    "load_archive",
    "ConfigError",
    "PettisForgeError",
]
