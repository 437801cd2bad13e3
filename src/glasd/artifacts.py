"""Reading and writing of run artifacts: CSV tables, JSON records, config files.

Every CSV table goes through :func:`write_csv`, whose floats carry 17
significant digits so they round-trip exactly.  JSON records are written with
sorted keys, making reruns with the same seed byte-comparable apart from
explicitly runtime-valued fields.
"""

from __future__ import annotations

import configparser
import itertools
import json
import os
import typing

import numpy as np

from .errors import ConfigError
from .losses import LOSS_KINDS, LossSpec
from .optimizer import OptimizerConfig
from .simulate import (
    ContaminationSpec,
    ScenarioSpec,
    StructureSpec,
)


def fmt(x: float) -> str:
    """17-significant-digit text form; round-trips any float64 exactly."""
    return format(float(x), ".17g")


def _cell(value) -> str:
    return fmt(value) if isinstance(value, (float, np.floating)) else str(value)


def write_csv(path, header, rows) -> None:
    """The header line, then one line per row; floats by :func:`fmt`, every
    other cell by ``str``."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in itertools.chain([header], rows):
            fh.write(",".join(map(_cell, line)) + "\n")


def write_matrix_csv(path, C: np.ndarray, names: list[str]) -> None:
    write_csv(path, names, np.asarray(C, dtype=float).tolist())


def write_angles_csv(path, angles: np.ndarray) -> None:
    """Flat single-row CSV of an angle vector in canonical row order."""
    write_csv(path, np.asarray(angles, dtype=float).tolist(), [])


def write_trace_csv(path, trace: np.ndarray) -> None:
    write_csv(path, ["iteration", "evaluations", "f_best"], trace.tolist())


def write_heatmap_csv(path, C: np.ndarray, names: list[str]) -> None:
    """Long-format p*p rows (name_i, name_j, value) for external plotting."""
    C = np.asarray(C, dtype=float).tolist()
    write_csv(path, ["name_i", "name_j", "value"],
              ([ni, nj, C[i][j]] for i, ni in enumerate(names) for j, nj in enumerate(names)))


def _json_default(obj):
    """numpy arrays and scalars as Python values; anything else fails as in json."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def ensure_outdir(out, record_name: str, force: bool) -> str:
    """Refuse to clobber an existing run record; return ``out``.

    Creates nothing: a command checks before its work and creates the
    directory only once it has results to write, so a failed run leaves none.
    """
    record_path = os.path.join(out, record_name)
    if os.path.exists(record_path) and not force:
        raise ConfigError(
            f"{record_path} already exists; pass --force to overwrite"
        )
    return out


# ---------------------------------------------------------------------------
# config files (INI: flat key/value entries grouped into sections)

def _read_ini(path) -> configparser.ConfigParser:
    """Parsed UTF-8 INI file, a leading byte-order mark dropped; ``;`` after
    whitespace starts a comment, also after a value, and ``%`` is a plain
    character.  A file that does not parse is a ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return parser


def _list_of(item, count=None):
    """Schema type: a comma-separated list of ``item`` values, as a tuple;
    exactly ``count`` of them when ``count`` is given."""
    def parse(raw):
        values = tuple(item(tok.strip()) for tok in raw.split(",") if tok.strip())
        if count is not None and len(values) != count:
            raise ValueError(f"{count} values needed, {len(values)} given")
        return values
    return parse


def _field_types(cls) -> dict:
    """Field name -> INI type of a dataclass: ``None`` dropped from each
    union, and a ``tuple[...]`` read by :func:`_list_of`, fixed-length unless
    it ends in ``...``."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple:
            out[name] = _list_of(args[0], None if args[-1] is Ellipsis else len(args))
        else:
            out[name] = next((a for a in args if a is not type(None)), hint)
    return out


_OPTIMIZER_KEYS = _field_types(OptimizerConfig)
_STRUCTURE_KEYS = _field_types(StructureSpec)
_CONTAMINATION_KEYS = _field_types(ContaminationSpec)
# [scenario] holds the ScenarioSpec fields that are not nested specs, the
# structure's p, and the losses as kind names under one threshold policy
_SCENARIO_KEYS = {
    **{name: typ for name, typ in _field_types(ScenarioSpec).items()
       if name not in ("structure", "contamination", "optimizer")},
    "p": _STRUCTURE_KEYS.pop("p"), "losses": _list_of(str), "threshold": str,
}


def _parse_section(section, schema, where):
    out = {}
    for key in section:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{where}]")
        typ = schema[key]
        raw = section[key]
        try:
            out[key] = section.getboolean(key) if typ is bool else typ(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value {raw!r} for {where}.{key}") from exc
    return out


def _optimizer_section(parser) -> dict:
    """The [optimizer] section as OptimizerConfig kwargs; its keys are the
    OptimizerConfig fields, which hold no seed."""
    if "optimizer" not in parser:
        return {}
    return _parse_section(parser["optimizer"], _OPTIMIZER_KEYS, "optimizer")


def load_optimizer_overrides(path) -> dict:
    """Read the [optimizer] section of an INI file into OptimizerConfig kwargs."""
    return _optimizer_section(_read_ini(path))


def optimizer_config_from(overrides: dict) -> OptimizerConfig:
    """OptimizerConfig from checked keyword values; a bad value is a ConfigError."""
    try:
        return OptimizerConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario_config(path) -> ScenarioSpec:
    """Build a ScenarioSpec from an INI file; unknown keys or values fail.

    Each key is the spec field it sets, a tuple field read as a
    comma-separated list, and ``p`` sits in [scenario].  Only the keys the
    file sets are passed on, so every other field keeps the default of its
    dataclass.  The losses default to every loss kind, each under the
    ``threshold`` policy (``iqr`` by default).
    """
    parser = _read_ini(path)
    unknown = set(parser.sections()) - {"scenario", "structure", "contamination", "optimizer"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "scenario" not in parser or "structure" not in parser:
        raise ConfigError("config needs [scenario] and [structure] sections")

    sc = _parse_section(parser["scenario"], _SCENARIO_KEYS, "scenario")
    st = _parse_section(parser["structure"], _STRUCTURE_KEYS, "structure")
    co = (_parse_section(parser["contamination"], _CONTAMINATION_KEYS, "contamination")
          if "contamination" in parser else {})
    opt = _optimizer_section(parser)
    if "kind" not in st:
        raise ConfigError("structure section needs a 'kind'")
    if "p" not in sc or "n" not in sc:
        raise ConfigError("scenario section needs 'p' and 'n'")

    threshold = sc.pop("threshold", "iqr")
    losses = tuple(make_loss_spec(kind, threshold) for kind in sc.pop("losses", LOSS_KINDS))
    try:
        return ScenarioSpec(
            structure=StructureSpec(p=sc.pop("p"), **st),
            contamination=ContaminationSpec(**co),
            losses=losses,
            optimizer=optimizer_config_from(opt),
            **sc,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_loss_spec(kind: str, threshold: str) -> LossSpec:
    """LossSpec from CLI-style strings: threshold is 'iqr', 'iqr-pilot', or a number."""
    if threshold in ("iqr", "iqr-auto"):
        threshold = "iqr-auto"
    elif threshold != "iqr-pilot":
        try:
            threshold = float(threshold)
        except ValueError:
            raise ConfigError(f"bad threshold {threshold!r}") from None
    try:
        return LossSpec(kind, threshold)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
