"""Reading and writing of run artifacts: CSV tables, JSON records, config files.

Machine formats carry 17 significant digits so written floats round-trip
exactly.  JSON records are written with sorted keys, making reruns with the
same seed byte-comparable apart from explicitly runtime-valued fields.
"""

from __future__ import annotations

import configparser
import json
import os
import typing
from dataclasses import asdict

import numpy as np

from .errors import ConfigError, MalformedDataError
from .losses import LossSpec
from .optimizer import OptimizerConfig
from .simulate import (
    ContaminationSpec,
    ScenarioSpec,
    StructureSpec,
)


def fmt(x: float) -> str:
    """17-significant-digit text form; round-trips any float64 exactly."""
    return format(float(x), ".17g")


def write_matrix_csv(path, C: np.ndarray, names: list[str]) -> None:
    C = np.asarray(C, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in C:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise MalformedDataError(f"{path}: empty file")
    names = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return np.asarray(rows, dtype=float), names


def write_angles_csv(path, angles: np.ndarray) -> None:
    """Flat single-row CSV of an angle vector in canonical row order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(fmt(v) for v in np.asarray(angles, dtype=float)) + "\n")


def write_trace_csv(path, trace: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,evaluations,f_best\n")
        for it, ev, fb in trace:
            fh.write(f"{int(it)},{int(ev)},{fmt(fb)}\n")


def write_heatmap_csv(path, C: np.ndarray, names: list[str]) -> None:
    """Long-format p*p rows (name_i, name_j, value) for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name_i,name_j,value\n")
        for i, ni in enumerate(names):
            for j, nj in enumerate(names):
                fh.write(f"{ni},{nj},{fmt(C[i, j])}\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(record), fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_outdir(out, record_name: str, force: bool) -> str:
    """Create the output directory; refuse to clobber an existing run record."""
    os.makedirs(out, exist_ok=True)
    record_path = os.path.join(out, record_name)
    if os.path.exists(record_path) and not force:
        raise ConfigError(
            f"{record_path} already exists; pass --force to overwrite"
        )
    return out


# ---------------------------------------------------------------------------
# config files (INI: flat key/value entries grouped into sections)

def _field_types(cls) -> dict:
    """Field name -> type of a dataclass, with ``None`` dropped from each union."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        out[name] = args[0] if args else hint
    return out


_OPTIMIZER_KEYS = _field_types(OptimizerConfig)


def _parse_section(section, schema, where):
    out = {}
    for key in section:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{where}]")
        typ = schema[key]
        raw = section[key]
        try:
            if typ is bool:
                out[key] = section.getboolean(key)
            else:
                out[key] = typ(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value {raw!r} for {where}.{key}") from exc
    return out


def load_optimizer_overrides(path) -> dict:
    """Read the [optimizer] section of an INI file into OptimizerConfig kwargs."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if "optimizer" not in parser:
        return {}
    return _parse_section(parser["optimizer"], _OPTIMIZER_KEYS, "optimizer")


def optimizer_config_from(overrides: dict) -> OptimizerConfig:
    """OptimizerConfig from checked keyword values; a bad value is a ConfigError."""
    try:
        return OptimizerConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_SCENARIO_KEYS = {
    "p": int, "n": int, "replicates": int, "n_starts": int,
    "master_seed": int, "distribution": str, "df": float,
    "losses": str, "threshold": str,
}
_STRUCTURE_KEYS = {
    "kind": str, "sparsity": float, "value_low": float, "value_high": float,
    "block_fractions": str, "block_decays": str,
}
_CONTAMINATION_KEYS = {
    "kind": str, "fraction": float,
    "entry_fraction_low": float, "entry_fraction_high": float, "shift": float,
}


def _float_list(raw: str, where: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad list {raw!r} for {where}") from exc


def load_scenario_config(path) -> ScenarioSpec:
    """Build a ScenarioSpec from an INI file; unknown keys or values fail."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    known = {"scenario", "structure", "contamination", "optimizer"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "scenario" not in parser or "structure" not in parser:
        raise ConfigError("config needs [scenario] and [structure] sections")

    sc = _parse_section(parser["scenario"], _SCENARIO_KEYS, "scenario")
    st = _parse_section(parser["structure"], _STRUCTURE_KEYS, "structure")
    co = (_parse_section(parser["contamination"], _CONTAMINATION_KEYS, "contamination")
          if "contamination" in parser else {})
    opt = (_parse_section(parser["optimizer"], _OPTIMIZER_KEYS, "optimizer")
           if "optimizer" in parser else {})

    if "seed" in opt:
        raise ConfigError(
            "seed is not allowed in a scenario's [optimizer] section; the search "
            "seeds derive from [scenario] master_seed"
        )
    if "kind" not in st:
        raise ConfigError("structure section needs a 'kind'")
    if "p" not in sc or "n" not in sc:
        raise ConfigError("scenario section needs 'p' and 'n'")

    st_kwargs = {"kind": st["kind"], "p": sc["p"]}
    if "sparsity" in st:
        st_kwargs["sparsity"] = st["sparsity"]
    if "value_low" in st or "value_high" in st:
        st_kwargs["value_range"] = (st.get("value_low", 0.1), st.get("value_high", 0.3))
    if "block_fractions" in st:
        st_kwargs["block_fractions"] = _float_list(st["block_fractions"], "structure.block_fractions")
    if "block_decays" in st:
        st_kwargs["block_decays"] = _float_list(st["block_decays"], "structure.block_decays")

    co_kwargs = {}
    if co:
        co_kwargs["kind"] = co.get("kind", "none")
        if "fraction" in co:
            co_kwargs["fraction"] = co["fraction"]
        if "entry_fraction_low" in co or "entry_fraction_high" in co:
            co_kwargs["entry_fraction"] = (
                co.get("entry_fraction_low", 0.3), co.get("entry_fraction_high", 0.7)
            )
        if "shift" in co:
            co_kwargs["shift"] = co["shift"]

    threshold = sc.get("threshold", "iqr")
    losses_raw = sc.get("losses", "gaussian,huber,truncated,tukey")
    losses = tuple(
        make_loss_spec(tok.strip(), threshold)
        for tok in losses_raw.split(",") if tok.strip()
    )

    try:
        return ScenarioSpec(
            structure=StructureSpec(**st_kwargs),
            n=sc["n"],
            distribution=sc.get("distribution", "gaussian"),
            df=sc.get("df", 3.0),
            contamination=ContaminationSpec(**co_kwargs) if co_kwargs else ContaminationSpec(),
            losses=losses,
            replicates=sc.get("replicates", 10),
            n_starts=sc.get("n_starts", 10),
            master_seed=sc.get("master_seed", 0),
            optimizer=optimizer_config_from(opt),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_loss_spec(kind: str, threshold: str) -> LossSpec:
    """LossSpec from CLI-style strings: threshold is 'iqr', 'iqr-pilot', or a number.

    The threshold is checked for every kind; the gaussian spec then drops it.
    """
    if threshold in ("iqr", "iqr-auto"):
        threshold = "iqr-auto"
    elif threshold != "iqr-pilot":
        try:
            threshold = float(threshold)
        except ValueError:
            raise ConfigError(f"bad threshold {threshold!r}") from None
    try:
        spec = LossSpec(kind, threshold)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return LossSpec("gaussian") if kind == "gaussian" else spec


def scenario_record(spec: ScenarioSpec) -> dict:
    """JSON-ready view of a scenario spec."""
    rec = asdict(spec)
    rec["losses"] = [asdict(ls) for ls in spec.losses]
    return rec
