"""Scenario files: sectioned key=value text mapping onto ScenarioConfig.

Section headers group related keys; a key may appear in any section, but
only once per file ([DEFAULT] is an ordinary section).  Keys are exactly the
ScenarioConfig field names.  A comma-separated value list on a numeric key
declares a sweep axis; multiple axes expand to their cross-product in
declaration order.
"""

from __future__ import annotations

import configparser
import dataclasses
from typing import Dict, List, Tuple

from .sim.scenario import ConfigError, ScenarioConfig

_FIELD_TYPES: Dict[str, type] = {
    f.name: f.type if isinstance(f.type, type) else {"int": int, "float": float,
                                                     "str": str, "bool": bool}[f.type]
    for f in dataclasses.fields(ScenarioConfig)
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _parse_scalar(field: str, text: str):
    kind = _FIELD_TYPES[field]
    text = text.strip()
    try:
        if kind is bool:
            return _BOOL_WORDS[text.lower()]
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        return text
    except (ValueError, KeyError):
        raise ConfigError([f"{field}: cannot parse {text!r} as {kind.__name__}"]) from None


def load_scenarios(path) -> List[ScenarioConfig]:
    """Parse a scenario file into the cross-product of its sweep axes."""
    parser = configparser.ConfigParser(default_section="")
    try:
        read = parser.read(str(path))
        sections = [(name, parser.items(name)) for name in parser.sections()]
    except configparser.Error as exc:
        detail = str(exc).replace("\n", " ")
        raise ConfigError([f"cannot parse scenario file {path}: {detail}"]) from None
    if not read:
        raise ConfigError([f"cannot read scenario file {path}"])

    base: Dict[str, object] = {}
    sweeps: List[Tuple[str, List[object]]] = []
    problems: List[str] = []
    section_of: Dict[str, str] = {}
    for section, items in sections:
        for key, raw in items:
            if key not in _FIELD_TYPES:
                problems.append(f"unknown key {key!r} in section [{section}]")
                continue
            if key in section_of:
                problems.append(f"key {key!r} is set in both [{section_of[key]}] and [{section}]")
                continue
            section_of[key] = section
            if "," in raw and _FIELD_TYPES[key] is not str:
                values = [_parse_scalar(key, part) for part in raw.split(",") if part.strip()]
                if not values:
                    problems.append(f"{key}: empty sweep list")
                    continue
                sweeps.append((key, values))
            else:
                base[key] = _parse_scalar(key, raw)
    if problems:
        raise ConfigError(problems)

    configs = [ScenarioConfig(**base)]
    for field_name, values in sweeps:
        configs = [dataclasses.replace(cfg, **{field_name: value})
                   for value in values for cfg in configs]
    # keep declaration order: first axis varies slowest
    if sweeps:
        configs.sort(key=lambda cfg: tuple(
            values.index(getattr(cfg, field_name))
            for field_name, values in sweeps))
    for cfg in configs:
        cfg.validate()
    return configs

