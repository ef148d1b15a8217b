"""Command-line interface: config ingestion, dispatch, CSV/JSON export.

Commands::

    floqdyn simulate --config run.json [--preset NAME] [--set k=v ...] [--out DIR]
    floqdyn floquet  --config run.json ...
    floqdyn compare  --config cmp.json ...
    floqdyn sweep    --config sweep.json ...

``--preset`` applies to ``simulate`` and ``floquet`` only; ``compare`` and
``sweep`` name their presets in the config and refuse the flag (exit 2).
Configs are JSON, validated against a strict schema (unknown keys are
rejected) before any computation.  Every scenario key is the name of a
field of ``ScenarioConfig`` or of its nested ``DriveSpec`` and ``BathSpec``,
and the schema and the (de)serialisers follow from the field types alone.
The checker is in-house: it knows the nine JSON Schema keywords the
schemas use and words each violation as jsonschema does, except that an
integer must be a JSON integer (``3.0`` is not one) and that a value whose
repr passes 80 characters is quoted by its ends and its length.  A sweep's
process pool has at most as many workers as grid points and CPUs.  Exit
codes: 0 success, 3 for a ``NumericalError``, 2 for any other floqdyn error
(a configuration error, an ``--out`` that is a file or lies under one
among them); a sweep row that fails reads ``error:2`` or ``error:3`` by the
same rule, and a sweep whose every row fails exits 3 if one reads
``error:3``, else 2.  A run that exits 2 or 3 writes nothing.  CSV output uses
17-significant-digit floats, '\\n' line endings, and a '.' decimal
separator; a cell that contains a comma is double-quoted.  The warnings of a
run or sweep point that fails go to the ``floqdyn`` logger at DEBUG level
only, since its exit code or row status reports the failure; those of one
that succeeds are issued as they came.
"""

import argparse
import copy
import json
import math
# argparse's gettext imports locale on the first parser build; imported here,
# it is part of start-up instead of the first command
import locale  # noqa: F401
import os
import sys
import warnings
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import cache
from itertools import product
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .errors import LOGGER, ConfigError, FloqdynError, NumericalError
from .floattext import FLOAT_FMT, TEXT_WIDTH, float_text
from .floquet import HALVING_GAP_TOL, benchmark_fidelities
from .operators import any_over_rows, from_coordinates, trace_distance
from .scenarios import (
    PRESETS,
    ScenarioConfig,
    build_generator,
    decompose_scenario,
    efficiency,
    evolve,
    trajectory_diagnostics,
)

# ---------------------------------------------------------------------------
# config schemas; the scenario's JSON form is its dataclasses, key for field

_JSON_TYPES = {str: "string", int: "integer", float: "number", bool: "boolean"}


@cache
def _json_fields(cls) -> tuple:
    """(field, type) per field of a dataclass; the field's name is its JSON key."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


@cache
def _type_form(tp) -> tuple:
    """(form, inner type) of a field type; any form without a JSON form raises."""
    args = get_args(tp)
    if tp in _JSON_TYPES:
        return "scalar", tp
    if is_dataclass(tp):
        return "object", tp
    if get_origin(tp) is Literal:
        return "enum", tp
    if isinstance(tp, UnionType) and len(args) == 2 and type(None) in args:
        return "optional", next(a for a in args if a is not type(None))
    if get_origin(tp) is tuple and len(set(args) - {Ellipsis}) == 1:
        return "array", args[0]     # tuple[X, ...], or tuple[X, X] of fixed length
    raise TypeError(f"no JSON form for field type {tp!r}")


def _json_schema(tp) -> dict:
    """JSON schema of a field type; a dataclass is a closed object requiring every key."""
    form, inner = _type_form(tp)
    if form == "scalar":
        return {"type": _JSON_TYPES[inner]}
    if form == "enum":
        return {"enum": list(get_args(inner))}
    if form == "optional":
        schema = _json_schema(inner)
        return {**schema, "type": [schema["type"], "null"]}
    if form == "array":
        schema = {"type": "array", "items": _json_schema(inner)}
        if Ellipsis not in get_args(tp):
            schema["minItems"] = schema["maxItems"] = len(get_args(tp))
        return schema
    props = {f.name: _json_schema(hint) for f, hint in _json_fields(inner)}
    return {"type": "object", "additionalProperties": False,
            "properties": props, "required": list(props)}


def _to_json(value):
    """JSON form of a field value: a dataclass is an object, a tuple an array."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if not is_dataclass(value):
        return value
    return {f.name: _to_json(getattr(value, f.name)) for f, _ in _json_fields(type(value))}


def _float(data, name: str) -> float:
    """A JSON number as a float; an integer too large for one is a ConfigError."""
    try:
        return float(data)
    except OverflowError:
        raise ConfigError(f"{name}: an integer of {len(str(data))} digits is too large "
                          "for a float") from None


def _from_json(data, tp, name: str = "scenario"):
    """Field value of type ``tp`` from its JSON form (inverse of :func:`_to_json`);
    a float field converts a JSON integer.  ``name`` is the field's path."""
    form, inner = _type_form(tp)
    if data is None or form in ("scalar", "enum"):
        return _float(data, name) if inner is float and data is not None else data
    if form == "optional":
        return _from_json(data, inner, name)
    if form == "array":
        return tuple(_from_json(v, inner, f"{name}[{i}]") for i, v in enumerate(data))
    return inner(**{f.name: _from_json(data[f.name], hint, f"{name}.{f.name}")
                    for f, hint in _json_fields(inner)})


SCENARIO_SCHEMA = _json_schema(ScenarioConfig)

#: canonical form of a custom scenario before its own keys are merged in
_SCENARIO_DEFAULTS = {f.name: _to_json(f.default) for f, _ in _json_fields(ScenarioConfig)
                      if f.default is not MISSING}

_INTEGRATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "dt": {"type": ["number", "null"]},
        "t_final": {"type": "number"},
    },
    "required": ["t_final"],
}

_OUTPUTS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "formats": {"type": "array", "items": {"enum": ["csv", "json"]}},
    },
}

RUN_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "scenario": SCENARIO_SCHEMA,
        "integration": _INTEGRATION_SCHEMA,
        "outputs": _OUTPUTS_SCHEMA,
    },
    "required": ["scenario", "integration"],
}

COMPARE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "a": SCENARIO_SCHEMA,
        "b": SCENARIO_SCHEMA,
        "integration": _INTEGRATION_SCHEMA,
        "metric": {"enum": ["eta_series", "trace_distance"]},
    },
    "required": ["a", "b", "integration"],
}

# the base run is validated in canonical form per grid point, so the raw
# sweep schema only constrains the sweep-level structure, and that a sweep,
# which writes only into --out, takes no outputs section at either level
SWEEP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "base": {"type": "object", "additionalProperties": False,
                 "properties": {"scenario": {}, "integration": {}}},
        "axes": {"type": "object",
                 "additionalProperties": {"type": "array", "minItems": 1}},
        "parallelism": {"type": "integer", "minimum": 1},
    },
    "required": ["base", "axes"],
}


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Canonical, fully expanded JSON form of a scenario."""
    return _to_json(config)


def scenario_from_dict(data: dict, name: str = "scenario") -> ScenarioConfig:
    """The scenario of its canonical dict (the inverse of :func:`scenario_to_dict`), ``name``
    its config key; :func:`canonical_scenario_dict` expands a preset reference into one."""
    try:
        return _from_json(data, ScenarioConfig, name)
    except FloqdynError as exc:
        raise ConfigError(str(exc)) from exc


def _deep_merge(base: dict, override: dict) -> dict:
    """Recursively merge override into base (dicts merge, scalars replace)."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def canonical_scenario_dict(data: dict) -> dict:
    """Expand a preset reference into the canonical full form.

    A custom scenario takes the field defaults of :class:`ScenarioConfig`;
    a default that is an object is merged key by key.
    """
    if not isinstance(data, dict):
        raise ConfigError("scenario section must be an object")
    data = copy.deepcopy(data)
    preset = data.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        return _deep_merge(scenario_to_dict(PRESETS[preset]()), data)
    missing = [f.name for f, _ in _json_fields(ScenarioConfig)
               if f.default is MISSING and f.name not in data]
    if missing:
        raise ConfigError(f"scenario missing required keys: {missing}")
    return _deep_merge(_SCENARIO_DEFAULTS, data)


def _section(data: dict, key: str, default: dict | None = None) -> dict:
    """The object under ``key`` of a config; ``default`` if absent (required if None)."""
    value = data.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} section must be an object" if key in data
                          else f"config missing section {key!r}")
    return value


def _integration(data: dict) -> dict:
    """The integration section, t_final and dt as floats; dt defaults to None,
    which lets evolve choose the record grid.  t_final, and dt when given, must
    be finite and > 0; a value of the wrong type is left to the schema."""
    integ = {"dt": None, **_section(data, "integration")}
    for key in ("t_final", "dt"):
        if _is_type(integ.get(key), "integer"):
            integ[key] = _float(integ[key], f"integration.{key}")
        if _is_type(integ.get(key), "number") and not 0 < integ[key] < math.inf:
            raise ConfigError(f"integration.{key} must be finite and > 0, got {integ[key]!r}")
    return integ


def canonical_run_dict(data: dict) -> dict:
    data = copy.deepcopy(data)
    data["scenario"] = canonical_scenario_dict(_section(data, "scenario"))
    data["outputs"] = {"formats": ["csv", "json"], **_section(data, "outputs", {})}
    data["integration"] = _integration(data)
    return data


# ---------------------------------------------------------------------------
# config loading and --set overrides


def _parse_value(text: str):
    try:
        return json.loads(text)
    except ValueError:   # not JSON, or an int past the digit limit: the text, as a string
        return text


def apply_overrides(data: dict, pairs: list[str]) -> dict:
    """Apply dotted-path key=value overrides onto a config dict."""
    data = copy.deepcopy(data)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        path, _, raw = pair.partition("=")
        keys = path.split(".")
        node = data
        for key in keys[:-1]:
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {path!r} does not resolve to a config entry")
            node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {path!r} does not resolve to a config entry")
        node[keys[-1]] = _parse_value(raw)
    return data


def load_config(path: str | None, preset: str | None, overrides: list[str],
                default: dict | None = None) -> dict:
    """Read the raw JSON config and apply --preset / --set flags."""
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:   # bad JSON, or an int past the digit limit
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    elif default is not None:
        data = copy.deepcopy(default)
    else:
        raise ConfigError("--config is required")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if preset is not None:
        data["scenario"] = {**_section(data, "scenario", {}), "preset": preset}
    if overrides:
        data = apply_overrides(data, overrides)
    return data


#: the Python types of each JSON type (a bool is an int too; _is_type excludes it)
_PY_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
             "null": type(None), "integer": int, "number": (int, float)}

#: the keywords the config schemas use; any other one is a TypeError
_KEYWORDS = {"type", "enum", "properties", "required", "additionalProperties",
             "items", "minItems", "maxItems", "minimum"}


def _is_type(data, name: str) -> bool:
    """JSON type test; a bool is only a boolean, and an integral float is not an integer."""
    return isinstance(data, _PY_TYPES[name]) and (name == "boolean" or not isinstance(data, bool))


def _shown(value) -> str:
    """repr of ``value``; past 80 characters, its ends and its length."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:40]}...{text[-20:]} ({len(text)} characters)"


def _violations(data, schema: dict, path: tuple = ()):
    """(path, message) of each violation, in schema order, worded as jsonschema
    words them (a long value shortened by :func:`_shown`)."""
    if not schema.keys() <= _KEYWORDS:
        raise TypeError(f"unsupported schema keywords {sorted(schema.keys() - _KEYWORDS)}")
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    is_object, is_array = isinstance(data, dict), isinstance(data, list)
    for key, arg in schema.items():
        message = None
        if key == "type" and not any(_is_type(data, t) for t in types):
            message = f"{_shown(data)} is not of type {', '.join(map(repr, types))}"
        elif key == "enum" and data not in arg:
            message = f"{_shown(data)} is not one of {arg!r}"
        elif key == "minimum" and _is_type(data, "number") and data < arg:
            message = f"{_shown(data)} is less than the minimum of {arg!r}"
        elif key == "minItems" and is_array and len(data) < arg:
            message = f"{_shown(data)} " + ("should be non-empty" if arg == 1 else "is too short")
        elif key == "maxItems" and is_array and len(data) > arg:
            message = f"{_shown(data)} " + ("is too long" if arg else "is expected to be empty")
        elif key == "items" and is_array:
            for i, item in enumerate(data):
                yield from _violations(item, arg, (*path, i))
        elif key == "properties" and is_object:
            for name, sub in arg.items():
                if name in data:
                    yield from _violations(data[name], sub, (*path, name))
        elif key == "required" and is_object:
            yield from ((path, f"{name!r} is a required property")
                        for name in arg if name not in data)
        elif key == "additionalProperties" and is_object:
            extras = [name for name in data if name not in schema.get("properties", {})]
            if arg is not False:
                for name in extras:
                    yield from _violations(data[name], arg, (*path, name))
            elif extras:
                verb = "was" if len(extras) == 1 else "were"
                names = ", ".join(map(_shown, sorted(extras)))
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
        if message is not None:
            yield path, message


def validate_schema(data: dict, schema: dict) -> dict:
    """Strict JSON-schema check; unknown keys are rejected.

    The error reported is the one ``jsonschema.exceptions.best_match`` picks:
    the shallowest, then the last by path, the first of equals winning.  (Its
    preference for a value of the wrong type cannot apply: with these nine
    keywords one subschema governs each path, so errors at a path agree on it.)
    """
    error = max(_violations(data, schema), key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        raise ConfigError(f"config schema violation: {error[1]}")
    return data


# ---------------------------------------------------------------------------
# output helpers


def _csv_cell(value) -> str:
    """Floats at 17 significant digits; a cell containing a comma is quoted."""
    text = FLOAT_FMT % value if isinstance(value, float) else str(value)
    if "," in text:
        return '"' + text.replace('"', '""') + '"'
    return text


#: Rows per formatting call of a float table in ``write_csv``.
CSV_BLOCK = 1024


def _table_bytes(table: np.ndarray, kept, n_cols: int):
    """CSV lines of an ``n_cols``-column float table given as its columns at
    indices ``kept``, 0 first, a block of rows per bytes object, each cell
    formatted as :func:`_csv_cell` formats a float.  Every other column is +0.0
    throughout: its ``0`` is part of the text after the kept cell before it."""
    # the text after each kept cell, NUL-padded: the separator and the zero
    # columns up to the next kept one, or to the end of the line
    after = [b"," + b"0," * (end - col - 1) for col, end in zip(kept, kept[1:])]
    after.append(b",0" * (n_cols - kept[-1] - 1) + b"\n")
    after = np.array(after, dtype=bytes).view(np.uint8).reshape(len(kept), -1)
    for lo in range(0, len(table), CSV_BLOCK):
        block = table[lo:lo + CSV_BLOCK]
        out = np.empty((*block.shape, TEXT_WIDTH + after.shape[1]), np.uint8)
        out[:, :, :TEXT_WIDTH] = float_text(block.ravel()).reshape(*block.shape, -1)
        out[:, :, TEXT_WIDTH:] = after
        yield out[out != 0].tobytes()


def write_csv(path: Path, header: list[str], rows, kept=None) -> None:
    """Write ``rows`` under ``header``: an iterable of rows, or a 2-D float array
    of the columns at indices ``kept`` (by default all but those of +0.0 only)."""
    if isinstance(rows, np.ndarray):
        if kept is None:    # column 0 too: each zero column's 0 follows a kept cell
            kept = np.flatnonzero([True, *any_over_rows(rows.view(np.uint64))[1:]])
            rows = rows[:, kept] if len(kept) < rows.shape[1] else rows
        lines = _table_bytes(rows, kept, len(header))
    else:
        # only rows that hold strings (the sweep's axis values and status) take this path
        lines = [(",".join(_csv_cell(v) for v in row) + "\n").encode() for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(lines)


def _json_matrix(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def trajectory_table(traj, eta_cumulative) -> tuple:
    """The columns of ``trajectory.csv`` not +0.0 in every row, and their
    indices: t (t_final > 0), the upper triangle of each state (re and im
    interleaved, row by row), eta_cumulative.  Row i of a state is its
    population i, an imaginary 0 and the (re, im) pairs of its coherences
    (i, j > i), side by side in the record coordinates: one scan finds those
    nonzero, each kept column is copied on its own."""
    d, sources = traj.dim, [traj.times, *traj.coords.T, eta_cumulative, None]
    nonzero = [True, *any_over_rows(traj.coords.view(np.uint64)),
               eta_cumulative.view(np.uint64).any(), False]
    order, pair = [0], 1 + d                # each column's source; -1: an imaginary 0
    for i in range(d):
        order += [1 + i, -1, *range(pair, pair + 2 * (d - 1 - i))]
        pair += 2 * (d - 1 - i)
    order.append(pair)                      # eta_cumulative
    kept = [c for c, j in enumerate(order) if nonzero[j]]
    table = np.empty((len(traj.times), len(kept)))
    for k, c in enumerate(kept):
        table[:, k] = sources[order[c]]
    return table, np.array(kept)


def trajectory_header(d: int) -> list[str]:
    header = ["t"]
    for i in range(d):
        for j in range(i, d):
            header += [f"rho_{i}{j}_re", f"rho_{i}{j}_im"]
    header.append("eta_cumulative")
    return header


# ---------------------------------------------------------------------------
# commands


def _run_trajectory(run: dict):
    config = scenario_from_dict(run["scenario"])
    integ = run["integration"]
    traj = evolve(config, t_final=integ["t_final"], dt=integ["dt"])
    return config, traj, efficiency(traj)


def cmd_simulate(run: dict, out_dir: Path) -> int:
    config, traj, (eta, cumulative) = _run_trajectory(run)
    summary = {
        "label": config.label,
        "kind": config.kind,
        "eta": eta,
        "t_final": float(traj.times[-1]),
        "final_state": _json_matrix(traj.states[-1]),
        "final_populations": traj.populations[-1].tolist(),
        "diagnostics": trajectory_diagnostics(traj),
    }
    formats = run["outputs"]["formats"]
    if "csv" in formats:
        header, (table, kept) = trajectory_header(traj.dim), trajectory_table(traj, cumulative)
        del traj    # so the writer's blocks reuse the records' memory, not fresh pages
        write_csv(out_dir / "trajectory.csv", header, table, kept)
    if "json" in formats:
        write_json(out_dir / "summary.json", summary)
    return 0


def cmd_floquet(run: dict, out_dir: Path) -> int:
    config = scenario_from_dict(run["scenario"])
    decomp = decompose_scenario(config)
    formats = run["outputs"]["formats"]
    # every result before the first file, so that a failure writes nothing
    bench = benchmark_fidelities(config.drive, config.h0, decomp) if "csv" in formats else None
    if "json" in formats:
        # the per-channel Lamb matrices are defined by the secular construction
        # regardless of which generator kind the scenario runs with
        gen = build_generator(replace(config, kind="floquet_lindblad"),
                              decomposition=decomp)
        gaps = sorted({round(float(ea - eb), 10)
                       for ea in decomp.quasi.energies for eb in decomp.quasi.energies})
        write_json(out_dir / "floquet.json", {
            "label": config.label,
            "tau": decomp.tau,
            "omega_drive": decomp.omega_drive,
            "hbar_floquet": _json_matrix(decomp.hbar_floquet),
            "quasienergies": decomp.quasi.energies.tolist(),
            "gaps": gaps,
            "q_range": [-config.q_max, config.q_max],
            "p_grid": decomp.grid_m,
            "halving_gap": {"gap": decomp.halving_gap,
                            "bound": HALVING_GAP_TOL},
            "lamb_shift_per_channel": {
                key: _json_matrix(h) for key, h in gen.h_lamb.items()
            },
        })
    if bench is not None:
        write_csv(out_dir / "benchmark.csv",
                  ["t", "fidelity_propagator", "fidelity_periodicity",
                   "fidelity_periodicity_magnus"],
                  np.column_stack([bench.times, bench.fidelity_propagator,
                                   bench.fidelity_periodicity,
                                   bench.fidelity_periodicity_magnus]))
    return 0


def cmd_compare(cfg: dict, out_dir: Path) -> int:
    scen_a = scenario_from_dict(cfg["a"], "a")
    scen_b = scenario_from_dict(cfg["b"], "b")
    if scen_a.dim != scen_b.dim:
        raise ConfigError(
            f"incompatible level structures: {scen_a.dim} vs {scen_b.dim} levels")
    metric = cfg["metric"]
    integ = cfg["integration"]
    # one shared record grid so series align row by row: the given dt, or
    # else the smaller default (every generator is static in its
    # micromotion frame, so any dt serves both drive periods)
    dt = integ["dt"]
    if dt is None:
        dt = min(scen_a.default_dt(), scen_b.default_dt())
    results = []
    for scen in (scen_a, scen_b):
        traj = evolve(scen, t_final=integ["t_final"], dt=dt)
        results.append((traj, efficiency(traj)))
    (traj_a, (eta_a, cum_a)), (traj_b, (eta_b, cum_b)) = results
    # the trace distance of two records is that of their difference, taken on coordinates
    change = traj_a.coords - traj_b.coords
    if metric == "eta_series":
        rows = np.column_stack([traj_a.times, cum_a, cum_b, cum_a - cum_b])
        header = ["t", "eta_a", "eta_b", "difference"]
    else:
        rows = np.column_stack([traj_a.times, trace_distance(from_coordinates(change), 0.0)])
        header = ["t", "trace_distance"]
    rel = (eta_a - eta_b) / eta_b if eta_b != 0 else None
    summary = {
        "label_a": scen_a.label, "label_b": scen_b.label, "metric": metric,
        "eta_a": eta_a, "eta_b": eta_b,
        "relative_gain_a_over_b": rel,
        "final_trace_distance": trace_distance(from_coordinates(change[-1]), 0.0),
    }
    write_csv(out_dir / "compare.csv", header, rows)
    write_json(out_dir / "compare_summary.json", summary)
    return 0


def _exit_code(exc: FloqdynError) -> int:
    """The exit code of a run that raised ``exc``: 3 for a numerical error, else 2."""
    return 3 if isinstance(exc, NumericalError) else 2


class _RunWarnings(warnings.catch_warnings):
    """Hold the warnings of a run until it ends: if it raises a ``FloqdynError``,
    send them to ``LOGGER.debug`` only (numpy's overflow on the way to that
    error says nothing the error does not); otherwise issue them unchanged."""

    def __init__(self):
        super().__init__(record=True)

    def __enter__(self):
        self.caught = super().__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        super().__exit__(exc_type, exc, tb)
        failed = exc_type is not None and issubclass(exc_type, FloqdynError)
        for w in self.caught:
            if failed:
                LOGGER.debug("warning of a failed run: %s:%s: %s: %s", w.filename, w.lineno,
                             w.category.__name__, w.message)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file,
                                     w.line)


def _sweep_point(base: dict, names, values) -> tuple:
    """One sweep grid point: (its dimension, 0 if its config fails; status; eta;
    final populations; least record eigenvalue).  The axis values override the
    raw base, so that preset-level axes still take effect, before it is
    canonicalized (preset expansion deep-merges partial sections) and validated."""
    dim = 0
    try:
        run = apply_overrides(base, [f"{n}={json.dumps(v)}" for n, v in zip(names, values)])
        run = validate_schema(canonical_run_dict(run), RUN_SCHEMA)
        dim = len(run["scenario"]["energies"])
        with _RunWarnings():
            _, traj, (eta, _) = _run_trajectory(run)
    except FloqdynError as exc:
        return dim, f"error:{_exit_code(exc)}", math.nan, [], math.nan
    return dim, "ok", eta, traj.populations[-1].tolist(), float(traj.positivity_log.min())


def cmd_sweep(cfg: dict, out_dir: Path) -> int:
    axes = cfg["axes"]
    names = sorted(axes)
    grid = list(product(*(axes[name] for name in names)))
    # a fork pool starts every worker at once: no more than the points or the CPUs
    workers = min(cfg.get("parallelism", 1), len(grid), os.cpu_count() or 1)
    if workers > 1:
        # here, only for a pool, to keep concurrent.futures.process out of start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_sweep_point, [cfg["base"]] * len(grid), [names] * len(grid),
                                   grid))
    else:
        points = [_sweep_point(cfg["base"], names, values) for values in grid]
    # the header is as wide as the widest point whose config validates; each row's
    # axis values are JSON text (a float as it is), its populations padded with NaN
    dim = max(point[0] for point in points)
    statuses = [point[1] for point in points]
    rows = []
    for values, (_, status, eta, pops, positivity_min) in zip(grid, points):
        rows.append([json.dumps(v) if not isinstance(v, float) else v for v in values]
                    + [status, eta, *pops] + [math.nan] * (dim - len(pops)) + [positivity_min])
    if "ok" not in statuses:
        # the run exits by the rule of its rows, 3 if any failed numerically, and writes nothing
        counts = ", ".join(f"{statuses.count(s)} {s}" for s in dict.fromkeys(statuses))
        message = f"every sweep grid point failed: {counts}"
        raise NumericalError(message) if "error:3" in statuses else ConfigError(message)
    header = list(names) + ["status", "eta"] + [f"pop_{i}" for i in range(dim)] \
        + ["positivity_min"]
    write_csv(out_dir / "sweep.csv", header, rows)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    # one parser: the commands share every option, and a subparser each costs 4x
    parser = argparse.ArgumentParser(
        prog="floqdyn",
        description="Energy-transfer simulations of driven few-level open systems",
    )
    parser.add_argument("command", choices=("simulate", "floquet", "compare", "sweep"),
                        help="simulate: run a scenario; floquet: Floquet report; "
                             "compare: two scenarios; sweep: a grid over config axes")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--preset", help="scenario preset name (simulate, floquet)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path config override")
    return parser


# built once, at import like the schemas: a build costs ~0.7 ms in a fresh
# process (argparse compiles its regexes), which every command would pay
_PARSER = _build_parser()

_DEFAULT_RUN = {"scenario": {}, "integration": {"t_final": 100.0}}


def _check_out(out_dir: Path) -> None:
    """Refuse an ``--out`` that cannot become the output directory: it, or the
    nearest of its parents that exists, is not a directory."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out_dir}: {existing} is not a directory")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    out_dir = Path(args.out)
    try:
        _check_out(out_dir)
        if args.command in ("simulate", "floquet"):
            data = load_config(args.config, args.preset, args.overrides,
                               default=_DEFAULT_RUN)
            run = validate_schema(canonical_run_dict(data), RUN_SCHEMA)
            with _RunWarnings():
                return cmd_simulate(run, out_dir) if args.command == "simulate" \
                    else cmd_floquet(run, out_dir)
        if args.preset is not None:
            raise ConfigError(f"--preset applies only to simulate and floquet, not "
                              f"{args.command}: name the preset in the config's scenarios")
        if args.command == "compare":
            data = load_config(args.config, None, args.overrides)
            data.setdefault("metric", "eta_series")
            for side in ("a", "b"):
                data[side] = canonical_scenario_dict(_section(data, side))
            data["integration"] = _integration(data)
            validate_schema(data, COMPARE_SCHEMA)
            with _RunWarnings():
                return cmd_compare(data, out_dir)
        data = load_config(args.config, None, args.overrides)
        validate_schema(data, SWEEP_SCHEMA)
        return cmd_sweep(data, out_dir)
    except FloqdynError as exc:
        code = _exit_code(exc)
        print(f"{'numerical' if code == 3 else 'configuration'} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
