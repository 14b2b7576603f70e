"""Batch front-end: experiment configs in, CSV tables and SVG figures out.

Exit codes: 0 success, 2 I/O error, 3 config schema error (including bad
points and malformed circuit or kernel fields), 4 resource cap.
CSV files are the source of truth; SVG figures are derived conveniences.
Identical config + seed produce byte-identical CSV.  --threads is validated
but otherwise ignored: no command starts worker threads or processes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ResourceCapError, StructuralError, ValidationError
from .etk import etk_from_json, etk_to_json, evaluate_real
from .learning import learning_comparison_experiment
from .mercer import mercer_decompose
from .quantum import (
    STATEVECTOR_CAP_QUBITS,
    StandardFormCircuit,
    etk_from_circuit,
    simulate_kernel,
)
from .single_layer import (
    eigenvalue_scaling_experiment,
    instance_rng,
    model_label,
    sample_psi2,
    spectrum_arrays,
)
from .svgplot import Series, write_plot
from .tables import ResultTable

EXIT_OK = 0
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_CAP = 4


class SchemaError(Exception):
    """Config fails validation (unknown/missing fields, bad types)."""


def _statevector_cap() -> int:
    raw = os.environ.get("ETKLAB_CAP_QUBITS")
    if raw is None:
        return STATEVECTOR_CAP_QUBITS
    try:
        return int(raw)
    except ValueError as exc:
        raise SchemaError(f"ETKLAB_CAP_QUBITS must be an integer, got {raw!r}") from exc


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from exc
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    if cfg.get("experiment") != command:
        raise SchemaError(
            f"config experiment {cfg.get('experiment')!r} does not match "
            f"command {command!r}"
        )
    return cfg


def _check_keys(cfg: dict, required: set[str], optional: set[str]):
    keys = set(cfg)
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"unknown config fields: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise SchemaError(f"missing required config fields: {sorted(missing)}")


def _require_seed(cfg: dict, args) -> int:
    """Stochastic commands must carry a seed (config or --seed override)."""
    if args.seed is not None:
        return int(args.seed)
    if "seed" not in cfg:
        raise SchemaError("stochastic command requires a seed")
    seed = cfg["seed"]
    if not isinstance(seed, int) or seed < 0:
        raise SchemaError("seed must be a non-negative integer")
    return seed


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_models(raw) -> list:
    if not isinstance(raw, list) or not raw:
        raise SchemaError("models must be a non-empty list")
    models = []
    for m in raw:
        if m == "haar":
            models.append(m)
        elif isinstance(m, dict) and m.get("kind") == "concentrated":
            extra = set(m) - {"kind", "s", "eps"}
            if extra or "s" not in m:
                raise SchemaError(f"bad concentrated model spec: {m}")
            models.append(m)
        else:
            raise SchemaError(f"unknown model spec: {m}")
    return models


def _point(cfg: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(cfg[key], dtype=float)
    except ValueError as exc:
        raise SchemaError(f"{key} must be a flat list of numbers") from exc


# ---------------------------------------------------------------------------
# Subcommands

def cmd_eval(args) -> int:
    cfg = _load_config(args.config, "eval")
    _check_keys(cfg, {"experiment", "x", "x2"}, {"circuit", "kernel", "route"})
    if ("circuit" in cfg) == ("kernel" in cfg):
        raise SchemaError("exactly one of 'circuit' or 'kernel' is required")
    x, x2 = _point(cfg, "x"), _point(cfg, "x2")
    if "circuit" in cfg:
        circ = StandardFormCircuit.from_json(_read_text(cfg["circuit"]))
        kernel = etk_from_circuit(circ, route=cfg.get("route", "auto"))
        k_etk = evaluate_real(kernel, x, x2)
        k_sv = simulate_kernel(circ, x, x2, cap_qubits=_statevector_cap())
        print(f"etk        {k_etk:.17g}")
        print(f"statevector {k_sv:.17g}")
        print(f"diff       {abs(k_etk - k_sv):.17g}")
    else:
        kernel = etk_from_json(_read_text(cfg["kernel"]))
        print(f"etk        {evaluate_real(kernel, x, x2):.17g}")
    return EXIT_OK


def cmd_extract(args) -> int:
    cfg = _load_config(args.config, "extract")
    _check_keys(cfg, {"experiment", "circuit"}, {"route", "output"})
    circ = StandardFormCircuit.from_json(_read_text(cfg["circuit"]))
    route = cfg.get("route", "auto")
    if route not in ("auto", "dense", "ptm"):
        raise SchemaError(f"route must be auto|dense|ptm, got {route!r}")
    kernel = etk_from_circuit(circ, route=route)
    out = _out_dir(args)
    name = cfg.get("output", "core")
    path = out / f"{name}.json"
    with open(path, "w", newline="") as fh:
        fh.write(etk_to_json(kernel))
    print(f"wrote {path}")
    return EXIT_OK


def _spectrum_table(eigenvalues: np.ndarray) -> ResultTable:
    table = ResultTable(["rank", "eigenvalue"])
    order = np.argsort(-eigenvalues, kind="stable")
    for rank, i in enumerate(order, start=1):
        table.add(rank, float(eigenvalues[i]))
    return table


def cmd_mercer(args) -> int:
    cfg = _load_config(args.config, "mercer")
    _check_keys(cfg, {"experiment"}, {"circuit", "kernel", "dep_tol", "output"})
    if ("circuit" in cfg) == ("kernel" in cfg):
        raise SchemaError("exactly one of 'circuit' or 'kernel' is required")
    if "circuit" in cfg:
        circ = StandardFormCircuit.from_json(_read_text(cfg["circuit"]))
        kernel = etk_from_circuit(circ)
    else:
        kernel = etk_from_json(_read_text(cfg["kernel"]))
    dec, _ = mercer_decompose(kernel, dep_tol=float(cfg.get("dep_tol", 1e-8)))
    out = _out_dir(args)
    name = cfg.get("output", "mercer")
    json_path = out / f"{name}.json"
    with open(json_path, "w", newline="") as fh:
        fh.write(dec.to_json())
    csv_path = out / f"{name}_spectrum.csv"
    _spectrum_table(dec.eigenvalues).write(csv_path)
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _load_config(args.config, "spectrum")
    _check_keys(
        cfg,
        {"experiment", "n", "model"},
        {"seed", "instances", "top", "output"},
    )
    n = int(cfg["n"])
    model = cfg["model"]
    instances = int(cfg.get("instances", 1))
    out = _out_dir(args)
    name = cfg.get("output", "spectrum")
    if model == "uniform":
        # deterministic flat distribution; no seed needed
        psi2_list = [np.full(2**n, 1.0 / 2**n)] * instances
        label = "uniform"
    else:
        models = _parse_models([model])
        seed = _require_seed(cfg, args)
        psi2_list = [
            sample_psi2(models[0], n, instance_rng(seed, 0, n, inst))
            for inst in range(instances)
        ]
        label = model_label(models[0])
    written = []
    for inst, psi2 in enumerate(psi2_list):
        eig, _ = spectrum_arrays(psi2)
        table = _spectrum_table(eig)
        path = out / f"{name}_{label}_{inst}.csv"
        table.write(path)
        written.append(path)
        top = cfg.get("top")
        if top is not None:
            top_table = ResultTable(table.columns, table.rows[: int(top)])
            top_path = out / f"{name}_{label}_{inst}_top{int(top)}.csv"
            top_table.write(top_path)
            written.append(top_path)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _band_series(xs, runs) -> tuple[list, list, list]:
    """Mean and mean +/- std across runs, per x position."""
    arr = np.asarray(runs, dtype=float)  # (instances, len(xs))
    mean = arr.mean(axis=0)
    std = arr.std(axis=0)
    return list(mean), list(mean - std), list(mean + std)


def cmd_scaling(args) -> int:
    cfg = _load_config(args.config, "scaling")
    _check_keys(
        cfg,
        {"experiment", "seed", "n_range", "models", "instances"},
        {"output"},
    )
    seed = _require_seed(cfg, args)
    n_range = [int(v) for v in cfg["n_range"]]
    models = _parse_models(cfg["models"])
    instances = int(cfg["instances"])
    table = eigenvalue_scaling_experiment(n_range, models, instances, seed)
    out = _out_dir(args)
    name = cfg.get("output", "scaling")
    csv_path = out / f"{name}.csv"
    table.write(csv_path)

    series = []
    for model in models:
        label = model_label(model)
        xs, means, los, his = [], [], [], []
        for row in table.rows:
            if row[0] == label and row[2] == "aggregate":
                xs.append(float(row[1]))
                means.append(row[4])
                los.append(max(row[4] - row[5], 1e-300))
                his.append(row[4] + row[5])
        series.append(Series(label, xs, means, los, his))
    svg_path = out / f"{name}.svg"
    write_plot(
        svg_path,
        series,
        title="Largest eigenvalue vs n",
        xlabel="n",
        ylabel="largest eigenvalue",
        ylog=True,
    )
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_learn(args) -> int:
    cfg = _load_config(args.config, "learn")
    _check_keys(
        cfg,
        {"experiment", "seed", "n", "models", "instances"},
        {"schedule_points", "ridge", "target", "output"},
    )
    seed = _require_seed(cfg, args)
    n = int(cfg["n"])
    models = _parse_models(cfg["models"])
    instances = int(cfg["instances"])
    target = cfg.get("target", "tailored")
    if target not in ("tailored", "zero"):
        raise SchemaError(f"target must be tailored|zero, got {target!r}")
    table = learning_comparison_experiment(
        n,
        models,
        instances,
        seed,
        schedule_points=int(cfg.get("schedule_points", 10)),
        ridge=cfg.get("ridge"),
        zero_target=(target == "zero"),
    )
    # aggregate rows: mean mse / mean alignment across instances per (model, m)
    agg: dict[tuple, list] = {}
    for model_name, _inst, m, mse, align in table.rows:
        agg.setdefault((model_name, m), []).append((mse, align))
    for (model_name, m), vals in agg.items():
        mses = [v[0] for v in vals]
        aligns = [v[1] for v in vals]
        table.add(model_name, "aggregate", m, float(np.mean(mses)),
                  float(np.mean(aligns)))
    out = _out_dir(args)
    name = cfg.get("output", "learn")
    csv_path = out / f"{name}.csv"
    table.write(csv_path)

    series = []
    for model in models:
        label = model_label(model)
        by_m: dict[int, list] = {}
        for model_name, inst, m, mse, _a in table.rows:
            if model_name == label and inst != "aggregate":
                by_m.setdefault(m, []).append(mse)
        xs = sorted(by_m)
        mat = np.array([by_m[m] for m in xs], dtype=float).T
        mean, lo, hi = _band_series(xs, mat)
        lo = [max(v, 1e-300) for v in lo]
        series.append(Series(label, [float(m) for m in xs], mean, lo, hi))
    svg_path = out / f"{name}.svg"
    write_plot(
        svg_path,
        series,
        title="Learning curves",
        xlabel="training samples",
        ylabel="test MSE",
        xlog=True,
        ylog=True,
    )
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

COMMANDS = {
    "eval": cmd_eval,
    "extract": cmd_extract,
    "mercer": cmd_mercer,
    "spectrum": cmd_spectrum,
    "scaling": cmd_scaling,
    "learn": cmd_learn,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etklab",
        description="Entangled tensor kernel experiments: configs in, "
        "CSV/SVG/JSON artifacts out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="ignored (must be >= 1): no command starts workers")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        return COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (KeyError, TypeError, StructuralError, ValidationError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
