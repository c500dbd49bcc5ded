"""Command-line interface: config files, subcommands, CSV and SVG output.

Config files are line-oriented ``key = value`` with ``#`` comments. Keys are
the parameter field names (case-sensitive), ``init.<compartment>`` entries
for the starting state (absolute counts, or fractions plus ``init.total``),
and the run options horizon, rel_tol, abs_tol, n_ref, out. Keys left out take
the ``Parameters`` defaults and the standard census; beta1 and beta2 have no
default and must be supplied by config or flag before any run command.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .dynamics import IntegrationError, Trajectory, integrate
from .equilibria import (disease_free, hiv_free, syndemic, tb_free_numeric)
from .model import (COMPARTMENTS, PARAMETER_FIELDS, DomainError, Parameters,
                    full_rhs, validate_parameters)
from .reproduction import ngm_decomposition, r0
from .scenarios import (SCENARIOS, atomic_write, initial_state,
                        trajectory_csv, write_scenario_csv)
from .stability import (ConvergenceError, bifurcation_analysis,
                        stability_report)

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    assignments: Dict[str, float] = field(default_factory=dict)
    init_values: Optional[Tuple[float, ...]] = None
    init_total: Optional[float] = None     # set: init_values are fractions
    horizon: float = 20.0
    rel_tol: float = 1e-8
    abs_tol: Optional[float] = None
    n_ref: Optional[str] = None            # raw token: dfe | N0 | number
    out: Optional[str] = None

    def parameters(self) -> Parameters:
        if "beta1" not in self.assignments or "beta2" not in self.assignments:
            raise ConfigError("beta1 and beta2 must be set (config or flag)")
        return _checked(Parameters(**self.assignments), "parameters")

    def initial_state(self) -> np.ndarray:
        if self.init_values is None:
            return initial_state()
        values = np.asarray(self.init_values, dtype=float)
        if self.init_total is not None:
            return values * self.init_total
        return values

    def resolve_n_ref(self) -> Optional[float]:
        return _parse_nref_token(self.n_ref, self)


def _checked(params: Parameters, what: str) -> Parameters:
    problems = validate_parameters(params)
    if problems:
        raise ConfigError(f"invalid {what}: " + "; ".join(problems))
    return params


def _parse_nref_token(token: Optional[str], cfg: "RunConfig") -> Optional[float]:
    if token is None or token == "dfe":
        return None
    if token == "N0":
        return float(cfg.initial_state().sum())
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"n_ref must be dfe, N0, or a number, got {token!r}")
    if not 0 < value < math.inf:
        raise ConfigError(f"n_ref must be a finite positive number, got {token!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse config text; unknown keys and malformed numbers are errors with
    their line number."""
    cfg = RunConfig()
    init_entries: Dict[str, float] = {}
    init_total_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in PARAMETER_FIELDS:
            cfg.assignments[key] = _number(value, lineno)
        elif key.startswith("init."):
            name = key[len("init."):]
            if name == "total":
                cfg.init_total = _number(value, lineno)
                init_total_line = lineno
            elif name in COMPARTMENTS:
                init_entries[name] = _number(value, lineno)
            else:
                raise ConfigError(f"line {lineno}: unknown compartment {name!r}")
        elif key == "horizon":
            cfg.horizon = _number(value, lineno)
        elif key == "rel_tol":
            cfg.rel_tol = _number(value, lineno)
        elif key == "abs_tol":
            cfg.abs_tol = _number(value, lineno)
        elif key == "n_ref":
            cfg.n_ref = value
        elif key == "out":
            cfg.out = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if init_entries or cfg.init_total is not None:
        missing = [c for c in COMPARTMENTS if c not in init_entries]
        if missing:
            raise ConfigError("incomplete initial state, missing: "
                              + ", ".join(missing))
        values = tuple(init_entries[c] for c in COMPARTMENTS)
        if cfg.init_total is not None:
            total = math.fsum(values)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(
                    f"line {init_total_line}: initial fractions sum to "
                    f"{total!r}, expected 1 within 1e-9")
        cfg.init_values = values
    if cfg.n_ref is not None:
        _parse_nref_token(cfg.n_ref, cfg)   # validate the token early
    return cfg


def _number(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed number {token!r}")


def _load_config(args) -> RunConfig:
    cfg = (parse_config(Path(args.config).read_text())
           if getattr(args, "config", None) else RunConfig())
    for name in ("beta1", "beta2"):
        value = getattr(args, name, None)
        if value is not None:
            cfg.assignments[name] = float(value)
    if getattr(args, "nref", None):
        cfg.n_ref = args.nref
    return cfg


def _out_dir(args, cfg: RunConfig) -> Path:
    env = os.environ.get("SYNDEMIC_OUT_DIR")
    if env:
        return Path(env)               # env wins over --out
    if getattr(args, "out", None):
        return Path(args.out)
    if cfg.out:
        return Path(cfg.out)
    return Path(".")


def emit_svg(traj: Trajectory, selection: Sequence[str]) -> str:
    """Self-contained SVG line plot: one polyline per selected compartment,
    labeled linear axes, legend."""
    if len(selection) == 0:
        raise ValueError("empty compartment selection")
    indices = []
    for name in selection:
        if name not in COMPARTMENTS:
            raise ValueError(f"unknown compartment {name!r}")
        indices.append(COMPARTMENTS.index(name))
    width, height = 800, 500
    left, right, top, bottom = 70, 190, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    data_max = float(np.max(traj.states[:, indices]))
    y_max = _nice_ceiling(data_max)
    t_span = max(t1 - t0, 1e-30)

    def sx(t):
        return left + (t - t0) / t_span * plot_w

    def sy(v):
        return top + plot_h - v / y_max * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
             f'y2="{top + plot_h}" stroke="black"/>',
             f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
             f'stroke="black"/>']
    for i in range(6):
        t = t0 + t_span * i / 5
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
                     f'y2="{top + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{top + plot_h + 20}" '
                     f'font-size="12" text-anchor="middle">{t:.6g}</text>')
        v = y_max * i / 5
        y = sy(v)
        parts.append(f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" font-size="12" '
                     f'text-anchor="end">{v:.6g}</text>')
    parts.append(f'<text x="{left + plot_w / 2}" y="{height - 10}" '
                 f'font-size="13" text-anchor="middle">time (years)</text>')
    for slot, (name, idx) in enumerate(zip(selection, indices)):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                          zip(sx(traj.times).tolist(),
                              sy(traj.states[:, idx]).tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
        ly = top + 14 + slot * 18
        lx = left + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _nice_ceiling(value: float) -> float:
    if value <= 0:
        return 1.0
    exp = math.floor(math.log10(value))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        cand = mult * 10.0 ** exp
        if cand >= value:
            return cand
    return 10.0 ** (exp + 1)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    params = cfg.parameters()
    horizon = args.horizon if args.horizon is not None else cfg.horizon
    if not math.isfinite(horizon):     # np.linspace warns on an infinite end
        raise ConfigError("horizon must be finite")
    if horizon <= 0.0:
        raise ConfigError("horizon must be positive")
    n_ref = cfg.resolve_n_ref()
    traj = integrate(lambda t, y, out: full_rhs(y, params, n_ref, out=out),
                     cfg.initial_state(), 0.0, horizon,
                     rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                     report_times=np.linspace(0.0, horizon, 241))
    out = _out_dir(args, cfg)
    atomic_write(out / "trajectory.csv", trajectory_csv(traj, ".8g", "\n"))
    atomic_write(out / "trajectory.svg", emit_svg(traj, COMPARTMENTS))
    final = traj.final
    print(f"integrated {horizon:.8g} years, {traj.stats['accepted']} steps")
    print(f"N({horizon:.8g}) = {final.sum():.8g}")
    print(f"wrote {out / 'trajectory.csv'} and {out / 'trajectory.svg'}")
    return 0


def _cmd_r0(args) -> int:
    cfg = _load_config(args)
    params = cfg.parameters()
    n_ref = cfg.resolve_n_ref()
    numbers = r0(params, n_ref)
    rho = ngm_decomposition(params).rho
    reference = r0(params, None).r0
    print(f"R1 = {numbers.r1:.8g}")
    print(f"R2 = {numbers.r2:.8g}")
    print(f"R0 = {numbers.r0:.8g}")
    print(f"NGM spectral radius = {rho:.8g} "
          f"(disease-free convention, differs from max(R1,R2) there by "
          f"{abs(rho - reference):.3g})")
    return 0


def _cmd_equilibrium(args) -> int:
    cfg = _load_config(args)
    if args.kind == "dfe":
        # the disease-free state does not depend on the transmission rates
        cfg.assignments.setdefault("beta1", 0.0)
        cfg.assignments.setdefault("beta2", 0.0)
    params = cfg.parameters()
    n_ref = cfg.resolve_n_ref()
    if args.kind == "dfe":
        report = disease_free(params)
    elif args.kind == "tbfree":
        report = tb_free_numeric(params, n_ref=n_ref)
    elif args.kind == "hivfree":
        report = hiv_free(params, n_ref=n_ref)
    else:
        report = syndemic(params, cfg.initial_state(), n_ref=n_ref)
    print("kind," + ",".join(COMPARTMENTS) + ",residual")
    print(",".join([report.kind] + [f"{v:.8g}" for v in report.state]
                   + [f"{report.residual:.8g}"]))
    return 0


def _cmd_stability(args) -> int:
    if args.bifurcation:
        # the threshold analysis is taken at the disease-free state and the
        # population Lambda/mu
        for flag, value in (("--at", args.at), ("--nref", args.nref)):
            if value is not None:
                raise ConfigError(f"{flag} does not apply to --bifurcation")
    cfg = _load_config(args)
    params = cfg.parameters()
    n_ref = cfg.resolve_n_ref()
    if args.bifurcation:
        rep = bifurcation_analysis(params)
        print(f"beta_star = {rep.beta_star:.8g}")
        print(f"a = {rep.a:.8g}")
        print(f"b = {rep.b:.8g}")
        print("w = " + " ".join(f"{v:.8g}" for v in rep.w))
        print("v = " + " ".join(f"{v:.8g}" for v in rep.v))
        return 0
    if args.at in (None, "dfe"):
        state = disease_free(params).state
    elif args.at == "syndemic":
        state = syndemic(params, cfg.initial_state(), n_ref=n_ref).state
    else:
        state = np.array([float(v) for v in
                          Path(args.at).read_text().replace(",", " ").split()])
        if state.shape != (10,):
            raise ConfigError("state file must hold exactly 10 numbers")
    report = stability_report(state, params, n_ref)
    for lam in report.eigenvalues:
        print(f"{lam.real:+.8g} {lam.imag:+.8g}j")
    print(f"classification: {report.classification}")
    return 0


def _cmd_scenario(args) -> int:
    cfg = _load_config(args)
    explicit = (getattr(args, "config", None) or args.beta1 is not None
                or args.beta2 is not None)
    params = cfg.parameters() if explicit else None
    if args.deaths is not None and not args.name.startswith("treatment-"):
        raise ConfigError("--deaths applies to the treatment scenarios only")
    result = SCENARIOS[args.name](params, args.deaths or "on")
    out = _out_dir(args, cfg)
    files = write_scenario_csv(result, out)
    for record in result.assertions:
        expected = ("" if record.passed is None
                    else f"expected {record.expected:.8g} ")
        print(f"[{record.status}] {record.name}: {expected}"
              f"actual {record.actual:.8g}")
    print(f"wrote {len(files)} files to {out}")
    return 0 if result.passed else 1


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if args.param not in PARAMETER_FIELDS:
        raise ConfigError(f"unknown parameter {args.param!r}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"malformed sweep values: {args.values!r}")
    if not values:
        raise ConfigError("no sweep values supplied")
    params = cfg.parameters()
    n_ref = cfg.resolve_n_ref()
    rows = [f"{args.param},r1,r2,r0"]
    for value in values:
        p = _checked(dataclasses.replace(params, **{args.param: value}),
                     f"{args.param} = {value!r}")
        try:
            numbers = r0(p, n_ref)
        except DomainError as exc:
            raise ConfigError(f"{args.param} = {value!r}: {exc}") from exc
        rows.append(f"{value:.8g},{numbers.r1:.8g},{numbers.r2:.8g},"
                    f"{numbers.r0:.8g}")
    out = _out_dir(args, cfg)
    path = out / args.report
    atomic_write(path, "\n".join(rows) + "\n")
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syndemic",
        description="TB-HIV coinfection transmission model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="path to a key=value config file")
        sp.add_argument("--beta1", type=float, help="TB transmission rate")
        sp.add_argument("--beta2", type=float, help="HIV transmission rate")

    sp = sub.add_parser("simulate", help="integrate and write CSV + SVG")
    common(sp)
    sp.add_argument("--horizon", type=float, help="years to integrate")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("r0", help="print reproduction numbers")
    common(sp)
    sp.add_argument("--nref", help="population convention: dfe, N0, or a number")
    sp.set_defaults(func=_cmd_r0)

    sp = sub.add_parser("equilibrium", help="print an equilibrium report row")
    common(sp)
    sp.add_argument("--kind", required=True,
                    choices=["dfe", "tbfree", "hivfree", "syndemic"])
    sp.add_argument("--nref", help="population convention: dfe, N0, or a number")
    sp.set_defaults(func=_cmd_equilibrium)

    sp = sub.add_parser("stability", help="eigenvalues and classification")
    common(sp)
    sp.add_argument("--at",
                    help="dfe, syndemic, or a file holding a 10-number state")
    sp.add_argument("--nref", help="population convention: dfe, N0, or a number")
    sp.add_argument("--bifurcation", action="store_true",
                    help="print the threshold analysis instead")
    sp.set_defaults(func=_cmd_stability)

    sp = sub.add_parser("scenario", help="run a canned experiment")
    common(sp)
    sp.add_argument("--name", required=True, choices=list(SCENARIOS))
    sp.add_argument("--deaths", choices=["on", "off"],
                    help="disease-induced death switch for treatment runs "
                         "(default on)")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=_cmd_scenario)

    sp = sub.add_parser("sweep", help="1-D parameter sweep of R1, R2, R0")
    common(sp)
    sp.add_argument("--param", required=True, help="parameter field to sweep")
    sp.add_argument("--values", required=True,
                    help="comma-separated parameter values")
    sp.add_argument("--report", default="sweep.csv",
                    help="report file name (relative to the output directory)")
    sp.add_argument("--nref", help="population convention: dfe, N0, or a number")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an overflow or invalid value (extreme transmission rates) is an
        # input error, not a warning beside a wrong number
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ConfigError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, IntegrationError) as exc:
        # a solver failed on valid input; 1 means failed scenario assertions
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
