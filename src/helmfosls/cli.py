"""Batch study runner: configure, solve, tabulate, emit plot data.

A study is a flat JSON config (fields of :class:`StudyConfig`); CLI
flags override file values.  For every (degree, mesh) pair the runner
builds the spaces, assembles, solves and computes error norms, then
writes one CSV row per run plus a log-log plot-data file (relative L2
error against degrees of freedom per wavelength, one series per degree)
and ``runs.json``: per run, in CSV row order, the system size, the
solver statistics, the quadrature drift, kh/p and p/log k, and the wall
times of the spaces, assembly, solve and error stages.  The output
directory is created before the first run.
Exit codes: 0 success, 2 config error (an unusable output directory
too), 3 solver failure.
"""

import argparse
import datetime
import json
import logging
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .analysis import (
    ConvergenceTable,
    RunRecord,
    compute_errors,
    dofs_per_wavelength,
    eoc_pairs,
)
from .fosls import assemble_classical_fem, assemble_fosls, split_solution
from .mesh import build_interval_mesh, build_square_mesh
from .problems import list_problems, make_problem
from .solver import SolverError, solve_general, solve_hpd
from .spaces import build_h1_space, build_hdiv_space

log = logging.getLogger(__name__)

CSV_COLUMNS = [
    "problem", "method", "d", "k", "p", "n_elems", "h", "DOF", "N_lambda",
    "l2_rel", "h1_err", "bnd_l2", "e1", "e2", "flux_l2", "eoc_l2",
]

# geometry of the SVG plot, in pixels
SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 480, 60

MESH_BUILDERS = {
    "piecewise-1d": lambda n: build_interval_mesh(-1.0, 1.0, n),
    "plane-wave-2d": build_square_mesh,
}


class ConfigError(ValueError):
    pass


@dataclass
class StudyConfig:
    problem: str
    k: float
    degrees: list
    mesh_sequence: list
    method: str = "fosls"
    output_dir: str = "study-out"
    avoid_node_at_zero: bool = False
    svg: bool = False

    def validate(self):
        if not isinstance(self.problem, str) or self.problem not in MESH_BUILDERS:
            raise ConfigError(
                f"unknown problem {self.problem!r}; known: "
                f"{', '.join(sorted(MESH_BUILDERS))}"
            )
        if not isinstance(self.method, str) or self.method not in (
            "fosls", "fem", "both"
        ):
            raise ConfigError("method must be one of fosls, fem, both")
        real_k = isinstance(self.k, (int, float)) and not isinstance(self.k, bool)
        if not (real_k and 0 < self.k < math.inf):
            raise ConfigError("k must be a positive finite number")
        if not _counts(self.degrees):
            raise ConfigError("degrees must be a nonempty list of integers >= 1")
        if len(set(self.degrees)) < len(self.degrees):
            raise ConfigError(f"degrees must not repeat; got {self.degrees}")
        ns = self.mesh_sequence
        if not _counts(ns):
            raise ConfigError("mesh_sequence must be a nonempty list of counts")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("mesh_sequence must be strictly refining")
        for name in ("avoid_node_at_zero", "svg"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false")
        if self.avoid_node_at_zero and self.problem == "piecewise-1d":
            even = [n for n in ns if n % 2 == 0]
            if even:
                raise ConfigError(
                    f"avoid_node_at_zero requires odd element counts on "
                    f"piecewise-1d; got {even}"
                )
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a nonempty string")


def _counts(values):
    # JSON true loads as a bool, which Python would take for the int 1
    return isinstance(values, list) and len(values) > 0 and all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in values
    )


def load_config(path, overrides=None):
    """Read a flat JSON config; CLI overrides win over file values."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    known = set(StudyConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    missing = {"problem", "k", "degrees", "mesh_sequence"} - set(raw)
    if missing:
        raise ConfigError(f"missing config fields: {', '.join(sorted(missing))}")
    cfg = StudyConfig(**raw)
    cfg.validate()
    return cfg


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.16g}"
    return str(x)


def solve_case(problem, method, mesh, p):
    """Build the spaces, assemble and solve one run.

    Returns (system, SolveReport, seconds): ``seconds`` holds the wall
    times of the "spaces", "assembly" and "solve" stages.
    """
    t0 = time.perf_counter()
    w_space = build_h1_space(mesh, p)
    v_space = build_hdiv_space(mesh, p) if method == "fosls" else None
    t1 = time.perf_counter()
    if method == "fosls":
        system = assemble_fosls(v_space, w_space, problem)
    else:
        system = assemble_classical_fem(w_space, problem)
    t2 = time.perf_counter()
    report = solve_hpd(system) if method == "fosls" else solve_general(system)
    t3 = time.perf_counter()
    return system, report, {"spaces": t1 - t0, "assembly": t2 - t1, "solve": t3 - t2}


def run_study(config):
    """Execute a study; returns (ConvergenceTable, output paths)."""
    config.validate()
    outdir = Path(config.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc}") from exc
    problem = make_problem(config.problem, config.k)
    methods = ["fosls", "fem"] if config.method == "both" else [config.method]
    meshes = {}  # n -> (mesh, wall time of building it)
    for n in config.mesh_sequence:
        t0 = time.perf_counter()
        meshes[n] = MESH_BUILDERS[config.problem](n), time.perf_counter() - t0

    table = ConvergenceTable()
    runs = []  # runs.json record of each table row, in row order
    for method in methods:
        for p in config.degrees:
            for n in config.mesh_sequence:
                mesh, mesh_seconds = meshes[n]
                khp = config.k * mesh.h / p
                # p / log k is undefined where log k <= 0
                p_log_k = p / math.log(config.k) if config.k > 1 else None
                log.info(
                    "run %s %s p=%d n=%d: kh/p=%.3g, p/log(k)=%s",
                    config.problem, method, p, n, khp,
                    "n/a" if p_log_k is None else f"{p_log_k:.3g}",
                )
                if khp > 1:
                    log.warning(
                        "kh/p = %.3g > 1 for p=%d, n=%d; "
                        "the mesh barely resolves the wave scale", khp, p, n,
                    )
                system, report, seconds = solve_case(problem, method, mesh, p)
                t0 = time.perf_counter()
                errors = compute_errors(split_solution(system, report.solution), problem)
                seconds["errors"] = time.perf_counter() - t0
                table.add(RunRecord(
                    problem=config.problem,
                    method=method,
                    d=mesh.dim,
                    k=config.k,
                    p=p,
                    n_elems=len(mesh.elements),
                    h=mesh.h,
                    dof=system.n_total,
                    n_lambda=dofs_per_wavelength(
                        system.n_total, config.k, mesh.domain_measure, mesh.dim
                    ),
                    errors=errors,
                ))
                runs.append({
                    "method": method, "p": p, "n_elems": len(mesh.elements),
                    "dofs": system.n_total, "nnz": int(system.matrix.nnz),
                    "fill": report.fill, "min_pivot": report.min_pivot,
                    "relative_residual": report.relative_residual,
                    "quad_drift": errors.quad_drift, "kh_over_p": khp,
                    "p_over_log_k": p_log_k, "seconds": {"mesh": mesh_seconds, **seconds},
                })

    csv_path = outdir / "results.csv"
    plot_path = outdir / "plot_l2_vs_nlambda.csv"
    runs_path = outdir / "runs.json"
    _write_csv(table, csv_path)
    _write_plot_data(table, plot_path)
    runs_path.write_text(json.dumps(runs, indent=1) + "\n")
    paths = [csv_path, plot_path, runs_path]
    if config.svg:
        svg_path = outdir / "plot_l2_vs_nlambda.svg"
        _write_svg(table, svg_path)
        paths.append(svg_path)
    return table, paths


def _write_csv(table, path):
    lines = [f"# generated {datetime.datetime.now().isoformat()}"]
    lines.append(",".join(CSV_COLUMNS))
    for (method, p), rows in table.series().items():
        eocs = [""]
        if len(rows) > 1:
            h = [r.h for r in rows]
            e = [r.errors.l2_rel for r in rows]
            eocs += [_fmt(v) for v in eoc_pairs(h, e)]
        for row, eoc in zip(rows, eocs):
            err = row.errors
            lines.append(",".join([
                row.problem, row.method, str(row.d), _fmt(row.k), str(row.p),
                str(row.n_elems), _fmt(row.h), str(row.dof), _fmt(row.n_lambda),
                _fmt(err.l2_rel), _fmt(err.h1_err), _fmt(err.bnd_l2),
                _fmt(err.e1), _fmt(err.e2), _fmt(err.flux_l2), eoc,
            ]))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_plot_data(table, path):
    lines = ["series,N_lambda,l2_rel"]
    for (method, p), rows in table.series().items():
        for row in rows:
            lines.append(
                f"{method}-p{p},{_fmt(row.n_lambda)},{_fmt(row.errors.l2_rel)}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def _write_svg(table, path):
    """Minimal log-log SVG rendering of the plot-data series."""
    # log-scaled points of each series, sorted by (method, p)
    series = {
        key: [(math.log10(r.n_lambda), math.log10(max(r.errors.l2_rel, 1e-300)))
              for r in rows]
        for key, rows in sorted(table.series().items())
    }
    pts_all = [pt for pts in series.values() for pt in pts]
    if not pts_all:
        Path(path).write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return
    xs, ys = zip(*pts_all)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1 += 1e-9
    y1 += 1e-9

    def to_px(lx, ly):
        px = SVG_MARGIN + (lx - x0) / (x1 - x0) * (SVG_WIDTH - 2 * SVG_MARGIN)
        py = SVG_HEIGHT - SVG_MARGIN - (ly - y0) / (y1 - y0) * (
            SVG_HEIGHT - 2 * SVG_MARGIN)
        return px, py

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{SVG_WIDTH}' "
        f"height='{SVG_HEIGHT}'>",
        f"<rect width='{SVG_WIDTH}' height='{SVG_HEIGHT}' fill='white'/>",
        f"<line x1='{SVG_MARGIN}' y1='{SVG_HEIGHT - SVG_MARGIN}' "
        f"x2='{SVG_WIDTH - SVG_MARGIN}' y2='{SVG_HEIGHT - SVG_MARGIN}' stroke='black'/>",
        f"<line x1='{SVG_MARGIN}' y1='{SVG_MARGIN}' x2='{SVG_MARGIN}' "
        f"y2='{SVG_HEIGHT - SVG_MARGIN}' stroke='black'/>",
        f"<text x='{SVG_WIDTH // 2}' y='{SVG_HEIGHT - SVG_MARGIN // 4}' "
        "text-anchor='middle' font-size='12'>log10 N_lambda</text>",
        f"<text x='{SVG_MARGIN // 3}' y='{SVG_HEIGHT // 2}' font-size='12' "
        f"transform='rotate(-90 {SVG_MARGIN // 3} {SVG_HEIGHT // 2})' "
        "text-anchor='middle'>log10 rel. L2 error</text>",
    ]
    for s, ((method, p), pts) in enumerate(series.items()):
        color = palette[s % len(palette)]
        coords = " ".join("{:.2f},{:.2f}".format(*to_px(*pt)) for pt in pts)
        parts.append(
            f"<polyline points='{coords}' fill='none' stroke='{color}' "
            "stroke-width='1.5'/>"
        )
        parts.append(
            f"<text x='{SVG_WIDTH - SVG_MARGIN + 4}' y='{SVG_MARGIN + 14 * s}' "
            f"font-size='11' fill='{color}'>{method}-p{p}</text>"
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="study", description="Helmholtz convergence-study runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a study from a JSON config")
    run_p.add_argument("config")
    run_p.add_argument("--k", type=float, default=None)
    run_p.add_argument("--method", choices=["fosls", "fem", "both"], default=None)
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--svg", action="store_true", default=None,
                       help="also render an SVG log-log plot")
    sub.add_parser("list-problems", help="list registered problems")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    if args.command == "list-problems":
        for name in list_problems():
            print(name)
        return 0

    try:
        config = load_config(args.config, overrides={
            "k": args.k, "method": args.method, "output_dir": args.out,
            "svg": args.svg,
        })
        _, paths = run_study(config)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except SolverError as exc:
        log.error("solver failure: %s", exc)
        return 3
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
