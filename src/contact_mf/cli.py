"""Command-line surface: single experiments and (lam, d) campaign grids.

Every subcommand resolves its seed the same way (--seed flag, then the
config file, then CONTACT_MF_SEED, then 0), prints the formula it
exercises as a leading comment line, and can serialize its result rows to
CSV (floats at 17 significant digits, so files diff cleanly and round-trip
exactly) or JSON.

Exit codes: 0 success; 1 a checked statistical or analytic bound failed;
2 bad usage; 3 numerical breakdown (non-convergence, vacuous-bound domain,
blow-up); 4 file I/O.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass

from . import analytics, bcpp, contact, moments, walk
from .errors import InvariantViolation, NumericalError, UsageError
from .lattice import Torus
from .rng import stream_key, substream

__all__ = ["main", "ResultRow", "SURVIVAL_COLUMNS"]

SURVIVAL_COLUMNS = [
    "lambda", "d", "p_hat", "std_err", "n_censored", "lower_bound",
    "upper_bound", "griffeath_bound", "H_estimate", "K_used", "seed",
]

_INT_FIELDS = {"d", "n_censored", "K_used", "seed", "set_size", "n_trials", "n_walks"}


@dataclass(frozen=True)
class ResultRow:
    """One survival-campaign cell; field order matches SURVIVAL_COLUMNS."""

    lam: float
    d: int
    p_hat: float
    std_err: float
    n_censored: int
    lower_bound: float
    upper_bound: float
    griffeath_bound: float
    H_estimate: float
    K_used: int
    seed: int

    def to_dict(self) -> dict:
        return dict(zip(SURVIVAL_COLUMNS, astuple(self)))

    @classmethod
    def from_dict(cls, row: dict) -> "ResultRow":
        return cls(*(row[c] for c in SURVIVAL_COLUMNS))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(key: str, value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if key in _INT_FIELDS or isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(rows: list[dict], columns: list[str], args, header: str) -> None:
    """Write rows to --out (via a renamed temp file, never half-written) or
    echo a table to stdout, in csv or json."""
    fmt = args.format or "csv"
    if args.out:
        tmp = f"{args.out}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                if fmt == "json":
                    json.dump(rows, fh, indent=2)
                    fh.write("\n")
                else:
                    fh.write(f"# {header}\n")
                    fh.write(",".join(columns) + "\n")
                    for row in rows:
                        fh.write(",".join(_fmt(c, row[c]) for c in columns) + "\n")
            os.replace(tmp, args.out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        print(f"wrote {len(rows)} row(s) to {args.out}")
    else:
        widths = {
            c: max(len(c), *(len(_fmt(c, r[c])) for r in rows)) if rows else len(c)
            for c in columns
        }
        print("  ".join(c.rjust(widths[c]) for c in columns))
        for row in rows:
            print("  ".join(_fmt(c, row[c]).rjust(widths[c]) for c in columns))


# ---------------------------------------------------------------------------
# config / seed plumbing
# ---------------------------------------------------------------------------

def _load_section(path: str, section: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise UsageError(f"bad config file {path}: {exc}")
    return dict(parser[section]) if parser.has_section(section) else {}


def _fill_from_config(args: argparse.Namespace, overrides: dict) -> None:
    """Config supplies values only for flags the user left at None."""
    for key, raw in overrides.items():
        attr = "lam" if key == "lambda" else key.replace("-", "_")
        if not hasattr(args, attr):
            raise UsageError(f"unknown config key '{key}' for command {args.command}")
        if getattr(args, attr) is None:
            spec = _FLAG_TYPES.get(attr, str)
            try:
                setattr(args, attr, spec(raw))
            except ValueError:
                raise UsageError(f"bad config value {key} = {raw!r}")
    if args.format not in (None, "csv", "json"):
        raise UsageError(f"bad config value format = {args.format!r}; use csv or json")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CONTACT_MF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"CONTACT_MF_SEED must be an integer, got {env!r}")
    return 0


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated reals, got {text!r}")
    if not values:
        raise UsageError(f"empty list: {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise UsageError(f"empty list: {text!r}")
    return values


_FLAG_TYPES = {
    "lam": str, "d": str, "trials": int, "horizon": float, "threshold": int,
    "torus_side": int, "seed": int, "jobs": int, "out": str, "format": str,
    "t": float, "t_end": float, "dt": float, "radius": int, "walks": int,
    "max_steps": int, "method": str, "times": str, "set_size": int,
    "bound_k": int, "level": int, "hitting": float, "h_walks": int,
    "h_max_steps": int, "kesten": str,
}


# ---------------------------------------------------------------------------
# survival campaign
# ---------------------------------------------------------------------------

def _best_level(lam: float, d: int, hitting: float, cap: int = 200) -> tuple[int, float]:
    """Pick the seed-set level with the largest combined survival floor.

    Subcritical rates (and the recurrent d where H = 1) have no positive
    floor; report level 1 with bound 0 rather than refusing the cell.
    """
    if lam <= 1.0 or hitting >= 1.0:
        return 1, 0.0
    best_k, best_v = 1, -1.0
    for k in range(1, cap + 1):
        v = analytics.combined_survival_bound(lam, d, hitting, k)
        if v > best_v:
            best_k, best_v = k, v
    return best_k, best_v


def _jobs(args) -> int:
    return args.jobs if args.jobs is not None else (os.cpu_count() or 1)


def _blocks(trials: int, jobs: int) -> list[range]:
    """Trial indices 0..trials-1 cut into min(trials, 4*jobs) blocks of
    consecutive indices, small enough to even out the workers' load."""
    n = min(trials, 4 * max(jobs, 1))
    return [range(trials * b // n, trials * (b + 1) // n) for b in range(n)]


def _survival_cell(task: tuple):
    """Run one pool task; every command's pool maps this one function.

    ("hitting", d, n_walks, max_steps, key) returns the Monte Carlo H(d);
    ("trials", params, block, horizon, threshold, cell_seed) the
    (n_reached, n_censored) survival tally of the trial indices in range
    `block`; ("duality", params, t, block, seed) their (survived, covered)
    duality tally; ("coupled", lam, torus, horizon, block, seed) their
    summed bcpp coupled-run event count; ("first-moment", lam, torus,
    checkpoints, block, seed) one row of origin values per trial.
    """
    kind, *spec = task
    if kind == "hitting":
        d, n_walks, max_steps, key = spec
        return walk.hitting_mc(d, n_walks=n_walks, max_steps=max_steps, seed=key).h
    if kind == "coupled":
        lam, torus, horizon, block, seed = spec
        return sum(bcpp.run_coupled(lam, torus, horizon, substream(seed, "coupled", i))
                   for i in block)
    tally = {"trials": contact.tally_survival, "duality": contact.tally_duality,
             "first-moment": bcpp.first_moment_values}[kind]
    return tally(*spec)


def _run_tasks(tasks: list, jobs: int) -> list:
    """_survival_cell of every task, in task order: on a pool of `jobs`
    workers, never more than there are tasks, or in process when that
    leaves one.  A worker's exception is raised here, in the parent."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [_survival_cell(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_survival_cell, tasks))


def _survival_row(est: contact.SurvivalEstimate, params: contact.ContactParams,
                  hitting: float, bound_k: int | None, cell_seed: int) -> dict:
    lam, d = params.lam, params.d
    if bound_k is None:
        k_used, lower = _best_level(lam, d, hitting)
    elif lam <= 1.0 or hitting >= 1.0:
        k_used, lower = bound_k, 0.0
    else:
        k_used = bound_k
        lower = analytics.combined_survival_bound(lam, d, hitting, bound_k)
    row = ResultRow(
        lam=lam, d=d, p_hat=est.p_hat, std_err=est.std_err,
        n_censored=est.n_censored, lower_bound=lower,
        upper_bound=analytics.dominating_walk_survival(lam),
        griffeath_bound=(lam - 1.0) / (2.0 * lam),
        H_estimate=hitting, K_used=k_used, seed=cell_seed,
    )
    return row.to_dict()


def cmd_survival(args) -> int:
    lams = _float_list(args.lam if args.lam is not None else "2.0")
    dims = _int_list(args.d if args.d is not None else "4,6,8")
    trials = args.trials if args.trials is not None else 2000
    if trials < 1:
        # refused before the H walks, which take seconds to minutes
        raise UsageError(f"--trials must be >= 1, got {trials}")
    horizon = args.horizon if args.horizon is not None else 200.0
    threshold = args.threshold if args.threshold is not None else 500
    seed = _resolve_seed(args)
    jobs = _jobs(args)
    header = (
        "survival sandwich: reach(level)*floor(level) - 3*sigma <= p_hat"
        " <= (lam-1)/lam + 3*sigma"
    )
    print(f"# {header}")
    n_walks = args.h_walks if args.h_walks is not None else 200_000
    max_steps = args.h_max_steps if args.h_max_steps is not None else 10_000
    h_dims = sorted(set(dims))
    # one task list for one pool: the H walks first, as the longest tasks,
    # then every cell's trials in blocks
    tasks = [("hitting", d, n_walks, max_steps, stream_key(seed, "hitting", d)) for d in h_dims]
    cells = []
    for i, lam in enumerate(lams):
        for j, d in enumerate(dims):
            # 63-bit mask keeps the serialized per-cell seed a plain int64
            cell_seed = stream_key(seed, "survival-cell", i, j) & ((1 << 63) - 1)
            cells.append((contact.ContactParams(lam, d), cell_seed))
    blocks = _blocks(trials, jobs)
    for params, cell_seed in cells:
        tasks += [("trials", params, block, horizon, threshold, cell_seed) for block in blocks]
    results = _run_tasks(tasks, jobs)
    hitting_by_d = dict(zip(h_dims, results))
    tallies = results[len(h_dims):]
    rows = []
    for c, (params, cell_seed) in enumerate(cells):
        cell = tallies[c * len(blocks):(c + 1) * len(blocks)]
        est = contact.summarize_survival(params, trials, *map(sum, zip(*cell)), horizon, threshold)
        rows.append(_survival_row(est, params, hitting_by_d[params.d], args.bound_k, cell_seed))
    _emit(rows, SURVIVAL_COLUMNS, args, header)
    ok = all(
        r["lower_bound"] - 3 * r["std_err"] <= r["p_hat"] <= r["upper_bound"] + 3 * r["std_err"]
        for r in rows
    )
    if not ok:
        print("bound violation: some cell left the sandwich", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# single-experiment commands
# ---------------------------------------------------------------------------

def cmd_ode(args) -> int:
    lam = float(args.lam) if args.lam is not None else 2.0
    t_end = args.t_end if args.t_end is not None else 10.0
    dt = args.dt if args.dt is not None else 1e-3
    header = "df/dt = -f + lam*f*(1-f), f(0) = 1; fixed point max(0, (lam-1)/lam)"
    print(f"# {header}")
    sol = analytics.solve_mean_field_ode(lam, t_end, dt)
    exact = analytics.mean_field_closed_form(lam, sol.times)
    rows = [
        {"t": float(t), "rk4": float(v), "closed_form": float(e),
         "abs_err": abs(float(v) - float(e))}
        for t, v, e in zip(sol.times[::100], sol.values[::100], exact[::100])
    ]
    _emit(rows, ["t", "rk4", "closed_form", "abs_err"], args, header)
    sup = max(abs(float(v) - float(e)) for v, e in zip(sol.values, exact))
    print(f"sup |rk4 - closed| = {sup:.3e}; fixed point = {sol.fixed_point:.17g}")
    return 0


def cmd_bound(args) -> int:
    lam = float(args.lam) if args.lam is not None else 2.0
    d = int(args.d) if args.d is not None else 6
    size = args.set_size if args.set_size is not None else 1
    level = args.level if args.level is not None else size
    header = (
        "floor(n) = n^2*(lam-1-2*lam*H) / ((n^2-n)*(lam-1)*(1-H) + 2*n*lam*(1-H));"
        " reach(K) = (1 - 1/mu) / (1 - mu^-K), mu = lam*(1 - K/(2d))"
    )
    print(f"# {header}")
    if args.hitting is not None:
        hitting = args.hitting
    else:
        hitting = walk.hitting_mc(
            d, n_walks=200_000, max_steps=10_000,
            seed=stream_key(_resolve_seed(args), "hitting", d),
        ).h
    floor = analytics.second_moment_survival_bound(lam, hitting, size)
    reach = analytics.reach_probability(lam, d, level)
    combined = analytics.combined_survival_bound(lam, d, hitting, level)
    upper = analytics.dominating_walk_survival(lam)
    rows = [{
        "lambda": lam, "d": d, "H": hitting, "set_size": size,
        "floor": floor.value, "vacuous": floor.vacuous, "level": level,
        "reach": reach, "combined_lower": combined, "upper": upper,
    }]
    _emit(rows, list(rows[0].keys()), args, header)
    if combined > upper + 1e-12:
        print("bound violation: lower exceeds upper", file=sys.stderr)
        return 1
    return 0


def cmd_hitting(args) -> int:
    d = int(args.d) if args.d is not None else 3
    method = args.method or "both"
    seed = _resolve_seed(args)
    header = "H = P(walk from e1 ever hits O); 2*d*H -> 1 in high dimension"
    print(f"# {header}")
    rows = []
    if args.kesten:
        dims = _int_list(args.kesten)
        try:
            table = walk.kesten_check(
                dims,
                n_walks=args.walks if args.walks is not None else 1_000_000,
                max_steps=args.max_steps if args.max_steps is not None else 10_000,
                seed=seed,
            )
        except InvariantViolation as exc:
            for dd, h, scaled, se in getattr(exc, "rows", []):
                print(f"  d={dd}: h={h:.6f}  2dh={scaled:.4f}  se={se:.2e}")
            print(f"kesten-window violation: {exc}", file=sys.stderr)
            return 1
        rows = [
            {"d": dd, "H": h, "two_d_H": s, "std_err": se}
            for dd, h, s, se in table
        ]
        _emit(rows, ["d", "H", "two_d_H", "std_err"], args, header)
        return 0
    if method in ("monte-carlo", "both"):
        est = walk.hitting_mc(
            d,
            n_walks=args.walks if args.walks is not None else 1_000_000,
            max_steps=args.max_steps if args.max_steps is not None else 10_000,
            seed=seed,
        )
        rows.append({
            "d": d, "method": est.method, "H": est.h,
            "std_err": est.std_err if est.std_err is not None else float("nan"),
            "bracket_low": float("nan"), "bracket_high": float("nan"),
        })
    if method in ("harmonic-solve", "both"):
        radius = args.radius if args.radius is not None else 20
        _, est = walk.hitting_harmonic(d, radius)
        rows.append({
            "d": d, "method": est.method, "H": est.h, "std_err": float("nan"),
            "bracket_low": est.bracket[0], "bracket_high": est.bracket[1],
        })
    if not rows:
        raise UsageError(f"unknown method {method!r}; use monte-carlo, harmonic-solve, or both")
    _emit(rows, ["d", "method", "H", "std_err", "bracket_low", "bracket_high"], args, header)
    return 0


def cmd_duality(args) -> int:
    lam = float(args.lam) if args.lam is not None else 1.5
    d = int(args.d) if args.d is not None else 2
    side = args.torus_side if args.torus_side is not None else 8
    t = args.t if args.t is not None else 3.0
    trials = args.trials if args.trials is not None else 10_000
    seed = _resolve_seed(args)
    jobs = _jobs(args)
    # refused here, before any worker starts
    if t < 0:
        raise UsageError(f"time must be >= 0, got {t}")
    if trials < 1:
        raise UsageError(f"n_trials must be >= 1, got {trials}")
    header = "P(eta_t^O nonempty) = P(eta_t^full(O) = 1) on a torus (self-duality)"
    print(f"# {header}")
    params = contact.ContactParams(lam, d, Torus(d, side))
    tasks = [("duality", params, t, block, seed) for block in _blocks(trials, jobs)]
    tallies = _run_tasks(tasks, jobs)
    res = contact.summarize_duality(*map(sum, zip(*tallies)), trials)
    rows = [{
        "lambda": lam, "d": d, "torus_side": side, "t": t,
        "n_trials": res.n_trials,
        "p_single_survives": res.p_single_survives,
        "p_full_covers_origin": res.p_full_covers_origin,
        "z_score": res.z_score,
    }]
    _emit(rows, list(rows[0].keys()), args, header)
    if abs(res.z_score) >= 3.0:
        print(f"bound violation: |z| = {abs(res.z_score):.2f} >= 3", file=sys.stderr)
        return 1
    return 0


def cmd_bcpp_check(args) -> int:
    lam = float(args.lam) if args.lam is not None else 1.5
    d = int(args.d) if args.d is not None else 2
    side = args.torus_side if args.torus_side is not None else 6
    horizon = args.horizon if args.horizon is not None else 5.0
    trials = args.trials if args.trials is not None else 100
    times = _float_list(args.times) if args.times is not None else [0.5, 1.0, 2.0]
    seed = _resolve_seed(args)
    jobs = _jobs(args)
    # refused here, before any worker starts
    if horizon <= 0:
        raise UsageError(f"horizon must be positive, got {horizon}")
    checkpoints = bcpp.checkpoint_times(times)
    header = "E[value(O)] = 1 for all t; strictly-positive support = infected set"
    print(f"# {header}")
    torus = Torus(d, side)
    # one pool for both checks, the longer first-moment blocks first
    tasks = [("first-moment", lam, torus, checkpoints, block, seed)
             for block in _blocks(max(2000, trials), jobs)]
    n_moment = len(tasks)
    tasks += [("coupled", lam, torus, horizon, block, seed) for block in _blocks(trials, jobs)]
    results = _run_tasks(tasks, jobs)
    events = sum(results[n_moment:])
    print(f"coupling: {trials} trials, {events} events, zero support mismatches")
    table = bcpp.mean_rows(checkpoints, (row for block in results[:n_moment] for row in block))
    rows = [
        {"t": t, "mean_value_origin": m, "std_err": se,
         "z_score": (m - 1.0) / se if se > 0 else 0.0}
        for t, m, se in table
    ]
    _emit(rows, ["t", "mean_value_origin", "std_err", "z_score"], args, header)
    bad = [r for r in rows if abs(r["z_score"]) >= 3.0]
    if bad:
        print(f"bound violation: first moment off at t={[r['t'] for r in bad]}", file=sys.stderr)
        return 1
    return 0


def cmd_moments(args) -> int:
    lam = float(args.lam) if args.lam is not None else 2.0
    d = int(args.d) if args.d is not None else 4
    radius = args.radius if args.radius is not None else 10
    t = args.t if args.t is not None else 1.0
    size = args.set_size if args.set_size is not None else 3
    header = (
        "dF/dt = A F with A(h+b) = 0 on interior rows;"
        " floor(n) = n^2*b / ((n^2-n)*(H+b) + n*(1+b))"
    )
    print(f"# {header}")
    gen = moments.CorrelationGenerator(lam, d, radius)
    sv = moments.build_stationary(gen)
    report = moments.verify_stationary(gen, sv)
    print(
        f"stationary residual: interior sup {report.sup_interior:.3e} "
        f"(radius <= {report.interior_radius}), origin row {report.origin_row:.3e}, "
        f"boundary sup {report.sup_boundary:.3e}; b = {sv.offset:.6f}"
    )
    table = moments.second_moment_bound_check(lam, d, radius, t, size)
    rows = [
        {"set_size": r.set_size, "lhs": r.lhs, "rhs": r.rhs,
         "cs_bound": r.cs_bound, "closed_bound": r.closed_bound}
        for r in table
    ]
    _emit(rows, ["set_size", "lhs", "rhs", "cs_bound", "closed_bound"], args, header)
    return 0


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

_HANDLERS = {
    "survival": cmd_survival,
    "ode": cmd_ode,
    "bound": cmd_bound,
    "hitting": cmd_hitting,
    "duality": cmd_duality,
    "bcpp-check": cmd_bcpp_check,
    "moments": cmd_moments,
}


def cmd_campaign(args) -> int:
    if not args.config:
        raise UsageError("campaign requires --config with one section per subcommand")
    if args.out is not None or args.format is not None:
        raise UsageError(
            "campaign takes no --out or --format: one file cannot hold several "
            "sections, so set out and format inside each section"
        )
    parser = configparser.ConfigParser()
    try:
        with open(args.config) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise UsageError(f"bad config file {args.config}: {exc}")
    worst = 0
    for section in parser.sections():
        if section not in _HANDLERS:
            raise UsageError(f"config section [{section}] is not a subcommand")
        print(f"== {section} ==")
        sub_args = _parse([section])
        # flags first, so the config's seed and jobs only fill in when absent
        sub_args.seed = args.seed
        sub_args.jobs = args.jobs
        _fill_from_config(args=sub_args, overrides=dict(parser[section]))
        code = _HANDLERS[section](sub_args)
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (fallback: config, then CONTACT_MF_SEED, then 0)")
    p.add_argument("--out", default=None, help="output file path (default: stdout table)")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="output format for --out (default csv)")
    p.add_argument("--config", default=None,
                   help="INI-style config; section [<subcommand>] supplies defaults")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: machine parallelism)")


def _parse(argv) -> argparse.Namespace:
    top = argparse.ArgumentParser(
        prog="contact-mf",
        description=(
            "Contact-process survival toolkit: event-driven trials, mean-field "
            "ODE, hitting probabilities, duality and pair-correlation bounds. "
            "Survival CSV columns, in order: " + ",".join(SURVIVAL_COLUMNS)
        ),
    )
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("survival", help="survival-probability campaign over a (lambda, d) grid")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="comma-separated infection rates (default 2.0)")
    p.add_argument("--d", default=None, help="comma-separated dimensions (default 4,6,8)")
    p.add_argument("--trials", type=int, default=None, help="trials per cell (default 2000)")
    p.add_argument("--horizon", type=float, default=None, help="censoring time (default 200)")
    p.add_argument("--threshold", type=int, default=None,
                   help="infected count treated as survival (default 500)")
    p.add_argument("--bound-k", dest="bound_k", type=int, default=None,
                   help="seed-set level for the lower bound (default: best level)")
    p.add_argument("--h-walks", dest="h_walks", type=int, default=None)
    p.add_argument("--h-max-steps", dest="h_max_steps", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("ode", help="mean-field ODE vs closed form")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    _add_common(p)

    p = subs.add_parser("bound", help="analytic survival floors for one (lambda, d)")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--d", default=None)
    p.add_argument("--hitting", type=float, default=None,
                   help="override H instead of estimating it")
    p.add_argument("--set-size", dest="set_size", type=int, default=None)
    p.add_argument("--level", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("hitting", help="walk hitting probability H(d)")
    p.add_argument("--d", default=None)
    p.add_argument("--method", choices=("monte-carlo", "harmonic-solve", "both"), default=None)
    p.add_argument("--walks", type=int, default=None)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--kesten", default=None,
                   help="comma-separated dimensions for the 2dH sweep")
    _add_common(p)

    p = subs.add_parser("duality", help="single-site vs all-infected agreement on a torus")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--d", default=None)
    p.add_argument("--torus-side", dest="torus_side", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("bcpp-check", help="support coupling and first-moment calibration")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--d", default=None)
    p.add_argument("--torus-side", dest="torus_side", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--times", default=None, help="comma-separated checkpoint times")
    _add_common(p)

    p = subs.add_parser("moments", help="correlation evolution, stationary vector, pair bounds")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--d", default=None)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--set-size", dest="set_size", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("campaign", help="run every section of a config file")
    _add_common(p)

    return top.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    try:
        if args.config and args.command != "campaign":
            _fill_from_config(args, _load_section(args.config, args.command))
        if args.command == "campaign":
            return cmd_campaign(args)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
