"""Command-line surface: single experiments and (lam, d) campaign grids.

Every subcommand that draws randomness resolves its seed the same way
(--seed flag, then the config file, then CONTACT_MF_SEED, then 0).  Every
subcommand but campaign prints the formula it exercises as a leading
comment line, and can serialize its result rows to CSV (floats at 17
significant digits, so files diff cleanly and round-trip exactly) or JSON
(non-finite floats as null).

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

# walk and moments load numpy, so only hitting and moments import them;
# survival, bound, duality and bcpp-check run without it
from . import analytics, bcpp, contact
from .errors import InvariantViolation, NumericalError, UsageError
from .lattice import Torus
from .rng import stream_key, substream

__all__ = ["main", "SURVIVAL_COLUMNS"]

SURVIVAL_COLUMNS = [
    "lambda", "d", "p_hat", "std_err", "n_censored", "lower_bound",
    "upper_bound", "griffeath_bound", "H_estimate", "K_used", "seed",
]

# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(rows: list[dict], args, header: str) -> None:
    """Write rows to --out (via a renamed temp file, never half-written) or
    echo a table to stdout, in csv or json.  The columns are the first
    row's keys, in order; every command has at least one row."""
    columns = list(rows[0])
    if args.out:
        tmp = f"{args.out}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                if args.format == "json":
                    # RFC 8259 has no NaN or Infinity, so a non-finite float is null
                    finite = [{c: None if isinstance(v, float) and not abs(v) < float("inf") else v
                               for c, v in row.items()} for row in rows]
                    json.dump(finite, fh, indent=2, allow_nan=False)
                    fh.write("\n")
                else:
                    fh.write(f"# {header}\n")
                    fh.write(",".join(columns) + "\n")
                    for row in rows:
                        fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
            os.replace(tmp, args.out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        print(f"wrote {len(rows)} row(s) to {args.out}")
    else:
        widths = {c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in columns}
        print("  ".join(c.rjust(widths[c]) for c in columns))
        for row in rows:
            print("  ".join(_fmt(row[c]).rjust(widths[c]) for c in columns))


# ---------------------------------------------------------------------------
# config / seed plumbing
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict[str, dict]:
    """Each section of an INI config file as a dict of its raw values."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise UsageError(f"bad config file {path}: {exc}")
    return {name: dict(parser[name]) for name in parser.sections()}


def _dest(name: str) -> str:
    return "lam" if name == "lambda" else name.replace("-", "_")


def _convert(key: str, spec, raw: str):
    """A config value parsed and checked like its flag: by the row's type,
    or against its choices."""
    if isinstance(spec, tuple):
        if raw not in spec:
            raise UsageError(f"bad config value {key} = {raw!r}; use {' or '.join(spec)}")
        return raw
    try:
        return spec(raw)
    except ValueError:
        raise UsageError(f"bad config value {key} = {raw!r}")


def _resolve(args: argparse.Namespace, section: dict) -> None:
    """Fill each option the flags left at None: from the config section
    (keys are flags without their dashes, '-' or '_' alike), else from the
    option table's default, or for a seed from CONTACT_MF_SEED, else 0."""
    _, _, options = _COMMANDS[args.command]
    rows = {flag[2:]: (spec, default) for flag, spec, default, _ in options}
    values = {key.replace("_", "-"): raw for key, raw in section.items()}
    unknown = sorted(values.keys() - rows.keys())
    if unknown:
        raise UsageError(f"unknown config key '{unknown[0]}' for command {args.command}")
    for name, (spec, default) in rows.items():
        if getattr(args, _dest(name)) is None:
            value = _convert(name, spec, values[name]) if name in values else default
            setattr(args, _dest(name), value)
    if "seed" in rows and args.seed is None:
        env = os.environ.get("CONTACT_MF_SEED", "0")
        try:
            args.seed = int(env)
        except ValueError:
            raise UsageError(f"CONTACT_MF_SEED must be an integer, got {env!r}")
    if "jobs" in rows and args.jobs < 1:
        # refused here, before any walk or worker starts
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")


def _comma_list(kind):
    """The flag type and config converter of a comma-separated list of
    `kind` values.  Its ValueError never reaches the user: argparse and
    _convert each word their own message, naming the flag or key."""
    def parse(text: str) -> list:
        values = [kind(tok) for tok in str(text).split(",") if tok.strip()]
        if not values:
            raise ValueError(f"empty list: {text!r}")
        return values
    parse.__name__ = f"_{kind.__name__}_list"   # argparse: "invalid _int_list value"
    return parse


# ---------------------------------------------------------------------------
# survival campaign
# ---------------------------------------------------------------------------

def _blocks(trials: int, jobs: int) -> list[range]:
    """Trial indices 0..trials-1 cut into min(trials, 4*jobs) blocks of
    consecutive indices, small enough to even out the workers' load."""
    n = min(trials, 4 * jobs)
    return [range(trials * b // n, trials * (b + 1) // n) for b in range(n)]


def _survival_cell(task: tuple):
    """Run one pool task, a (block function, *args) tuple; every command's
    pool maps this one function."""
    block_fn, *args = task
    return block_fn(*args)


def _run_tasks(groups: list[list], jobs: int) -> list[list]:
    """_survival_cell of every task, regrouped as `groups` lists them: on a
    pool of `jobs` workers, never more than there are tasks, or in process
    when that leaves one.  A worker's exception is raised here, in the
    parent."""
    tasks = [task for group in groups for task in group]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results = [_survival_cell(task) for task in tasks]
    else:
        # multiprocessing loads only when a pool runs, about 1.7 MB of RSS
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_survival_cell, tasks))
    flat = iter(results)
    return [[next(flat) for _ in group] for group in groups]


def _coupled_events(lam: float, torus: Torus, horizon: float, block: range, seed: int) -> int:
    """Summed bcpp coupled-run event count of the trial indices in `block`."""
    return sum(bcpp.run_coupled(lam, torus, horizon, substream(seed, "coupled", i))
               for i in block)


def cmd_survival(args) -> int:
    trials, horizon, threshold = args.trials, args.horizon, args.threshold
    # refused before any worker starts
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    if not (horizon > 0) or threshold < 1:
        raise UsageError(f"need --horizon > 0 and --threshold >= 1, got {horizon} and {threshold}")
    # every cell's H(d) is exact, in well under a millisecond, so the
    # parent computes the bounds (and refuses their arguments) before the
    # pool, which runs only trial blocks
    cells = []
    for i, lam in enumerate(args.lam):
        for j, d in enumerate(args.d):
            # 63-bit mask keeps the serialized per-cell seed a plain int64
            cell_seed = stream_key(args.seed, "survival-cell", i, j) & ((1 << 63) - 1)
            params = contact.ContactParams(lam, d)
            hitting = analytics.hitting_exact(d)
            bounds = analytics.survival_sandwich(lam, d, hitting)
            cells.append((params, cell_seed, hitting, bounds))
    header = (
        "survival sandwich: reach(level)*floor(level) - 3*sigma <= p_hat"
        " <= (lam-1)/lam + 3*sigma"
    )
    print(f"# {header}")
    blocks = _blocks(trials, args.jobs)
    groups = [[(contact.tally_survival, params, block, horizon, threshold, cell_seed)
               for block in blocks] for params, cell_seed, _, _ in cells]
    rows = []
    for (params, cell_seed, hitting, bounds), cell in zip(cells, _run_tasks(groups, args.jobs)):
        est = contact.summarize_survival(params, trials, *map(sum, zip(*cell)), horizon, threshold)
        rows.append(dict(zip(SURVIVAL_COLUMNS, (
            params.lam, params.d, est.p_hat, est.std_err, est.n_censored, bounds.lower,
            bounds.upper, bounds.halved, hitting, bounds.level, cell_seed,
        ))))
    _emit(rows, args, header)
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
    sol = analytics.solve_mean_field_ode(args.lam, args.t_end, args.dt)
    exact = analytics.mean_field_closed_form(args.lam, sol.times)
    rows = [
        {"t": float(t), "rk4": float(v), "closed_form": float(e),
         "abs_err": abs(float(v) - float(e))}
        for t, v, e in zip(sol.times[::100], sol.values[::100], exact[::100])
    ]
    header = "df/dt = -f + lam*f*(1-f), f(0) = 1; fixed point max(0, (lam-1)/lam)"
    print(f"# {header}")
    _emit(rows, args, header)
    sup = max(abs(float(v) - float(e)) for v, e in zip(sol.values, exact))
    print(f"sup |rk4 - closed| = {sup:.3e}; fixed point = {sol.fixed_point:.17g}")
    return 0


def cmd_bound(args) -> int:
    lam, d, size = args.lam, args.d, args.set_size
    level = args.level if args.level is not None else size
    hitting = args.hitting if args.hitting is not None else analytics.hitting_exact(d)
    floor = analytics.second_moment_survival_bound(lam, hitting, size)
    reach = analytics.reach_probability(lam, d, level)
    bounds = analytics.survival_sandwich(lam, d, hitting, level)
    rows = [{
        "lambda": lam, "d": d, "H": hitting, "set_size": size,
        "floor": floor.value, "vacuous": floor.vacuous, "level": level,
        "reach": reach, "combined_lower": bounds.lower, "upper": bounds.upper,
    }]
    header = (
        "floor(n) = n^2*(lam-1-2*lam*H) / ((n^2-n)*(lam-1)*(1-H) + 2*n*lam*(1-H));"
        " reach(K) = (1 - 1/mu) / (1 - mu^-K), mu = lam*(1 - K/(2d))"
    )
    print(f"# {header}")
    _emit(rows, args, header)
    return 0


def cmd_hitting(args) -> int:
    from . import walk

    d, method = args.d, args.method
    problems = []
    if args.kesten is not None:
        table, problems = walk.kesten_check(args.kesten, n_walks=args.walks,
                                            max_steps=args.max_steps, seed=args.seed)
        rows = [{"d": dim, "H": h, "two_d_H": scaled, "std_err": se}
                for dim, h, scaled, se in table]
    else:
        estimates = []
        if method in ("monte-carlo", "both"):
            estimates.append(walk.hitting_mc(d, n_walks=args.walks, max_steps=args.max_steps,
                                             seed=args.seed))
        if method in ("harmonic-solve", "both"):
            estimates.append(walk.hitting_harmonic(d, args.radius))
        # a route leaves the std_err or bracket it has no value for at NaN
        rows = [{"d": d, "method": est.method, "H": est.h, "std_err": est.std_err,
                 "bracket_low": est.bracket[0], "bracket_high": est.bracket[1]}
                for est in estimates]
    header = "H = P(walk from e1 ever hits O); 2*d*H -> 1 in high dimension"
    print(f"# {header}")
    _emit(rows, args, header)
    if problems:
        print(f"kesten-window violation: {'; '.join(problems)}", file=sys.stderr)
        return 1
    return 0


def cmd_duality(args) -> int:
    lam, d, side, t, trials = args.lam, args.d, args.torus_side, args.t, args.trials
    # refused here, before any worker starts
    if not 0 <= t < float("inf"):
        raise UsageError(f"time must be >= 0 and finite, got {t}")
    if trials < 1:
        raise UsageError(f"n_trials must be >= 1, got {trials}")
    params = contact.ContactParams(lam, d, Torus(d, side))
    header = "P(eta_t^O nonempty) = P(eta_t^full(O) = 1) on a torus (self-duality)"
    print(f"# {header}")
    tasks = [(contact.tally_duality, params, t, block, args.seed)
             for block in _blocks(trials, args.jobs)]
    (tallies,) = _run_tasks([tasks], args.jobs)
    res = contact.summarize_duality(*map(sum, zip(*tallies)), trials)
    rows = [{
        "lambda": lam, "d": d, "torus_side": side, "t": t,
        "n_trials": res.n_trials,
        "p_single_survives": res.p_single_survives,
        "p_full_covers_origin": res.p_full_covers_origin,
        "z_score": res.z_score,
    }]
    _emit(rows, args, header)
    if abs(res.z_score) >= 3.0:
        print(f"bound violation: |z| = {abs(res.z_score):.2f} >= 3", file=sys.stderr)
        return 1
    return 0


def cmd_bcpp_check(args) -> int:
    lam, horizon, trials, jobs, seed = args.lam, args.horizon, args.trials, args.jobs, args.seed
    # refused here, before any worker starts
    if not (lam > 0):
        raise UsageError(f"infection rate must be positive, got {lam}")
    if not 0 < horizon < float("inf"):
        raise UsageError(f"horizon must be positive and finite, got {horizon}")
    if trials < 1:
        raise UsageError(f"n_trials must be >= 1, got {trials}")
    checkpoints = bcpp.checkpoint_times(args.times)
    torus = Torus(args.d, args.torus_side)
    header = "E[value(O)] = 1 for all t; strictly-positive support = infected set"
    print(f"# {header}")
    # one pool for both checks, the longer first-moment blocks first
    moment_blocks, coupled = _run_tasks([
        [(bcpp.first_moment_values, lam, torus, checkpoints, block, seed)
         for block in _blocks(max(2000, trials), jobs)],
        [(_coupled_events, lam, torus, horizon, block, seed) for block in _blocks(trials, jobs)],
    ], jobs)
    print(f"coupling: {trials} trials, {sum(coupled)} events, zero support mismatches")
    table = bcpp.mean_rows(checkpoints, (row for block in moment_blocks for row in block))
    rows = [
        {"t": t, "mean_value_origin": m, "std_err": se,
         "z_score": (m - 1.0) / se if se > 0 else 0.0}
        for t, m, se in table
    ]
    _emit(rows, args, header)
    bad = [r for r in rows if abs(r["z_score"]) >= 3.0]
    if bad:
        print(f"bound violation: first moment off at t={[r['t'] for r in bad]}", file=sys.stderr)
        return 1
    return 0


def cmd_moments(args) -> int:
    from . import moments

    lam, d, radius = args.lam, args.d, args.radius
    # refused here, before the solve
    if not 0 <= args.t < float("inf"):
        raise UsageError(f"--t must be finite and >= 0, got {args.t}")
    if not 1 <= args.set_size < radius:
        raise UsageError(f"--set-size must be in [1, --radius), got {args.set_size}")
    gen = moments.CorrelationGenerator(lam, d, radius)
    header = (
        "dF/dt = A F with A(h+b) = 0 on interior rows;"
        " floor(n) = n^2*b / ((n^2-n)*(H+b) + n*(1+b))"
    )
    print(f"# {header}")
    sv = moments.build_stationary(gen)
    report = moments.verify_stationary(gen, sv)
    print(
        f"stationary residual: interior sup {report.sup_interior:.3e} "
        f"(radius <= {report.interior_radius}), origin row {report.origin_row:.3e}, "
        f"boundary sup {report.sup_boundary:.3e}; b = {sv.offset:.6f}"
    )
    table = moments.second_moment_bound_check(gen, sv, args.t, args.set_size)
    rows = [
        {"set_size": r.set_size, "lhs": r.lhs, "rhs": r.rhs,
         "cs_bound": r.cs_bound, "closed_bound": r.closed_bound}
        for r in table
    ]
    _emit(rows, args, header)
    return 0


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

def cmd_campaign(args) -> int:
    if not args.config:
        raise UsageError("campaign requires --config with one section per subcommand")
    if args.jobs is not None and args.jobs < 1:
        # refused before any section runs, even one that takes no --jobs
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    sections = _read_config(args.config)
    if not sections:
        raise UsageError(f"config file {args.config} has no section to run")
    # every section is named, parsed and resolved before the first one runs,
    # so a bad section anywhere is refused before any output
    runs = []
    for section, values in sections.items():
        if section not in _COMMANDS or section == "campaign":
            raise UsageError(f"config section [{section}] is not a subcommand")
        sub_args = _parse([section])
        # the flags beat the config's seed and jobs, in sections that take them
        for name, value in (("seed", args.seed), ("jobs", args.jobs)):
            if hasattr(sub_args, name):
                setattr(sub_args, name, value)
        _resolve(sub_args, values)
        runs.append(sub_args)
    worst = 0
    for sub_args in runs:
        print(f"== {sub_args.command} ==")
        worst = max(worst, _COMMANDS[sub_args.command][0](sub_args))
    return worst


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

# One row per option: (flag, type or choices, default, help).  A None
# default is worked out later (seed by _resolve, hitting and level by the
# command) or means the option is off (out, config, kesten).  A command
# lists only the rows it reads: seed if it draws randomness, jobs if a pool.
_SEED = ("--seed", int, None, "master seed (fallback: config, then CONTACT_MF_SEED, then 0)")
_JOBS = ("--jobs", int, os.cpu_count() or 1, "worker processes")
_CONFIG = ("--config", str, None, "INI-style config; section [<subcommand>] supplies defaults")
_OUTPUT = [
    ("--out", str, None, "output file path (default: stdout table)"),
    ("--format", ("csv", "json"), "csv", "output format for --out"),
    _CONFIG,
]

_H_IGNORED = "ignored: H(d) is exact; kept so existing command lines and configs still run"

# command -> (handler, summary, options): drives the flags, the config
# keys, the campaign's sections and the dispatch
_COMMANDS = {
    "survival": (cmd_survival, "survival-probability campaign over a (lambda, d) grid", [
        ("--lambda", _comma_list(float), (2.0,), "comma-separated infection rates"),
        ("--d", _comma_list(int), (4, 6, 8), "comma-separated dimensions"),
        ("--trials", int, 2000, "trials per cell"),
        ("--horizon", float, 200.0, "censoring time"),
        ("--threshold", int, 500, "infected count treated as survival"),
        ("--h-walks", int, None, _H_IGNORED),
        ("--h-max-steps", int, None, _H_IGNORED),
    ] + [_SEED, _JOBS, *_OUTPUT]),
    "ode": (cmd_ode, "mean-field ODE vs closed form", [
        ("--lambda", float, 2.0, "infection rate"),
        ("--t-end", float, 10.0, "end time"),
        ("--dt", float, 1e-3, "RK4 step"),
    ] + _OUTPUT),
    "bound": (cmd_bound, "analytic survival floors for one (lambda, d)", [
        ("--lambda", float, 2.0, "infection rate"),
        ("--d", int, 6, "dimension"),
        ("--hitting", float, None, "override the exact H"),
        ("--set-size", int, 1, "seed-set size of the floor"),
        ("--level", int, None, "seed-set level of the combined bound (default: --set-size)"),
    ] + _OUTPUT),
    "hitting": (cmd_hitting, "walk hitting probability H(d)", [
        ("--d", int, 3, "dimension"),
        ("--method", ("monte-carlo", "harmonic-solve", "both"), "both", "estimator"),
        ("--walks", int, 1_000_000, "Monte Carlo walks"),
        ("--max-steps", int, 10_000, "step budget of each walk"),
        ("--radius", int, 20, "box radius of the harmonic solve"),
        ("--kesten", _comma_list(int), None, "comma-separated dimensions for the 2dH sweep"),
    ] + [_SEED, *_OUTPUT]),
    "duality": (cmd_duality, "single-site vs all-infected agreement on a torus", [
        ("--lambda", float, 1.5, "infection rate"),
        ("--d", int, 2, "dimension"),
        ("--torus-side", int, 8, "torus side length"),
        ("--t", float, 3.0, "time of the comparison"),
        ("--trials", int, 10_000, "paired trials"),
    ] + [_SEED, _JOBS, *_OUTPUT]),
    "bcpp-check": (cmd_bcpp_check, "support coupling and first-moment calibration", [
        ("--lambda", float, 1.5, "infection rate"),
        ("--d", int, 2, "dimension"),
        ("--torus-side", int, 6, "torus side length"),
        ("--horizon", float, 5.0, "length of each coupled run"),
        ("--trials", int, 100, "coupled runs"),
        ("--times", _comma_list(float), (0.5, 1.0, 2.0), "comma-separated checkpoint times"),
    ] + [_SEED, _JOBS, *_OUTPUT]),
    "moments": (cmd_moments, "correlation evolution, stationary vector, pair bounds", [
        ("--lambda", float, 2.0, "infection rate"),
        ("--d", int, 4, "dimension"),
        ("--radius", int, 10, "truncation radius"),
        ("--t", float, 1.0, "evolution time"),
        ("--set-size", int, 3, "largest seed-set size"),
    ] + _OUTPUT),
    # seed and jobs pass on to the sections whose command takes them
    "campaign": (cmd_campaign, "run every section of a config file", [_CONFIG, _SEED, _JOBS]),
}


def _parse(argv) -> argparse.Namespace:
    """Every argparse default is None, so _resolve can tell the flags left
    unset; the table's defaults only show in --help."""
    top = argparse.ArgumentParser(
        prog="contact-mf",
        description=(
            "Contact-process survival toolkit: event-driven trials, mean-field "
            "ODE, hitting probabilities, duality and pair-correlation bounds. "
            "Survival CSV columns, in order: " + ",".join(SURVIVAL_COLUMNS)
        ),
    )
    subs = top.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in _COMMANDS.items():
        p = subs.add_parser(command, help=summary)
        for flag, spec, default, text in options:
            kind = {"choices": spec} if isinstance(spec, tuple) else {"type": spec}
            if default is not None:
                shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
                text = f"{text} (default {shown})"
            p.add_argument(flag, dest=_dest(flag[2:]), default=None, help=text, **kind)
    return top.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    try:
        if args.command != "campaign":
            _resolve(args, _read_config(args.config).get(args.command, {}) if args.config else {})
        return _COMMANDS[args.command][0](args)
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
