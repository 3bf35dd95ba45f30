"""The benchmark's workloads: the contact-mf command each round runs, the
inputs it derives from the seed, and the checks on the command's output.

Every workload returns the same number of checks on every round, whatever
the seed and whether or not the command wrote its output: a missing row
fails each check it would have fed.
"""

from __future__ import annotations

import csv
import os
import random
import re
from pathlib import Path

import checks


def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_rows(path: Path) -> list[dict]:
    """Rows of a contact-mf CSV file (leading '#' formula line skipped)."""
    try:
        with open(path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
    except OSError:
        return []
    return [{k: _value(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _status_ok(status: int) -> bool:
    # 1 is the program's own 3-sigma alarm, which the benchmark re-decides
    # with its own gates; 2-4 and signals mean the command broke
    return status in (0, 1)


def _write_config(path: Path, sections: dict[str, dict]) -> None:
    with open(path, "w") as fh:
        for name, values in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


class Survival:
    """`contact-mf survival` at lambda=2, d in {4,6,8}, small H walk budget."""

    name = "survival"
    lam = 2.0
    dims = (4, 6, 8)
    trials = 200
    h_walks = 10_000
    h_max_steps = 2_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "survival.csv"
        self.jobs = min(2, os.cpu_count() or 1)

    def argv(self) -> list[str]:
        return [
            "survival", "--lambda", repr(self.lam),
            "--d", ",".join(map(str, self.dims)),
            "--trials", str(self.trials),
            "--h-walks", str(self.h_walks), "--h-max-steps", str(self.h_max_steps),
            "--jobs", str(self.jobs), "--seed", str(self.seed), "--out", str(self.out),
        ]

    def check(self, status: int, stdout: str) -> list[bool]:
        rows = {int(r["d"]): r for r in read_rows(self.out) if r.get("lambda") == self.lam}
        results = [_status_ok(status)]
        for d in self.dims:
            row = rows.get(d)
            if row is None:
                results += [False] * 3
                continue
            results += [
                checks.hitting_mc_ok(row, self.h_walks),
                checks.survival_upper_ok(row),
                checks.survival_floor_ok(row),
            ]
        return results


class Moments:
    """One campaign: a [hitting] harmonic solve and a [moments] section at
    the same d and radius.  lambda comes from the seed and t = 8/lambda, so
    the RK4 step count (t*lambda/0.05) is the same for every seed."""

    name = "moments"
    d = 6
    radius = 10
    set_size = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.lam = round(random.Random(seed).uniform(1.6, 2.6), 6)
        self.config = workdir / "moments.ini"
        self.hitting_out = workdir / "moments_hitting.csv"
        self.pairs_out = workdir / "moments_pairs.csv"

    def argv(self) -> list[str]:
        _write_config(self.config, {
            "hitting": {"d": self.d, "method": "harmonic-solve", "radius": self.radius,
                        "out": self.hitting_out},
            "moments": {"lambda": repr(self.lam), "d": self.d, "radius": self.radius,
                        "t": repr(8.0 / self.lam), "set-size": self.set_size,
                        "out": self.pairs_out},
        })
        return ["campaign", "--config", str(self.config), "--seed", str(self.seed)]

    def check(self, status: int, stdout: str) -> list[bool]:
        results = [_status_ok(status)]
        hitting = read_rows(self.hitting_out)
        if len(hitting) == 1:
            results += checks.bracket_checks(hitting[0], self.radius)
            h_low = hitting[0]["bracket_low"]
        else:
            results += [False] * 3
            h_low = None
        pairs = {int(r["set_size"]): r for r in read_rows(self.pairs_out)}
        for size in range(1, self.set_size + 1):
            row = pairs.get(size)
            if row is None or h_low is None:
                results += [False] * 4
            else:
                results += checks.pair_row_checks(row, self.lam, h_low)
        results.append(1 in pairs and checks.jensen_ok(pairs[1]))
        return results


_COUPLING = re.compile(r"coupling: (\d+) trials, (\d+) events, zero support mismatches")


class Torus:
    """One campaign: [duality] and [bcpp-check] on the 8x8 torus."""

    name = "torus"
    lam = 1.5
    d = 2
    side = 8
    duality_t = 3.0
    duality_trials = 1000
    horizon = 5.0
    coupled_trials = 60
    times = (0.5, 1.0, 2.0)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config = workdir / "torus.ini"
        self.duality_out = workdir / "torus_duality.csv"
        self.moment_out = workdir / "torus_first_moment.csv"

    def argv(self) -> list[str]:
        common = {"lambda": repr(self.lam), "d": self.d, "torus-side": self.side}
        _write_config(self.config, {
            "duality": {**common, "t": repr(self.duality_t),
                        "trials": self.duality_trials, "out": self.duality_out},
            "bcpp-check": {**common, "horizon": repr(self.horizon),
                           "trials": self.coupled_trials,
                           "times": ",".join(map(repr, self.times)),
                           "out": self.moment_out},
        })
        return ["campaign", "--config", str(self.config), "--seed", str(self.seed)]

    def check(self, status: int, stdout: str) -> list[bool]:
        results = [_status_ok(status)]
        duality = read_rows(self.duality_out)
        results.append(len(duality) == 1 and checks.duality_ok(duality[0]))
        match = _COUPLING.search(stdout)
        results.append(match is not None and int(match.group(1)) == self.coupled_trials)
        results.append(match is not None and checks.coupled_events_ok(
            int(match.group(2)), self.coupled_trials, self.side ** self.d,
            self.lam, self.horizon))
        moments = {r["t"]: r for r in read_rows(self.moment_out)}
        for t in self.times:
            row = moments.get(t)
            results.append(row is not None and checks.first_moment_ok(row))
        return results


WORKLOADS = {w.name: w for w in (Survival, Moments, Torus)}
