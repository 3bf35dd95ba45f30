"""Command-line surface: examples, serialization, determinism, exit codes.

One test here is a documented failure of record rather than a regression:
the pinned claim that the mean-field ODE lands within 1e-6 of its fixed
point by t=10 at lam=2.  The actual gap decays like e^{-t}/2 and is still
~1.1e-5 at t=10; the companion test pins the true decay law and shows the
1e-6 window is reached at t=13.
"""

import concurrent.futures
import json
import math
import os
import re

import pytest

from contact_mf import analytics, bcpp, cli, contact, moments, walk
from contact_mf.cli import SURVIVAL_COLUMNS, main
from contact_mf.errors import InvariantViolation
from contact_mf.lattice import Torus
from contact_mf.rng import substream

_CSV_INTS = {"d", "n_censored", "K_used", "seed"}


def _table_rows(out: str) -> list[list[str]]:
    """Parse `_emit`'s aligned stdout table: skip comments, split columns."""
    lines = [ln for ln in out.splitlines() if ln.strip() and not ln.startswith("#")]
    return [ln.split() for ln in lines]


# ---------------------------------------------------------------------------
# help / usage
# ---------------------------------------------------------------------------

def test_help_documents_csv_column_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    # argparse re-wraps the description, so compare with whitespace removed
    flattened = "".join(capsys.readouterr().out.split())
    assert ",".join(SURVIVAL_COLUMNS) in flattened


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["survival", "--no-such-flag"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ode", "--lambda", "abc"],
    ["bound", "--d", "2.5", "--hitting", "0.1"],
    ["moments", "--d", "four"],
    ["duality", "--lambda", "x"],
    ["survival", "--d", "4,six"],
    ["survival", "--lambda", ","],
], ids=["ode-lambda", "bound-d", "moments-d", "duality-lambda", "survival-d", "survival-empty"])
def test_bad_scalar_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}" in capsys.readouterr().err


# each subcommand's options with their defaults: the command-line surface,
# pinned so that no default drifts and no flag is dropped or added.  Only
# the commands that draw randomness take a seed (0 with no flag, config or
# CONTACT_MF_SEED), and only those that run a pool take jobs
_OUTPUT_DEFAULTS = {"out": None, "format": "csv", "config": None}
_SEED, _JOBS = {"seed": 0}, {"jobs": os.cpu_count() or 1}
_DEFAULTS = {
    "survival": {"lam": (2.0,), "d": (4, 6, 8), "trials": 2000, "horizon": 200.0,
                 "threshold": 500, "h_walks": None, "h_max_steps": None, **_SEED, **_JOBS},
    "ode": {"lam": 2.0, "t_end": 10.0, "dt": 1e-3},
    "bound": {"lam": 2.0, "d": 6, "hitting": None, "set_size": 1, "level": None},
    "hitting": {"d": 3, "method": "both", "walks": 1_000_000, "max_steps": 10_000,
                "radius": 20, "kesten": None, **_SEED},
    "duality": {"lam": 1.5, "d": 2, "torus_side": 8, "t": 3.0, "trials": 10_000,
                **_SEED, **_JOBS},
    "bcpp-check": {"lam": 1.5, "d": 2, "torus_side": 6, "horizon": 5.0, "trials": 100,
                   "times": (0.5, 1.0, 2.0), **_SEED, **_JOBS},
    "moments": {"lam": 2.0, "d": 4, "radius": 10, "t": 1.0, "set_size": 3},
}


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_unset_options_resolve_to_their_defaults(command, monkeypatch):
    monkeypatch.delenv("CONTACT_MF_SEED", raising=False)
    args = cli._parse([command])
    cli._resolve(args, {})
    assert vars(args) == {"command": command, **_OUTPUT_DEFAULTS, **_DEFAULTS[command]}


@pytest.mark.parametrize("command", sorted(_DEFAULTS) + ["campaign"])
def test_each_subcommand_keeps_its_flags(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
    # campaign takes its config and the seed and jobs it passes on
    names = {**_OUTPUT_DEFAULTS, **_DEFAULTS[command]} if command in _DEFAULTS else {
        "config", "seed", "jobs"}
    assert flags == {"--" + ("lambda" if k == "lam" else k.replace("_", "-")) for k in names}


@pytest.mark.parametrize("argv", [
    ["ode", "--seed", "1"], ["moments", "--jobs", "2"], ["hitting", "--jobs", "2"],
    ["survival", "--bound-k", "3"],
], ids=["ode-seed", "moments-jobs", "hitting-jobs", "survival-bound-k"])
def test_a_flag_the_command_does_not_read_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("section", ["[bound]\nseed = 3\n", "[ode]\njobs = 2\n",
                                     "[moments]\nseed = 3\n", "[survival]\nbound-k = 3\n"],
                         ids=["bound-seed", "ode-jobs", "moments-seed", "survival-bound-k"])
def test_a_config_key_the_command_does_not_read_exits_2(section, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: pytest.fail("ran tasks"))
    cfg = tmp_path / "inert.ini"
    cfg.write_text(section)
    command = section[1:section.index("]")]
    assert main([command, "--config", str(cfg)]) == 2
    assert main(["campaign", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count(f"unknown config key '{section.split()[1]}'") == 2


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_ode_example_final_value_as_stated():
    # pinned as stated elsewhere: |f(10) - 1/2| < 1e-6 at lam=2.  The gap
    # truly is 1/(2*(2*e^10 - 1)) ~ 1.13e-5, so this fails by an order of
    # magnitude and stays red on purpose; see the companion test below.
    sol = analytics.solve_mean_field_ode(2.0, 10.0, 1e-3)
    assert abs(sol.values[-1] - 0.5) < 1e-6


def test_ode_final_gap_follows_decay_law():
    sol = analytics.solve_mean_field_ode(2.0, 10.0, 1e-3)
    gap = abs(sol.values[-1] - 0.5)
    assert gap == pytest.approx(1.0 / (2.0 * (2.0 * math.e**10 - 1.0)), rel=1e-6)
    # the 1e-6 window opens a few time units later
    later = analytics.solve_mean_field_ode(2.0, 13.0, 1e-3)
    assert abs(later.values[-1] - 0.5) < 1e-6


def test_bound_example_quarter_floor(capsys):
    rc = main(["bound", "--lambda", "2", "--d", "6", "--hitting", "0",
               "--set-size", "1", "--level", "1"])
    assert rc == 0
    rows = _table_rows(capsys.readouterr().out)
    header, row = rows[0], rows[1]
    values = dict(zip(header, row))
    assert float(values["floor"]) == 0.25
    assert float(values["combined_lower"]) == 0.25
    assert float(values["upper"]) == 0.5


def test_hitting_example_near_oracle(capsys):
    # same (walks, steps, seed) triple as the acceptance run, so the
    # cached estimate is reused and this costs nothing extra
    rc = main(["hitting", "--d", "3", "--method", "monte-carlo",
               "--walks", "1000000", "--max-steps", "100000", "--seed", "0"])
    assert rc == 0
    rows = _table_rows(capsys.readouterr().out)
    values = dict(zip(rows[0], rows[1]))
    assert values["method"] == "monte-carlo"
    assert abs(float(values["H"]) - 0.340537) < 0.004


_KESTEN = ["hitting", "--kesten", "8,10", "--walks", "600000", "--max-steps", "2000",
           "--seed", "2"]


def test_kesten_sweep_reports_window_violation(capsys):
    rc = main(_KESTEN)
    captured = capsys.readouterr()
    assert rc == 1
    assert "kesten-window violation" in captured.err
    rows = _table_rows(captured.out)
    assert rows[0] == ["d", "H", "two_d_H", "std_err"]
    assert [r[0] for r in rows[1:]] == ["8", "10"]
    assert float(rows[1][2]) > 1.15     # the d = 8 row is the one outside the window


def test_kesten_window_violation_still_writes_out(tmp_path, capsys):
    # the same walks as above (cached): the table is written, then exit 1
    out = tmp_path / "k.csv"
    assert main(_KESTEN + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "wrote 2 row(s)" in captured.out
    assert "kesten-window violation" in captured.err
    lines = out.read_text().splitlines()
    assert lines[1] == "d,H,two_d_H,std_err"
    assert [ln.split(",")[0] for ln in lines[2:]] == ["8", "10"]


# ---------------------------------------------------------------------------
# survival campaign: serialization and determinism
# ---------------------------------------------------------------------------

_FAST_CELL = ["survival", "--lambda", "2.0", "--d", "4", "--trials", "60",
              "--horizon", "50", "--threshold", "200", "--seed", "11",
              "--h-walks", "4000", "--h-max-steps", "1000", "--jobs", "1"]


def test_survival_csv_json_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    assert main(_FAST_CELL + ["--out", str(csv_path)]) == 0
    assert main(_FAST_CELL + ["--out", str(json_path), "--format", "json"]) == 0
    capsys.readouterr()

    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == ",".join(SURVIVAL_COLUMNS)
    assert len(lines) == 3

    row = json.loads(json_path.read_text())[0]
    for col, raw in zip(SURVIVAL_COLUMNS, lines[2].split(",")):
        if col in _CSV_INTS:
            assert int(raw) == row[col]
        else:
            # 17 significant digits: text round-trips to the exact float
            assert float(raw) == row[col]

    assert row["lower_bound"] <= row["upper_bound"]
    assert 0.0 <= row["p_hat"] <= 1.0


def test_same_seed_byte_identical_across_job_counts(tmp_path, capsys):
    # 2 lambdas x 2 dims: more cells than workers at --jobs 2 and 3, and at
    # --jobs 3 the 12 trial blocks per cell do not divide the 40 trials
    base = ["survival", "--lambda", "1.5,2.0", "--d", "3,4", "--trials", "40",
            "--horizon", "30", "--threshold", "100", "--seed", "7",
            "--h-walks", "3000", "--h-max-steps", "500"]
    blobs = []
    for i, jobs in enumerate(("1", "1", "2", "3")):
        out = tmp_path / f"{i}-jobs-{jobs}.csv"
        assert main(base + ["--jobs", jobs, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    assert len(blobs[0].decode().splitlines()) == 2 + 4


def test_survival_refuses_no_trials_before_any_walk(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: pytest.fail("ran tasks"))
    assert main(["survival", "--d", "4", "--trials", "0", "--jobs", "1"]) == 2
    assert "--trials must be >= 1" in capsys.readouterr().err


_TRIAL_FLAGS = "need --horizon > 0 and --threshold >= 1"


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "-1", _TRIAL_FLAGS), ("--horizon", "nan", _TRIAL_FLAGS),
    ("--threshold", "0", _TRIAL_FLAGS),
    # ContactParams takes lam = 0; the upper bound refuses it, and the
    # bounds are computed before the header and the pool
    ("--lambda", "0", "lambda must be positive, got 0.0"),
], ids=["horizon-negative", "horizon-nan", "threshold", "lambda-zero"])
def test_survival_refuses_bad_trial_flags_before_any_walk(flag, value, message, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: pytest.fail("ran tasks"))
    assert main(["survival", "--d", "4", "--trials", "5", "--jobs", "1", flag, value]) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""


@pytest.mark.parametrize("lam, d, best", [(10.0, 2500, 223), (4.0, 5000, 217), (2.0, 6, 1),
                                           (2.0, 100, 19)])
def test_best_level_matches_a_brute_force_scan(lam, d, best):
    # levels k >= 2d climb at rate lam*(1 - k/2d) <= 0, so the scan stops
    # at 2d - 1; the brute force runs on to 4d.  The level is the lowest
    # whose bound is within a relative LEVEL_TIE_RTOL of the top one
    h = analytics.hitting_exact(d)
    values = [analytics.combined_survival_bound(lam, d, h, k) for k in range(1, 4 * d + 1)]
    floor = max(values) * (1.0 - analytics.LEVEL_TIE_RTOL)
    assert next(k for k, value in enumerate(values, 1) if value >= floor) == best
    bounds = analytics.survival_sandwich(lam, d, h)
    assert (bounds.level, bounds.lower) == (best, values[best - 1])


@pytest.mark.parametrize("ulps", [-4, -3, -2, -1, 1, 2, 3, 4])
def test_an_exact_level_tie_survives_ulps_of_h(ulps):
    # at (lam, d) = (2, 6), reach(2)*floor(2) = floor(1) for every H, since
    # 4*lam*mu = (mu + 1)*(3*lam - 1) at mu = lam*(1 - 1/d) = 5/3
    h = analytics.hitting_exact(6)
    for _ in range(abs(ulps)):
        h = math.nextafter(h, math.copysign(math.inf, ulps))
    one, two = (analytics.combined_survival_bound(2.0, 6, h, k) for k in (1, 2))
    assert abs(two - one) <= 4 * math.ulp(one)
    bounds = analytics.survival_sandwich(2.0, 6, h)
    assert (bounds.level, bounds.lower) == (1, one)


def test_survival_and_bound_use_the_exact_h_and_never_walk(monkeypatch, capsys):
    monkeypatch.setattr(walk, "hitting_mc", lambda *a, **k: pytest.fail("walked"))
    assert main(_FAST_CELL) == 0
    row = dict(zip(*_table_rows(capsys.readouterr().out)))
    assert float(row["H_estimate"]) == analytics.hitting_exact(4)
    assert main(["bound", "--lambda", "2", "--d", "6"]) == 0
    row = dict(zip(*_table_rows(capsys.readouterr().out)))
    assert float(row["H"]) == analytics.hitting_exact(6)


def test_survival_ignores_the_walk_budget_flags(tmp_path, capsys):
    # --h-walks and --h-max-steps (and their config keys) still parse, so
    # existing command lines run, but no longer change a byte
    plain = [a for a in _FAST_CELL if a not in ("--h-walks", "4000", "--h-max-steps", "1000")]
    cfg = tmp_path / "walks.ini"
    cfg.write_text("[survival]\nh-walks = 5\nh_max_steps = 7\n")
    blobs = []
    for i, argv in enumerate((_FAST_CELL, plain, plain + ["--config", str(cfg)])):
        out = tmp_path / f"{i}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1] == blobs[2]


def test_bound_refuses_a_recurrent_dimension(capsys):
    # H = 1 at d <= 2: the second-moment floor has no domain there
    assert main(["bound", "--lambda", "2", "--d", "2"]) == 2
    assert "hitting probability must be in [0,1), got 1.0" in capsys.readouterr().err


def test_subcritical_grid_reports_all_zero(capsys):
    rc = main(["survival", "--lambda", "0.8", "--d", "2,6", "--trials", "400",
               "--seed", "1", "--h-walks", "2000", "--h-max-steps", "300",
               "--jobs", "1"])
    assert rc == 0
    rows = _table_rows(capsys.readouterr().out)
    header, data = rows[0], rows[1:]
    col = header.index("p_hat")
    assert len(data) == 2
    assert all(float(r[col]) == 0.0 for r in data)


def test_survival_trend_toward_mean_field_value(capsys):
    """Reduced-grid echo of the d=1..8 sweep (full version with 2000
    trials per cell runs against the library API in test_contact)."""
    rc = main(["survival", "--lambda", "2.0", "--d", "1,4,8", "--trials", "400",
               "--seed", "3", "--h-walks", "20000", "--h-max-steps", "2000",
               "--jobs", "1"])
    assert rc == 0
    rows = _table_rows(capsys.readouterr().out)
    header, data = rows[0], rows[1:]
    p = {int(r[header.index("d")]): float(r[header.index("p_hat")]) for r in data}
    assert p[1] < 0.05          # one neighbor each side: dies fast
    assert p[4] > 0.35
    assert p[8] > 0.40          # creeping toward the high-d value 1/2
    assert p[1] < p[4] and p[1] < p[8]


# ---------------------------------------------------------------------------
# seeds and config plumbing
# ---------------------------------------------------------------------------

_SMALL_HITTING = ["hitting", "--d", "4", "--method", "monte-carlo",
                  "--walks", "2000", "--max-steps", "200"]


def test_env_seed_fallback_matches_flag(monkeypatch, capsys):
    monkeypatch.delenv("CONTACT_MF_SEED", raising=False)
    assert main(_SMALL_HITTING + ["--seed", "21"]) == 0
    out_flag = capsys.readouterr().out
    monkeypatch.setenv("CONTACT_MF_SEED", "21")
    assert main(_SMALL_HITTING) == 0
    out_env = capsys.readouterr().out
    assert out_flag == out_env


def test_bad_env_seed_exits_2_only_when_consulted(monkeypatch, capsys):
    monkeypatch.setenv("CONTACT_MF_SEED", "definitely-not-an-int")
    assert main(_SMALL_HITTING) == 2
    assert "CONTACT_MF_SEED" in capsys.readouterr().err
    # commands that never draw randomness don't consult the variable
    assert main(["ode", "--lambda", "2", "--t-end", "1", "--dt", "0.001"]) == 0


def test_missing_config_file_exits_4():
    assert main(["ode", "--config", "/no/such/file.ini"]) == 4


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[ode]\nbogus = 1\n")
    assert main(["ode", "--config", str(cfg)]) == 2


def test_config_fills_flags_left_unset(tmp_path, capsys):
    cfg = tmp_path / "ode.ini"
    cfg.write_text("[ode]\nlambda = 4.0\nt-end = 5.0\ndt = 0.001\n")
    assert main(["ode", "--config", str(cfg)]) == 0
    assert "fixed point = 0.75" in capsys.readouterr().out


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "ode.ini"
    cfg.write_text("[ode]\nlambda = 4.0\nt-end = 5.0\ndt = 0.001\n")
    assert main(["ode", "--config", str(cfg), "--lambda", "2.0"]) == 0
    assert "fixed point = 0.5" in capsys.readouterr().out


def test_campaign_runs_each_section(tmp_path, capsys):
    cfg = tmp_path / "campaign.ini"
    cfg.write_text(
        "[ode]\n"
        "lambda = 2.0\n"
        "t-end = 2.0\n"
        "dt = 0.001\n"
        "\n"
        "[bound]\n"
        "lambda = 2.0\n"
        "d = 6\n"
        "hitting = 0.0\n"
        "set-size = 1\n"
        "level = 1\n"
    )
    assert main(["campaign", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "== ode ==" in out
    assert "== bound ==" in out


def test_campaign_rejects_unknown_section(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[not-a-command]\nx = 1\n")
    assert main(["campaign", "--config", str(cfg)]) == 2
    # campaign has a row in the command table, but is no section
    cfg.write_text(f"[campaign]\nconfig = {cfg}\n")
    assert main(["campaign", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count("config section [") == 2


def test_campaign_seed_flows_into_sections(tmp_path, capsys):
    cfg = tmp_path / "hit.ini"
    cfg.write_text("[hitting]\nd = 4\nmethod = monte-carlo\nwalks = 2000\nmax-steps = 200\n")
    assert main(_SMALL_HITTING + ["--seed", "21"]) == 0
    direct = capsys.readouterr().out.splitlines()
    assert main(["campaign", "--config", str(cfg), "--seed", "21"]) == 0
    via_campaign = capsys.readouterr().out.splitlines()
    assert via_campaign[0] == "== hitting =="
    assert via_campaign[1:] == direct


def test_campaign_seed_flag_beats_config_seed(tmp_path, capsys):
    cfg = tmp_path / "hit.ini"
    cfg.write_text(
        "[hitting]\nd = 4\nmethod = monte-carlo\nwalks = 2000\nmax-steps = 200\nseed = 3\n"
    )
    assert main(_SMALL_HITTING + ["--seed", "7"]) == 0
    direct = capsys.readouterr().out.splitlines()
    assert main(_SMALL_HITTING + ["--seed", "3"]) == 0
    config_seed = capsys.readouterr().out.splitlines()
    assert direct != config_seed
    assert main(["campaign", "--config", str(cfg), "--seed", "7"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == direct
    # without the flag the section's own seed applies
    assert main(["campaign", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == config_seed


def test_campaign_refuses_out_and_format(tmp_path, capsys):
    # one file cannot hold several sections, so campaign has no such flags
    cfg = tmp_path / "ode.ini"
    cfg.write_text("[ode]\nlambda = 2.0\nt-end = 1.0\n")
    out = tmp_path / "x"
    for flags in (["--out", str(out)], ["--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--config", str(cfg)] + flags)
        assert exc.value.code == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_campaign_refuses_an_empty_config(tmp_path, capsys):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("# no sections\n")
    assert main(["campaign", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert "has no section to run" in err
    assert out == ""


def test_campaign_refuses_jobs_below_one_before_any_section(tmp_path, capsys):
    # neither section takes --jobs, and still the flag is refused up front
    cfg = tmp_path / "plain.ini"
    cfg.write_text("[ode]\nt-end = 1.0\n\n[bound]\nd = 6\n")
    assert main(["campaign", "--config", str(cfg), "--jobs", "0"]) == 2
    out, err = capsys.readouterr()
    assert "usage error: --jobs must be >= 1, got 0" in err
    assert out == ""


@pytest.mark.parametrize("later", ["[bogus]\n", "[bound]\nbogus = 1\n"],
                         ids=["unknown-section", "unknown-key"])
def test_campaign_refuses_a_bad_later_section_before_any_runs(later, tmp_path, monkeypatch,
                                                             capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "two.ini"
    cfg.write_text(f"[ode]\nt-end = 1.0\nout = ode_out.csv\n\n{later}")
    assert main(["campaign", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("usage error: ")
    assert out == ""
    assert not (tmp_path / "ode_out.csv").exists()


_SEEDED_SECTIONS = {
    "survival": "lambda = 2.0\nd = 4\ntrials = 30\nhorizon = 30\nthreshold = 100\n",
    "duality": "lambda = 1.5\nd = 1\ntorus-side = 6\nt = 1.0\ntrials = 100\n",
    "bcpp-check": "lambda = 1.2\nd = 1\ntorus-side = 6\nhorizon = 2\ntrials = 10\n"
                  "times = 0.5,1\n",
}


@pytest.mark.parametrize("section", sorted(_SEEDED_SECTIONS))
def test_campaign_seed_beats_the_seed_of_each_random_section(section, tmp_path, capsys):
    cfg = tmp_path / "seeded.ini"
    cfg.write_text(f"[{section}]\n{_SEEDED_SECTIONS[section]}seed = 3\njobs = 1\n")
    flags = [arg for line in _SEEDED_SECTIONS[section].splitlines()
             for arg in ("--" + line.split(" = ")[0], line.split(" = ")[1])]
    outputs = []
    for seed in ("9", "3"):
        assert main([section, "--seed", seed, "--jobs", "1"] + flags) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] != outputs[1]
    assert main(["campaign", "--config", str(cfg), "--seed", "9"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"== {section} =="] + outputs[0]
    assert main(["campaign", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"== {section} =="] + outputs[1]


def _record_pools(monkeypatch) -> list[int]:
    """Make cli build its pools through a wrapper that logs each one's
    worker count, and return that log.  cli imports the pool class from
    concurrent.futures when it starts a pool, so the wrapper goes there."""
    pools = []
    pool_class = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return pool_class(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    return pools


def test_campaign_jobs_reach_sections_byte_identically(tmp_path, monkeypatch, capsys):
    pools = _record_pools(monkeypatch)
    blobs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"survival-{jobs}.csv"
        cfg = tmp_path / f"survival-{jobs}.ini"
        cfg.write_text(
            "[survival]\nlambda = 2.0\nd = 3,4\ntrials = 40\nhorizon = 30\n"
            f"threshold = 100\nh-walks = 3000\nh-max-steps = 500\nout = {out}\n"
        )
        assert main(["campaign", "--config", str(cfg), "--seed", "7", "--jobs", jobs]) == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    assert pools == [2]       # --jobs 1 ran in process, --jobs 2 on two workers
    assert blobs[0] == blobs[1]


def test_campaign_section_honours_json_format(tmp_path, capsys):
    out = tmp_path / "h.json"
    cfg = tmp_path / "hit.ini"
    cfg.write_text(
        "[hitting]\nd = 3\nmethod = harmonic-solve\nradius = 6\n"
        f"out = {out}\nformat = json\n"
    )
    assert main(["campaign", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())
    assert rows[0]["method"] == "harmonic-solve"
    assert 0.0 < rows[0]["bracket_low"] <= rows[0]["bracket_high"] <= 1.0


def _raise_on_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_json_writes_null_for_non_finite_floats(tmp_path, capsys):
    # each estimator leaves the other's columns NaN: null in JSON, nan in CSV
    argv = ["hitting", "--d", "3", "--method", "both", "--walks", "2000",
            "--max-steps", "200", "--radius", "6", "--seed", "1", "--out"]
    json_path, csv_path = tmp_path / "h.json", tmp_path / "h.csv"
    assert main(argv + [str(json_path), "--format", "json"]) == 0
    assert main(argv + [str(csv_path)]) == 0
    capsys.readouterr()
    mc, harmonic = json.loads(json_path.read_text(), parse_constant=_raise_on_constant)
    assert (mc["bracket_low"], mc["bracket_high"], harmonic["std_err"]) == (None, None, None)
    assert 0.0 < mc["H"] < 1.0 and 0.0 < harmonic["bracket_low"] <= harmonic["bracket_high"]
    lines = csv_path.read_text().splitlines()
    mc_csv, harmonic_csv = (dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:])
    assert (mc_csv["bracket_low"], harmonic_csv["std_err"]) == ("nan", "nan")


def test_unknown_config_format_exits_2(tmp_path):
    cfg = tmp_path / "ode.ini"
    cfg.write_text("[ode]\nt-end = 1.0\nformat = xml\n")
    assert main(["ode", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("section", [
    "[duality]\nlambda = x\n",
    "[hitting]\nmethod = bogus\n",
    "[moments]\nd = four\n",
    "[bound]\nd = 2.5\nhitting = 0.1\n",
    "[bcpp-check]\ntimes = 0.5,soon\n",
    "[hitting]\nkesten = ,\n",
], ids=["duality-lambda", "hitting-method", "moments-d", "bound-d", "bcpp-times",
        "hitting-kesten-empty"])
def test_bad_config_value_exits_2(section, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(section)
    command = section[1:section.index("]")]
    assert main([command, "--config", str(cfg)]) == 2
    assert "usage error: bad config value" in capsys.readouterr().err


def test_failed_write_keeps_previous_out_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "ode.csv"
    out.write_text("previous contents\n")
    calls = []

    def failing_fmt(value):
        calls.append(value)
        if len(calls) > 5:
            raise RuntimeError("simulated crash mid-write")
        return str(value)

    monkeypatch.setattr(cli, "_fmt", failing_fmt)
    with pytest.raises(RuntimeError):
        main(["ode", "--t-end", "1.0", "--out", str(out)])
    assert out.read_text() == "previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ode.csv"]


# ---------------------------------------------------------------------------
# remaining exit codes and small end-to-end runs
# ---------------------------------------------------------------------------

def test_moments_vacuous_dimension_exits_3(capsys):
    rc = main(["moments", "--lambda", "2", "--d", "3", "--radius", "8",
               "--t", "0.5", "--set-size", "2"])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--set-size", "0"], "--set-size must be in [1, --radius)"),
    (["--set-size", "6"], "--set-size must be in [1, --radius)"),
    (["--t", "nan"], "--t must be finite and >= 0"),
    (["--t", "-1"], "--t must be finite and >= 0"),
    (["--t", "inf"], "--t must be finite and >= 0"),
    (["--lambda", "nan"], "infection rate must be positive"),
], ids=["set-size-0", "set-size-radius", "t-nan", "t-negative", "t-inf", "lambda-nan"])
def test_moments_refuses_bad_arguments_before_the_solve(flags, message, monkeypatch, capsys):
    monkeypatch.setattr(moments, "absorbing_solve", lambda *a: pytest.fail("solved"))
    assert main(["moments", "--d", "4", "--radius", "6"] + flags) == 2
    assert message in capsys.readouterr().err


def test_moments_cli_reports_bound_table(capsys):
    rc = main(["moments", "--lambda", "2", "--d", "4", "--radius", "8",
               "--t", "0.5", "--set-size", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stationary residual" in out
    rows = _table_rows(out)
    start = next(i for i, r in enumerate(rows) if r[0] == "set_size")
    header = rows[start]
    for r in rows[start + 1:]:
        values = dict(zip(header, r))
        assert float(values["lhs"]) <= float(values["rhs"]) + 1e-6


def test_duality_cli_small_torus(capsys):
    rc = main(["duality", "--lambda", "1.5", "--d", "1", "--torus-side", "6",
               "--t", "1.0", "--trials", "2000", "--seed", "5"])
    assert rc == 0
    rows = _table_rows(capsys.readouterr().out)
    values = dict(zip(rows[0], rows[1]))
    assert abs(float(values["z_score"])) < 3.0


def test_bcpp_check_cli_small_torus(capsys):
    rc = main(["bcpp-check", "--lambda", "1.2", "--d", "1", "--torus-side", "6",
               "--horizon", "2", "--trials", "30", "--times", "0.5,1",
               "--seed", "4"])
    assert rc == 0
    assert "zero support mismatches" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# duality and bcpp-check on the worker pool
# ---------------------------------------------------------------------------

# 150 duality trials and 30 coupled runs: 4*jobs does not divide either at
# --jobs 2 or 3 (8 and 12 blocks), nor 2000 first-moment trials at --jobs 3
_DUALITY = ["duality", "--lambda", "1.5", "--d", "2", "--torus-side", "6",
            "--t", "1.0", "--trials", "150", "--seed", "9"]
_BCPP = ["bcpp-check", "--lambda", "1.5", "--d", "1", "--torus-side", "8",
         "--horizon", "2", "--trials", "30", "--times", "1,0.5", "--seed", "9"]


def _in_process(argv: list[str]) -> list[str]:
    """argv with --jobs 1 if its command runs a pool, so none starts."""
    takes_jobs = any(flag == "--jobs" for flag, *_ in cli._COMMANDS[argv[0]][2])
    return argv + ["--jobs", "1"] * takes_jobs


@pytest.mark.parametrize("argv", [
    ["ode", "--lambda", "nan"],
    ["ode", "--t-end", "nan"],
    ["ode", "--dt", "nan"],
    ["bound", "--lambda", "nan", "--hitting", "0.1"],
    ["survival", "--lambda", "nan", "--d", "4", "--trials", "5"],
    _DUALITY + ["--lambda", "nan"],
    _BCPP + ["--lambda", "nan"],
    _BCPP + ["--times", "1,nan"],
], ids=["ode-lambda", "ode-t-end", "ode-dt", "bound-lambda", "survival-lambda",
        "duality-lambda", "bcpp-lambda", "bcpp-times"])
def test_nan_rate_or_time_exits_2(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: pytest.fail("ran tasks"))
    assert main(_in_process(argv)) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["duality", "--lambda", "3", "--t", "inf", "--trials", "1"], "time must be >= 0 and finite"),
    (_BCPP + ["--horizon", "inf"], "horizon must be positive and finite"),
    (_BCPP + ["--times", "0.5,inf"], "checkpoint times must be >= 0 and finite"),
    (["ode", "--t-end", "inf"], "t_end must be positive and finite"),
], ids=["duality-t", "bcpp-horizon", "bcpp-times", "ode-t-end"])
def test_infinite_time_exits_2_before_any_task(argv, message, monkeypatch, capsys):
    # each of these would run forever (or overflow) if it got past its check
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: pytest.fail("ran tasks"))
    assert main(_in_process(argv)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ode", "--t-end", "inf"],
    ["ode", "--dt", "0"],
    ["bound", "--level", "0"],
    ["bound", "--lambda", "1"],
    ["hitting", "--d", "0", "--method", "monte-carlo", "--walks", "10"],
    ["hitting", "--method", "harmonic-solve", "--radius", "1"],
    ["duality", "--lambda", "-1"],
    ["duality", "--torus-side", "3"],
    ["bcpp-check", "--torus-side", "3"],
    ["bcpp-check", "--d", "0"],
    ["moments", "--lambda", "0"],
    ["moments", "--d", "0"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_refusal_prints_no_formula_header(argv, capsys):
    # a refused command prints nothing on stdout, not even its "# formula" line
    assert main(_in_process(argv)) == 2
    assert capsys.readouterr().out == ""


def test_survival_accepts_an_infinite_horizon():
    # each trial still ends, at extinction or at the threshold
    assert main(["survival", "--d", "4", "--trials", "20", "--horizon", "inf",
                 "--threshold", "50", "--seed", "3", "--jobs", "1"]) == 0


@pytest.mark.parametrize("argv, coupling", [(_DUALITY, []), (_BCPP, ["coupling: 30 trials"])],
                         ids=["duality", "bcpp-check"])
def test_pool_commands_byte_identical_across_job_counts(argv, coupling, tmp_path,
                                                        monkeypatch, capsys):
    pools = _record_pools(monkeypatch)
    blobs, lines = [], []
    for i, jobs in enumerate(("1", "1", "2", "3")):
        out = tmp_path / f"{i}-jobs-{jobs}.csv"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
        lines.append(re.findall(r"coupling: .*", capsys.readouterr().out))
    assert pools == [2, 3]    # --jobs 1 ran in process
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    assert lines[0] == lines[1] == lines[2] == lines[3]
    assert [line.split(",")[0] for line in lines[0]] == coupling


def test_pool_commands_match_the_one_process_library_checks(tmp_path, capsys):
    dual, moment = tmp_path / "dual.json", tmp_path / "moment.json"
    assert main(_DUALITY + ["--jobs", "2", "--out", str(dual), "--format", "json"]) == 0
    assert main(_BCPP + ["--jobs", "2", "--out", str(moment), "--format", "json"]) == 0
    coupling = re.search(r"coupling: 30 trials, (\d+) events", capsys.readouterr().out)
    res = contact.duality_check(contact.ContactParams(1.5, 2, Torus(2, 6)), 1.0, 150, seed=9)
    row = json.loads(dual.read_text())[0]
    assert (row["p_single_survives"], row["p_full_covers_origin"], row["z_score"]) == (
        res.p_single_survives, res.p_full_covers_origin, res.z_score)
    table = bcpp.first_moment_check(1.5, Torus(1, 8), [0.5, 1.0], 2000, seed=9)
    rows = json.loads(moment.read_text())
    assert [(r["t"], r["mean_value_origin"], r["std_err"]) for r in rows] == table
    events = sum(bcpp.run_coupled(1.5, Torus(1, 8), 2.0, substream(9, "coupled", k))
                 for k in range(30))
    assert int(coupling.group(1)) == events


def test_pool_never_outnumbers_its_tasks(monkeypatch, capsys):
    pools = _record_pools(monkeypatch)
    assert main(_DUALITY + ["--trials", "2", "--jobs", "3"]) == 0
    assert main(_DUALITY + ["--trials", "1", "--jobs", "3"]) == 0
    assert pools == [2]       # two one-trial blocks; one block runs in process


@pytest.mark.parametrize("argv, message", [
    (_DUALITY + ["--t", "-1"], "time must be >= 0"),
    (_DUALITY + ["--t", "nan"], "time must be >= 0"),
    (_DUALITY + ["--trials", "0"], "n_trials must be >= 1"),
    (_BCPP + ["--times", "-1"], "checkpoint times must be >= 0"),
    (_BCPP + ["--horizon", "0"], "horizon must be positive"),
    (_BCPP + ["--horizon", "nan"], "horizon must be positive"),
    (_BCPP + ["--trials", "-5"], "n_trials must be >= 1"),
    (_BCPP + ["--lambda", "nan"], "infection rate must be positive, got nan"),
    (_BCPP + ["--lambda", "0"], "infection rate must be positive, got 0"),
], ids=["duality-t", "duality-t-nan", "duality-trials", "bcpp-times", "bcpp-horizon",
        "bcpp-horizon-nan", "bcpp-trials", "bcpp-lambda-nan", "bcpp-lambda-zero"])
def test_pool_commands_refuse_bad_arguments_before_any_pool(argv, message,
                                                            monkeypatch, capsys):
    pools = _record_pools(monkeypatch)
    assert main(argv + ["--jobs", "2"]) == 2
    assert message in capsys.readouterr().err
    assert pools == []


def test_jobs_below_one_refused_before_any_walk_or_pool(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: pytest.fail("ran tasks"))
    pools = _record_pools(monkeypatch)
    cfg = tmp_path / "jobs.ini"
    cfg.write_text("[survival]\nd = 4\ntrials = 40\njobs = -3\n")
    assert main(["survival", "--d", "4", "--trials", "40", "--jobs", "0"]) == 2
    assert main(["survival", "--config", str(cfg)]) == 2
    assert main(["campaign", "--config", str(cfg)]) == 2
    assert main(["campaign", "--config", str(cfg), "--jobs", "0"]) == 2
    assert main(_BCPP + ["--jobs", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("usage error: --jobs must be >= 1") == 5
    assert pools == []


def test_worker_invariant_violation_exits_1(monkeypatch, capsys):
    # patched before the pool forks, so the workers run the broken coupling
    def mismatched(lam, torus, horizon, rng):
        raise InvariantViolation("support mismatch after event 1 (planted)")

    monkeypatch.setattr(bcpp, "run_coupled", mismatched)
    pools = _record_pools(monkeypatch)
    assert main(_BCPP + ["--jobs", "2"]) == 1
    assert "support mismatch after event 1 (planted)" in capsys.readouterr().err
    assert pools == [2]
