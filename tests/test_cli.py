"""Command-line surface: examples, serialization, determinism, exit codes.

One test here is a documented failure of record rather than a regression:
the pinned claim that the mean-field ODE lands within 1e-6 of its fixed
point by t=10 at lam=2.  The actual gap decays like e^{-t}/2 and is still
~1.1e-5 at t=10; the companion test pins the true decay law and shows the
1e-6 window is reached at t=13.
"""

import json
import math

import pytest

from contact_mf import analytics, cli
from contact_mf.cli import SURVIVAL_COLUMNS, ResultRow, main

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


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_ode_example_final_value_as_stated():
    # pinned as stated elsewhere: |f(10) - 1/2| < 1e-6 at lam=2.  The gap
    # truly is 1/(2*(2*e^10 - 1)) ~ 1.13e-5, so this fails by an order of
    # magnitude and stays red on purpose; see the companion test below.
    sol = analytics.solve_mean_field_ode(2.0, 10.0, 1e-3)
    assert abs(sol.final - 0.5) < 1e-6


def test_ode_final_gap_follows_decay_law():
    sol = analytics.solve_mean_field_ode(2.0, 10.0, 1e-3)
    gap = abs(sol.final - 0.5)
    assert gap == pytest.approx(1.0 / (2.0 * (2.0 * math.e**10 - 1.0)), rel=1e-6)
    # the 1e-6 window opens a few time units later
    later = analytics.solve_mean_field_ode(2.0, 13.0, 1e-3)
    assert abs(later.final - 0.5) < 1e-6


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


def test_kesten_sweep_reports_window_violation(capsys):
    rc = main(["hitting", "--kesten", "8,10", "--walks", "600000",
               "--max-steps", "2000", "--seed", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "kesten-window violation" in captured.err
    assert "d=8" in captured.out


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

    restored = ResultRow.from_dict(row)
    assert restored.to_dict() == row
    assert row["lower_bound"] <= row["upper_bound"]
    assert 0.0 <= row["p_hat"] <= 1.0


def test_same_seed_byte_identical_across_job_counts(tmp_path, capsys):
    base = ["survival", "--lambda", "2.0", "--d", "3,4", "--trials", "40",
            "--horizon", "30", "--threshold", "100", "--seed", "7",
            "--h-walks", "3000", "--h-max-steps", "500"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(base + ["--jobs", "1", "--out", str(paths[0])]) == 0
    assert main(base + ["--jobs", "1", "--out", str(paths[1])]) == 0
    assert main(base + ["--jobs", "2", "--out", str(paths[2])]) == 0
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


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


def test_campaign_rejects_unknown_section(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[not-a-command]\nx = 1\n")
    assert main(["campaign", "--config", str(cfg)]) == 2


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


def test_unknown_config_format_exits_2(tmp_path):
    cfg = tmp_path / "ode.ini"
    cfg.write_text("[ode]\nt-end = 1.0\nformat = xml\n")
    assert main(["ode", "--config", str(cfg)]) == 2


def test_failed_write_keeps_previous_out_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "ode.csv"
    out.write_text("previous contents\n")
    calls = []

    def failing_fmt(key, value):
        calls.append(key)
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
