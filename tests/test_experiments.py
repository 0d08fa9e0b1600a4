"""Experiment drivers and the ``lab`` command line: configuration schema,
overrides, the two-sided target construction, escape-cover schedules, the
seven runners, deterministic report files, and process exit codes."""

import copy
import importlib
import io
import json
import pickle
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from billiardlab import billiard, lab_escape, lab_perp
from billiardlab.circle import CirclePoint, angle_point, eval_number
from billiardlab.cli import main as lab_main
from billiardlab.dioph import ApproxSolution
from billiardlab.errors import ConfigError, ScheduleNotFound
from billiardlab.experiments import (EXPERIMENTS, ExperimentConfig, RunReport,
                                     _dump, apply_overrides, run_experiment,
                                     write_report)
from billiardlab.lab_escape import _deltadio_schedule, construct_twosided_target

SEED = 20260818


def make_cfg(experiment, **options):
    return ExperimentConfig.from_json_obj(dict(options), experiment=experiment)


def rows_of(report, table):
    header, rows = report.tables[table]
    return [dict(zip(header.split(","), r.split(","))) for r in rows]


@pytest.fixture(scope="module")
def thm1_small():
    with pytest.warns(UserWarning):
        return run_experiment(make_cfg(
            "thm1_cover", p_max=512, reflection_cap=20000, control_max_n=8))


@pytest.fixture(scope="module")
def cantor_small():
    return run_experiment(make_cfg("cantor_dim", precision_bits=192, depth=3,
                                   ratio_floor=0.3))


@pytest.fixture(scope="module")
def audit_small():
    return run_experiment(make_cfg(
        "three_distance_audit", q_max=1000, e1_trials=200, e1_check_sample=10))


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

def test_defaults_fill_in():
    cfg = make_cfg("cantor_dim")
    assert cfg.experiment == "cantor_dim"
    assert cfg.depth == 4
    assert cfg.precision_bits == 512
    assert cfg.seed == SEED
    assert cfg.out_dir == "lab_out"


def test_every_experiment_has_a_schema():
    for name in EXPERIMENTS:
        cfg = make_cfg(name)
        assert cfg.experiment == name
        assert cfg.seed == SEED


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        make_cfg("cantor_dim", bogus=1)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        make_cfg("no_such_experiment")


def test_declared_experiment_must_match():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_obj({"experiment": "ubiquity"},
                                       experiment="cantor_dim")
    cfg = ExperimentConfig.from_json_obj({"experiment": "ubiquity"})
    assert cfg.experiment == "ubiquity"


@pytest.mark.parametrize("experiment,options", [
    ("cantor_dim", {"mu": 1.0}),            # needs mu > 1
    ("cantor_dim", {"depth": 0}),
    ("thm2_cover", {"mu": 0.5}),            # needs mu >= 1
    ("ubiquity", {"m": 2, "l": 2}),         # needs l < m
    ("ubiquity", {"n_values": [100, 100]}),
    ("thm1_cover", {"schedule_shrink": 0.0}),
    ("thm1_cover", {"schedule_shrink": 1.5}),
    ("thm1_cover", {"theta": "not a number ("}),
    ("thm1_cover", {"polygon": {"kind": "triangle", "alpha": "1.0"}}),
    ("perp_orbits", {"polygon": {"kind": "parallelogram", "alpha": "1.0",
                                 "base": 2, "side": 1}}),
    ("minkowski_scan", {"pairs": "many"}),
    ("thm2_cover", {"mu": 1.0, "eps": 0.6}),  # needs 1/(mu+1) + eps <= 1
    ("thm1_cover", {"eps": 0.6}),           # s = null needs 0.5 + eps <= 1
    ("thm1_cover", {"control_alpha": 2}),   # needs 0 < alpha < pi/2
    ("thm1_cover", {"control_alpha": "pi/2"}),
    ("thm1_cover", {"polygon": {"kind": "rhombus", "alpha": "-1"}}),
    ("thm1_cover", {"polygon": {"kind": "rhombus", "alpha": "pi/2"}}),
    ("thm1_cover", {"polygon": {"kind": "rhombus", "alpha": "1.0",
                                "side": 0}}),
    ("thm2_cover", {"polygon": {"kind": "parallelogram", "alpha": "1.0",
                                "base": "-1/2", "side": 1}}),
    ("cantor_dim", {"mu": float("inf")}),   # JSON reads Infinity
    ("thm2_cover", {"mu": float("inf")}),
    ("thm1_cover", {"delta": 1 - 2 ** -20}),  # needs 1 - delta >= 2^-19
])
def test_invalid_values_rejected(experiment, options):
    with pytest.raises(ConfigError):
        make_cfg(experiment, **options)


@pytest.mark.parametrize("theta, side", [
    ("1e-30000", "up"), ("2**-300", "up"), ("1e-70*2**-256", "up"),
    ("pi*(sqrt(5)-1)/4 + 1e-79", "down")])
def test_tiny_thm1_targets_fail_at_config_time(theta, side):
    # The scan grid widens with log2(1/t) of a nonzero target t, so one
    # below 2^-precision_bits is refused before any scan; 1e-30000 once
    # ran a 38 s approx_solutions call.
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=f"theta gives the {side} target"):
        make_cfg("thm1_cover", theta=theta)
    assert time.perf_counter() - start < 1
    # targets of 0 and of at least 2^-precision_bits are accepted
    make_cfg("thm1_cover", theta=0)
    make_cfg("thm1_cover", theta="pi*2**-256")
    make_cfg("thm1_cover", theta="1e-90", precision_bits=512)


@pytest.mark.parametrize("shrink", [0, 1.5])
def test_schedule_shrink_bound_is_half_open(shrink):
    with pytest.raises(ConfigError, match=r"must be a number in \(0, 1\]"):
        make_cfg("thm1_cover", schedule_shrink=shrink)
    assert make_cfg("thm1_cover", schedule_shrink=1.0).schedule_shrink == 1.0


def test_e1_j_max_bounded_by_the_32_bit_draw():
    # From 2**32 on numpy leaves the 32-bit Lemire path that rng.Generator
    # reproduces, so such a value must be refused rather than drawn.
    with pytest.raises(ConfigError, match="e1_j_max"):
        make_cfg("three_distance_audit", e1_j_max=1 << 32)
    assert make_cfg("three_distance_audit",
                    e1_j_max=(1 << 32) - 1).e1_j_max == (1 << 32) - 1


@pytest.mark.parametrize("experiment,polygon,normalized", [
    ("thm1_cover", {"kind": "parallelogram", "alpha": "1.0", "side": 2},
     {"kind": "parallelogram", "alpha": "1.0", "side": 2, "base": 1}),
    ("perp_orbits", {"alpha": "pi/6"},
     {"kind": "rhombus", "alpha": "pi/6", "side": 1}),
])
def test_polygon_normalization_fills_defaults(experiment, polygon, normalized):
    cfg = make_cfg(experiment, polygon=polygon)
    assert cfg.to_json_obj()["polygon"] == normalized


def test_polygon_override_keeps_the_row_default_angle():
    # perp_orbits defaults to the rational pi/4 rhombus; changing only the
    # side must not switch the run to the golden angle
    obj = apply_overrides({}, ["polygon.side=2"])
    cfg = ExperimentConfig.from_json_obj(obj, "perp_orbits")
    assert cfg.polygon == {"kind": "rhombus", "alpha": "pi/4", "side": 2}
    cfg = ExperimentConfig.from_json_obj(obj, "thm1_cover")
    assert cfg.polygon == {"kind": "rhombus", "alpha": "pi*(sqrt(5)-1)/4",
                           "side": 2}


def test_readme_documents_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, module in EXPERIMENTS.items():
        table = importlib.import_module(f"billiardlab.{module}")._SCHEMA[name]
        section = readme.split(f"### `{name}`", 1)[1].split("\n##", 1)[0]
        missing = [key for key in table if f"`{key}`" not in section]
        assert not missing, f"README section {name} omits {missing}"


def test_to_json_obj_round_trips_and_copies():
    cfg = make_cfg("ubiquity", n_values=[10, 20, 40])
    obj = cfg.to_json_obj()
    again = ExperimentConfig.from_json_obj(obj)
    assert again.to_json_obj() == obj
    obj["n_values"].append(999)
    assert cfg.n_values == [10, 20, 40]


def test_configs_and_reports_copy_and_pickle():
    # copy and pickle probe a blank instance before its options are set.
    cfg = make_cfg("ubiquity", n_values=[10, 20, 40])
    obj = cfg.to_json_obj()
    for twin in (copy.copy(cfg), copy.deepcopy(cfg),
                 pickle.loads(pickle.dumps(cfg))):
        assert twin.to_json_obj() == obj
        assert twin.n_values == [10, 20, 40]
    report = RunReport(experiment="ubiquity", violations=[], notes=["n"],
                       tables={}, data={"x": 1}, config=cfg)
    assert report.config is cfg and report.config.to_json_obj() == obj
    again = pickle.loads(pickle.dumps(report))
    assert again.config.to_json_obj() == obj and again.data == {"x": 1}


# ---------------------------------------------------------------------------
# command-line overrides
# ---------------------------------------------------------------------------

def test_overrides_parse_json_then_fall_back_to_strings():
    obj = {"depth": 4, "polygon": {"kind": "rhombus", "alpha": "1.0", "side": 1}}
    apply_overrides(obj, ["depth=6", "omega=sqrt(2)-1", "mu=2.5",
                          "polygon.alpha=pi/3", "n_values=[1, 2, 3]"])
    assert obj["depth"] == 6
    assert obj["omega"] == "sqrt(2)-1"
    assert obj["mu"] == 2.5
    assert obj["polygon"]["alpha"] == "pi/3"
    assert obj["n_values"] == [1, 2, 3]


def test_overrides_create_nested_tables():
    obj = {}
    apply_overrides(obj, ["polygon.kind=rhombus"])
    assert obj == {"polygon": {"kind": "rhombus"}}


def test_malformed_override_rejected():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["noequalsign"])


def test_override_value_still_validated():
    obj = {}
    apply_overrides(obj, ["depth=-1"])
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_obj(obj, experiment="cantor_dim")


# ---------------------------------------------------------------------------
# two-sided well-approximable target construction
# ---------------------------------------------------------------------------

GOLDEN_WITNESS_PS = [5, 50, 4131, 24153686, 806515508895707,
                     898923707008479182758781954438]


@pytest.fixture(scope="module")
def golden_target():
    om = CirclePoint.make("(sqrt(5)-1)/4", 512)
    return om, construct_twosided_target(om, 2.0, 6)


def test_construct_frozen_witness_chain(golden_target):
    _, built = golden_target
    ps = [row["p"] for row in built["witnesses"]]
    assert ps == GOLDEN_WITNESS_PS
    signs = [row["sign"] for row in built["witnesses"]]
    assert signs == [-1, +1, -1, +1, -1, +1]
    assert built["all_certified"]
    assert all(row["certified"] for row in built["witnesses"])


def test_construct_parity_matches_sign(golden_target):
    _, built = golden_target
    for row in built["witnesses"]:
        assert row["p"] % 2 == (1 if row["sign"] == -1 else 0)
        assert row["parity"] == row["p"] % 2


def test_construct_witnesses_verified_independently(golden_target):
    # Re-check  ||t + sign*p*omega|| < p^(-mu)  in plain mpf arithmetic,
    # far above the construction's working precision.
    om, built = golden_target
    mu = 2
    with mp.workprec(2200):
        t = built["t"].value
        w = om.value
        assert 0 < t < 1
        for row in built["witnesses"]:
            x = (t + row["sign"] * row["p"] * w) % 1
            dist = min(x, 1 - x)
            assert dist < mpf(row["p"]) ** -mu


def test_construct_rejects_bad_arguments():
    om = CirclePoint.make("(sqrt(5)-1)/4", 256)
    with pytest.raises(ValueError):
        construct_twosided_target(om, 2.0, 0)
    with pytest.raises(ValueError):
        construct_twosided_target(om, 0.5, 3)


def test_construct_runs_out_of_precision():
    # Six alternating witnesses of a mu=2 target need far more than 192
    # bits; the walk must stop with a diagnosis, not a silent bad target.
    om = CirclePoint.make("(sqrt(5)-1)/4", 192)
    with pytest.raises(ScheduleNotFound):
        construct_twosided_target(om, 2.0, 6)


# ---------------------------------------------------------------------------
# escape-cover schedules
# ---------------------------------------------------------------------------

def schedule_inputs():
    with mp.workprec(256 + 16):
        theta = eval_number("0.3", 256)
        alpha = eval_number("pi*(sqrt(5)-1)/4", 256)
        return (angle_point(theta, 256), angle_point(theta - alpha, 256),
                angle_point(2 * alpha, 256))


def test_schedule_frozen_for_golden_rhombus():
    t_up, t_down, om = schedule_inputs()
    assert (_deltadio_schedule(t_up, om, 0.1, 4096, +1, 3, shrink=0.5)
            == [3, 16, 50])
    assert (_deltadio_schedule(t_down, om, 0.1, 4096, -1, 3, shrink=0.5)
            == [3, 11, 66])


def test_schedule_skips_levels_with_vacuous_bounds():
    # While p^-(1-delta) >= 1/2 the target inequality holds for every
    # circle point, so levels p <= 2^(1/(1-delta)) carry no information.
    t_up, t_down, om = schedule_inputs()
    for t, sign in ((t_up, +1), (t_down, -1)):
        ns = _deltadio_schedule(t, om, 0.1, 4096, sign, 3, shrink=0.5)
        assert all(n > 2.0 ** (1.0 / 0.9) for n in ns)


def test_schedule_distances_shrink_geometrically():
    t_up, t_down, om = schedule_inputs()
    for t, sign in ((t_up, +1), (t_down, -1)):
        ns = _deltadio_schedule(t, om, 0.1, 4096, sign, 3, shrink=0.5)
        with mp.workprec(256 + 16):
            dists = []
            for n in ns:
                x = (t.value + sign * n * om.value) % 1
                dists.append(min(x, 1 - x))
            for a, b in zip(dists, dists[1:]):
                assert b <= a / 2
            # every kept level satisfies the defining inequality
            for n, dist in zip(ns, dists):
                assert dist < mpf(n) ** mpf(-0.9)


def test_schedule_shrink_test_is_exact(monkeypatch):
    # best/2 is exactly shrink * best; rounding shrink * best to 53 bits
    # (1/8 + 2^-121 -> 1/8) would drop the second level.
    with mp.workprec(256):
        best = mpf(1) / 4 + mpf(2) ** -120
        sols = [ApproxSolution(10, best), ApproxSolution(20, best / 2)]
    monkeypatch.setattr(lab_escape, "approx_solutions",
                        lambda *args: sols)
    t_up, _, om = schedule_inputs()
    assert (_deltadio_schedule(t_up, om, 0.1, 4096, +1, 3, shrink=0.5)
            == [10, 20])


def test_schedule_not_found_when_cap_too_small():
    t_up, _, om = schedule_inputs()
    with pytest.raises(ScheduleNotFound):
        _deltadio_schedule(t_up, om, 0.1, 2, +1, 3, shrink=0.5)


def test_schedule_not_found_when_delta_near_one():
    # Every |p| <= 4096 has |p|^0.0005 <= 2, so the bound is vacuous at
    # every level (and 2^(1/(1-delta)) would overflow a float).
    t_up, _, om = schedule_inputs()
    with pytest.raises(ScheduleNotFound):
        _deltadio_schedule(t_up, om, 0.9995, 4096, +1, 3, shrink=0.5)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def test_thm1_small_passes_with_frozen_schedules(thm1_small):
    rep = thm1_small
    assert rep.passed and not rep.violations
    assert rep.data["sides"]["up"]["schedule"] == [3, 16, 50]
    assert rep.data["sides"]["down"]["schedule"] == [3, 11, 66]
    for side in ("up", "down"):
        entry = rep.data["sides"][side]
        assert entry["decay_strict"] is True
        sums = [mpf(v) for v in entry["hs_sums"]]
        assert all(b < a for a, b in zip(sums, sums[1:]))


def test_thm1_control_cover_certified_empty(thm1_small):
    control = thm1_small.data["control"]
    assert control["certified_empty"] is True
    # Residual uncertainty is the 2-ulp vertex guard mass, many orders
    # below any genuine escape cover at these scales.
    assert mpf(control["residual_uncertain"]) < mpf(10) ** -20


def test_thm1_cover_table_is_consistent(thm1_small):
    for row in rows_of(thm1_small, "covers"):
        assert int(row["n"]) >= 1
        assert int(row["count"]) >= 0
        assert mpf(row["escape_length"]) <= mpf(row["gate_width"]) * (1 + mpf("1e-30"))


def test_thm1_notes_default_exponents_not_ordered(thm1_small):
    assert any("decay is not guaranteed" in note for note in thm1_small.notes)


def test_thm1_silent_when_delta_below_eps():
    cfg = make_cfg("thm1_cover", delta=0.05, p_max=512,
                   reflection_cap=20000, control_alpha=None)
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        rep = run_experiment(cfg)
    assert not any(isinstance(r.message, UserWarning) for r in records)
    assert not any("decay is not guaranteed" in note for note in rep.notes)


def test_thm1_without_schedule_reports_each_side():
    # below 2^(1/(1-delta)) the defining inequality is vacuous: no schedule
    rep = run_experiment(make_cfg("thm1_cover", delta=0.05, p_max=2,
                                  control_alpha=None))
    assert rep.tables["covers"][1] == []
    for side in ("up", "down"):
        entry = rep.data["sides"][side]
        assert entry["schedule_found"] is False
        assert "enlarge p_max" in entry["note"]
        assert f"{side}: {entry['note']}" in rep.notes


def test_thm1_single_step_schedule_leaves_decay_unassessed():
    rep = run_experiment(make_cfg("thm1_cover", delta=0.05, p_max=512,
                                  schedule_steps=1, reflection_cap=20000,
                                  control_alpha=None))
    assert rep.passed
    for side in ("up", "down"):
        entry = rep.data["sides"][side]
        assert len(entry["schedule"]) == len(entry["hs_sums"]) == 1
        assert entry["decay_strict"] is None
        assert (f"{side}: schedule has 1 step(s); decay not assessable"
                in rep.notes)


def test_thm2_no_witness_level_within_n_cap():
    rep = run_experiment(make_cfg("thm2_cover", n_cap=1))
    assert rep.tables["covers"][1] == []
    for side in ("down", "up"):
        assert rep.data["schedules"][side] == {"schedule": []}
        assert f"{side}: no witness level within n_cap=1" in rep.notes


def test_thm2_default_passes():
    rep = run_experiment(make_cfg("thm2_cover", reflection_cap=5000))
    assert rep.passed and not rep.violations
    assert rep.data["witness_counts"] == {"even": 3, "odd": 3}
    assert rep.data["refound"] == {"checked": 2, "found": 2}
    assert rep.data["schedules"]["down"]["schedule"] == [2]
    assert rep.data["schedules"]["up"]["schedule"] == [25]
    assert len(rows_of(rep, "witnesses")) == 6
    # with one usable level per side the decay claim stays unassessed
    assert rep.data["schedules"]["down"]["decay_strict"] is None
    assert any("decay not assessable" in n for n in rep.notes)


@pytest.mark.parametrize("options,message", [
    ({"construct_steps": 1}, "p=5, whose level 2 lies within n_cap=100"),
    ({"construct_steps": 2}, "p=50, whose level 25 lies within n_cap=100"),
    ({"construct_steps": 2, "n_cap": 25},
     "p=50, whose level 25 lies within n_cap=25"),
])
def test_thm2_rejects_a_target_on_a_traced_orbit_point(monkeypatch, options,
                                                        message):
    # t is the last witness's own orbit point; a schedule that holds that
    # witness's level stops before any tracing
    built = _count_tracers(monkeypatch)
    with pytest.raises(ScheduleNotFound, match=message):
        run_experiment(make_cfg("thm2_cover", **options))
    assert built == []


def test_thm2_two_steps_below_the_last_level_reports():
    # n_cap 24 leaves out level 25 of the last witness p = 50
    rep = run_experiment(make_cfg("thm2_cover", construct_steps=2, n_cap=24))
    assert rep.data["schedules"]["down"]["schedule"] == [2]
    assert rep.data["schedules"]["up"] == {"schedule": []}
    assert rep.violations == ["need >= 3 even and >= 3 odd witnesses, got "
                              "1 even / 1 odd"]


def test_cli_thm2_on_a_traced_orbit_point_exits_one(tmp_path, capsys):
    cfg = cli_config(tmp_path, "thm2.json", {"construct_steps": 1,
                                             "out_dir": str(tmp_path / "out")})
    assert lab_main(["thm2_cover", "--config", cfg]) == 1
    assert "lab: ScheduleNotFound: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _count_tracers(monkeypatch):
    built = []

    class CountingTracer(billiard._Tracer):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(billiard, "_Tracer", CountingTracer)
    return built


def test_thm2_traces_each_escape_set_once(monkeypatch):
    # F_N is geometry: both exponents of the cover table share one trace,
    # one tracer per side
    built = _count_tracers(monkeypatch)
    rep = run_experiment(make_cfg("thm2_cover"))
    assert rep.passed
    assert len(built) == 2
    rows = rows_of(rep, "covers")
    assert [r["side"] for r in rows] == ["down", "down_low_s", "up", "up_low_s"]


def test_thm1_traces_each_schedule_once(monkeypatch):
    # one resumed trace per schedule: the up and down sides and the
    # rational-angle control each build a single tracer
    built = _count_tracers(monkeypatch)
    with pytest.warns(UserWarning):
        rep = run_experiment(make_cfg("thm1_cover"))
    assert rep.passed
    assert len(built) == 3


def test_cantor_small_passes(cantor_small):
    rep = cantor_small
    assert rep.passed and not rep.violations
    assert rep.data["sequence"] == [1, -2, 1597]
    dims = [mpf(v) for _, v in rep.data["local_dimensions"]]
    assert dims[0] == mpf("0.5")
    assert dims[1] == mpf("0.25")
    assert len(rows_of(rep, "levels")) == 3


def test_ubiquity_default_deficiency_vanishes():
    rep = run_experiment(make_cfg("ubiquity"))
    assert rep.passed and not rep.violations
    assert rep.data["deficiencies"] == ["0.0", "0.0", "0.0"]


def test_minkowski_small_counts_both_residue_classes():
    rep = run_experiment(make_cfg("minkowski_scan", pairs=5, p_max=20000,
                                  min_solutions=1))
    assert rep.passed
    rows = rows_of(rep, "pairs")
    assert len(rows) == 5
    for row in rows:
        assert int(row["count"]) == int(row["positive_p"]) + int(row["negative_p"])
        assert int(row["count"]) >= 1
    assert rep.data["min_count"] >= 1


def test_perp_rational_angle_all_periodic():
    rep = run_experiment(make_cfg("perp_orbits", samples=40,
                                  reflection_cap=20000))
    assert rep.passed and not rep.violations
    assert rep.data["mode"] == "rational"
    assert float(rep.data["results"]["base"]["periodic_fraction"]) == 1.0


def test_perp_irrational_angle_resolves_every_ray():
    rep = run_experiment(make_cfg(
        "perp_orbits", samples=40, reflection_cap=20000, cap_doubling=True,
        polygon={"kind": "rhombus", "alpha": "1.0", "side": 1}))
    assert rep.passed and not rep.violations
    assert rep.data["mode"] == "irrational"
    assert float(rep.data["results"]["base"]["undecided_fraction"]) == 0.0
    assert float(rep.data["results"]["doubled_cap"]["undecided_fraction"]) == 0.0


@pytest.mark.parametrize("alpha,mode,rotation", [
    ("2*pi/5", "rational", "4/5"), ("pi/6", "rational", "1/3"),
    ("0.7", "irrational", None)])
def test_perp_rotation_number_follows_alpha(alpha, mode, rotation):
    # omega = 2*alpha/pi mod 1, read off the polygon's alpha/pi (at pi/3
    # the perpendicular direction is degenerate, so no report exists)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", billiard.RationalAngle)
        rep = run_experiment(make_cfg(
            "perp_orbits", samples=40, reflection_cap=20000,
            polygon={"kind": "rhombus", "alpha": alpha, "side": 1}))
    assert rep.data["mode"] == mode
    assert rep.data["rotation_number"] == rotation


@pytest.mark.parametrize("short,passed", [(0, True), (1, False)])
def test_perp_periodic_floor_counts_returns(monkeypatch, short, passed):
    # the rational-mode verdict needs samples - singular_allowance returns
    def stub(q, samples, reflection_cap):
        returned = samples - 3 - short
        return {"samples": samples, "returned": returned,
                "vertex_uncertain": samples - returned, "budget_exhausted": 0,
                "periodic_fraction": returned / samples,
                "undecided_fraction": (samples - returned) / samples,
                "retrace_checked": 0, "retrace_returned": 0,
                "retrace_exact": 0}

    monkeypatch.setattr(lab_perp, "perpendicular_periodicity", stub)
    rep = run_experiment(make_cfg("perp_orbits", samples=40,
                                  singular_allowance=3))
    assert rep.data["mode"] == "rational"
    assert rep.passed is passed
    assert rep.violations == ([] if passed else [
        "periodic fraction 0.9 below 1 - 3/40"])


def test_audit_reports_claimed_bound_failures(audit_small):
    rep = audit_small
    assert not rep.passed
    assert rep.data["claimed_bound_violations"] > 0
    assert any("1/(q_r+2)" in v for v in rep.violations)


def test_audit_companion_bound_and_packing_clean(audit_small):
    rep = audit_small
    rows = rows_of(rep, "three_distance")
    assert rows and all(row["true_ok"] == "True" for row in rows)
    packing = rep.data["packing"]
    assert packing["violations"] == 0
    assert packing["cross_checked"] == 10
    assert packing["cross_failures"] == 0


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def test_write_report_inventory_and_manifest(tmp_path, cantor_small):
    paths = write_report(cantor_small, str(tmp_path))
    names = sorted(Path(p).name for p in paths)
    assert names == ["cantor_dim.json", "cantor_dim.levels.csv",
                     "cantor_dim.manifest.json", "cantor_dim.separation.csv"]
    manifest = json.loads((tmp_path / "cantor_dim.manifest.json").read_text())
    assert manifest["experiment"] == "cantor_dim"
    assert manifest["passed"] is True
    assert manifest["seed"] == SEED
    assert manifest["config"]["depth"] == 3
    assert sorted(Path(p).name for p in manifest["outputs"]) != []
    assert not any("time" in k or "date" in k for k in manifest)
    body = json.loads((tmp_path / "cantor_dim.json").read_text())
    assert body["config"]["precision_bits"] == 192
    header = (tmp_path / "cantor_dim.levels.csv").read_text().splitlines()[0]
    assert header == "k,n_k,count,half_width_ulps,max_mass,local_dim"


def test_write_report_byte_identical_on_rerun(tmp_path):
    cfg_obj = {"experiment": "cantor_dim", "precision_bits": 192, "depth": 3,
               "ratio_floor": 0.3}
    out = tmp_path / "out"

    def run_once():
        rep = run_experiment(ExperimentConfig.from_json_obj(cfg_obj))
        names = write_report(rep, str(out))
        return {name: (out / name).read_bytes() for name in names}

    first = run_once()
    second = run_once()
    assert first == second


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),  # non-ASCII and control characters, quotes, backslashes
    st.sampled_from(["", "\"", "\\", "\n\t\x00\x7f", "\u00e9\u2028\U0001f600", "{", "],\n  ["]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
        st.dictionaries(st.integers(-9, 9), inner, max_size=3),
        st.dictionaries(st.floats(allow_nan=False), inner, max_size=3)),
    max_leaves=40)


@given(JSON_VALUES)
@settings(max_examples=400, deadline=None)
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": [{"x": 1}, {"y": [2]}]})
@example([float("inf"), float("-inf"), float("nan"), 10 ** 80, True, False, None])
def test_report_writer_matches_json_dump(obj):
    out = io.StringIO()
    _dump(obj, out.write)
    assert out.getvalue() == json.dumps(obj, sort_keys=True, indent=2)


def test_report_writer_refuses_what_json_refuses():
    for bad in ({"a": mpf(1)}, [[1, mpf(1)]], {(1, 2): 3}, {"a": {1: 2, "b": 3}}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _dump(bad, io.StringIO().write)


def test_written_report_is_json_dumps_of_its_object(tmp_path):
    data = {"nested": {"empty": {}, "list": [], "rows": [{"b": 1, "a": "\u00e9"}]},
            "values": (float("inf"), float("nan"), 2 ** 100, None, True),
            "text": "tab\tquote\" \u2028"}
    cfg = make_cfg("ubiquity")
    report = RunReport("ubiquity", ["v"], ["n"], {}, data, cfg)
    write_report(report, str(tmp_path))
    expected = {"experiment": "ubiquity", "passed": False, "violations": ["v"],
                "notes": ["n"], "config": cfg.to_json_obj(), "results": data}
    assert (tmp_path / "ubiquity.json").read_text(encoding="utf-8") == \
        json.dumps(expected, sort_keys=True, indent=2) + "\n"
    manifest = json.loads((tmp_path / "ubiquity.manifest.json").read_text())
    assert (tmp_path / "ubiquity.manifest.json").read_text() == \
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def cli_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_pass_exits_zero(tmp_path, capsys):
    cfg = cli_config(tmp_path, "cantor.json", {
        "experiment": "cantor_dim", "precision_bits": 192, "depth": 3,
        "ratio_floor": 0.3, "out_dir": str(tmp_path / "out")})
    assert lab_main(["cantor_dim", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "invariants: passed" in out
    assert (tmp_path / "out" / "cantor_dim.manifest.json").exists()


def test_cli_invariant_violation_exits_two(tmp_path, capsys):
    cfg = cli_config(tmp_path, "audit.json", {
        "q_max": 1000, "e1_trials": 50, "e1_check_sample": 5,
        "out_dir": str(tmp_path / "out")})
    assert lab_main(["three_distance_audit", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "violation" in out
    # the report is still written so the violation details can be inspected
    assert (tmp_path / "out" / "three_distance_audit.json").exists()


def test_cli_override_applies(tmp_path):
    cfg = cli_config(tmp_path, "cantor.json", {
        "experiment": "cantor_dim", "precision_bits": 192, "depth": 3,
        "ratio_floor": 0.3, "out_dir": str(tmp_path / "out")})
    assert lab_main(["cantor_dim", "--config", cfg, "--override", "depth=2",
                     "--override", "ratio_floor=0.2"]) == 0
    manifest = json.loads(
        (tmp_path / "out" / "cantor_dim.manifest.json").read_text())
    assert manifest["config"]["depth"] == 2


@pytest.mark.parametrize("argv_builder", [
    lambda d: ["cantor_dim", "--config", str(d / "missing.json")],
    lambda d: ["no_such_experiment", "--config",
               cli_config(d, "empty.json", {})],
    lambda d: ["cantor_dim", "--config", cli_config(d, "bad.json", {"depth": 0})],
    lambda d: ["cantor_dim", "--config", cli_config(d, "list.json", [1, 2])],
    lambda d: ["cantor_dim", "--config",
               cli_config(d, "mismatch.json", {"experiment": "ubiquity"})],
])
def test_cli_configuration_errors_exit_one(tmp_path, argv_builder, capsys):
    assert lab_main(argv_builder(tmp_path)) == 1
    assert "lab:" in capsys.readouterr().err


@pytest.mark.parametrize("expr", [
    "().__class__.__base__",
    "().__class__.__base__.__subclasses__().__len__()",
    "sqrt(-2)",                    # complex
    "NaN",                         # JSON NaN
])
def test_cli_rejects_code_in_number_specs(tmp_path, expr, capsys):
    cfg = cli_config(tmp_path, "thm1.json", {"out_dir": str(tmp_path / "out")})
    assert lab_main(["thm1_cover", "--config", cfg,
                     "--override", f"theta={expr}"]) == 1
    assert "not a valid numeric expression" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_report_write_error_exits_one(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = cli_config(tmp_path, "cantor.json", {
        "experiment": "cantor_dim", "precision_bits": 192, "depth": 3,
        "ratio_floor": 0.3, "out_dir": str(blocker / "out")})
    assert lab_main(["cantor_dim", "--config", cfg]) == 1
    assert "lab: cannot write report:" in capsys.readouterr().err


def test_cli_rejects_unparseable_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert lab_main(["cantor_dim", "--config", str(path)]) == 1
    assert "lab:" in capsys.readouterr().err
