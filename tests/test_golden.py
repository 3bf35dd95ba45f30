"""Golden outputs: fixed seeds, exact equality with recorded values.

Each event kernel must keep its random draws in the same order, so that a
refactor of a loop changes no trial, no duality verdict, no coupled event
count and no first-moment row.  The values below were recorded from the
kernels as they stood before their loops were merged; any change to them
means the draw order moved, and every seeded output stream with it.
"""

from contact_mf.bcpp import first_moment_check, run_coupled
from contact_mf.contact import (
    ContactParams,
    DualityResult,
    SampleSet,
    duality_check,
    run_to_time,
    run_trial,
)
from contact_mf.lattice import Torus, origin
from contact_mf.rng import substream

T26 = Torus(2, 6)

# (verdict, extinction_time, max_size, event_count) at lam=2, d=4,
# horizon 5, threshold 30, trial k on substream(0, "golden", k)
TRIALS = [
    ('extinct', 1.7601241753822074, 2, 3),
    ('extinct', 0.09917076629555494, 1, 1),
    ('reached_threshold', None, 30, 120),
    ('censored', None, 21, 62),
    ('reached_threshold', None, 30, 74),
    ('censored', None, 24, 124),
    ('reached_threshold', None, 30, 99),
    ('extinct', 0.3650010428002692, 1, 1),
    ('extinct', 0.1083163742028475, 1, 1),
    ('extinct', 1.3206437089149943, 2, 5),
    ('extinct', 3.2790903462696286, 4, 24),
    ('extinct', 0.2540763755058411, 1, 1),
    ('extinct', 1.9285284327064123, 6, 17),
    ('reached_threshold', None, 30, 123),
    ('extinct', 0.4093110362165144, 2, 3),
    ('reached_threshold', None, 30, 83),
    ('extinct', 0.3552975192106575, 1, 1),
    ('reached_threshold', None, 30, 86),
    ('extinct', 0.008674655384143483, 1, 1),
    ('extinct', 0.40513340104252327, 2, 5),
    ('censored', None, 18, 136),
    ('censored', None, 9, 71),
    ('extinct', 1.0255244089002802, 3, 6),
    ('extinct', 0.36527731722047957, 1, 1),
    ('reached_threshold', None, 30, 97),
    ('extinct', 2.7876042310656874, 5, 11),
    ('reached_threshold', None, 30, 184),
    ('reached_threshold', None, 30, 153),
    ('extinct', 0.03517928139649485, 1, 1),
    ('extinct', 0.2086502736343182, 1, 1),
    ('reached_threshold', None, 30, 162),
    ('reached_threshold', None, 30, 115),
    ('extinct', 0.5600569237708526, 1, 1),
    ('reached_threshold', None, 30, 145),
    ('extinct', 0.20934358528740862, 1, 1),
    ('censored', None, 26, 145),
    ('reached_threshold', None, 30, 95),
    ('reached_threshold', None, 30, 142),
    ('extinct', 0.027446794541779063, 1, 1),
    ('censored', None, 10, 59),
    ('extinct', 2.109234110236844, 6, 21),
    ('censored', None, 11, 70),
    ('extinct', 3.1305432791365138, 7, 27),
    ('extinct', 0.16739182758324764, 1, 1),
    ('reached_threshold', None, 30, 55),
    ('censored', None, 25, 204),
    ('extinct', 0.16991593261966198, 1, 1),
    ('extinct', 0.5282489654284169, 1, 1),
    ('extinct', 0.0874411080292883, 1, 1),
    ('extinct', 1.5405140774477493, 4, 9),
]

DUALITY = DualityResult(p_single_survives=0.36333333333333334, p_full_covers_origin=0.43333333333333335, z_score=-1.7512266936973853, n_trials=300)

COUPLED_EVENTS = [438, 455, 465, 460, 412, 438, 439, 445, 444, 433, 463, 408, 474, 424, 447, 451, 462, 475, 412, 443]

FIRST_MOMENT = [
    (0.5, 0.9553289605675889, 0.057242143519116266),
    (1.0, 0.883512994314735, 0.07901802217079501),
    (2.0, 1.0349674944956577, 0.15802601482547218),
]

# The three below were recorded from the tuple kernel, before run_trial
# coded its vertices as ints.

# the shape of a survival trial: lam=2, d=8, horizon 200, threshold 500,
# trial k on substream(0, "golden-d8", k)
D8 = [
    ('reached_threshold', None, 500, 1936),
    ('reached_threshold', None, 500, 2010),
    ('reached_threshold', None, 500, 1713),
    ('reached_threshold', None, 500, 1843),
    ('reached_threshold', None, 500, 2035),
    ('extinct', 0.5499171207385439, 1, 1),
    ('reached_threshold', None, 500, 1756),
    ('extinct', 0.6443606046792069, 1, 1),
    ('reached_threshold', None, 500, 1885),
    ('reached_threshold', None, 500, 1781),
    ('extinct', 2.4495168868881967, 3, 7),
    ('extinct', 0.13795743930973503, 1, 1),
]

# (outcome, final SampleSet.items) at lam=1.5, d=3, horizon 2, threshold 40
# from Z3_START, trial k on substream(0, "golden-z3", k)
Z3_START = [(-3, 0, 2), (0, -1, -4), (-7, -7, -7), (5, -2, 0)]
Z3 = [
    (('censored', None, 5, 12),
     [(1, -1, -4), (0, -1, -2)]),
    (('censored', None, 13, 33),
     [(7, -3, 1), (-4, 1, 2), (5, -2, 1), (6, -2, 1), (-4, 0, 2), (-3, 0, 1), (5, -3, 1),
      (-4, -1, 2), (6, -3, 2)]),
    (('censored', None, 8, 20),
     [(-8, -7, -7), (-7, -7, -6), (-7, -7, -5), (-7, -6, -6), (-8, -6, -6), (-7, -7, -4),
      (-7, -6, -4), (-7, -6, -5)]),
    (('extinct', 0.44848910557013566, 4, 4),
     []),
]

# SampleSet.items after run_to_time(1.0) at lam=1.5 from all of Torus(2, 8),
# on substream(0, "golden-torus", 0)
TORUS_ITEMS = [
    (0, 0), (6, 7), (2, 3), (3, 4), (0, 4), (0, 5), (6, 5), (0, 7), (1, 0), (1, 1),
    (7, 1), (3, 5), (4, 1), (6, 0), (1, 6), (1, 7), (0, 3), (2, 1), (6, 2), (4, 3),
    (5, 7), (2, 5), (5, 5), (7, 6), (6, 1), (0, 6), (3, 2), (5, 6), (6, 6), (5, 0),
    (3, 6), (2, 6), (0, 1), (4, 5), (1, 2), (5, 1), (7, 7),
]


def test_run_trial_outcomes_are_golden():
    params = ContactParams(2.0, 4)
    outcomes = []
    for trial in range(50):
        out = run_trial([origin(4)], params, 5.0, 30, substream(0, "golden", trial))
        outcomes.append((out.verdict, out.extinction_time, out.max_size, out.event_count))
    assert outcomes == TRIALS


def test_duality_check_is_golden():
    assert duality_check(ContactParams(1.5, 2, T26), 2.0, 300, seed=5) == DUALITY


def test_run_coupled_event_counts_are_golden():
    counts = [run_coupled(1.5, T26, 5.0, substream(0, "coupled", k)) for k in range(20)]
    assert counts == COUPLED_EVENTS


def test_first_moment_rows_are_golden():
    assert first_moment_check(1.5, T26, [0.5, 1.0, 2.0], 300, seed=3) == FIRST_MOMENT


def test_survival_shaped_trials_are_golden():
    params = ContactParams(2.0, 8)
    outcomes = []
    for trial in range(len(D8)):
        out = run_trial([origin(8)], params, 200.0, 500, substream(0, "golden-d8", trial))
        outcomes.append((out.verdict, out.extinction_time, out.max_size, out.event_count))
    assert outcomes == D8


def test_negative_coordinate_starts_are_golden():
    params = ContactParams(1.5, 3)
    for trial, (outcome, items) in enumerate(Z3):
        state = SampleSet(Z3_START)
        out = run_trial(state, params, 2.0, 40, substream(0, "golden-z3", trial))
        assert (out.verdict, out.extinction_time, out.max_size, out.event_count) == outcome
        assert state.items == items


def test_run_to_time_item_order_is_golden():
    torus = Torus(2, 8)
    state = SampleSet(torus.vertex(i) for i in range(torus.volume))
    run_to_time(state, ContactParams(1.5, 2, torus), 1.0, substream(0, "golden-torus", 0))
    assert state.items == TORUS_ITEMS
