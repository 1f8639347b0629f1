"""Metamorphic relations over any scenario the loader accepts.

Where no closed form gives the right scan, a change of input whose effect
on the scan is known still checks it (Chen et al., "Metamorphic testing: a
review of challenges and opportunities", ACM Computing Surveys 2018). Each
relation draws a scenario from valid_scenarios, narrowed only as it needs,
and compares Receiver.scan over a still receiver's two-round capture
(helpers.still_capture, the farm trial's capture) before and after:

- translation: moving every AP and the receiver by one vector leaves the
  found flags, bearings and peak times equal and moves the fix by it;
- power offset: with the square-law detector, raising every transmit
  power and the sensitivity floor by the same dB leaves every scan array
  equal;
- rotation: turning the receiver about AP k, together with AP k's
  boresight, by one angle leaves AP k's raw bearing equal (not its peak
  time: AP 2's search starts where AP 1's preamble was found, and the
  turn moves the receiver relative to AP 1).

All run without noise. With it, the two rounds' preamble correlations
both sit within rounding of 1, and the last bit of the field picks the
round. A relation between two scans that find nothing holds vacuously, so
the receiver is put in front of AP 1 and AP 2, within 1 rad of each
boresight, where each one's line-of-sight power is 3-30 dB over the floor
(AP 2 is moved there, or added as AP 1's twin with the other preamble;
everything else is as drawn). Draws whose scan still misses either AP
(multipath fades, a flat response table) are excluded by assume() and
counted by event(): run with --hypothesis-show-statistics to see how
many. A rotation moves the bearing by rounding, so it also excludes, and
counts, draws whose bearing sits within a margin of a step boundary.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, event, given, settings, strategies as st

from sweeploc.pipeline import draw_pathsets, fast_estimate_bearings
from sweeploc.receiver import Receiver
from sweeploc.scenario import Position, trial_rng, true_bearing_xy

from helpers import still_capture
from test_scenario import valid_scenarios

EXAMPLES = settings(max_examples=50, deadline=None, derandomize=True)
STEP_MARGIN_RAD = 1e-9  # far above the rounding a rotation adds to a bearing


@st.composite
def scenes(draw):
    """A valid scenario of two or more APs, without noise, and a receiver
    in front of AP 1 and AP 2 (see the module docstring)."""
    scn = draw(valid_scenarios())
    aps = scn.aps
    if len(aps) == 1:  # AP 1's twin on the other preamble, moved below
        aps += (replace(aps[0], preamble_id=3 - aps[0].preamble_id),)
    floor = scn.detector.sensitivity_floor_dbm

    def offset(ap):  # from the AP to the receiver
        # off the simple values Hypothesis tries first: at bearing 0 an even
        # step count's two middle steps tie, and rounding picks the peak
        heading = ap.boresight_rad + draw(st.floats(-1.0, 1.0)) * 0.97 + 0.01234
        over_floor = draw(st.floats(3.0, 30.0))
        dist = (ap.wavelength_m / (4.0 * math.pi)
                * 10.0 ** ((ap.tx_power_dbm - floor - over_floor) / 20.0))
        return dist * math.cos(heading), dist * math.sin(heading)

    ap1, ap2 = aps[:2]
    dx, dy = offset(ap1)
    pos = Position(ap1.position.x + dx, ap1.position.y + dy)
    dx, dy = offset(ap2)
    ap2 = replace(ap2, position=Position(pos.x - dx, pos.y - dy))
    return replace(scn, aps=(ap1, ap2) + aps[2:],
                   channel=replace(scn.channel, noise_power_dbm=None),
                   detector=replace(scn.detector, output_noise_volts=0.0)), pos


def _scan(scn, pos):
    return Receiver(scn).scan(still_capture(scn, pos, trial_rng(scn.seed, "mr")))


def _both_found(scan):
    found = bool(scan.found.all())
    event("both APs found" if found else "excluded: an AP not found")
    assume(found)


@EXAMPLES
@given(scenes(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_translation_moves_only_the_fix(scene, vx, vy):
    scn, pos = scene
    base = _scan(scn, pos)
    _both_found(base)
    moved = replace(scn, aps=tuple(
        replace(ap, position=Position(ap.position.x + vx, ap.position.y + vy))
        for ap in scn.aps))
    got = _scan(moved, Position(pos.x + vx, pos.y + vy))
    for name in ("found", "raw_rad", "smoothed_rad", "timestamp_s"):
        assert getattr(got, name).tobytes() == getattr(base, name).tobytes(), name
    # the table's cells are the same; their values round at the scene's scale
    scale = max(abs(v) for ap in moved.aps for v in (ap.position.x, ap.position.y))
    tol = 1e-12 * (scale + 1.0)
    np.testing.assert_allclose(got.x_m - vx, base.x_m, rtol=0, atol=tol)
    np.testing.assert_allclose(got.y_m - vy, base.y_m, rtol=0, atol=tol)


@EXAMPLES
@given(scenes(), st.floats(-30.0, 30.0))
def test_power_offset_leaves_the_scan_unchanged(scene, db):
    scn, pos = scene
    scn = replace(scn, detector=replace(scn.detector, response_model="square_law",
                                        response_table=None))
    base = _scan(scn, pos)
    _both_found(base)
    louder = replace(
        scn, aps=tuple(replace(ap, tx_power_dbm=ap.tx_power_dbm + db) for ap in scn.aps),
        detector=replace(scn.detector,
                         sensitivity_floor_dbm=scn.detector.sensitivity_floor_dbm + db))
    got = _scan(louder, pos)
    for name in ("found", "raw_rad", "smoothed_rad", "timestamp_s", "x_m", "y_m"):
        assert getattr(got, name).tobytes() == getattr(base, name).tobytes(), name


def _clear_of_step_boundaries(scn, pos, k):
    """Whether AP k's winning sweep step (fast_estimate_bearings, the
    receiver's own step map, on AP k's paths of _scan's capture) stays the
    same with the LOS bearing moved by a margin either way: STEP_MARGIN_RAD,
    plus 1e-12 of the scene's scale over the receiver's distance, since the
    turned receiver's offset from the AP rounds at the coordinates' scale."""
    ap = scn.aps[k]
    paths = draw_pathsets(scn, trial_rng(scn.seed, "mr"))[k]
    scale = max(abs(v) for v in (ap.position.x, ap.position.y, pos.x, pos.y))
    margin = STEP_MARGIN_RAD + 1e-12 * scale / ap.position.distance_to(pos)
    truth = true_bearing_xy(ap, pos.x, pos.y)
    est = fast_estimate_bearings(ap, scn.sweep_mode, scn.detector.sample_rate_hz,
                                 paths, truth + np.array([-margin, margin]))
    clear = bool(est[-1, 0] == est[-1, 1])
    event("clear of a step boundary" if clear else "excluded: near a step boundary")
    return clear


@settings(EXAMPLES, max_examples=30)
@given(scenes(), st.sampled_from([0, 1]), st.floats(-math.pi, math.pi))
def test_rotation_about_an_ap_keeps_its_bearing(scene, k, turn):
    scn, pos = scene
    base = _scan(scn, pos)
    _both_found(base)
    assume(_clear_of_step_boundaries(scn, pos, k))
    ap = scn.aps[k]
    c, s = math.cos(turn), math.sin(turn)
    dx, dy = pos.x - ap.position.x, pos.y - ap.position.y
    turned = Position(ap.position.x + c * dx - s * dy, ap.position.y + s * dx + c * dy)
    aps = scn.aps[:k] + (replace(ap, boresight_rad=ap.boresight_rad + turn),) + scn.aps[k + 1:]
    got = _scan(replace(scn, aps=aps), turned)
    found = bool(got.found.all())  # the other AP sees the receiver elsewhere
    event("turned: both APs found" if found else "excluded: an AP lost after the turn")
    assume(found)
    assert got.raw_rad[..., k].tobytes() == base.raw_rad[..., k].tobytes()
