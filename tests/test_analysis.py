import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import docksim as ds
from docksim.analysis import (
    PowerStreams,
    events_payload,
    observed_energy,
    restitution,
    streams_from_trajectories,
    write_energy_csv,
)
from docksim.cli import ANALYSIS_DEFAULTS
from docksim.dynamics import ContactEvent

from conftest import approach_config, table1_body, table1_contact


def event(v_minus, v_plus):
    return ContactEvent(t_in=1.0, t_out=1.2, v_minus=v_minus, v_plus=v_plus, max_depth=1e-3)


class TestRestitution:
    def test_hardware_table_values(self):
        # measured velocity pairs are fixed inputs to the formula here
        r = restitution(event(-0.021, 0.0234))
        assert r.epsilon == pytest.approx(0.0234 / 0.021, rel=1e-12)
        assert round(r.epsilon, 2) == 1.11
        assert r.classification == "unstable"
        r = restitution(event(-0.018, 0.018))
        assert r.epsilon == 1.0
        assert r.classification == "neutral"

    def test_no_impact_velocity(self):
        with pytest.raises(ValueError, match="no impact velocity"):
            restitution(event(0.0, 0.01))

    @given(v=st.floats(1e-4, 1.0), eps=st.floats(0.1, 3.0), c=st.floats(0.01, 100.0))
    def test_invariant_under_uniform_scaling(self, v, eps, c):
        r1 = restitution(event(-v, eps * v))
        r2 = restitution(event(-c * v, c * eps * v))
        assert r1.epsilon == pytest.approx(r2.epsilon, rel=1e-12)

    def test_classification_band(self):
        assert restitution(event(-1.0, 1.015), band=0.02).classification == "neutral"
        assert restitution(event(-1.0, 1.05), band=0.02).classification == "unstable"
        assert restitution(event(-1.0, 0.9), band=0.02).classification == "stable"

    def test_default_band_is_the_neutrality_band(self):
        # restitution reads an event as docksim simulate's events JSON does
        # for a scenario without analysis.neutrality_band (0.01): at
        # epsilon = 1.015 both read unstable, where a default band of 0.02
        # read neutral
        ev = event(-1.0, 1.015)
        assert restitution(ev).classification == "unstable"
        (entry,) = events_payload([ev], band=ANALYSIS_DEFAULTS["neutrality_band"])
        assert entry["classification"] == "unstable"

    def test_band_edges_are_neutral(self):
        # |epsilon - 1| <= band reads neutral, the next float out does not
        assert restitution(event(-1.0, 1.25), band=0.25).classification == "neutral"
        assert restitution(event(-1.0, 0.75), band=0.25).classification == "neutral"
        assert restitution(event(-1.0, np.nextafter(1.25, 2.0)), band=0.25).classification == "unstable"
        assert restitution(event(-1.0, np.nextafter(0.75, 0.0)), band=0.25).classification == "stable"
        assert restitution(event(-1.0, 1.0), band=0.0).classification == "neutral"

    @pytest.mark.parametrize("band", [math.inf, math.nan, -1.0])
    def test_unusable_band_raises(self, band):
        # an infinite band used to read epsilon = 1.5 as neutral, nan and -1 as unstable
        with pytest.raises(ValueError, match=f"^band must be finite and >= 0, got {band!r}$"):
            restitution(event(-0.02, 0.03), band=band)


class TestEventsPayload:
    def test_entries_carry_restitution(self):
        (entry,) = events_payload([event(-0.02, 0.01)], band=0.02)
        assert entry == {"t_in": 1.0, "t_out": 1.2, "v_minus": -0.02, "v_plus": 0.01,
                         "max_depth": 1e-3, "epsilon": 0.5, "classification": "stable"}

    def test_event_without_impact_velocity(self):
        (entry,) = events_payload([event(0.0, 0.01)], band=0.02)
        assert entry["epsilon"] is None
        assert entry["classification"] == "no impact velocity"
        assert entry["max_depth"] == 1e-3

    @pytest.mark.parametrize("events", [[event(-0.02, 0.03)], [event(0.0, 0.01)], []])
    @pytest.mark.parametrize("band", [math.inf, math.nan, -1.0])
    def test_unusable_band_raises(self, events, band):
        with pytest.raises(ValueError, match=f"^band must be finite and >= 0, got {band!r}$"):
            events_payload(events, band)


def constant_streams(n, watts_measured=1.0, watts_input=0.0):
    ones = np.zeros((n, 3))
    ones[:, 0] = 1.0
    zeros = np.zeros((n, 3))
    f_m = watts_measured * ones
    f_in = watts_input * ones
    return PowerStreams(f_m=f_m, v_m=ones, f_in=f_in, v_r=ones,
                        tau_m=zeros, omega_m=zeros, tau_in=zeros, omega_r=zeros)


class TestObservedEnergy:
    def test_identical_streams_are_exactly_lossless(self):
        rng = np.random.default_rng(11)
        sig = {k: rng.normal(size=(64, 3)) for k in
               ("f_m", "v_m", "tau_m", "omega_m")}
        streams = PowerStreams(f_m=sig["f_m"], v_m=sig["v_m"],
                               f_in=sig["f_m"], v_r=sig["v_m"],
                               tau_m=sig["tau_m"], omega_m=sig["omega_m"],
                               tau_in=sig["tau_m"], omega_r=sig["omega_m"])
        record = observed_energy(streams, dt=0.004)
        assert np.all(record.total == 0.0)
        assert set(record.classification) == {"lossless"}

    def test_one_watt_rectangle_sum(self):
        record = observed_energy(constant_streams(250), dt=0.004)
        assert record.total[-1] == pytest.approx(1.0, rel=1e-12)
        assert record.times[-1] == pytest.approx(1.0)
        assert record.classification[-1] == "active"

    def test_total_is_sum_of_channels_everywhere(self):
        rng = np.random.default_rng(5)
        streams = PowerStreams(*(rng.normal(size=(40, 3)) for _ in range(8)))
        record = observed_energy(streams, dt=0.01)
        assert np.array_equal(record.total, record.channels.sum(axis=1))

    def test_channel_length_mismatch_is_hard_error(self):
        good = np.zeros((10, 3))
        bad = np.zeros((9, 3))
        with pytest.raises(ValueError, match="channel-length mismatch"):
            PowerStreams(f_m=good, v_m=good, f_in=good, v_r=bad,
                         tau_m=good, omega_m=good, tau_in=good, omega_r=good)

    @pytest.mark.parametrize("bad, shape", [(np.zeros(10), (10,)), (np.zeros((10, 2)), (10, 2)),
                                            (np.zeros((10, 3, 1)), (10, 3, 1))])
    def test_channel_that_is_not_n_by_3_is_hard_error(self, bad, shape):
        good = np.zeros((10, 3))
        with pytest.raises(ds.ValidationError) as raised:
            PowerStreams(f_m=good, v_m=good, f_in=good, v_r=good,
                         tau_m=good, omega_m=bad, tau_in=good, omega_r=good)
        assert str(raised.value) == f"omega_m must have shape (N, 3), got {shape}"

    def test_damped_zero_delay_run_is_passive(self):
        # measured stream carries the full force, commanded stream the
        # spring-only force: the only mismatch is the damping, so the
        # observed energy must fall throughout the contact
        body = table1_body()
        contact = table1_contact(b_v=70.0)
        traj, events = ds.simulate(approach_config(h=0.0, t_end=1.0), body, contact, mode="2d")
        spring_f = traj.f + contact.b_v * traj.d_dot
        commanded = ds.Trajectory(
            mode="2d", times=traj.times, states=traj.states, d=traj.d,
            d_dot=traj.d_dot, f=spring_f,
            tau=-body.a * spring_f * np.sin(traj.states[:, 2]),
        )
        streams = streams_from_trajectories(traj, commanded, dt=0.004)
        record = observed_energy(streams, dt=0.004)
        # the mismatch power is -b * d_dot^2: never adds energy (up to the
        # resampling grain) and is strictly negative once contact is on
        assert np.all(np.diff(record.total) <= 1e-9)
        (ev,) = events
        during = (record.times > ev.t_in + 0.01) & (record.times < ev.t_out)
        assert np.all(record.total[during] < 0.0)
        assert record.total[-1] < 0.0
        assert record.classification[-1] == "passive"

    @pytest.mark.parametrize("t_end, samples", [(0.284, 71), (0.2859, 71), (1.2, 300)])
    def test_grid_ends_at_the_last_whole_sample(self, t_end, samples):
        # a run read back from CSV ends at exactly t_end, and 0.284 / 0.004
        # rounds to 70.99999999999999, which is 71 samples
        steps = round(t_end / 1e-4)
        zeros = np.zeros(steps + 1)
        traj = ds.Trajectory(mode="2d", times=np.linspace(0.0, t_end, steps + 1),
                             states=np.zeros((steps + 1, 6)), d=zeros, d_dot=zeros, f=zeros,
                             tau=zeros)
        record = observed_energy(streams_from_trajectories(traj, traj, dt=0.004), dt=0.004)
        assert len(record.times) == samples
        assert record.times[-1] == pytest.approx(samples * 0.004, rel=1e-12)

    def test_csv_export(self, tmp_path):
        record = observed_energy(constant_streams(3), dt=0.004)
        path = tmp_path / "e.csv"
        write_energy_csv(record, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,dE_x,dE_y,dE_z,dE_rx,dE_ry,dE_rz,dE_total,class"
        assert lines[1].endswith("active")
        assert len(lines) == 4


class TestAgreementWithLinearVerdict:
    def test_restitution_matches_verdict_at_reference_point(self):
        # the linear rule and the nonlinear cue agree on the stable and
        # unstable sides; near the critical damping the two cues may
        # disagree, so only clearly one-sided points are compared
        body = table1_body()
        for b_v, expected in ((0.0, "unstable"), (45.0, "unstable"), (70.0, "stable")):
            contact = table1_contact(b_v=b_v)
            _, events = ds.simulate(approach_config(), body, contact,
                                    mode="2d", event_window=0.004)
            cue = restitution(events[0]).classification
            verdict = ds.verdict_4th_order(body, contact, 0.016).verdict
            assert cue == verdict == expected
