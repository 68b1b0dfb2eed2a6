"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with `pytest tests/test_acceptance.py -s` to see the
lines for passing criteria too)."""

import math
import time

import numpy as np

import docksim as ds
from docksim.cli import load_scenario, scenario_path
from docksim.dynamics import make_rhs_2d
from docksim.linear import gradient_matrix, transform_matrix, transformed_matrix

from conftest import M_A, approach_config, table1_body, table1_contact
from test_integrator_oracle import numpy_integrate_dde

# Published restitution-vs-damping table for this operating point. The
# zero-damping entry (1.6) exceeds what the stated contact model can
# produce: the exact characteristic root of m_a s^2 + e^(-sh)(beta s + k)
# at (15.6, 0, 3000, 16 ms) is s = 1.490 + 13.62j, capping the one-contact
# growth at exp(1.490 * pi / 13.62) = 1.41. That sub-check is therefore
# expected to fail and is kept as an honest red; the five damped entries
# and the neutral-point location do reproduce.
REFERENCE_RESTITUTION = {0.0: 1.6, 45.0: 1.14, 50.0: 1.09, 55.0: 1.03, 60.0: 1.0, 70.0: 0.82}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {criterion}: {detail}"


def test_criterion_01_table1_reproduction():
    body, contact, sim, options = load_scenario(scenario_path("table1.json"))
    t0 = time.perf_counter()
    measured = {}
    for beta in REFERENCE_RESTITUTION:
        c = ds.ContactParams(k_v=contact.k_v, b_v=beta, alpha=contact.alpha,
                             activation=contact.activation)
        _, events = ds.simulate(sim, body, c, mode="2d",
                                event_window=options["averaging_window"])
        measured[beta] = ds.restitution(events[0]).epsilon
    elapsed = time.perf_counter() - t0

    failures = []
    for beta, ref in REFERENCE_RESTITUTION.items():
        eps = measured[beta]
        ok = abs(eps - ref) <= 0.10 * ref
        print(f"    beta={beta:5.1f}: eps={eps:.4f} vs reference {ref:.2f} "
              f"(+-10% -> [{0.9 * ref:.3f}, {1.1 * ref:.3f}]) {'ok' if ok else 'OUT OF BAND'}")
        if not ok:
            failures.append(f"beta={beta:g}: eps={eps:.4f} not within 10% of {ref}")

    betas = sorted(measured)
    eps_vals = [measured[b] for b in betas]
    neutral = None
    for b1, b2, e1, e2 in zip(betas, betas[1:], eps_vals, eps_vals[1:]):
        if (e1 - 1.0) * (e2 - 1.0) <= 0.0:
            neutral = b1 + (b2 - b1) * (e1 - 1.0) / (e1 - e2)
            break
    if neutral is None or not 50.0 <= neutral <= 70.0:
        failures.append(f"neutral point {neutral} outside [50, 70]")
    else:
        print(f"    neutral point at beta = {neutral:.1f} N*s/m (required within [50, 70])")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 10 s")

    report("1 (Table 1)", not failures,
           f"eps={ {b: round(e, 3) for b, e in measured.items()} }, "
           f"neutral={neutral and round(neutral, 1)}, runtime={elapsed:.1f} s"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_02_linear_critical_values():
    t0 = time.perf_counter()
    n = 1000
    for _ in range(n):
        omega_c = ds.analyze(M_A, 50.0, 3000.0).omega_c
        h_c, _ = ds.critical_delays(M_A, 50.0, 3000.0)
    per_call = (time.perf_counter() - t0) / n
    ok = 0.016 <= h_c <= 0.017 and per_call < 1e-3
    report("2 (critical values)", ok,
           f"h_c={h_c * 1e3:.4f} ms (required [16, 17]), omega_c={omega_c:.4f} rad/s, "
           f"{per_call * 1e6:.1f} us/call")


def test_criterion_03_approximation_validity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for _ in range(10_000):
        mu = 10 ** rng.uniform(-0.3, 2.7)
        beta = rng.uniform(0.0, 500.0)
        kappa = 10 ** rng.uniform(1.0, 5.0)
        if beta == 0.0:
            continue
        omega_c = ds.analyze(mu, beta, kappa).omega_c
        if omega_c * beta / kappa >= 0.3:
            continue
        h_c, _ = ds.critical_delays(mu, beta, kappa)
        worst = max(worst, abs(beta / kappa - h_c) / h_c)
        checked += 1
    h_check, _ = ds.critical_delays(60.0, 20.0, 1000.0)
    checkpoint_err = abs(h_check - 0.020) / 0.020
    ok = worst < 0.05 and checkpoint_err < 0.02 and checked > 1000
    report("3 (approximation)", ok,
           f"worst deviation {worst * 100:.2f}% over {checked} in-regime draws (< 5%); "
           f"checkpoint (20, 1000): h_c={h_check * 1e3:.3f} ms vs 20 ms ({checkpoint_err * 100:.2f}%)")


def test_criterion_04_gradient_oracle():
    rng = np.random.default_rng(7)
    delta = 1e-6
    worst = 0.0
    for _ in range(100):
        m = rng.uniform(5.0, 500.0)
        J_x = rng.uniform(0.5, 500.0)
        a = rng.uniform(0.05, 0.5)
        alpha = rng.uniform(0.05, math.pi / 2 - 0.05)
        k = rng.uniform(10.0, 1e4)
        b = rng.uniform(0.0, 200.0)
        body = ds.BodyParams(m=m, J=np.diag([J_x, J_x, J_x]), a_B=[0, 0, a])
        contact = ds.ContactParams(k_v=k, b_v=b, alpha=alpha, activation="bilateral")
        F = gradient_matrix(m, J_x, a, alpha, k, b)
        rhs = make_rhs_2d(body, contact)
        x0 = ds.nominal_state_2d(body, contact).as_vector()
        fd = np.empty((4, 4))
        for j in range(4):
            up, dn = x0.copy(), x0.copy()
            up[j] += delta
            dn[j] -= delta
            fd[:, j] = (np.asarray(rhs(up, up)[:4]) - np.asarray(rhs(dn, dn)[:4])) / (2 * delta)
        scale = np.abs(F).max()
        denom = np.maximum(np.abs(F), 1e-9 * scale)
        worst = max(worst, float((np.abs(fd - F) / denom).max()))
    report("4 (gradient oracle)", worst < 1e-4,
           f"max relative FD error {worst:.3e} over 100 draws (< 1e-4)")


def test_criterion_05_decoupling_oracle():
    body, contact = table1_body(), table1_contact(b_v=50.0)
    model = ds.linearize_2d(body, contact)
    mu, beta, kappa = ds.penetration_dde_coeffs(body, contact)
    a_c = body.a * math.cos(contact.alpha)
    F_x = model.F_x
    rhs4 = lambda y, yd: np.array([y[1], F_x[1] @ yd, y[3], F_x[3] @ yd])
    x0 = np.array([1e-3, 0.0, 2e-3, 0.0])
    _, Y4 = numpy_integrate_dde(rhs4, x0, 1e-4, 2.0, 0.016)
    depth_from_4state = Y4[:, 0] - a_c * Y4[:, 2]
    rhs2 = lambda y, yd: np.array([y[1], (-kappa * yd[0] - beta * yd[1]) / mu])
    d0 = np.array([x0[0] - a_c * x0[2], x0[1] - a_c * x0[3]])
    _, Y2 = numpy_integrate_dde(rhs2, d0, 1e-4, 2.0, 0.016)
    err = float(np.abs(depth_from_4state - Y2[:, 0]).max())
    report("5 (decoupling oracle)", err < 1e-8,
           f"max |depth(4-state) - depth(scalar DDE)| = {err:.3e} over 2 s (< 1e-8)")


def test_criterion_06_similarity_identity():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        m = rng.uniform(5.0, 500.0)
        J_x = rng.uniform(0.5, 500.0)
        a = rng.uniform(0.05, 0.5)
        alpha = rng.uniform(0.05, math.pi / 2 - 0.05)
        k = rng.uniform(10.0, 1e4)
        b = rng.uniform(0.0, 200.0)
        F_x = gradient_matrix(m, J_x, a, alpha, k, b)
        T = transform_matrix(a, alpha)
        F_y = transformed_matrix(m, ds.reduced_mass(m, J_x, a, alpha), k, b)
        worst = max(worst, float(np.abs(F_y - T @ F_x @ np.linalg.inv(T)).max()))
    report("6 (similarity identity)", worst < 1e-10,
           f"max |F_y - T F_x T^-1| = {worst:.3e} over 1000 draws (< 1e-10)")


def test_criterion_07_energy_conservation():
    body, contact = table1_body(), table1_contact(b_v=0.0)
    cfg = approach_config(h=0.0, dt=1e-4, t_end=1.0, v0=0.001, clearance=0.00025)
    traj, events = ds.simulate(cfg, body, contact, mode="2d", event_window=0.0)
    eps = ds.restitution(events[0]).epsilon
    st = traj.states
    energy = (0.5 * body.m * (st[:, 1] ** 2 + st[:, 5] ** 2)
              + 0.5 * body.J_x * st[:, 3] ** 2
              + np.where(traj.d < 0.0, 0.5 * contact.k_v * traj.d ** 2, 0.0))
    i_in = np.searchsorted(traj.times, events[0].t_in) - 2
    i_out = np.searchsorted(traj.times, events[0].t_out) + 2
    drift = abs(energy[i_out] - energy[i_in]) / energy[i_in]
    ok = abs(eps - 1.0) <= 1e-3 and drift < 1e-3
    report("7 (energy conservation)", ok,
           f"eps={eps:.6f} (1 +- 1e-3), energy drift {drift:.2e} per contact (< 0.1%)")


def test_criterion_08_characteristic_residual():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        mu = 10 ** rng.uniform(-0.3, 2.7)
        beta = rng.uniform(0.0, 500.0)
        kappa = 10 ** rng.uniform(1.0, 5.0)
        omega_c = ds.analyze(mu, beta, kappa).omega_c
        _, h_n = ds.critical_delays(mu, beta, kappa, 3)
        for h in h_n:
            res = abs(ds.characteristic_value(mu, beta, kappa, h, 1j * omega_c)) / kappa
            worst = max(worst, res)
    report("8 (characteristic residual)", worst < 1e-8,
           f"max |chi(j omega_c)|/kappa = {worst:.3e} at h_0..h_2 over 1000 draws (< 1e-8)")


def test_criterion_09_passivity_monitor():
    # identical measured/commanded streams: exactly zero observed energy
    rng = np.random.default_rng(21)
    sig = [rng.normal(size=(200, 3)) for _ in range(4)]
    streams = ds.PowerStreams(f_m=sig[0], v_m=sig[1], f_in=sig[0], v_r=sig[1],
                              tau_m=sig[2], omega_m=sig[3], tau_in=sig[2], omega_r=sig[3])
    record = ds.observed_energy(streams)
    identical_zero = bool(np.all(record.total == 0.0))

    # damped zero-delay run with the damping as the only mismatch: passive
    body, contact = table1_body(), table1_contact(b_v=70.0)
    traj, events = ds.simulate(approach_config(h=0.0, t_end=1.0), body, contact, mode="2d")
    spring_f = traj.f + contact.b_v * traj.d_dot
    commanded = ds.Trajectory(
        mode="2d", times=traj.times, states=traj.states, d=traj.d, d_dot=traj.d_dot,
        f=spring_f, tau=-body.a * spring_f * np.sin(traj.states[:, 2]),
    )
    from docksim.analysis import streams_from_trajectories

    rec = ds.observed_energy(streams_from_trajectories(traj, commanded))
    (ev,) = events
    during = (rec.times > ev.t_in + 0.01) & (rec.times < ev.t_out)
    damped_negative = bool(np.all(rec.total[during] < 0.0)) and rec.total[-1] < 0.0

    # the hardware velocity pair is a fixed input to the restitution formula
    eps = ds.restitution(
        ds.ContactEvent(t_in=0.0, t_out=1.0, v_minus=-0.021, v_plus=0.0234, max_depth=0.0)
    ).epsilon
    formula_ok = round(eps, 2) == 1.11

    report("9 (passivity monitor)", identical_zero and damped_negative and formula_ok,
           f"identical streams dE==0: {identical_zero}; damped zero-delay dE<0 in contact: "
           f"{damped_negative}; restitution(21.0, 23.4)={eps:.4f}")


def test_criterion_10_planar_equivalence():
    body, contact = table1_body(), table1_contact(b_v=50.0)
    cfg = approach_config(h=0.016, dt=1e-4, t_end=2.0)
    t2, _ = ds.simulate(cfg, body, contact, mode="2d")
    t3, _ = ds.simulate(cfg, body, contact, mode="3d")
    theta_3d = np.arctan2(t3.states[:, 7], t3.states[:, 8])
    worst = max(
        float(np.abs(t3.states[:, 2] - t2.states[:, 0]).max()),  # z
        float(np.abs(t3.states[:, 5] - t2.states[:, 1]).max()),  # v_z
        float(np.abs(theta_3d - t2.states[:, 2]).max()),         # theta
        float(np.abs(t3.states[:, 9] - t2.states[:, 3]).max()),  # omega
        float(np.abs(t3.states[:, 1] - t2.states[:, 4]).max()),  # y
        float(np.abs(t3.states[:, 4] - t2.states[:, 5]).max()),  # v_y
        float(np.abs(t3.d - t2.d).max()),
    )
    report("10 (planar equivalence)", worst < 1e-9,
           f"max 3D-vs-2D state deviation {worst:.3e} over 2 s (< 1e-9)")
