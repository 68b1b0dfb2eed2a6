"""Golden SHA-256 of the byte-stable data files of the command line.

The trajectory CSV and the events JSON of the bundled scenarios are pinned
byte for byte, so any change to the integrator, the contact law, the
post-processing or the writers that moves a single digit shows up here.
So are the README `boundary` curve, the `energy` CSV of two bundled runs
(2D and 3D) and the `stability --json` output with and without a delay.
Beyond the files, a `kappa`-axis and a `mu`-axis `stability_boundary` curve
(every field of every point, as `float.hex` and error text) and
`critical_damping` at four delays are pinned bit for bit.
The hashes were recorded before the implementation they pin was last
rewritten and must not move when it changes; a change that means to alter
the outputs has to say why and record new hashes.
"""

import hashlib

import numpy as np
import pytest

from docksim.cli import main
from docksim.stability import critical_damping, stability_boundary

GOLDEN = {
    ("table1", "2d"): ("91e36abd35def9d2fc96160b872101d1505d3e8eacfd93aa45996d421ba4dbd6",
                       "fd1c844c906ba1dd9790cd680975f6a6ca1afc4694ce2d84f15944a6114894e0"),
    ("table1", "3d"): ("c934dea9549cbb38fecfdada3e4fdd6863cf7c80a31b3b625d73ae1adbe51d07",
                       "ce700be8373b323d4d14d6fb7e6925eaeaf72e1359bfffc9237abb2fb1c87859"),
    ("fig7", "2d"): ("60c57b7b3bdc0fb3654305f423fcd81d4a88090f359ef7759c31eaa46357c237",
                     "bd45a9103a602a4fbed9f0da3adf3e8407b5f58eb498c38d575794d9674e67ee"),
    ("fig7", "3d"): ("5b3b62340e4f10fcdf176bc35640dfe1d5597c9892159816ff98f620b3bdca97",
                     "434c174a978318144f13ef4c6e07c5d24991f5ed3c5fa8cb4524075e3588fda6"),
    ("fig9", "2d"): ("8b89bc6fbe94c3ed24991a616f6048d2fe34762b87d89de9906afadd94fb5647",
                     "d9a44a66db475c2e0923419ea5e0182399518678ef75634f22d73459badca9fe"),
    ("fig9", "3d"): ("61a3121a96cab309de2ea1fdb1dd4fb807eda213b3ea9e2b7d131eaf4fab8c41",
                     "7ad9040c74455fbae6f196df23fee3b378eecc4d9ae903a5b4b8523ba0d50955"),
    ("demo3d", "3d"): ("e3ddfe0789857038d941420d811a42fbe2168d3e2a8303274c55f9be00680d2d",
                       "d3c4658ab3d526e3f35eecafa9aeef7ca8c5f5e43dfbd73228b4c97e63a3fc15"),
}


# energy --measured table1-<mode>.traj.csv --commanded fig9-<mode>.traj.csv
GOLDEN_ENERGY = {
    "2d": "ac43e5c2af7bcb2c5e0a60e5c3069ed5cce5a117544b06199f2fe50d45534f09",
    "3d": "8bfb1c6784eb45def227ead9c540dd8392cddfa975baed499fc2e06491d01ee5",
}
GOLDEN_BOUNDARY = "cdc0cff2694e9a49e3321e6037980466d06e3df595c9d4ca631f138ba83609c1"
GOLDEN_STABILITY = {
    ("--h", "0.016"): "20b2b84e57edbd22e9c195585fb49d7bec0fc0ccd1633b942e619bde8f373608",
    (): "9580c1d32e9971b80e2f57a65bc6007f8dba8f8241c6224c5e5ee9e4a2b3f3bf",
}

# (axis, linspace(start, stop, count), fixed coefficients): SHA-256 of the
# curve's points, one "x,h_critical,omega_c,sigma,error" line each with the
# numbers as float.hex; the mu curve starts at -50, so 51 points fail with
# "mu must be finite and > 0, got ..." (recorded anew when that text
# replaced "mu must be positive, got ..."; every number is unchanged). The
# kappa curve was recorded anew when the closed form began to square with
# x * x, correctly rounded, instead of libm's x ** 2: two of its 1 500
# numbers moved by 1 ulp, none at 9 significant digits
GOLDEN_CURVES = {
    ("kappa", (100.0, 8000.0, 500), (("mu", 60.0), ("beta", 50.0))):
        "d82b328e6a1d49d943ab9160473287b97c19a7a0af31a77c9ebbab6014e798bd",
    ("mu", (-50.0, 400.0, 451), (("beta", 50.0), ("kappa", 1000.0))):
        "188f398891e64843f6be677c608ee3105427fa15eaeb0ad4a471c6385ba9da5d",
}
# (mu, kappa, h) -> critical_damping(mu, kappa, h).hex()
GOLDEN_CRITICAL_DAMPING = {
    (15.6, 3000.0, 0.016): "0x1.8698ed6ea2ca8p+5",
    (60.0, 1000.0, 0.002): "0x1.000174d971dacp+1",
    (60.0, 1000.0, 0.02): "0x1.40b7252119fdap+4",
    (60.0, 1000.0, 0.04): "0x1.42ea3370337ecp+5",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """Directory holding `<scenario>-<mode>.traj.csv/.events.json` for
    every golden (scenario, mode), simulated once for the module."""
    out = tmp_path_factory.mktemp("golden")
    for scenario, mode in GOLDEN:
        prefix = out / f"{scenario}-{mode}"
        assert main(["simulate", f"{scenario}.json", "--mode", mode, "--out", str(prefix)]) == 0
    return out


@pytest.mark.parametrize("scenario, mode", sorted(GOLDEN))
def test_simulate_outputs_match_golden_hashes(simulated, scenario, mode):
    traj_sha, events_sha = GOLDEN[scenario, mode]
    assert sha256(simulated / f"{scenario}-{mode}.traj.csv") == traj_sha
    assert sha256(simulated / f"{scenario}-{mode}.events.json") == events_sha


@pytest.mark.parametrize("mode", sorted(GOLDEN_ENERGY))
def test_energy_output_matches_golden_hash(simulated, tmp_path, mode):
    out = tmp_path / "energy.csv"
    assert main(["energy", "--measured", str(simulated / f"table1-{mode}.traj.csv"),
                 "--commanded", str(simulated / f"fig9-{mode}.traj.csv"), "--out", str(out)]) == 0
    assert sha256(out) == GOLDEN_ENERGY[mode]


def test_readme_boundary_curve_matches_golden_hash(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["boundary", "--axis", "beta", "--mu", "60", "--kappa", "1000",
                 "--grid", "0:200:80", "--out", str(out)]) == 0
    assert sha256(out) == GOLDEN_BOUNDARY


@pytest.mark.parametrize("delay", sorted(GOLDEN_STABILITY), ids=["without-h", "with-h"])
def test_stability_json_matches_golden_hash(capsys, delay):
    assert main(["stability", "--mu", "15.6", "--beta", "50", "--kappa", "3000",
                 *delay, "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_STABILITY[delay]


@pytest.mark.parametrize("axis, grid, fixed", sorted(GOLDEN_CURVES), ids=lambda v: str(v))
def test_boundary_curve_matches_golden_hash(axis, grid, fixed):
    points = stability_boundary(axis, np.linspace(*grid), **dict(fixed))
    text = "".join(f"{p.x.hex()},{p.h_critical.hex()},{p.omega_c.hex()},{p.sigma.hex()},{p.error}\n"
                   for p in points)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CURVES[axis, grid, fixed]


@pytest.mark.parametrize("mu, kappa, h", sorted(GOLDEN_CRITICAL_DAMPING))
def test_critical_damping_matches_golden_bits(mu, kappa, h):
    assert critical_damping(mu, kappa, h).hex() == GOLDEN_CRITICAL_DAMPING[mu, kappa, h]
