"""Golden SHA-256 of the byte-stable `docksim simulate` data files.

The trajectory CSV and the events JSON of the bundled scenarios are pinned
byte for byte, so any change to the integrator, the contact law, the
post-processing or the writers that moves a single digit shows up here.
The hashes were recorded with the numpy-array integrator and must not move
when the implementation changes; a change that means to alter the outputs
has to say why and record new hashes.
"""

import hashlib

import pytest

from docksim.cli import main

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


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario, mode", sorted(GOLDEN))
def test_simulate_outputs_match_golden_hashes(tmp_path, scenario, mode):
    out = tmp_path / f"{scenario}-{mode}"
    assert main(["simulate", f"{scenario}.json", "--mode", mode, "--out", str(out)]) == 0
    traj_sha, events_sha = GOLDEN[scenario, mode]
    assert sha256(tmp_path / f"{scenario}-{mode}.traj.csv") == traj_sha
    assert sha256(tmp_path / f"{scenario}-{mode}.events.json") == events_sha
