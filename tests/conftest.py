import math

import numpy as np
import pytest

from docksim import BodyParams, ChaserState2D, ContactParams, SimConfig, depth_2d, depth_rate_2d

# Operating point of the restitution table: m = 60 kg, a = 0.3 m,
# alpha = 30 deg, J_x recovered from the stated reduced mass 15.6 kg by
# inverting m_a = m / (1 + m (a cos alpha)^2 / J_x):
#   (a cos alpha)^2 = 0.0675 exactly, so J_x = 4.05 * 15.6 / 44.4.
JX_RECOVERED = 4.05 * 15.6 / 44.4  # 1.422972972972973 kg*m^2
M_A = 15.6


def table1_body() -> BodyParams:
    return BodyParams(m=60.0, J=np.diag([JX_RECOVERED, JX_RECOVERED, JX_RECOVERED]), a_B=[0, 0, 0.3])


def table1_contact(b_v: float = 0.0, activation: str = "unilateral") -> ContactParams:
    return ContactParams(k_v=3000.0, b_v=b_v, alpha=math.radians(30.0), activation=activation)


def approach_config(h: float = 0.016, dt: float = 1e-4, t_end: float = 1.2,
                    v0: float = 0.02, clearance: float = 0.01) -> SimConfig:
    """Start the probe `clearance` above the wall, moving in at v0."""
    return SimConfig(
        h=h, dt=dt, t_end=t_end,
        initial=ChaserState2D(z=-0.3 * math.sin(math.radians(30.0)) + clearance,
                              v_z=-v0, theta=math.radians(60.0), omega=0.0),
    )


def depth_and_rate_2d(state: ChaserState2D, a: float) -> tuple[float, float]:
    """Planar penetration depth and rate of one state, probe length a."""
    x = state.as_vector()
    return depth_2d(x, a, math.cos(state.theta)), depth_rate_2d(x, a, math.sin(state.theta))


@pytest.fixture
def body():
    return table1_body()


@pytest.fixture
def contact():
    return table1_contact()
