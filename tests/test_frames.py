import math

import numpy as np
import pytest

from beamtrack import frames, fusion, mechanical
from beamtrack.config import D2R
from beamtrack.frames import (
    Attitude,
    c_b_t,
    c_n_b,
    c_n_t,
    euler_to_quat,
    euler_rates_in_frame,
    quat_to_dcm,
    wrap_angle,
    zyx_angles,
)
from refs import bits, rot_x, rot_y, rot_z

# the +/-90 deg middle angles of the z-y-x pole, and (outer, inner) angle
# pairs tried at each: the inner angle 0, or both turning at once
POLES = (math.pi / 2, -math.pi / 2)
POLE_PAIRS = ((0.7, 0.0), (-2.9, 0.0), (0.4, 1.1), (3.0, -2.5))
# (z, y, x) angles of a rotation: none, a turn about one axis (a quarter
# turn and a half turn among them), and the reference pointing solution
FIXED_ANGLES = [
    (0.0, 0.0, 0.0), (0.9, 0.0, 0.0), (math.pi / 2, 0.0, 0.0), (math.pi, 0.0, 0.0),
    (0.0, 0.4, 0.0), (0.0, math.pi / 2, 0.0), (0.0, 0.0, 0.7), (0.0, 0.0, math.pi / 2),
    (186.11 * D2R, 50.1 * D2R, -5.05 * D2R),
]


def closed_form_b_to_t(a, b, g):
    """Independent oracle: the body-to-beam DCM written out entry by entry."""
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    cg, sg = math.cos(g), math.sin(g)
    return np.array(
        [
            [ca * cb, sa * cb, -sb],
            [ca * sb * sg - sa * cg, sa * sb * sg + ca * cg, cb * sg],
            [sa * sg + ca * sb * cg, sa * sb * cg - ca * sg, cb * cg],
        ]
    )


class TestComposedTransforms:
    def test_cbt_entry_against_symbolic_expansion(self):
        m = c_b_t(30 * D2R, 20 * D2R, 10 * D2R)
        assert m[0, 0] == pytest.approx(math.cos(30 * D2R) * math.cos(20 * D2R), abs=1e-15)
        assert m[0, 0] == pytest.approx(0.81380, abs=5e-6)

    def test_cbt_matches_closed_form_everywhere(self):
        # the zero and one-axis turns, a pointing solution, and random angles
        rng = np.random.default_rng(11)
        for a, b, g in [*FIXED_ANGLES, *rng.uniform(-math.pi, math.pi, (300, 3))]:
            np.testing.assert_allclose(
                c_b_t(a, b, g), closed_form_b_to_t(a, b, g), atol=1e-14
            )

    def test_dcms_equal_the_matrix_chain_exactly(self):
        # the traces depend on these bits: the written-out forms must not drift
        rng = np.random.default_rng(13)
        for z, y, x in [*FIXED_ANGLES, *rng.uniform(-4, 4, (300, 3))]:
            chain = rot_x(x) @ rot_y(y) @ rot_z(z)
            np.testing.assert_array_equal(c_b_t(z, y, x), chain)
            np.testing.assert_array_equal(c_n_t(z, y, x), chain)
            np.testing.assert_array_equal(c_n_b(Attitude(z, y, x)), chain)

    def test_euler_rates_in_frame_equals_matrix_form_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            x, y = rng.uniform(-4, 4, size=2)
            rx, ry, rz = rng.standard_normal(3)
            matrix_form = (
                np.array([rx, 0.0, 0.0])
                + rot_x(x) @ np.array([0.0, ry, 0.0])
                + rot_x(x) @ rot_y(y) @ np.array([0.0, 0.0, rz])
            )
            np.testing.assert_array_equal(euler_rates_in_frame(x, y, rx, ry, rz), matrix_form)

    def test_composed_nonfinite_angle_rejected(self):
        for bad in (float("nan"), float("inf")):
            for args in ((bad, 0.1, 0.2), (0.1, bad, 0.2), (0.1, 0.2, bad)):
                with pytest.raises(ValueError, match="finite"):
                    c_b_t(*args)
            with pytest.raises(ValueError, match="finite"):
                euler_rates_in_frame(bad, 0.1, 1.0, 1.0, 1.0)

    def test_angle_arrays_give_the_bits_of_each_call(self):
        # c_n_b, euler_to_quat and euler_rates_in_frame over arrays of angles
        rng = np.random.default_rng(23)
        yaw, pitch, roll = rng.uniform(-4, 4, (3, 500))
        rates = rng.standard_normal((3, 500))
        dcms = c_n_b(Attitude(yaw, pitch, roll))
        quats = euler_to_quat(Attitude(yaw, pitch, roll))
        body = np.column_stack(euler_rates_in_frame(roll, pitch, *rates))
        assert dcms.shape == (500, 3, 3) and quats.shape == (500, 4)
        for i, (z, y, x) in enumerate(zip(yaw.tolist(), pitch.tolist(), roll.tolist())):
            assert dcms[i].tobytes() == c_n_b(Attitude(z, y, x)).tobytes()
            assert quats[i].tobytes() == euler_to_quat(Attitude(z, y, x)).tobytes()
            one = euler_rates_in_frame(x, y, *rates[:, i].tolist())
            assert body[i].tobytes() == np.array(one).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_angle_in_an_array_rejected(self, bad):
        for axis in range(3):
            angles = np.zeros((3, 4))
            angles[axis, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                c_n_b(Attitude(*angles))


def reference_is_rotation(matrix, tol=1e-8):
    """The numpy form of the rotation test: ``m @ m.T`` against I, det against 1."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(
            np.abs(m @ m.T - np.eye(3)).max() <= tol and abs(np.linalg.det(m) - 1.0) <= tol
        )


def shear(d):
    """Identity plus one off-diagonal entry: det exactly 1, m @ m.T off I by d."""
    m = np.eye(3)
    m[0, 1] = d
    return m


R0 = c_b_t(0.3, -0.7, 1.9)


class TestIsRotation:
    @pytest.mark.parametrize(
        "matrix, expected",
        [
            (np.eye(3), True),
            (R0, True),
            (R0.tolist(), True),
            (np.diag([1.0, 1.0, -1.0]) @ R0, False),  # reflection, det -1
            (-np.eye(3), False),  # point reflection
            (1.01 * R0, False),  # scaled rotation
            # orthogonality within tol (0.9e-8) but det off by 1.35e-8
            ((1.0 + 0.45e-8) * np.eye(3), False),
            (shear(1.1e-8), False),  # just beyond tol
            (shear(0.9e-8), True),  # just inside tol
            (shear(-1.1e-8) @ R0, False),
            (shear(-0.9e-8) @ R0, True),
            (np.ones((3, 3)), False),
            (1e200 * R0, False),  # products overflow to inf and nan
        ],
    )
    def test_decision(self, matrix, expected):
        assert (frames._rotation_rows(matrix) is not None) is expected
        assert reference_is_rotation(matrix) is expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_entry_rejected(self, bad):
        for i, j in ((0, 0), (1, 2), (2, 1)):
            m = np.eye(3)
            m[i, j] = bad
            assert frames._rotation_rows(m) is None
        # an inf alongside an entry that keeps the row sums finite-looking
        m = np.eye(3)
        m[0, 1], m[0, 2] = float("inf"), -float("inf")
        assert frames._rotation_rows(m) is None

    @pytest.mark.parametrize(
        "matrix",
        [np.eye(2), np.eye(3, 4), np.eye(4, 3), np.eye(3).ravel(), np.eye(3)[None],
         np.eye(3)[..., None], np.float64(1.0)],
    )
    def test_wrong_shape_rejected(self, matrix):
        assert frames._rotation_rows(matrix) is None

    def test_agrees_with_reference_on_perturbed_rotations(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(2000):
            m = c_b_t(*rng.uniform(-math.pi, math.pi, size=3))
            m = m + rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-10, -7)
            decision = frames._rotation_rows(m) is not None
            assert decision == reference_is_rotation(m)
            seen.add(decision)
        assert seen == {True, False}


class TestUncheckedReader:
    """``frames._zyx_columns`` reads the loop's own DCMs, a stack by column,
    without the rotation check, and must read exactly what ``zyx_angles``
    reads of each matrix after it."""

    def test_equals_zyx_angles_bit_for_bit(self):
        rng = np.random.default_rng(53)
        stack = []
        for i in range(4000):
            z, x = rng.uniform(-math.pi, math.pi, size=2)
            # every other middle angle within 1e-4 rad of a pole: the pole
            # band (about 4.5e-5 rad) and just outside it
            if i % 2:
                y = math.copysign(math.pi / 2 - rng.uniform(0.0, 1e-4), rng.uniform(-1, 1))
            else:
                y = rng.uniform(-math.pi / 2, math.pi / 2)
            stack += [c_b_t(z, y, x), quat_to_dcm(euler_to_quat(Attitude(z, y, x))).T]
        stack += [c_b_t(z, y, x) for y in POLES for z, x in POLE_PAIRS]
        angles = frames._zyx_columns(np.array(stack))
        assert bits(angles) == bits([zyx_angles(m) for m in stack])
        in_band = sum(a[2] == 0.0 and abs(a[1]) == math.pi / 2 for a in angles[:8000])
        assert 500 < in_band < 3500  # both sides of the band edge were read

    def test_stages_read_the_pole_band_and_signed_zeros(self):
        # middle angles at a pole, inside the band (|C13| about 5e-11 from
        # 1), just outside it (about 1.25e-9 from 1) and away from it
        eps = frames.GIMBAL_LOCK_EPS
        middles = [s * (math.pi / 2 - d) for s in (1, -1) for d in (0.0, 1e-5, 5e-5)] + [0.3]
        rotations = [(z, y, x) for y in middles for z, x in POLE_PAIRS]

        def read_entries(dcms):  # C11 C12 C13 C21 C22 C23 C33 of each
            return np.array(dcms).reshape(-1, 9)[:, [0, 1, 2, 3, 4, 5, 8]]

        def band_edges(dcms):  # |C13| inside the band, and just outside it
            c13 = np.abs(read_entries(dcms)[:, 2])
            return (c13 >= 1 - eps).sum(), ((c13 < 1 - eps) & (c13 > 1 - 2 * eps)).sum()

        # the commands' DCMs c_nt c_n_b^T: c_n_b = c_b_t^T c_nt puts each at
        # its c_b_t, up to rounding; the identities hold -0.0 off the diagonal
        euler = mechanical.pointing_euler(mechanical.GeoConfig())
        c_nt = c_n_t(*euler)
        signed = [
            np.where(np.eye(3) == 1.0, 1.0, -0.0),
            np.array([[-0.0, 1.0, -0.0], [-1.0, -0.0, 0.0], [0.0, -0.0, 1.0]]),
        ]
        c_n_b_stack = np.array([c_b_t(*r).T @ c_nt for r in rotations] + signed)
        assert np.signbit(c_n_b_stack[c_n_b_stack == 0.0]).any()
        alone = [c_nt @ m.T for m in c_n_b_stack]
        got = mechanical.stabilization_command(c_n_b_stack, euler)
        assert bits(got) == bits([zyx_angles(m) for m in alone])
        assert min(band_edges(alone)) >= 8

        # the estimates' DCMs quat_to_dcm(q)^T, with -0.0 entries read
        h = math.sqrt(0.5)
        quats = [euler_to_quat(Attitude(*r)) for r in rotations] + [
            np.array(q) for q in
            ((1.0, -0.0, 0.0, 0.0), (-0.0, 1.0, 0.0, -0.0), (h, -0.0, h, 0.0), (h, 0.0, -h, -0.0))
        ]
        alone = [quat_to_dcm(q).T for q in quats]
        c_n_b, est = fusion.estimate(np.array(quats))
        assert bits(c_n_b) == bits(alone)
        assert bits(est) == bits([zyx_angles(m) for m in alone])
        assert min(band_edges(alone)) >= 8
        entries = read_entries(alone)
        assert np.signbit(entries[entries == 0.0]).sum() >= 4


class TestQuaternions:
    def test_identity_attitude(self):
        np.testing.assert_allclose(
            euler_to_quat(Attitude(0, 0, 0)), [1, 0, 0, 0], atol=1e-15
        )

    def test_pure_yaw_quarter_turn(self):
        q = euler_to_quat(Attitude(math.pi / 2, 0, 0))
        np.testing.assert_allclose(q, [math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)], atol=1e-12)
        assert q[0] == pytest.approx(0.70711, abs=5e-6)
        assert q[3] == pytest.approx(0.70711, abs=5e-6)

    def test_unit_norm_for_random_attitudes(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            q = euler_to_quat(Attitude(*rng.uniform(-math.pi, math.pi, size=3)))
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-12

    def test_quat_identity(self):
        np.testing.assert_allclose(quat_to_dcm(np.array([1.0, 0, 0, 0])), np.eye(3), atol=1e-15)

    def test_quat_to_dcm_consistent_with_euler_chain(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            att = Attitude(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-1.4, 1.4),
                rng.uniform(-math.pi, math.pi),
            )
            np.testing.assert_allclose(
                quat_to_dcm(euler_to_quat(att)), c_n_b(att).T, atol=1e-10
            )

    def test_double_cover(self):
        q = euler_to_quat(Attitude(0.3, -0.2, 1.1))
        np.testing.assert_allclose(quat_to_dcm(q), quat_to_dcm(-q), atol=1e-15)

    def test_off_norm_quaternion_rejected(self):
        with pytest.raises(ValueError):
            quat_to_dcm(np.array([1.0, 0.1, 0, 0]))

    def test_stack_rows_keep_the_bits_of_one_quaternion(self):
        rng = np.random.default_rng(31)
        q = rng.standard_normal((3000, 4))
        q /= np.linalg.norm(q, axis=1)[:, None]
        q[:1000] *= 1.0 + rng.uniform(-9e-7, 9e-7, (1000, 1))  # off norm within 1e-6
        q[1000:1004] = [[1.0, 0, 0, 0], [0, 0, 0, -1.0], [0.5, -0.5, 0.5, -0.5], [-0.0, 1.0, 0, 0]]
        stack = quat_to_dcm(q)
        assert stack.shape == (len(q), 3, 3)
        for row, dcm in zip(q, stack):
            assert dcm.tobytes() == quat_to_dcm(row).tobytes() == reference_dcm(row).tobytes()

    def test_off_norm_row_of_a_stack_named(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))
        q[3] = [1.0, 0.1, 0.0, 0.0]
        with pytest.raises(ValueError, match=f"quaternion norm {math.sqrt(1.01)!r} departs"):
            quat_to_dcm(q)

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (), (4, 5)])
    def test_not_four_components_rejected(self, shape):
        with pytest.raises(ValueError, match="four components"):
            quat_to_dcm(np.ones(shape))


def reference_dcm(q: np.ndarray) -> np.ndarray:
    """The DCM of one quaternion in Python floats, after its norm by the
    BLAS dot of ``q.dot(q)``: the reference of each row of ``quat_to_dcm``."""
    n = math.sqrt(q.dot(q))
    q0, q1, q2, q3 = [v / n for v in q.tolist()]
    return np.array([
        q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3,
        2.0 * (q1 * q2 - q0 * q3),
        2.0 * (q1 * q3 + q0 * q2),
        2.0 * (q1 * q2 + q0 * q3),
        q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3,
        2.0 * (q2 * q3 - q0 * q1),
        2.0 * (q1 * q3 - q0 * q2),
        2.0 * (q2 * q3 + q0 * q1),
        q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3,
    ]).reshape(3, 3)


class TestDcmToEuler:
    """zyx_angles as the inverse of c_n_b (yaw/pitch/roll, also of the
    transposed quaternion DCM) and of c_b_t (azimuth/elevation/polarization).
    Both DCMs are the one ``frames._zyx`` product, so a c_n_b case covers
    c_b_t; criterion 1 of the acceptance suite makes the random round trips
    of both."""

    def test_identity(self):
        assert Attitude(*zyx_angles(np.eye(3))) == Attitude(0.0, 0.0, 0.0)

    def test_non_rotation_rejected(self):
        # the check outside callers get; the loop's own DCMs skip it
        for matrix in (
            np.ones((3, 3)), np.diag([1.0, 1.0, -1.0]) @ R0, 1.01 * R0, shear(1.1e-8),
            np.full((3, 3), float("nan")), np.eye(2), np.eye(3).ravel(),
        ):
            with pytest.raises(ValueError, match="not a rotation"):
                zyx_angles(matrix)

    def test_pitch_pole_convention_round_trip(self):
        # at pitch +/-90 deg yaw and roll turn about one axis: roll reads 0,
        # pitch +/-90 deg by the sign of -C13, and the yaw carries the rest
        for pitch in POLES:
            for yaw, roll in POLE_PAIRS:
                att = Attitude(yaw, pitch, roll)
                for m in (c_n_b(att), quat_to_dcm(euler_to_quat(att)).T):
                    out = Attitude(*zyx_angles(m))
                    assert out.pitch == math.copysign(math.pi / 2, -m[0, 2]) == pitch
                    assert out.roll == 0.0
                    np.testing.assert_allclose(c_n_b(out), m, rtol=0, atol=1e-10)
                    if roll == 0.0:
                        assert abs(wrap_angle(out.yaw - yaw)) <= 1e-10


class TestWrap:
    def test_wrap_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        rng = np.random.default_rng(2)
        for a in rng.uniform(-50, 50, size=500):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert abs(math.remainder(w - a, 2 * math.pi)) <= 1e-9
