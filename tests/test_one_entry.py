"""One entry and a stack holding it get one verdict.

The caps and checks of the kernel judge one entry (one momentum, one
rapidity, one 2x2 matrix, one spinor) on Python floats and a stack by one
reduction (linalg._largest and linalg._all_hold). Each check site here is
fed an edge input alone and as the second entry of a two-entry stack: both
must be accepted, with the same values, or refused with the same message,
and no numpy warning may escape either way.
"""

import warnings

import numpy as np
import pytest

from spinkin.dirac import boosted_spinors
from spinkin.higherspin import field_equation_residual
from spinkin.kinematics import _PARITY_COSH_CAP, FourMomentum, parity_operator, rapidity_from_momentum
from spinkin.linalg import _all_hold, _largest, expm_hermitian, expm_i_hermitian
from spinkin.reps import (
    RAPIDITY_MAX,
    HalfInt,
    LorentzTransform,
    _lorentz_parameters,
    rep_generators,
    vector_boost,
)
from test_kinematics import LORENTZ_EDGE

NAN = float("nan")


def outcome(call):
    """("ok", result) or ("refused", message) of call(), with every warning
    turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", call()
        except ValueError as refusal:
            return "refused", str(refusal)


def assert_one_verdict(single, stacked, same_values):
    """single() and stacked() are both refused with one message, or both
    accepted with same_values(single result, stacked result)."""
    one, many = outcome(single), outcome(stacked)
    assert one[0] == many[0], (one, many)
    if one[0] == "refused":
        assert one[1] == many[1]
    else:
        assert same_values(one[1], many[1])


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestHelpers:
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    @pytest.mark.parametrize("value, initial, largest", [(2.5, 0.0, 2.5), (-1.0, 0.0, 0.0), (np.inf, 1.0, np.inf)])
    def test_largest_of_one_entry(self, shape, value, initial, largest):
        got = _largest(np.full(shape, value), initial)
        assert type(got) is float and got == largest

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 2)])
    def test_largest_keeps_a_nan(self, shape):
        """x.max(initial=...) is nan when an entry is; so is the helper, for
        one entry as for a stack (Python's max(initial, nan) is initial)."""
        x = np.zeros(shape)
        x.flat[-1] = NAN
        assert np.isnan(x.max(initial=0.0))
        assert np.isnan(_largest(x, 0.0))
        assert np.isnan(_largest(x[()] if x.ndim == 0 else x, 1.0))

    def test_largest_of_an_empty_stack_is_initial(self):
        assert _largest(np.zeros((0,)), 1.0) == 1.0

    @pytest.mark.parametrize(
        "xs, holds",
        [
            ((np.array(1.0), np.array(2.0)), True),
            ((np.array([2.0]), np.array([1.0])), False),
            ((np.float64(NAN), np.float64(1.0)), False),
            ((np.array([1.0, 3.0]), np.array([2.0, 2.0])), False),
            ((np.array([1.0, 2.0]), np.array([2.0, 2.0])), True),
            ((np.zeros(0), np.zeros(0)), True),
        ],
    )
    def test_all_hold(self, xs, holds):
        got = _all_hold(lambda x, y: x <= y, *xs)
        assert type(got) is bool and got == holds


class FourVelocity:
    """A momentum given by its four-velocity alone: the fields that
    parity_operator and rapidity_from_momentum read, set to values a
    FourMomentum only reaches by rounding, or not at all. It carries no
    memo."""

    def __init__(self, e, u2):
        e, u2 = np.asarray(e, dtype=float), np.asarray(u2, dtype=float)
        un = np.sqrt(u2)
        self._w = np.stack([e, np.zeros_like(e), np.zeros_like(e), un], axis=-1)
        self._u2 = u2[..., None]


def velocity_stack(e, u2):
    """The two-entry stack of a benign four-velocity and the given one."""
    return FourVelocity([1.25, e], [0.5625, u2])


def u2_at_rapidity(target):
    """The |p/m|^2 whose rapidity asinh(sqrt(.)) rounds to target exactly,
    found by ulp steps from sinh(target)^2."""
    u2 = np.sinh(target) ** 2
    for _ in range(10_000):
        phi = np.arcsinh(np.sqrt(u2))
        if phi == target:
            return float(u2)
        u2 = np.nextafter(u2, np.inf if phi < target else -np.inf)
    raise AssertionError(f"no |p/m|^2 gives rapidity {target!r}")


PAST_PARITY_CAP = float(np.nextafter(_PARITY_COSH_CAP, np.inf))

PARITY_EDGE = {
    "at the cap": (_PARITY_COSH_CAP, _PARITY_COSH_CAP**2 - 1.0),
    "one ulp past the cap": (PAST_PARITY_CAP, PAST_PARITY_CAP**2 - 1.0),
    "overflowed four-velocity": (np.inf, np.inf),
    "nan": (NAN, NAN),
    "rest": (1.0, 0.0),
}


@pytest.mark.parametrize("twice", [1, 4])
@pytest.mark.parametrize("edge", PARITY_EDGE)
def test_parity_cap(twice, edge):
    """A nan E/m is refused alone as in a stack: a largest-entry helper that
    drops a nan would accept it alone."""
    e, u2 = PARITY_EDGE[edge]
    rep = rep_generators(HalfInt(twice))
    assert_one_verdict(
        lambda: parity_operator(rep, FourVelocity(e, u2)),
        lambda: parity_operator(rep, velocity_stack(e, u2)),
        lambda P, Ps: same_bits(P, Ps[1]),
    )


def test_parity_cap_edges_read_as_stated():
    rep = rep_generators(HalfInt(2))
    assert outcome(lambda: parity_operator(rep, FourVelocity(*PARITY_EDGE["at the cap"])))[0] == "ok"
    for edge in ("one ulp past the cap", "overflowed four-velocity", "nan"):
        verdict, message = outcome(lambda: parity_operator(rep, FourVelocity(*PARITY_EDGE[edge])))
        assert verdict == "refused" and message.startswith("rapidity must be finite and within the parity overflow cap")


def test_parity_cap_on_an_overflowed_momentum():
    """p/m = 1e310 overflows when the FourMomentum is made; alone and as the
    second of two it is refused alike."""
    rep = rep_generators(HalfInt(2))
    assert_one_verdict(
        lambda: parity_operator(rep, FourMomentum(1e-300, (0.0, 1e10, 0.0))),
        lambda: parity_operator(rep, FourMomentum([1.0, 1e-300], [[0.1, 0.2, 0.3], [0.0, 1e10, 0.0]])),
        same_bits,
    )


@pytest.mark.parametrize("target", [RAPIDITY_MAX, float(np.nextafter(RAPIDITY_MAX, np.inf))], ids=["30", "30+ulp"])
def test_rapidity_cap(target):
    u2 = u2_at_rapidity(target)
    e = float(np.sqrt(1.0 + u2))
    verdict, _ = outcome(lambda: rapidity_from_momentum(FourVelocity(e, u2)))
    assert verdict == ("ok" if target <= RAPIDITY_MAX else "refused")
    assert_one_verdict(
        lambda: rapidity_from_momentum(FourVelocity(e, u2)),
        lambda: rapidity_from_momentum(velocity_stack(e, u2)),
        lambda phi, phis: same_bits(phi, phis[1]),
    )


def test_rapidity_cap_message_one_ulp_past():
    u2 = u2_at_rapidity(float(np.nextafter(RAPIDITY_MAX, np.inf)))
    _, message = outcome(lambda: rapidity_from_momentum(FourVelocity(np.sqrt(1.0 + u2), u2)))
    assert message == "rapidity 30.000 exceeds the overflow cap 30.0"


# the Lorentz-parameter edge table, single 3-vectors only, and the lengths around the
# switch from Python floats to an error-state switch (|vec|^2 = 1e300)
PARAMETER_EDGE = {name: vec for name, (vec, _) in LORENTZ_EDGE.items() if np.shape(vec) == (3,)}
PARAMETER_EDGE.update(
    {
        "at the rapidity cap": (0.0, RAPIDITY_MAX, 0.0),
        "1e150": (1e150, 0.0, 0.0),
        "1e150 in each entry": (1e150, 1e150, 1e150),
        "just below |vec|^2 = 1e300": (0.0, 0.0, 9.99e149),
        "subnormal": (5e-324, 0.0, -5e-324),
        "-0.0": (-0.0, -0.0, -0.0),
    }
)


@pytest.mark.parametrize("what", ["rapidity", "rotation vector"])
@pytest.mark.parametrize("edge", PARAMETER_EDGE)
def test_lorentz_parameters(what, edge):
    """A nan vector is refused alone as in a stack: a largest-entry helper
    that drops a nan would accept it alone."""
    vec = np.array(PARAMETER_EDGE[edge], dtype=float)
    assert_one_verdict(
        lambda: _lorentz_parameters(vec, what),
        lambda: _lorentz_parameters(np.stack([[0.1, 0.2, 0.3], vec]), what),
        lambda one, two: same_bits(one[0], two[0][1]) and same_bits(one[1], two[1][1]),
    )


def test_lorentz_parameters_of_a_one_row_stack():
    """A (1, 3) stack has one entry too, and keeps its shape."""
    vec, r = _lorentz_parameters([[0.0, 3.0, 4.0]], "rapidity")
    assert vec.shape == (1, 3) and r.shape == (1,) and r[0] == 5.0
    assert outcome(lambda: _lorentz_parameters([[0.0, 0.0, np.nan]], "rapidity")) == (
        "refused",
        "rapidity must be a finite 3-vector",
    )


SIGMA_Z = np.diag([1.0, -1.0])


def skewed(s, f):
    """s I + i e I, whose skew part 8 e^2 is f^2 times the bound
    1e-20 max(1, ||H||_F^2) at ||H||_F^2 = 2 s^2 (e^2 is far below s^2)."""
    e = f * np.sqrt(1e-20 * max(1.0, 2.0 * s * s) / 8.0)
    return (s + 1j * e) * np.eye(2)


# diag(d0, d1) = a I + b sigma_z with a + |b| = max(d0, d1), halves exact
EXPM_EDGE = {
    "a + |b| = 700": np.diag([700.0, 0.0]),
    "a + |b| one ulp past 700": np.diag([np.nextafter(700.0, np.inf), 0.0]),
    "|b| past 700, a + |b| below": np.diag([600.5, -800.5]),
    "a nan entry": np.array([[1.0, np.nan], [np.nan, 1.0]]),
    "an inf entry": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "a norm that overflows": np.full((2, 2), 1e200),
    "not Hermitian": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "small norm, skew just inside": skewed(0.1, 0.99),
    "small norm, skew just outside": skewed(0.1, 1.01),
    "large norm, skew just inside": skewed(100.0, 0.99),
    "large norm, skew just outside": skewed(100.0, 1.01),
    "zero": np.zeros((2, 2)),
}


@pytest.mark.parametrize("expm", [expm_hermitian, expm_i_hermitian])
@pytest.mark.parametrize("edge", EXPM_EDGE)
def test_expm(expm, edge):
    H = np.asarray(EXPM_EDGE[edge], dtype=complex)
    assert_one_verdict(
        lambda: expm(H),
        lambda: expm(np.stack([0.3 * SIGMA_Z, H])),
        lambda X, Xs: same_bits(X, Xs[1]),
    )


def test_expm_edges_read_as_stated():
    expected = {
        "a + |b| = 700": "ok",
        "a + |b| one ulp past 700": "matrix exponential overflows double precision",
        "|b| past 700, a + |b| below": "matrix exponential overflows double precision",
        "a nan entry": "matrix has non-finite entries",
        "an inf entry": "matrix has non-finite entries",
        "a norm that overflows": "matrix norm overflows double precision",
        "not Hermitian": "matrix is not Hermitian",
        "small norm, skew just inside": "ok",
        "small norm, skew just outside": "matrix is not Hermitian",
        "large norm, skew just inside": "ok",
        "large norm, skew just outside": "matrix is not Hermitian",
        "zero": "ok",
    }
    for edge, H in EXPM_EDGE.items():
        verdict, result = outcome(lambda: expm_hermitian(H))
        assert (verdict if verdict == "ok" else result) == expected[edge], edge


SPINOR_EDGE = {"zero": 0.0, "-0.0": -0.0, "subnormal": 5e-324, "one": 1.0}


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("edge", SPINOR_EDGE)
def test_field_equation_zero_spinor(sign, edge):
    """A zero or -0.0 spinor is refused; a subnormal one has a norm and a
    residual. The stack is two momenta with one spinor each."""
    j = HalfInt(2)
    psi = np.full(j.dim, SPINOR_EDGE[edge], dtype=complex)
    q = FourMomentum([1.0, 2.0], [[0.1, 0.2, 0.3], [0.3, 0.0, -0.5]])
    psis = np.stack([boosted_spinors(j, q[0]).u[0], psi])
    assert_one_verdict(
        lambda: field_equation_residual(j, psi, q[1], sign),
        lambda: field_equation_residual(j, psis, q, sign),
        lambda r, rs: same_bits(r, rs[1]),
    )
    verdict, result = outcome(lambda: field_equation_residual(j, psi, q[1], sign))
    if edge in ("zero", "-0.0"):
        assert (verdict, result) == ("refused", "spinor must be non-zero")
    else:
        assert verdict == "ok" and type(result) is float and result > 0.0


class TestLorentzTransformDomain:
    def test_one_matrix_with_a_nan(self):
        """A non-finite transform is refused where it is made, with a message
        about the transform, not later about a momentum it maps."""
        verdict, message = outcome(lambda: LorentzTransform(np.full((4, 4), np.nan)))
        assert (verdict, message) == ("refused", "Lorentz transform has non-finite entries")

    def test_a_stack_with_one_inf_entry(self):
        L = np.stack([np.eye(4), vector_boost((0.1, 0.0, 0.0)).matrix])
        L[1, 2, 3] = np.inf
        verdict, message = outcome(lambda: LorentzTransform(L))
        assert (verdict, message) == ("refused", "Lorentz transform has non-finite entries")

    def test_finite_transforms_are_kept(self):
        L = vector_boost(np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]]))
        assert np.array_equal(LorentzTransform(L.matrix).matrix, L.matrix)
