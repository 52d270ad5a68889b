"""Polynomial container: evaluation, derivatives, normalization rules."""

import numpy as np
import pytest

from diskcheck import Functional, InputError, PolySeries, SeriesA, eval_functional


def test_eval_matches_direct_power_sum(rng):
    coeffs = rng.uniform(-1, 1, size=7) + 1j * rng.uniform(-1, 1, size=7)
    p = PolySeries(coeffs)
    for z in (0.3 + 0.4j, -0.9, 0j, 1j):
        direct = sum(c * z**k for k, c in enumerate(coeffs))
        assert p(z) == pytest.approx(direct, abs=1e-14)


def test_eval_scalar_and_array_agree(rng):
    p = PolySeries(rng.uniform(-1, 1, size=5).astype(complex))
    zs = 0.8 * np.exp(1j * np.linspace(0, 2 * np.pi, 11))
    vec = p(zs)
    assert vec.shape == zs.shape
    for z, v in zip(zs, vec):
        assert p(complex(z)) == pytest.approx(v, abs=1e-15)


def test_eval_zero_dim_array_returns_scalar():
    p = PolySeries(np.array([1.0, 2.0], dtype=complex))
    out = p(np.asarray(0.5 + 0j))
    assert isinstance(out, complex)
    assert out == pytest.approx(2.0)


def test_non_finite_and_overflowing_points_raise_input_error():
    # an int beyond the float range overflows like an inf: as a scalar, in a
    # list, or beside a float, through eval and eval_functional alike
    f = SeriesA.from_tail(1, [0.1])
    calls = (f.body.eval, f.eval, lambda z: eval_functional(Functional.STAR_QUOTIENT, f, 0j, z))
    for z in (10**400, -(10**400), [10**400], [0.1, 10**400], float("inf"), [0.1, float("nan")]):
        for call in calls:
            with pytest.raises(InputError) as info:
                call(z)
            assert info.type is InputError
            assert str(info.value) == "non-finite evaluation point"


def test_derivative_coefficients():
    p = PolySeries(np.array([5, 4, 3, 2], dtype=complex))
    d = p.derivative()
    assert np.array_equal(d.coeffs, np.array([4, 6, 6], dtype=complex))
    dd = d.derivative().derivative()
    assert np.array_equal(dd.coeffs, np.array([12], dtype=complex))
    assert np.array_equal(dd.derivative().coeffs, np.array([0], dtype=complex))


def test_coeffs_are_read_only():
    p = PolySeries(np.array([1, 2], dtype=complex))
    with pytest.raises(ValueError):
        p.coeffs[0] = 9


def test_rejects_bad_coefficient_arrays():
    with pytest.raises(InputError):
        PolySeries(np.array([], dtype=complex))
    with pytest.raises(InputError):
        PolySeries(np.array([[1, 2]], dtype=complex))
    with pytest.raises(InputError):
        PolySeries(np.array([1, np.inf], dtype=complex))
    with pytest.raises(InputError):
        PolySeries(np.array([1, np.nan * 1j], dtype=complex))


def test_equality_and_hash_by_value():
    a = PolySeries(np.array([1, 2], dtype=complex))
    b = PolySeries(np.array([1, 2], dtype=complex))
    c = PolySeries(np.array([1, 3], dtype=complex))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "not a series"


class TestSeriesA:
    def test_from_tail_layout(self):
        f = SeriesA.from_tail(2, [0.5, 0.25j])
        assert f.n == 2
        assert np.array_equal(f.body.coeffs, np.array([0, 1, 0, 0.5, 0.25j], dtype=complex))
        assert np.array_equal(f.tail, np.array([0.5, 0.25j], dtype=complex))

    def test_from_tail_empty_tail_is_identity(self):
        f = SeriesA.from_tail(3, [])
        assert f(0.7) == pytest.approx(0.7)
        assert f.tail.size == 0

    def test_normalization_enforced(self):
        with pytest.raises(InputError):
            SeriesA(1, PolySeries(np.array([1, 1, 0], dtype=complex)))  # f(0) != 0
        with pytest.raises(InputError):
            SeriesA(1, PolySeries(np.array([0, 2, 0], dtype=complex)))  # f'(0) != 1
        with pytest.raises(InputError):
            SeriesA(2, PolySeries(np.array([0, 1, 0.5], dtype=complex)))  # a_2 must vanish
        with pytest.raises(InputError):
            SeriesA(0, PolySeries(np.array([0, 1], dtype=complex)))
        with pytest.raises(InputError):
            SeriesA(1.5, PolySeries(np.array([0, 1], dtype=complex)))

    def test_gap_checked_only_up_to_available_length(self):
        # n larger than the stored degree: no tail, still valid
        f = SeriesA(5, PolySeries(np.array([0, 1], dtype=complex)))
        assert f.tail.size == 0

    def test_divide_by_z(self):
        f = SeriesA.from_tail(1, [0.5, 0.25])
        g = f.divide_by_z()
        assert np.array_equal(g.coeffs, np.array([1, 0.5, 0.25], dtype=complex))
        z = 0.3 - 0.2j
        assert g(z) == pytest.approx(f(z) / z, abs=1e-15)

    def test_eval_passthrough(self):
        f = SeriesA.from_tail(1, [0.5])
        z = 0.2 + 0.1j
        assert f(z) == pytest.approx(z + 0.5 * z * z, abs=1e-16)


def test_non_number_arguments_raise_input_error():
    f = SeriesA.from_tail(1, [0.1])
    p = PolySeries([0.0, 1.0, 0.2])
    cases = [
        (lambda: SeriesA.from_tail("x", [0.1]), "class index n must be a positive integer"),
        (lambda: SeriesA.from_tail(None, [0.1]), "class index n must be a positive integer"),
        (lambda: SeriesA.from_tail(1, ["x"]), "tail must be a sequence of complex numbers"),
        (lambda: SeriesA.from_tail(1, {"a": 1}), "tail must be a sequence of complex numbers"),
        (lambda: SeriesA.from_tail(1, [[0.1, 0.2]]), "tail must be a sequence of complex numbers"),
        (lambda: SeriesA.from_tail(1, None), "tail must be a sequence of complex numbers"),
        (lambda: SeriesA.from_tail(1, [0.1, None]), "tail must be a sequence of complex numbers"),
        (lambda: p.eval("x"), "evaluation point not interpretable as complex numbers"),
        (lambda: p.eval([0.5, "x"]), "evaluation point not interpretable as complex numbers"),
        (lambda: f.eval("x"), "evaluation point not interpretable as complex numbers"),
    ]
    for call, message in cases:
        with pytest.raises(InputError) as info:
            call()
        assert info.type is InputError
        assert str(info.value) == message
