from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gamehedge import (
    Butterfly,
    Call,
    GameSpec,
    MoveSpace,
    PathDependent,
    PiecewiseLinear,
    Put,
    RiskNeutralNode,
    Side,
    Sine,
    evaluate_payoff,
    negate_payoff,
    parse_rational,
    payoff_from_json,
    payoff_to_json,
    price_path_dependent,
    variances,
)
from gamehedge.model import path_payoff_vector, payoff_hinges, piecewise_from_hinges
from conftest import payoff_value_on_path
from test_golden import BUTTERFLY, KINKED, _moves, asian_lookback


@st.composite
def move_spaces(draw):
    negatives = draw(
        st.lists(
            st.fractions(min_value=F(-8), max_value=F(-1, 6), max_denominator=6),
            min_size=1, max_size=3, unique=True,
        )
    )
    positives = draw(
        st.lists(
            st.fractions(min_value=F(0), max_value=F(8), max_denominator=6),
            min_size=1, max_size=3, unique=True,
        )
    )
    return MoveSpace.from_moves(negatives + positives)


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-1/300") == F(-1, 300)
    assert parse_rational("0.5") == F(1, 2)
    assert parse_rational(" 2 ") == F(2)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1//2", "one half"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_move_space_sides_and_order():
    m = MoveSpace.from_moves([2, -1, 1])
    assert m.negatives == (F(-1),)
    assert m.positives == (F(1), F(2))
    assert m.members == (F(-1), F(1), F(2))
    assert m.size == 3


def test_move_space_ordering_convention():
    # negatives decrease away from zero, positives increase
    m = MoveSpace.from_moves([-2, -1, 1, 3])
    assert m.negatives == (F(-1), F(-2))
    assert m.positives == (F(1), F(3))
    assert list(m.pairs()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert m.pair_moves(1, 1) == (F(-2), F(3))


def test_move_space_validation():
    with pytest.raises(ValueError):
        MoveSpace.from_moves([1, 2])  # no negative side
    with pytest.raises(ValueError):
        MoveSpace.from_moves([-1, -2])  # no nonnegative side
    with pytest.raises(ValueError):
        MoveSpace(negatives=(F(-2), F(-1)), positives=(F(1),))  # wrong order
    with pytest.raises(ValueError):
        MoveSpace(negatives=(F(-1), F(-1)), positives=(F(1),))  # duplicate
    with pytest.raises(ValueError):
        MoveSpace(negatives=(F(-1),), positives=(F(0), F(0)))


def test_zero_is_a_positive_move():
    m = MoveSpace.from_moves([-1, 0, 1])
    assert m.positives[0] == 0
    assert variances(m) == (F(0), F(1))


def test_variances_examples():
    assert variances(MoveSpace.from_moves([-1, 1, 2])) == (F(1), F(2))
    assert variances(MoveSpace.from_moves([-2, -1, 1, 3])) == (F(1), F(6))


@given(move_spaces())
def test_variances_ordered(moves):
    lo, hi = variances(moves)
    assert 0 <= lo <= hi


@given(move_spaces(), st.data())
def test_node_exact_invariants(moves, data):
    i = data.draw(st.integers(0, moves.n_negative - 1))
    j = data.draw(st.integers(0, moves.n_positive - 1))
    node = RiskNeutralNode.from_pair(moves, i, j)
    a_neg, a_pos = moves.pair_moves(i, j)
    # exact rational identities, not approximate ones
    assert node.prob_neg + node.prob_pos == 1
    assert a_neg * node.prob_neg + a_pos * node.prob_pos == 0
    assert 0 <= node.prob_neg < 1
    assert 0 < node.prob_pos <= 1
    # pair variance is -a_neg * a_pos
    second_moment = a_neg**2 * node.prob_neg + a_pos**2 * node.prob_pos
    assert second_moment == -a_neg * a_pos


def test_butterfly_shape():
    bf = Butterfly(-0.5, 0.5, 1.5)
    assert bf(-1.0) == 0.0
    assert bf(0.5) == 1.0
    assert bf(1.0) == 0.5
    assert bf(2.0) == 0.0
    assert bf(-0.5) == 0.0
    with pytest.raises(ValueError):
        Butterfly(1.0, 0.5, 1.5)


def test_call_put():
    assert Call(1.0)(2.5) == 1.5
    assert Call(1.0)(0.5) == 0.0
    assert Put(1.0)(0.25) == 0.75
    assert Put(1.0)(2.0) == 0.0


def test_piecewise_linear_eval():
    f = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)), left_slope=0.0, right_slope=-1.0)
    assert f(0.5) == 0.5
    assert f(-3.0) == 0.0
    assert f(2.0) == 0.0  # 1 + (-1)*(2-1)
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        PiecewiseLinear(())


def test_path_dependent_needs_path():
    pd = PathDependent(lambda p: sum(p))
    with pytest.raises(ValueError):
        evaluate_payoff(pd, 1.0)


def test_non_finite_payoff_values_are_refused(trinomial):
    with pytest.raises(ValueError, match=r"^payoff value inf at s = 1e\+308 is not finite$"):
        evaluate_payoff(PiecewiseLinear(((0.0, 0.0),), 0.0, 10.0), 1e308)
    nan_on_drops = PathDependent(lambda p: math.nan if min(p) < 0 else max(p))
    assert payoff_value_on_path(nan_on_drops, 1.0, (F(1), F(2))) == 2.0
    with pytest.raises(ValueError, match=r"^payoff value nan at the path \(1\.0, -1\.0\) "
                                         "is not finite$"):
        payoff_value_on_path(nan_on_drops, 1.0, (F(1), F(-1)))
    with pytest.raises(ValueError, match="payoff value nan at the path"):
        price_path_dependent(GameSpec(trinomial, 2), nan_on_drops, Side.UPPER)
    with pytest.raises(ValueError, match=r"^payoff value nan at the path \(-1\.0, -1\.0\) "):
        path_payoff_vector(GameSpec(trinomial, 2), nan_on_drops)
    steep = PiecewiseLinear(((0.0, 0.0),), 0.0, 1e308)
    with pytest.raises(ValueError, match=r"^payoff value inf at s = 2\.0 is not finite$"):
        path_payoff_vector(GameSpec(trinomial, 2), steep)


@pytest.mark.parametrize("moves", ["-1,1,2", "-1,0,1,2", "-1,1/3,1/2,2/3,2", "-1,1", "-2,-1,1,3"])
@pytest.mark.parametrize("payoff", [BUTTERFLY, Call(0.0), KINKED, Sine(2.0),
                                    PathDependent(asian_lookback)],
                         ids=["bfly", "call(0)", "kinked", "sin(2)", "asian_lookback"])
def test_path_payoff_vector_matches_the_fraction_oracle(moves, payoff):
    for rounds in (1, 3, 4):
        game = GameSpec.scaled(_moves(moves), rounds)
        want = np.array([payoff_value_on_path(payoff, game.payoff_scale, path)
                         for path in itertools.product(game.moves.members, repeat=rounds)])
        assert path_payoff_vector(game, payoff).tobytes() == want.tobytes(), rounds


def test_payoff_value_convention():
    # argument is scale * float(exact sum), in that order
    assert payoff_value_on_path(Call(0.0), 0.5, (F(1, 2), F(1))) == 0.75
    # the path is summed exactly: 0.1 + 0.2 in floats would give 0.30000000000000004
    assert payoff_value_on_path(Call(0.0), 1.0, (F(1, 10), F(2, 10))) == 0.3


@given(
    st.lists(
        st.tuples(st.integers(-8, 8), st.floats(-4, 4, allow_nan=False)),
        min_size=1, max_size=5,
        unique_by=lambda p: p[0],
    ),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)
def test_hinge_round_trip(points, left, right):
    pts = tuple(sorted((float(x), y) for x, y in points))
    f = PiecewiseLinear(pts, left, right)
    g = piecewise_from_hinges(*payoff_hinges(f))
    for s in [-12.0, -3.3, 0.0, 0.7, 2.9, 11.0] + [x for x, _ in pts]:
        assert g(s) == pytest.approx(f(s), abs=1e-9)


def test_hinges_of_named_payoffs():
    for payoff in (Call(0.5), Put(-1.0), Butterfly(-0.5, 0.5, 1.5)):
        rebuilt = piecewise_from_hinges(*payoff_hinges(payoff))
        for s in (-3.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 4.0):
            assert rebuilt(s) == pytest.approx(payoff(s), abs=1e-12)
    with pytest.raises(ValueError):
        payoff_hinges(Sine(3.0))


def test_negate_payoff():
    grid = [-2.5, -1.0, 0.0, 0.3, 1.0, 2.0]
    for payoff in (
        Call(0.25),
        Put(1.5),
        Butterfly(-0.5, 0.5, 1.5),
        Sine(10.0),
        PiecewiseLinear(((-1.0, 2.0), (1.0, -1.0)), 0.5, -0.25),
    ):
        neg = negate_payoff(payoff)
        for s in grid:
            assert neg(s) == pytest.approx(-payoff(s), abs=1e-12)
    pd = PathDependent(lambda p: p[0])
    assert negate_payoff(pd).evaluator((3.0,)) == -3.0


def test_game_spec_validation():
    tri = MoveSpace.from_moves([-1, 1, 2])
    with pytest.raises(ValueError):
        GameSpec(tri, 0)
    with pytest.raises(ValueError):
        GameSpec(tri, 5, payoff_scale=0.0)
    g = GameSpec.scaled(tri, 4)
    assert g.payoff_scale == 0.5
    # refused before the square root: 0 rounds divided by zero, -2 had no root
    for rounds in (0, -2):
        with pytest.raises(ValueError, match="^rounds must be >= 1$"):
            GameSpec.scaled(tri, rounds)


def test_payoff_json_round_trip():
    payoffs = [
        Call(0.0),
        Put(1.25),
        Butterfly(-0.5, 0.5, 1.5),
        Sine(10.0),
        PiecewiseLinear(((-1.0, 0.5), (2.0, 1.0)), 0.1, -0.2),
    ]
    for payoff in payoffs:
        blob = json.dumps(payoff_to_json(payoff))
        assert payoff_from_json(json.loads(blob)) == payoff


def test_payoff_json_bare_array():
    f = payoff_from_json([[0, 0], [1, 1]])
    assert isinstance(f, PiecewiseLinear)
    assert f(0.5) == 0.5
    assert f(5.0) == 1.0  # flat extension by default


def test_butterfly_strikes_need_not_be_symmetric():
    # k2 off the midpoint: the payoff levels off at 2*k2 - k1 - k3 past k3
    bf = Butterfly(0, 0.1, 5)
    assert [bf(s) for s in (-1.0, 0.0, 0.1)] == [0.0, 0.0, 0.1]
    assert bf(5.0) == pytest.approx(-4.8) and bf(10.0) == pytest.approx(-4.8)


def test_payoff_json_rejects_unknown():
    with pytest.raises(ValueError):
        payoff_from_json({"kind": "exotic"})
    with pytest.raises(ValueError):
        payoff_from_json({"strike": 1.0})
    with pytest.raises(ValueError):
        payoff_to_json(PathDependent(lambda p: 0.0))


def test_float_moves_snap_to_rationals():
    m = MoveSpace.from_moves([-1.0, 0.5, 2.0])
    assert m.members == (F(-1), F(1, 2), F(2))
    assert MoveSpace.from_moves([-1, 0.1, 1 / 3]).members == (F(-1), F(1, 10), F(1, 3))


def test_float_moves_that_do_not_round_trip_are_refused():
    # limit_denominator(10**6) would make this 10/81
    with pytest.raises(ValueError, match="0.1234567891 is no rational"):
        MoveSpace.from_moves([-1, 0.1234567891, 2])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_float_moves_are_refused(value):
    with pytest.raises(ValueError, match=f"^float move {value!r} is not finite$"):
        MoveSpace.from_moves([value, -1, 1])


@given(st.fractions(min_value=F(-50), max_value=F(50), max_denominator=30),
       st.fractions(min_value=F(-50), max_value=F(50), max_denominator=30))
def test_rational_order_consistent_with_float(a, b):
    if a < b:
        assert float(a) <= float(b)
    sa = str(a)
    assert parse_rational(sa) == a
