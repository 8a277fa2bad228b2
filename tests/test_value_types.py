"""Value semantics of the package's record types.

`GaussianInt`, `Solution` and `DiagonalBracket` are immutable values: built
by position or keyword, equal and hashed by their fields within one class,
printed as `Name(field=value, ...)`, and matched by position.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from gausspow import DiagonalBracket, GaussianInt, Solution

BRACKET_FIELDS = dict(
    lower=Fraction(1, 3),
    upper=Fraction(1, 2),
    union=Fraction(1, 2),
    tail=Fraction(1, 6),
    primes_used=(3, 7),
)


def _values():
    return [
        GaussianInt(1, 2),
        Solution(2, 3, GaussianInt(0, 18)),
        DiagonalBracket(**BRACKET_FIELDS),
    ]


def test_repr_text():
    assert repr(GaussianInt(1, -2)) == "GaussianInt(re=1, im=-2)"
    assert repr(GaussianInt()) == "GaussianInt(re=0, im=0)"
    assert str(GaussianInt(3, 4)) == "GaussianInt(re=3, im=4)"
    assert (
        repr(Solution(2, 3, GaussianInt(0, 18)))
        == "Solution(k=2, m=3, value=GaussianInt(re=0, im=18))"
    )
    assert repr(DiagonalBracket(**BRACKET_FIELDS)) == (
        "DiagonalBracket(lower=Fraction(1, 3), upper=Fraction(1, 2),"
        " union=Fraction(1, 2), tail=Fraction(1, 6), primes_used=(3, 7))"
    )


def test_keyword_construction_and_defaults():
    assert GaussianInt() == GaussianInt(0, 0)
    assert GaussianInt(5) == GaussianInt(5, 0)
    assert GaussianInt(im=5) == GaussianInt(0, 5)
    assert GaussianInt(im=4, re=3) == GaussianInt(3, 4)
    g = GaussianInt(re=3, im=4)
    assert (g.re, g.im) == (3, 4)
    s = Solution(value=GaussianInt(0, 18), m=3, k=2)
    assert (s.k, s.m, s.value) == (2, 3, GaussianInt(0, 18))
    b = DiagonalBracket(*BRACKET_FIELDS.values())
    assert b == DiagonalBracket(**BRACKET_FIELDS)
    assert b.primes_used == (3, 7) and b.tail == Fraction(1, 6)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianInt(1, 2, 3),
        lambda: GaussianInt(x=1),
        lambda: GaussianInt(1, re=1),
        lambda: Solution(2, 3),
        lambda: DiagonalBracket(Fraction(0), Fraction(1)),
    ],
)
def test_wrong_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_equality_and_hash_by_value():
    for x, y in zip(_values(), _values()):
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
    assert len(set(_values() + _values())) == 3
    assert GaussianInt(1, 2) != GaussianInt(2, 1)
    assert Solution(2, 3, GaussianInt(0, 18)) != Solution(2, 3, GaussianInt(0, 17))
    assert DiagonalBracket(**BRACKET_FIELDS) != DiagonalBracket(
        **{**BRACKET_FIELDS, "primes_used": (3,)}
    )


def test_equal_only_within_one_class():
    assert GaussianInt(1, 2) != (1, 2)
    assert (1, 2) != GaussianInt(1, 2)
    assert Solution(2, 3, GaussianInt(0, 18)) != (2, 3, GaussianInt(0, 18))
    assert DiagonalBracket(**BRACKET_FIELDS) != tuple(BRACKET_FIELDS.values())
    assert GaussianInt(0, 0) != 0

    class Sub(GaussianInt):
        __slots__ = ()

    assert GaussianInt(1, 2) != Sub(1, 2)
    assert Sub(1, 2) != GaussianInt(1, 2)


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_assignment_and_deletion_raise(value):
    for name in value.__match_args__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == before


@pytest.mark.parametrize("value", _values()[:2], ids=lambda v: type(v).__name__)
def test_no_instance_dict(value):
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_new_attribute_raises(value):
    # every record is slotted and frozen, so a name outside its fields has
    # nowhere to go either
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1


def test_no_ring_operators():
    with pytest.raises(TypeError):
        GaussianInt(1, 2) + GaussianInt(3, 4)
    with pytest.raises(TypeError):
        GaussianInt(1, 2) * GaussianInt(3, 4)
    assert GaussianInt(1, 2) ** 2 == GaussianInt(-3, 4)


def test_positional_match_patterns():
    assert GaussianInt.__match_args__ == ("re", "im")
    assert Solution.__match_args__ == ("k", "m", "value")
    assert DiagonalBracket.__match_args__ == (
        "lower", "upper", "union", "tail", "primes_used",
    )
    match Solution(2, 3, GaussianInt(0, 18)):
        case Solution(k, m, GaussianInt(0, im)):
            assert (k, m, im) == (2, 3, 18)
        case _:
            pytest.fail("Solution pattern did not match")
    match DiagonalBracket(**BRACKET_FIELDS):
        case DiagonalBracket(lower, upper, _, _, (p, *_)):
            assert (lower, upper, p) == (Fraction(1, 3), Fraction(1, 2), 3)
        case _:
            pytest.fail("DiagonalBracket pattern did not match")
    match GaussianInt(1, 2):
        case GaussianInt(2, _):
            pytest.fail("matched the wrong real part")
        case GaussianInt(re=1, im=im):
            assert im == 2


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_copy_and_pickle_round_trip(value):
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


@pytest.mark.parametrize(
    "fields",
    [
        {**BRACKET_FIELDS, "lower": Fraction(2, 3)},
        {**BRACKET_FIELDS, "lower": Fraction(-1, 3)},
        {**BRACKET_FIELDS, "upper": Fraction(4, 3)},
    ],
)
def test_bracket_rejects_disordered_ends(fields):
    with pytest.raises(ValueError):
        DiagonalBracket(**fields)
    with pytest.raises(ValueError):
        DiagonalBracket(*fields.values())
