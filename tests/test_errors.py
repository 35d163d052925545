"""Each error class has the exit code of its base, and errors keep their
type, message and attributes through pickle, the way a worker process hands
them to its parent."""

import inspect
import math
import pickle

import pytest

from loadlens import errors

#: One instance of every error class, built the way the package raises it.
EXAMPLES = {
    errors.LoadlensError: errors.LoadlensError("base"),
    errors.ParseError: errors.ParseError("x.csv: bad"),
    errors.ConfigError: errors.ConfigError("argument --k: invalid int value: 'x'"),
    errors.NumericError: errors.NumericError("overflow"),
    errors.MalformedRow: errors.MalformedRow(5, "bad x"),
    errors.NonMonotonicTime: errors.NonMonotonicTime(7),
    errors.EmptyFile: errors.EmptyFile("x.csv: empty file"),
    errors.InvalidRr: errors.InvalidRr(3, -1.5),
    errors.UnknownLabel: errors.UnknownLabel("flying"),
    errors.SeriesTooShort: errors.SeriesTooShort("series of 3 < window 4"),
    errors.MomentOverflow: errors.MomentOverflow("m4 overflows"),
    errors.MissingChannel: errors.MissingChannel("rr", "rr_ms must be > 0"),
    errors.TooFewRows: errors.TooFewRows("need 2 rows"),
    errors.DegenerateDesign: errors.DegenerateDesign("all features constant"),
    errors.NonFiniteLoss: errors.NonFiniteLoss(12, math.inf, 0.5),
    errors.EmptyEvalSet: errors.EmptyEvalSet("no rows"),
    errors.TooFewDistinctPoints: errors.TooFewDistinctPoints("k = 3, 2 distinct"),
}

#: Errors built with keywords and defaults left out.
VARIANTS = [
    errors.MalformedRow(0),
    errors.MalformedRow(row=2, detail="bad t_ms 'x'"),
    errors.InvalidRr(4),
    errors.MissingChannel(name="accel"),
]


def test_examples_cover_every_error_class():
    classes = {c for c in vars(errors).values() if inspect.isclass(c) and issubclass(c, errors.LoadlensError)}
    assert set(EXAMPLES) == classes
    assert all(type(e) is c for c, e in EXAMPLES.items())


#: The exit code ``cli.main`` returns for each error class.
EXIT_CODES = {
    errors.ParseError: 2,
    errors.MalformedRow: 2,
    errors.NonMonotonicTime: 2,
    errors.EmptyFile: 2,
    errors.InvalidRr: 2,
    errors.UnknownLabel: 2,
    errors.MissingChannel: 2,
    errors.ConfigError: 3,
    errors.SeriesTooShort: 3,
    errors.TooFewRows: 3,
    errors.DegenerateDesign: 3,
    errors.EmptyEvalSet: 3,
    errors.TooFewDistinctPoints: 3,
    errors.NumericError: 4,
    errors.MomentOverflow: 4,
    errors.NonFiniteLoss: 4,
}

BASES = (errors.ParseError, errors.ConfigError, errors.NumericError)


def test_exit_code_table():
    assert not hasattr(errors.LoadlensError, "exit_code")
    assert set(EXIT_CODES) == set(EXAMPLES) - {errors.LoadlensError}
    for cls, code in EXIT_CODES.items():
        assert [issubclass(cls, base) for base in BASES].count(True) == 1, cls
        assert cls.exit_code == code, cls
        assert EXAMPLES[cls].exit_code == code, cls


@pytest.mark.parametrize("error", [*EXAMPLES.values(), *VARIANTS], ids=repr)
def test_pickle_round_trip(error):
    error.add_note("raised in a worker")
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)
