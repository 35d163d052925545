"""Exception types shared across the package, and the exit code of each.

Every concrete error derives from exactly one of three bases, and the base
carries the exit code the command line returns for it (``cli.main``):

=================  ====  ==================================================
base               exit  raised for
=================  ====  ==================================================
``ParseError``     2     an input file that cannot be read as its format
``ConfigError``    3     a request that cannot be met: a rejected argument,
                         or inputs too few or too flat for the operation
``NumericError``   4     a computation whose result is not a finite number
=================  ====  ==================================================

An ``OSError`` (a missing or unreadable file) also exits 2. A worker
process that dies, or leaves a result that cannot be read, raises
``ChildProcessError``, which is an ``OSError``. Any other exception
escaping a command is a bug and ends in a traceback.
"""

import functools


class LoadlensError(Exception):
    """Base class for all loadlens errors.

    Subclasses build their message from their own constructor arguments
    (``MalformedRow(5, "bad x")``), so the message alone cannot rebuild them.
    The base class keeps the constructor arguments and pickles an error as
    a call with them: type, message and attributes survive the round trip
    that carries an error from a worker process to its parent.
    """

    #: Process exit code for this error; set by the three bases below.
    exit_code: int

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args)
        self._init_args = (args, kwargs)
        return self

    def __reduce__(self):
        args, kwargs = self._init_args
        return functools.partial(type(self), **kwargs), args, self.__dict__


class ParseError(LoadlensError):
    """Base class for errors raised while reading input files."""

    exit_code = 2


class ConfigError(LoadlensError):
    """Base class for requests that cannot be met, such as a rejected
    command-line argument or too few rows for a fit."""

    exit_code = 3


class NumericError(LoadlensError):
    """Base class for computations that leave the finite floats."""

    exit_code = 4


class MalformedRow(ParseError):
    """A CSV data row could not be parsed.

    ``row`` is the 1-based data-row index (header excluded).
    """

    def __init__(self, row: int, detail: str = ""):
        self.row = row
        msg = f"data row {row}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NonMonotonicTime(ParseError):
    """Timestamps are not strictly increasing."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"t_ms not strictly increasing at data row {row}")


class EmptyFile(ParseError):
    """Input file has no data rows."""


class InvalidRr(ParseError):
    """RR interval is non-positive or non-finite."""

    def __init__(self, row: int, value: float | None = None):
        self.row = row
        msg = f"invalid rr_ms at data row {row}"
        if value is not None:
            msg += f" ({value!r})"
        super().__init__(msg)


class UnknownLabel(ParseError):
    """Activity label not present in the label registry."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown activity label {label!r}")


class MissingChannel(ParseError):
    """A required sensor channel is absent or unusable."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        msg = f"missing or unusable channel {name!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class SeriesTooShort(ConfigError):
    """Series shorter than one window."""


class TooFewRows(ConfigError):
    """Not enough rows for the requested operation."""


class DegenerateDesign(ConfigError):
    """All features constant; no regression is possible."""


class EmptyEvalSet(ConfigError):
    """Evaluation called with no rows."""


class TooFewDistinctPoints(ConfigError):
    """k-means needs at least k distinct points."""


class MomentOverflow(NumericError):
    """A moment (a mean, a variance or higher), or the accel magnitude,
    overflows float64; no finite statistic exists."""


class NonFiniteLoss(NumericError):
    """Training diverged to a non-finite loss."""

    def __init__(self, epoch: int, loss: float, lr: float):
        self.epoch = epoch
        self.loss = loss
        self.lr = lr
        super().__init__(
            f"non-finite loss {loss!r} at epoch {epoch} (lr={lr}); "
            "try a smaller learning rate"
        )
