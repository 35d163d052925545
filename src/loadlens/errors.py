"""Exception types shared across the package."""

import functools


class LoadlensError(Exception):
    """Base class for all loadlens errors.

    Subclasses build their message from their own constructor arguments
    (``MalformedRow(5, "bad x")``), so the message alone cannot rebuild them.
    The base class keeps the constructor arguments and pickles an error as
    a call with them: type, message and attributes survive the round trip
    that carries an error from a worker process to its parent.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args)
        self._init_args = (args, kwargs)
        return self

    def __reduce__(self):
        args, kwargs = self._init_args
        return functools.partial(type(self), **kwargs), args, self.__dict__


class ParseError(LoadlensError):
    """Base class for errors raised while reading input files."""


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


class UnknownLabel(LoadlensError):
    """Activity label not present in the label registry."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown activity label {label!r}")


class EmptyInput(LoadlensError):
    """An operation received an empty sample list."""


class TooFewSamples(LoadlensError):
    """Fewer samples than the four-moment minimum (n >= 4)."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"need at least 4 samples, got {n}")


class SeriesTooShort(LoadlensError):
    """Series shorter than one window."""


class MomentOverflow(LoadlensError):
    """A central moment overflows float64; no finite statistic exists."""


class NonPositiveShape(LoadlensError):
    """Weibull shape parameter must be > 0."""


class MissingChannel(LoadlensError):
    """A required sensor channel is absent or unusable."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        msg = f"missing or unusable channel {name!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class TooFewRows(LoadlensError):
    """Not enough rows for the requested operation."""


class DegenerateDesign(LoadlensError):
    """All features constant; no regression is possible."""


class NonFiniteLoss(LoadlensError):
    """Training diverged to a non-finite loss."""

    def __init__(self, epoch: int, loss: float, lr: float):
        self.epoch = epoch
        self.loss = loss
        self.lr = lr
        super().__init__(
            f"non-finite loss {loss!r} at epoch {epoch} (lr={lr}); "
            "try a smaller learning rate"
        )


class EmptyEvalSet(LoadlensError):
    """Evaluation called with no rows."""


class TooFewDistinctPoints(LoadlensError):
    """k-means needs at least k distinct points."""


class InvalidProtocol(LoadlensError):
    """Generator protocol violates its invariants."""


class UnknownClass(LoadlensError):
    """Unregistered synthetic activity class."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown activity class {name!r}")
