"""Shared exception types."""


class CapExceeded(RuntimeError):
    """An exact computation hit its configured resource cap.

    Raised instead of silently truncating: callers must either raise the
    cap or use a sampling estimator for the instance.
    """


class VerificationFailure(RuntimeError):
    """An estimate disagreed with its exact reference beyond the tolerance.

    Built from its message alone, so it pickles back from worker
    processes unchanged.
    """


class EstimateOverflow(ArithmeticError):
    """A running level-count product left double range.

    Carries the log-space value so the caller can still report magnitude.
    """

    def __init__(self, log_value: float):
        super().__init__(f"estimate overflowed double precision (log value {log_value:.6g})")
        self.log_value = log_value

    def __reduce__(self):
        # Worker processes send exceptions back pickled; the default
        # reduction would rebuild from the message, not the log value.
        return (type(self), (self.log_value,))
