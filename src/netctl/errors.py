"""Exception types shared across the package."""


class NetctlError(Exception):
    """Base class for all analysis errors."""


class ParseError(NetctlError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateEdge(NetctlError):
    def __init__(self, line_no, src, dst):
        super().__init__(f"line {line_no}: duplicate edge {src!r} -> {dst!r}")
        self.line_no = line_no
        self.src = src
        self.dst = dst


class EmptyDriverSet(NetctlError):
    pass


class NonConvergence(NetctlError):
    def __init__(self, residual, iterations):
        super().__init__(
            f"fixed point not reached after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


class InvariantViolation(NetctlError):
    """A solver returned a result that breaks an invariant its caller
    relies on."""


class RejectionFailure(NetctlError):
    pass


class DimensionMismatch(NetctlError):
    pass


class SingularGramian(NetctlError):
    pass


class IllConditionedWarning(UserWarning):
    pass


class SingularB(NetctlError):
    pass


class NoCapture(NetctlError):
    pass


class NoCompensation(NetctlError):
    pass


class InfeasibleConstraints(NetctlError):
    pass


class MissingTrajectory(NetctlError):
    pass


class NoPathToTarget(NetctlError):
    pass


class DisconnectedGraph(NetctlError):
    pass


class NoPinnedNodes(NetctlError):
    pass
