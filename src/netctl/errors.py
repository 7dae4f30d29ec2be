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
    def __init__(self, residual, iterations, message=None):
        super().__init__(
            message or f"fixed point not reached after {iterations} "
            f"iterations (residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


class InvariantViolation(NetctlError):
    """A solver returned a result that breaks an invariant its caller
    relies on."""


class InputError(NetctlError):
    """An input file or value given on the command line cannot be read
    or holds nothing to analyse."""


class UnknownNode(NetctlError):
    """A node token matches no label and no index of the graph."""


class UnknownSystem(NetctlError, KeyError):
    """No toy system has the requested name."""

    __str__ = NetctlError.__str__


class DimensionMismatch(NetctlError):
    pass


class NonFiniteInput(NetctlError, ValueError):
    """A matrix or vector holds NaN or an infinite entry."""


class InvalidArgument(NetctlError, ValueError):
    """A numeric parameter lies outside the range the analysis accepts."""


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
