"""Exception types raised across the package."""


class RoughMarketError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveValue(RoughMarketError, ValueError):
    """A price sample is negative (the sample space is positive paths)."""


class BadTimeGrid(RoughMarketError, ValueError):
    """Times are not strictly increasing or the endpoints are wrong."""


class BadSpec(RoughMarketError, ValueError):
    """Invalid generator specification."""


class ParseError(RoughMarketError, ValueError):
    """Malformed path file."""


class TooLarge(RoughMarketError, ValueError):
    """Input exceeds the size limit of an exhaustive computation."""


class BadInterval(RoughMarketError, ValueError):
    """Crossing interval must satisfy 0 <= a < b."""


class BadStep(RoughMarketError, ValueError):
    """Grid step must be strictly positive."""


class BadPosition(RoughMarketError, ValueError):
    """A strategy position or its gain over one move is not finite, or exceeds its bound."""


class NonAdapted(RoughMarketError):
    """A strategy's decisions depend on the path beyond the decision time."""


class RuleOverflow(RoughMarketError):
    """More rule firings than path samples."""


class NegativeComponent(RoughMarketError):
    """A mixture component's capital went negative on this path."""


class InadmissiblePhi(RoughMarketError, ValueError):
    """The variation gauge fails the admissibility probe required for mixtures."""


class TruncationUnsafe(RoughMarketError, ValueError):
    """No path hint and no explicit scale cutoff supplied for a dyadic mixture."""


class BoundViolated(RoughMarketError):
    """A verified capital bound failed; indicates an implementation defect."""


class ZeroPrice(RoughMarketError, ValueError):
    """An operation requiring strictly positive prices met a zero sample."""


class FormMismatch(RoughMarketError):
    """Two closed forms that must agree numerically did not."""


class BadWeights(RoughMarketError, ValueError):
    """Mixture weights must be positive, sum to one, and have finite cost."""


class ConfigError(RoughMarketError, ValueError):
    """Invalid experiment configuration."""


class NonFiniteResult(RoughMarketError, ValueError):
    """A result to be written as JSON is NaN or infinite, which JSON cannot hold."""


class CaseFailure(RoughMarketError):
    """One or more experiment cases failed."""


class UnknownSeries(RoughMarketError, KeyError):
    """Requested plot series does not exist in the report."""
