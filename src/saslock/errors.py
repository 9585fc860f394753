"""Exception types shared across the simulator."""


class SaslockError(Exception):
    """Base class for all errors raised by this package."""


class LineDataError(SaslockError):
    """Bad line-data file (syntax, version, or physics invariant violation)."""

    def __init__(self, message, path=None, lineno=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if lineno is not None:
            loc = f"{loc}line {lineno}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.lineno = lineno


class UnknownFeatureError(SaslockError):
    """A named transition/crossover is not present in the line table."""


class ConfigError(SaslockError):
    """Scenario configuration is missing, malformed, or inconsistent."""


class SweepError(SaslockError):
    """Invalid sweep request (bounds, sample count, empty table)."""


class NoSubDopplerFeaturesError(SaslockError):
    """Marker extraction found no saturation features in the trace."""


class ModeHopError(SaslockError):
    """Laser detuning left the mode-hop-free envelope."""

    def __init__(self, detuning_hz, span_hz, elapsed_s):
        super().__init__(
            f"mode hop: detuning {detuning_hz / 1e9:.3f} GHz outside "
            f"+/-{span_hz / 2e9:.3f} GHz envelope at t={elapsed_s:.6f} s"
        )
        self.detuning_hz = detuning_hz
        self.span_hz = span_hz
        self.elapsed_s = elapsed_s


class UnlockableError(SaslockError):
    """No usable lock point (feature absent or slope too small)."""

    def __init__(self, feature, reason):
        super().__init__(f"feature {feature!r} {reason}")
        self.feature = feature
        self.reason = reason


class IngestError(SaslockError):
    """External scope CSV could not be parsed or calibrated."""
