"""Exception types shared across the library."""


class MdrlabError(Exception):
    """Base class for all library errors."""


# -- metric construction / validation ---------------------------------------

class SymmetryViolation(MdrlabError):
    pass


class NonzeroDiagonal(MdrlabError):
    pass


class TriangleViolation(MdrlabError):
    """Triangle inequality failure; carries the witnessing (i, j, k) triple."""

    def __init__(self, triple, slack):
        self.triple = tuple(triple)
        self.slack = float(slack)
        super().__init__(f"triangle inequality violated on {self.triple} by {self.slack:.3e}")


class NonInjectiveMap(MdrlabError):
    pass


class DegenerateSource(MdrlabError):
    pass


class ThetaOutOfRange(MdrlabError):
    pass


class TooLargeForExact(MdrlabError):
    pass


class ConfigTooLarge(MdrlabError):
    pass


class IndexMismatch(MdrlabError):
    pass


# -- JL engine ----------------------------------------------------------------

class ParameterDomain(MdrlabError):
    pass


class NoFeasibleK(UserWarning):
    """No dimension k certifies the union bound; the trivial k = n - 1 is returned."""


class ZeroDistancePair(MdrlabError):
    pass


# -- distortion SDP -----------------------------------------------------------

class TooLarge(MdrlabError):
    pass


class CertificateInvalid(MdrlabError):
    pass


class NotPSD(MdrlabError):
    pass


# -- spectral lab ---------------------------------------------------------------

class Disconnected(MdrlabError):
    pass


class NegativeWeight(MdrlabError):
    pass


class DegenerateConfiguration(MdrlabError):
    pass


class NoGap(MdrlabError):
    pass


class CapExceeded(MdrlabError):
    pass


class DegenerateCloud(MdrlabError):
    pass


class GenerationFailure(MdrlabError):
    pass


class HorizonTooLarge(MdrlabError):
    pass


# -- random metric generators ----------------------------------------------------

class InverseOutOfRange(MdrlabError):
    pass


# -- CLI pipelines ---------------------------------------------------------------

class BudgetInfeasible(MdrlabError):
    pass


class RetriesExhausted(MdrlabError):
    pass


class UnknownSuite(MdrlabError):
    pass
