"""Exception hierarchy shared across the package.

Everything that can go wrong for a *domain* reason derives from BaltriError;
the CLI maps those to exit code 1.  Malformed textual input raises
ParseError, deliberately outside the BaltriError tree, which the CLI maps to
exit code 2.
"""


class BaltriError(Exception):
    """Base class for domain errors."""


class ParseError(Exception):
    """Malformed textual input: files, site strings, operation scripts."""


# --- triangulation validation ---------------------------------------------

class TriangulationError(BaltriError):
    """A face list does not describe a closed surface."""


class DegenerateFace(TriangulationError):
    """A face repeats a vertex or does not have exactly three."""


class DuplicateFace(TriangulationError):
    """Two faces share the same vertex set."""


class NonManifoldEdge(TriangulationError):
    """An edge lies in a number of faces other than two."""


class PinchedVertex(TriangulationError):
    """The link of a vertex is not a single cycle."""


class Disconnected(TriangulationError):
    """The triangulation is not connected: its vertex graph has two or more parts."""


class ImpossibleSurface(TriangulationError):
    """Euler characteristic and orientability fit no closed surface."""


class NotBalanced(BaltriError):
    """No proper 3-coloring exists (or a supplied coloring is improper)."""


class MissingColoring(BaltriError):
    """A color-aware canonical code was requested without a coloring."""


# --- flips and rewrites ----------------------------------------------------

class InvalidSite(BaltriError):
    """A flip site does not satisfy its preconditions."""


class WouldCreateDoubleEdge(InvalidSite):
    """Applying the flip would create a parallel edge."""


class WouldCreateDuplicateFace(InvalidSite):
    """Applying the flip would duplicate an existing face."""


class NoEligibleOrientation(BaltriError):
    """Every orientation of the two-splitting expansion is blocked."""


class ExpansionNotFound(BaltriError):
    """The bounded expansion search exhausted its move budget."""


# --- bipartite operations --------------------------------------------------

class NotApplicable(BaltriError):
    """A bipartite-graph operation precondition is violated."""


class WrongDegree(NotApplicable):
    """A smoothability/removability query on vertices of the wrong degree."""


class PreconditionViolated(BaltriError):
    """An operation was invoked outside its stated hypotheses."""


class RewriteBudgetExceeded(BaltriError):
    """The sequence normalizer exceeded its rewrite budget.

    This would indicate a bug in the case analysis, not a property of the
    input, so it is surfaced loudly instead of being swallowed.
    """


class RewriteUnsound(BaltriError):
    """A normalizer rewrite failed its own check: a bug in the case analysis."""


# --- embeddings ------------------------------------------------------------

class InvalidEmbedding(BaltriError):
    """The walk structure is not an even embedding of a closed surface."""


# --- search ----------------------------------------------------------------

class SurfaceMismatch(BaltriError):
    """Two triangulations do not live on the same closed surface."""


class NotConnectedWithinCaps(BaltriError):
    """The bidirectional search hit its caps before meeting.

    This is an honest "don't know", never a disproof of connectivity.
    """
