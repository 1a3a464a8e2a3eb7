"""Exception hierarchy shared by the whole package.

Everything raised on purpose derives from :class:`TreeStatsError`, so CLI
code can distinguish "bad input" from genuine bugs.
"""

import numbers

SHOWN_WIDTH = 80  # the most characters of a bad value that a message shows


def shown(value) -> str:
    """A bad value as a message shows it: ``repr(value)``, a number as ``str``, then ``cut``."""
    return cut(str(value) if isinstance(value, numbers.Number) else repr(value))


def cut(text: str) -> str:
    """``text`` cut to ``SHOWN_WIDTH`` characters, ending in ``...`` if cut."""
    return text if len(text) <= SHOWN_WIDTH else text[:SHOWN_WIDTH - 3] + "..."


class TreeStatsError(Exception):
    """Base class for all errors raised by treestats."""


# --- sequences and alignments -------------------------------------------

class AlignmentLengthError(TreeStatsError):
    """Rows of an alignment do not all have the same length."""


class DuplicateTaxonError(TreeStatsError):
    """The same taxon label occurs more than once."""


class AlphabetError(TreeStatsError):
    """A sequence contains a character outside A, C, G, T, U, N, '-'."""


class NoComparableSitesError(TreeStatsError):
    """A pair of rows shares no column usable for a distance."""


# --- Newick trees ---------------------------------------------------------

class NewickSyntaxError(TreeStatsError):
    """Malformed Newick text."""


class NegativeLengthError(TreeStatsError):
    """A branch length is negative."""


# --- distance matrices and tree building ---------------------------------

class InvalidMatrixError(TreeStatsError):
    """A distance matrix is not symmetric, nonnegative, and zero-diagonal."""


class TooFewTaxaError(TreeStatsError):
    """Neighbor joining needs at least three taxa."""


class UnknownTaxonError(TreeStatsError):
    """A requested label is not a leaf of the tree."""


# --- statistics -----------------------------------------------------------

class EmptySampleError(TreeStatsError):
    """A statistic was requested for an empty sample."""


class InsufficientDataError(TreeStatsError):
    """Not enough observations (confidence intervals need n >= 2)."""


class WrongRegimeError(TreeStatsError):
    """A limit-law procedure was called outside its regime."""


class InvalidSampleError(TreeStatsError, ValueError):
    """A sample, point or summary field is missing, malformed or out of range.

    The message names the field, e.g. ``points[0].u``.  Also a
    :class:`ValueError`, which these checks raised before.
    """


class InvalidWeightsError(TreeStatsError, ValueError):
    """Sample or law weights are not finite, nonnegative and summing to 1.

    Also a :class:`ValueError`, which weight checks raised before.
    """


class InvalidParameterError(TreeStatsError, ValueError):
    """A parameter of a statistic (a tolerance, a spine axis) is out of range.

    The message names the parameter.  Also a :class:`ValueError`, which
    these checks raised before.
    """


# --- four-leaf tree space --------------------------------------------------

class NotInBookError(TreeStatsError):
    """A point lies outside the three quadrants of the requested spine."""


# --- CLI / configuration ----------------------------------------------------

class ConfigError(TreeStatsError):
    """Inconsistent or incomplete run configuration."""
