"""skewper: construction, analysis and isomorphism classification of
skew-perspective partial Steiner triple systems.

Each name is imported from its own module, as in
``from skewper.constructions import grassmannian``; the package binds its
modules and re-exports nothing.  The command line is ``skewper.cli``,
which ``import skewper`` does not load."""

from . import analysis, classify, constructions, formats, incidence, isomorphism, perms, skews

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "classify",
    "constructions",
    "formats",
    "incidence",
    "isomorphism",
    "perms",
    "skews",
]
