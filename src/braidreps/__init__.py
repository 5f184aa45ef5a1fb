"""Exact representation theory of finite-dimensional quotients of C[B3].

The three-strand braid group B3 = <g1, g2 | g1 g2 g1 = g2 g1 g2> has
group-algebra quotients by a polynomial relation prod_i (g - x_i) on the
generators.  For up to five distinct nonzero eigenvalues the quotient is
finite dimensional and this package constructs its irreducible
representations exactly, checks their spectral identities, and decides
irreducibility and semisimplicity over Q or a simple extension of Q.

Every name in a submodule's ``__all__`` is re-exported here.
"""

from . import analysis, braidword, cli, field, linalg, poly, reps, serialize, spectral
from .analysis import *  # noqa: F401,F403
from .braidword import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403
from .field import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .poly import *  # noqa: F401,F403
from .reps import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (field, poly, linalg, reps, spectral, analysis, braidword, serialize, cli)
    for name in module.__all__
] + ["__version__"]
