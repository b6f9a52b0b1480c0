"""Shipped example connections.

Connections holomorphic at infinity with trivial splitting must have
residue matrices summing to zero; with only two finite singular points the
monodromy group is cyclic (hence reducible for rank >= 2), so the
irreducible rank-2 fixtures carry three singular points.
"""

from __future__ import annotations

from .connection import Connection

__all__ = ["fixture", "fixture_file", "fixture_names"]

# Each fixture is defined once, by its connection-file text below: the CLI,
# `fixtures emit` and `fixture()` all read it.  Run reports hash these
# bytes, so any edit to a text changes every report's sha256.
_FILES = {
    "euler-half": """\
# rank-1 connection with simple poles at 0 and 1
rank 1
splitting 0
point 0 order 1
point 1 order 1
matrix
1/(2*t*(t-1))
end
""",
    # residues K_0 = [[0, 1], [0, 0]] at 0, K_1 = [[0, 0], [1/4, 0]] at 1 and
    # K_2 = -(K_0 + K_1) at 2: they sum to zero, as holomorphy at infinity
    # with trivial splitting requires
    "triangle-nilpotent": """\
# rank-2 logarithmic connection, nilpotent residues at 0 and 1
rank 2
splitting 0 0
point 0 order 1
point 1 order 1
point 2 order 1
matrix
0 1/t-1/(t-2)
1/(4*(t-1))-1/(4*(t-2)) 0
end
""",
    # residues K_0 = diag(1/4, -1/4), K_1 = [[0, 1], [1/16, 0]] and
    # K_2 = -(K_0 + K_1).  The 1/16 entry makes the exponents at t=2 equal to
    # +-sqrt(2)/4, so no choice of local exponents sums to an integer and the
    # monodromy is irreducible (a rational choice such as 1/9 would give
    # 1/4+1/3+5/12 = 1)
    "triangle-diag": """\
# rank-2 logarithmic connection, diagonal residue at 0
rank 2
splitting 0 0
point 0 order 1
point 1 order 1
point 2 order 1
matrix
1/(4*t)-1/(4*(t-2)) 1/(t-1)-1/(t-2)
1/(16*(t-1))-1/(16*(t-2)) -1/(4*t)+1/(4*(t-2))
end
""",
    # K/(t(t-1)) with K = [[0, 1], [1/4, 0]]: residue -K at 0 and K at 1
    "two-point-reducible": """\
# rank-2 connection with two singular points: cyclic, hence reducible, monodromy
rank 2
splitting 0 0
point 0 order 1
point 1 order 1
matrix
0 1/(t*(t-1))
1/(4*t*(t-1)) 0
end
""",
}


def fixture_names():
    return sorted(_FILES)


def fixture(name: str) -> Connection:
    """The shipped fixture `name`, parsed from its file and validated."""
    from .cli import parse_connection_file   # cli imports this module
    return parse_connection_file(fixture_file(name))


def fixture_file(name: str) -> str:
    """Connection-file text for a shipped fixture."""
    if name not in _FILES:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    return _FILES[name]
