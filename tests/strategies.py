"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from enum import IntEnum

from hypothesis import strategies as st

from birough import BinaryRelation, Side, Subset
from birough.lab import canonical_universes
from birough.relation import SHIFT_WIDTH, row_digits

# |U| on both sides of SHIFT_WIDTH, where the per-V-mask kernels
# (lower_bits/upper_bits) switch from one-bit-at-a-time loops to digit
# strings.
WIDE_U_SIZES = (SHIFT_WIDTH - 1, SHIFT_WIDTH, SHIFT_WIDTH + 1, 128, 129, 1000)


@st.composite
def relations(draw, max_u: int = 5, max_v: int = 5, u_sizes=None):
    """Relations up to max_u x max_v, or with |U| drawn from ``u_sizes``."""
    u = draw(st.integers(1, max_u) if u_sizes is None else st.sampled_from(u_sizes))
    v = draw(st.integers(1, max_v))
    vmask = (1 << v) - 1
    if u_sizes is None:
        rows = tuple(draw(st.integers(0, vmask)) for _ in range(u))
    else:
        # One draw for all rows keeps a tall relation cheap to generate.
        assert max_v <= 8
        rows = tuple(byte & vmask for byte in draw(st.binary(min_size=u, max_size=u)))
    return BinaryRelation(canonical_universes(u, v), rows)


@st.composite
def relation_and_subsets(
    draw, count: int = 1, max_u: int = 5, max_v: int = 5, u_sizes=None
):
    rel = draw(relations(max_u=max_u, max_v=max_v, u_sizes=u_sizes))
    subsets = tuple(
        Subset(rel.universes, Side.V, draw(st.integers(0, rel.vmask)))
        for _ in range(count)
    )
    return rel, subsets


# Cells that are not a single '0' or '1' but that int(s, 2) or a loose
# tokenizer could take for one, and separators that are (or, for '\x1c', end
# the line as) Unicode whitespace.
_ODD_CELLS = ("2", "10", "1_0", "١", "01", "", "0 1")
_SEPARATORS = (" ", "  ", "\t", "\x1c", "\xa0", "\u2003")


@st.composite
def relation_texts(draw):
    """Relation files with a few of the mistakes a hand-written file can hold.

    Half are laid out as ``render_relation_file`` writes them (single spaces,
    no indent, a newline after every line), some of those with |U| from
    ``WIDE_U_SIZES``, so that both of the parser's paths are drawn.
    """
    rendered = draw(st.booleans())
    tall = rendered and draw(st.booleans())
    u = draw(st.sampled_from(WIDE_U_SIZES) if tall else st.integers(1, 4))
    v = draw(st.integers(1, 4))
    cells = draw(st.binary(min_size=u, max_size=u))
    lines = [["V:", *(f"y{j + 1}" for j in range(v))]]
    lines += [[f"x{i + 1}:", *row_digits(byte, 8)[:v]] for i, byte in enumerate(cells)]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k]
        kind = draw(
            st.sampled_from(
                ["cell", "drop", "extra", "colon", "label", "duplicate", "comment", "blank"]
            )
        )
        if kind == "cell" and len(tokens) > 1:
            tokens[draw(st.integers(1, len(tokens) - 1))] = draw(st.sampled_from(_ODD_CELLS))
        elif kind == "drop" and len(tokens) > 1:
            del tokens[draw(st.integers(1, len(tokens) - 1))]
        elif kind == "extra":
            tokens.append(draw(st.sampled_from(["0", "1", "y1"])))
        elif kind == "colon" and tokens:
            tokens[0] = tokens[0].rstrip(":") or "x"
        elif kind == "label" and tokens:
            t = draw(st.integers(0, len(tokens) - 1))
            tokens[t] = "a:b:" if t == 0 else "a:b"
        elif kind == "duplicate":
            lines.insert(k + 1, list(tokens))
        elif kind == "comment":
            # '#' alone, or glued to the first token as in "#x2: 0 1".
            glued = tokens and draw(st.booleans())
            lines.insert(k, ["#" + tokens[0], *tokens[1:]] if glued else ["#", *tokens])
        else:
            lines.insert(k, [])
    if rendered:
        return "".join(" ".join(tokens) + "\n" for tokens in lines)
    out = []
    for tokens in lines:
        lead = draw(st.sampled_from(["", " ", "\t"]))
        seps = [draw(st.sampled_from(_SEPARATORS)) for _ in tokens[1:]]
        out.append(lead + tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:])) if tokens else lead)
    return "\n".join(out) + draw(st.sampled_from(["", "\n"]))


class Level(IntEnum):
    """An int subclass, which a JSON writer must not take for a plain int."""

    LOW = 1
    HIGH = 2**70


# Scalars a report could hold, and some it should not but a writer must
# still render as the stdlib does: non-ASCII, quotes, backslashes, control
# characters, big ints, floats with NaN and infinities, and an IntEnum.
JSON_SCALARS = (
    st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t", " ", "é", "\U0001f600"])
    | st.integers(-(2**100), 2**100)
    | st.booleans()
    | st.none()
    | st.floats()
    | st.sampled_from(Level)
)


def json_trees(max_leaves: int = 40):
    """Nested dicts, lists and tuples, empty ones included, over ``JSON_SCALARS``."""
    return st.recursive(
        JSON_SCALARS,
        lambda children: st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=6)
        | st.dictionaries(st.integers(-3, 3), children, max_size=3),
        max_leaves=max_leaves,
    )
