"""The one packed layout of exponent vectors, ``laurent.Packing``, against
plain tuple arithmetic: the layout is a shift-sum of biased fields, pack
and unpack are inverse, unpack ignores the bits above the fields, and the
masks of ``rekey``, applied as the exchange step re-keys
(``laurent._exchange``), delete one column and open another."""

from hypothesis import given, settings, strategies as st

from plabicflow.laurent import Packing


@st.composite
def packed_vectors(draw):
    """(packing, values, high): values that fit the packing's fields,
    signed up to 8 bytes a field and non-negative below 2^63 past that,
    and any int for the bits above the fields."""
    size = draw(st.sampled_from((1, 2, 4, 8, 16)))
    count = draw(st.integers(1, 6))
    half = 1 << 8 * size - 1
    values = st.integers(0, 2**63 - 1) if size > 8 else st.integers(-half + 1, half - 1)
    vals = tuple(draw(st.lists(values, min_size=count, max_size=count)))
    return Packing(size, count), vals, draw(st.integers(-2**70, 2**70))


@given(packed_vectors())
@settings(max_examples=300, deadline=None)
def test_unpack_inverts_pack_and_ignores_the_bits_above(case):
    packing, vals, high = case
    width = packing.width
    half = 1 << width - 1
    key = packing.pack(vals)
    assert key == sum(x + half << width * i for i, x in enumerate(vals))
    assert packing.bias == sum(half << width * i for i in range(len(vals)))
    assert packing.unpack(key) == vals
    assert packing.unpack(key + (high << packing.bits)) == vals


@given(packed_vectors(), st.data())
@settings(max_examples=300, deadline=None)
def test_rekey_deletes_one_column_and_opens_another(case, data):
    packing, vals, high = case
    width, bits = packing.width, packing.bits
    key = packing.pack(vals) + (high << bits)
    a, b = (data.draw(st.integers(0, len(vals) - 1)) for _ in range(2))
    for src, dst in ((a, b), (b, a)):
        keep, between, up, down = packing.rekey(src, dst)
        new = 1 << width - 1 << width * dst  # a biased 0
        r = key & keep | (key & between) << up >> down | new
        want = [*vals[:src], *vals[src + 1:]]
        want.insert(dst, 0)
        assert packing.unpack(r) == tuple(want)
        assert r >> bits == high
