import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripplegrid import sat
from ripplegrid.sat import (
    COLUMN_BLOCK,
    fetch_count,
    prefix_sum,
    read_windows,
    read_windows_vjp,
    reset_fetch_count,
    sabotage_radius_offset,
    table_rows,
)
from ripplegrid.vicinal import (GridShape, PartitionKind, PartitionScheme, group_members,
                                group_span)

FIELD_2X3 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def brute_window(field, center, radius):
    """Direct summation over the clipped window, one position at a time; the
    oracle for the corner read."""
    h, w = field.shape[:2]
    i, j = center
    acc = np.zeros(field.shape[2:])
    for m in range(max(1, i - radius), min(h, i + radius) + 1):
        for n in range(max(1, j - radius), min(w, j + radius) + 1):
            acc = acc + field[m - 1, n - 1]
    return acc


def table_of(field):
    """The prefix table of a field, on a float64 copy."""
    return prefix_sum(np.array(field, dtype=np.float64))


def read(field, radii, coefs=None, budget=None):
    """(sum over g of coefs[g] times the radius radii[g] window sums of a
    (H, W, ...) field, its grid total), read by the stream: each channel
    of the field is a lane of keys 1 (x) values field, read with a query of
    1. Coefficients default to 1 for the first window and 0 for the rest,
    which only set the padding."""
    h, w = field.shape[:2]
    values = np.asarray(field, dtype=np.float64).reshape(h, w, 1, -1)
    weights = np.zeros((h, w, 1, len(radii)))
    weights[...] = [1.0] + [0.0] * (len(radii) - 1) if coefs is None else coefs
    ones, out = np.ones((h, w, 1, 1)), np.zeros(values.shape)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(sat, "BLOCK_BYTES", budget)
        total = read_windows(out, ones, values, radii, weights, ones)
    return out.reshape(field.shape), np.array(total[0]).reshape(field.shape[2:])


def window(field, radius, pad_radius=None):
    """The radius-r window sums of a field, from its table padded for
    ``pad_radius`` (``radius`` when None)."""
    return read(field, [radius] if pad_radius is None else [radius, pad_radius])[0]


def inner(a, b):
    return float(np.vdot(a, b))


def test_prefix_table_values():
    table = table_of(FIELD_2X3)
    assert table[1, 2] == 21.0
    assert table[0, 1] == 3.0
    np.testing.assert_array_equal(table[0], [1.0, 3.0, 6.0])      # running sums of row 0
    np.testing.assert_array_equal(table[:, 0], [1.0, 5.0])        # and of column 0


def test_prefix_table_matches_brute_force():
    rng = np.random.default_rng(0)
    field = rng.standard_normal((7, 5, 4))
    acc = field.copy()
    assert prefix_sum(acc) is acc                  # built in place
    for i in range(1, 8):
        for j in range(1, 6):
            np.testing.assert_allclose(
                acc[i - 1, j - 1], field[:i, :j].sum(axis=(0, 1)), atol=1e-12)


def test_prefix_sum_continues_a_table_from_a_carry_row():
    """Built in row chunks, each on the finished row above it, the table is
    the one built whole."""
    rng = np.random.default_rng(3)
    field = rng.standard_normal((9, 5, 2))
    acc = field.copy()
    prefix_sum(acc[:4])
    assert prefix_sum(acc[3:7], carry=True).base is acc
    prefix_sum(acc[6:], carry=True)
    np.testing.assert_allclose(acc, table_of(field), rtol=1e-13, atol=1e-13)
    # a lone carry row is left as it is
    np.testing.assert_array_equal(prefix_sum(acc[-1:].copy(), carry=True), acc[-1:])


def outer_rows(rows, w, heads, features, values, seed, wider=3):
    """Keys and values for ``rows`` table rows, as channel slices of wider
    arrays, with their field keys (x) values, and a target table (carry
    row first) that is a column slice of a wider one, as the grid's
    columns of a chunk are."""
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((rows, w, heads, features + wider))[..., 1:1 + features]
    vals = rng.standard_normal((rows, w, heads, values))
    field = np.einsum("...d,...c->...dc", keys, vals)
    band = rng.standard_normal((rows + 1, w + wider, heads, features, values))
    return keys, vals, field, band[:, wider:]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 5), w=st.integers(1, 20), heads=st.integers(1, 3),
       features=st.integers(1, 4), values=st.integers(1, 4),
       block=st.integers(1, COLUMN_BLOCK), seed=st.integers(0, 2**32 - 1))
def test_table_rows_equal_prefix_sum_of_the_outer_products(rows, w, heads, features, values,
                                                           block, seed):
    """Built on a carry row by masked matmuls of ``block`` columns, over
    widths that are and are not multiples of it, the table rows are
    prefix_sum's of the materialized field, whatever the mask and the rows
    below the carry held before."""
    keys, vals, field, acc = outer_rows(rows, w, heads, features, values, seed)
    want = prefix_sum(np.concatenate((acc[:1], field)), carry=True)
    mask = np.full((rows, heads, features, block * block), np.nan)
    assert table_rows(acc, keys, vals, mask) is acc
    scale = np.abs(field).sum() + np.abs(acc[0]).max()
    np.testing.assert_allclose(acc, want, rtol=1e-12, atol=1e-12 * scale)


def test_window_values():
    assert window(FIELD_2X3, 0)[1, 1] == 5.0
    assert window(FIELD_2X3, 1)[0, 0] == 12.0   # cells (1,1),(1,2),(2,1),(2,2)
    assert np.all(window(FIELD_2X3, 50) == 21.0)  # window swallows the grid


def test_window_matches_brute_force():
    rng = np.random.default_rng(1)
    field = rng.standard_normal((6, 9, 2))
    for r in range(0, 10):
        grid = window(field, r)
        for i in range(1, 7):
            for j in range(1, 10):
                np.testing.assert_allclose(
                    grid[i - 1, j - 1], brute_window(field, (i, j), r),
                    rtol=1e-12, atol=1e-12)


def test_window_matches_pointwise():
    """Every radius up to past the grid's side, read from a table padded
    for that radius and from one padded for the largest: a padding serves
    every radius up to its own, and a pad clipped to the grid serves all."""
    rng = np.random.default_rng(5)
    for shape in ((6, 7, 3), (1, 7), (9, 1), (1, 1)):
        field = rng.standard_normal(shape)
        h, w = shape[:2]
        widest = max(h, w) + 2
        for r in range(0, widest + 1):
            grid = window(field, r)
            assert grid.shape == shape
            np.testing.assert_array_equal(window(field, r, pad_radius=widest), grid)
            for i in range(1, h + 1):
                for j in range(1, w + 1):
                    np.testing.assert_allclose(
                        grid[i - 1, j - 1], brute_window(field, (i, j), r),
                        rtol=1e-12, atol=1e-12)


def test_slots_sit_at_the_window_corners():
    """Each window has four slots, at the padded offsets of its corners
    with the signs of the corner sum, sorted by row offset. In a region of
    padded rows and columns, a slot's queries are those inside the grid
    whose corner falls in it, at the same place relative to its start."""
    slots = sat._slots((1, 5), (3, 2))
    assert [o for o, *_ in slots] == sorted(o for o, *_ in slots)
    # radius 1 sits inside the pads; radius 5 clips to them
    assert set(slots) == {(5, 4, 1.0, 0), (5, 1, -1.0, 0), (2, 4, -1.0, 0), (2, 1, 1.0, 0),
                          (7, 5, 1.0, 1), (7, 0, -1.0, 1), (0, 5, -1.0, 1), (0, 0, 1.0, 1)}
    corners = {c[0]: c for c in sat._corners(slots, (4, 9), (3, 12), (6, 8))}
    for s, (o, co, sign, g) in enumerate(slots):
        rows = [i for i in range(6) if 4 <= i + o < 9]
        cols = [x for x in range(8) if 3 <= x + co < 12]
        if not rows or not cols:
            assert s not in corners
            continue
        _, got_sign, got_g, qi, qx, oi, ox = corners[s]
        assert (got_sign, got_g) == (sign, g)
        assert (list(range(qi.start, qi.stop)), list(range(qx.start, qx.stop))) == (rows, cols)
        assert (oi.start, ox.start) == (qi.start + o - 4, qx.start + co - 3)
        assert (oi.stop - oi.start, ox.stop - ox.start) == (len(rows), len(cols))


def test_window_differences_match_group_members():
    """Group r of a query is the window out to its outer radius minus the
    window just inside its inner radius; rings past the grid edge are empty."""
    rng = np.random.default_rng(2)
    field = rng.standard_normal((9, 9, 3))
    shape = GridShape(9, 9)
    for kind, groups in ((PartitionKind.UNIT_RING, 11), (PartitionKind.DYADIC, 5)):
        scheme = PartitionScheme(kind=kind, r_max=3, tau=0.05)
        for r in range(groups):
            lo, hi = group_span(kind, r)
            band = window(field, hi)
            if lo > 0:
                band = band - window(field, lo - 1)
            for i in range(1, 10):
                for j in range(1, 10):
                    members = group_members(scheme, shape, (i, j), r)
                    want = sum((field[m - 1, n - 1] for m, n in members),
                               np.zeros(3))
                    np.testing.assert_allclose(band[i - 1, j - 1], want,
                                               rtol=1e-10, atol=1e-10)


def test_rings_telescope_to_total():
    rng = np.random.default_rng(4)
    field = rng.standard_normal((7, 11, 2))
    acc = np.zeros(field.shape)
    prev = np.zeros(field.shape)
    for r in range(11):
        cur = window(field, r)
        acc = acc + (cur - prev)
        prev = cur
    # the streamed table's far corner is the total
    total = read(field, [0])[1]
    np.testing.assert_allclose(total, field.sum(axis=(0, 1)), rtol=1e-12)
    np.testing.assert_allclose(acc, np.broadcast_to(total, acc.shape), rtol=1e-9)


def test_prefix_sum_accumulates_in_f64_only():
    field = np.full((50, 50), 0.1, dtype=np.float32)
    # building in place in a narrower dtype would accumulate in it
    for narrow in (field, field.astype(np.float16), np.ones((4, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="float64"):
            prefix_sum(narrow)
    # an f32 field copied into an f64 buffer sums in double precision; f32
    # accumulation of 2500 terms would drift far beyond this tolerance
    table = table_of(field)
    assert table.dtype == np.float64
    np.testing.assert_allclose(table[-1, -1], np.float64(np.float32(0.1)) * 2500,
                               rtol=1e-12)


def stream_case(h, w, heads, features, values, radii, seed):
    """Random keys, values, coefficients, queries and cotangents of a
    pass over an (h, w, heads, features, values + 1) field."""
    rng = np.random.default_rng(seed)
    pk = rng.standard_normal((h, w, heads, features))
    streams = rng.standard_normal((h, w, heads, values))
    coefs = rng.standard_normal((h, w, heads, len(radii)))
    pq, cot = rng.standard_normal(pk.shape), rng.standard_normal(streams.shape)
    return pk, streams, coefs, pq, cot, rng.standard_normal((heads, features, values))


def test_fetch_counting():
    """A pass counts one fetch per position per window, whatever its
    chunks: a forward once, a backward twice (its z read and its token
    adjoint). Building a table counts none."""
    pk, streams, coefs, pq, cot, total_cot = stream_case(4, 5, 2, 3, 2, [1, 2], seed=6)
    for budget in (1 << 40, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sat, "BLOCK_BYTES", budget)
            reset_fetch_count()
            read_windows(np.zeros(cot.shape), pk, streams, [1, 2], coefs, pq)
            assert fetch_count() == 40
            for _ in read_windows_vjp(pk, streams, [1, 2], coefs, pq, cot, total_cot):
                pass
            prefix_sum(np.ones((4, 5)))
            assert fetch_count() == 120
            read_windows(np.zeros(cot.shape), pk, streams, [], coefs[..., :0], pq)
            assert fetch_count() == 120
    reset_fetch_count()
    assert fetch_count() == 0


FUZZ = dict(h=st.integers(1, 12), w=st.integers(1, 12),
            radii=st.lists(st.integers(0, 14), max_size=4).map(sorted),
            channels=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)),
            budget=st.sampled_from([1, 3000, 1 << 40]), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**FUZZ)
def test_stacked_read_and_adjoint_are_exact_adjoints(h, w, radii, channels, budget, seed):
    """<sum_g c_g pq . W_g(F), Y> + <T, Tbar> equals both <F, the token
    adjoint> and sum_g <c_g pq, z_g> + <T, Tbar>, with F = pk (x) streams,
    T its grid total and Tbar that total's cotangent, for windows up to
    past the grid's side, one to three of them or none, in chunks of one
    row, in short chunks and in one chunk."""
    heads, features, values = channels
    pk, streams, coefs, pq, cot, total_cot = stream_case(h, w, heads, features, values, radii,
                                                         seed)
    field = pk[..., :, None] * streams[..., None, :]
    out = np.zeros(cot.shape)
    grad_field, z = np.zeros(field.shape), np.zeros((h, w, heads, len(radii), features))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat, "BLOCK_BYTES", budget)
        total = read_windows(out, pk, streams, radii, coefs, pq).copy()
        for zrows, zs, grows, gx, _ in read_windows_vjp(pk, streams, radii, coefs, pq, cot,
                                                        total_cot):
            z[zrows] += zs
            grad_field[grows] += gx
    np.testing.assert_allclose(total, field.sum(axis=(0, 1)), rtol=1e-10, atol=1e-10)
    want = inner(out, cot) + inner(total, total_cot)
    scale = np.abs(field).sum() * (np.abs(cot).sum() * np.abs(coefs).max(initial=1.0)
                                   * np.abs(pq).max() + np.abs(total_cot).sum())
    assert abs(inner(field, grad_field) - want) <= 1e-12 * scale
    by_z = inner(coefs[..., None] * pq[..., None, :], z) + inner(total, total_cot)
    assert abs(by_z - want) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chunk=st.integers(1, 5), h=st.integers(1, 12), w=st.integers(1, 12),
       channels=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_adjoint_prefix_sum_in_row_chunks(chunk, h, w, channels, seed):
    """Finished in row chunks of ``chunk`` rows, each on a carry row that
    holds the finished row above it, as the backward finishes its token
    adjoint chunk by chunk, an accumulator is the one finished whole."""
    acc = np.random.default_rng(seed).standard_normal((h, w) + tuple(channels))
    whole = prefix_sum(acc.copy())
    carried = np.concatenate((np.zeros((1,) + acc.shape[1:]), acc))
    for top in range(0, len(acc), chunk):
        prefix_sum(carried[top:top + chunk + 1], carry=True)
    np.testing.assert_allclose(carried[1:], whole, rtol=1e-12, atol=1e-12 * np.abs(acc).sum())


def test_sabotage_radius_offset():
    rng = np.random.default_rng(7)
    field = rng.standard_normal((6, 6))
    clean, clean_total = read(field, [1])
    with sabotage_radius_offset(1):
        broken, broken_total = read(field, [1])
    # a table built inside the context corrupts windows and the total alike
    assert broken[2, 2] != pytest.approx(float(clean[2, 2]))
    assert broken_total != pytest.approx(float(clean_total))
    # the fault does not leak out of the context
    after, after_total = read(field, [1])
    np.testing.assert_array_equal(after, clean)
    np.testing.assert_array_equal(after_total, clean_total)


def test_sabotage_shifts_table_rows_too():
    keys, vals, _, acc = outer_rows(4, 6, 1, 2, 3, seed=8)
    clean = table_rows(acc.copy(), keys, vals, np.empty((4, 1, 2, 36)))
    with sabotage_radius_offset(1):
        broken = table_rows(acc.copy(), keys, vals, np.empty((4, 1, 2, 36)))
    np.testing.assert_array_equal(broken[0], clean[0])      # the carry is kept
    assert not broken[1].any()
    np.testing.assert_array_equal(broken[2:], clean[1:-1])


def test_validation():
    with pytest.raises(ValueError, match="2-dimensional"):
        prefix_sum(np.ones(5))
