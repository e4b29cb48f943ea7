import hashlib
import random
import re
import tracemalloc

import numpy as np
import pytest

from higman import schemes
from higman.groups import build_family, cyclic_group
from higman.schemes import (SchemeError, SchemeParseError, cayley_scheme,
                            nontrivial_parabolics, parabolics,
                            parse_scheme_file, read_scheme, restriction,
                            trivial_scheme, validate, wreath_product,
                            write_scheme)
from test_tensor_reference import (classes_of, ref_quotient_colors,
                                   wreath_checked)


def test_one_point_scheme():
    s = validate(np.array([[0]]))
    assert s.rank == 1 and s.v == 1
    assert s.p[0, 0, 0] == 1


def test_complete_graph_scheme():
    s = trivial_scheme(4)
    assert s.rank == 2
    assert s.valencies.tolist() == [1, 3]


def test_axiom_rejections():
    with pytest.raises(SchemeError, match="diagonal"):
        validate(np.array([[1, 0], [0, 1]]) - 0 + np.array([[1, 0], [0, 0]]))
    with pytest.raises(SchemeError, match="off the diagonal"):
        validate(np.array([[0, 0], [0, 0]]))
    with pytest.raises(SchemeError, match="unused"):
        validate(np.array([[0, 2], [2, 0]]))
    # inverse-closure violation: color 1 transposes to two different colors
    bad = np.array([
        [0, 1, 1],
        [2, 0, 1],
        [1, 2, 0]])
    with pytest.raises(SchemeError):
        validate(bad)
    # intersection-number violation carries a witness triple
    bad2 = np.array([[0, 1], [2, 0]])
    with pytest.raises(SchemeError, match="not constant") as err:
        validate(bad2)
    assert err.value.witness is not None


def test_intersection_tensor_probes(q8_construction):
    scheme = q8_construction.result.scheme
    assert int(scheme.valencies.sum()) == scheme.v
    inv = scheme.inverse
    assert all(scheme.valencies[i] == scheme.valencies[inv[i]]
               for i in range(scheme.rank))
    rng = random.Random(3)
    color, p = scheme.color, scheme.p
    for _ in range(1000):
        x = rng.randrange(scheme.v)
        y = rng.randrange(scheme.v)
        i = rng.randrange(scheme.rank)
        j = rng.randrange(scheme.rank)
        count = int(np.count_nonzero(
            (color[x, :] == i) & (color[:, y] == j)))
        assert count == p[i, j, color[x, y]]


def test_parabolics_rank2():
    s = trivial_scheme(5)
    ps = parabolics(s)
    assert len(ps) == 2
    assert ps[0].n_class == 1 and ps[1].n_class == 5


def test_parabolics_wreath():
    w = wreath_product(trivial_scheme(2), trivial_scheme(3))
    ps = parabolics(w)
    assert len(ps) == 3
    assert [p.n_class for p in ps] == [1, 2, 6]


def test_parabolics_higmanian(q8_construction):
    scheme = q8_construction.result.scheme
    ps = parabolics(scheme)
    assert [(p.num_classes, p.n_class) for p in ps] == [
        (24, 1), (12, 2), (3, 8), (1, 24)]


def ref_quotient(scheme, parab):
    return validate(ref_quotient_colors(scheme, classes_of(parab)))


def test_quotient():
    w = wreath_product(trivial_scheme(2), trivial_scheme(3))
    full = parabolics(w)[-1]
    assert ref_quotient(w, full).v == 1 == full.corank
    diag = parabolics(w)[0]
    q = ref_quotient(w, diag)
    assert q.v == w.v and q.rank == w.rank == diag.corank


def test_quotient_higmanian_is_trivial_wreath(q8_construction):
    scheme = q8_construction.result.scheme
    e = nontrivial_parabolics(scheme)[0]
    q = ref_quotient(scheme, e)
    assert q.rank == 3 == e.corank
    mid = nontrivial_parabolics(q)
    assert len(mid) == 1 and wreath_checked(q, mid[0])


def test_restriction():
    w = wreath_product(trivial_scheme(2), trivial_scheme(3))
    assert restriction(w, [2]).rank == 1
    r = restriction(w, range(w.v))
    assert r.v == w.v and r.rank == w.rank


def test_restriction_higmanian_f_class(q8_construction):
    scheme = q8_construction.result.scheme
    f = nontrivial_parabolics(scheme)[1]
    assert f.n_class == 8
    ranks = {restriction(scheme, cls).rank for cls in classes_of(f)}
    assert ranks == {3}


def test_quotient_tower_rank(q8_construction):
    # quotient(quotient(X, E), F/E) has the rank of quotient(X, F)
    scheme = q8_construction.result.scheme
    e, f = nontrivial_parabolics(scheme)
    q_e = ref_quotient(scheme, e)
    f_over_e = nontrivial_parabolics(q_e)[0]
    want = ref_quotient(scheme, f).rank
    assert ref_quotient(q_e, f_over_e).rank == want == f.corank


def test_wreath_detection():
    w = wreath_product(trivial_scheme(2), trivial_scheme(3))
    mid = nontrivial_parabolics(w)[0]
    assert wreath_checked(w, mid)


def test_not_wreath(q8_construction):
    scheme = q8_construction.result.scheme
    for parab in nontrivial_parabolics(scheme):
        assert not wreath_checked(scheme, parab)


def test_cayley_scheme_basics():
    q8 = build_family("Q8cp:1")
    rank2 = cayley_scheme(q8, [[0], list(range(1, 8))])
    assert rank2.rank == 2
    thin = cayley_scheme(cyclic_group(5), [[i] for i in range(5)])
    assert thin.rank == 5 and not thin.is_symmetric()
    with pytest.raises(SchemeError, match="identity"):
        cayley_scheme(q8, [[1], [0] + list(range(2, 8))])
    with pytest.raises(SchemeError, match="partition"):
        cayley_scheme(cyclic_group(5), [[0], [1, 2], [3, 4, 0]])
    with pytest.raises(SchemeError, match="inverse-closed"):
        cayley_scheme(cyclic_group(5), [[0], [1, 2], [3], [4]])
    for outside in ([4], [-1]):
        with pytest.raises(SchemeError, match="outside 0..3"):
            cayley_scheme(cyclic_group(4), [[0], [1, 3], outside])


def test_cayley_non_sring_rejected():
    # {e}, {g}, rest in C_5: products of singleton parts are not constant
    # on the big part
    with pytest.raises(SchemeError, match="S-ring"):
        cayley_scheme(cyclic_group(5), [[0], [1, 4], [2], [3]])
    # an empty part is an unused color, not a missing representative
    with pytest.raises(SchemeError,
                       match="not an S-ring: color 1 unused"):
        cayley_scheme(cyclic_group(5), [[0], [], [1, 2, 3, 4]])


def test_scheme_file_roundtrip(tmp_path, q8_construction):
    scheme = q8_construction.result.scheme
    p1 = tmp_path / "a.scheme"
    p2 = tmp_path / "b.scheme"
    write_scheme(scheme, p1)
    again = read_scheme(p1)
    write_scheme(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (again.color == scheme.color).all()


@pytest.mark.parametrize("key, digest", [
    (("q8cp", (("r", 1),)),
     "55126e3abc043b4280dce6d7f62b92417886c81448dc6c0ad48c6f9b80d960e3"),
    (("q8cp", (("r", 2),)),
     "1271b048661441ef582bf998a347b55769d283ed771c222b7457b8746968fab6"),
    (("heis", (("q", 3), ("r", 1))),
     "b408ac5e79084e21a0dc3c78e9febc6aaabd08801046b34ae268d893089fd774"),
    (("ea", (("j", 1), ("q", 3), ("r", 1))),
     "36618fd6f4e2754f475e6bfbbcbc6f3ed93c8ef0935b935e3b30cc1ea20527cc"),
])
def test_desk_scheme_files_pinned(tmp_path, constructions_by_family, key,
                                  digest):
    path = tmp_path / "desk.scheme"
    write_scheme(constructions_by_family[key].result.scheme, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_scheme_file_errors(tmp_path):
    p = tmp_path / "bad.scheme"
    p.write_text("nonsense\n")
    with pytest.raises(SchemeParseError):
        parse_scheme_file(p)
    p.write_text("scheme 2 2\n0 1\n")
    with pytest.raises(SchemeParseError, match="expected 2 rows"):
        parse_scheme_file(p)
    p.write_text("scheme 2 2\n0 x\n1 0\n")
    with pytest.raises(SchemeParseError, match="non-integer"):
        parse_scheme_file(p)
    # parseable but not a scheme
    p.write_text("scheme 2 3\n0 1\n2 0\n")
    with pytest.raises(SchemeError):
        read_scheme(p)


READER_CASES = {
    "spaces": ("0 1\n1 0", [[0, 1], [1, 0]]),
    "tabs": ("0\t1\n1\t0", [[0, 1], [1, 0]]),
    "vertical tab and form feed": ("0\x0b1\n1\x0c0", [[0, 1], [1, 0]]),
    "underscore": ("0 1_0\n1_0 0", "row 1: non-integer entry"),
    "plus sign": ("+0 +4\n4 0", "row 1: non-integer entry"),
    "unicode digits": ("\u0660 \u0661\n\u0661 \u0660",
                       "row 1: non-integer entry"),
    "hash entry": ("0 #\n1 0", "row 1: non-integer entry"),
    "hash suffix": ("0 1\n1 0#", "row 2: non-integer entry"),
    "float": ("0 4.0\n4 0", "row 1: non-integer entry"),
    "2^63": (f"0 {2**63}\n1 0", "row 1: entry of more than 18 digits"),
    "-2^63 - 1": (f"0 1\n{-2**63 - 1} 0", "row 2: non-integer entry"),
    # the rule counts digits, not value
    "zero-padded": ("0 0000000000000000001\n1 0",
                    "row 1: entry of more than 18 digits"),
    "ragged": ("0 1 1\n1 0", "row 1 has 3 entries, expected 2"),
    "ragged, v^2 entries": ("0 1 1\n1", "row 1 has 3 entries, expected 2"),
    "crlf": ("0 1\r\n1 0\r", [[0, 1], [1, 0]]),
    "lone cr": ("0 1\r1 0", [[0, 1], [1, 0]]),
    "blank line": ("0 1\n\n1 0", [[0, 1], [1, 0]]),
    "leading and trailing spaces": ("  0 1  \n 1 0 ", [[0, 1], [1, 0]]),
    "leading zeros": ("00 01\n01 00", [[0, 1], [1, 0]]),
    "two-digit colors": ("0 12\n12 0", [[0, 12], [12, 0]]),
    "trailing nbsp": ("0 1\xa0\n1 0", "row 1: non-integer entry"),
}


def row_loop(raw: bytes):
    """The plain layout read row by row: the matrix as lists, or the
    message of the first fault, in the reader's order."""
    try:
        raw.decode()
    except UnicodeDecodeError:
        return "not a UTF-8 text file"
    lines = [ln.strip(b" \t\v\f") for ln in re.split(rb"\r\n?|\n", raw)]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith(b"scheme "):
        return "scheme file must start with 'scheme <v> <rank>'"
    header = lines[0].split()
    if len(header) != 3 or not all(re.fullmatch(rb"[0-9]{1,18}", f)
                                   for f in header[1:]):
        return "bad scheme header"
    v, rows = int(header[1]), [ln.split() for ln in lines[1:]]
    if len(rows) != v:
        return f"expected {v} rows, found {len(rows)}"
    for i, row in enumerate(rows, 1):
        if len(row) != v:
            return f"row {i} has {len(row)} entries, expected {v}"
    for i, row in enumerate(rows, 1):
        for token in row:
            if not re.fullmatch(rb"[0-9]+", token):
                return f"row {i}: non-integer entry"
            if len(token) > 18:
                return f"row {i}: entry of more than 18 digits"
    return [[int(token) for token in row] for row in rows]


def read_outcome(path):
    try:
        matrix, rank = parse_scheme_file(path)
    except SchemeParseError as err:
        return str(err)
    assert np.issubdtype(matrix.dtype, np.signedinteger)
    assert rank == int(path.read_bytes().split()[2])
    return matrix.tolist()


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_reader_matches_row_loop(tmp_path, name):
    # the table's matrix or error, from the reader and from the row loop
    body, expected = READER_CASES[name]
    p = tmp_path / "case.scheme"
    p.write_text(f"scheme 2 2\n{body}\n", encoding="utf-8")
    assert read_outcome(p) == expected == row_loop(p.read_bytes())


def test_reader_matches_row_loop_on_edited_files(tmp_path):
    # scheme files with bytes inserted, deleted or replaced: each reads to
    # the row loop's matrix, or raises the row loop's first fault
    rng = random.Random(5)
    alphabet = [b"0", b"7", b"12", b" ", b"\t", b"\x0b", b"\x0c", b"\r",
                b"\n", b"\r\n", b"x", b"+", b"-", b"_", b"\xc2\xa0",
                b"\xff", b"\xd9\xa1", b"9" * 19, b"0" * 18]
    p = tmp_path / "edited.scheme"
    outcomes = set()
    for _ in range(600):
        write_scheme(trivial_scheme(rng.randint(1, 4)), p)
        raw = bytearray(p.read_bytes())
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(raw) + 1)
            cut = rng.choice([0, 0, 1])
            raw[at:at + cut] = rng.choice(alphabet)
        p.write_bytes(bytes(raw))
        got = row_loop(bytes(raw))
        assert read_outcome(p) == got, bytes(raw)
        outcomes.add(re.sub(r"\d+", "#", got) if isinstance(got, str)
                     else "read")
    # every outcome of the row loop occurs
    assert outcomes == {
        "read", "not a UTF-# text file",
        "scheme file must start with 'scheme <v> <rank>'",
        "bad scheme header", "expected # rows, found #",
        "row # has # entries, expected #", "row #: non-integer entry",
        "row #: entry of more than # digits"}


@pytest.mark.parametrize("body, entry, dtype", [
    ("0 1\n1 0", 1, np.int8),
    ("0 1\r\n\n1\t0", 1, np.int8),
    ("0 12\n12 0", 12, np.int8),
    ("0 300\n300 0", 300, np.int16),
    ("0 70000\n70000 0", 70000, np.int32),
    ("0 999999999999999999\n999999999999999999 0", 10**18 - 1, np.int64),
])
def test_byte_reader_plain_layout(tmp_path, body, entry, dtype):
    # read from the bytes, in the narrowest dtype that holds the entries
    p = tmp_path / "plain.scheme"
    p.write_bytes(f"scheme 2 2\n{body}\n".encode())
    matrix, rank = parse_scheme_file(p)
    assert matrix.dtype == dtype and rank == 2
    assert matrix.tolist() == [[0, entry], [entry, 0]]


# read_scheme's traced peak on the file below with the np.loadtxt reader
# (int64 matrix) and a validate that converted the index in every packed
# product, measured with NumPy 2.4
PEAK_BOUND = 9_510_808


def test_read_scheme_peak_memory(tmp_path):
    # the cyclotomic scheme of index 4 on Z_521: v = 521, rank 5.  The
    # reader and validate may not trade memory for speed
    p, h = 521, 4
    gen = next(g for g in range(2, p)
               if all(pow(g, (p - 1) // q, p) != 1 for q in (2, 5, 13)))
    powers = [pow(gen, e, p) for e in range(p - 1)]
    parts = [[0]] + [powers[c::h] for c in range(h)]
    path = tmp_path / "cyclotomic.scheme"
    write_scheme(cayley_scheme(cyclic_group(p), parts), path)
    tracemalloc.start()
    try:
        scheme = read_scheme(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scheme.v == p and scheme.rank == h + 1
    assert peak <= PEAK_BOUND


def nested_blocks(v: int, sizes) -> np.ndarray:
    """The int8 color matrix of nested blocks: color c + 1 joins two points
    in one block of size sizes[c] and in no smaller block, the last color
    joins the rest, and 0 is the diagonal.  A scheme of rank len(sizes) + 2
    when each size divides the next and the last divides v."""
    idx = np.arange(v)
    color = np.full((v, v), len(sizes) + 1, dtype=np.int8)
    for c, size in reversed(list(enumerate(sizes))):
        color[idx[:, None] // size == idx // size] = c + 1
    np.fill_diagonal(color, 0)
    return color


def traced_peak(f, *args):
    """``(f(*args), the traced peak of the call in bytes)``."""
    tracemalloc.start()
    try:
        result = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_validate_peak_memory_per_cell():
    # the products are formed a row block of at most BLOCK_ENTRIES cells
    # at a time, here a quarter of the matrix, against the values at the
    # first cell of each color: no v x v index, basis stack or product is
    # held.  The int16 colors, the rows of one left color and the packed
    # right factor take 7 bytes a cell; the parent took 27
    color = nested_blocks(2048, (4, 64))
    scheme, peak = traced_peak(validate, color)
    assert scheme.rank == 4 and scheme.valencies.tolist() == [1, 3, 60, 1984]
    assert peak <= 12 * color.size


def test_validate_goes_through_the_shared_kernel(monkeypatch):
    # `validate` decides every product with `DigitRun.check`, the kernel
    # routes 2 and 4 use, so tests that spy on it see the real path
    runs, check = [], schemes.DigitRun.check

    def recorded(run, *args):
        runs.append(run.colors)
        return check(run, *args)

    monkeypatch.setattr(schemes.DigitRun, "check", recorded)
    scheme = validate(nested_blocks(48, (2, 8)))
    # no single color generates nested blocks, so the loop runs: i = 1:
    # j = 1, 2 in one run; i = 2: j = 2; i = 3 = 3* is not formed
    assert runs == [(1, 2), (2,)]
    assert scheme.p[1, 1].tolist() == [1, 0, 0, 0]


INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64)


def dtype_cases(dtype):
    """Out-of-range colors in one integer dtype: v^2 itself, the largest
    value of the dtype on 2 points and on 12 points (v^2 = 144 is past the
    int8 range, not past uint8's), and -1 where the dtype has it."""
    top = np.iinfo(dtype).max
    twelve = np.ones((12, 12), dtype=dtype)
    np.fill_diagonal(twelve, 0)
    twelve[0, 1] = twelve[1, 0] = top
    cases = [(np.array([[0, 4], [4, 0]], dtype=dtype), "color 1 unused"),
             (np.array([[0, top], [top, 0]], dtype=dtype), "color 1 unused"),
             (twelve, "color 2 unused")]
    if np.iinfo(dtype).min < 0:
        cases.append((np.array([[0, -1], [-1, 0]], dtype=dtype),
                      "negative color"))
    return cases


@pytest.mark.parametrize("matrix, message", [
    ([[0, 65537], [65537, 0]], "color 1 unused"),  # 65537 wraps to 1 in int16
    ([[0, 40000], [40000, 0]], "color 1 unused"),
    ([[0, 2**40], [2**40, 0]], "color 1 unused"),
    ([[0, -1], [-1, 0]], "negative color"),
    ([[0, 1], [1, 0], [1, 1]], "square"),
    ([[0.0, 1.0], [1.0, 0.0]], "integral"),
] + [case for dtype in INTEGER_DTYPES for case in dtype_cases(dtype)])
def test_validate_checks_range_before_narrowing(matrix, message):
    with pytest.raises(SchemeError, match=message):
        validate(np.array(matrix))


@pytest.mark.parametrize("dtype", INTEGER_DTYPES)
def test_validate_accepts_every_integer_dtype(dtype):
    color = np.ones((12, 12), dtype=dtype)
    np.fill_diagonal(color, 0)
    scheme = validate(color)
    assert scheme.color.dtype == np.int16
    assert scheme.p.tolist() == trivial_scheme(12).p.tolist()


def test_validate_point_limit():
    # a zero-stride view: the size check must come before any work
    huge = np.broadcast_to(np.int16(0), (1 << 24, 1 << 24))
    with pytest.raises(SchemeError, match=str(1 << 24)):
        validate(huge)


def test_validate_rank_limit():
    # 182 * 181 = 32942 off-diagonal cells, each a color of its own: every
    # color is used, and the rank is one past the int16 colors
    v = 182
    color = np.zeros((v, v), dtype=np.int32)
    color[~np.eye(v, dtype=bool)] = np.arange(1, v * (v - 1) + 1)
    with pytest.raises(SchemeError) as info:
        validate(color)
    assert str(info.value) == "rank 32943 over the int16 color limit"


def test_parabolics_scanned_once(q8_construction, computed):
    # the scan keeps color sets on the scheme; each parabolic computes its
    # corank and its classes once, on first use, and keeps them
    scheme = q8_construction.result.scheme
    first = parabolics(scheme)
    scanned = scheme._parabolics
    again = parabolics(scheme)
    assert scheme._parabolics is scanned
    assert [a.colors for a in first] == [b.colors for b in again]
    assert all(e.class_of is e.class_of for e in first)
    coranks = [e.corank for e in first]
    assert coranks == [ref_quotient(scheme, e).rank for e in first]
    assert [e.corank for e in first] == coranks  # read again, kept
    colors = [e.colors for e in first]
    assert computed == {"corank": colors, "class_of": colors}
