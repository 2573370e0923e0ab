"""CSV and JSON artifact plumbing.

A grid CSV is its value columns in row-major order: header `value` for a
scalar field, `real,imag` for a wave function, one column per axis for a
vector field.  A JSON sidecar (<path>.meta.json) states the grid: dim,
extents, points, boundary, and the metric weights.  Loaders rebuild the grid
from the sidecar and verify the row count; coordinates come from the grid,
`io.load_*(path).space.meshes`, not from the file.  Readers also accept
leading `axis0,...,axis<dim-1>` coordinate columns, as hand-written inputs
and older runs carry them, and skip them.  A run's snapshots are density
fields (`rho_*.csv`: fokker-planck, ensemble, coupled) or wave functions
(`psi_*.csv`: schrodinger, nonlinear), never both; a wave run's density is
|psi|^2.  A nonlinear run's psi is in regraduated units, sqrt(rho)
exp(i kappa phi) with the kappa its summary.json states.

Every CSV, grid or series, is written by one table writer: numbers as
`%.17g`, byte for byte as `format(x, ".17g")`, which round-trips float64
exactly, with `\r\n` line ends.  The text is built in numpy a block of rows
at a time: a cell's 17 digits are its 53-bit mantissa times a double-double
power of ten, exact by Dekker's product to within 2^-45 of a unit in the 17th
digit, rounded to nearest, and laid out by %g's rules.  Python's formatter
writes the cells this cannot certify: nan, inf, subnormals, digits within
TOL = 2^-30 of a rounding tie, and digits that carry into the next power of
ten.  A save/load round trip is exact, and repeated runs of a seeded
scenario produce bit-identical files.

Every CSV is read by one table reader: the header by `csv`, the body by one
`np.loadtxt` call over all of its columns, which parses in C.  The parsed
shape must be one row per body line and one column per header cell, so a
blank line or a uniformly too-wide body is refused too.  Only a refused body
is scanned again, row by row with `csv`, to name its first bad line.
"""

from __future__ import annotations

import csv
import functools
import io as pyio
import json
import os

import numpy as np

from .errors import ConfigError
from .fields import ComplexField, ConfigSpace, ScalarField, VectorField


# The sidecar's entries: the ConfigSpace fields, in the order they are written.
_META_KEYS = ("dim", "extents", "points", "boundary", "sigma_sq")


def _meta_path(path) -> str:
    return str(path) + ".meta.json"


def _write_meta(path, space: ConfigSpace):
    with open(_meta_path(path), "w") as fh:
        json.dump({key: getattr(space, key) for key in _META_KEYS}, fh, indent=2)
        fh.write("\n")


def _read_meta(path):
    meta_file = _meta_path(path)
    if not os.path.exists(meta_file):
        raise ConfigError(f"missing sidecar metadata {meta_file}")
    return load_summary(meta_file)


def space_from_meta(meta) -> ConfigSpace:
    """The grid a sidecar states; ConfigSpace checks each entry, naming it."""
    try:
        return ConfigSpace(**{key: meta[key] for key in _META_KEYS})
    except KeyError as exc:
        raise ConfigError(f"sidecar metadata missing key {exc}") from exc


def _write_table(path, header, table):
    """Write the header line, then the rows of `table`: each block of
    _BLOCK_ROWS rows is laid out in byte slots by `_cell_slots`, and one
    translate drops the empty slots."""
    table = np.asarray(table, dtype=float)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()  # the rows go to the byte stream underneath
        for start in range(0, len(table), _BLOCK_ROWS):
            slots = _cell_slots(table[start : start + _BLOCK_ROWS].ravel(), len(header))
            fh.buffer.write(slots.tobytes().translate(None, b"\0"))


# Rows per block: a cell takes about 220 bytes of numpy temporaries and slots,
# so a write holds O(block) memory (under 1 MB at two columns), not O(table).
_BLOCK_ROWS = 2048

# Cells within TOL of a rounding tie, in units of the 17th digit, go to
# Python's formatter; the double-double product errs by less than 2^-45.
TOL = 2.0**-30


def _ratio(p, e):
    """10^p 2^e as an integer pair (numerator, denominator)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    return (num << e, den) if e >= 0 else (num, den << -e)


@functools.cache
def _digit_tables():
    """For x = m 2^(b-1075), m in [2^52, 2^53), per biased exponent b:
    x0 = floor(log10 2^(b-1023)); bump, the least m with x >= 10^(x0+1), so
    X = x0 + (m >= bump); and at row 2b + (m >= bump), 10^(16-X) 2^(b-1075)
    as a double-double (hi, lo, and hi's Veltkamp halves).  b = 0, 2047: 0."""
    b = np.arange(1, 2047)
    x0 = np.zeros(2048, dtype=np.intp)
    x0[b] = ((b - 1023) * 78913) >> 18  # floor(E log10 2), exact for |E| < 1650
    bump = np.full(2048, 2.0**53)
    for k in b.tolist():
        num, den = _ratio(int(x0[k]) + 1, 1075 - k)
        bump[k] = min(-(-num // den), 2**53)
    fives = []  # 10^q 2^e = 5^q 2^(q+e): a double-double of 5^q per q = 16 - X
    for q in range(-293, 325):
        num, den = _ratio(q, -q)
        hi = num / den  # int / int rounds correctly
        a, s = hi.as_integer_ratio()
        fives.append((hi, (num * s - a * den) / (den * s)))
    q = 16 - (x0[b, None] + np.arange(2))
    dd = np.zeros((2048, 2, 4))
    dd[b, :, :2] = np.ldexp(np.array(fives)[q + 293], (q + b[:, None] - 1075)[..., None])
    c = dd[..., 0] * 134217729.0  # 2^27 + 1
    dd[..., 2] = c - (c - dd[..., 0])
    dd[..., 3] = dd[..., 0] - dd[..., 2]
    return x0, bump, dd.reshape(4096, 4)


def _digits(x):
    """For float64 cells x: D, the 17 significant digits of |x| as an integer
    in [1e16, 1e17) (0 for a zero); X, the decimal exponent; and `bad`, where
    D is not certified: nan, inf, subnormal, within TOL of a tie, or carried."""
    x0, bump, dd = _digit_tables()
    bits = x.view(np.uint64)
    b = (bits >> 52).astype(np.intp) & 0x7FF
    m = ((bits & (2**52 - 1)) | 2**52).astype(float)
    up = m >= bump[b]
    X = x0[b] + up
    hi, lo, hi_h, hi_l = dd[2 * b + up].T
    # Dekker: m hi = P + err exactly, from halves of at most 27 bits
    c = m * 134217729.0
    m_h = c - (c - m)
    m_l = m - m_h
    P = m * hi
    r = ((m_h * hi_h - P) + m_h * hi_l + m_l * hi_h) + m_l * hi_l + m * lo
    whole = np.floor(r)
    frac = r - whole
    D = P.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    bad = (np.abs(frac - 0.5) < TOL) | ((D < 10**16) | (D >= 10**17)) & (bits << 1 != 0)
    return D, X, bad


@functools.cache
def _text_tables():
    """Words of ASCII, little-endian: quad[v], 4-digit group v at even bytes;
    last[g, v], digits shown through group g's last nonzero digit; keep[n],
    the digit bytes of groups 0..3 when n digits show; head[sign, c], `-` and,
    for X = -c, `0.` and c - 1 zeros; expo[X + 350], `e+XX` (0 in fixed
    notation); ends, `,` and `\r\n`."""
    word = lambda text: int.from_bytes(text, "little")
    v = np.arange(10000, dtype=np.int16)
    quad = np.zeros((10000, 8), dtype=np.uint8)
    last = np.ones((4, 10000), dtype=np.int8)
    for j in range(4):
        digit = v // 10 ** (3 - j) % 10
        quad[:, 2 * j] = digit + 48
        last[:, digit > 0] = 4 * np.arange(4)[:, None] + j + 2
    kept = np.clip(np.arange(18)[:, None] - 1 - 4 * np.arange(4), 0, 4).tolist()
    keep = [[word(b"\xff\0" * n) for n in row] for row in kept]
    head = [[word(s + lead) for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")]
            for s in (b"\0", b"-")]
    expo = [word(b"e%+03d" % X) if X < -4 or X >= 17 else 0 for X in range(-350, 350)]
    ends = [word(b",") << 40, word(b"\r\n") << 40]
    words = (np.array(t, np.uint64) for t in (keep, head, expo, ends))
    return quad.view("<u8").ravel(), last, *words


def _cell_slots(cells, n_cols):
    """Six words of byte slots per cell of `cells` (row-major, n_cols to a
    row), NUL where unused: sign, `0.000`, digits 0..16 each followed by a
    point slot, `e+XXX`, separator.  Uncertified cells hold Python's text."""
    quad, last, keep, head, expo, ends = _text_tables()
    D, X, bad = _digits(cells)
    top = D // 10**8
    low = D - top * 10**8
    d0 = top // 10**8
    mid = top - d0 * 10**8
    g0, g2 = mid // 10**4, low // 10**4
    groups = (g0, mid - g0 * 10**4, g2, low - g2 * 10**4)
    shown = np.maximum.reduce([last[g, v] for g, v in enumerate(groups)])
    at = np.where((X < -4) | (X >= 17), 0, X)  # the digit the point follows
    n_digits = np.maximum(shown, at + 1)  # fixed notation shows its integer part
    words = np.empty((cells.size, 6), dtype="<u8")
    lead = head[np.signbit(cells).view(np.int8), np.maximum(-at, 0)]
    np.bitwise_or(lead, ((d0 + 48) << 48).astype(np.uint64), out=words[:, 0])
    np.bitwise_and(quad[np.column_stack(groups)], keep[n_digits], out=words[:, 1:5])
    sep = ends[[0] * (n_cols - 1) + [1]]
    np.bitwise_or(expo[X + 350].reshape(-1, n_cols), sep, out=words.reshape(-1, n_cols, 6)[..., 5])
    point = np.flatnonzero((at >= 0) & (shown > at + 1))
    text = words.view(np.uint8)
    text.reshape(-1)[48 * point + 2 * at[point] + 7] = ord(".")
    for i in np.flatnonzero(bad).tolist():
        cell = format(float(cells[i]), ".17g").encode()
        text[i, :45] = 0
        text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    return words


def _write_grid_csv(path, space, headers, values):
    """`values` has one row per cell, in row-major order, and one column per
    header."""
    _write_table(path, headers, values)
    _write_meta(path, space)


def _read_csv(path):
    """Header and float body of a CSV file.  An empty file, a ragged row, a
    blank line or a cell that is not a bare number raises ConfigError naming
    the file and the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise ConfigError(f"{path}: empty file")
    start = raw.find(b"\n") + 1 or len(raw)  # the body's first byte
    header = next(csv.reader([raw[:start].decode()]))
    n_lines = raw.count(b"\n", start) + (start < len(raw) and not raw.endswith(b"\n"))
    if not n_lines:  # header only; loadtxt would warn about the missing data
        return header, np.empty((0, len(header)))
    body = pyio.BytesIO(raw)
    body.seek(start)
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        _raise_bad_line(path, len(header), exc)
    # loadtxt skips blank lines and accepts any one uniform width
    if data.shape != (n_lines, len(header)):
        _raise_bad_line(path, len(header), f"read {data.shape} cells for {n_lines} lines")
    return header, data


def _raise_bad_line(path, n_cells, reason):
    """Name the first line of `path` that the body parse refused: a scan with
    csv, unquoted, and float() per cell.  `reason` is the fallback."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
        next(reader)
        for row in reader:
            try:
                if len(row) != n_cells:
                    raise ValueError(f"expected {n_cells} cells, found {len(row)}")
                for v in row:
                    float(v)
            except ValueError as exc:
                raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from None
    raise ConfigError(f"{path}: {reason}")


def _read_grid_csv(path, value_columns):
    """The grid and the value columns of a grid CSV: the header cells after
    any leading `axis0..axis<dim-1>` cells.  value_columns may be an int or a
    callable of the grid dim."""
    space = space_from_meta(_read_meta(path))
    if callable(value_columns):
        value_columns = value_columns(space.dim)
    header, data = _read_csv(path)
    if len(data) != space.size:
        raise ConfigError(f"{path}: expected {space.size} rows, found {len(data)}")
    n_axes = space.dim if header[: space.dim] == [f"axis{a}" for a in range(space.dim)] else 0
    if len(header) != n_axes + value_columns:
        raise ConfigError(
            f"{path}: expected {value_columns} value columns, found {len(header) - n_axes}"
        )
    return space, np.ascontiguousarray(data[:, n_axes:])


def save_scalar_field(path, f: ScalarField):
    _write_grid_csv(path, f.space, ["value"], f.values.reshape(-1, 1))


def load_scalar_field(path) -> ScalarField:
    space, data = _read_grid_csv(path, 1)
    return ScalarField(space, data[:, 0].reshape(space.shape))


def save_complex_field(path, f: ComplexField):
    # a complex128 array read as float64 pairs is the (real, imag) table
    values = np.ascontiguousarray(f.values, dtype=complex)
    _write_grid_csv(path, f.space, ["real", "imag"], values.view(float).reshape(-1, 2))


def load_complex_field(path) -> ComplexField:
    space, data = _read_grid_csv(path, 2)
    # the (real, imag) table read as complex128 keeps every bit of both parts
    return ComplexField(space, data.view(complex).reshape(space.shape))


def load_vector_field(path) -> VectorField:
    space, data = _read_grid_csv(path, lambda dim: dim)
    comps = np.stack([data[:, a].reshape(space.shape) for a in range(space.dim)])
    return VectorField(space, comps)


def save_series(path, header, rows):
    """Generic numeric table, e.g. (t, mass, variances, centers) rows."""
    _write_table(path, header, rows)


def load_series(path):
    return _read_csv(path)


def save_summary(path, summary: dict):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_summary(path) -> dict:
    """A JSON file, a summary or a sidecar; text that is not JSON is refused,
    naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
            raise ConfigError(f"{path}: {exc}") from None
