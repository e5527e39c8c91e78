"""Periodic grid, Fourier-side field container, and basic spectral operators.

Fields are stored by their Fourier coefficients c_m (numpy fft ordering) with
the convention

    u(alpha) = sum_m c_m exp(i k_m alpha),   k_m = (2 pi / length) * m,

on the centered grid alpha_j = (j - n/2) * length / n.  With this
normalization Parseval reads  int |u|^2 d(alpha) = length * sum |c_m|^2,
so a single mode exp(i k alpha) has L2 norm sqrt(length).

The holomorphic class of the water-wave problem is the set of fields whose
coefficients vanish for k >= 0; `project_neg` maps onto it.  The zero mode is
always dropped by the projector (velocity potentials are defined modulo
constants, and pinning the mean keeps homogeneous negative-order multipliers
finite).

A `GridSpec` keeps its constants read-only, each formed on first read: modes,
k, |k|, the mask k < 0 (`neg`), alpha, the centring phase, the dealias mask and
|k|^s per exponent (`abs_k_power`) on modes 0..n/2, mirrored for modes < 0.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, NegativePowerOnMean


ROW_CALLS_FROM = 8192  # a transform call takes ROW_CALLS_FROM // n rows of length n, one from here on


def _frozen(a):
    a.flags.writeable = False
    return a


def _rows_per_call(n):
    """Rows of length n that one transform call takes: ROW_CALLS_FROM // n, at
    least one.  For n a power of two, a (2, n) stack is one call below
    n = 8192 and one row per call from there on, where that is faster; other
    lengths between 4096 and 8192 also go one row per call.  The step
    kernel's lengths are not powers of two: 1372 takes 5 rows per call, so a
    stack is one call, and 43740 takes one."""
    return max(1, ROW_CALLS_FROM // n)


def _fft(name, x, out=None):
    """`numpy.fft.<name>(x, norm="forward")` on the last axis, looked up at call
    time: the forward transform scales by 1/n (exact when n is a power of two)
    and the inverse not at all.  A stack goes `_rows_per_call` rows per call,
    into `out` when given (`out` may be `x`)."""
    fn = getattr(np.fft, name)
    step = _rows_per_call(x.shape[-1])
    if x.ndim == 1 or len(x) <= step:
        return fn(x, norm="forward", out=out)
    out = np.empty(x.shape, dtype=complex) if out is None else out
    for lo in range(0, len(x), step):
        fn(x[lo:lo + step], norm="forward", out=out[lo:lo + step])
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: period `length`, `n` modes, dealias fraction."""

    length: float = 400.0 * math.pi
    n: int = 2048
    dealias: float = 2.0 / 3.0

    def __post_init__(self):
        if self.n < 16 or self.n % 2:
            raise ValueError("mode count must be even and at least 16")
        if not 0.0 < self.dealias <= 1.0:
            raise ValueError("dealias fraction must lie in (0, 1]")
        if not 0.0 < self.length < math.inf:  # NaN included
            raise ValueError("period must be finite and positive")

    @cached_property
    def modes(self):
        """Integer mode numbers m in fft order."""
        return _frozen(np.rint(np.fft.fftfreq(self.n) * self.n).astype(int))

    @cached_property
    def k(self):
        """Wavenumbers k_m in fft order."""
        return _frozen(2.0 * np.pi / self.length * self.modes)

    abs_k = cached_property(lambda g: _frozen(np.abs(g.k)))
    neg = cached_property(lambda g: _frozen(g.k < 0))  # the mask k < 0
    _powers = cached_property(lambda g: {})  # exponent s -> `abs_k_power(s)`

    def abs_k_power(self, s):
        """|k|^s on modes 0..n/2 (the last the Nyquist mode -n/2), 0 at k = 0."""
        if s not in self._powers:
            self._powers[s] = _frozen(np.concatenate(([0.0], self.abs_k[1:self.n // 2 + 1] ** s)))
        return self._powers[s]

    alpha = cached_property(lambda g: _frozen((np.arange(g.n) - g.n // 2) * (g.length / g.n)))

    @cached_property
    def center_phase(self):
        # fft of samples on the centered grid picks up (-1)^m per mode; complex,
        # so that multiplying coefficients by it casts nothing
        return _frozen(np.where(self.modes % 2 == 0, 1.0 + 0j, -1.0 + 0j))

    @cached_property
    def dealias_mask(self):
        cut = math.floor(self.dealias * self.n / 2)
        mask = np.abs(self.modes) <= cut
        mask[self.modes == -(self.n // 2)] = False  # unpaired Nyquist mode
        return _frozen(mask)

    @property
    def dk(self):
        return 2.0 * np.pi / self.length

    @property
    def k_max(self):
        return np.pi * self.n / self.length

    def coef_from_values(self, values):  # a forward transform, one multiply
        coef = _fft("fft", values)
        coef *= self.center_phase
        return coef

    def values_from_coef(self, coef):  # one multiply, an inverse transform
        return _fft("ifft", coef * self.center_phase)


class Field:
    """Complex scalar field on a `GridSpec`, stored spectrally.

    Values are immutable by convention: every operation returns a new Field.
    Two caches rest on that: the grid values (`values`), and the sub-grid
    transforms of the field's LP pieces that `paradiff` keeps in `_pieces`,
    both formed on first use and dropped with the field.  Pointwise products
    go through `__mul__`, which applies the 2/3-rule mask afterwards so that
    products of band-limited fields stay alias-free.  `conj` and `two_re`
    make no forward transform: the coefficients of conj(u) are those of u
    mirrored, conj(c_m) at mode -m mod n (exact on the grid, the Nyquist
    mode included), and their values are formed pointwise from `values`.
    """

    __slots__ = ("grid", "coef", "_values", "_pieces")

    def __init__(self, grid, coef, values=None):
        self.grid = grid
        self.coef = coef
        self._values = values
        self._pieces = None

    @classmethod
    def from_values(cls, grid, values, dealias=False):
        coef = grid.coef_from_values(np.asarray(values, dtype=complex))
        if dealias:
            coef = np.where(grid.dealias_mask, coef, 0.0)
            return cls(grid, coef)
        return cls(grid, coef, np.asarray(values, dtype=complex))

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.n, dtype=complex))

    @property
    def values(self):
        if self._values is None:
            self._values = self.grid.values_from_coef(self.coef)
        return self._values

    def _check(self, other):
        if self.grid is not other.grid and self.grid != other.grid:
            raise GridMismatch("fields live on different grids")

    def __add__(self, other):
        self._check(other)
        return Field(self.grid, self.coef + other.coef)

    def __sub__(self, other):
        self._check(other)
        return Field(self.grid, self.coef - other.coef)

    def __mul__(self, other):
        if not isinstance(other, Field):
            return NotImplemented  # a scalar goes through `__rmul__`
        self._check(other)
        return Field.from_values(self.grid, self.values * other.values, dealias=True)

    def __rmul__(self, scalar):
        return Field(self.grid, self.coef * scalar)

    def _mirror(self):
        """Coefficients of conj(u): conj(c_m) at mode -m mod n."""
        return np.conj(np.concatenate((self.coef[:1], self.coef[:0:-1])))

    def conj(self):
        return Field(self.grid, self._mirror(), np.conj(self.values))

    def two_re(self):
        """u + conj(u), i.e. twice the pointwise real part."""
        return Field(self.grid, self.coef + self._mirror(),
                     np.asarray(2.0 * np.real(self.values), dtype=complex))

    def deriv(self):
        return Field(self.grid, self.coef * (1j * self.grid.k))

    def antideriv(self):
        """Inverse of d/d(alpha) on zero-mean fields (mean of output is 0)."""
        k = self.grid.k
        out = np.zeros_like(self.coef)
        nz = k != 0
        out[nz] = self.coef[nz] / (1j * k[nz])
        return Field(self.grid, out)

    def demean(self):  # mode 0 leads in fft order
        return Field(self.grid, np.concatenate(([0.0], self.coef[1:])))

    def mean(self):
        return complex(self.coef[0])

    def dealiased(self):
        return Field(self.grid, np.where(self.grid.dealias_mask, self.coef, 0.0))

    def alpha_times(self):
        """Pointwise multiplication by the centered coordinate array."""
        return Field.from_values(self.grid, self.grid.alpha * self.values)

    # norms and pairings ---------------------------------------------------

    def l2(self):
        return math.sqrt(self.grid.length * float(np.sum(np.abs(self.coef) ** 2)))

    def linf(self):
        return float(np.max(np.abs(self.values)))

    def lp(self, p):
        v = np.abs(self.values) ** p
        return float((np.mean(v) * self.grid.length) ** (1.0 / p))

    def integral(self):
        return self.grid.length * self.mean()

    def inner(self, other):
        """Complex L2 pairing  int u conj(v) d(alpha)."""
        self._check(other)
        return self.grid.length * complex(np.vdot(other.coef, self.coef))

    def evaluate_at(self, points):
        """Evaluate the trigonometric interpolant at arbitrary alpha values."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        phases = np.exp(1j * np.outer(pts, self.grid.k))
        out = phases @ self.coef
        return out if np.ndim(points) else complex(out[0])


def project_neg(u):
    """Projector P onto negative frequencies; the k = 0 mode is dropped."""
    coef = np.where(u.grid.neg, u.coef, 0.0)
    return Field(u.grid, coef)


def pos_leakage(u):
    """Relative magnitude of content at k >= 0; zero for the holomorphic class."""
    amp = np.abs(u.coef)
    top = float(np.max(amp[~u.grid.neg], initial=0.0))
    scale = float(np.max(amp, initial=0.0))
    return top / scale if scale > 0 else 0.0


def frac_deriv(u, s):
    """Homogeneous multiplier |k|^s.  |D|^0 is the identity minus the mean."""
    grid = u.grid
    if s < 0:
        scale = float(np.max(np.abs(u.coef), initial=0.0))
        if abs(u.mean()) > 1e-13 * max(scale, 1e-300):
            raise NegativePowerOnMean("|D|^s with s < 0 needs a zero-mean field")
    mult, h = grid.abs_k_power(s), grid.n // 2
    coef = np.empty_like(u.coef)
    np.multiply(u.coef[:h], mult[:h], out=coef[:h])
    np.multiply(u.coef[h:], mult[h:0:-1], out=coef[h:])
    return Field(grid, coef)


def pair_sobolev(pair, s):
    """Norm of (w, r) with first slot measured in L2 and second in H^(1/2),
    both weighted by |k|^s."""
    w, r = pair
    ws = frac_deriv(w, s)
    rs = frac_deriv(r, s + 0.5)
    return math.sqrt(ws.l2() ** 2 + rs.l2() ** 2)


# serialization ------------------------------------------------------------

def write_field(fh, u):
    """Columnar text dump: a header with the grid data, then one row per mode in
    fft order, the big-endian IEEE-754 bits of the real and the imaginary part as
    two 16-digit lowercase hex words, a space between and a newline after (34
    characters), so the text reads back exactly (-0.0, subnormals, inf, nan)."""
    g = u.grid
    fh.write(f"# length={g.length!r} n={g.n} dealias={g.dealias!r}\n")
    rows = bytearray(u.coef.astype(">c16").tobytes().hex(" ", 8) + "\n", "ascii")
    rows[33::34] = b"\n" * g.n  # every other space ends a row
    fh.write(rows.decode("ascii"))


def read_field(fh, grid=None):
    """The field `write_field` wrote; reads its header and the 34 n characters
    of its rows, no further, and raises `ValueError` on a header without the
    grid data or naming a grid other than `grid`, or rows cut short or not of
    that form."""
    header = fh.readline().split()
    meta = dict(item.split("=") for item in header[1:])
    try:
        g = GridSpec(float(meta["length"]), int(meta["n"]), float(meta["dealias"]))
    except KeyError as exc:
        raise ValueError(f"field header without {exc.args[0]}") from None
    if grid not in (None, g):
        raise ValueError(f"field header names {g}, not {grid}")
    text = fh.read(34 * g.n)
    raw, bits = text.encode("ascii"), bytes.fromhex(text)  # fromhex skips whitespace
    if len(bits) != 16 * g.n or raw[16::34] != b" " * g.n or raw[33::34] != b"\n" * g.n:
        raise ValueError(f"expected {g.n} rows of two 16-digit hex words")
    return Field(grid or g, np.frombuffer(bits, ">c16").astype(complex))
