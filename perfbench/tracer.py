"""Span tracer and transform counter for the traced benchmark run.

`Tracer.install()` wraps, from outside the package, every public module-level
function of the traced `holoww` modules, the constructors of the state
classes, the LP block symbol method, and the transform functions of
`numpy.fft` (and `scipy.fft` when it is importable).  A function is rebound
at every name a caller resolves: each module global that refers to it (so
`holoww.normalform.para` is wrapped as well as `holoww.paradiff.para`) and
each value of a module-level dict (the `suites.SUITES` table).
`Tracer.uninstall()` puts every original object back.

Each call records one span `(id, name, start, end, parent id, transforms)`.
Spans stay in memory until `write()` stores them; `Spans.load()` reads a
stored file back and derives counts, inclusive and self times from it.  Transform spans carry
the number of 1-D transforms the call performs (a batched `ifft(axis=1)` of
a `(b, n)` array counts `b`), and a transform called from inside another
transform is not counted again.
"""

import functools
import importlib
import inspect
import itertools
import json
import sys
import time

import numpy as np

MODULES = ("grid", "lp", "paradiff", "dynamics", "normalform", "packets",
           "diagnostics", "runner", "suites")
CLASS_INITS = (("dynamics", "WaveState"), ("dynamics", "DiffState"))
METHODS = (("lp", "LPBlock", "symbol"),)
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_ND = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
FFT_PREFIX = "fft."

ORIGINAL = "__perfbench_original__"


def transforms_1d(args, kwargs):
    """Number of 1-D transforms of a one-axis call (`fft(x, n, axis)`)."""
    x = np.asarray(args[0])
    if x.ndim == 0:
        return 1
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    return x.size // max(x.shape[axis], 1)


def transforms_nd(default_axes):
    """Counter for a multi-axis call (`fftn(x, s, axes)`): one 1-D transform
    per line along each transformed axis."""

    def count(args, kwargs):
        x = np.asarray(args[0])
        if x.ndim == 0:
            return 1
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            axes = default_axes if default_axes is not None else range(x.ndim)
        return sum(x.size // max(x.shape[ax], 1) for ax in axes)

    return count


class Tracer:
    """In-memory span recorder that patches the traced package in place."""

    def __init__(self):
        self.records = []
        self._stack = [-1]
        self._ids = itertools.count()
        self._patches = []
        self._in_fft = False

    # wrapping -------------------------------------------------------------

    def wrap(self, name, fn):
        records, stack, ids = self.records, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.append((sid, name, start, end, parent, 0))

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def wrap_transform(self, name, fn, count):
        records, stack, ids = self.records, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_fft:
                return fn(*args, **kwargs)
            weight = count(args, kwargs)
            sid = next(ids)
            parent = stack[-1]
            self._in_fft = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._in_fft = False
                records.append((sid, name, start, end, parent, weight))

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    # install / uninstall ---------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"holoww.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
        for mod in [m for n, m in sorted(sys.modules.items())
                    if n == "holoww" or n.startswith("holoww.")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._patch(obj, key, wrappers[val])
        for short, cls_name in CLASS_INITS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, "__init__", self.wrap(f"{short}.{cls_name}", cls.__init__))
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
        for modname in FFT_MODULES:
            try:
                fftmod = importlib.import_module(modname)
            except ImportError:
                continue
            for fname in FFT_1D + FFT_ND:
                fn = vars(fftmod).get(fname)
                if fn is None:
                    continue
                if fname in FFT_1D:
                    count = transforms_1d
                else:
                    count = transforms_nd((-2, -1) if fname.endswith("2") else None)
                self._patch(fftmod, fname,
                            self.wrap_transform(f"{FFT_PREFIX}{fname}", fn, count))
        return self

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # output ------------------------------------------------------------------

    def write(self, path):
        """Store the spans as arrays (`.npz`) plus the table of names."""
        names = sorted({r[1] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        recs = sorted(self.records)
        np.savez(
            path,
            names=np.array(json.dumps(names)),
            sid=np.array([r[0] for r in recs], dtype=np.int64),
            name=np.array([index[r[1]] for r in recs], dtype=np.int64),
            start=np.array([r[2] for r in recs], dtype=float),
            end=np.array([r[3] for r in recs], dtype=float),
            parent=np.array([r[4] for r in recs], dtype=np.int64),
            transforms=np.array([r[5] for r in recs], dtype=np.int64),
        )


def wrapped_objects():
    """Every wrapper reachable from a `holoww` or transform module (self-check)."""
    found = []
    for n, mod in sorted(sys.modules.items()):
        if n != "holoww" and not n.startswith("holoww.") and n not in FFT_MODULES:
            continue
        for name, obj in vars(mod).items():
            if hasattr(obj, ORIGINAL):
                found.append(f"{n}.{name}")
            elif isinstance(obj, dict):
                found += [f"{n}.{name}[{k!r}]" for k, v in obj.items() if hasattr(v, ORIGINAL)]
            elif inspect.isclass(obj):
                found += [f"{n}.{name}.{k}" for k, v in vars(obj).items() if hasattr(v, ORIGINAL)]
    return found


# analysis ----------------------------------------------------------------------

class Spans:
    """Spans of one traced operation, indexed by span id."""

    def __init__(self, names, name, start, end, parent, transforms):
        self.names = names
        self.name = name
        self.dur = end - start
        self.parent = parent
        self.transforms = transforms
        has_parent = parent >= 0
        child = np.zeros(len(name))
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    @classmethod
    def load(cls, path):
        with np.load(path) as z:
            names = json.loads(str(z["names"]))
            sid = z["sid"]
            if not np.array_equal(sid, np.arange(len(sid))):
                raise ValueError(f"{path}: span ids are not contiguous")
            return cls(names, z["name"], z["start"], z["end"], z["parent"], z["transforms"])

    def ids(self, *names):
        """Indices of the spans with any of the given names."""
        codes = [self.names.index(n) for n in names if n in self.names]
        return np.flatnonzero(np.isin(self.name, codes))

    def count(self, *names):
        return len(self.ids(*names))

    def durations(self, *names):
        return self.dur[self.ids(*names)]

    def total(self, *names):
        return float(np.sum(self.durations(*names)))

    def with_prefix(self, prefix):
        """Boolean mask of the spans whose name starts with `prefix`."""
        codes = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name, codes)

    def self_total(self, prefix):
        return float(np.sum(self.self_time[self.with_prefix(prefix)]))

    def under(self, ancestor):
        """Boolean mask: span has a span named `ancestor` above it."""
        flag = np.zeros(len(self.name), dtype=bool)
        if ancestor not in self.names:
            return flag
        code = self.names.index(ancestor)
        for i, p in enumerate(self.parent):
            if p >= 0:
                flag[i] = flag[p] or self.name[p] == code
        return flag

    def counts(self):
        """Calls per span name, transforms counted as 1-D transforms."""
        out = {}
        for code, n in enumerate(self.names):
            sel = self.name == code
            out[n] = int(np.sum(self.transforms[sel])) if n.startswith(FFT_PREFIX) else int(np.sum(sel))
        return out
