"""Per-layer spans around qpositivity's public functions, recorded from outside the package.

``install`` wraps each traced function in a span and rebinds the wrapper
everywhere the original is bound: module globals of every ``qpositivity``
module (``cli`` and ``identities`` import functions by name, ``qfactor``
binds ``cyclotomic`` at import) and the attributes of ``IntPoly``
(``__rmul__`` is an alias of ``__mul__``, ``__radd__`` of ``__add__``).
Wrappers return what the original returns, so traced output is unchanged.

Run as a script, it executes the qpos CLI once under tracing::

    PYTHONPATH=src python3 perfbench/tracing.py identities --max-n 4 --jobs 1 --no-timing

The CLI's stdout passes through untouched; one JSON object of per-layer
metrics is printed as the last line of stderr.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# Multiplications with operand area len(a) * len(b) at or above this count as
# large.  Fixed here, not read from polyring, so the split stays comparable
# when the library moves its own packed-multiplication threshold.
LARGE_AREA = 1024

# span name -> the per-span statistics reported for it.  Every span reports
# self_s; "calls" is the number of spans; the others are summed by wrappers.
SPANS: dict[str, tuple[str, ...]] = {
    "polyring.mul_large": ("calls", "self_s", "area"),
    "polyring.mul_small": ("calls", "self_s", "area"),
    "polyring.add": ("calls", "self_s"),
    "polyring.divide_exact": ("calls", "self_s"),
    "polyring.cyclotomic": ("calls", "self_s"),
    "qfactor.d_polynomial": ("calls", "self_s", "out_terms"),
    "qfactor.ratio_exponents": ("calls", "self_s"),
    "qfactor.q_factorial": ("calls", "self_s"),
    "qfactor.q_binomial": ("calls", "self_s"),
    "landau.landau_check": ("calls", "self_s"),
    "landau.enumerate_tuples": ("self_s",),
    "identities.positivity_report": ("calls", "self_s", "coeffs"),
    "identities.super_catalan_q_recurrence": ("self_s",),
    "identities.von_szily_q": ("self_s",),
    "identities.b_poly_recurrence": ("self_s",),
    "identities.chu_vandermonde_check": ("self_s",),
    "identities.e_main_check": ("self_s",),
    "identities.q_binomial_theorem_check": ("self_s",),
    "identities.r_poly": ("self_s",),
    "cli.main": ("self_s",),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced child reports, in SPANS order."""
    return [f"{span}.{stat}" for span, stats in SPANS.items() for stat in stats]


class Tracer:
    """Spans kept in memory in start order; self times are computed at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.sums: Counter[str] = Counter()
        self._stack = [-1]

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def metrics(self) -> dict[str, float]:
        """Every name of ``metric_names()`` with its value; spans never entered read 0."""
        per_span = self_times(self.names, self.starts, self.ends, self.parents)
        out: dict[str, float] = {}
        for span, stats in SPANS.items():
            calls, self_s = per_span.get(span, (0, 0.0))
            for stat in stats:
                if stat == "calls":
                    out[f"{span}.calls"] = calls
                elif stat == "self_s":
                    out[f"{span}.self_s"] = self_s
                else:
                    out[f"{span}.{stat}"] = self.sums[f"{span}.{stat}"]
        return out


def self_times(names, starts, ends, parents) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, total self time).

    A span's self time is its duration minus the part of its interval that
    the union of its child spans covers.  Spans must be listed in start order;
    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    count = len(names)
    covered = [0.0] * count
    frontier = list(starts)  # end of the union of each span's children so far
    for i in range(count):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], frontier[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    totals: dict[str, tuple[int, float]] = {}
    for i in range(count):
        calls, total = totals.get(names[i], (0, 0.0))
        totals[names[i]] = (calls + 1, total + (ends[i] - starts[i]) - covered[i])
    return totals


def _rebind(namespaces, original, wrapper) -> int:
    """Replace every binding of ``original`` in ``namespaces``; return how many."""
    bound = 0
    for owner in namespaces:
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, wrapper)
                bound += 1
    return bound


def _spanned(tracer: Tracer, name: str, fn, stat=None):
    """``fn`` inside a span; ``stat(args, result)`` is summed into ``name.<stat>``."""
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(index)
        if stat is not None:
            key, value = stat(args, result)
            tracer.sums[f"{name}.{key}"] += value
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every function named in SPANS wherever qpositivity binds it."""
    from qpositivity import cli, identities, landau, polyring, qfactor

    IntPoly = polyring.IntPoly
    namespaces = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "qpositivity"]
    namespaces.append(IntPoly)

    mul = IntPoly.__mul__
    begin, end, sums = tracer.begin, tracer.end, tracer.sums

    def traced_mul(self, other):
        area = len(self.coeffs) * (len(other.coeffs) if isinstance(other, IntPoly) else 1)
        name = "polyring.mul_large" if area >= LARGE_AREA else "polyring.mul_small"
        sums[name + ".area"] += area
        index = begin(name)
        try:
            return mul(self, other)
        finally:
            end(index)

    out_terms = lambda args, result: ("out_terms", len(result.coeffs))
    coeffs = lambda args, result: ("coeffs", len(args[0].coeffs))
    spans = {
        "polyring.add": (IntPoly.__add__, None),
        "polyring.divide_exact": (IntPoly.divide_exact, None),
        "polyring.cyclotomic": (polyring.cyclotomic, None),
        "qfactor.d_polynomial": (qfactor.d_polynomial, out_terms),
        "qfactor.ratio_exponents": (qfactor.ratio_exponents, None),
        "qfactor.q_factorial": (qfactor.q_factorial, None),
        "qfactor.q_binomial": (qfactor.q_binomial, None),
        "landau.landau_check": (landau.landau_check, None),
        "landau.enumerate_tuples": (landau.enumerate_tuples, None),
        "identities.positivity_report": (identities.positivity_report, coeffs),
        "identities.super_catalan_q_recurrence": (identities.super_catalan_q_recurrence, None),
        "identities.von_szily_q": (identities.von_szily_q, None),
        "identities.b_poly_recurrence": (identities.b_poly_recurrence, None),
        "identities.chu_vandermonde_check": (identities.chu_vandermonde_check, None),
        "identities.e_main_check": (identities.e_main_check, None),
        "identities.q_binomial_theorem_check": (identities.q_binomial_theorem_check, None),
        "identities.r_poly": (identities.r_poly, None),
        "cli.main": (cli.main, None),
    }
    if set(spans) | {"polyring.mul_large", "polyring.mul_small"} != set(SPANS):
        raise RuntimeError("SPANS and the wrapped functions disagree")
    wrappers = [(mul, traced_mul)]
    wrappers += [(fn, _spanned(tracer, name, fn, stat)) for name, (fn, stat) in spans.items()]
    for original, wrapper in wrappers:
        if not _rebind(namespaces, original, wrapper):
            raise RuntimeError(f"no binding found for {original!r}")


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from qpositivity import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
    print(json.dumps(tracer.metrics()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
