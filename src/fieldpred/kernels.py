"""Distance kernels and lead certification.

Every kernel is defined on the matching distance d >= 0 (at most the
table's total weight) and maps it to a positive, strictly decreasing
entry transform score.
Working on the distance (complement) side keeps large tables out of
overflow territory: the perfect-match value is the largest one a kernel
ever produces.

Kinds
-----
=====================  ====================================================
pow_2                  2^(-d)
pow_e                  e^(-d)
gauss                  e^(-d^2)
bridge                 mld^(-d)
spliced                base(d) for d > 0, lifted to mld * base(1) at d = 0
adj_pow_2              1 / (2^d + adrez), adrez = -(mld - 2)/(mld - 1)
inv_additive_residue   1 / (adrez + grow(d)) for a named growth function,
                       adrez chosen so the perfect/almost-perfect ratio
                       equals mld
newton                 1 / (1/mld + d^2)
decay_a                mld^(-H(d)),  H(d) = 1/1 + 1/2 + ... + 1/d
decay_b                mld^(-Q(d)),  Q(d) = 1/1 + 1/4 + ... + 1/d^2
=====================  ====================================================

H and Q extend to non-integer d by linear interpolation between integer
arguments. ``mld`` defaults to the number of training entries, which is
exactly the lead a kernel needs so one extra perfect match outweighs
every almost-perfect entry combined (see ``certify_lead``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import _is_count, _is_finite_real
from .errors import KernelError

GROWTH_KINDS = ("pow_2", "pow_e", "square", "linear")

#: Kinds whose lead is set directly by mld; these require mld > 1.
_LEAD_KINDS = frozenset({"bridge", "spliced", "adj_pow_2", "inv_additive_residue", "decay_a", "decay_b"})

#: Kinds with no lead at all: their shape never reads mld.
_LEADLESS_KINDS = frozenset({"pow_2", "pow_e", "gauss"})

_SPLICED_BASE = "a spliced kernel's base cannot itself be spliced"

KERNEL_FORMULAS = {
    "pow_2": "2^(-d)",
    "pow_e": "e^(-d)",
    "gauss": "e^(-d^2)",
    "bridge": "mld^(-d)",
    "spliced": "base(d) for d > 0, mld*base(1) at d = 0",
    "inv_additive_residue": "1/(adrez + grow(d))",
    "adj_pow_2": "1/(2^d + adrez), adrez = -(mld-2)/(mld-1)",
    "newton": "1/(1/mld + d^2)",
    "decay_a": "mld^(-(1/1 + 1/2 + ... + 1/d))",
    "decay_b": "mld^(-(1/1 + 1/4 + ... + 1/d^2))",
}

KERNEL_KINDS = tuple(KERNEL_FORMULAS)


#: Per power, the longest cumulative table built so far.
_CUMSUMS: dict[int, np.ndarray] = {}

#: Largest distance a decay kernel takes: its table holds one sum per whole
#: distance, so a larger one would ask for more memory than a scan is worth.
_MAX_DECAY_DISTANCE = 1 << 24


def _recip_power_cumsum(n: int, power: int) -> np.ndarray:
    """[0, sum_{i<=1} 1/i^p, sum_{i<=2} 1/i^p, ...] up to i = n.

    One table per power, rebuilt only when a longer one is asked for and
    sliced otherwise: a cumsum prefix does not depend on its length, so
    every value keeps its bits.
    """
    table = _CUMSUMS.get(power)
    if table is None or table.size <= n:
        i = np.arange(1, n + 1, dtype=np.float64)
        table = _CUMSUMS[power] = np.concatenate(([0.0], np.cumsum(1.0 / i**power)))
    return table[: n + 1]


def _fading_exponent(d: np.ndarray, power: int) -> np.ndarray:
    """H(d) (power=1) or Q(d) (power=2), linearly interpolated between integers."""
    # Checked as a float: the int64 cast below wraps past 2^63.
    top = float(d.max(initial=0.0))
    if not top <= _MAX_DECAY_DISTANCE:
        raise KernelError(f"decay kernels take distances up to {_MAX_DECAY_DISTANCE}, got {top}: "
                          "the attribute weights are too large for them")
    base = np.floor(d)
    idx = base.astype(np.int64)
    table = _recip_power_cumsum(int(idx.max(initial=0)), power)
    return table[idx] + (d - base) / (idx + 1.0) ** power


def _grow(kind: str, d: np.ndarray) -> np.ndarray:
    if kind == "pow_2":
        return np.exp2(d)
    if kind == "pow_e":
        return np.exp(d)
    if kind == "square":
        return d * d
    return np.asarray(d, dtype=np.float64)  # linear


@dataclass(frozen=True)
class Kernel:
    """A distance kernel: its kind and its lead ``mld``.

    The residue kinds derive ``adrez`` from ``mld`` (and the growth
    function) so that eval(0)/eval(1) = mld; it is never set directly. For
    inv_additive_residue that gives
    adrez = (grow(1)/mld - grow(0)) / (1 - 1/mld).

    ``grow_kind`` belongs to inv_additive_residue alone and ``base`` to
    spliced alone. A spliced kernel lifts its base's perfect-match value to
    mld * base(1) and leaves d > 0 alone, which grafts a convergence-grade
    lead onto any base shape: the perfect/almost-perfect ratio is exactly
    mld. A spliced base is never itself spliced.
    """

    kind: str
    mld: float
    adrez: float | None = field(init=False, default=None)
    grow_kind: str | None = None
    base: "Kernel | None" = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise KernelError(f"unknown kernel kind {self.kind!r}")
        for name, owner in (("grow_kind", "inv_additive_residue"), ("base", "spliced")):
            if getattr(self, name) is not None and self.kind != owner:
                raise KernelError(f"{self.kind} kernel takes no {name}; only {owner} reads one")
        if not _is_finite_real(self.mld):
            raise KernelError(f"kernel mld must be a finite real, got {self.mld!r}")
        object.__setattr__(self, "mld", float(self.mld))
        floor = 1 if self.kind in _LEAD_KINDS else 0
        if self.mld <= floor:
            raise KernelError(f"{self.kind} needs mld > {floor}, got {self.mld}")
        if self.kind == "spliced":
            if not isinstance(self.base, Kernel):
                raise KernelError(f"spliced kernel needs a base kernel, got {self.base!r}")
            if self.base.kind == "spliced":
                raise KernelError(_SPLICED_BASE)
        if self.kind == "adj_pow_2":
            object.__setattr__(self, "adrez", -(self.mld - 2.0) / (self.mld - 1.0))
        elif self.kind == "inv_additive_residue":
            if self.grow_kind not in GROWTH_KINDS:
                raise KernelError(f"unknown growth function {self.grow_kind!r}")
            g0 = float(_grow(self.grow_kind, np.float64(0.0)))
            g1 = float(_grow(self.grow_kind, np.float64(1.0)))
            object.__setattr__(self, "adrez", (g1 / self.mld - g0) / (1.0 - 1.0 / self.mld))
        # Every kind is largest at d = 0; for the residue kinds this is also
        # where a rounded-away residue drives the denominator to zero or below.
        with np.errstate(all="ignore"):
            sepm = float(self.evaluate(0.0))
        if not (np.isfinite(sepm) and sepm > 0.0):
            raise KernelError(f"{self.kind} kernel value at d = 0 is {sepm}, not finite and positive: "
                              f"its denominator is nonpositive or mld {self.mld} is too large")

    def evaluate(self, d):
        """Kernel value at distance d (scalar or ndarray). No domain check."""
        d = np.asarray(d, dtype=np.float64)
        kind = self.kind
        if kind == "pow_2":
            return np.exp2(-d)
        if kind == "pow_e":
            return np.exp(-d)
        if kind == "gauss":
            return np.exp(-(d * d))
        if kind == "bridge":
            return np.power(self.mld, -d)
        if kind == "spliced":
            return np.where(d == 0.0, self.mld * self.base.evaluate(1.0), self.base.evaluate(d))
        if kind == "adj_pow_2":
            return 1.0 / (np.exp2(d) + self.adrez)
        if kind == "inv_additive_residue":
            return 1.0 / (self.adrez + _grow(self.grow_kind, d))
        if kind == "newton":
            return 1.0 / (1.0 / self.mld + d * d)
        if kind == "decay_a":
            return np.power(self.mld, -_fading_exponent(d, 1))
        if kind == "decay_b":
            return np.power(self.mld, -_fading_exponent(d, 2))
        raise KernelError(f"unknown kernel kind {kind!r}")


@dataclass(frozen=True)
class LeadCertificate:
    """Perfect-match score, almost-perfect score, and the adversarial bound.

    ``certified`` means sepm strictly exceeds maxsap = (n_entries - 1) * seap:
    a single extra perfect match then outvotes every almost-perfect entry the
    rest of the table could possibly contribute.
    """

    sepm: float
    seap: float
    maxsap: float
    certified: bool

    def __post_init__(self):
        if not (self.sepm >= self.seap > 0.0):
            raise KernelError("certificate requires sepm >= seap > 0")


def make_kernel(kind: str, n_entries: int, mld_override: float | None = None) -> Kernel:
    """Build a kernel for a table of ``n_entries`` rows.

    ``mld_override`` replaces the default lead (the entry count); it must
    exceed 1, and pow_2, pow_e and gauss, which have no lead, refuse it.
    """
    if not (_is_count(n_entries) and (mld_override is None or _is_finite_real(mld_override))):
        raise KernelError(f"make_kernel takes a positive integer n_entries and a finite real mld_override, "
                          f"got {n_entries!r} and {mld_override!r}")
    try:
        mld = float(n_entries if mld_override is None else mld_override)
    except OverflowError:
        raise KernelError("kernel lead is too large for a float") from None
    if mld_override is not None:
        if kind in _LEADLESS_KINDS:
            raise KernelError(f"{kind} kernel has no lead, so it takes no mld_override")
        if mld_override <= 1:
            raise KernelError(f"mld_override must exceed 1, got {mld_override}")
    elif n_entries < 2 and kind in ("adj_pow_2", "inv_additive_residue"):
        raise KernelError(f"{kind} is degenerate for a single-entry table (lead {mld} <= 1)")
    elif n_entries < 2 and kind in _LEAD_KINDS:
        # mld = 1 would flatten the kernel; a 1-row table still gets a
        # strictly decreasing one.
        mld = 2.0
    if kind == "spliced":
        return Kernel("spliced", mld, base=make_kernel("pow_2", n_entries))
    if kind == "inv_additive_residue":
        return Kernel("inv_additive_residue", mld, grow_kind="pow_2")
    return Kernel(kind, mld)


def certify_lead(kernel: Kernel, n_entries: int) -> LeadCertificate:
    """Check sepm > (n_entries - 1) * seap, the worst-case lead condition."""
    if not _is_count(n_entries):
        raise KernelError(f"n_entries must be a positive integer, got {n_entries!r}")
    sepm = float(kernel.evaluate(0.0))
    seap = float(kernel.evaluate(1.0))
    try:
        maxsap = (n_entries - 1) * seap
    except OverflowError:
        raise KernelError("n_entries is too large to certify a lead for") from None
    return LeadCertificate(sepm=sepm, seap=seap, maxsap=maxsap, certified=sepm > maxsap)


def kernel_to_dict(kernel: Kernel) -> dict:
    payload: dict = {"kind": kernel.kind, "mld": kernel.mld}
    if kernel.grow_kind is not None:
        payload["grow_kind"] = kernel.grow_kind
    if kernel.base is not None:
        payload["base"] = kernel_to_dict(kernel.base)
    return payload


def kernel_from_dict(payload: dict) -> Kernel:
    """Rebuild a kernel from its descriptor. No refit: the stored mld is final,
    and a residue kernel's ``adrez`` is derived from it. Other keys are ignored.
    """
    if not isinstance(payload, dict) or "kind" not in payload:
        raise KernelError("kernel descriptor must be an object with a 'kind'")
    base = payload.get("base")
    if base is not None and payload["kind"] == "spliced":
        # Checked before recursing, so a spliced chain of any depth stops here.
        if isinstance(base, dict) and base.get("kind") == "spliced":
            raise KernelError(_SPLICED_BASE)
        base = kernel_from_dict(base)
    return Kernel(payload["kind"], payload.get("mld"), grow_kind=payload.get("grow_kind"), base=base)
