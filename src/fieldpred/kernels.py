"""Distance kernels and lead certification.

Every kernel is defined on the matching distance d in [0, total_weight]
and maps it to a positive, strictly decreasing entry transform score.
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

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

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


@lru_cache(maxsize=None)
def _recip_power_cumsum(n: int, power: int) -> np.ndarray:
    """[0, sum_{i<=1} 1/i^p, sum_{i<=2} 1/i^p, ...] up to i = n."""
    i = np.arange(1, n + 1, dtype=np.float64)
    return np.concatenate(([0.0], np.cumsum(1.0 / i**power)))


def _fading_exponent(d: np.ndarray, power: int, table_size: int) -> np.ndarray:
    """H(d) (power=1) or Q(d) (power=2), linearly interpolated between integers."""
    table = _recip_power_cumsum(table_size, power)
    base = np.floor(d)
    idx = base.astype(np.int64)
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
    """A distance kernel plus the weight span it was built for.

    The residue kinds derive ``adrez`` from ``mld`` (and the growth
    function) so that eval(0)/eval(1) = mld; it is never set directly.
    ``grow_kind`` belongs to inv_additive_residue alone and ``base`` to
    spliced alone; a spliced base is never itself spliced.
    """

    kind: str
    total_weight: float
    mld: float
    adrez: float | None = field(init=False, default=None)
    grow_kind: str | None = None
    base: "Kernel | None" = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise KernelError(f"unknown kernel kind {self.kind!r}")
        for name, owner in (("grow_kind", "inv_additive_residue"), ("base", "spliced")):
            if getattr(self, name) is not None and self.kind != owner:
                raise KernelError(f"{self.kind} kernel takes no {name}; only {owner} reads one")
        if self.total_weight <= 0:
            raise KernelError("kernel needs total_weight > 0")
        for name in ("mld", "scale"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and np.isfinite(value)):
                raise KernelError(f"kernel {name} must be a finite real, got {value!r}")
        if self.scale <= 0:
            raise KernelError("kernel scale must be positive")
        floor = 1 if self.kind in _LEAD_KINDS else 0
        if self.mld <= floor:
            raise KernelError(f"{self.kind} needs mld > {floor}, got {self.mld}")
        if self.kind == "spliced":
            if self.base is None:
                raise KernelError("spliced kernel needs a base kernel")
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
            out = np.exp2(-d)
        elif kind == "pow_e":
            out = np.exp(-d)
        elif kind == "gauss":
            out = np.exp(-(d * d))
        elif kind == "bridge":
            out = np.power(self.mld, -d)
        elif kind == "spliced":
            lifted = self.mld * self.base.evaluate(1.0)
            out = np.where(d == 0.0, lifted, self.base.evaluate(d))
        elif kind == "adj_pow_2":
            out = 1.0 / (np.exp2(d) + self.adrez)
        elif kind == "inv_additive_residue":
            out = 1.0 / (self.adrez + _grow(self.grow_kind, d))
        elif kind == "newton":
            out = 1.0 / (1.0 / self.mld + d * d)
        elif kind == "decay_a":
            out = np.power(self.mld, -_fading_exponent(d, 1, self._table_size()))
        elif kind == "decay_b":
            out = np.power(self.mld, -_fading_exponent(d, 2, self._table_size()))
        else:  # pragma: no cover - guarded by __post_init__
            raise KernelError(f"unknown kernel kind {kind!r}")
        return out * self.scale

    def _table_size(self) -> int:
        return int(np.ceil(self.total_weight)) + 2


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


def make_kernel(kind: str, n_entries: int, total_weight: float, mld_override: float | None = None) -> Kernel:
    """Build a kernel for a table of ``n_entries`` rows and the given weight span.

    ``mld_override`` replaces the default lead (the entry count); it must
    exceed 1, and pow_2, pow_e and gauss, which have no lead, refuse it.
    """
    if mld_override is not None:
        if kind in _LEADLESS_KINDS:
            raise KernelError(f"{kind} kernel has no lead, so it takes no mld_override")
        if mld_override <= 1:
            raise KernelError(f"mld_override must exceed 1, got {mld_override}")
        mld = float(mld_override)
    elif n_entries >= 2 or kind not in _LEAD_KINDS:
        mld = float(n_entries)
    elif kind in ("adj_pow_2", "inv_additive_residue"):
        raise KernelError(f"{kind} is degenerate for a single-entry table (lead {float(n_entries)} <= 1)")
    else:
        # mld = 1 would flatten the kernel; a 1-row table still gets a
        # strictly decreasing one.
        mld = 2.0
    if kind == "spliced":
        return splice(make_kernel("pow_2", n_entries, total_weight), mld)
    if kind == "inv_additive_residue":
        return inverse_additive_residue("pow_2", mld, total_weight)
    return Kernel(kind, float(total_weight), mld)


def splice(base: Kernel, mld: float) -> Kernel:
    """Lift a kernel's perfect-match value to mld * base(1), leave d > 0 alone.

    This grafts a convergence-grade lead onto any base shape: the spliced
    perfect/almost-perfect ratio is exactly mld.
    """
    return Kernel("spliced", base.total_weight, mld, base=base)


def inverse_additive_residue(grow_kind: str, mld: float, total_weight: float) -> Kernel:
    """Kernel 1/(adrez + grow(d)) with adrez solved so the lead equals mld.

    Setting eval(0)/eval(1) = mld gives
    adrez = (grow(1)/mld - grow(0)) / (1 - 1/mld).
    """
    return Kernel("inv_additive_residue", float(total_weight), mld, grow_kind=grow_kind)


def certify_lead(kernel: Kernel, n_entries: int) -> LeadCertificate:
    """Check sepm > (n_entries - 1) * seap, the worst-case lead condition."""
    if not isinstance(n_entries, (int, np.integer)) or n_entries < 1:
        raise KernelError("n_entries must be a positive integer")
    sepm = float(kernel.evaluate(0.0))
    seap = float(kernel.evaluate(1.0))
    maxsap = (n_entries - 1) * seap
    return LeadCertificate(sepm=sepm, seap=seap, maxsap=maxsap, certified=sepm > maxsap)


def with_scale(kernel: Kernel, factor: float) -> Kernel:
    """A copy of the kernel scaled by a positive constant.

    Scaling never changes winners or likelihoods; it exists to demonstrate
    and test that invariance.
    """
    if factor <= 0:
        raise KernelError("scale factor must be positive")
    return replace(kernel, scale=kernel.scale * factor)


def kernel_to_dict(kernel: Kernel) -> dict:
    payload: dict = {"kind": kernel.kind, "mld": kernel.mld}
    if kernel.grow_kind is not None:
        payload["grow_kind"] = kernel.grow_kind
    if kernel.base is not None:
        payload["base"] = kernel_to_dict(kernel.base)
    if kernel.scale != 1.0:
        payload["scale"] = kernel.scale
    return payload


def kernel_from_dict(payload: dict, total_weight: float) -> Kernel:
    """Rebuild a kernel from its descriptor. No refit: the stored mld is final.

    ``adrez`` is derived from mld; the key in older files is ignored.
    """
    if not isinstance(payload, dict) or "kind" not in payload:
        raise KernelError("kernel descriptor must be an object with a 'kind'")
    base = payload.get("base")
    if base is not None and payload["kind"] == "spliced":
        # Checked before recursing, so a spliced chain of any depth stops here.
        if isinstance(base, dict) and base.get("kind") == "spliced":
            raise KernelError(_SPLICED_BASE)
        base = kernel_from_dict(base, total_weight)
    try:
        mld, scale = float(payload["mld"]), float(payload.get("scale", 1.0))
    except (TypeError, ValueError, OverflowError):
        raise KernelError("kernel mld and scale must be finite reals") from None
    return Kernel(
        kind=payload["kind"],
        total_weight=float(total_weight),
        mld=mld,
        grow_kind=payload.get("grow_kind"),
        base=base,
        scale=scale,
    )
