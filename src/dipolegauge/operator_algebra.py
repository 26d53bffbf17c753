"""Exact algebra of normal-ordered polynomials in bosonic ladder operators.

A monomial is a pair of sorted mode-index tuples, (creators, annihilators),
standing for the normal-ordered product of those ladder operators.  Products
are rewritten into this canonical form with [a_i, a_j^dag] = delta_ij, so the
zero polynomial has an empty term map and equality checks are exact rather
than numerical.  A term is kept iff its coefficient is nonzero: only exact
zeros are dropped during canonicalization, so no absolute threshold makes the
result depend on the scale of the coefficients.

Two closed-form conjugation identities are provided for generator pairs whose
commutator is central, with a truncated-Fock oracle that checks them by numerical
exponentiation: it keeps each operator as the diagonals of its Fock matrix and
carries interior columns of e^(-sG) by Taylor steps, forming no dense matrix;
only a scale too long for Taylor steps takes one ``eigh`` of G's dense matrix.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import BchOrderViolationError, OracleTooLargeError

__all__ = [
    "OperatorPolynomial",
    "commutator",
    "is_central",
    "adjoint_action",
    "time_derivative_conjugation",
    "FockOracleConfig",
    "fock_matrix",
    "fock_adjoint_oracle",
    "fock_adjoint_oracle_scan",
]

# canonical monomial: (sorted creator modes, sorted annihilator modes)
Monomial = tuple[tuple[int, ...], tuple[int, ...]]

_SCALAR_KEY: Monomial = ((), ())


def _merge_sorted(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[int, ...]:
    if not t1:
        return t2
    if not t2:
        return t1
    return tuple(sorted(t1 + t2))


def _remove_counts(modes: tuple[int, ...], removed: Counter) -> tuple[int, ...]:
    if not removed:
        return modes
    left = Counter(modes)
    left.subtract(removed)
    return tuple(sorted(left.elements()))


def _mono_mul(m1: Monomial, m2: Monomial) -> dict[Monomial, float]:
    """Normal-ordered expansion of the monomial product m1 * m2.

    The uncontracted term, all creators then all annihilators, has weight 1;
    the contracted terms follow from _contractions.
    """
    full = (_merge_sorted(m1[0], m2[0]), _merge_sorted(m1[1], m2[1]))
    return {full: 1.0, **_contractions(m1, m2)}


def _contractions(m1: Monomial, m2: Monomial) -> dict[Monomial, float]:
    """Terms of the normal-ordered product m1 * m2 with at least one contraction.

    Only the annihilators of m1 meeting the creators of m2 need reordering.
    For each shared mode with p annihilators on the left and q creators on the
    right, commuting them through contributes j! C(p, j) C(q, j) for every
    contraction count j; distinct modes contribute independently, so the full
    weight is a product over shared modes.
    """
    cre1, ann1 = m1
    cre2, ann2 = m2
    if not ann1 or not cre2:
        return {}

    # dominant case in the large generators: one annihilator against one creator
    if len(ann1) == 1 and len(cre2) == 1:
        return {(cre1, ann2): 1.0} if ann1[0] == cre2[0] else {}

    ann_counts = Counter(ann1)
    cre_counts = Counter(cre2)
    shared = sorted(set(ann_counts) & set(cre_counts))

    per_mode = []
    for mode in shared:
        p, q = ann_counts[mode], cre_counts[mode]
        options = [
            (mode, j, math.factorial(j) * math.comb(p, j) * math.comb(q, j))
            for j in range(min(p, q) + 1)
        ]
        per_mode.append(options)

    out: dict[Monomial, float] = {}
    for combo in itertools.product(*per_mode):
        weight = 1.0
        contracted = Counter()
        for mode, j, w in combo:
            weight *= w
            if j:
                contracted[mode] = j
        if not contracted:
            continue
        cre = _merge_sorted(cre1, _remove_counts(cre2, contracted))
        ann = _merge_sorted(_remove_counts(ann1, contracted), ann2)
        key = (cre, ann)
        out[key] = out.get(key, 0.0) + weight
    return out


class OperatorPolynomial:
    """Finite complex combination of normal-ordered ladder monomials.

    Instances are immutable in intent: the term map is exposed read-only and
    every operation returns a new polynomial.  Addition, scalar and operator
    multiplication, negation and the adjoint are supported through the usual
    operators plus :meth:`dagger`.

    Operator products expand every term pair, so they are meant for
    small-algebra checks, ``bch-check`` and the Fock oracle; the lattice-sized
    pair energies and field shifts of :mod:`dipolegauge.gauge_dipole` contract
    the c-number A-E kernel instead.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        merged: dict[Monomial, complex] = {}
        if terms:
            for (cre, ann), coeff in dict(terms).items():
                key = (self._as_modes(cre), self._as_modes(ann))
                merged[key] = merged.get(key, 0j) + complex(coeff)
        self._terms = self._from_canonical(merged)._terms

    @staticmethod
    def _as_modes(modes) -> tuple[int, ...]:
        out = tuple(sorted(int(m) for m in modes))
        if any(m < 0 for m in out):
            raise ValueError(f"mode indices must be >= 0, got {out}")
        return out

    @classmethod
    def _from_canonical(cls, terms: dict[Monomial, complex]) -> "OperatorPolynomial":
        # internal fast path: keys are already sorted tuples of ints.  The
        # algebra's one zero rule lives here: a term is kept iff its
        # coefficient is nonzero
        poly = cls.__new__(cls)
        poly._terms = {k: v for k, v in terms.items() if v != 0}
        return poly

    @classmethod
    def zero(cls) -> "OperatorPolynomial":
        return cls._from_canonical({})

    @classmethod
    def scalar(cls, value) -> "OperatorPolynomial":
        return cls._from_canonical({_SCALAR_KEY: complex(value)})

    @classmethod
    def annihilation(cls, mode: int) -> "OperatorPolynomial":
        return cls({((), (mode,)): 1.0})

    @classmethod
    def creation(cls, mode: int) -> "OperatorPolynomial":
        return cls({((mode,), ()): 1.0})

    @classmethod
    def degree_one(cls, ann_coeffs, cre_coeffs) -> "OperatorPolynomial":
        """Build sum_i ann[i] a_i + cre[i] a_i^dag from mode -> coefficient maps.

        This is the bulk constructor for field generators, which carry one
        term per lattice channel; the keys are canonical by construction, so
        it skips the merging of ``__init__``.
        """
        terms: dict[Monomial, complex] = {}
        for mode, coeff in ann_coeffs.items():
            terms[((), (int(mode),))] = complex(coeff)
        for mode, coeff in cre_coeffs.items():
            terms[((int(mode),), ())] = complex(coeff)
        if any(m < 0 for (cre, ann) in terms for m in (cre or ann)):
            raise ValueError("mode indices must be >= 0")
        return cls._from_canonical(terms)

    @property
    def terms(self):
        """Read-only view of the canonical term map."""
        return MappingProxyType(self._terms)

    @property
    def degree(self) -> int:
        """Largest total ladder count over terms; 0 for scalars and zero."""
        if not self._terms:
            return 0
        return max(len(cre) + len(ann) for cre, ann in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def scalar_part(self) -> complex:
        return self._terms.get(_SCALAR_KEY, 0j)

    def modes(self) -> tuple[int, ...]:
        """Sorted mode indices appearing anywhere in the polynomial."""
        seen = set()
        for cre, ann in self._terms:
            seen.update(cre)
            seen.update(ann)
        return tuple(sorted(seen))

    def max_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            out[key] = out.get(key, 0j) + coeff
        return self._from_canonical(out)

    def __sub__(self, other):
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._from_canonical({k: -v for k, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, OperatorPolynomial):
            out: dict[Monomial, complex] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    scale = c1 * c2
                    for mono, weight in _mono_mul(m1, m2).items():
                        out[mono] = out.get(mono, 0j) + scale * weight
            return self._from_canonical(out)
        if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
            z = complex(other)
            return self._from_canonical({k: v * z for k, v in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
            return self.__mul__(other)
        return NotImplemented

    def dagger(self) -> "OperatorPolynomial":
        """Adjoint: swap creators with annihilators, conjugate coefficients."""
        return self._from_canonical(
            {(ann, cre): np.conj(c) for (cre, ann), c in self._terms.items()}
        )

    def is_anti_hermitian(self, tol: float = 1e-12) -> bool:
        """True when P^dag + P vanishes to ``tol`` relative to the largest coefficient."""
        residual = self.dagger() + self
        return residual.max_coeff() <= tol * self.max_coeff()

    def __repr__(self):
        if not self._terms:
            return "OperatorPolynomial(0)"
        parts = []
        for (cre, ann), coeff in itertools.islice(sorted(self._terms.items()), 6):
            ladder = "".join(f"c{m}" for m in cre) + "".join(f"a{m}" for m in ann)
            parts.append(f"({coeff:.6g})*{ladder or '1'}")
        suffix = ", ..." if len(self._terms) > 6 else ""
        return f"OperatorPolynomial({' + '.join(parts)}{suffix})"


def commutator(p: OperatorPolynomial, q: OperatorPolynomial) -> OperatorPolynomial:
    """Canonical form of [P, Q] = PQ - QP.

    Terms of Q are indexed by the modes they touch so each term of P is paired
    only with candidates it can fail to commute with; monomial pairs with no
    mode shared between annihilators and creators cancel identically and are
    never expanded.  The other pairs contribute only their contracted terms:
    the uncontracted term is the same monomial with weight 1 in PQ and in QP,
    so it cancels.  For two degree-1 polynomials over n channels this costs
    O(n) rather than O(n^2), for small-algebra checks, ``bch-check`` and the
    Fock oracle; lattice-sized field shifts contract the A-E kernel in gauge_dipole.
    """
    if p.is_zero or q.is_zero:
        return OperatorPolynomial.zero()

    by_cre: dict[int, list[Monomial]] = {}
    by_ann: dict[int, list[Monomial]] = {}
    for mono in q.terms:
        cre, ann = mono
        for mode in set(cre):
            by_cre.setdefault(mode, []).append(mono)
        for mode in set(ann):
            by_ann.setdefault(mode, []).append(mono)

    q_terms = q.terms
    out: dict[Monomial, complex] = {}
    for mono_p, coeff_p in p.terms.items():
        cre_p, ann_p = mono_p
        candidates: dict[Monomial, None] = {}
        for mode in set(ann_p):
            for mono_q in by_cre.get(mode, ()):
                candidates[mono_q] = None
        for mode in set(cre_p):
            for mono_q in by_ann.get(mode, ()):
                candidates[mono_q] = None
        for mono_q in candidates:
            scale = coeff_p * q_terms[mono_q]
            for mono, weight in _contractions(mono_p, mono_q).items():
                out[mono] = out.get(mono, 0j) + scale * weight
            for mono, weight in _contractions(mono_q, mono_p).items():
                out[mono] = out.get(mono, 0j) - scale * weight
    return OperatorPolynomial._from_canonical(out)


def is_central(p: OperatorPolynomial) -> bool:
    """True iff P is a pure scalar (degree 0), hence commutes with everything."""
    return p.degree == 0


def _checked_inner(x: OperatorPolynomial, y: OperatorPolynomial) -> OperatorPolynomial:
    inner = commutator(x, y)
    nested = commutator(x, inner)
    if not nested.is_zero:
        raise BchOrderViolationError(
            f"[X, [X, Y]] does not vanish (residual degree {nested.degree}, "
            f"max coefficient {nested.max_coeff():.3e}); the closed-form "
            "conjugation identities do not apply to this pair"
        )
    return inner


def adjoint_action(x: OperatorPolynomial, y: OperatorPolynomial) -> OperatorPolynomial:
    """Conjugation e^X Y e^(-X) under a central commutator.

    When [X, [X, Y]] = 0 the series Y + [X, Y] + [X, [X, Y]]/2 + ... collapses
    after its second term, so the exact result is Y + [X, Y].  The nested
    commutator is computed and must vanish identically, otherwise
    BchOrderViolationError is raised.
    """
    return y + _checked_inner(x, y)


def time_derivative_conjugation(
    x: OperatorPolynomial, y: OperatorPolynomial
) -> OperatorPolynomial:
    """Flow average of the conjugation: integral over s in [0, 1] of e^(sX) Y e^(-sX).

    Under the same central-commutator condition as :func:`adjoint_action`, the
    integrand is Y + s [X, Y], so the integral is Y + [X, Y] / 2.  This is the
    combination generated when the exponent of a time-dependent unitary is
    differentiated, where each power of X sheds one factor to the derivative
    at every position in the product.
    """
    return y + 0.5 * _checked_inner(x, y)


# largest dense dimension the truncated-Fock oracle will build
FOCK_DIM_CAP = 4096


@dataclass(frozen=True)
class FockOracleConfig:
    """Mode list and per-mode truncations for the dense Fock-space oracle.

    ``truncations`` may be given as a single int, applied to every mode.  The
    product of truncations is the dense matrix dimension and must stay at or
    below ``FOCK_DIM_CAP``; exceeding it raises OracleTooLargeError at
    construction, before any allocation.
    """

    modes: tuple[int, ...]
    truncations: tuple[int, ...]

    def __post_init__(self):
        modes = tuple(int(m) for m in self.modes)
        if not modes:
            raise ValueError("at least one mode is required")
        if any(m < 0 for m in modes):
            raise ValueError(f"mode indices must be >= 0, got {modes}")
        if len(set(modes)) != len(modes):
            raise ValueError(f"duplicate mode indices: {modes}")
        if isinstance(self.truncations, (int, np.integer)):
            truncations = (int(self.truncations),) * len(modes)
        else:
            truncations = tuple(int(t) for t in self.truncations)
        if len(truncations) != len(modes):
            raise ValueError(
                f"{len(modes)} modes but {len(truncations)} truncations"
            )
        if any(t < 2 for t in truncations):
            raise ValueError(f"every truncation must be >= 2, got {truncations}")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "truncations", truncations)
        if self.dimension > FOCK_DIM_CAP:
            raise OracleTooLargeError(
                f"truncated-Fock dimension {self.dimension} exceeds the cap "
                f"{FOCK_DIM_CAP}"
            )

    @property
    def dimension(self) -> int:
        return math.prod(self.truncations)


def _lowering_power(truncation: int, power: int, transposed: bool = False) -> np.ndarray:
    """Weights w of a^power on one mode, a^power |k> = w[k] |k - power>, with
    the bits of np.linalg.matrix_power(a, power) (of matrix_power(a^dag,
    power)^T when ``transposed``): its products in its order, as a matmul of
    one-entry-per-column matrices rounds each entry's one product once."""

    def times(x, y):  # a^p a^q from (w_p, p) and (w_q, q)
        x, y = (y, x) if transposed else (x, y)
        return np.concatenate((np.zeros(y[1]), x[0]))[:truncation] * y[0], x[1] + y[1]

    z = (np.sqrt(np.arange(float(truncation))), 1)
    if power == 3:
        return times(times(z, z), z)[0]
    result = (np.ones(truncation), 0)  # multiplying by it is exact
    while power:
        power, bit = divmod(power, 2)
        if bit:
            result = times(result, z)
        z = times(z, z)
    return result[0]


def _diagonals(p: OperatorPolynomial, config: FockOracleConfig) -> dict[int, np.ndarray]:
    """P's truncated-Fock matrix as {offset row - col: weights}.

    A monomial, a product over ``config.modes`` (in their listed order) of
    (a^dag)^c a^n, sends per mode |k> to |k - n + c> with weight
    w_c[k - n + c] w_n[k] (``_lowering_power``), and the modes' weights multiply
    in np.kron's order, so it fills the diagonal at offset sum (c - n) * stride.
    Monomials sharing an offset add in term order.  Weight j of offset d is
    column j + max(0, -d).  P must touch only modes present in the config.
    """
    missing = set(p.modes()) - set(config.modes)
    if missing:
        raise ValueError(
            f"polynomial touches modes {sorted(missing)} absent from the "
            f"oracle config {config.modes}"
        )
    dim, out = config.dimension, {}
    for (cre, ann), coeff in p.terms.items():
        offset, weights = 0, np.ones(1)
        for mode, t in zip(config.modes, config.truncations):
            c, n = cre.count(mode), ann.count(mode)
            # off the truncation a weight is 0: w_n[k] below n, the appended 0 above
            raised = np.append(_lowering_power(t, c, transposed=True), 0.0)
            local = raised.take(np.arange(t) - n + c, mode="clip") * _lowering_power(t, n)
            offset = offset * t + c - n
            weights = np.multiply.outer(weights, local).ravel()
        if abs(offset) < dim:
            diagonal = out.setdefault(offset, np.zeros(dim - abs(offset), dtype=complex))
            diagonal += coeff * weights[max(0, -offset) :][: len(diagonal)]
    return out


def fock_matrix(p: OperatorPolynomial, config: FockOracleConfig) -> np.ndarray:
    """Dense matrix of P on the truncated multi-mode Fock space.

    It is written diagonal by diagonal from ``_diagonals``, so every entry has
    the bits of the sum over monomials of coeff times the Kronecker product of
    dense matrix_power blocks, and nothing dense is allocated but the output.
    P must touch only modes present in the config.
    """
    dim = config.dimension
    out = np.zeros((dim, dim), dtype=complex)
    for offset, weights in _diagonals(p, config).items():
        out.reshape(-1)[max(offset * dim, -offset) :: dim + 1][: len(weights)] = weights
    return out


def _apply(diagonals: dict[int, np.ndarray], v: np.ndarray, dim: int) -> np.ndarray:
    """P v for v the first len(v) rows of a block, the rest zero; only the
    rows that can be nonzero, len(v) plus P's largest offset, are formed."""
    rows = min(dim, len(v) + max([0, *diagonals]))
    out = np.zeros((rows, v.shape[1]), np.result_type(v, *diagonals.values()))
    for offset, weights in diagonals.items():
        lo, hi = max(0, -offset), min(len(v), dim - offset)
        if hi > lo:
            out[lo + offset : hi + offset] += weights[: hi - lo, None] * v[lo:hi]
    return out


def _norm_bound(diagonals: dict[int, np.ndarray], dim: int) -> float:
    """sqrt(||P||_1 ||P||_inf) >= ||P||_2, from the row sums of |P| and |P|^T."""
    ones = np.ones((dim, 1))
    rows = _apply({d: np.abs(w) for d, w in diagonals.items()}, ones, dim)
    cols = _apply({-d: np.abs(w) for d, w in diagonals.items()}, ones, dim)
    return math.sqrt(cols.max() * rows.max())


def _exp_action(diagonals: dict[int, np.ndarray], dim: int, h: float, v: np.ndarray):
    """e^(hG) v for G's diagonals and v the first len(v) rows of a block.

    Taylor steps as in Al-Mohy & Higham, "Computing the action of the matrix
    exponential", SIAM J. Sci. Comput. 33, 488 (2011), each stopped once two
    successive terms fall below 2^-53 of the sum.  A step of at most ``terms``
    stays on the rows it can reach, so it takes G's leading block on them, with
    its diagonal's mean mu applied apart as e^(t mu), and ||t G|| <= ``theta``.
    Unreached rows are never formed; the result ends at its last row above
    2^-106 of its largest entry.
    """
    theta, terms = 4.0, 40  # 4^40 / 40! < 2e-24; a step's rounding grows like e^4
    reach, dtype = max([0, *diagonals]), np.result_type(v, *diagonals.values())
    while h:
        span = min(dim, len(v) + terms * reach)
        lead = {d: w[: span - abs(d)] for d, w in diagonals.items() if abs(d) < span}
        mu = np.mean(lead.get(0, 0.0))
        lead = {d: w - mu if d == 0 else w for d, w in lead.items()}
        bound = _norm_bound(lead, span)
        t = h if bound * abs(h) <= theta else math.copysign(theta / bound, h)
        h -= t
        total = np.zeros((span, v.shape[1]), dtype)
        total[: len(v)] = term = v
        last = np.max(np.abs(v))
        for j in range(1, terms + 1):
            term = _apply({d: w * (t / j) for d, w in lead.items()}, term, span)
            total[: len(term)] += term
            size = np.max(np.abs(term))
            if last + size <= 2.0**-53 * np.max(np.abs(total)):
                break
            last = size
        total *= np.exp(t * mu)
        peaks = np.max(np.abs(total), axis=1)
        v = total[: 1 + np.flatnonzero(peaks > 2.0**-106 * peaks.max())[-1]]
    return v


def fock_adjoint_oracle(
    x: OperatorPolynomial, y: OperatorPolynomial, config: FockOracleConfig
) -> np.ndarray:
    """Brute-force e^X Y e^(-X): :func:`fock_adjoint_oracle_scan` at scale 1.

    Trustworthy away from the truncation edge; compare an interior block only.
    """
    return fock_adjoint_oracle_scan(x, y, config, [1.0])[0]


def fock_adjoint_oracle_scan(
    generator: OperatorPolynomial,
    y: OperatorPolynomial,
    config: FockOracleConfig,
    scales,
    interior: int | None = None,
) -> list[np.ndarray]:
    """Brute-force e^(sG) Y e^(-sG) on the truncated Fock space, per scale s.

    G must be anti-Hermitian in its coefficient pattern, so that e^(-sG) is the
    conjugate transpose of U = e^(sG) and the conjugation stays unitary;
    (G - G^dag) / 2 is used, so a rounding-level defect enters through its mean.
    Per scale the result is the dense complex U_I Y U_I^dag, U_I the first
    ``interior`` rows of U (all when None).  ``_exp_action`` carries
    V = U_I^dag = e^(-sG)[:, :interior] through the scales sorted by |s|, one
    sweep from the identity per sign, and G and Y act by their diagonals, in
    real arithmetic when both are real: no dim x dim array is formed unless
    ``interior`` is None.  The sweeps' Taylor steps grow with |s| ||G||; when
    they would outnumber half the basis states, where one dense ``eigh`` is as
    fast, or a scale is not finite, one ``eigh`` of G's matrix serves the run
    instead, so every scale takes bounded time.
    """
    if not generator.is_anti_hermitian():
        raise ValueError(
            "oracle generator must have an anti-Hermitian coefficient pattern"
        )
    dim, ym = config.dimension, _diagonals(y, config)
    projected = 0.5 * (generator - generator.dagger())
    g = _diagonals(projected, config)
    if not any(np.any(w.imag) for w in (*g.values(), *ym.values())):
        g, ym = ({d: w.real for d, w in m.items()} for m in (g, ym))

    def conjugate(v):  # V^dag (Y V), V given by its first len(v) rows
        return (v.conj().T @ _apply(ym, v, dim)[: len(v)]).astype(complex)

    scales = [float(s) for s in scales]
    blocks = [None] * len(scales)
    sweeps = max([0.0, *scales]) - min([0.0, *scales])
    if not (all(map(math.isfinite, scales)) and sweeps * _norm_bound(g, dim) <= 2 * dim):
        # -iG = W diag(w) W^dag, so V = W diag(e^(-isw)) W_I^dag; eigh reads one
        # triangle, and G's matrix is anti-Hermitian up to rounding
        h = fock_matrix(projected, config)
        h *= -1j
        w, u = np.linalg.eigh(h)
        del h
        for i, s in enumerate(scales):
            blocks[i] = conjugate((u * np.exp(-1j * (s * w))) @ u[:interior].conj().T)
        return blocks
    start = np.eye(dim if interior is None else interior)  # complex after a complex G
    v, at = start, 0.0
    # one sweep from the identity per sign of s, in order of |s|
    for i in sorted(range(len(scales)), key=lambda i: (scales[i] < 0, abs(scales[i]))):
        if scales[i] < 0 <= at:
            v, at = start, 0.0
        v, at = _exp_action(g, dim, at - scales[i], v), scales[i]
        blocks[i] = conjugate(v)
    return blocks
