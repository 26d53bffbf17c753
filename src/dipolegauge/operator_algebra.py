"""Exact algebra of normal-ordered polynomials in bosonic ladder operators.

A monomial is a pair of sorted mode-index tuples, (creators, annihilators),
standing for the normal-ordered product of those ladder operators.  Products
are rewritten into this canonical form with [a_i, a_j^dag] = delta_ij, so the
zero polynomial has an empty term map and equality checks are exact rather
than numerical.  A term is kept iff its coefficient is nonzero: only exact
zeros are dropped during canonicalization, so no absolute threshold makes the
result depend on the scale of the coefficients.

Two closed-form conjugation identities are provided for generator pairs whose
commutator is central, together with a dense truncated-Fock oracle that checks
them by brute-force matrix exponentiation.
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


@dataclass(frozen=True)
class FockOracleConfig:
    """Mode list and per-mode truncations for the dense Fock-space oracle.

    ``truncations`` may be given as a single int, applied to every mode.  The
    product of truncations is the dense matrix dimension and must stay at or
    below ``dim_cap``; exceeding it raises OracleTooLargeError at
    construction, before any allocation.
    """

    modes: tuple[int, ...]
    truncations: tuple[int, ...]
    dim_cap: int = 4096

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
        object.__setattr__(self, "dim_cap", int(self.dim_cap))
        if self.dim_cap < 2:
            raise ValueError(f"dim_cap must be >= 2, got {self.dim_cap}")
        if self.dimension > self.dim_cap:
            raise OracleTooLargeError(
                f"truncated-Fock dimension {self.dimension} exceeds the cap "
                f"{self.dim_cap}"
            )

    @property
    def dimension(self) -> int:
        return math.prod(self.truncations)


def _local_ladder(truncation: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, truncation)), k=1)


def fock_matrix(p: OperatorPolynomial, config: FockOracleConfig) -> np.ndarray:
    """Dense matrix of P on the truncated multi-mode Fock space.

    Each monomial is built as a Kronecker product over ``config.modes`` (in
    their listed order) of local (a^dag)^m a^n blocks.  P must touch only
    modes present in the config.
    """
    missing = set(p.modes()) - set(config.modes)
    if missing:
        raise ValueError(
            f"polynomial touches modes {sorted(missing)} absent from the "
            f"oracle config {config.modes}"
        )
    dim = config.dimension
    position = {mode: i for i, mode in enumerate(config.modes)}
    lowering = [_local_ladder(t) for t in config.truncations]
    identities = [np.eye(t) for t in config.truncations]

    local_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def local_block(slot: int, n_cre: int, n_ann: int) -> np.ndarray:
        key = (slot, n_cre, n_ann)
        if key not in local_cache:
            a = lowering[slot]
            # a zeroth power is the identity, so its dense product is skipped
            if not n_ann:
                block = np.linalg.matrix_power(a.T, n_cre)
            elif not n_cre:
                block = np.linalg.matrix_power(a, n_ann)
            else:
                block = np.linalg.matrix_power(a.T, n_cre) @ np.linalg.matrix_power(a, n_ann)
            local_cache[key] = block
        return local_cache[key]

    out = np.zeros((dim, dim), dtype=complex)
    for (cre, ann), coeff in p.terms.items():
        cre_counts = Counter(cre)
        ann_counts = Counter(ann)
        factors = []
        for mode in config.modes:
            slot = position[mode]
            n_cre = cre_counts.get(mode, 0)
            n_ann = ann_counts.get(mode, 0)
            if n_cre or n_ann:
                factors.append(local_block(slot, n_cre, n_ann))
            else:
                factors.append(identities[slot])
        mono = factors[0]
        for factor in factors[1:]:
            mono = np.kron(mono, factor)
        out += coeff * mono
    return out


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
    conjugate transpose of U = e^(sG) and the conjugation stays unitary.  G is
    diagonalised once (``_exp_anti_hermitian``, given each basis state's total
    occupation).  Per scale the result is the dense complex U_I Y U_I^dag, U_I
    the first ``interior`` rows of U (all when None); when U and Y are both
    real it is formed as the real product U_I Y U_I^T.
    """
    if not generator.is_anti_hermitian():
        raise ValueError(
            "oracle generator must have an anti-Hermitian coefficient pattern"
        )
    shape = config.truncations
    occupations = np.indices(shape).reshape(len(shape), -1).sum(axis=0)
    exp_rows = _exp_anti_hermitian(fock_matrix(generator, config), occupations)
    ym = fock_matrix(y, config)

    def conjugate(u):
        if np.isrealobj(u) and not np.any(ym.imag):
            return (u @ ym.real @ u.T).astype(complex)
        return u @ ym @ u.conj().T

    return [conjugate(exp_rows(scale, interior)) for scale in scales]


def _exp_anti_hermitian(xm: np.ndarray, occupations=None):
    """``rows(s, count=None)``: first ``count`` rows (all when None) of e^(sX).

    One eigendecomposition of the dense anti-Hermitian X serves every s, and
    e^(sX) is unitary by construction; below s = 1, and s scales every w.
    H = -iX is Hermitian: with H = V diag(w) V^dag, e^X = V diag(e^(iw)) V^dag.
    ``eigh`` reads one triangle only, so H is first taken as (H + H^dag) / 2:
    a rounding-level anti-Hermitian defect of X enters through its mean rather
    than being dropped unseen, and an exactly anti-Hermitian X is unchanged.

    Real route: when X is exactly real and couples only basis states whose
    ``occupations`` n (the basis index by default) differ by an odd number,
    e^X is real orthogonal and is formed in real arithmetic.  With the phases
    D = diag(i^n), S = D^* H D is real symmetric, S = V diag(w) V^T, and
    e^X = D (C + i Sn) D^* with C = V cos(w) V^T and Sn = V sin(w) V^T.  S
    flips the parity of n, so C couples equal and Sn opposite parities only,
    and entry (m, k) of e^X is C, -Sn, -C or Sn for n_m - n_k = 0, 1, 2 or 3
    mod 4.  The test of X is what makes the route exact, for any integer
    labels n.  Otherwise the rows are those of the complex e^X above.
    """
    n = np.arange(len(xm)) if occupations is None else np.asarray(occupations)
    n = (n % 4).astype(np.int8)
    diff = (n[:, None] - n[None, :]) % 4
    if not np.any(xm.imag) and not np.any(xm[diff % 2 == 0]):
        # S[m, k] = -i i^(n_k - n_m) X[m, k]: -X where diff is 1, X where 3
        x = xm.real
        s = np.where(diff == 3, x, -x)
        w, v = np.linalg.eigh(0.5 * (s + s.T))

        def real_rows(scale, count=None):
            c = (v[:count] * np.cos(scale * w)) @ v.T
            sn = (v[:count] * np.sin(scale * w)) @ v.T
            return np.choose(diff[:count], [c, -sn, -c, sn])

        return real_rows
    h = -1j * xm
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    vh = v.conj().T
    return lambda scale, count=None: (v[:count] * np.exp(1j * (scale * w))) @ vh
