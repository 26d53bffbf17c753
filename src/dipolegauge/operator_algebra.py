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


def fock_matrix(p: OperatorPolynomial, config: FockOracleConfig) -> np.ndarray:
    """Dense matrix of P on the truncated multi-mode Fock space.

    A monomial, a product over ``config.modes`` (in their listed order) of
    (a^dag)^c a^n, sends each basis state to at most one other, so it is added
    entry by entry: per mode |k> goes to |k - n + c> with weight
    w_c[k - n + c] w_n[k] (``_lowering_power``), and the modes' weights
    multiply in np.kron's order.  So every entry has the bits of the
    Kronecker product of dense matrix_power blocks, and nothing dense is
    allocated but the output.  P must touch only modes present in the config.
    """
    missing = set(p.modes()) - set(config.modes)
    if missing:
        raise ValueError(
            f"polynomial touches modes {sorted(missing)} absent from the "
            f"oracle config {config.modes}"
        )
    dim = config.dimension
    out = np.zeros((dim, dim), dtype=complex)
    for (cre, ann), coeff in p.terms.items():
        rows, weights = np.zeros(1, dtype=np.intp), np.ones(1)
        for mode, t in zip(config.modes, config.truncations):
            c, n = cre.count(mode), ann.count(mode)
            target = np.arange(t) - n + c
            # off the truncation a weight is 0: w_n[k] below n, the appended 0 above
            raised = np.append(_lowering_power(t, c, transposed=True), 0.0)
            local = raised.take(target, mode="clip") * _lowering_power(t, n)
            rows = np.add.outer(rows * t, target).ravel()
            weights = np.multiply.outer(weights, local).ravel()
        cols = np.flatnonzero(weights)
        out[rows[cols], cols] += coeff * weights[cols]
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
    decomposed once (``_exp_anti_hermitian``, given each basis state's total
    occupation), and its matrix is freed before Y's is built.  Per scale the
    result is the dense complex U_I Y U_I^dag, U_I the first ``interior`` rows
    of U (all when None); when U and Y are both real it is formed as the real
    product U_I Y U_I^T.
    """
    if not generator.is_anti_hermitian():
        raise ValueError(
            "oracle generator must have an anti-Hermitian coefficient pattern"
        )
    shape = config.truncations
    occupations = np.indices(shape).reshape(len(shape), -1).sum(axis=0)
    exp_rows = _exp_anti_hermitian(fock_matrix(generator, config), occupations)
    ym = fock_matrix(y, config)
    real_y = not np.any(ym.imag)

    def conjugate(u):
        if real_y and np.isrealobj(u):
            return (u @ ym.real @ u.T).astype(complex)
        return u @ ym @ u.conj().T

    return [conjugate(exp_rows(scale, interior)) for scale in scales]


def _exp_anti_hermitian(xm: np.ndarray, occupations=None):
    """``rows(s, count=None)``: first ``count`` rows (all when None) of e^(sX).

    One decomposition of the anti-Hermitian part (X - X^dag) / 2 serves every
    s, and e^(sX) is unitary by construction.  A rounding-level defect of X
    thus enters through its mean, and an exactly anti-Hermitian X is unchanged.
    Real route: when X is exactly real and couples only basis states whose
    ``occupations`` n (the basis index by default) differ by an odd number,
    the part is [[0, B], [-B^T, 0]] with the states grouped by the parity of
    n.  One SVD B = U diag(sigma) W^T of half the size, U and W square (the
    |n_even - n_odd| unmatched directions take sigma = 0), gives the real
    e^X = [[U cos U^T, U sin W^T], [-W sin U^T, W cos W^T]] of sigma.
    Otherwise ``eigh`` of the Hermitian part of -iX = V diag(w) V^dag gives
    e^X = V diag(e^(iw)) V^dag.
    """
    n = np.arange(len(xm)) if occupations is None else np.asarray(occupations)
    parity = n % 2 == 1
    even, odd = np.flatnonzero(~parity), np.flatnonzero(parity)
    x = xm.real
    same_parity = np.any(x[np.ix_(even, even)]) or np.any(x[np.ix_(odd, odd)])
    if not (np.any(xm.imag) or same_parity):
        b = 0.5 * (x[np.ix_(even, odd)] - x[np.ix_(odd, even)].T)
        del x, xm  # a caller that passes X's matrix as a temporary frees it here
        u, sigma, wt = np.linalg.svd(b)
        r, angles_u, angles_w = len(sigma), np.zeros(len(even)), np.zeros(len(odd))
        angles_u[:r] = angles_w[:r] = sigma

        def real_rows(scale, count=None):
            ue = u[: np.count_nonzero(~parity[:count])]
            wo = wt.T[: np.count_nonzero(parity[:count])]
            sin = np.sin(scale * sigma)
            out = np.empty((len(ue) + len(wo), len(n)))
            out[np.ix_(even[: len(ue)], even)] = (ue * np.cos(scale * angles_u)) @ u.T
            out[np.ix_(even[: len(ue)], odd)] = (ue[:, :r] * sin) @ wt[:r]
            out[np.ix_(odd[: len(wo)], odd)] = (wo * np.cos(scale * angles_w)) @ wt
            out[np.ix_(odd[: len(wo)], even)] = -(wo[:, :r] * sin) @ u[:, :r].T
            return out

        return real_rows
    h = -1j * xm
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    vh = v.conj().T
    return lambda scale, count=None: (v[:count] * np.exp(1j * (scale * w))) @ vh
