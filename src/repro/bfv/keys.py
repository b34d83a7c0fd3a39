"""BFV key material: secret, public, and key-switching keys."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.polymath.poly import Polynomial


@dataclass(frozen=True)
class SecretKey:
    """Ternary secret polynomial ``s``."""

    s: Polynomial


@dataclass(frozen=True)
class PublicKey:
    """Encryption key ``kp = (kp1, kp2)`` of paper Eqs. 2-3.

    ``kp1 = -(a*s + e) mod q`` and ``kp2 = a`` for uniform ``a`` and small
    ``e``, so that ``kp1 + kp2*s`` is small.
    """

    kp1: Polynomial
    kp2: Polynomial


@dataclass(frozen=True)
class KeySwitchKey:
    """A base-T key-switching key: the one shape every key switch folds.

    ``rows[i] = (b_i, a_i)`` with ``b_i = -(a_i*s + e_i) + T**i * s'``
    switches a polynomial that decrypts under ``s'`` back under ``s``;
    the digit base is ``T = 2**digit_bits`` and there are
    ``ceil(log q / digit_bits)`` rows. Smaller digits mean lower noise but
    more rows — i.e. more NTT work per key switch, the knob the
    application cost model (Table X) exposes.

    The key also holds its own NTT-form rows (``ntt_rows``): the scheme
    builds them once — at key upload in the serving layer, on first use
    otherwise — and they live and die with the key object, so no cache
    elsewhere has to guess which keys are still in use. They are derived
    data: excluded from equality, hashing and ``repr``.
    """

    rows: tuple[tuple[Polynomial, Polynomial], ...]
    digit_bits: int
    #: ``(basis moduli, (2, D, L, n) uint32 rows)`` once built; see
    #: :meth:`repro.bfv.scheme.Bfv.prewarm_keyswitch`.
    ntt_rows: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_digits(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class RelinKey(KeySwitchKey):
    """Relinearization key: switches ``s**2`` back to ``s``."""


@dataclass(frozen=True)
class GaloisKey(KeySwitchKey):
    """Key-switching key for one automorphism exponent ``g``.

    Switches ``s(x^g)`` back to ``s``. ``exponent`` is keyword-only so
    the subclass can follow the shared ``(rows, digit_bits)`` fields.
    """

    exponent: int = field(kw_only=True)


@dataclass(frozen=True)
class KeySet:
    """Convenience bundle produced by :meth:`repro.bfv.Bfv.keygen`."""

    secret: SecretKey
    public: PublicKey
    relin: RelinKey | None = None
