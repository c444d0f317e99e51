"""Exact coefficient fields: prime fields F_p and the rationals.

Field elements are plain Python objects (ints in [0, p) for F_p,
fractions.Fraction for Q), so matrices are ordinary nested lists and all
arithmetic is exact.  Floating point is never used anywhere in symquiv.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """GF(p) with elements represented as ints reduced into [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    zero = 0
    one = 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def size(self):
        return self.p

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The rationals, with Fraction elements."""

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / Fraction(a)

    def size(self):
        return None  # infinite

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@functools.cache
def _prime_field(p):
    return PrimeField(p)


@dataclass(frozen=True)
class FieldSpec:
    """Serializable descriptor of an exact field: kind 'Q' or 'Fp'."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("rationals take no characteristic")
        elif self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError("Fp needs a prime p")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    def field(self):
        """The field itself: QQ, or the one cached PrimeField of p."""
        return QQ if self.kind == "Q" else _prime_field(self.p)

    def to_json(self):
        return {"kind": self.kind} if self.kind == "Q" else {"kind": "Fp", "p": self.p}

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        return FieldSpec(obj["kind"], obj.get("p"))


RATIONALS = FieldSpec("Q")


def prime_field_spec(p: int) -> FieldSpec:
    return FieldSpec("Fp", p)
