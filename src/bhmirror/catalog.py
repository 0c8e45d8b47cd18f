"""Built-in catalog of invertible polynomials and cyclic setups.

Two collections: plain polynomials exercising every atom shape for the
transpose-duality scan, and (W, K) setups for the cyclic-automorphism
machinery.  K generators are written over the inner variables (x0
excluded) and must contain the k-th power of the inner grading symmetry
explicitly; `CatalogCase.K_group` spans them once into the group of f
that a setup takes.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InputError
from .poly import InvertiblePolynomial, parse_polynomial, split_cyclic
from .symmetry import SymmetryGroup, enumerate_group

KRAWITZ_SCAN = "krawitz-scan"  # the case `verify` reports the KRAWITZ_POLYNOMIALS scan as
# every atom type, sizes up to 5 variables, plus mixed sums
KRAWITZ_POLYNOMIALS: tuple[str, ...] = (
    # Fermat
    "x^2", "x^3", "x^5",
    "x^3+y^3", "x^4+y^2", "x^6+y^3+z^2", "x^3+y^3+z^3",
    "x^4+y^4+z^4+w^4", "x^2+y^2+z^2+w^2+v^2",
    # chains
    "x^2*y+y^3", "x^3*y+y^4", "x^2*y+y^5", "x^5*y+y^2",
    "x^2*y+y^2*z+z^3", "x^3*y+y^2*z+z^2", "x^2*y+y^3*z+z^4",
    "x^2*y+y^2*z+z^2*w+w^3",
    # loops
    "x^2*y+y^2*x", "x^3*y+y^2*x", "x^3*y+y^3*x", "x^4*y+y^3*x",
    "x^2*y+y^2*z+z^2*x", "x^2*y+y^3*z+z^4*x", "x^3*y+y^2*z+z^2*x",
    "x^2*y+y^2*z+z^2*w+w^2*x",
    # mixed sums
    "x^2+y^2*z+z^3", "x^3+y^2*z+z^2*y", "x^4+y^3*z+z^3*y",
    "x^2*y+y^3+z^2*w+w^2*z", "x^3+y^3+z^2*w+w^3", "x^2*y+y^3+z^3*w+w^4",
    "x^5+y^2*z+z^2*w+w^2*y", "x^2+y^2+z^2*w+w^2*z+v^3",
)


class CatalogCase(namedtuple("CatalogCase", "name polynomial K tags",
                             defaults=((), frozenset()))):
    # name, polynomial: str; K: tuple[str, ...]; tags: frozenset[str]
    __slots__ = ()

    def parse(self) -> InvertiblePolynomial:
        return parse_polynomial(self.polynomial)

    def K_group(self, W: InvertiblePolynomial) -> SymmetryGroup:
        """K as the group its generators span in f, for W = x0^k + f, the parsed case."""
        return enumerate_group(split_cyclic(W)[1], map(parse_vector, self.K))


def parse_vector(text: str) -> tuple[Fraction, ...]:
    """Parse "[1/4,3/4,0]" into a tuple of rationals.  An entry is an
    integer, p/q or a plain decimal; an empty entry, as in "[1/3,,0]" or
    "[]", is an InputError, and so is exponent notation, which `Fraction`
    would expand into an integer of up to a billion digits ("1e999999999")."""
    from fractions import Fraction

    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [part.strip() for part in body.split(",")]
    if "" in parts:
        raise InputError(f"cannot parse rational vector {text!r}: empty entry")
    for part in parts:
        if "e" in part or "E" in part:
            raise InputError(f"cannot parse rational vector {text!r}: entry {part!r} "
                             "is not an integer, p/q or plain decimal")
    try:
        return tuple(map(Fraction, parts))
    except ValueError as exc:
        raise InputError(f"cannot parse rational vector {text!r}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise InputError(f"cannot parse rational vector {text!r}: zero denominator") from exc


# Every case satisfies the group hypothesis of the mirror identities:
# the weight sum is a multiple of the degree, so the coset group lands in
# the special linear symmetries.  The cyclic orders cover every k <= 13
# with k - 1 dividing 24.
ADMISSIBLE_CASES: tuple[CatalogCase, ...] = (
    CatalogCase("elliptic-sextic", "x0^6+x1^3+x2^2", (), frozenset({"cy", "elliptic"})),
    CatalogCase("elliptic-cubic", "x0^3+x1^3+x2^3", (), frozenset({"cy", "elliptic"})),
    CatalogCase("elliptic-loop", "x0^3+x1^2*x2+x2^2*x1", (), frozenset({"cy", "elliptic"})),
    CatalogCase("toy-k2", "x0^2+x1^2", (), frozenset({"cy", "toy"})),
    CatalogCase("toy-k4", "x0^4+x1^4+x2^2", (), frozenset({"cy", "elliptic", "toy"})),
    CatalogCase("k2-elliptic", "x0^2+x1^4+x2^4", ("[1/2,1/2]",),
                frozenset({"cy", "elliptic"})),
    CatalogCase("k2-chain", "x0^2+x1^3*x2+x2^4", ("[1/2,1/2]",),
                frozenset({"cy", "elliptic"})),
    CatalogCase("k2-k3-sextic", "x0^2+x1^6+x2^6+x3^6", ("[1/3,1/3,1/3]",),
                frozenset({"cy", "k3"})),
    CatalogCase("k2-6squares", "x0^2+x1^2+x2^2+x3^2+x4^2+x5^2", (),
                frozenset({"toy"})),
    CatalogCase("fermat-quartic", "x0^4+x1^4+x2^4+x3^4", (), frozenset({"cy", "k3"})),
    CatalogCase("k3-loop-order4", "x0^4+x1^3*x2+x2^3*x1+x3^4", (),
                frozenset({"cy", "k3"})),
    CatalogCase("k3-quartic-z2z2", "x0^4+x1^4+x2^4+x3^4",
                ("[1/2,1/2,0]", "[0,1/2,1/2]"), frozenset({"cy", "k3"})),
    CatalogCase("k3-order4-mixed", "x0^4+x1^2+x2^8+x3^8", ("[0,1/2,1/2]",),
                frozenset({"cy", "k3"})),
    CatalogCase("k3-order6", "x0^6+x1^6+x2^3+x3^3", (), frozenset({"cy", "k3"})),
    CatalogCase("k3-order9", "x0^9+x1^2+x2^3+x3^18", ("[1/2,0,1/2]",),
                frozenset({"cy", "k3"})),
    CatalogCase("k3-p3", "x0^3+x1^3+x2^4+x3^12", ("[0,3/4,1/4]",),
                frozenset({"cy", "k3", "prime"})),
    CatalogCase("k3-p3-loop", "x0^3+x1^3+x2^4*x3+x3^7*x2", ("[0,2/3,1/3]",),
                frozenset({"cy", "k3", "prime"})),
    CatalogCase("k3-p5", "x0^5+x1^5+x2^5+x3^2*x1", (), frozenset({"cy", "k3", "prime"})),
    CatalogCase("k3-p5-fermat", "x0^5+x1^2+x2^4+x3^20", ("[1/2,1/4,1/4]",),
                frozenset({"cy", "k3", "prime"})),
    CatalogCase("k3-p7", "x0^7+x1^5*x2+x2^2*x3+x3^2*x1", (), frozenset({"cy", "k3", "prime"})),
    CatalogCase("k3-p13", "x0^13+x1^3*x2+x2^2*x3+x3^2*x1", (), frozenset({"cy", "k3", "prime"})),
    CatalogCase("fermat-quintic", "x0^5+x1^5+x2^5+x3^5+x4^5", (), frozenset({"cy"})),
)


def find_case(name: str) -> CatalogCase:
    for case in ADMISSIBLE_CASES:
        if case.name == name:
            return case
    raise InputError(f"no catalog case named {name!r}")


def load_catalog(path: str) -> tuple[CatalogCase, ...]:
    """Read a catalog file: a JSON list (or {"cases": [...]}) of objects
    with fields name, polynomial, and optional K (list of vectors) and tags."""
    import json  # only a catalog file pays for the import

    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise InputError(f"catalog {path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise InputError(f"catalog {path} is nested too deeply to read") from None
    if isinstance(data, dict):
        data = data.get("cases")
    if not isinstance(data, list):
        raise InputError(f'catalog {path} is neither a list nor {{"cases": [...]}}')
    cases = []
    for obj in data:
        if not (isinstance(obj, dict)
                and isinstance(obj.get("name"), str)
                and isinstance(obj.get("polynomial"), str)
                and all(isinstance(v, list) and all(isinstance(x, str) for x in v)
                        for v in (obj.get("K", []), obj.get("tags", [])))):
            raise InputError(f"malformed catalog entry {obj!r}: name and polynomial "
                             "must be strings, K and tags lists of strings")
        if not obj["name"].strip():
            raise InputError(f"catalog {path} has a case with a blank name")
        if obj["name"] == KRAWITZ_SCAN:
            raise InputError(f"catalog {path} names a case {KRAWITZ_SCAN!r}, "
                             "the name of the built-in Krawitz scan")
        if any(case.name == obj["name"] for case in cases):
            raise InputError(f"catalog {path} names case {obj['name']!r} more than once")
        cases.append(CatalogCase(obj["name"], obj["polynomial"],
                                 tuple(obj.get("K", ())), frozenset(obj.get("tags", ()))))
    return tuple(cases)
