"""Exact rational polyhedral cones with dual V/H representations.

Cones are saturated by construction: membership of a lattice point is
rational-cone membership.  All vectors are stored as primitive integer
tuples; lineality is allowed on both sides (a lineality direction appears
among the generators as a +/- pair, an equality among the inequalities
likewise).  Conversion uses the double description method with incremental
inequality insertion; the Fourier-Motzkin route in `fm` is kept independent
as a test oracle.
"""
from __future__ import annotations

from . import linalg
from .errors import BadParams, DimensionMismatch, DimensionTooLarge, json_integer, json_vectors

DIM_CAP = 12


def check_dim(dim: int) -> None:
    """Refuse a cone dimension above DIM_CAP before any work starts."""
    if dim > DIM_CAP:
        raise DimensionTooLarge(f"dimension {dim} exceeds cap {DIM_CAP}")


def _project(a, s, piv, x):
    """s*x - <a, x>*piv made primitive, where s = <a, piv> > 0: x moved along
    piv onto the hyperplane <a, .> = 0.  x itself when <a, x> = 0."""
    t = linalg.dot(a, x)
    if t == 0:
        return x
    return linalg.primitive(linalg.vec_sub(linalg.vec_scale(s, x), linalg.vec_scale(t, piv)))


def dual_description(dim: int, ineqs):
    """Extreme rays and lineality of {x : <a, x> >= 0 for a in ineqs}.

    Incremental double description; returns (rays, lineality_basis) in
    canonical form: the basis is the primitive rows of the lineality's RREF,
    and the rays are primitive, reduced modulo that RREF and sorted.

    `rays` maps each ray to its tight set as a bitmask: bit k is set iff
    <ineqs[k], ray> = 0, for the rows inserted so far.  The masks are updated
    as each row is inserted and stay exact, so two rays are adjacent iff no
    third ray's mask contains the bits the two share (Fukuda & Prodon, 1996).
    Every inserted row vanishes on the lineality `lin`, so projecting a ray
    along a pivot of `lin` only scales its pairings with those rows: the
    projected ray keeps its mask, and the pivot is tight at every earlier row.

    Before that scan, a pair whose masks share fewer than d - 2 bits, with
    d = dim - len(lin), is skipped.  This is exact and never changes a
    decision: modulo `lin` the current cone is pointed in a space of
    dimension d, and when no third ray contains the common bits the two rays
    span a 2-dimensional face of it, cut out by exactly the common rows; their
    kernel is then that face's span plus `lin`, so their rank is d - 2.  Zero
    or repeated rows only add bits, so they can only make the count test
    skip fewer pairs, never a pair the scan would keep.
    """
    check_dim(dim)
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays: dict = {}
    for k, a in enumerate(ineqs):
        a, bit = linalg.primitive(a), 1 << k
        piv = next((l for l in lin if linalg.dot(a, l) != 0), None)
        if piv is not None:
            lin.remove(piv)
            s = linalg.dot(a, piv)
            if s < 0:
                piv, s = linalg.vec_neg(piv), -s
            lin = [_project(a, s, piv, l) for l in lin]
            rays = {_project(a, s, piv, r): m | bit for r, m in rays.items()}
            rays[piv] = bit - 1
            continue
        vecs, masks = list(rays), list(rays.values())
        vals = [linalg.dot(a, r) for r in vecs]
        rays = {r: m | bit if v == 0 else m for r, m, v in zip(vecs, masks, vals) if v >= 0}
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        need = dim - len(lin) - 2
        for ip in plus:
            for im in minus:
                common = masks[ip] & masks[im]
                if common.bit_count() < need:
                    continue  # too few shared tight rows to span an edge
                if any(common & m == common for i, m in enumerate(masks) if i != ip and i != im):
                    continue  # a third ray is tight wherever both are: not adjacent
                combo = linalg.vec_sub(
                    linalg.vec_scale(vals[ip], vecs[im]), linalg.vec_scale(vals[im], vecs[ip])
                )
                rays[linalg.primitive(combo)] = common | bit
    if not lin:
        return tuple(sorted(rays)), ()
    red, piv_cols = linalg.rref(lin)
    # every ray lies in the cone but outside span(lin), so none reduces to zero
    rays = {linalg.primitive(linalg.reduce_mod_subspace(r, red, piv_cols)) for r in rays}
    return tuple(sorted(rays)), tuple(red)


def _merge(rays, lin):
    """Flatten (rays, lineality) into a single generator list with +/- pairs."""
    out = list(rays)
    for l in lin:
        out.append(l)
        out.append(linalg.vec_neg(l))
    return tuple(sorted(set(out)))


class RationalCone:
    """A rational polyhedral cone with at least one of the two descriptions."""

    def __init__(self, dim: int, generators=None, inequalities=None):
        if generators is None and inequalities is None:
            raise DimensionMismatch("need generators or inequalities")
        if dim < 0:
            raise BadParams(f"dim must be >= 0, not {dim}")
        self.dim = dim
        self._gens = self._normalize(generators) if generators is not None else None
        self._ineqs = self._normalize(inequalities) if inequalities is not None else None
        self._canonical = False

    def _normalize(self, vectors):
        out = []
        for v in vectors:
            if len(v) != self.dim:
                raise DimensionMismatch(
                    f"vector length {len(v)} != ambient dim {self.dim}"
                )
            p = linalg.primitive(v)
            if not linalg.is_zero(p):
                out.append(p)
        return tuple(sorted(set(out)))

    # -- completion ------------------------------------------------------

    def complete(self) -> "RationalCone":
        """Fill in the missing side and canonicalize both (idempotent).

        The missing side is computed from the given one, then the given side
        is recomputed from it: two DD passes, each returning the canonical
        form of the side it computes.  When both sides are given, the
        generators lead and the inequalities are checked against the result.
        """
        if self._canonical:
            return self
        given_ineqs = self._ineqs if self._gens is not None else None
        if self._gens is not None:
            if given_ineqs is not None:
                self._check_mutual()
            ineqs = _merge(*dual_description(self.dim, self._gens))
            gens = _merge(*dual_description(self.dim, ineqs))
        else:
            gens = _merge(*dual_description(self.dim, self._ineqs))
            ineqs = _merge(*dual_description(self.dim, gens))
        self._gens, self._ineqs = gens, ineqs
        self._canonical = True
        if given_ineqs is not None:
            # round-trip check: the given inequalities must cut the same cone
            other = RationalCone(self.dim, inequalities=given_ineqs)
            if not self.equal(other):
                raise DimensionMismatch(
                    "generators and inequalities describe different cones"
                )
        return self

    def _check_mutual(self):
        for g in self._gens:
            for h in self._ineqs:
                if linalg.dot(g, h) < 0:
                    raise DimensionMismatch(
                        f"given generator {g} violates given inequality {h}"
                    )

    @property
    def generators(self):
        if self._gens is None:
            self.complete()
        return self._gens

    @property
    def inequalities(self):
        if self._ineqs is None:
            self.complete()
        return self._ineqs

    # -- queries ---------------------------------------------------------

    def member(self, lam) -> bool:
        if len(lam) != self.dim:
            raise DimensionMismatch("vector has wrong length")
        return all(linalg.dot(lam, h) >= 0 for h in self.inequalities)

    def binding(self, lam):
        """Inequalities tight at lam (when member) or violated (when not)."""
        if self.member(lam):
            return [h for h in self.inequalities if linalg.dot(lam, h) == 0]
        return [h for h in self.inequalities if linalg.dot(lam, h) < 0]

    def contains(self, inner: "RationalCone") -> bool:
        if self.dim != inner.dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.member(g) for g in inner.generators)

    def witness_outside(self, inner: "RationalCone"):
        """A generator of inner outside self, or None."""
        for g in inner.generators:
            if not self.member(g):
                return g
        return None

    def equal(self, other: "RationalCone") -> bool:
        return self.contains(other) and other.contains(self)

    def intersect(self, other: "RationalCone") -> "RationalCone":
        if self.dim != other.dim:
            raise DimensionMismatch("ambient dimensions differ")
        return RationalCone(
            self.dim, inequalities=self.inequalities + other.inequalities
        )

    # -- maps --------------------------------------------------------------

    def image_under(self, matrix) -> "RationalCone":
        """Pushforward along a linear map (rows x dim) through the generators."""
        gens = [linalg.mat_vec(matrix, g) for g in self.generators]
        return RationalCone(len(matrix), generators=gens)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        self.complete()
        return {
            "dim": self.dim,
            "generators": [list(g) for g in self.generators],
            "inequalities": [list(h) for h in self.inequalities],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RationalCone":
        """Read `to_json` output.  Every number must be a JSON integer (not a
        float or a bool) and every container a list; anything else is
        BadParams."""
        if not isinstance(data, dict) or "dim" not in data:
            raise BadParams("a cone needs a JSON object with a dim")
        gens = data.get("generators")
        ineqs = data.get("inequalities")
        return cls(
            json_integer(data["dim"], "dim"),
            generators=json_vectors(gens, "generators") if gens is not None else None,
            inequalities=json_vectors(ineqs, "inequalities") if ineqs is not None else None,
        )

    def __repr__(self):
        sides = []
        if self._gens is not None:
            sides.append(f"{len(self._gens)} gens")
        if self._ineqs is not None:
            sides.append(f"{len(self._ineqs)} ineqs")
        return f"RationalCone(dim={self.dim}, {', '.join(sides)})"


def cone_from_generators(dim: int, gens) -> RationalCone:
    return RationalCone(dim, generators=gens)


def cone_from_inequalities(dim: int, ineqs) -> RationalCone:
    return RationalCone(dim, inequalities=ineqs)


def equality_pair(covector):
    """The two inequalities expressing <lam, covector> == 0."""
    return [tuple(covector), linalg.vec_neg(tuple(covector))]
