"""Test-only oracles: slow, direct computations that the tests compare the
library against.  Nothing in `src/` or `perfbench/` calls them."""
from zipcone import linalg
from zipcone.cones import _project, check_dim


def inversion_length(rd, matrix) -> int:
    """ell(w) = #{beta in Phi+ : w(beta) in Phi-}."""
    count = 0
    for root in rd.positive_roots():
        if not rd.is_positive_root_vector(linalg.mat_vec(matrix, root)):
            count += 1
    return count


def dual_description_unpruned(dim: int, ineqs):
    """`cones.dual_description` without the count test on shared tight rows:
    every (plus, minus) pair goes through the third-ray scan."""
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
        for ip in plus:
            for im in minus:
                common = masks[ip] & masks[im]
                if any(common & m == common for i, m in enumerate(masks) if i != ip and i != im):
                    continue  # a third ray is tight wherever both are: not adjacent
                combo = linalg.vec_sub(
                    linalg.vec_scale(vals[ip], vecs[im]), linalg.vec_scale(vals[im], vecs[ip])
                )
                rays[linalg.primitive(combo)] = common | bit
    if not lin:
        return tuple(sorted(rays)), ()
    red, piv_cols = linalg.rref(lin)
    rays = {linalg.primitive(linalg.reduce_mod_subspace(r, red, piv_cols)) for r in rays}
    return tuple(sorted(rays)), tuple(red)
