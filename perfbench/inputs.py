"""Seeded input streams, each input carrying its expected outcome by construction.

Every stream is a sequence of fixed-size blocks. A block holds a fixed number
of inputs of each kind, in a seeded order, so the share of every kind (and so
of every known defect) is the same for every seed; the seed picks the values.
Only exact.py is used here; the program under test never sees anything but the
finished inputs.
"""

from __future__ import annotations

import random

from exact import (
    BRANCHES,
    MINUS_I,
    MINUS_I_LIFTING,
    THETAS,
    Powers,
    det,
    intertwiners,
    lifts,
    mat_mul,
    word_mul,
    word_small_pow,
)

NON_SCALAR = (-1, 0, 1)
BOX = 3
SMALL_SHIFT = 3
BIG_SHIFT_BITS = 62

# Bit-length bands of the big shifts. verify_extension's trace -1 defect
# (workloads.KNOWN_DEFECTS) shows once a shift has about 25 bits: over 60
# lifts per bit length, every lift with both shifts of at most 23 bits passed
# and every one with a shift of 27 to 32 or 62 bits failed, whatever the
# automorphism and branch. Trace -1 big shifts keep out of that zone, one input per block
# below it and one above, so exactly one input in each block shows the defect
# for every seed and run length. The other classes use the whole range.
BANDS = {"any": (1, BIG_SHIFT_BITS), "below": (1, 22), "above": (29, BIG_SHIFT_BITS)}

# Additive recurrences (golden ratio and sqrt 2) spread the bit lengths of the
# big shifts evenly over their band however many are drawn.
_WEYL = (0.6180339887498949, 0.41421356237309503)


def _signed_bits(rng: random.Random, bits: int) -> int:
    mag = 1 if bits <= 1 else rng.randrange(1 << (bits - 1), 1 << bits)
    return mag if rng.random() < 0.5 else -mag


def _random_unimodular(rng: random.Random, steps: int, bits: int = 1):
    """A product of elementary matrices, so |det| = 1 by construction; its
    entries grow to about steps * bits bits."""
    m = (1, 0, 0, 1)
    for _ in range(steps):
        k = _signed_bits(rng, rng.randint(1, bits))
        e = rng.choice(((1, k, 0, 1), (1, 0, k, 1), (0, 1, 1, 0)))
        m = mat_mul(m, e)
    return m


class LiftSweepInputs:
    """Automorphisms of D for the non-scalar classes on their first two branches.

    A block holds 10 inputs per (class, branch) pair; one of each ten has
    beta1, gamma1 drawn log-uniform up to 2^62 (in the bands of BANDS), the
    rest lie in [-3, 3]. Each input also carries a seeded sample of box words
    for the word-action check.
    """

    BLOCK = 60
    SAMPLE_WORDS = 8

    def __init__(self, seed: int):
        self.rng = random.Random(f"lift-sweep/{seed}")
        self.pairs = {tr: intertwiners(THETAS[tr]) for tr in NON_SCALAR}
        self.weyl_offset: dict[tuple, tuple] = {}
        self.weyl_count: dict[tuple, int] = {}
        self.next_id = 0

    def _bits(self, key: tuple, k: int, coordinate: int, band: str) -> int:
        lo, hi = BANDS[band]
        u = (self.weyl_offset[key][coordinate] + k * _WEYL[coordinate]) % 1.0
        return lo + int(u * (hi - lo + 1))

    def _big_shifts(self, tr: int, band: str) -> tuple[int, int]:
        """beta1, gamma1 of a big-shift input. In the band "above" one of the
        two (seeded) reaches the band and the other may have any length."""
        key = (tr, band)
        if key not in self.weyl_offset:
            self.weyl_offset[key] = (self.rng.random(), self.rng.random())
            self.weyl_count[key] = 0
        k = self.weyl_count[key]
        self.weyl_count[key] += 1
        bits = [self._bits(key, k, 0, band), self._bits(key, k, 1, "any" if band == "above" else band)]
        if self.rng.random() < 0.5:
            bits.reverse()
        return _signed_bits(self.rng, bits[0]), _signed_bits(self.rng, bits[1])

    def _bands(self, tr: int) -> dict:
        """Band of the big-shift input per branch of the class."""
        if tr != -1:
            return dict.fromkeys(BRANCHES[tr], "any")
        return dict(zip(BRANCHES[tr], self.rng.sample(("below", "above"), 2)))

    def block(self) -> list[dict]:
        rng = self.rng
        slots = []
        for tr in NON_SCALAR:
            for n, band in self._bands(tr).items():
                big_at = rng.randrange(10)
                slots.extend((tr, n, band if i == big_at else None) for i in range(10))
        rng.shuffle(slots)
        out = []
        for tr, n, band in slots:
            zeta, chi = rng.choice(self.pairs[tr])
            if band:
                beta1, gamma1 = self._big_shifts(tr, band)
            else:
                beta1 = rng.randint(-SMALL_SHIFT, SMALL_SHIFT)
                gamma1 = rng.randint(-SMALL_SHIFT, SMALL_SHIFT)
            words = [tuple(rng.randint(-BOX, BOX) for _ in range(3)) for _ in range(self.SAMPLE_WORDS)]
            out.append({
                "id": self.next_id,
                "trace": tr,
                "theta": THETAS[tr],
                "n": n,
                "auto": (zeta, chi, beta1, gamma1),
                "big": band is not None,
                "band": band,
                "words": words,
            })
            self.next_id += 1
        return out


# Expected verdicts of the generation decision.
GENERATES = "generates"
HCF = "hcf(alpha)"
SUBLATTICE = "5.11|5.12"

ELASTIC = "elastic"
INELASTIC = "inelastic"
NOT_A_SYMMETRY = "not_a_symmetry"

# Nielsen depth strata: the number of random moves applied to a base triple.
# The base's B/C exponents grow with the depth, from a few bits to hundreds.
DEPTHS = (3, 12, 48, 96)
BASE_BITS = {3: 2, 12: 8, 48: 48, 96: 128}


class GeneratorInputs:
    """Generator triples of D over all four classes, with their verdicts.

    Kinds, per class and block: (A, B, C) mixed at each of the four depths;
    (A^k, B, C) mixed (k >= 2, fails hcf); A' with a proper theta-invariant
    sublattice, mixed (fails 5.11 or 5.12); and two images of (A, B, C) under
    an automorphism (for theta = -I one lifts and one does not).

    Nielsen moves never change the generated subgroup, so the verdict of the
    base triple holds for the mixed one. Deep mixes cost as much to build as
    to decide, so each (class, kind, depth) keeps a pool of mixed triples:
    an input is a pooled triple plus two fresh moves, and one input in
    REFRESH replaces a pooled triple by a freshly mixed one.
    """

    BLOCK = 32
    POOL = 8
    REFRESH = 16

    def __init__(self, seed: int, label: str = "generator-decisions"):
        self.rng = random.Random(f"{label}/{seed}")
        self.powers = {tr: Powers(THETAS[tr]) for tr in THETAS}
        self.pairs = {tr: intertwiners(THETAS[tr]) for tr in NON_SCALAR}
        self.pools: dict[tuple, list] = {}
        self.blocks = 0
        self.next_id = 0

    # -- Nielsen moves, in exact.py arithmetic --------------------------------

    def _move(self, pw: Powers, triple: list) -> None:
        rng = self.rng
        i, j = rng.sample(range(3), 2)
        if rng.random() < 0.1:
            triple[i], triple[j] = triple[j], triple[i]
            return
        power = word_small_pow(pw, triple[j], rng.choice((-3, -2, -1, 1, 2, 3)))
        if rng.random() < 0.5:
            triple[i] = word_mul(pw, triple[i], power)
        else:
            triple[i] = word_mul(pw, power, triple[i])

    def _fresh(self, tr: int, kind: str, depth: int) -> list:
        triple = self._base(tr, kind, BASE_BITS[depth])
        for _ in range(depth):
            self._move(self.powers[tr], triple)
        return triple

    def _mixed(self, tr: int, kind: str, depth: int) -> list:
        rng = self.rng
        pool = self.pools.setdefault((tr, kind, depth), [])
        if len(pool) < self.POOL:
            pool.append(self._fresh(tr, kind, depth))
        elif rng.randrange(self.REFRESH) == 0:
            pool[rng.randrange(self.POOL)] = self._fresh(tr, kind, depth)
        triple = list(rng.choice(pool))
        for _ in range(2):
            self._move(self.powers[tr], triple)
        if kind == GENERATES and triple[1][0] == 0 and triple[2][0] == 0:
            # Keep the triple out of automorphism form: then it generates D
            # without being an automorphism, which makes it inelastic.
            triple[1] = word_mul(self.powers[tr], triple[1], triple[0])
        return triple

    def _base(self, tr: int, kind: str, bits: int) -> list:
        """A, or a power of it, with B/C words spanning a lattice L: all of
        Z^2, or for SUBLATTICE a proper theta-invariant L = M Z^2 with M a
        polynomial in theta."""
        rng = self.rng
        m = _random_unimodular(rng, 4, bits)
        a = (1, 0, 0)
        if kind == HCF:
            a = (rng.randint(2, 6), 0, 0)
        elif kind == SUBLATTICE:
            theta = THETAS[tr]
            d = rng.choice((2, 3))
            options = [(d, 0, 0, d)]
            for sign in (1, -1):
                poly = (theta[0] + sign, theta[1], theta[2], theta[3] + sign)
                if abs(det(poly)) > 1:
                    options.append(poly)
            m = mat_mul(rng.choice(options), m)
            a = (1, rng.randint(-5, 5), rng.randint(-5, 5))
        return [a, (0, m[0], m[2]), (0, m[1], m[3])]

    def _auto_image(self, tr: int, lifting: bool) -> tuple[list, tuple]:
        rng = self.rng
        if tr != -2:
            zeta, chi = rng.choice(self.pairs[tr])
        elif lifting:
            zeta, chi = rng.choice(MINUS_I_LIFTING)
        else:
            while True:
                zeta, chi = rng.choice((1, -1)), _random_unimodular(rng, 4)
                if not lifts(MINUS_I, zeta, chi):
                    break
        beta1, gamma1 = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        triple = [(zeta, beta1, gamma1), (0, chi[0], chi[2]), (0, chi[1], chi[3])]
        return triple, (zeta, chi, beta1, gamma1)

    # -- one input of each kind ----------------------------------------------

    def make(self, tr: int, kind: str, depth: int = 0, lifting: bool = True) -> dict:
        auto = None
        if kind == "auto":
            triple, auto = self._auto_image(tr, lifting)
            expected = (GENERATES, ELASTIC if lifts(THETAS[tr], auto[0], auto[1]) else INELASTIC)
        else:
            triple = self._mixed(tr, kind, depth)
            expected = (kind, INELASTIC if kind == GENERATES else NOT_A_SYMMETRY)
        op = {
            "id": self.next_id,
            "trace": tr,
            "theta": THETAS[tr],
            "kind": kind,
            "depth": depth,
            "triple": tuple(triple),
            "auto": auto,
            "verdict": expected[0],
            "class": expected[1],
        }
        self.next_id += 1
        return op

    def block(self) -> list[dict]:
        b = self.blocks
        self.blocks += 1
        out = []
        for tr in THETAS:
            out.extend(self.make(tr, GENERATES, d) for d in DEPTHS)
            out.append(self.make(tr, HCF, DEPTHS[b % 4]))
            out.append(self.make(tr, SUBLATTICE, DEPTHS[(b + 2) % 4]))
            out.append(self.make(tr, "auto", lifting=True))
            out.append(self.make(tr, "auto", lifting=tr != -2))
        self.rng.shuffle(out)
        return out


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


class CliInputs:
    """A mix of s2sym CLI invocations over all subcommands and classes.

    Per block of 16, three calls of each subcommand: 3 classify-theta,
    3 check-generators (triples from GeneratorInputs, depth at most 48),
    3 extend that lift (one for theta = -I), and 3 lattice-points --apply at
    box LARGE_BOX. Then 2 lattice-points --apply at box 3, 1 extend of a
    theta = -I automorphism that does not lift (a domain rejection, exit 3)
    and 1 rejected input (exit 2 or 3; the block index picks which).

    The large boxes are a fifth of the calls that pass, so the p90 tail falls
    amid them; with fewer it fell on the slowest few ordinary calls, which
    only the host's load sets.
    """

    BLOCK = 16
    LARGE_BOX = 10

    # Malformed or inadmissible inputs and the exit code each must give.
    REJECTS = (
        (["classify-theta", "--theta", "2,1,1,1"], 2),
        (["check-generators", "--theta", "0,1,-1,0", "--g1", "1,2", "--g2", "0,1,0", "--g3", "0,0,1"], 2),
        (["extend", "--theta", "0,1,-1,0", "--zeta", "1", "--chi", "1,1,0,1"], 3),
        (["lattice-points", "--theta", "1,1,-1,0", "--box", "-1"], 2),
    )

    def __init__(self, seed: int):
        self.rng = random.Random(f"cli-calls/{seed}")
        self.triples = GeneratorInputs(seed, label="cli-calls/triples")
        self.blocks = 0
        self.next_id = 0

    def _auto_args(self, auto) -> list[str]:
        zeta, chi, beta1, gamma1 = auto
        return ["--zeta", str(zeta), "--chi", _csv(chi), "--beta1", str(beta1), "--gamma1", str(gamma1)]

    def _random_auto(self, tr: int):
        rng = self.rng
        if tr == -2:
            zeta, chi = rng.choice(MINUS_I_LIFTING)
        else:
            zeta, chi = rng.choice(self.triples.pairs[tr])
        return (zeta, chi, rng.randint(-SMALL_SHIFT, SMALL_SHIFT), rng.randint(-SMALL_SHIFT, SMALL_SHIFT))

    def block(self) -> list[dict]:
        rng = self.rng
        b = self.blocks
        self.blocks += 1
        calls = []

        def add(command, tr, argv, exit_code, **info):
            calls.append({"command": command, "trace": tr, "argv": argv, "exit": exit_code, **info})

        for _ in range(3):
            tr = rng.choice(list(THETAS))
            n = rng.choice(BRANCHES[tr])
            add("classify-theta", tr, ["classify-theta", "--theta", _csv(THETAS[tr]), "--branch", str(n)], 0, n=n)
        for _ in range(3):
            tr = rng.choice(list(THETAS))
            kind = rng.choice((GENERATES, HCF, SUBLATTICE, "auto"))
            op = self.triples.make(tr, kind, rng.choice(DEPTHS[:3]), lifting=rng.random() < 0.5)
            words = [_csv(w) for w in op["triple"]]
            argv = ["check-generators", "--theta", _csv(THETAS[tr]), "--g1", words[0], "--g2", words[1], "--g3", words[2]]
            add("check-generators", tr, argv, 0, triple=op["triple"], verdict=op["verdict"])
        for tr in (rng.choice(NON_SCALAR), rng.choice(NON_SCALAR), -2):
            n = rng.choice(BRANCHES[tr])
            auto = self._random_auto(tr)
            argv = ["extend", "--theta", _csv(THETAS[tr]), "--branch", str(n), *self._auto_args(auto), "--box", str(BOX)]
            add("extend", tr, argv, 0, n=n, auto=auto, box=BOX)
        while True:
            zeta, chi = rng.choice((1, -1)), _random_unimodular(rng, 4)
            if not lifts(MINUS_I, zeta, chi):
                break
        auto = (zeta, chi, rng.randint(-SMALL_SHIFT, SMALL_SHIFT), rng.randint(-SMALL_SHIFT, SMALL_SHIFT))
        argv = ["extend", "--theta", _csv(MINUS_I), *self._auto_args(auto), "--box", str(BOX)]
        add("extend", -2, argv, 3, n=1, auto=auto, box=BOX, known_defect="cli-extend-minus-identity")
        for box in (self.LARGE_BOX, self.LARGE_BOX, self.LARGE_BOX, BOX, BOX):
            tr = rng.choice(list(THETAS))
            auto = self._random_auto(tr)
            argv = ["lattice-points", "--theta", _csv(THETAS[tr]), "--box", str(box), "--apply", _csv((auto[0], *auto[1], auto[2], auto[3]))]
            add("lattice-points", tr, argv, 0, auto=auto, box=box)
        argv, code = self.REJECTS[b % len(self.REJECTS)]
        add(argv[0], None, list(argv), code, rejected=True)
        rng.shuffle(calls)
        for call in calls:
            call["id"] = self.next_id
            self.next_id += 1
        return calls
