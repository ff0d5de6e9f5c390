"""The benchmark's inputs: a pinned sample snapshot and seeded generators.

Every workload is a list of instance files, written before timing starts and
run in one cold process each.  The generated workloads draw from
``random.Random`` seeded by the workload name and ``--seed``, so the same
seed gives byte-identical files; run.py prints their digest.

Every generated file has a fixed shape in which the seed permutes the
variables: each seed gives other files of the same cost, which keeps the
spread between seeds down to the machine's own.  The 30 corpus shapes are
themselves drawn once, at random, from a fixed stream.

The generators keep only the input contract: J contains a power of every
variable (it is built from them), and every declared candidate is certified
by ``verify_joint_reduction`` when the file is written.  An uncertified
option is not declared; no family is dropped because a request on it failed.
"""

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
SAMPLE = HERE / "inputs" / "dim4_joint_reduction.json"
#: Digest of the shipped dim4 sample with ``direct: false``; a changed
#: snapshot must fail loudly rather than silently change the workload.
SAMPLE_SHA256 = "33e2bd15d07ceabfce77dd5d29a590f9ce7a34be523bd0622c4d7344d142bba5"

#: Why each workload is there; the same text is in BENCHMARK.json for the
#: two it lists, sample and koszul.  Between them they reach every layer, and
#: two workloads leave the time budget room for runs of 60 s, the shortest
#: that stay steady on a shared 2-vCPU host.  counting and corpus run the same
#: way by name.
WHY = {
    "sample": "the shipped dim4 instance with direct: false, the canonical user run; mixed dominates and L1 ideal arithmetic does most of the work",
    "counting": "hilbert P and F on seeded 3-variable families; the J^n0 colon floor of hf_F makes L2 length counting do most of the work",
    "koszul": "chi with direct: true on certified 3-variable candidates, and one small search-jr; L6 strand assembly and exact rank do most of the work",
    "corpus": "30 small seeded families with all nine commands; import and parse outweigh the work, so added set-up or per-request cost shows",
}

#: counting: per file, J and I1 in 3 variables before the seed's variable
#: permutation.  J is pure powers of degree <= 3 plus a mixed generator.
COUNTING_SLOTS = (
    ([(1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1)], [(1, 0, 0), (0, 1, 0)]),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 3)], [(1, 0, 0), (0, 0, 1)]),
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)], [(1, 0, 0), (0, 1, 0)]),
    ([(1, 0, 0), (0, 2, 0), (0, 0, 2)], [(0, 1, 0), (1, 0, 0)]),
)

#: koszul: per file, I1 in 3 variables before the seed's variable
#: permutation; J is the maximal ideal.  Generator degree 1 and one ideal put
#: each direct chi request under half a second and a pass near three seconds,
#: so a run repeats every request often enough for its best time to be
#: steady on a shared host.
KOSZUL_SLOTS = (
    [(1, 0, 0), (0, 1, 0)],
    [(1, 0, 0)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
)

CORPUS_FAMILIES = 30
#: corpus: (variables, ideals) per slot.  Three variables get one ideal and
#: generator degree 2: with two ideals or degree 3 one file costs seconds,
#: not the tens of milliseconds this workload is about.
CORPUS_SHAPES = ((2, 1), (2, 2), (3, 1))


def monomial(exps):
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) or "1"


def _pure(m, i, e):
    return tuple(e if j == i else 0 for j in range(m))


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _permuted(rng, *parts):
    """The same monomial lists under one random permutation of the variables:
    a new input of exactly the same shape and cost."""
    m = len(parts[0][0])
    perm = list(range(m))
    rng.shuffle(perm)
    return [[tuple(g[perm[i]] for i in range(m)) for g in gens] for gens in parts]


def _doc(m, j, ideals, relations=()):
    return {
        "variables": [f"x{i + 1}" for i in range(m)],
        "module_relations": [monomial(r) for r in relations],
        "J": [monomial(g) for g in j],
        "ideals": {f"I{i + 1}": [monomial(g) for g in gens] for i, gens in enumerate(ideals)},
        "candidates": {},
        "requests": [],
    }


def _candidate(k0, k, elements):
    return {
        "type": {"k0": k0, "k": list(k)},
        "elements": [{"monomial": monomial(e), "source": s} for e, s in elements],
    }


def _first_certified(doc, options, required=True):
    """The first option that verify_joint_reduction certifies, or None.

    When `required`, the last option is all J pure powers, a joint reduction
    by construction; a program that certifies none of the options is wrong,
    and the run stops.
    """
    from multimult.instances import parse_instance
    from multimult.reductions import verify_joint_reduction

    trial = dict(doc, candidates={f"o{i}": c for i, c in enumerate(options)}, requests=[])
    inst = parse_instance(json.dumps(trial))
    for i, option in enumerate(options):
        if verify_joint_reduction(inst.family, inst.candidates[f"o{i}"]).holds:
            return option
    if required:
        raise SystemExit(f"error: no candidate certified for J={doc['J']}, ideals={doc['ideals']}")
    return None


def _options(m, pure, ideal_gens, d):
    """Candidate shapes: one I1 generator with the J pure powers of the other
    variables (type (m-2, e_1)), then all J pure powers (type (m-1, 0))."""
    e1 = [1] + [0] * (d - 1)
    out = []
    for g in ideal_gens:
        for skip in range(m):
            if g[skip] == 0:
                continue
            js = [(p, "J") for p in pure if p[skip] == 0]
            out.append(_candidate(m - 2, e1, [(g, "I1")] + js))
    out.append(_candidate(m - 1, [0] * d, [(p, "J") for p in pure]))
    return out


def _counting(seed):
    rng = _rng("counting", seed)
    files = []
    for slot, shape in enumerate(COUNTING_SLOTS):
        j, gens = _permuted(rng, *shape)
        doc = _doc(3, j, [gens])
        doc["requests"] = [
            {"command": "hilbert", "which": "P"},
            {"command": "hilbert", "which": "F"},
        ]
        files.append((f"counting-{slot}.json", doc))
    return files


def _koszul(seed):
    rng = _rng("koszul", seed)
    maximal = [_pure(3, i, 1) for i in range(3)]
    files = []
    for slot, shape in enumerate(KOSZUL_SLOTS):
        (i1,) = _permuted(rng, shape)
        doc = _doc(3, maximal, [i1])
        # One candidate per type; each is certified or left out.
        by_type = {
            "J": [_candidate(2, [0], [(p, "J") for p in maximal])],
            "I1": _options(3, maximal, i1, 1)[:-1],
        }
        for name, options in by_type.items():
            cand = _first_certified(doc, options, required=name == "J")
            if cand is not None:
                doc["candidates"][name] = cand
                doc["requests"].append({"command": "chi", "candidate": name, "direct": True})
        # The sample has no search-jr request; one small search here keeps
        # that layer measured.
        doc["requests"].append(
            {"command": "search-jr", "type": {"k0": 1, "k": [1]}, "max_degree": 1, "budget": 20})
        files.append((f"koszul-{slot}.json", doc))
    return files


def _random_monomial(rng, m, lo, hi):
    while True:
        exps = [0] * m
        for _ in range(rng.randint(lo, hi)):
            exps[rng.randrange(m)] += 1
        if any(exps):
            return tuple(exps)


def _corpus_families():
    """The corpus families in canonical form: (variables, ideal count, J,
    ideals, relations), drawn once from a fixed stream."""
    rng = random.Random("corpus-families")
    families = []
    for slot in range(CORPUS_FAMILIES):
        m, d = CORPUS_SHAPES[slot % len(CORPUS_SHAPES)]
        exps = [rng.randint(1, 5 - m) for _ in range(m)]
        j = [_pure(m, i, e) for i, e in enumerate(exps)]
        if rng.random() < 0.5:
            # Degree >= every pure-power exponent: integral over the pure
            # powers, so they stay a reduction of J.
            g = _random_monomial(rng, m, max(exps), 3)
            if sum(1 for e in g if e) >= 2 and all(g[i] < exps[i] for i in range(m)):
                j.append(g)
        ideals = [
            sorted({_random_monomial(rng, m, 1, 4 - m) for _ in range(rng.randint(1, 2))})
            for _ in range(d)
        ]
        relations = [_random_monomial(rng, m, 2, 3)] if rng.random() < 0.5 else []
        families.append((m, d, j, ideals, relations))
    return families


def _corpus(seed):
    rng = _rng("corpus", seed)
    files = []
    for slot, (m, d, j, ideals, relations) in enumerate(_corpus_families()):
        j, relations, *ideals = _permuted(rng, j, relations, *ideals)
        pure = [g for g in j if sum(1 for e in g if e) == 1]
        doc = _doc(m, j, ideals, relations)
        cand = _first_certified(doc, _options(m, pure, ideals[0], d))
        doc["candidates"]["c"] = cand
        mt = cand["type"]
        doc["requests"] = [
            {"command": "hilbert", "which": "P"},
            {"command": "mixed", "type": mt},
            {"command": "verify-jr", "candidate": "c"},
            {"command": "element-props", "monomial": doc["ideals"]["I1"][0], "ideal": "I1"},
            {"command": "mult-symbol", "candidate": "c"},
            {"command": "chi", "candidate": "c", "direct": False},
            {"command": "verify-theorem", "candidate": "c", "ideal": "I1"},
            {"command": "verify-corollaries", "candidate": "c", "ideal": "I1"},
            {"command": "search-jr", "type": mt, "max_degree": 1, "budget": 20},
        ]
        files.append((f"corpus-{slot:02d}.json", doc))
    return files


GENERATORS = {"counting": _counting, "koszul": _koszul, "corpus": _corpus}


def build(workload, seed, directory):
    """Write the workload's instance files into `directory`.

    Returns the paths in run order and the digest of their contents.
    """
    if workload == "sample":
        text = SAMPLE.read_text()
        actual = hashlib.sha256(text.encode()).hexdigest()
        if actual != SAMPLE_SHA256:
            raise SystemExit(
                f"error: {SAMPLE} changed (sha256 {actual}); the sample workload "
                "is pinned to the shipped dim4 instance with direct: false"
            )
        named = [(SAMPLE.name, text)]
    else:
        named = [
            (name, json.dumps(doc, indent=1, sort_keys=True) + "\n")
            for name, doc in GENERATORS[workload](seed)
        ]
    digest = hashlib.sha256()
    paths = []
    for name, text in named:
        path = Path(directory) / name
        path.write_text(text)
        paths.append(path)
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    return paths, digest.hexdigest()
