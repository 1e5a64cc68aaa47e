"""The three benchmark workloads.

Each workload has four steps, run in one fresh interpreter per repetition:

- `generate(seed)`: the inputs, as plain data, from `random.Random(seed)`.
  The composition (how many items of which shape) is fixed; the seed
  chooses weights, characters, Chern data, elements and degrees.
- `setup(etakit, inputs)`: build the tables, algebras and characters the
  timed calls need, through the public API.
- `run(etakit, state)`: the timed region.  Returns the wall time, the
  per-item latencies (one public call each), the number of items and the
  outputs.
- `check(etakit, state, outputs)`: correctness, outside the timed region.
  Returns (attempted, failed, messages).

`digest(outputs)` gives the text whose hash must agree between
repetitions, traced or not.

Functions are looked up on the modules at call time, so a tracer that
rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from fractions import Fraction

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def _timed_calls(calls):
    """Run the (thunk) calls one after another; an exception is recorded
    as that item's output and is a failure in the check."""
    outputs, latencies = [], []
    start = clock()
    for call in calls:
        t0 = clock()
        try:
            out = call()
        except Exception as exc:  # the check reports it as a failed item
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    return clock() - start, latencies, outputs


# -- verify-all -------------------------------------------------------------------


def _reference_claim_ids():
    with open(os.path.join(HERE, "reference_claim_ids.json")) as fh:
        return json.load(fh)


def verify_all_generate(seed):
    return {}  # the headline command takes no input; the seed is only recorded


def verify_all_setup(etakit, inputs):
    return {"reference": _reference_claim_ids()}


def verify_all_run(etakit, state):
    """`etakit verify --suite all --format json` in-process.  The latency of
    a claim is the time from the previous claim's result to its own; the
    stamps come from wrapping `glrverify.claim`, which every claim passes
    through once."""
    glrverify = etakit.glrverify
    claim = glrverify.claim
    stamps = []

    def stamped(*args, **kwargs):
        out = claim(*args, **kwargs)
        stamps.append(clock())
        return out

    glrverify.claim = stamped
    buf = io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(buf):
            code = etakit.cli.main(["verify", "--suite", "all", "--format", "json"])
    except Exception as exc:  # the check reports it as a failed run
        code = exc
    finally:
        wall = clock() - start
        glrverify.claim = claim
    latencies = [b - a for a, b in zip([start] + stamps, stamps)]
    return wall, latencies, len(state["reference"]), {"code": code, "stdout": buf.getvalue()}


def verify_all_check(etakit, state, outputs):
    ref = state["reference"]
    code, text = outputs["code"], outputs["stdout"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return len(ref), len(ref), [f"verify exited with {code!r}, report is not JSON: {exc}"]
    status = {c["id"]: c["status"] for c in report}
    ids = [c["id"] for c in report]
    known = set(ref)
    failed = [i for i in ref if status.get(i) != "pass"]
    extra = [i for i in ids if i not in known]
    messages = [f"claim {i}: {status.get(i, 'missing')}" for i in failed]
    messages += [f"unexpected claim {i}" for i in extra]
    if not messages and (code != 0 or ids != ref):
        messages.append(f"verify exited with {code!r}" if code != 0
                        else "claim ids are out of order")
        failed = ref
    return len(ref) + len(extra), len(failed) + len(extra), messages


def verify_all_digest(outputs):
    return outputs["stdout"]


# -- eta-sweep ------------------------------------------------------------------------

# (l, number of weights, kind) per lens item.  Costs at commit 6d2f86a
# (2 vCPU, CPython 3.11.7): roughly 40-100 ms at l=16, 0.1-0.6 s at l=32 and
# 0.7-1.6 s at l=64; the Donnelly sums take 8-30 ms.  The shapes are fixed so that every seed puts the
# median among the l=16 sums and the 90th percentile among the l=64 ones.
LENS_SHAPES = ([(16, 4, kind) for kind in ("sphere", "bundle") for _ in range(4)]
               + [(32, w, "sphere") for w in (2, 6, 8)] + [(32, 2, "bundle")]
               + [(64, 2, "sphere"), (64, 2, "sphere"), (64, 2, "bundle")])
DONNELLY_ITEMS = 6


def eta_sweep_generate(seed):
    rng = random.Random(seed)
    items = []
    for i, (l, w, kind) in enumerate(LENS_SHAPES):
        a = [rng.randrange(1, l, 2) for _ in range(w)]
        chern = None
        if kind == "bundle":
            chern = [0] * w
            nonzero = 1 if l > 16 else 1 + i % 2
            for j in rng.sample(range(w), min(nonzero, w)):
                chern[j] = rng.choice([-3, -2, -1, 1, 2, 3])
        # a virtual character of dimension zero on C_l: r_i - r_j or r_i + r_j - 2 r_k
        terms = (1, -1) if i % 2 == 0 else (1, 1, -2)
        rho = [0] * l
        for idx, c in zip(rng.sample(range(l), len(terms)), terms):
            rho[idx] += c
        items.append({"kind": kind, "l": l, "a": a, "chern": chern, "rho": rho})
    for _ in range(DONNELLY_ITEMS):
        items.append({"kind": "quaternion", "k": rng.randrange(8, 17),
                      "power": rng.randrange(1, 4)})
    rng.shuffle(items)
    return {"items": items}


def eta_sweep_setup(etakit, inputs):
    tables = {l: etakit.character_table(f"c{l}")
              for l in sorted({shape[0] for shape in LENS_SHAPES})}
    tau = etakit.character_table("q8").irreducible("tau")
    cases = []
    for item in inputs["items"]:
        if item["kind"] == "quaternion":
            manifold = etakit.ManifoldSpec(quaternion_k=item["k"])
            rho = (2 - tau) ** item["power"]
        else:
            spec = etakit.LensSpec(item["l"], tuple(item["a"]), kind=item["kind"],
                                   chern=None if item["chern"] is None
                                   else tuple(item["chern"]))
            manifold = etakit.ManifoldSpec(lens=spec)
            rho = etakit.VirtualCharacter(tables[item["l"]], item["rho"])
        cases.append((manifold, rho))
    return {"cases": cases}


def eta_sweep_run(etakit, state):
    calls = [lambda m=m, r=r: etakit.eta_of(m, r) for m, r in state["cases"]]
    wall, latencies, outputs = _timed_calls(calls)
    return wall, latencies, len(calls), outputs


def eta_sweep_check(etakit, state, outputs):
    """Every exact value agrees with the double-precision oracle to 1e-9."""
    messages = []
    for n, ((manifold, rho), value) in enumerate(zip(state["cases"], outputs)):
        if isinstance(value, Exception):
            messages.append(f"item {n}: {type(value).__name__}: {value}")
            continue
        approx = etakit.eta_of_float(manifold, rho)
        if not isinstance(value, Fraction) or abs(float(value) - approx) > 1e-9:
            messages.append(f"item {n}: exact {value} vs float {approx!r}")
    return len(outputs), len(messages), messages


def eta_sweep_digest(outputs):
    return "\n".join(repr(v) for v in outputs)


# -- f2-sweep -----------------------------------------------------------------------------

CLAIM_CALLS = (("verify_prop51", 64), ("verify_prop53", 64), ("verify_prop41", 4),
               ("verify_prop41", 8), ("verify_prop41", 12), ("verify_prop41", 16))
# The pushforwards run at a fixed set of degrees (the seed chooses their
# order), so the median call is one of them for every seed; the normal
# forms and squares are cheaper, and the claim calls make up the top tenth.
NF_DEGREES = (16, 20, 24) * 3 + (20,)            # total degree of each product
SQ_DEGREES = (6, 8, 10, 12) * 2 + (8, 10)        # degree of the element Sq^i acts on
PUSH_DEGREES = tuple(range(26, 46))


def f2_sweep_generate(seed):
    rng = random.Random(seed)
    nf = [{"algebra": ("sd", "d8")[i % 2], "degrees": _split(rng, d),
           "pick_seed": rng.getrandbits(32)} for i, d in enumerate(NF_DEGREES)]
    sq = [{"degrees": _split(rng, d), "i": rng.randrange(1, d + 1),
           "pick_seed": rng.getrandbits(32)} for d in SQ_DEGREES]
    push = [{"map": ("sd-to-d8", "d8-to-v2")[d % 2], "degree": d} for d in PUSH_DEGREES]
    rng.shuffle(push)
    return {"nf": nf, "sq": sq, "push": push}


def _split(rng, d):
    d1 = rng.randrange(2, d - 1)
    return [d1, d - d1]


def f2_sweep_setup(etakit, inputs):
    sd = etakit.semidihedral_cohomology(64)
    d8 = etakit.dihedral_cohomology(64)
    v2 = etakit.klein_cohomology(64)
    algebras = {"sd": sd, "d8": d8}
    homs = {"sd-to-d8": etakit.sd_to_d8_restriction(sd, d8),
            "d8-to-v2": etakit.d8_to_v2_restriction(d8, v2)}
    steenrod = etakit.semidihedral_steenrod(sd)

    def factors(alg, degrees, pick_seed, size):
        """Two elements of the given degrees, each a sum of up to `size`
        distinct normal-form monomials."""
        rng = random.Random(pick_seed)
        out = []
        for d in degrees:
            basis = alg.graded_basis(d)
            mons = rng.sample(basis, min(size, len(basis)))
            out.append(etakit.F2AlgebraElement(alg, frozenset(mons)))
        return out

    nf = []
    for q in inputs["nf"]:
        alg = algebras[q["algebra"]]
        a, b = factors(alg, q["degrees"], q["pick_seed"], 4)
        raw = [tuple(x + y for x, y in zip(m1, m2))
               for m1 in sorted(a.monomials) for m2 in sorted(b.monomials)]
        nf.append((alg, a, b, raw))
    sq = []
    for q in inputs["sq"]:
        a, b = factors(sd, q["degrees"], q["pick_seed"], 2)
        sq.append((q["i"], a, b, a * b))
    push = [(homs[q["map"]], q["degree"]) for q in inputs["push"]]
    return {"steenrod": steenrod, "nf": nf, "sq": sq, "push": push}


def f2_sweep_run(etakit, state):
    glrverify = etakit.glrverify
    steenrod = state["steenrod"]
    calls = [lambda f=f, n=n: getattr(glrverify, f)(n) for f, n in CLAIM_CALLS]
    calls += [lambda alg=alg, raw=raw: alg.normal_form(raw)
              for alg, _, _, raw in state["nf"]]
    calls += [lambda i=i, x=x: steenrod.sq(i, x) for i, _, _, x in state["sq"]]
    calls += [lambda h=h, n=n: etakit.dual_pushforward_map(h, n)
              for h, n in state["push"]]
    wall, latencies, outputs = _timed_calls(calls)
    claims = sum(len(out) for out in outputs[:len(CLAIM_CALLS)]
                 if isinstance(out, list))
    return wall, latencies, claims + len(calls) - len(CLAIM_CALLS), outputs


def f2_sweep_check(etakit, state, outputs):
    """Claims pass; each query matches an identity computed another way."""
    messages, attempted = [], 0
    k = len(CLAIM_CALLS)
    for (name, n), out in zip(CLAIM_CALLS, outputs[:k]):
        if isinstance(out, Exception):
            attempted += 1
            messages.append(f"{name}({n}): {type(out).__name__}: {out}")
            continue
        attempted += len(out)
        messages += [f"{name}({n}): claim {c.claim_id} failed" for c in out if not c.passed]
    nf_out = outputs[k:k + len(state["nf"])]
    sq_out = outputs[k + len(state["nf"]):k + len(state["nf"]) + len(state["sq"])]
    push_out = outputs[k + len(state["nf"]) + len(state["sq"]):]
    for n, ((alg, a, b, _), got) in enumerate(zip(state["nf"], nf_out)):
        # reduce-then-multiply equals multiply-then-reduce; the normal form is idempotent
        ok = (not isinstance(got, Exception) and got == a * b
              and alg.normal_form(got) == got)
        if not ok:
            messages.append(f"nf query {n}: {got}")
    steenrod = state["steenrod"]
    for n, ((i, a, b, _), got) in enumerate(zip(state["sq"], sq_out)):
        # Cartan formula: Sq^i(ab) = sum_j Sq^j(a) Sq^(i-j)(b)
        cartan = a.algebra.zero
        for j in range(i + 1):
            cartan = cartan + steenrod.sq(j, a) * steenrod.sq(i - j, b)
        if isinstance(got, Exception) or got != cartan:
            messages.append(f"sq query {n}: Sq^{i} gives {got}, Cartan gives {cartan}")
    for n, ((hom, degree), got) in enumerate(zip(state["push"], push_out)):
        if isinstance(got, Exception) or got != _pushforward_by_images(hom, degree):
            messages.append(f"push query {n}: {hom.name} in degree {degree}")
    attempted += len(outputs) - k
    return attempted, len(messages), messages


def _pushforward_by_images(hom, degree):
    """Dual pushforward from the generator images: the image of a source
    monomial is the product of powers of the images of its generators."""
    src, tgt = hom.source, hom.target
    out = {t: set() for t in tgt.graded_basis(degree)}
    for s in src.graded_basis(degree):
        image = tgt.one
        for img, e in zip(hom.images, s):
            image = image * img ** e
        for t in image.monomials:
            out[t].add(s)
    return {t: frozenset(v) for t, v in out.items()}


def f2_sweep_digest(outputs):
    parts = []
    for out in outputs:
        if isinstance(out, list):
            parts.append(repr([(c.claim_id, c.computed, c.status) for c in out]))
        elif isinstance(out, dict):
            parts.append(repr(sorted((t, sorted(s)) for t, s in out.items())))
        else:
            parts.append(repr(out))
    return "\n".join(parts)


WORKLOADS = {
    "verify-all": (verify_all_generate, verify_all_setup, verify_all_run,
                   verify_all_check, verify_all_digest),
    "eta-sweep": (eta_sweep_generate, eta_sweep_setup, eta_sweep_run,
                  eta_sweep_check, eta_sweep_digest),
    "f2-sweep": (f2_sweep_generate, f2_sweep_setup, f2_sweep_run,
                 f2_sweep_check, f2_sweep_digest),
}
