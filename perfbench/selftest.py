"""Planted wrong outputs: every output check must reject them.

Each workload's check is first fed a real, correct output (it must pass),
then copies with one planted fault: a perturbed component, a wrong
negation rule, a row that no longer sums to 1, a hit count off by one, an
estimate far from the closed form, a float where a Fraction belongs, a
perturbed Fraction, exit 1 for a call that should exit 0, a traceback
where exit 2 belongs, a one-byte change in an emitted grid.
"""

from __future__ import annotations

import dataclasses
import json
import types
from fractions import Fraction

from harness import Untimed
from workloads import algebra_exact, cli_small, sets_large, volume_mc


def _verdict(label: str, problems: list, failed: int, want_problem: bool, want_failed: int = 0) -> bool:
    ok = bool(problems) == want_problem and failed == want_failed
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {len(problems)} problem(s), {failed} failed"
          + (f" ({problems[0]})" if problems else ""))
    return ok


def _perturb(triplet, delta=1e-6):
    i = triplet.i + delta if triplet.i < 0.5 else triplet.i - delta
    return dataclasses.replace(triplet, i=i)


def sets_cases() -> list[bool]:
    wl = sets_large.Workload(3, small=True)
    out = wl.round(Untimed())
    res = [_verdict("sets_large: real output", *wl.check(out, None)[:2], want_problem=False)]

    def planted(label, fam, index, value):
        bad = dict(out)
        entry = list(bad[fam])
        entry[index] = value
        bad[fam] = tuple(entry)
        return _verdict(f"sets_large: {label}", *wl.check(bad, None)[:2], want_problem=True)

    docs, sets, results, sup, norm, texts = out["NS"]
    trips = list(results[1].triplets)
    trips[7] = _perturb(trips[7])
    perturbed = dataclasses.replace(results[1], triplets=tuple(trips))
    res.append(planted("one perturbed component", "NS", 2, [results[0], perturbed, *results[2:]]))
    flipped = dataclasses.replace(results[0], triplets=tuple(dataclasses.replace(t, i=1 - t.i) for t in results[0].triplets))
    res.append(planted("NS negation without reflecting I", "NS", 2, [flipped, *results[1:]]))
    scaled = tuple(dataclasses.replace(t, t=t.t * 0.999) if k == 3 else t for k, t in enumerate(norm.triplets))
    # a stand-in set: the package itself refuses to build an IFS set off sum 1
    res.append(planted("a normalized row off sum 1", "NS", 4, types.SimpleNamespace(triplets=scaled)))
    res.append(planted("a wrong sup denominator", "NS", 3,
                       dataclasses.replace(sup, denominator=sup.denominator * (1 + 1e-9))))
    res.append(planted("a changed dumped document", "NS", 5, [texts[0].replace("0.", "0.1", 1), texts[1]]))
    return res


def volume_cases() -> list[bool]:
    wl = volume_mc.Workload(3, small=True)
    est = wl.round(Untimed())
    res = [_verdict("volume_mc: real output", *wl.check(est, None)[:2], want_problem=False)]
    k = next(j for j, c in enumerate(wl.calls) if c[0] == "SFS" and c[3] == min(x[3] for x in wl.calls))
    off_by_one = list(est)
    off_by_one[k] += 1 / wl.calls[k][3]
    res.append(_verdict("volume_mc: a hit count off by one", *wl.check(off_by_one, None)[:2], want_problem=True))
    k = next(j for j, c in enumerate(wl.calls) if c[0] == "NHSFS" and c[3] == max(x[3] for x in wl.calls))
    far = list(est)
    far[k] += 20 / wl.calls[k][3] ** 0.5
    far[k] = round(far[k] * wl.calls[k][3]) / wl.calls[k][3]
    res.append(_verdict("volume_mc: an estimate far from the closed form", *wl.check(far, None)[:2],
                        want_problem=True))
    return res


def algebra_cases() -> list[bool]:
    wl = algebra_exact.Workload(3, small=True)
    out = wl.round(Untimed())
    res = [_verdict("algebra_exact: real output", *wl.check(out, None)[:2], want_problem=False)]
    k = next(j for j, r in enumerate(out) if type(r).__name__ == "Triplet" and r.t != 0)
    as_float = list(out)
    as_float[k] = dataclasses.replace(out[k], t=float(out[k].t))
    res.append(_verdict("algebra_exact: a float where a Fraction belongs", *wl.check(as_float, None)[:2],
                        want_problem=True))
    nudged = list(out)
    nudged[k] = dataclasses.replace(out[k], t=out[k].t - Fraction(1, 10**9) if out[k].t > 0.5
                                    else out[k].t + Fraction(1, 10**9))
    res.append(_verdict("algebra_exact: one perturbed Fraction", *wl.check(nudged, None)[:2], want_problem=True))
    return res


def cli_cases() -> list[bool]:
    wl = cli_small.Workload(3, small=True)
    try:
        results = wl.round(Untimed())
        names = [n for n, _ in wl.commands]
        problems, failed, _ = wl.check(results, None)
        # the malformed calls count as failed for as long as the CLI answers them with a traceback
        res = [_verdict("cli_small: real output", problems, failed, want_problem=False, want_failed=failed)]
        mended = list(results)
        for name in cli_small.MALFORMED:
            mended[names.index(name)] = (2, "", "error: bad input\n", 0)
        res.append(_verdict("cli_small: malformed calls answered with exit 2 and one line",
                            *wl.check(mended, None)[:2], want_problem=False))

        def planted(label, name, value, want_problem=True, want_failed=0):
            bad = list(mended)
            bad[names.index(name)] = value
            return _verdict(f"cli_small: {label}", *wl.check(bad, None)[:2], want_problem, want_failed)

        code, out, err, peak = results[names.index("op_ns_and")]
        payload = json.loads(out)
        payload["rows"][4]["result"][1] += 1e-6
        res.append(planted("one perturbed component", "op_ns_and", (code, json.dumps(payload), err, peak)))
        code, out, err, peak = results[names.index("validate")]
        res.append(planted("exit 1 instead of 0", "validate", (1, out, err, peak)))
        code, out, err, peak = results[names.index("matrix")]
        res.append(planted("a one-byte change in the emitted grid", "matrix", (code, out[:-2] + "X\n", err, peak)))
        res.append(planted("exit 1 with a traceback instead of exit 2", "volume_negative_seed",
                           (1, "", "Traceback (most recent call last):\nValueError: x\n", 0),
                           want_problem=False, want_failed=1))
    finally:
        wl.close()
    return res


def main() -> int:
    verdicts = sets_cases() + volume_cases() + algebra_cases() + cli_cases()
    print(f"{sum(verdicts)}/{len(verdicts)} self-test cases behave as expected")
    return 0 if all(verdicts) else 1
