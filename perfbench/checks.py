"""Correctness checks for the benchmark's outputs, and a self-test of them.

Every check returns a list of failure messages (empty when it passes).  A
workload charges each failure to the operation whose output it examined, so a
failed check counts as a failed operation.  No check compares against stored
float bit patterns: bit-exact checks compare two outputs computed in the same
run, and the score check compares against a reference of metric values with
the tolerances of the metric oracles.
"""

from __future__ import annotations

import math

import numpy as np

ORACLE_TOL = 1e-12  # flicker / SC / BC tolerance; flows are integers, so OFT and EC match exactly
REF_FIELDS = ("flicker", "sc", "bc", "oft", "excluded")


class Tally:
    """Operations attempted, and the set of those that failed with why."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[int, list[str]] = {}

    def begin(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def charge(self, op: int, messages) -> None:
        for msg in messages:
            self.failed.setdefault(op, []).append(msg)

    @property
    def n_failed(self) -> int:
        return len(self.failed)


def bits_equal(a, b, what: str) -> list[str]:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        diff = (float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
                if a.shape == b.shape else math.nan)
        return [f"{what}: bits differ (max |diff| {diff:.3g})"]
    return []


def bits_differ(a, b, what: str) -> list[str]:
    if np.asarray(a).tobytes() == np.asarray(b).tobytes():
        return [f"{what}: outputs are bit-identical but should differ"]
    return []


def video_range(videos, what: str) -> list[str]:
    arr = np.asarray(videos)
    if not np.isfinite(arr).all():
        return [f"{what}: non-finite values"]
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        return [f"{what}: values outside [0, 1] ({arr.min():.4g}..{arr.max():.4g})"]
    return []


def losses_finite(rows, what: str) -> list[str]:
    bad = [r["step"] for r in rows
           if not (math.isfinite(r["loss_simple"]) and math.isfinite(r["loss_vlb"]))]
    return [f"{what}: non-finite loss at steps {bad[:5]}"] if bad else []


def loss_decreased(rows, what: str) -> list[str]:
    if len(rows) < 2 or not rows[-1]["loss_simple"] < rows[0]["loss_simple"]:
        first = rows[0]["loss_simple"] if rows else math.nan
        last = rows[-1]["loss_simple"] if rows else math.nan
        return [f"{what}: last loss {last:.4g} is not below first {first:.4g}"]
    return []


def params_unchanged(before: dict, params, what: str) -> list[str]:
    changed = [k for k, p in params.items() if p.data.tobytes() != before[k]]
    return [f"{what}: frozen parameters changed: {changed[:5]}"] if changed else []


def report_matches(report, expected_rows, what: str) -> list[str]:
    """Rows, aggregates and EC of a MetricsReport against reference rows.

    ``expected_rows`` holds one dict per scored clip with the REF_FIELDS.
    """
    out = []
    if report.aggregates is None or len(report.rows) != len(expected_rows):
        return [f"{what}: {len(report.rows)} rows scored, expected {len(expected_rows)}"]
    for i, (row, ref) in enumerate(zip(report.rows, expected_rows)):
        for key in ("flicker", "sc", "bc"):
            if not abs(row[key] - ref[key]) <= ORACLE_TOL:
                out.append(f"{what}: row {i} {key} {row[key]!r} != reference {ref[key]!r}")
        for key in ("oft", "excluded"):
            if row[key] != ref[key]:
                out.append(f"{what}: row {i} {key} {row[key]!r} != reference {ref[key]!r}")
    for key in ("flicker", "sc", "bc", "oft"):
        want = float(np.mean([ref[key] for ref in expected_rows]))
        got = report.aggregates[key]
        ok = got == want if key == "oft" else abs(got - want) <= ORACLE_TOL
        if not ok:
            out.append(f"{what}: aggregate {key} {got!r} != reference {want!r}")
    ec = sum(bool(ref["excluded"]) for ref in expected_rows)
    if report.excluded != ec:
        out.append(f"{what}: EC {report.excluded} != reference {ec}")
    return out


def selftest(reference: dict, make_pool_clip) -> list[str]:
    """Feed each check a defect it must catch; return the defects that slipped through."""
    from ufolab import evaluate_set, make_static_video

    missed = []

    def expect_failure(label, messages):
        tally = Tally()
        op = tally.begin()
        tally.charge(op, messages)
        if tally.n_failed != 1:
            missed.append(label)

    def expect_pass(label, messages):
        if messages:
            missed.append(f"{label} (false alarm: {messages[0]})")

    clips = [make_pool_clip(j) for j in range(2)]
    treated = [make_static_video(clips[0].data[0], clips[0].frames), clips[1]]
    refs = [reference["static"][0], reference["moving"][1]]
    expected = [dict(zip(REF_FIELDS, r)) for r in refs]
    expect_pass("score reference", report_matches(evaluate_set(treated, clips), expected, "selftest"))

    bumped = clips[1].data.copy()
    bumped[3, 5, 5, 0] = min(1.0, bumped[3, 5, 5, 0] + 0.25)
    perturbed = [treated[0], type(clips[1])(bumped, meta=clips[1].meta)]
    expect_failure("perturbed clip", report_matches(evaluate_set(perturbed, clips), expected, "selftest"))

    for key in REF_FIELDS[:4]:
        wrong = [dict(e) for e in expected]
        wrong[1][key] = wrong[1][key] + (1e-9 if key != "oft" else 1.0)
        expect_failure(f"mismatched reference {key}",
                       report_matches(evaluate_set(treated, clips), wrong, "selftest"))
    wrong = [dict(e) for e in expected]
    wrong[0]["excluded"] = not wrong[0]["excluded"]
    expect_failure("mismatched reference EC", report_matches(evaluate_set(treated, clips), wrong, "selftest"))

    video = np.stack([c.data for c in clips])
    expect_pass("in-range video", video_range(video, "selftest"))
    for label, value in (("out-of-range video", 1.5), ("negative video", -0.01),
                         ("non-finite video", np.nan)):
        bad = video.copy()
        bad[1, 2, 3, 4, 0] = value
        expect_failure(label, video_range(bad, "selftest"))

    one_ulp = video.copy()
    one_ulp[0, 0, 0, 0, 0] = np.nextafter(one_ulp[0, 0, 0, 0, 0], np.float32(1.0))
    expect_pass("identical bits", bits_equal(video, video.copy(), "selftest"))
    expect_failure("one-ulp difference", bits_equal(video, one_ulp, "selftest"))
    expect_failure("identical outputs that should differ", bits_differ(video, video.copy(), "selftest"))

    rows = [{"step": 1, "loss_simple": 1.0, "loss_vlb": 0.5}, {"step": 2, "loss_simple": 0.5, "loss_vlb": 0.4}]
    expect_pass("good losses", losses_finite(rows, "selftest") + loss_decreased(rows, "selftest"))
    expect_failure("non-finite loss", losses_finite(rows + [{"step": 3, "loss_simple": math.nan,
                                                             "loss_vlb": 0.1}], "selftest"))
    expect_failure("loss not decreasing", loss_decreased(rows[::-1], "selftest"))

    class P:
        def __init__(self, data):
            self.data = data

    params = {"w": P(np.ones(3, dtype=np.float32))}
    before = {"w": params["w"].data.tobytes()}
    expect_pass("frozen parameters", params_unchanged(before, params, "selftest"))
    params["w"].data[1] = np.nextafter(np.float32(1.0), np.float32(2.0))
    expect_failure("changed frozen parameter", params_unchanged(before, params, "selftest"))
    return missed
