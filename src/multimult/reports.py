"""Report assembly: the JSON payloads of fits, certificates and verdicts.

Reports are deterministic JSON documents (modulo the timing field): every
numeric result carries the window and band metadata that produced it, and
every asserted equality names the two computation paths behind its sides.
"""

from __future__ import annotations

SCHEMA_VERSION = 2


def poly_payload(poly) -> dict:
    coeffs = {",".join(map(str, idx)): str(c) for idx, c in sorted(poly.coeffs.items())}
    degree = poly.total_degree
    return {
        "basis": "binomial",
        "coefficients": coeffs,
        "total_degree": None if degree == float("-inf") else int(degree),
    }


def report_payload(report) -> dict:
    return {
        "claim": report.claim_id,
        "instance": report.instance,
        "left": str(report.left),
        "right": str(report.right),
        "hypotheses": [{"name": n, "holds": ok} for n, ok in report.hypotheses],
        "verdict": report.verdict.value,
    }


def certificate_payload(cert) -> dict:
    out = {
        "holds": cert.holds,
        "window_base": cert.window_base,
        "window_extent": cert.window_extent,
    }
    if cert.witness is not None:
        point, mono = cert.witness
        out["witness"] = {"multidegree": list(point), "monomial": str(mono)}
    return out
