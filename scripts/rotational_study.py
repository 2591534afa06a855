#!/usr/bin/env python3
"""End-to-end study of the tangential-noise model.

Verifies the hand candidate, rebuilds a candidate from the worst-case value
constructions, simulates controlled paths, and fits the pathwise envelopes.
Everything prints as a short report; no files are written.
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import aslyap as al  # noqa: E402

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=81)
    ap.add_argument("--paths", type=int, default=2000)
    ap.add_argument("--horizon", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    parsed = al.parse_model((MODELS / "rotational.model").read_text())
    model = parsed.model

    print("== pointwise verification ==")
    grid = al.Grid((-1, -1), (1, 1), (args.nodes, args.nodes))
    t0 = time.monotonic()
    rep = al.check_supersolution(model, parsed.candidate, grid, parsed.gauge)
    print(f"strict decrease check: {rep.n_pass}/{rep.n_pass + rep.n_fail} nodes pass, "
          f"worst margin {rep.worst_margin:.2e} ({time.monotonic() - t0:.2f}s)")
    rad = al.radial_sufficient_check(model, grid)
    print(f"radial sufficient condition: {'pass' if rad.all_pass else 'FAIL'}")

    print("\n== worst-case value constructions ==")
    h = max(grid.spacing)
    scheme = al.default_scheme(model, grid, cap=1.0, dt=h)
    sup = al.worst_case_sup_value(model, grid, scheme)
    r = np.linalg.norm(grid.nodes(), axis=1)
    err_sup = np.abs(sup.field.flat - r)[r <= 0.8].max()
    print(f"sup-cost value: {sup.field.iterations} sweeps, "
          f"max |V - |x|| = {err_sup:.2e} on |x| <= 0.8")

    grid_i = al.Grid((-1, -1), (1, 1), (args.nodes, args.nodes), rho=4 * h)
    scheme_i = al.default_scheme(model, grid_i, cap=2.0, dt=h)
    integ = al.worst_case_integral_value(model, grid_i, parsed.gauge, scheme_i)
    err_int = np.abs(integ.field.flat - r)[(r > grid_i.rho) & (r <= 0.8)].max()
    print(f"integral-cost value: {integ.field.iterations} sweeps, "
          f"max |V - |x|| = {err_int:.2e} on the band")

    fb = al.synthesize_feedback(model, sup.field, scheme)
    print(f"feedback: {len(np.unique(fb.control_indices))} distinct control(s)")

    print("\n== pathwise validation ==")
    dt = 1e-3
    ens = al.simulate_ensemble(model, [0.5, 0.0], dt=dt, T=args.horizon,
                               n_paths=args.paths, seed=args.seed,
                               candidate=parsed.candidate, gauge=parsed.gauge,
                               workers=2)
    print(f"{ens.n_paths} paths: max sup-radius {ens.sup_radius.max():.4f} "
          f"(bound {0.5 * (1 + 5 * np.sqrt(dt)):.4f}), exits {int(ens.exited.sum())}")
    sm = al.check_supermaxingale(ens, parsed.candidate, parsed.gauge, tol=0.05)
    print(f"pathwise decrease excess: {sm.worst_excess:.4f} at t = {sm.worst_time:.2f}")
    decay = al.estimate_decay_envelope([ens])
    print(f"decay envelope: kappa = {decay.kappa:.3f} (target 0.5), "
          f"asymptotic = {decay.asymptotic}")

    x0s = [[0.125, 0], [0.25, 0], [0.5, 0]]
    starts = [al.simulate_ensemble(model, x0, dt=dt, T=3.0, n_paths=max(100, args.paths // 10),
                                   seed=args.seed + j, workers=2)
              for j, x0 in enumerate(x0s)]
    stab = al.estimate_stabilizability_gauge(starts)
    pairs = ", ".join(f"{r:.3f}->{v:.3f}" for r, v in zip(stab.radii, stab.worst_sup))
    print(f"stabilizability envelope ({'consistent' if stab.consistent else 'NEGATIVE'}): "
          f"{pairs}")


if __name__ == "__main__":
    main()
