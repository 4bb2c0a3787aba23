//! A from-scratch, box-bounded Nelder–Mead downhill simplex \[15\].
//!
//! The paper evaluated NLopt's algorithm portfolio and chose Nelder–Mead
//! as the local optimizer "because it performs best for our selectivity
//! estimations" (Section 4.2). This implementation uses the standard
//! coefficients (reflection 1, expansion 2, contraction ½, shrink ½),
//! clamps every candidate into the feasible box, and terminates on the
//! paper's criteria: an absolute tolerance between successive optima or a
//! maximum evaluation count (the paper's best configuration: tolerance 1,
//! 10 000 iterations).

/// Termination and step-size options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Stop when the simplex's best-worst spread falls below this.
    pub ftol_abs: f64,
    /// Hard cap on objective evaluations.
    pub max_evaluations: usize,
    /// Initial simplex edge length as a fraction of each coordinate's
    /// box width.
    pub initial_step_fraction: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        // The values Section 4.2 reports as the best trade-off.
        Self {
            ftol_abs: 1.0,
            max_evaluations: 10_000,
            initial_step_fraction: 0.25,
        }
    }
}

/// Outcome of one minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evaluations: usize,
    /// True if the tolerance criterion fired (false: ran out of budget).
    pub converged: bool,
}

/// Minimize `f` over the box `[lower, upper]`, starting at `start`.
///
/// `start` is clamped into the box. For a zero-dimensional problem the
/// start point is returned unevaluated… except it is evaluated once so the
/// result carries a value.
pub fn minimize(
    mut f: impl FnMut(&[f64]) -> f64,
    start: &[f64],
    lower: &[f64],
    upper: &[f64],
    options: &NelderMeadOptions,
) -> OptimizationResult {
    let dim = start.len();
    assert_eq!(lower.len(), dim, "bounds dimensionality mismatch");
    assert_eq!(upper.len(), dim, "bounds dimensionality mismatch");
    for d in 0..dim {
        assert!(
            lower[d] <= upper[d],
            "empty box in dimension {d}: [{}, {}]",
            lower[d],
            upper[d]
        );
    }
    let clamp = |x: &mut Vec<f64>| {
        for d in 0..dim {
            x[d] = x[d].clamp(lower[d], upper[d]);
        }
    };

    let mut evaluations = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        f(x)
    };

    let mut x0 = start.to_vec();
    clamp(&mut x0);
    if dim == 0 {
        let value = eval(&x0, &mut evaluations);
        return OptimizationResult {
            x: x0,
            value,
            evaluations,
            converged: true,
        };
    }

    // Initial simplex: x0 plus one perturbed point per dimension. If the
    // step would leave the box, step the other way.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(dim + 1);
    let v0 = eval(&x0, &mut evaluations);
    simplex.push((x0.clone(), v0));
    for d in 0..dim {
        let width = upper[d] - lower[d];
        let step = if width > 0.0 {
            width * options.initial_step_fraction
        } else {
            0.0
        };
        let mut xi = x0.clone();
        if xi[d] + step <= upper[d] {
            xi[d] += step;
        } else {
            xi[d] -= step;
        }
        clamp(&mut xi);
        let vi = eval(&xi, &mut evaluations);
        simplex.push((xi, vi));
    }

    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    let mut converged = false;
    while evaluations < options.max_evaluations {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("objective returned NaN"));
        let best = simplex[0].1;
        let worst = simplex[dim].1;
        if (worst - best).abs() < options.ftol_abs {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; dim];
        for (x, _) in &simplex[..dim] {
            for d in 0..dim {
                centroid[d] += x[d];
            }
        }
        for c in &mut centroid {
            *c /= dim as f64;
        }

        let worst_x = simplex[dim].0.clone();
        let blend = |t: f64| -> Vec<f64> {
            let mut x: Vec<f64> = (0..dim)
                .map(|d| centroid[d] + t * (centroid[d] - worst_x[d]))
                .collect();
            clamp(&mut x);
            x
        };

        // Reflection.
        let xr = blend(ALPHA);
        let vr = eval(&xr, &mut evaluations);
        if vr < simplex[0].1 {
            // Expansion.
            let xe = blend(GAMMA);
            let ve = eval(&xe, &mut evaluations);
            simplex[dim] = if ve < vr { (xe, ve) } else { (xr, vr) };
            continue;
        }
        if vr < simplex[dim - 1].1 {
            simplex[dim] = (xr, vr);
            continue;
        }
        // Contraction (outside if the reflection improved on the worst,
        // inside otherwise).
        let xc = if vr < simplex[dim].1 {
            blend(RHO)
        } else {
            blend(-RHO)
        };
        let vc = eval(&xc, &mut evaluations);
        if vc < simplex[dim].1.min(vr) {
            simplex[dim] = (xc, vc);
            continue;
        }
        // Shrink towards the best vertex.
        let best_x = simplex[0].0.clone();
        for vertex in simplex.iter_mut().skip(1) {
            for (v, &best) in vertex.0.iter_mut().zip(&best_x) {
                *v = best + SIGMA * (*v - best);
            }
            clamp(&mut vertex.0);
            vertex.1 = eval(&vertex.0, &mut evaluations);
            if evaluations >= options.max_evaluations {
                break;
            }
        }
    }

    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("objective returned NaN"));
    let (x, value) = simplex.swap_remove(0);
    OptimizationResult {
        x,
        value,
        evaluations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> NelderMeadOptions {
        NelderMeadOptions {
            ftol_abs: 1e-9,
            max_evaluations: 20_000,
            initial_step_fraction: 0.25,
        }
    }

    #[test]
    fn minimizes_quadratic_bowl() {
        let r = minimize(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &[-10.0, -10.0],
            &[10.0, 10.0],
            &opts(),
        );
        assert!(r.converged);
        assert!((r.x[0] - 3.0).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] + 1.0).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn respects_box_bounds() {
        // Unconstrained minimum at (-5, -5) lies outside the box.
        let r = minimize(
            |x| (x[0] + 5.0).powi(2) + (x[1] + 5.0).powi(2),
            &[5.0, 5.0],
            &[0.0, 0.0],
            &[10.0, 10.0],
            &opts(),
        );
        assert!(r.x[0] >= 0.0 && r.x[1] >= 0.0);
        assert!(r.x[0] < 1e-3 && r.x[1] < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn rosenbrock_two_d() {
        let r = minimize(
            |x| {
                let a = 1.0 - x[0];
                let b = x[1] - x[0] * x[0];
                a * a + 100.0 * b * b
            },
            &[-1.2, 1.0],
            &[-5.0, -5.0],
            &[5.0, 5.0],
            &opts(),
        );
        assert!((r.x[0] - 1.0).abs() < 1e-2, "{:?}", r);
        assert!((r.x[1] - 1.0).abs() < 1e-2, "{:?}", r);
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let budget = 50;
        let mut calls = 0usize;
        let r = minimize(
            |x| {
                // Count calls through a side channel for verification.
                x.iter().map(|v| v * v).sum::<f64>()
            },
            &[4.0, 4.0, 4.0, 4.0],
            &[-10.0; 4],
            &[10.0; 4],
            &NelderMeadOptions {
                ftol_abs: 0.0,
                max_evaluations: budget,
                initial_step_fraction: 0.25,
            },
        );
        calls += r.evaluations;
        assert!(calls <= budget + 5, "calls = {calls}"); // shrink may overshoot slightly
        assert!(!r.converged);
    }

    #[test]
    fn degenerate_box_dimension_is_held() {
        // Second coordinate is pinned: lower == upper.
        let r = minimize(
            |x| (x[0] - 2.0).powi(2) + (x[1] - 9.0).powi(2),
            &[0.0, 5.0],
            &[-10.0, 5.0],
            &[10.0, 5.0],
            &opts(),
        );
        assert_eq!(r.x[1], 5.0);
        assert!((r.x[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn one_dimensional_problem() {
        let r = minimize(|x| (x[0] - 0.25).powi(2), &[0.9], &[0.0], &[1.0], &opts());
        assert!((r.x[0] - 0.25).abs() < 1e-4);
    }

    #[test]
    fn absolute_tolerance_terminates_early() {
        let tight = minimize(
            |x| x[0] * x[0],
            &[100.0],
            &[-1000.0],
            &[1000.0],
            &NelderMeadOptions {
                ftol_abs: 1.0,
                max_evaluations: 10_000,
                initial_step_fraction: 0.25,
            },
        );
        assert!(tight.converged);
        // With ftol 1.0 we stop well before machine precision.
        assert!(tight.evaluations < 200);
    }
}
