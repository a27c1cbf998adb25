//! Differential bit-identity of the exact transform kernels.
//!
//! [`DiscreteLaplace::index_from_uniform`], [`Geometric::index_from_uniform`]
//! (with its `f64` twin [`Geometric::layer_from_uniform`]) and
//! [`Staircase::sample_from_uniforms`] compute `ceil`/`floor` with integer
//! arithmetic and choose sides with selects. Each must map every uniform to
//! exactly what the float formula it replaced maps it to, since every draw
//! provider and every pinned digest reaches noise through them. The
//! references below are those formulas, kept verbatim and rebuilt from each
//! distribution's public parameters.
//!
//! Each parameter set is checked on a dense grid of `u`, on 10⁶ random
//! uniforms, and on the edges: the side threshold `F(-1)` and its
//! neighbouring floats, `0`, `0.5`, `1 − 2⁻⁵³`, `f64::MIN_POSITIVE`, and
//! inputs outside `[0, 1)` (where the formulas are total too).

use free_gap_noise::rng::rng_from_seed;
use free_gap_noise::{DiscreteDistribution, DiscreteLaplace, Geometric, Staircase};
use rand::Rng;

/// Random uniforms per parameter set.
const RANDOM: usize = 1_000_000;
/// Grid points per parameter set: `i / GRID` for `i` in `0..=GRID`.
const GRID: u32 = 1 << 16;

/// `2⁵³`: from here up `l - 1.0` rounds.
const TWO_53: f64 = 9_007_199_254_740_992.0;

/// The float formula's index, and the quotient `l` it rounds.
fn reference_discrete(d: &DiscreteLaplace, u: f64) -> (i64, f64) {
    let alpha = d.alpha();
    let inv_ln_alpha = alpha.ln().recip();
    let one_plus_alpha = 1.0 + alpha;
    if u >= alpha / (1.0 + alpha) {
        let l = ((1.0 - u) * one_plus_alpha).max(f64::MIN_POSITIVE).ln() * inv_ln_alpha;
        let k = l.ceil() - 1.0;
        if k.is_finite() && k > 0.0 {
            (k as i64, l)
        } else {
            (0, l)
        }
    } else {
        let l = (u * one_plus_alpha).max(f64::MIN_POSITIVE).ln() * inv_ln_alpha;
        let k = (-l).ceil();
        if k.is_finite() && k < -1.0 {
            (k as i64, l)
        } else {
            (-1, l)
        }
    }
}

fn reference_geometric(alpha: f64, u: f64) -> u64 {
    let g = ((1.0 - u).max(f64::MIN_POSITIVE).ln() * alpha.ln().recip()).floor();
    if g.is_finite() && g >= 0.0 {
        g as u64
    } else {
        0
    }
}

fn reference_staircase(s: &Staircase, u: [f64; 4]) -> f64 {
    let (gamma, delta) = (s.gamma(), s.sensitivity());
    let b = (-s.epsilon()).exp();
    let sign = if u[0] < 0.5 { 1.0 } else { -1.0 };
    let g = reference_geometric(b, u[1]) as f64;
    let inner = u[3] < gamma / (gamma + (1.0 - gamma) * b);
    let magnitude = if inner {
        (g + gamma * u[2]) * delta
    } else {
        (g + gamma + (1.0 - gamma) * u[2]) * delta
    };
    sign * magnitude
}

/// Edge inputs shared by every kernel, plus `extra` (a kernel's own
/// thresholds with their neighbours).
fn edges(extra: &[f64]) -> Vec<f64> {
    let mut us = vec![
        0.0,
        -0.0,
        0.5,
        0.5f64.next_down(),
        0.5f64.next_up(),
        1.0 - f64::EPSILON / 2.0,
        1.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::EPSILON,
        -1e-300,
        2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for &t in extra {
        us.extend([t.next_down(), t, t.next_up()]);
    }
    us
}

/// The dense grid, the random uniforms of stream `seed`, then `edges`.
fn inputs(seed: u64, edges: Vec<f64>) -> impl Iterator<Item = f64> {
    let mut rng = rng_from_seed(seed);
    (0..=GRID)
        .map(|i| f64::from(i) / f64::from(GRID))
        .chain((0..RANDOM).map(move |_| rng.gen::<f64>()))
        .chain(edges)
}

/// Discrete Laplace parameter sets: the per-query rates of bulk-select's
/// discrete Top-K (`ε/k` for monotone counts, `ε/2k` otherwise, `γ = 1`),
/// the layer micro-timing's rate, a fine lattice, the paper's `γ = 2⁻⁵²`
/// (α two ulp-steps below 1), a steep decay, and α → 1.
fn discrete_sets() -> Vec<DiscreteLaplace> {
    let mut sets: Vec<DiscreteLaplace> = [
        (0.07, 1.0),
        (0.035, 1.0),
        (0.35, 1.0),
        (1.0, 2f64.powi(-20)),
        (1.0, 2f64.powi(-52)),
        (30.0, 1.0),
    ]
    .iter()
    .map(|&(eps, gamma)| DiscreteLaplace::new(eps, gamma).unwrap())
    .collect();
    // α → 1: the largest α below one and its neighbour.
    for alpha in [1.0 - f64::EPSILON / 2.0, 1.0 - f64::EPSILON] {
        sets.push(DiscreteLaplace::from_alpha(alpha, 1.0).unwrap());
    }
    sets
}

#[test]
fn discrete_laplace_kernel_matches_the_float_formula() {
    for (seed, d) in discrete_sets().iter().enumerate() {
        let alpha = d.alpha();
        let neg_cdf = alpha / (1.0 + alpha);
        // Upper-side inputs whose quotient is at least 2⁵³, where the
        // formula's `ceil(l) - 1.0` rounds.
        let mut rounding = 0usize;
        for u in inputs(seed as u64, edges(&[neg_cdf])) {
            let (got, (want, l)) = (d.index_from_uniform(u), reference_discrete(d, u));
            assert_eq!(got, want, "α = {alpha:e}, u = {u:e}");
            let value = d.value_from_uniform(u);
            assert_eq!(value.to_bits(), (want as f64 * d.base()).to_bits());
            rounding += usize::from(want >= 0 && l >= TWO_53);
        }
        // Near α = 1 (the paper's γ = 2⁻⁵² among them) the random uniforms
        // reach that range, so the sets above check it too.
        if alpha.ln().recip().abs() >= TWO_53 / 2.0 {
            assert!(rounding > 0, "α = {alpha:e}: no quotient reached 2^53");
        }
    }
}

#[test]
fn geometric_kernels_match_the_float_formula() {
    let alphas = [
        (-0.07f64).exp(),
        (-0.7f64).exp(),
        (-5.0f64).exp(),
        1e-300,
        (-2f64.powi(-52)).exp(),
        1.0 - f64::EPSILON / 2.0,
    ];
    for (seed, &alpha) in alphas.iter().enumerate() {
        let g = Geometric::new(alpha).unwrap();
        for u in inputs(100 + seed as u64, edges(&[])) {
            let want = reference_geometric(alpha, u);
            assert_eq!(g.index_from_uniform(u), want, "α = {alpha:e}, u = {u:e}");
            assert_eq!(
                g.layer_from_uniform(u).to_bits(),
                (want as f64).to_bits(),
                "α = {alpha:e}, u = {u:e}"
            );
        }
    }
}

/// Staircase shapes: the variance-optimal split at per-query budgets from
/// bulk-select's `0.7 / 41,270` up to 5, explicit splits and sensitivity,
/// and a budget so small that `e^{-ε}` sits one ulp-step below 1 (layers
/// beyond `2⁵²`).
fn staircase_sets() -> Vec<Staircase> {
    let mut sets: Vec<Staircase> = [0.7 / 41_270.0, 1e-3, 0.07, 0.7, 2.0, 5.0]
        .iter()
        .map(|&eps| Staircase::optimal(eps, 1.0).unwrap())
        .collect();
    sets.push(Staircase::new(0.9, 1.5, 0.35).unwrap());
    sets.push(Staircase::new(3.0, 0.25, 0.9).unwrap());
    sets.push(Staircase::new(1e-16, 1.0, 0.5).unwrap());
    sets
}

#[test]
fn staircase_kernel_matches_the_float_formula() {
    for (seed, s) in staircase_sets().iter().enumerate() {
        let mut rng = rng_from_seed(200 + seed as u64);
        let check = |four: [f64; 4]| {
            let (got, want) = (s.sample_from_uniforms(four), reference_staircase(s, four));
            // A NaN input may come back as a NaN of either sign.
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "ε = {:e}, u = {four:?}: {got:e} vs {want:e}",
                s.epsilon()
            );
        };
        for _ in 0..RANDOM {
            check([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
        }
        // The grid and the edges (the side threshold among them) in every
        // slot, the other three random.
        let grid = (0..=GRID).map(|i| f64::from(i) / f64::from(GRID));
        for u in grid.chain(edges(&[s.inner_side_probability()])) {
            for slot in 0..4 {
                let mut four = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
                four[slot] = u;
                check(four);
            }
        }
    }
}
