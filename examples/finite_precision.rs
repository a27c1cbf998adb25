//! Finite-precision mechanisms: discrete Laplace Top-K and staircase
//! measurement (§5.1 "implementation issues" + §3.1 noise alternatives).
//!
//! Real deployments cannot sample continuous Laplace noise; they sample on
//! a lattice of step γ, where ties are possible and the guarantee is
//! (ε, δ)-DP with δ bounded by Appendix A.1. This example runs the
//! integer-count Top-K end to end, prints its δ ledger at several lattice
//! granularities, and compares Laplace against variance-optimal staircase
//! measurement noise.
//!
//! Run with: `cargo run --release --example finite_precision`

use free_gap::prelude::*;
use free_gap_noise::rng::derive_stream;

fn main() {
    let db = Dataset::T40I10D100K.generate_scaled(0.05, 21);
    let counts = db.item_counts();
    let answers = QueryAnswers::from_counts(counts.as_u64());
    let (k, epsilon) = (5, 1.0);

    // --- Discrete-Laplace Top-K on integer counts (γ = 1) ---
    let mech = DiscreteNoisyTopKWithGap::new(k, epsilon, true).unwrap();
    let out = mech.run(&answers, &mut rng_from_seed(1)).unwrap();
    println!("discrete Noisy-Top-{k}-with-Gap (γ = 1, integer counts):");
    for item in &out.items {
        println!(
            "  item {:>4}: integer gap {:>4}  (true count {})",
            item.index,
            item.gap as i64,
            counts.count(item.index)
        );
    }

    // The (ε, δ) ledger from Appendix A.1: δ = n²γε'(1 + e⁻¹).
    let n = answers.len();
    println!("\n(ε, δ) ledger for n = {n} queries:");
    for (label, gamma) in [
        ("counts (γ = 1)", 1.0),
        ("f32-ish (γ = 2⁻²³)", 2f64.powi(-23)),
        ("f64 (γ = 2⁻⁵²)", 2f64.powi(-52)),
    ] {
        let m = DiscreteNoisyTopKWithGap::with_gamma(k, epsilon, true, gamma).unwrap();
        println!("  {label:<22} δ ≤ {:.3e}", m.delta(n));
    }
    println!("  (γ = 1 on raw counts is fine here only because counts are huge;");
    println!("   production would discretize at machine epsilon.)");

    // --- Staircase vs Laplace measurement ---
    println!("\nmeasuring the selected queries: Laplace vs staircase noise");
    let truths: Vec<f64> = out
        .items
        .iter()
        .map(|it| counts.count(it.index) as f64)
        .collect();
    for eps in [0.5, 2.0, 8.0] {
        let lap = LaplaceMechanism::new(eps).unwrap();
        let stair = StaircaseMechanism::new(eps).unwrap();
        let mut lap_sse = 0.0;
        let mut stair_sse = 0.0;
        let runs = 20_000;
        for run in 0..runs {
            let mut rng = derive_stream(7, run);
            for (m, t) in lap.run(&truths, &mut rng).iter().zip(&truths) {
                lap_sse += (m - t) * (m - t);
            }
            let measured = stair.measure_split(&truths, &mut rng).unwrap();
            for (m, t) in measured.iter().zip(&truths) {
                stair_sse += (m - t) * (m - t);
            }
        }
        println!(
            "  ε = {eps:>4}: Laplace MSE {:>10.2}, staircase MSE {:>10.2}  ({:+.1}%)",
            lap_sse / (runs as f64 * truths.len() as f64),
            stair_sse / (runs as f64 * truths.len() as f64),
            100.0 * (stair_sse / lap_sse - 1.0),
        );
    }
    println!("\nstaircase matches Laplace at small ε and wins at large ε —");
    println!("the Geng-Viswanath optimality the paper cites in §3.1.");
}
