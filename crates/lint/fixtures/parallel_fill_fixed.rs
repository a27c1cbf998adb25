//! R1 power-check fixture — the shipped per-block fill. Must lint clean.
//!
//! Bulk fills reserve the run's next block indices and delegate to the
//! block engine, which derives one sub-stream per block index; scalar
//! draws ride the reserved scalar stream through the internal tape. No
//! method of the provider touches a raw generator.

impl DrawProvider for ParallelDraws {
    fn fill_offset(&mut self, base: &[f64], scale: f64, out: &mut Vec<f64>) {
        // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
        let lap = Laplace::new(scale).expect("mechanism-validated scale");
        let first = self.take_blocks(base.len(), out);
        par::par_fill_offset_blocks(&lap, self.run_seed, first, self.threads, base, out);
    }

    fn next(&mut self, scale: f64) -> f64 {
        self.tape.next_scaled(&mut self.scalar_rng, scale)
    }
}
