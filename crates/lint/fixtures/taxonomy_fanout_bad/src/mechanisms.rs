//! R4 power-check fixture tree — the fan-out growing back: a mechanism
//! whose one provider-taking entry gained a public twin. Its equivalence
//! entry exists, so only the one-entry check can fire.

impl FannedOutMechanism {
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut Vec<GapOutcome>,
    ) {
        run_core(queries, provider, out)
    }

    /// A "convenience" twin that picks the provider itself — the shape of
    /// the wrapper families R4 keeps deleted.
    pub fn run_batched_into<R: Rng + ?Sized, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        rng: &mut R,
        scratch: &mut SvtScratch,
        out: &mut Vec<GapOutcome>,
    ) {
        run_core(queries, &mut ScratchDraws::new(scratch, rng), out)
    }
}
