//! R4 power-check fixture tree — an entry the equivalence suite never
//! covers, beside a complete sibling that must not fire.

/// Has its provider-taking entry but no equivalence entry: nothing proves
/// it bit-identical to the reference.
impl BadMechanism {
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut Vec<GapOutcome>,
    ) {
        run_core(queries, provider, out)
    }
}

/// Entry and equivalence entry: complete, so it must stay silent.
impl CoveredMechanism {
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut Vec<GapOutcome>,
    ) {
        run_core(queries, provider, out)
    }
}
