//! R4 power-check fixture tree — every way the taxonomy can go incomplete.

/// Has its provider-taking entry and a bench grid cell, but no equivalence
/// entry: nothing proves it bit-identical to the reference.
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

/// Entry and equivalence entry — but never declared in `MECHANISM_PATHS`,
/// so bench-check cannot guard its cell.
impl UnbenchedMechanism {
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut Vec<GapOutcome>,
    ) {
        run_core(queries, provider, out)
    }
}
