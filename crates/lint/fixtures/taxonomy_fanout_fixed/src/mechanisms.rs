//! R4 power-check fixture tree — the fan-out fixed: the twin is deleted and
//! its callers pass `ScratchDraws` to the one entry. Must lint clean.

impl FannedOutMechanism {
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut Vec<GapOutcome>,
    ) {
        run_core(queries, provider, out)
    }
}
