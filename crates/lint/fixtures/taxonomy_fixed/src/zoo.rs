//! Deliberately-broken variant zoo: attacked by the privacy-attack harness,
//! never benched — exempt from the taxonomy as a whole file, fan-out
//! included.
// lint:allow-file(taxonomy): the zoo is an attack target, not a benched mechanism

impl LeakyZooVariant {
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut Vec<GapOutcome>,
    ) {
        run_leaky_core(queries, provider, out)
    }

    pub fn run_leakier_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut Vec<GapOutcome>,
    ) {
        run_leakier_core(queries, provider, out)
    }
}
