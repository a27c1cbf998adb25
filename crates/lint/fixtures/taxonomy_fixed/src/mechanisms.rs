//! R4 power-check fixture tree — a complete taxonomy. Must lint clean.

/// One public provider-taking entry beside the allocating reference, with
/// an equivalence entry and a bench grid cell.
impl GoodMechanism {
    pub fn run(&self, answers: &QueryAnswers<'_>, rng: &mut StdRng) -> Vec<GapOutcome> {
        let mut out = Vec::new();
        self.run_into(answers.iter(), &mut SourceDraws::new(rng), &mut out);
        out
    }

    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut Vec<GapOutcome>,
    ) {
        run_core(queries, provider, out)
    }
}

impl RaceMechanism {
    /// The one entry may carry any `_into` name; crate-private helpers
    /// (the parallel race behind the unified call surface) do not count.
    pub fn run_top_k_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        k: usize,
        provider: &mut P,
        out: &mut Vec<usize>,
    ) {
        race_core(queries, k, provider, out)
    }

    pub(crate) fn race_par_into<P: DrawProvider>(
        &self,
        values: &[f64],
        k: usize,
        provider: &mut P,
        out: &mut Vec<usize>,
    ) {
        race_par_core(values, k, provider, out)
    }
}
