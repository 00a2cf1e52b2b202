//! Evaluation statistics.
//!
//! These counters back both the experiments (E3 reports |Cans| vs |T|,
//! E5 reports pruned subtrees) and the trace visualizations that stand in
//! for the iSMOQE monitoring views.

/// Counters collected during one evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Element nodes the evaluator actually entered.
    pub nodes_visited: usize,
    /// Subtrees skipped because the TAX index proved them useless.
    pub subtrees_pruned_tax: usize,
    /// Subtrees skipped because every automaton run died on entry.
    pub subtrees_skipped_dead: usize,
    /// Candidates parked in Cans (unresolved at discovery time).
    pub cans_size: usize,
    /// Answers that were provable immediately at discovery.
    pub immediate_answers: usize,
    /// Total answers returned.
    pub answers: usize,
    /// Predicate instances spawned.
    pub pred_instances: usize,
    /// Predicate runs (HasPath automata) spawned.
    pub runs_spawned: usize,
    /// Formula nodes allocated for validity tracking.
    pub formula_nodes: usize,
    /// Guard evaluations performed outside the main traversal (jump-scan
    /// verification probes at candidate nodes: text comparisons,
    /// child-chain semi-joins on the index and `HasPath` witness walks).
    /// A child-chain probe counts once, its text comparison included; a
    /// witness walk also counts the guards it checks on its way. Zero for
    /// scan evaluations, where guards resolve inside the single pass.
    pub guard_probes: usize,
    /// Maximum depth reached.
    pub max_depth: usize,
    /// Full passes over the document tree (1 for HyPE, 2 for the two-pass
    /// baseline).
    pub tree_passes: usize,
    /// The serving-layer request these counters were collected for
    /// (`0` = not part of a traced request). Evaluators never set this;
    /// the server stamps it from the request's `RequestContext` so a
    /// stats line in a trace dump can be grepped back to the wire request
    /// that caused it.
    pub request_id: u64,
}

impl EvalStats {
    /// Accumulates another evaluation's counters into this one (additive
    /// counters sum, `max_depth` takes the maximum) — used to merge
    /// per-worker statistics of a parallel batch.
    pub fn merge(&mut self, other: &EvalStats) {
        self.nodes_visited += other.nodes_visited;
        self.subtrees_pruned_tax += other.subtrees_pruned_tax;
        self.subtrees_skipped_dead += other.subtrees_skipped_dead;
        self.cans_size += other.cans_size;
        self.immediate_answers += other.immediate_answers;
        self.answers += other.answers;
        self.pred_instances += other.pred_instances;
        self.runs_spawned += other.runs_spawned;
        self.formula_nodes += other.formula_nodes;
        self.guard_probes += other.guard_probes;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.tree_passes += other.tree_passes;
        // Request ids do not add: a merged figure keeps its own id (or
        // adopts the other's when it has none), mirroring how a batch is
        // one wire request.
        if self.request_id == 0 {
            self.request_id = other.request_id;
        }
    }

    /// Fraction of visited nodes that became candidates — the paper's
    /// "Cans is often much smaller than the XML document tree".
    pub fn cans_ratio(&self) -> f64 {
        if self.nodes_visited == 0 {
            0.0
        } else {
            self.cans_size as f64 / self.nodes_visited as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cans_ratio_handles_zero() {
        assert_eq!(EvalStats::default().cans_ratio(), 0.0);
        let s = EvalStats {
            nodes_visited: 100,
            cans_size: 5,
            ..Default::default()
        };
        assert!((s.cans_ratio() - 0.05).abs() < 1e-9);
    }
}
