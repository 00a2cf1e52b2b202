//! Engine configuration.

/// How documents are processed (paper §2, "XML documents").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DocumentMode {
    /// The whole document tree in memory; enables TAX pruning and the
    /// jump scan.
    #[default]
    Dom,
    /// One sequential scan of the serialized document (StAX mode);
    /// bounded memory, no index.
    Stream,
}

/// Engine settings: one per deployment decision. Everything else the
/// query pipeline decides from what it observes — plans are always
/// optimized and table-compiled, a TAX index that exists is used, and a
/// DOM query jumps whenever that index is there and its plan has a DFA.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// DOM or streaming evaluation.
    pub mode: DocumentMode,
    /// Worker threads for DOM-mode query batches: a batch's plans are
    /// partitioned across this many scoped threads sharing one document
    /// snapshot (`1` evaluates inline on the calling thread; streaming
    /// batches always use the single shared scan instead).
    pub eval_threads: usize,
    /// Maximum number of compiled plans memoized engine-wide (0 disables
    /// the plan cache entirely).
    pub plan_cache_capacity: usize,
    /// Durable engines only: checkpoint automatically after this many
    /// WAL records have accumulated since the last checkpoint (0 = never
    /// checkpoint periodically; explicit
    /// [`Engine::checkpoint`](crate::engine::Engine::checkpoint) calls —
    /// e.g. on graceful server drain — still work). Ignored by in-memory
    /// engines.
    pub checkpoint_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: DocumentMode::Dom,
            eval_threads: 1,
            plan_cache_capacity: 1024,
            checkpoint_every: 1024,
        }
    }
}

impl EngineConfig {
    /// Streaming configuration.
    pub fn streaming() -> Self {
        EngineConfig {
            mode: DocumentMode::Stream,
            ..EngineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_dom_with_caching_and_checkpoints_on() {
        let c = EngineConfig::default();
        assert_eq!(c.mode, DocumentMode::Dom);
        assert_eq!(c.eval_threads, 1);
        assert!(c.plan_cache_capacity > 0);
        assert!(c.checkpoint_every > 0);
        assert_eq!(EngineConfig::streaming().mode, DocumentMode::Stream);
        assert!(EngineConfig::streaming().plan_cache_capacity > 0);
    }
}
