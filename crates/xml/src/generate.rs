//! Synthetic document generation from a DTD.
//!
//! The original demo ran on hospital documents that were never published;
//! per the reproduction plan (DESIGN.md §4) we substitute a seeded
//! generator that expands a (possibly recursive) DTD into conforming
//! documents of controllable size and depth. Every generated document
//! validates against its DTD (tested), so workloads exercise exactly the
//! code paths real data would.
//!
//! Generation can target a DOM [`Document`] or stream straight to a writer
//! (for the StAX-mode experiments, where the point is not holding the tree
//! in memory).

use crate::dtd::{ContentModel, Dtd};
use crate::error::XmlError;
use crate::label::{Label, Vocabulary};
use crate::serialize::XmlWriter;
use crate::tree::{Document, TreeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::Write;

/// Tuning knobs for the generator. All randomness is derived from `seed`,
/// so equal configs produce byte-identical documents.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// RNG seed; equal seeds give equal documents.
    pub seed: u64,
    /// Soft depth budget: once an expansion would exceed it, the generator
    /// picks the shallowest derivation available.
    pub max_depth: usize,
    /// Probability of adding one more repetition inside `*` / `+`.
    pub star_continue: f64,
    /// Hard cap on repetitions of a single starred particle.
    pub max_repeat: usize,
    /// Probability that an optional (`?`) particle is present.
    pub opt_present: f64,
    /// Fallback pool for text content.
    pub text_pool: Vec<String>,
    /// Per-element-type text pools (e.g. medication values).
    pub text_overrides: HashMap<Label, Vec<String>>,
    /// Stop expanding repetitions once roughly this many nodes exist.
    pub target_nodes: Option<usize>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0xD0C5EED,
            max_depth: 12,
            star_continue: 0.6,
            max_repeat: 8,
            opt_present: 0.5,
            text_pool: vec![
                "alpha".into(),
                "beta".into(),
                "gamma".into(),
                "delta".into(),
            ],
            text_overrides: HashMap::new(),
            target_nodes: None,
        }
    }
}

impl GeneratorConfig {
    /// Convenience: a config with the given seed and node-count target.
    pub fn sized(seed: u64, target_nodes: usize) -> Self {
        GeneratorConfig {
            seed,
            target_nodes: Some(target_nodes),
            ..Default::default()
        }
    }

    /// Sets the text pool for a specific element type.
    pub fn with_text_pool(mut self, label: Label, pool: Vec<String>) -> Self {
        self.text_overrides.insert(label, pool);
        self
    }
}

/// Sink abstraction letting one generator feed both DOM building and
/// streaming serialization.
trait GenSink {
    fn start(&mut self, label: Label) -> Result<(), XmlError>;
    fn text(&mut self, content: &str) -> Result<(), XmlError>;
    fn end(&mut self, label: Label) -> Result<(), XmlError>;
}

struct DomSink {
    builder: TreeBuilder,
}

impl GenSink for DomSink {
    fn start(&mut self, label: Label) -> Result<(), XmlError> {
        self.builder.start_element(label);
        Ok(())
    }
    fn text(&mut self, content: &str) -> Result<(), XmlError> {
        self.builder.text(content);
        Ok(())
    }
    fn end(&mut self, _label: Label) -> Result<(), XmlError> {
        self.builder.end_element();
        Ok(())
    }
}

struct WriterSink<W: Write> {
    writer: XmlWriter<W>,
    names: Vec<std::sync::Arc<str>>,
    vocab: Vocabulary,
}

impl<W: Write> GenSink for WriterSink<W> {
    fn start(&mut self, label: Label) -> Result<(), XmlError> {
        if label.index() >= self.names.len() {
            self.names = self.vocab.snapshot();
        }
        self.writer.start_element(&self.names[label.index()])
    }
    fn text(&mut self, content: &str) -> Result<(), XmlError> {
        self.writer.text(content)
    }
    fn end(&mut self, label: Label) -> Result<(), XmlError> {
        let _ = label;
        self.writer.end_element()
    }
}

struct Generator<'a, S: GenSink> {
    dtd: &'a Dtd,
    config: &'a GeneratorConfig,
    rng: StdRng,
    min_heights: HashMap<Label, usize>,
    nodes_emitted: usize,
    sink: S,
}

impl<'a, S: GenSink> Generator<'a, S> {
    fn new(dtd: &'a Dtd, config: &'a GeneratorConfig, sink: S) -> Result<Self, XmlError> {
        let min_heights = dtd.min_heights();
        if !min_heights.contains_key(&dtd.root()) {
            return Err(XmlError::Invalid(format!(
                "element type <{}> has no finite expansion; cannot generate",
                dtd.vocabulary().name(dtd.root())
            )));
        }
        Ok(Generator {
            dtd,
            config,
            rng: StdRng::seed_from_u64(config.seed),
            min_heights,
            nodes_emitted: 0,
            sink,
        })
    }

    fn budget_exhausted(&self) -> bool {
        self.config
            .target_nodes
            .map(|t| self.nodes_emitted >= t)
            .unwrap_or(false)
    }

    /// Depth still available below the current element.
    fn fits(&self, label: Label, remaining_depth: usize) -> bool {
        self.min_heights
            .get(&label)
            .map(|&h| h <= remaining_depth)
            .unwrap_or(false)
    }

    fn emit_element(&mut self, label: Label, remaining_depth: usize) -> Result<(), XmlError> {
        self.emit_element_inner(label, remaining_depth, false)
    }

    fn emit_element_inner(
        &mut self,
        label: Label,
        remaining_depth: usize,
        at_root: bool,
    ) -> Result<(), XmlError> {
        self.nodes_emitted += 1;
        self.sink.start(label)?;
        let model = self
            .dtd
            .production(label)
            .cloned()
            .unwrap_or(ContentModel::Empty);
        self.emit_model(&model, label, remaining_depth.saturating_sub(1), at_root)?;
        self.sink.end(label)
    }

    fn emit_text_for(&mut self, label: Label) -> Result<(), XmlError> {
        self.nodes_emitted += 1;
        let pool = self
            .config
            .text_overrides
            .get(&label)
            .unwrap_or(&self.config.text_pool);
        if pool.is_empty() {
            let n: u32 = self.rng.random_range(0..1_000_000);
            let v = format!("v{n}");
            self.sink.text(&v)
        } else {
            let i = self.rng.random_range(0..pool.len());
            // Clone to release the borrow on config before using sink.
            let v = pool[i].clone();
            self.sink.text(&v)
        }
    }

    /// How many repetitions of a starred particle to emit.
    fn repetitions(&mut self, at_least_one: bool) -> usize {
        let mut n = usize::from(at_least_one);
        while n < self.config.max_repeat
            && !self.budget_exhausted()
            && self.rng.random_bool(self.config.star_continue)
        {
            n += 1;
        }
        n
    }

    fn emit_model(
        &mut self,
        model: &ContentModel,
        context: Label,
        remaining_depth: usize,
        at_root: bool,
    ) -> Result<(), XmlError> {
        match model {
            ContentModel::Empty => Ok(()),
            // ANY: keep generated documents simple - emit text.
            ContentModel::Any | ContentModel::Text => self.emit_text_for(context),
            ContentModel::Elem(l) => self.emit_element(*l, remaining_depth),
            ContentModel::Seq(cs) => {
                for c in cs {
                    self.emit_model(c, context, remaining_depth, at_root)?;
                }
                Ok(())
            }
            ContentModel::Choice(cs) => {
                if cs.is_empty() {
                    return Ok(());
                }
                // Candidates that fit the depth budget; if none, take the
                // globally shallowest arm.
                let fitting: Vec<&ContentModel> = cs
                    .iter()
                    .filter(|c| self.model_fits(c, remaining_depth))
                    .collect();
                let chosen = if fitting.is_empty() {
                    cs.iter()
                        .min_by_key(|c| self.model_min_height(c).unwrap_or(usize::MAX))
                        .expect("non-empty choice")
                } else {
                    fitting[self.rng.random_range(0..fitting.len())]
                };
                let chosen = chosen.clone();
                self.emit_model(&chosen, context, remaining_depth, at_root)
            }
            ContentModel::Star(c) => {
                if !self.model_fits(c, remaining_depth) || self.budget_exhausted() {
                    return Ok(());
                }
                if at_root && self.config.target_nodes.is_some() {
                    // Root-level repetition is the budget driver: keep
                    // appending independent subtrees until the node
                    // target is met.
                    while !self.budget_exhausted() {
                        self.emit_model(c, context, remaining_depth, false)?;
                    }
                    return Ok(());
                }
                let n = self.repetitions(false);
                for _ in 0..n {
                    self.emit_model(c, context, remaining_depth, false)?;
                }
                Ok(())
            }
            ContentModel::Plus(c) => {
                if at_root && self.config.target_nodes.is_some() {
                    self.emit_model(c, context, remaining_depth, false)?;
                    while !self.budget_exhausted() {
                        self.emit_model(c, context, remaining_depth, false)?;
                    }
                    return Ok(());
                }
                let n = if self.model_fits(c, remaining_depth) && !self.budget_exhausted() {
                    self.repetitions(true).max(1)
                } else {
                    1 // must emit one even past budget to stay valid
                };
                for _ in 0..n {
                    self.emit_model(c, context, remaining_depth, false)?;
                }
                Ok(())
            }
            ContentModel::Opt(c) => {
                if self.model_fits(c, remaining_depth)
                    && !self.budget_exhausted()
                    && self.rng.random_bool(self.config.opt_present)
                {
                    self.emit_model(c, context, remaining_depth, false)?;
                }
                Ok(())
            }
            ContentModel::Mixed(ls) => {
                // A small alternation of text and allowed elements.
                let n = self.repetitions(false);
                for _ in 0..n {
                    let pick_text = ls.is_empty() || self.rng.random_bool(0.5);
                    if pick_text {
                        self.emit_text_for(context)?;
                    } else {
                        let l = ls[self.rng.random_range(0..ls.len())];
                        if self.fits(l, remaining_depth) {
                            self.emit_element(l, remaining_depth)?;
                        } else {
                            self.emit_text_for(context)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn model_min_height(&self, m: &ContentModel) -> Option<usize> {
        match m {
            ContentModel::Empty
            | ContentModel::Any
            | ContentModel::Text
            | ContentModel::Mixed(_) => Some(0),
            ContentModel::Elem(l) => self.min_heights.get(l).copied(),
            ContentModel::Seq(cs) => {
                let mut max = 0;
                for c in cs {
                    max = max.max(self.model_min_height(c)?);
                }
                Some(max)
            }
            ContentModel::Choice(cs) => cs.iter().filter_map(|c| self.model_min_height(c)).min(),
            ContentModel::Star(_) | ContentModel::Opt(_) => Some(0),
            ContentModel::Plus(c) => self.model_min_height(c),
        }
    }

    fn model_fits(&self, m: &ContentModel, remaining_depth: usize) -> bool {
        self.model_min_height(m)
            .map(|h| h <= remaining_depth)
            .unwrap_or(false)
    }
}

/// Generates a DOM document conforming to `dtd`.
pub fn generate(dtd: &Dtd, config: &GeneratorConfig) -> Result<Document, XmlError> {
    let sink = DomSink {
        builder: TreeBuilder::new(dtd.vocabulary().clone()),
    };
    let mut g = Generator::new(dtd, config, sink)?;
    let root = dtd.root();
    let depth = config.max_depth.max(g.min_heights[&root]);
    g.emit_element_inner(root, depth, true)?;
    g.sink.builder.finish()
}

/// Generates a document conforming to `dtd`, streaming it to `writer`
/// without building a tree. Returns the number of nodes emitted.
pub fn generate_to_writer<W: Write>(
    dtd: &Dtd,
    config: &GeneratorConfig,
    writer: W,
) -> Result<usize, XmlError> {
    let sink = WriterSink {
        writer: XmlWriter::new(writer),
        names: dtd.vocabulary().snapshot(),
        vocab: dtd.vocabulary().clone(),
    };
    let mut g = Generator::new(dtd, config, sink)?;
    let root = dtd.root();
    let depth = config.max_depth.max(g.min_heights[&root]);
    g.emit_element_inner(root, depth, true)?;
    g.sink.writer.flush()?;
    Ok(g.nodes_emitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::HOSPITAL_DTD;

    fn hospital() -> (Vocabulary, Dtd) {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        (vocab, dtd)
    }

    #[test]
    fn generated_documents_validate() {
        let (_, dtd) = hospital();
        for seed in 0..20 {
            let config = GeneratorConfig {
                seed,
                ..Default::default()
            };
            let doc = generate(&dtd, &config).unwrap();
            dtd.validate(&doc)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generated_documents_are_canonical() {
        let (_, dtd) = hospital();
        for seed in 0..64 {
            let config = GeneratorConfig {
                text_pool: vec!["a & b".into(), "x<y".into(), "plain".into()],
                ..GeneratorConfig::sized(seed, 400)
            };
            let doc = generate(&dtd, &config).unwrap();
            crate::testing::assert_canonical(&doc, &format!("seed {seed}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, dtd) = hospital();
        let config = GeneratorConfig::sized(42, 500);
        let a = generate(&dtd, &config).unwrap();
        let b = generate(&dtd, &config).unwrap();
        assert_eq!(a.to_xml(), b.to_xml());
    }

    #[test]
    fn different_seeds_differ() {
        let (_, dtd) = hospital();
        let a = generate(&dtd, &GeneratorConfig::sized(1, 500)).unwrap();
        let b = generate(&dtd, &GeneratorConfig::sized(2, 500)).unwrap();
        assert_ne!(a.to_xml(), b.to_xml());
    }

    #[test]
    fn target_nodes_is_roughly_respected() {
        let (_, dtd) = hospital();
        let config = GeneratorConfig {
            star_continue: 0.9,
            max_repeat: 20,
            ..GeneratorConfig::sized(7, 2_000)
        };
        let doc = generate(&dtd, &config).unwrap();
        let n = doc.node_count();
        assert!(n >= 2_000, "got {n}");
        // Overshoot is bounded by one subtree worth of nodes.
        assert!(n < 6_000, "got {n}");
    }

    #[test]
    fn depth_budget_bounds_recursion() {
        let (_, dtd) = hospital();
        let config = GeneratorConfig {
            max_depth: 6,
            star_continue: 0.95,
            ..GeneratorConfig::sized(3, 5_000)
        };
        let doc = generate(&dtd, &config).unwrap();
        // patient needs height 2; allow a small excess for forced Plus arms.
        assert!(doc.max_depth() <= 10, "depth {}", doc.max_depth());
    }

    #[test]
    fn streaming_and_dom_generation_agree() {
        let (vocab, dtd) = hospital();
        let config = GeneratorConfig::sized(11, 300);
        let doc = generate(&dtd, &config).unwrap();
        let mut out = Vec::new();
        let n = generate_to_writer(&dtd, &config, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), doc.to_xml());
        assert_eq!(n, doc.node_count());
        let _ = vocab;
    }

    #[test]
    fn text_overrides_are_used() {
        let (vocab, dtd) = hospital();
        let medication = vocab.lookup("medication").unwrap();
        let config = GeneratorConfig {
            star_continue: 0.8,
            ..GeneratorConfig::sized(5, 1_000)
        }
        .with_text_pool(medication, vec!["autism".into()]);
        let doc = generate(&dtd, &config).unwrap();
        let mut saw = false;
        for n in doc.nodes_labeled(medication) {
            assert_eq!(doc.string_value(n), "autism");
            saw = true;
        }
        assert!(saw, "no medication nodes generated");
    }

    #[test]
    fn nonterminating_dtd_rejected() {
        let vocab = Vocabulary::new();
        // a -> b, b -> a: no finite expansion.
        let dtd = Dtd::parse("<!ELEMENT a (b)><!ELEMENT b (a)>", &vocab).unwrap();
        assert!(generate(&dtd, &GeneratorConfig::default()).is_err());
    }
}
