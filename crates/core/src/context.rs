//! The `Context` abstraction.
//!
//! A `Context` generalizes the Palimpzest `Dataset`: it still supports
//! iterator execution (via [`Context::dataset`]), and adds the access
//! methods and metadata agents need — a natural-language description,
//! key-based point lookups, vector search over document embeddings, the
//! lake tools with their keyword index, and user-registered tools.

use crate::runtime::Runtime;
use aida_agents::{tools, Tool, ToolRegistry};
use aida_data::{DataLake, Table};
use aida_index::{FlatIndex, IvfIndex, KeyIndex, VectorIndex};
use aida_semops::Dataset;
use std::sync::{Arc, OnceLock};

/// A described, indexable, tool-carrying dataset.
#[derive(Clone)]
pub struct Context {
    /// Stable identifier (unique per materialization).
    pub id: String,
    /// Natural-language description of the contents — agents read this to
    /// decide how to access the data, and `search` operators enrich it.
    pub description: String,
    lake: DataLake,
    key_index: Arc<KeyIndex>,
    vector_index: Option<Arc<dyn VectorIndex>>,
    /// `list_files`/`read_file`/`search_keywords` over `lake`, built on
    /// first use and shared by clones and un-narrowed materializations.
    lake_tools: Arc<OnceLock<Vec<Arc<dyn Tool>>>>,
    tools: ToolRegistry,
    /// Structured findings attached by a `search`/`compute` execution.
    pub findings: Option<Arc<Table>>,
}

impl Context {
    /// Starts building a context over a lake.
    pub fn builder(id: impl Into<String>, lake: DataLake) -> ContextBuilder {
        ContextBuilder {
            id: id.into(),
            description: String::new(),
            lake,
            key_pairs: Vec::new(),
            vector_kind: VectorKind::None,
            tools: Vec::new(),
        }
    }

    /// The underlying data lake.
    pub fn lake(&self) -> &DataLake {
        &self.lake
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.lake.len()
    }

    /// True when the context holds no documents.
    pub fn is_empty(&self) -> bool {
        self.lake.is_empty()
    }

    /// Iterator execution: the context as a semantic-operator dataset
    /// (this is the "inherits from Dataset" half of the abstraction).
    pub fn dataset(&self) -> Dataset {
        Dataset::scan(&self.lake, self.id.clone())
    }

    /// Key-based point lookup (registered via the builder).
    pub fn lookup(&self, key: &str) -> &[String] {
        self.key_index.get(key)
    }

    /// Vector search over document embeddings; empty when the context was
    /// built without an embedding index.
    pub fn vector_search(&self, runtime: &Runtime, query: &str, k: usize) -> Vec<String> {
        match &self.vector_index {
            Some(index) => {
                let q = runtime.env().embedder.embed(query);
                index.search(&q, k).into_iter().map(|h| h.id).collect()
            }
            None => Vec::new(),
        }
    }

    /// The lake tools (`list_files`, `read_file`, `search_keywords`) over
    /// this Context's lake. The first call builds them, keyword index
    /// included; every later call on this Context, its clones, and its
    /// un-narrowed materializations returns the same set.
    pub fn lake_tools(&self) -> &[Arc<dyn Tool>] {
        self.lake_tools_or_build(|| {})
    }

    /// [`Context::lake_tools`], running `on_build` only in the one call
    /// that builds the set.
    pub(crate) fn lake_tools_or_build(&self, on_build: impl FnOnce()) -> &[Arc<dyn Tool>] {
        self.lake_tools.get_or_init(|| {
            on_build();
            tools::lake_tools(&self.lake)
        })
    }

    /// User-registered tools.
    pub fn tools(&self) -> &ToolRegistry {
        &self.tools
    }

    /// Derives a new materialized context: a (possibly narrowed) lake with
    /// an enriched description, inheriting indexes/tools where the lake is
    /// unchanged.
    pub fn materialize(
        &self,
        id: impl Into<String>,
        description: String,
        lake: Option<DataLake>,
        findings: Option<Table>,
    ) -> Context {
        let narrowed = lake.is_some();
        Context {
            id: id.into(),
            description,
            lake: lake.unwrap_or_else(|| self.lake.clone()),
            // Indexes describe the original lake; drop them when narrowed.
            key_index: if narrowed {
                Arc::new(KeyIndex::new())
            } else {
                Arc::clone(&self.key_index)
            },
            vector_index: if narrowed {
                None
            } else {
                self.vector_index.clone()
            },
            // BM25 statistics are per corpus: a narrowed lake gets its own.
            lake_tools: if narrowed {
                Arc::default()
            } else {
                Arc::clone(&self.lake_tools)
            },
            tools: self.tools.clone(),
            findings: findings.map(Arc::new),
        }
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Context(id={}, docs={}, vectors={}, keys={}, desc={:?})",
            self.id,
            self.lake.len(),
            self.vector_index.is_some(),
            self.key_index.len(),
            self.description.chars().take(60).collect::<String>()
        )
    }
}

/// Builder for [`Context`].
pub struct ContextBuilder {
    id: String,
    description: String,
    lake: DataLake,
    key_pairs: Vec<(String, String)>,
    vector_kind: VectorKind,
    tools: Vec<Arc<dyn Tool>>,
}

enum VectorKind {
    None,
    Flat,
    Ivf { nlist: usize, nprobe: usize },
}

impl ContextBuilder {
    /// Sets the natural-language description.
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Registers a key → document-name pair for point lookups.
    pub fn key(mut self, key: impl Into<String>, doc: impl Into<String>) -> Self {
        self.key_pairs.push((key.into(), doc.into()));
        self
    }

    /// Registers keys derived from each document (e.g. filename tokens).
    pub fn keys_from(mut self, derive: impl Fn(&aida_data::Document) -> Vec<String>) -> Self {
        for doc in self.lake.docs() {
            for key in derive(doc) {
                self.key_pairs.push((key, doc.name.clone()));
            }
        }
        self
    }

    /// Builds an exact (flat) embedding index over document text at
    /// `build` time — the right choice below a few thousand documents.
    pub fn with_vector_index(mut self) -> Self {
        self.vector_kind = VectorKind::Flat;
        self
    }

    /// Builds an approximate IVF embedding index (k-means coarse quantizer
    /// with `nlist` cells, probing `nprobe` per search) — for larger lakes
    /// where the flat scan becomes the bottleneck.
    pub fn with_ivf_index(mut self, nlist: usize, nprobe: usize) -> Self {
        self.vector_kind = VectorKind::Ivf { nlist, nprobe };
        self
    }

    /// Registers a user tool.
    pub fn tool(mut self, tool: Arc<dyn Tool>) -> Self {
        self.tools.push(tool);
        self
    }

    /// Builds the context (embedding the lake if requested).
    pub fn build(self, runtime: &Runtime) -> Context {
        let mut key_index = KeyIndex::new();
        for (key, doc) in &self.key_pairs {
            key_index.insert(key, doc);
        }
        let vector_index: Option<Arc<dyn VectorIndex>> = match self.vector_kind {
            VectorKind::None => None,
            VectorKind::Flat => {
                let mut index = FlatIndex::new();
                embed_lake(&self.lake, runtime, &mut index);
                Some(Arc::new(index))
            }
            VectorKind::Ivf { nlist, nprobe } => {
                let mut index = IvfIndex::new(nlist, nprobe, runtime.config().seed);
                embed_lake(&self.lake, runtime, &mut index);
                index.train();
                Some(Arc::new(index))
            }
        };
        let mut tools = ToolRegistry::new();
        for tool in self.tools {
            tools.register(tool);
        }
        Context {
            id: self.id,
            description: self.description,
            lake: self.lake,
            key_index: Arc::new(key_index),
            vector_index,
            lake_tools: Arc::default(),
            tools,
            findings: None,
        }
    }
}

/// Embeds a bounded prefix of every document into `index`: enough signal,
/// bounded work.
fn embed_lake(lake: &DataLake, runtime: &Runtime, index: &mut dyn VectorIndex) {
    for doc in lake.docs() {
        let text = doc.reader_text();
        let end = text
            .char_indices()
            .nth(2_000)
            .map_or(text.len(), |(i, _)| i);
        index.add(&doc.name, runtime.env().embedder.embed(&text[..end]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_agents::{FnTool, ToolSpec};
    use aida_data::Document;
    use aida_script::ScriptValue;

    fn lake() -> DataLake {
        DataLake::from_docs([
            Document::new("theft_2024.csv", "identity theft reports in 2024: 1135291"),
            Document::new("gas.txt", "pipeline maintenance schedule"),
        ])
    }

    #[test]
    fn context_is_a_dataset() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake())
            .description("test lake")
            .build(&rt);
        let ds = ctx.dataset();
        assert_eq!(ds.plan().len(), 1);
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.description, "test lake");
    }

    #[test]
    fn key_lookup() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake())
            .key("2024", "theft_2024.csv")
            .keys_from(|doc| vec![doc.name.split('.').next().unwrap_or("").to_string()])
            .build(&rt);
        assert_eq!(ctx.lookup("2024"), ["theft_2024.csv"]);
        assert_eq!(ctx.lookup("gas"), ["gas.txt"]);
        assert!(ctx.lookup("1999").is_empty());
    }

    #[test]
    fn vector_search_finds_relevant_doc() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake())
            .with_vector_index()
            .build(&rt);
        let hits = ctx.vector_search(&rt, "identity theft statistics 2024", 1);
        assert_eq!(hits, vec!["theft_2024.csv"]);
        // Without an index, search returns nothing.
        let bare = Context::builder("lake", lake()).build(&rt);
        assert!(bare.vector_search(&rt, "anything", 3).is_empty());
    }

    #[test]
    fn ivf_index_finds_relevant_doc() {
        let rt = Runtime::builder().seed(2).build();
        let docs: Vec<Document> = (0..40)
            .map(|i| {
                let content = if i == 17 {
                    "identity theft reports by year national statistics".to_string()
                } else {
                    format!("memo {i} about pipeline capacity and scheduling")
                };
                Document::new(format!("d{i}.txt"), content)
            })
            .collect();
        let ctx = Context::builder("big", DataLake::from_docs(docs))
            .with_ivf_index(4, 2)
            .build(&rt);
        let hits = ctx.vector_search(&rt, "identity theft statistics", 3);
        assert!(hits.contains(&"d17.txt".to_string()), "{hits:?}");
    }

    #[test]
    fn custom_tools_attach() {
        let rt = Runtime::builder().build();
        let tool = Arc::new(FnTool::new(
            ToolSpec::new("resample", "resample(freq)", "resamples the time series"),
            |_| Ok(ScriptValue::None),
        ));
        let ctx = Context::builder("lake", lake()).tool(tool).build(&rt);
        assert!(ctx.tools().get("resample").is_some());
    }

    #[test]
    fn materialize_narrows_and_enriches() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake())
            .with_vector_index()
            .build(&rt);
        let narrow = DataLake::from_docs([lake().get("theft_2024.csv").unwrap().as_ref().clone()]);
        let derived = ctx.materialize(
            "lake/1",
            "FINDINGS: thefts in 2024".into(),
            Some(narrow),
            None,
        );
        assert_eq!(derived.len(), 1);
        assert!(derived.description.contains("FINDINGS"));
        // Narrowed contexts drop the (now stale) vector index.
        assert!(derived.vector_search(&rt, "anything", 1).is_empty());
        // Un-narrowed materializations keep it.
        let same = ctx.materialize("lake/2", "enriched".into(), None, None);
        assert!(!same.vector_search(&rt, "identity theft", 1).is_empty());
    }

    fn search_tool(ctx: &Context) -> Arc<dyn Tool> {
        let tools = ctx.lake_tools();
        let names: Vec<&str> = tools.iter().map(|t| t.spec().name.as_str()).collect();
        assert_eq!(names, ["list_files", "read_file", "search_keywords"]);
        Arc::clone(&tools[2])
    }

    #[test]
    fn lake_tools_are_shared_unless_narrowed() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake()).build(&rt);
        let search = search_tool(&ctx);
        assert!(Arc::ptr_eq(&search, &search_tool(&ctx)));
        assert!(Arc::ptr_eq(&search, &search_tool(&ctx.clone())));
        let same = ctx.materialize("lake/1", "enriched".into(), None, None);
        assert!(Arc::ptr_eq(&search, &search_tool(&same)));
        let narrow = DataLake::from_docs([lake().get("gas.txt").unwrap().as_ref().clone()]);
        let narrowed = ctx.materialize("lake/2", "gas".into(), Some(narrow), None);
        let narrowed_search = search_tool(&narrowed);
        assert!(!Arc::ptr_eq(&search, &narrowed_search));
        assert!(Arc::ptr_eq(&narrowed_search, &search_tool(&narrowed)));
        // The narrowed set searches only its own lake.
        let found = narrowed_search
            .call(&[ScriptValue::str("pipeline theft"), ScriptValue::Int(5)])
            .unwrap();
        assert_eq!(found, ScriptValue::list(vec![ScriptValue::str("gas.txt")]));
    }

    #[test]
    fn concurrent_first_use_builds_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake()).build(&rt);
        let builds = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(2);
        let searches: Vec<Arc<dyn Tool>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let ctx = ctx.clone();
                    let (builds, barrier) = (&builds, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let tools = ctx.lake_tools_or_build(|| {
                            builds.fetch_add(1, Ordering::SeqCst);
                        });
                        Arc::clone(&tools[2])
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&searches[0], &searches[1]));
        assert!(Arc::ptr_eq(&searches[0], &search_tool(&ctx)));
    }
}
