//! The ContextManager: materialized-view-style reuse of Contexts.
//!
//! Every `search`/`compute` execution materializes a Context (a narrowed
//! lake + an enriched description + structured findings). The manager
//! embeds each description and, when a new instruction arrives, retrieves
//! the most similar materialized Context; above the runtime's similarity
//! threshold the operator reuses it instead of re-running an agent — the
//! paper's §3 physical optimization (and its §2.4 cache).
//!
//! Long-running service processes (see `aida-serve`) keep one manager
//! alive across thousands of queries, so the store is optionally bounded:
//! [`ContextManager::with_capacity`] caps the number of materializations
//! and evicts **cost-aware LRU** — the victim is the entry cheapest to
//! recreate (`original_cost`), ties broken by least-recent use — so a $2
//! materialization is never dropped to make room for a $0.001 one.

use crate::context::Context;
use aida_data::{DataLake, Document, Field, Schema, Table};
use aida_llm::embed::{cosine, Embedder};
use aida_llm::snapshot::{self, decode_value, encode_value, esc, unesc, SnapshotError};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached materialization.
#[derive(Clone)]
pub struct MaterializedContext {
    /// The instruction whose execution produced this Context.
    pub instruction: String,
    /// The materialized Context.
    pub context: Context,
    /// Embedding of `instruction` + description (retrieval key).
    embedding: Vec<f32>,
    /// What the producing execution cost (for reporting savings; also the
    /// primary eviction key — cheap materializations are evicted first).
    pub original_cost: f64,
    /// Logical tick of the last registration or reuse hit (LRU tiebreak).
    last_used: u64,
}

#[derive(Default)]
struct Store {
    entries: Vec<MaterializedContext>,
    /// Monotonic logical time: bumped on every register and reuse hit.
    tick: u64,
    /// Maximum entries kept (0 = unbounded).
    capacity: usize,
    /// When present, every mutation appends a delta record here. The
    /// runtime's incremental checkpointer drains the journal into
    /// checksummed delta frames between full snapshots, so checkpoint
    /// cost tracks what changed instead of everything materialized.
    journal: Option<Vec<String>>,
}

impl Store {
    fn journal_push(&mut self, record: String) {
        if let Some(journal) = self.journal.as_mut() {
            journal.push(record);
        }
    }
}

/// A shared registry of materialized Contexts.
#[derive(Clone, Default)]
pub struct ContextManager {
    inner: Arc<RwLock<Store>>,
    embedder: Embedder,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
}

impl ContextManager {
    /// Creates an empty, unbounded manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty manager holding at most `capacity` Contexts
    /// (`0` means unbounded). Over capacity, the cheapest-to-recreate
    /// entry is evicted, ties broken by least-recent use.
    pub fn with_capacity(capacity: usize) -> Self {
        let manager = Self::default();
        manager.inner.write().capacity = capacity;
        manager
    }

    /// The capacity bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.inner.read().capacity
    }

    /// Number of materialized Contexts.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// True when nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }

    /// Registers a materialization produced by `instruction`, evicting if
    /// the capacity bound is exceeded.
    pub fn register(&self, instruction: &str, context: Context, original_cost: f64) {
        // The retrieval key is the instruction alone: descriptions grow
        // with every enrichment and would dilute the match.
        let embedding = self.embedder.embed(instruction);
        let mut store = self.inner.write();
        store.tick += 1;
        let last_used = store.tick;
        store.entries.push(MaterializedContext {
            instruction: instruction.to_string(),
            context,
            embedding,
            original_cost,
            last_used,
        });
        if store.journal.is_some() {
            let mut entry_text = String::new();
            encode_entry(store.entries.last().expect("just pushed"), &mut entry_text);
            let mut record = String::from("I\t");
            esc(&entry_text, &mut record);
            store.journal_push(record);
        }
        self.evict_over_capacity(&mut store);
    }

    /// Applies the capacity bound: evicts the cheapest-to-recreate entry
    /// (ties broken by least-recent use) until the store fits. Shared by
    /// registration and snapshot restore so both honor the same policy.
    fn evict_over_capacity(&self, store: &mut Store) {
        while store.capacity > 0 && store.entries.len() > store.capacity {
            let victim = store
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.original_cost
                        .total_cmp(&b.original_cost)
                        .then(a.last_used.cmp(&b.last_used))
                })
                .map(|(i, _)| i);
            // The loop condition guarantees entries is non-empty, but the
            // restore path runs this during recovery, which must never
            // panic (lint rule P1): bail instead.
            let Some(victim) = victim else { break };
            store.journal_push(format!("E\t{victim}"));
            store.entries.remove(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retrieves the materialized Context most similar to `instruction`,
    /// with its similarity score. Deterministic: earlier registrations win
    /// ties. Read-only — recency is not touched.
    pub fn find_similar(&self, instruction: &str) -> Option<(MaterializedContext, f32)> {
        let q = self.embedder.embed(instruction);
        let store = self.inner.read();
        best_match(&store.entries, &q).map(|(i, s)| (store.entries[i].clone(), s))
    }

    /// Retrieves a reusable Context at or above `threshold`, also
    /// returning the best similarity observed (0.0 when nothing is
    /// materialized). Every lookup bumps the hit/miss counters; a hit
    /// refreshes the entry's recency. The scan and the recency bump are
    /// one atomic step, so concurrent callers never observe a half-done
    /// lookup and the hit+miss totals always reconcile with call counts.
    pub fn reuse_scored(
        &self,
        instruction: &str,
        threshold: f32,
    ) -> (Option<MaterializedContext>, f32) {
        let q = self.embedder.embed(instruction);
        let mut store = self.inner.write();
        let best = best_match(&store.entries, &q);
        let best_sim = best.map(|(_, sim)| sim).unwrap_or(0.0);
        match best.filter(|(_, sim)| *sim >= threshold) {
            Some((index, sim)) => {
                store.tick += 1;
                let tick = store.tick;
                store.entries[index].last_used = tick;
                store.journal_push(format!("B\t{index}\t{tick}"));
                self.hits.fetch_add(1, Ordering::Relaxed);
                (Some(store.entries[index].clone()), sim)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (None, best_sim)
            }
        }
    }

    /// Retrieves a reusable Context at or above `threshold`.
    pub fn reuse(&self, instruction: &str, threshold: f32) -> Option<MaterializedContext> {
        self.reuse_scored(instruction, threshold).0
    }

    /// `(hits, misses)` across every reuse lookup so far.
    pub fn reuse_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Drops every materialization (tests/trials). Counters survive.
    /// Any pending journal is dropped too — the next full snapshot is
    /// the new baseline.
    pub fn clear(&self) {
        let mut store = self.inner.write();
        store.entries.clear();
        if let Some(journal) = store.journal.as_mut() {
            journal.clear();
        }
    }

    /// Turns the mutation journal on (or off). Enabling starts from an
    /// empty journal; the runtime drains it into delta frames between
    /// full snapshots.
    pub fn set_journal(&self, enabled: bool) {
        self.inner.write().journal = enabled.then(Vec::new);
    }

    /// Pending delta records since the last drain or full snapshot.
    pub fn journal_len(&self) -> usize {
        self.inner.read().journal.as_ref().map_or(0, Vec::len)
    }

    /// Takes the pending delta records, leaving the journal empty. Each
    /// record is a newline-free payload [`ContextManager::apply_delta`]
    /// can replay in order.
    pub fn drain_journal(&self) -> Vec<String> {
        let mut store = self.inner.write();
        store
            .journal
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Returns drained records to the FRONT of the journal, preserving
    /// emission order. A failed frame append must not silently drop
    /// mutations: the caller puts them back and the next frame carries
    /// them.
    pub fn restore_journal(&self, mut records: Vec<String>) {
        let mut store = self.inner.write();
        if let Some(journal) = store.journal.as_mut() {
            records.append(journal);
            *journal = records;
        }
    }

    /// Re-applies the capacity bound. Used after delta-chain replay,
    /// where a chain truncated between an insert and its eviction can
    /// leave the store transiently over capacity. The trim's own
    /// journal records are dropped: replay is a restore, and the next
    /// save after any restore rewrites a full snapshot.
    pub fn trim_to_capacity(&self) {
        let mut store = self.inner.write();
        self.evict_over_capacity(&mut store);
        if let Some(journal) = store.journal.as_mut() {
            journal.clear();
        }
    }

    /// Replays one journal record against the store. Records are
    /// index-addressed against the entry order at the time they were
    /// journaled, so they MUST be applied in emission order on top of
    /// the exact base they extend; any structural violation (bad tag,
    /// out-of-range index, malformed entry) is a [`SnapshotError`] and
    /// the caller must discard the rest of the chain.
    pub fn apply_delta(
        &self,
        payload: &str,
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<(), SnapshotError> {
        let (tag, rest) = payload
            .split_once('\t')
            .ok_or_else(|| fail("bad delta record"))?;
        let mut store = self.inner.write();
        match tag {
            "I" => {
                let entry_text = unesc(rest)?;
                let mut lines = entry_text.lines();
                let first = lines.next().ok_or_else(|| fail("empty delta entry"))?;
                let e = decode_entry_block(first, &mut lines)?;
                if lines.next().is_some() {
                    return Err(fail("trailing delta entry lines"));
                }
                let lake = DataLake::from_docs(e.docs);
                let mut context = rebuild(&e.id, lake, &e.description);
                context.findings = e.findings.map(Arc::new);
                let last_used = e.last_used;
                store.entries.push(MaterializedContext {
                    embedding: self.embedder.embed(&e.instruction),
                    instruction: e.instruction,
                    context,
                    original_cost: e.original_cost,
                    last_used,
                });
                store.tick = store.tick.max(last_used);
            }
            "B" => {
                let (index, tick) = rest
                    .split_once('\t')
                    .and_then(|(i, t)| Some((i.parse::<usize>().ok()?, t.parse::<u64>().ok()?)))
                    .ok_or_else(|| fail("bad bump record"))?;
                let entry = store
                    .entries
                    .get_mut(index)
                    .ok_or_else(|| fail("bump index out of range"))?;
                entry.last_used = tick;
                store.tick = store.tick.max(tick);
            }
            "E" => {
                let index = rest
                    .parse::<usize>()
                    .map_err(|_| fail("bad evict record"))?;
                if index >= store.entries.len() {
                    return Err(fail("evict index out of range"));
                }
                store.entries.remove(index);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            _ => return Err(fail("unknown delta tag")),
        }
        Ok(())
    }

    /// Encodes the whole store — every materialization with its lineage
    /// (producing instruction), cost metadata, LRU state, documents
    /// (including oracle labels), and findings table — as a versioned,
    /// checksummed snapshot. Entries are written in registration order so
    /// a reload preserves the deterministic earlier-entry-wins tie-break.
    pub fn encode_snapshot(&self) -> String {
        let store = self.inner.read();
        let mut body = String::new();
        body.push_str(&format!("T\t{}\n", store.tick));
        for entry in &store.entries {
            encode_entry(entry, &mut body);
        }
        snapshot::encode_file(STORE_MAGIC, &body)
    }

    /// Restores the store from a snapshot produced by
    /// [`ContextManager::encode_snapshot`], replacing any current
    /// entries. `rebuild` constructs a Context from `(id, lake,
    /// description)` — the caller supplies it because Context
    /// construction needs a Runtime. Embeddings are recomputed
    /// deterministically from each instruction; LRU ticks and costs are
    /// restored exactly, and the store is trimmed to the capacity bound
    /// with the standard eviction policy. Any format, count, or checksum
    /// violation returns [`SnapshotError`] and leaves the store
    /// untouched — callers start cold instead of trusting a corrupt
    /// file. Returns how many Contexts were restored (after trimming).
    pub fn load_snapshot(
        &self,
        text: &str,
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<usize, SnapshotError> {
        let body = snapshot::decode_file(STORE_MAGIC, text)?;
        let decoded = decode_store(body)?;
        let mut entries = Vec::with_capacity(decoded.entries.len());
        for e in decoded.entries {
            let lake = DataLake::from_docs(e.docs);
            let mut context = rebuild(&e.id, lake, &e.description);
            context.findings = e.findings.map(Arc::new);
            entries.push(MaterializedContext {
                embedding: self.embedder.embed(&e.instruction),
                instruction: e.instruction,
                context,
                original_cost: e.original_cost,
                last_used: e.last_used,
            });
        }
        let mut store = self.inner.write();
        store.entries = entries;
        // The restored counter must stay strictly ahead of every
        // restored `last_used`, even for a snapshot whose `T` line
        // under-reports the tick (hand-edited or from a writer crash):
        // otherwise a post-restore recency bump could collide with a
        // restored tick and corrupt the LRU order.
        let max_used = store.entries.iter().map(|e| e.last_used).max().unwrap_or(0);
        store.tick = store.tick.max(decoded.tick).max(max_used);
        self.evict_over_capacity(&mut store);
        // The restore is a fresh baseline: any journal records from the
        // trim above describe mutations already visible in the loaded
        // state, not changes a delta frame still needs to carry.
        if let Some(journal) = store.journal.as_mut() {
            journal.clear();
        }
        Ok(store.entries.len())
    }
}

const STORE_MAGIC: &str = "aida-ctxstore v1";

// ---- snapshot encoding -------------------------------------------------
//
// Tab-separated, tagged lines (escaping via the shared `snapshot` codec):
//   T  <tick>
//   C  <instruction> <cost_bits:hex16> <last_used> <id> <description>
//      <ndocs> <has_findings 0|1>
//   D  <name> <content> <nlabels> (<key> <value-enc>)*      — ×ndocs
//   F  <ncols> (<col-name> <col-desc>)* <nrows> (<cell-enc>)*
//
// Documents round-trip through `Document::new(name, content)` (which
// derives `id` and `kind` from the name, the universal construction in
// this codebase) plus explicit labels, so the oracle sees identical
// ground truth after a restore.

fn encode_entry(entry: &MaterializedContext, out: &mut String) {
    out.push_str("C\t");
    esc(&entry.instruction, out);
    out.push_str(&format!(
        "\t{:016x}\t{}\t",
        entry.original_cost.to_bits(),
        entry.last_used
    ));
    esc(&entry.context.id, out);
    out.push('\t');
    esc(&entry.context.description, out);
    let docs = entry.context.lake().docs();
    out.push_str(&format!(
        "\t{}\t{}\n",
        docs.len(),
        u8::from(entry.context.findings.is_some())
    ));
    for doc in docs {
        out.push_str("D\t");
        esc(&doc.name, out);
        out.push('\t');
        esc(doc.content(), out);
        out.push('\t');
        out.push_str(&doc.labels.len().to_string());
        for (key, value) in &doc.labels {
            out.push('\t');
            esc(key, out);
            out.push('\t');
            encode_value(value, out);
        }
        out.push('\n');
    }
    if let Some(findings) = &entry.context.findings {
        out.push_str("F\t");
        let fields = findings.schema().fields();
        out.push_str(&fields.len().to_string());
        for field in fields {
            out.push('\t');
            esc(&field.name, out);
            out.push('\t');
            esc(&field.desc, out);
        }
        out.push('\t');
        out.push_str(&findings.len().to_string());
        for row in findings.rows() {
            for cell in row {
                out.push('\t');
                encode_value(cell, out);
            }
        }
        out.push('\n');
    }
}

struct DecodedEntry {
    instruction: String,
    original_cost: f64,
    last_used: u64,
    id: String,
    description: String,
    docs: Vec<Document>,
    findings: Option<Table>,
}

struct DecodedStore {
    tick: u64,
    entries: Vec<DecodedEntry>,
}

fn fail(msg: &str) -> SnapshotError {
    SnapshotError::Format(msg.to_string())
}

fn decode_store(body: &str) -> Result<DecodedStore, SnapshotError> {
    let mut lines = body.lines();
    let tick = lines
        .next()
        .and_then(|line| line.strip_prefix("T\t"))
        .and_then(|raw| raw.parse::<u64>().ok())
        .ok_or_else(|| fail("bad tick line"))?;
    let mut entries = Vec::new();
    while let Some(line) = lines.next() {
        entries.push(decode_entry_block(line, &mut lines)?);
    }
    Ok(DecodedStore { tick, entries })
}

/// Decodes one entry's `C` line (`first`) plus its `D`/`F` lines pulled
/// from `lines`. Shared by the whole-store decoder and the delta-frame
/// replay, so an `I` record can never drift from the snapshot format.
fn decode_entry_block(
    first: &str,
    lines: &mut std::str::Lines,
) -> Result<DecodedEntry, SnapshotError> {
    let fields: Vec<&str> = first.split('\t').collect();
    if fields.first() != Some(&"C") || fields.len() != 8 {
        return Err(fail("bad context line"));
    }
    let instruction = unesc(fields[1])?;
    let original_cost = u64::from_str_radix(fields[2], 16)
        .map(f64::from_bits)
        .map_err(|_| fail("bad cost bits"))?;
    let last_used = fields[3]
        .parse::<u64>()
        .map_err(|_| fail("bad last_used"))?;
    let id = unesc(fields[4])?;
    let description = unesc(fields[5])?;
    let ndocs = fields[6]
        .parse::<usize>()
        .map_err(|_| fail("bad doc count"))?;
    let has_findings = match fields[7] {
        "0" => false,
        "1" => true,
        _ => return Err(fail("bad findings flag")),
    };
    let mut docs = Vec::with_capacity(ndocs);
    for _ in 0..ndocs {
        docs.push(decode_doc(
            lines.next().ok_or_else(|| fail("missing document line"))?,
        )?);
    }
    let findings = if has_findings {
        Some(decode_findings(
            lines.next().ok_or_else(|| fail("missing findings line"))?,
        )?)
    } else {
        None
    };
    Ok(DecodedEntry {
        instruction,
        original_cost,
        last_used,
        id,
        description,
        docs,
        findings,
    })
}

fn decode_doc(line: &str) -> Result<Document, SnapshotError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.first() != Some(&"D") || fields.len() < 4 {
        return Err(fail("bad document line"));
    }
    let name = unesc(fields[1])?;
    let content = unesc(fields[2])?;
    let nlabels = fields[3]
        .parse::<usize>()
        .map_err(|_| fail("bad label count"))?;
    if fields.len() != 4 + nlabels * 2 {
        return Err(fail("label count mismatch"));
    }
    let mut doc = Document::new(name, content);
    for i in 0..nlabels {
        let key = unesc(fields[4 + i * 2])?;
        let value = decode_value(fields[5 + i * 2])?;
        doc = doc.with_label(key, value);
    }
    Ok(doc)
}

fn decode_findings(line: &str) -> Result<Table, SnapshotError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.first() != Some(&"F") || fields.len() < 2 {
        return Err(fail("bad findings line"));
    }
    let ncols = fields[1]
        .parse::<usize>()
        .map_err(|_| fail("bad column count"))?;
    let rows_at = 2 + ncols * 2;
    if fields.len() < rows_at + 1 {
        return Err(fail("truncated findings columns"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for i in 0..ncols {
        columns.push(Field::described(
            unesc(fields[2 + i * 2])?,
            unesc(fields[3 + i * 2])?,
        ));
    }
    let nrows = fields[rows_at]
        .parse::<usize>()
        .map_err(|_| fail("bad row count"))?;
    if fields.len() != rows_at + 1 + nrows * ncols {
        return Err(fail("findings cell count mismatch"));
    }
    let mut table = Table::new(Schema::from_fields(columns));
    let mut idx = rows_at + 1;
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(decode_value(fields[idx])?);
            idx += 1;
        }
        table
            .push_row(row)
            .map_err(|_| fail("bad findings row arity"))?;
    }
    Ok(table)
}

/// Index and similarity of the best match against `query`, earlier entries
/// winning ties.
fn best_match(entries: &[MaterializedContext], query: &[f32]) -> Option<(usize, f32)> {
    let mut best: Option<(usize, f32)> = None;
    for (i, entry) in entries.iter().enumerate() {
        let sim = cosine(query, &entry.embedding);
        if best.is_none_or(|(_, s)| sim > s) {
            best = Some((i, sim));
        }
    }
    best
}

impl std::fmt::Debug for ContextManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContextManager({} materialized)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use aida_data::{DataLake, Document};

    fn ctx(rt: &Runtime, desc: &str) -> Context {
        Context::builder("c", DataLake::from_docs([Document::new("a.txt", "x")]))
            .description(desc)
            .build(rt)
    }

    #[test]
    fn register_and_retrieve_by_similarity() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        manager.register(
            "find the number of identity theft reports in 2001",
            ctx(&rt, "FINDINGS: identity theft reports 2001: 86250"),
            1.2,
        );
        manager.register(
            "summarize pipeline maintenance schedules",
            ctx(&rt, "FINDINGS: maintenance windows for gas pipelines"),
            0.8,
        );
        let (hit, sim) = manager
            .find_similar("find the number of identity theft reports in 2024")
            .unwrap();
        assert!(hit.instruction.contains("identity theft"));
        assert!(sim > 0.4, "similar instructions should score high: {sim}");
    }

    #[test]
    fn reuse_respects_threshold() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        manager.register(
            "find identity theft reports in 2001",
            ctx(&rt, "FINDINGS: thefts 2001"),
            1.0,
        );
        assert!(manager
            .reuse("find identity theft reports in 2024", 0.99)
            .is_none());
        assert!(manager
            .reuse("find identity theft reports in 2001", 0.95)
            .is_some());
        // A completely unrelated instruction never reuses.
        assert!(manager
            .reuse("weather forecast for tokyo marathon", 0.5)
            .is_none());
    }

    #[test]
    fn reuse_stats_count_hits_and_misses() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        assert_eq!(manager.reuse_stats(), (0, 0));
        // A lookup against an empty manager is a miss.
        assert!(manager.reuse("anything", 0.5).is_none());
        assert_eq!(manager.reuse_stats(), (0, 1));
        manager.register(
            "find identity theft reports in 2001",
            ctx(&rt, "FINDINGS: thefts 2001"),
            1.0,
        );
        let (hit, sim) = manager.reuse_scored("find identity theft reports in 2001", 0.95);
        assert!(hit.is_some());
        assert!(sim >= 0.95);
        let (missed, best) = manager.reuse_scored("weather forecast for tokyo marathon", 0.5);
        assert!(missed.is_none());
        assert!(
            best < 0.5,
            "best similarity is still reported on a miss: {best}"
        );
        assert_eq!(manager.reuse_stats(), (1, 2));
        // Clones share the counters.
        assert_eq!(manager.clone().reuse_stats(), (1, 2));
    }

    #[test]
    fn empty_manager_finds_nothing() {
        let manager = ContextManager::new();
        assert!(manager.find_similar("anything").is_none());
        assert!(manager.is_empty());
    }

    #[test]
    fn clear_empties_and_clones_share() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        let clone = manager.clone();
        manager.register("i", ctx(&rt, "d"), 0.1);
        assert_eq!(clone.len(), 1);
        clone.clear();
        assert!(manager.is_empty());
    }

    #[test]
    fn capacity_bound_evicts_cheapest_first() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::with_capacity(2);
        assert_eq!(manager.capacity(), 2);
        manager.register("expensive exhaustive legal scan", ctx(&rt, "a"), 2.0);
        manager.register("cheap keyword probe", ctx(&rt, "b"), 0.01);
        manager.register("medium targeted extraction", ctx(&rt, "c"), 0.5);
        // The $0.01 entry is the victim, not the oldest ($2.00) one.
        assert_eq!(manager.len(), 2);
        assert_eq!(manager.evictions(), 1);
        let kept: Vec<String> = [
            "expensive exhaustive legal scan",
            "medium targeted extraction",
        ]
        .iter()
        .map(|i| {
            manager
                .find_similar(i)
                .map(|(m, _)| m.instruction)
                .unwrap_or_default()
        })
        .collect();
        assert!(kept.iter().any(|i| i.contains("expensive")));
        assert!(kept.iter().any(|i| i.contains("medium")));
    }

    #[test]
    fn eviction_ties_break_by_recency() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::with_capacity(2);
        manager.register("alpha instruction about pipelines", ctx(&rt, "a"), 1.0);
        manager.register("beta instruction about reports", ctx(&rt, "b"), 1.0);
        // Touch alpha so beta becomes the least-recently-used equal-cost
        // entry.
        assert!(manager
            .reuse("alpha instruction about pipelines", 0.95)
            .is_some());
        manager.register("gamma instruction about filings", ctx(&rt, "c"), 1.0);
        assert_eq!(manager.len(), 2);
        let (hit, sim) = manager
            .find_similar("beta instruction about reports")
            .unwrap();
        assert!(
            sim < 0.95 || !hit.instruction.contains("beta"),
            "beta should have been evicted (best match now {} at {sim})",
            hit.instruction
        );
    }

    #[test]
    fn snapshot_round_trips_store_and_rejects_corruption() {
        use aida_data::Value;
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        let lake = DataLake::from_docs([
            Document::new("a.txt", "alpha text\twith tabs\nand lines")
                .with_label("amount", Value::Int(42)),
            Document::new("b.csv", "k,v\nx,7"),
        ]);
        let mut context = Context::builder("legal/1", lake)
            .description("FINDINGS: alpha amount is 42")
            .build(&rt);
        let mut table = Table::new(Schema::of(["k", "v"]));
        table
            .push_row(vec![Value::Str("x, [tricky]".into()), Value::Int(7)])
            .unwrap();
        context.findings = Some(Arc::new(table));
        manager.register("find the alpha amount", context, 1.25);
        manager.register("summarize beta filings", ctx(&rt, "FINDINGS: beta"), 0.5);

        let snap = manager.encode_snapshot();
        let restored = ContextManager::new();
        let rebuild = |id: &str, lake: DataLake, desc: &str| {
            Context::builder(id, lake).description(desc).build(&rt)
        };
        assert_eq!(restored.load_snapshot(&snap, &rebuild).unwrap(), 2);
        // Re-encoding the restored store reproduces the snapshot byte for
        // byte: lineage, costs, LRU ticks, docs, and findings all survive.
        assert_eq!(restored.encode_snapshot(), snap);
        let (hit, sim) = restored.find_similar("find the alpha amount").unwrap();
        assert!(sim > 0.95, "restored instruction should match: {sim}");
        assert_eq!(hit.context.id, "legal/1");
        assert_eq!(
            hit.context.lake().docs()[0].label("amount"),
            Some(&Value::Int(42))
        );
        let findings = hit.context.findings.expect("findings survive");
        assert_eq!(
            findings.cell(0, "k"),
            Some(&Value::Str("x, [tricky]".into()))
        );

        // One flipped byte breaks the checksum; the store is untouched.
        let mut bytes = snap.clone().into_bytes();
        let at = bytes.len() - 2;
        bytes[at] = bytes[at].wrapping_add(1);
        let garbled = String::from_utf8(bytes).unwrap();
        let cold = ContextManager::new();
        assert!(matches!(
            cold.load_snapshot(&garbled, &rebuild),
            Err(SnapshotError::Format(_))
        ));
        assert!(cold.is_empty());
    }

    #[test]
    fn snapshot_restore_respects_capacity_bound() {
        let rt = Runtime::builder().build();
        let big = ContextManager::new();
        big.register("expensive exhaustive legal scan", ctx(&rt, "a"), 2.0);
        big.register("cheap keyword probe", ctx(&rt, "b"), 0.01);
        big.register("medium targeted extraction", ctx(&rt, "c"), 0.5);
        let snap = big.encode_snapshot();
        // A smaller manager trims the restored store with the standard
        // cost-aware policy instead of silently exceeding its bound.
        let small = ContextManager::with_capacity(2);
        let rebuild = |id: &str, lake: DataLake, desc: &str| {
            Context::builder(id, lake).description(desc).build(&rt)
        };
        assert_eq!(small.load_snapshot(&snap, &rebuild).unwrap(), 2);
        assert_eq!(small.evictions(), 1);
        let (hit, _) = small.find_similar("cheap keyword probe").unwrap();
        assert!(
            !hit.instruction.contains("cheap"),
            "the cheapest entry is the trim victim"
        );
    }

    #[test]
    fn journal_replay_reproduces_the_store_byte_for_byte() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::with_capacity(2);
        manager.set_journal(true);

        // Baseline: one entry, then a full snapshot drains nothing (the
        // runtime clears via drain) — replay starts from this base.
        manager.register("expensive exhaustive legal scan", ctx(&rt, "a"), 2.0);
        let base = manager.encode_snapshot();
        let drained = manager.drain_journal();
        assert_eq!(drained.len(), 1, "register journals one insert");

        // Mutations after the base: insert, recency bump, insert that
        // evicts (capacity 2 — the cheap probe is the victim).
        manager.register("cheap keyword probe", ctx(&rt, "b"), 0.01);
        assert!(manager
            .reuse("expensive exhaustive legal scan", 0.95)
            .is_some());
        manager.register("medium targeted extraction", ctx(&rt, "c"), 0.5);
        let deltas = manager.drain_journal();
        assert_eq!(manager.journal_len(), 0);
        assert!(
            deltas.iter().any(|d| d.starts_with("E\t")),
            "the over-capacity insert journals its eviction: {deltas:?}"
        );

        let rebuild = |id: &str, lake: DataLake, desc: &str| {
            Context::builder(id, lake).description(desc).build(&rt)
        };
        let replica = ContextManager::with_capacity(2);
        assert_eq!(replica.load_snapshot(&base, &rebuild).unwrap(), 1);
        for delta in &deltas {
            replica.apply_delta(delta, &rebuild).unwrap();
        }
        assert_eq!(replica.encode_snapshot(), manager.encode_snapshot());

        // Structural violations reject instead of applying garbage.
        assert!(replica.apply_delta("B\t99\t7", &rebuild).is_err());
        assert!(replica.apply_delta("E\t99", &rebuild).is_err());
        assert!(replica.apply_delta("X\tnope", &rebuild).is_err());
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        for i in 0..32 {
            manager.register(&format!("instruction {i}"), ctx(&rt, "d"), 0.1);
        }
        assert_eq!(manager.len(), 32);
        assert_eq!(manager.evictions(), 0);
    }
}
