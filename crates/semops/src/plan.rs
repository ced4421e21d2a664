//! Logical plans for semantic operator programs.

use aida_data::{DataLake, Field};
use std::fmt;
use std::sync::Arc;

/// A logical operator.
#[derive(Clone)]
pub enum LogicalOp {
    /// Scan a data lake, producing one record per document with `filename`
    /// and `contents` fields (`contents` is attached late; see
    /// [`crate::exec`]).
    Scan {
        /// The lake to scan.
        lake: Arc<DataLake>,
        /// Diagnostic name for the source.
        label: String,
    },
    /// Keep records satisfying a natural-language predicate.
    SemFilter {
        /// The predicate.
        instruction: String,
    },
    /// Extract typed fields per a natural-language instruction.
    SemExtract {
        /// The instruction.
        instruction: String,
        /// Fields to add to each record.
        fields: Vec<Field>,
    },
    /// Add one free-text field (e.g. a summary).
    SemMap {
        /// The instruction.
        instruction: String,
        /// Name of the output field.
        output: String,
        /// Completion-length budget in tokens.
        target_tokens: usize,
    },
    /// Reduce all records to a single answer record.
    SemAgg {
        /// The aggregation instruction.
        instruction: String,
    },
    /// Keep the `k` records most relevant to a query (embedding proxy).
    SemTopK {
        /// Relevance query.
        query: String,
        /// How many records to keep.
        k: usize,
    },
    /// Cluster records into `k` semantic groups (embedding k-means) and
    /// label each group with one LLM call; adds a `group` field.
    SemGroupBy {
        /// What the grouping should capture (guides the labels).
        instruction: String,
        /// Number of groups.
        k: usize,
    },
    /// Natural-language predicate join against a second plan.
    SemJoin {
        /// The join predicate, phrased over "the left item" and "the right
        /// item".
        instruction: String,
        /// Right-hand input (materialized eagerly).
        right: LogicalPlan,
    },
    /// Classical projection.
    Project {
        /// Columns to keep, in order.
        columns: Vec<String>,
    },
    /// Classical limit.
    Limit {
        /// Maximum records to pass through.
        n: usize,
    },
    /// Count records into a single `count` record.
    Count,
}

impl LogicalOp {
    /// Short operator name for plan rendering.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalOp::Scan { .. } => "scan",
            LogicalOp::SemFilter { .. } => "sem_filter",
            LogicalOp::SemExtract { .. } => "sem_extract",
            LogicalOp::SemMap { .. } => "sem_map",
            LogicalOp::SemAgg { .. } => "sem_agg",
            LogicalOp::SemTopK { .. } => "sem_topk",
            LogicalOp::SemGroupBy { .. } => "sem_groupby",
            LogicalOp::SemJoin { .. } => "sem_join",
            LogicalOp::Project { .. } => "project",
            LogicalOp::Limit { .. } => "limit",
            LogicalOp::Count => "count",
        }
    }

    /// True when the operator invokes the LLM per record.
    pub fn is_semantic(&self) -> bool {
        matches!(
            self,
            LogicalOp::SemFilter { .. }
                | LogicalOp::SemExtract { .. }
                | LogicalOp::SemMap { .. }
                | LogicalOp::SemAgg { .. }
                | LogicalOp::SemJoin { .. }
        )
    }

    /// The natural-language instruction, if the operator carries one.
    pub fn instruction(&self) -> Option<&str> {
        match self {
            LogicalOp::SemFilter { instruction }
            | LogicalOp::SemExtract { instruction, .. }
            | LogicalOp::SemMap { instruction, .. }
            | LogicalOp::SemAgg { instruction }
            | LogicalOp::SemJoin { instruction, .. } => Some(instruction),
            LogicalOp::SemTopK { query, .. } => Some(query),
            LogicalOp::SemGroupBy { instruction, .. } => Some(instruction),
            _ => None,
        }
    }
}

impl fmt::Debug for LogicalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalOp::Scan { label, lake } => {
                write!(f, "Scan({label}, {} docs)", lake.len())
            }
            LogicalOp::SemFilter { instruction } => {
                write!(f, "SemFilter({instruction:?})")
            }
            LogicalOp::SemExtract {
                instruction,
                fields,
            } => write!(
                f,
                "SemExtract({instruction:?}, fields={:?})",
                fields.iter().map(|x| x.name.as_str()).collect::<Vec<_>>()
            ),
            LogicalOp::SemMap {
                instruction,
                output,
                ..
            } => {
                write!(f, "SemMap({instruction:?} -> {output})")
            }
            LogicalOp::SemAgg { instruction } => write!(f, "SemAgg({instruction:?})"),
            LogicalOp::SemTopK { query, k } => write!(f, "SemTopK({query:?}, k={k})"),
            LogicalOp::SemGroupBy { instruction, k } => {
                write!(f, "SemGroupBy({instruction:?}, k={k})")
            }
            LogicalOp::SemJoin { instruction, .. } => {
                write!(f, "SemJoin({instruction:?})")
            }
            LogicalOp::Project { columns } => write!(f, "Project({columns:?})"),
            LogicalOp::Limit { n } => write!(f, "Limit({n})"),
            LogicalOp::Count => write!(f, "Count"),
        }
    }
}

/// A linear logical plan: a scan followed by a pipeline of operators.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    ops: Arc<Vec<LogicalOp>>,
}

impl LogicalPlan {
    /// Creates a plan from an operator pipeline. The first operator should
    /// be a [`LogicalOp::Scan`].
    pub fn new(ops: Vec<LogicalOp>) -> Self {
        LogicalPlan { ops: Arc::new(ops) }
    }

    /// The operator pipeline.
    pub fn ops(&self) -> &[LogicalOp] {
        &self.ops
    }

    /// Appends an operator, returning a new plan (plans are immutable).
    pub fn then(&self, op: LogicalOp) -> LogicalPlan {
        let mut ops = self.ops.as_ref().clone();
        ops.push(op);
        LogicalPlan { ops: Arc::new(ops) }
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the plan has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Indices of the semantic operators.
    pub fn semantic_indices(&self) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.is_semantic())
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the plan as an indented tree for traces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            for _ in 0..i {
                out.push_str("  ");
            }
            out.push_str(&format!("{op:?}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_data::{DataLake, Document};

    fn scan() -> LogicalOp {
        LogicalOp::Scan {
            lake: Arc::new(DataLake::from_docs([Document::new("a.txt", "x")])),
            label: "test".into(),
        }
    }

    #[test]
    fn plan_construction_and_append() {
        let plan = LogicalPlan::new(vec![scan()])
            .then(LogicalOp::SemFilter {
                instruction: "about theft".into(),
            })
            .then(LogicalOp::Limit { n: 5 });
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.ops()[1].name(), "sem_filter");
        assert_eq!(plan.semantic_indices(), vec![1]);
    }

    #[test]
    fn then_does_not_mutate_original() {
        let base = LogicalPlan::new(vec![scan()]);
        let _extended = base.then(LogicalOp::Count);
        assert_eq!(base.len(), 1);
    }

    #[test]
    fn render_shows_each_op() {
        let plan = LogicalPlan::new(vec![scan()]).then(LogicalOp::Count);
        let s = plan.render();
        assert!(s.contains("Scan"));
        assert!(s.contains("Count"));
    }

    #[test]
    fn instruction_access() {
        let op = LogicalOp::SemFilter {
            instruction: "p".into(),
        };
        assert_eq!(op.instruction(), Some("p"));
        assert!(LogicalOp::Count.instruction().is_none());
        assert!(op.is_semantic());
        assert!(!LogicalOp::Limit { n: 1 }.is_semantic());
        // TopK is proxy-scored, not LLM-per-record.
        assert!(!LogicalOp::SemTopK {
            query: "q".into(),
            k: 3
        }
        .is_semantic());
    }
}
