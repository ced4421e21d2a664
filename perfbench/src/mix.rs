//! Seeded workload streams. Each generator is a pure function of its
//! seed: the same seed yields the same stream, byte for byte, and the
//! program under test only ever sees the generated inputs.
//!
//! A stream has a fixed *shape* — which query classes come in which
//! order, which repeat an earlier question, which model tiers a
//! pipeline binds — drawn once from [`SHAPE_SEED`]. The run's seed
//! relabels the shape: it permutes the years a legal question names
//! and the transactions an enron question names, and it seeds the
//! lakes and the simulated LLM. So two seeds pose different questions
//! over different lakes with the same mix, and a run's figures vary
//! with its seed by the instance, not by the mix.

use aida_llm::noise::{self, KeyedRng};
use aida_llm::ModelId;
use aida_synth::legal;
use aida_synth::text::TRANSACTIONS;

/// Pipelines in one semops_enron pass: enough that ten samples lie
/// beyond p90 within a single pass, with the predicates repeating.
pub const ENRON_PIPELINES: usize = 200;

/// agentic_legal questions per session (one fresh runtime each).
pub const SESSION_QUERIES: usize = 30;

/// What a legal question asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// Identity-theft reports filed in one year.
    Count(i64),
    /// Reports in the first year divided by reports in the second.
    Ratio(i64, i64),
}

impl Ask {
    /// The ground truth from the synthetic national series.
    pub fn truth(self) -> f64 {
        let series = legal::theft_series();
        let reports = |year: i64| {
            series
                .iter()
                .find(|(y, _)| *y == year)
                .map(|(_, n)| *n as f64)
                .expect("year inside the national series")
        };
        match self {
            Ask::Count(y) => reports(y),
            Ask::Ratio(a, b) => reports(a) / reports(b),
        }
    }

    /// Whether `answer` lies within 2% of the truth.
    pub fn accepts(self, answer: Option<f64>) -> bool {
        let truth = self.truth();
        answer.is_some_and(|a| ((a - truth) / truth).abs() <= 0.02)
    }
}

/// One agentic_legal query: an optional `search` before the `compute`.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalQuery {
    /// Query class for per-class quality: `legal_count`, `legal_ratio`
    /// or `legal_pipeline`.
    pub class: &'static str,
    /// The `search` instruction run before the compute, if any.
    pub search: Option<String>,
    /// The `compute` instruction.
    pub compute: String,
    /// What the compute asks, for scoring.
    pub ask: Ask,
}

// Phrasings the agentic operators answer with a number. (Others, such
// as "how many … were filed in 2003", come back as a file list, and
// "compute the ratio of …" as no answer; they would measure the
// planner's phrasing coverage, not the runtime.)
const COUNT_FORMS: &[&str] = &[
    "find the number of identity theft reports in {a}",
    "report the national number of identity theft reports in {a}",
];

const RATIO_FORMS: &[&str] = &[
    "What is the ratio between the number of identity theft reports in {a} and the number \
     of identity theft reports in {b}?",
    "find the ratio between the number of identity theft reports in {a} and the number of \
     identity theft reports in {b}",
];

const SEARCH_FORMS: &[&str] = &[
    "find the files with national identity theft report counts by year",
    "locate the national yearly identity theft statistics",
];

fn fill(form: &str, a: i64, b: i64) -> String {
    form.replace("{a}", &a.to_string())
        .replace("{b}", &b.to_string())
}

/// Seed of the streams' shape (see the module docs).
pub const SHAPE_SEED: u64 = 0x5eed_0a1d;

fn rng(seed: u64, stream: &str) -> KeyedRng {
    KeyedRng::new(noise::combine(&[noise::hash_str(stream), seed]))
}

/// A seeded permutation of `items` (Fisher–Yates).
fn permutation<T: Clone>(seed: u64, stream: &str, items: &[T]) -> Vec<T> {
    let mut r = rng(seed, stream);
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, r.below(i + 1));
    }
    out
}

/// The run seed's relabelling of the shape's years and transactions.
struct Relabel {
    years: Vec<i64>,
    transactions: Vec<&'static str>,
}

impl Relabel {
    fn new(seed: u64) -> Relabel {
        let years: Vec<i64> = (legal::FIRST_YEAR..=legal::LAST_YEAR).collect();
        Relabel {
            years: permutation(seed, "perfbench.years", &years),
            transactions: permutation(seed, "perfbench.transactions", TRANSACTIONS),
        }
    }

    fn year(&self, shape: &mut KeyedRng) -> i64 {
        self.years[shape.below(self.years.len())]
    }

    fn transaction(&self, shape: &mut KeyedRng) -> &'static str {
        self.transactions[shape.below(self.transactions.len())]
    }

    fn ask(&self, shape: &mut KeyedRng, ratio: bool) -> (Ask, String) {
        let a = self.year(shape);
        if ratio {
            let mut b = self.year(shape);
            while b == a {
                b = self.year(shape);
            }
            (
                Ask::Ratio(a, b),
                fill(RATIO_FORMS[shape.below(RATIO_FORMS.len())], a, b),
            )
        } else {
            (
                Ask::Count(a),
                fill(COUNT_FORMS[shape.below(COUNT_FORMS.len())], a, 0),
            )
        }
    }
}

/// One agentic_legal session: a fresh runtime over one lake instance,
/// asked [`SESSION_QUERIES`] questions in order.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalSession {
    /// Seed of the session's runtime (its simulated LLM and agents).
    pub seed: u64,
    /// Which of the pass's [`LEGAL_LAKES`] lake instances it queries.
    pub lake: usize,
    /// The questions, in order.
    pub queries: Vec<LegalQuery>,
}

/// Sessions per agentic_legal pass.
pub const LEGAL_SESSIONS: usize = 16;
/// Distinct legal lake instances per pass; session `k` queries lake
/// `k % LEGAL_LAKES`.
pub const LEGAL_LAKES: usize = 4;

/// The seed of lake instance `lake` in a run seeded `seed`.
pub fn lake_seed(seed: u64, lake: usize) -> u64 {
    noise::combine(&[noise::hash_str("perfbench.lake"), seed, lake as u64])
}

/// The agentic_legal stream: 30% count, 40% ratio and 30% search→compute
/// questions, years across 2001–2024, cut into sessions. Each session
/// has its own seed, so its years are relabelled independently and its
/// runtime draws its own simulated-LLM noise.
pub fn legal_sessions(seed: u64) -> Vec<LegalSession> {
    let mut r = rng(SHAPE_SEED, "perfbench.legal");
    (0..LEGAL_SESSIONS)
        .map(|k| {
            let session_seed =
                noise::combine(&[noise::hash_str("perfbench.session"), seed, k as u64]);
            let label = Relabel::new(session_seed);
            let queries = (0..SESSION_QUERIES)
                .map(|_| legal_query(&mut r, &label))
                .collect();
            LegalSession {
                seed: session_seed,
                lake: k % LEGAL_LAKES,
                queries,
            }
        })
        .collect()
}

fn legal_query(r: &mut KeyedRng, label: &Relabel) -> LegalQuery {
    let u = r.next_f64();
    if u < 0.30 {
        let (ask, compute) = label.ask(r, false);
        LegalQuery {
            class: "legal_count",
            search: None,
            compute,
            ask,
        }
    } else if u < 0.70 {
        let (ask, compute) = label.ask(r, true);
        LegalQuery {
            class: "legal_ratio",
            search: None,
            compute,
            ask,
        }
    } else {
        let search = r.pick(SEARCH_FORMS).to_string();
        let ratio = r.chance(0.5);
        let (ask, compute) = label.ask(r, ratio);
        LegalQuery {
            class: "legal_pipeline",
            search: Some(search),
            compute,
            ask,
        }
    }
}

/// The last step of a semops_enron pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// `sem_extract` of the sender address.
    Sender,
    /// `sem_extract` of the subject line.
    Subject,
    /// `sem_map` to a one-sentence summary.
    Summary,
}

impl Tail {
    /// The output column the step adds.
    pub fn column(self) -> &'static str {
        match self {
            Tail::Sender => "sender",
            Tail::Subject => "subject",
            Tail::Summary => "summary",
        }
    }
}

/// One semops_enron pipeline: two semantic filters, then an extraction
/// or a map, each bound to a model tier.
#[derive(Debug, Clone, PartialEq)]
pub struct EnronPipeline {
    /// Query class for per-class quality: `enron_extract` or
    /// `enron_map`.
    pub class: &'static str,
    /// The first (cheap, mention) filter.
    pub mention: String,
    /// The second (firsthand) filter.
    pub firsthand: String,
    /// The last step.
    pub tail: Tail,
    /// Model tiers of the three semantic steps.
    pub models: [ModelId; 3],
}

/// The semops_enron stream. Filters name one of the five transactions
/// (or all five), so predicates repeat across pipelines and part of the
/// per-item calls replay from the semantic cache.
pub fn enron_stream(seed: u64, n: usize) -> Vec<EnronPipeline> {
    let label = Relabel::new(seed);
    let mut r = rng(SHAPE_SEED, "perfbench.enron");
    let all = "one or more of the Raptor, Chewco, LJM, Talon, or Condor business transactions";
    (0..n)
        .map(|_| {
            let target = if r.chance(0.2) {
                all.to_string()
            } else {
                format!("the {} transaction", label.transaction(&mut r))
            };
            let tail = *r.pick(&[Tail::Sender, Tail::Subject, Tail::Summary]);
            let models = [
                *r.pick(&[ModelId::Mini, ModelId::Nano]),
                *r.pick(&ModelId::ALL),
                *r.pick(&[ModelId::Mini, ModelId::Nano]),
            ];
            EnronPipeline {
                class: if tail == Tail::Summary {
                    "enron_map"
                } else {
                    "enron_extract"
                },
                mention: format!("the email mentions {target}"),
                firsthand: format!("the email contains firsthand discussion of {target}"),
                tail,
                models,
            }
        })
        .collect()
}

/// One serve_live client's plan: its tenant, Context and the questions
/// it asks in order.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveClient {
    /// Submitting tenant.
    pub tenant: &'static str,
    /// Registered Context name.
    pub context: &'static str,
    /// Instructions, one per query.
    pub instructions: Vec<String>,
    /// Virtual instant the client connects.
    pub start_s: f64,
}

/// Independent service lifetimes per serve_live pass.
pub const LIVE_UNITS: usize = 16;
/// Clients per service lifetime.
pub const LIVE_CLIENTS: usize = 20;
/// Virtual seconds between serve_live client arrivals.
pub const LIVE_SPACING_S: f64 = 120.0;
/// Queries each serve_live client asks.
pub const LIVE_QUERIES_PER_CLIENT: usize = 2;
/// Distinct legal questions the legal tenants share in one lifetime
/// (the enron tenant shares one question per transaction).
pub const LIVE_LEGAL_POOL: usize = 4;

/// Pyrite plans the quota-capped tenant submits: bound-checked at
/// admission, and repeated, so the plan-hash and bound caches are used.
pub const LIVE_PLANS: &[&str] = &[
    "len(read_file('email_0001.eml'))",
    "total = 0\nfor f in list_files()[:3]:\n    total = total + len(read_file(f))\ntotal",
];

/// One serve_live service lifetime: its seed (lakes, simulated LLM,
/// transport) and its client fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveUnit {
    /// Seed of this lifetime's lakes, runtime and transport.
    pub seed: u64,
    /// The closed-loop clients, in connect order.
    pub clients: Vec<LiveClient>,
}

/// The serve_live stream: [`LIVE_UNITS`] service lifetimes. In each,
/// tenants acme and bolt ask questions from a shared pool of legal
/// questions, cora asks about the five enron transactions, and every
/// tenth client is the quota-capped dara, which submits Pyrite plans.
/// Tenants overlap, so repeats ride the shared cache and Context store.
pub fn live_units(seed: u64) -> Vec<LiveUnit> {
    let mut r = rng(SHAPE_SEED, "perfbench.live");
    (0..LIVE_UNITS)
        .map(|u| {
            let unit_seed = noise::combine(&[noise::hash_str("perfbench.unit"), seed, u as u64]);
            let label = Relabel::new(unit_seed);
            let legal_pool: Vec<String> = (0..LIVE_LEGAL_POOL)
                .map(|_| label.ask(&mut r, false).1)
                .collect();
            let clients = (0..LIVE_CLIENTS)
                .map(|i| {
                    let (tenant, context) = if i % 10 == 9 {
                        ("dara", "enron")
                    } else {
                        match i % 3 {
                            0 => ("acme", "legal"),
                            1 => ("bolt", "legal"),
                            _ => ("cora", "enron"),
                        }
                    };
                    let instructions = (0..LIVE_QUERIES_PER_CLIENT)
                        .map(|q| match (tenant, context) {
                            ("dara", _) => LIVE_PLANS[q % LIVE_PLANS.len()].to_string(),
                            (_, "legal") => r.pick(&legal_pool).clone(),
                            _ => format!(
                                "find emails with firsthand discussion of the {} transaction",
                                label.transaction(&mut r)
                            ),
                        })
                        .collect();
                    LiveClient {
                        tenant,
                        context,
                        instructions,
                        start_s: i as f64 * LIVE_SPACING_S + r.range_f64(0.0, 2.0),
                    }
                })
                .collect();
            LiveUnit {
                seed: unit_seed,
                clients,
            }
        })
        .collect()
}
