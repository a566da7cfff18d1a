//! The unified solver entry point: typed [`SolveRequest`] in,
//! [`SolveReport`] out.
//!
//! The paper's contribution is a *family* of interchangeable solvers
//! (HG / GC / L / LP / OPT — Table I's head-to-head), but as plain structs
//! each exposes its own ad-hoc knobs, so every consumer ends up
//! re-implementing solver construction, budgeting, timing and stats
//! capture. This module owns that once:
//!
//! * [`Algo`] — the solver family as data, with `FromStr`/`Display` so CLIs
//!   and config files stop string-matching by hand;
//! * [`Budget`] — one cross-solver resource budget (stored cliques,
//!   conflict edges, exact-search nodes/time) subsuming
//!   [`crate::GcSolver`]'s clique budget, [`CliqueGraphLimits`] and
//!   [`MisBudget`];
//! * [`SolveRequest`] — `k` + algorithm + ordering + budget + executor
//!   configuration, in one buildable value;
//! * [`SolveReport`] — the [`Solution`] plus provenance (algorithm,
//!   effective budget, thread count), phase timings and per-algorithm
//!   detail ([`LpRunStats`] / [`OptDetail`]), with JSON rendering for
//!   machine consumers;
//! * [`Engine`] — the dispatcher: [`Engine::solve`] for one maximal
//!   disjoint k-clique set, [`Engine::partition_all`] for the residual
//!   loop that assigns *every* node to a group.
//!
//! The concrete solver structs stay public — they are the implementation
//! layer — but every consumer in this workspace (CLI, benches, the repro
//! harness, dynamic maintenance) goes through the engine.
//!
//! ```
//! use dkc_core::{Algo, Engine, SolveRequest};
//! use dkc_graph::CsrGraph;
//!
//! let g = CsrGraph::from_edges(6, vec![
//!     (0, 1), (1, 2), (0, 2),
//!     (3, 4), (4, 5), (3, 5),
//!     (2, 3),
//! ]).unwrap();
//! let report = Engine::solve(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
//! assert_eq!(report.solution.len(), 2);
//! report.solution.verify(&g).unwrap();
//! let json = report.to_json(); // machine-readable, round-trips via from_json
//! assert!(json.contains("\"algo\":\"lp\""));
//! ```

use crate::{
    GcSolver, GreedyCliqueGraphSolver, HgSolver, LightweightSolver, LpRunStats, OptSolver,
    Partition, Solution, SolveError, Solver,
};
use dkc_clique::Clique;
use dkc_cliquegraph::CliqueGraphLimits;
use dkc_graph::{CsrGraph, DynGraph, InducedSubgraph, NodeId, OrderingKind};
use dkc_improve::{ImproveConfig, ImproveStats};
use dkc_json::Json;
use dkc_mis::MisBudget;
use dkc_par::ParConfig;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The solver families of the paper, as data.
///
/// `Display` renders the stable CLI token (`hg`, `gc`, `l`, `lp`, `opt`,
/// `greedy-cg`) and [`FromStr`] accepts either that token or the paper
/// name (`HG`, …, `GREEDY-CG`) case-insensitively, so the two round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Basic framework (Algorithm 1): first-found clique per node in a
    /// total order — [`HgSolver`].
    Hg,
    /// Clique-score greedy (Algorithm 2): stores all k-cliques —
    /// [`GcSolver`].
    Gc,
    /// Lightweight without pruning (Algorithm 3) — [`LightweightSolver::l`].
    L,
    /// Lightweight with score-driven pruning (the paper's flagship) —
    /// [`LightweightSolver::lp`].
    Lp,
    /// Exact clique-graph + branch-and-reduce MIS baseline — [`OptSolver`].
    Opt,
    /// Min-degree greedy MIS on the materialised clique graph (ablation
    /// baseline) — [`GreedyCliqueGraphSolver`].
    GreedyCg,
}

impl Algo {
    /// Every algorithm, in the paper's comparison order.
    pub const ALL: [Algo; 6] = [Algo::Hg, Algo::Gc, Algo::L, Algo::Lp, Algo::Opt, Algo::GreedyCg];

    /// The stable lowercase CLI token (`--algo <token>`).
    pub fn cli_name(self) -> &'static str {
        match self {
            Algo::Hg => "hg",
            Algo::Gc => "gc",
            Algo::L => "l",
            Algo::Lp => "lp",
            Algo::Opt => "opt",
            Algo::GreedyCg => "greedy-cg",
        }
    }

    /// The paper's competitor name, as printed in the evaluation tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            Algo::Hg => "HG",
            Algo::Gc => "GC",
            Algo::L => "L",
            Algo::Lp => "LP",
            Algo::Opt => "OPT",
            Algo::GreedyCg => "GREEDY-CG",
        }
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.cli_name())
    }
}

/// Error of parsing an [`Algo`] token: it matched no known algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgoError {
    /// The rejected token.
    pub token: String,
}

impl std::fmt::Display for ParseAlgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = Algo::ALL.iter().map(|a| a.cli_name()).collect();
        write!(f, "unknown algorithm {:?} (try {})", self.token, names.join("|"))
    }
}

impl std::error::Error for ParseAlgoError {}

impl FromStr for Algo {
    type Err = ParseAlgoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let token = s.trim().to_ascii_lowercase();
        Algo::ALL
            .into_iter()
            .find(|a| token == a.cli_name() || token == a.paper_name().to_ascii_lowercase())
            .ok_or(ParseAlgoError { token })
    }
}

/// One resource budget covering every solver.
///
/// Each algorithm reads the fields it can trip on and ignores the rest
/// (HG and L/LP are budget-free by construction):
///
/// | Field | GC | OPT | GREEDY-CG |
/// |---|---|---|---|
/// | `max_cliques` | stored-clique budget ("OOM") | clique-graph nodes | clique-graph nodes |
/// | `max_conflicts` | — | clique-graph edges | clique-graph edges |
/// | `mis_node_limit` | — | exact-search nodes ("OOT") | — |
/// | `mis_time_limit` | — | exact-search wall clock | — |
///
/// `mis_time_limit` is the only non-deterministic budget (it depends on
/// the host's speed); [`Budget::standard`] deliberately leaves it unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Maximum number of k-cliques materialised (`None` = unlimited).
    pub max_cliques: Option<usize>,
    /// Maximum number of clique-graph conflict edges (`None` = unlimited).
    pub max_conflicts: Option<usize>,
    /// Maximum exact-MIS search-tree nodes (`None` = unlimited).
    pub mis_node_limit: Option<u64>,
    /// Wall-clock limit for the exact MIS search (`None` = unlimited).
    pub mis_time_limit: Option<Duration>,
    /// Local-search improvement step budget: when `Some(> 0)`, the engine
    /// runs [`dkc_improve::improve`] on the solver's output as a second
    /// timed phase (`None` = construct only). Introduced in PR 9; the JSON
    /// wire form omits it when unset, so older renderings still parse.
    pub improve_steps: Option<u64>,
    /// Seed for the improvement search (`None` = 0). Same seed, budget and
    /// input ⇒ identical improved solution for any thread count.
    pub improve_seed: Option<u64>,
}

impl Budget {
    /// No limits anywhere — every solver behaves like its unbudgeted
    /// default constructor.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// The deterministic defaults of [`OptSolver::budgeted`]: past roughly
    /// real-world-graph scale the run degrades to a structured OOM/OOT
    /// error in bounded time instead of hanging. No wall-clock term, so
    /// results are identical across machines.
    pub fn standard() -> Self {
        Budget {
            max_cliques: Some(OptSolver::DEFAULT_MAX_CLIQUES),
            max_conflicts: Some(OptSolver::DEFAULT_MAX_CONFLICTS),
            mis_node_limit: Some(OptSolver::DEFAULT_MIS_NODE_LIMIT),
            mis_time_limit: None,
            improve_steps: None,
            improve_seed: None,
        }
    }

    /// The budget a request for `algo` gets when it names none, on every
    /// entry point (CLI flags and the JSON wire form alike): [`Budget::standard`]
    /// for [`Algo::Opt`], whose exact search would otherwise run unbounded
    /// past toy scale, and [`Budget::unlimited`] for everything else.
    pub fn default_for(algo: Algo) -> Self {
        match algo {
            Algo::Opt => Self::standard(),
            _ => Self::unlimited(),
        }
    }

    /// Overrides the stored-clique budget.
    pub fn with_max_cliques(mut self, limit: usize) -> Self {
        self.max_cliques = Some(limit);
        self
    }

    /// Overrides the conflict-edge budget.
    pub fn with_max_conflicts(mut self, limit: usize) -> Self {
        self.max_conflicts = Some(limit);
        self
    }

    /// Overrides the exact-search node budget.
    pub fn with_mis_node_limit(mut self, limit: u64) -> Self {
        self.mis_node_limit = Some(limit);
        self
    }

    /// Overrides the exact-search wall-clock budget (non-deterministic —
    /// prefer [`Budget::with_mis_node_limit`] where reproducibility
    /// matters).
    pub fn with_mis_time_limit(mut self, limit: Duration) -> Self {
        self.mis_time_limit = Some(limit);
        self
    }

    /// Enables the anytime improvement phase with the given step budget.
    pub fn with_improve_steps(mut self, steps: u64) -> Self {
        self.improve_steps = Some(steps);
        self
    }

    /// Overrides the improvement search seed (default 0).
    pub fn with_improve_seed(mut self, seed: u64) -> Self {
        self.improve_seed = Some(seed);
        self
    }

    /// The clique-graph slice of this budget.
    pub fn clique_graph_limits(&self) -> CliqueGraphLimits {
        CliqueGraphLimits { max_cliques: self.max_cliques, max_conflicts: self.max_conflicts }
    }

    /// The exact-MIS slice of this budget.
    pub fn mis_budget(&self) -> MisBudget {
        MisBudget { time_limit: self.mis_time_limit, node_limit: self.mis_node_limit }
    }

    /// Renders this budget as a [`Json`] object (the `"budget"` member of a
    /// [`SolveReport`] / [`SolveRequest`] rendering). The improvement
    /// members are omitted when unset, so pre-PR-9 consumers — which only
    /// know the four construction budgets — keep parsing these documents.
    pub fn to_json_value(self) -> Json {
        let mut members = vec![
            ("max_cliques".into(), Json::opt_usize(self.max_cliques)),
            ("max_conflicts".into(), Json::opt_usize(self.max_conflicts)),
            ("mis_node_limit".into(), Json::opt_u64(self.mis_node_limit)),
            ("mis_time_limit_ns".into(), Json::opt_u64(self.mis_time_limit.map(duration_to_ns))),
        ];
        if let Some(steps) = self.improve_steps {
            members.push(("improve_steps".into(), Json::u64(steps)));
        }
        if let Some(seed) = self.improve_seed {
            members.push(("improve_seed".into(), Json::u64(seed)));
        }
        Json::Obj(members)
    }

    /// Parses a budget rendered by [`Budget::to_json_value`]. The
    /// improvement members are optional (absent in pre-PR-9 renderings)
    /// and unknown members are ignored.
    pub fn from_json_value(v: &Json) -> Result<Self, ParseReportError> {
        let opt_u64 = |name: &str| -> Result<Option<u64>, ParseReportError> {
            match v.get(name) {
                None => Ok(None),
                Some(x) => x.as_opt_u64().ok_or_else(|| bad_field(name)),
            }
        };
        Ok(Budget {
            max_cliques: field(v, "max_cliques")?
                .as_opt_usize()
                .ok_or_else(|| bad_field("max_cliques"))?,
            max_conflicts: field(v, "max_conflicts")?
                .as_opt_usize()
                .ok_or_else(|| bad_field("max_conflicts"))?,
            mis_node_limit: field(v, "mis_node_limit")?
                .as_opt_u64()
                .ok_or_else(|| bad_field("mis_node_limit"))?,
            mis_time_limit: field(v, "mis_time_limit_ns")?
                .as_opt_u64()
                .ok_or_else(|| bad_field("mis_time_limit_ns"))?
                .map(Duration::from_nanos),
            improve_steps: opt_u64("improve_steps")?,
            improve_seed: opt_u64("improve_seed")?,
        })
    }
}

/// One fully-specified solve: algorithm, clique size, node ordering,
/// budget and executor configuration.
///
/// Build with [`SolveRequest::new`] plus `with_*` overrides; hand to
/// [`Engine::solve`] or [`Engine::partition_all`]. The value is `Copy`, so
/// a request can be stored (e.g. by `dkc_dynamic`'s from-scratch rebuild
/// path) and replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveRequest {
    /// Which solver family runs.
    pub algo: Algo,
    /// The clique size (`3 <= k <= dkc_clique::MAX_K`).
    pub k: usize,
    /// Total node ordering — consumed by [`Algo::Hg`] (the other
    /// algorithms fix their ordering internally; see Section IV-A).
    pub ordering: OrderingKind,
    /// Resource budget (see [`Budget`] for the per-algorithm mapping).
    pub budget: Budget,
    /// Executor configuration. Every parallel phase is deterministic, so
    /// this is a pure speed knob.
    pub par: ParConfig,
}

impl SolveRequest {
    /// A request with the defaults every direct solver constructor uses:
    /// degeneracy ordering, unlimited budget, default executor.
    pub fn new(algo: Algo, k: usize) -> Self {
        SolveRequest {
            algo,
            k,
            ordering: OrderingKind::Degeneracy,
            budget: Budget::unlimited(),
            par: ParConfig::default(),
        }
    }

    /// Overrides the node ordering (only [`Algo::Hg`] consumes it).
    pub fn with_ordering(mut self, ordering: OrderingKind) -> Self {
        self.ordering = ordering;
        self
    }

    /// Overrides the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the executor configuration.
    pub fn with_par(mut self, par: ParConfig) -> Self {
        self.par = par;
        self
    }

    /// Overrides the thread count, keeping the chunk granularity.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.par = self.par.with_threads(threads);
        self
    }

    /// Renders this request as a [`Json`] object — the wire form used by
    /// `dkc-serve`'s `solve` command and the serving-state metadata.
    /// Executor chunk granularity is a local tuning knob and is not part of
    /// the wire form (parsing restores the default chunk).
    pub fn to_json_value(self) -> Json {
        Json::Obj(vec![
            ("algo".into(), Json::str(self.algo.cli_name())),
            ("k".into(), Json::usize(self.k)),
            ("ordering".into(), Json::str(self.ordering.token())),
            ("threads".into(), Json::usize(self.par.threads)),
            ("budget".into(), self.budget.to_json_value()),
        ])
    }

    /// Parses a request rendered by [`SolveRequest::to_json_value`]. The
    /// `ordering` and `threads` members are optional and default to
    /// [`SolveRequest::new`]'s values; a missing `budget` defaults to
    /// [`Budget::default_for`] the algorithm.
    pub fn from_json_value(v: &Json) -> Result<Self, ParseReportError> {
        let algo: Algo = field(v, "algo")?
            .as_str()
            .ok_or_else(|| bad_field("algo"))?
            .parse()
            .map_err(|e: ParseAlgoError| parse_err(e.to_string()))?;
        let k = field(v, "k")?.as_usize().ok_or_else(|| bad_field("k"))?;
        let mut req = SolveRequest::new(algo, k);
        if let Some(ordering) = v.get("ordering") {
            req.ordering = ordering
                .as_str()
                .ok_or_else(|| bad_field("ordering"))?
                .parse()
                .map_err(|e: dkc_graph::ParseOrderingError| parse_err(e.to_string()))?;
        }
        if let Some(threads) = v.get("threads") {
            req.par = req.par.with_threads(threads.as_usize().ok_or_else(|| bad_field("threads"))?);
        }
        req.budget = match v.get("budget") {
            Some(budget) => Budget::from_json_value(budget)?,
            None => Budget::default_for(algo),
        };
        Ok(req)
    }
}

/// One named, timed phase of an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name (`"solve"` for single solves; `"k=5"`, …, `"matching"`,
    /// `"singletons"` for the partition loop; `"score_order"`, `"scores"`,
    /// `"order"`, `"dag"`, `"heap_init"`, `"drain"` for an L/LP run's
    /// [`SolveReport::lp_phases`]).
    pub name: String,
    /// Wall-clock duration of the phase.
    pub duration: Duration,
}

impl PhaseTiming {
    pub(crate) fn new(name: impl Into<String>, duration: Duration) -> Self {
        PhaseTiming { name: name.into(), duration }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            ("ns".into(), Json::u64(duration_to_ns(self.duration))),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ParseReportError> {
        Ok(PhaseTiming {
            name: field(v, "name")?.as_str().ok_or_else(|| bad_field("name"))?.to_string(),
            duration: Duration::from_nanos(
                field(v, "ns")?.as_u64().ok_or_else(|| bad_field("ns"))?,
            ),
        })
    }
}

/// Detail of an [`Algo::Opt`] run (mirrors [`crate::OptOutcome`] minus the
/// solution, which lives in the report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptDetail {
    /// Whether the exact search completed (the report only carries
    /// `optimal = true` runs — budget trips surface as
    /// [`SolveError::Timeout`]).
    pub optimal: bool,
    /// Search-tree nodes explored by the MIS solver.
    pub search_nodes: u64,
    /// Number of k-cliques in the materialised clique graph.
    pub clique_graph_cliques: usize,
    /// Number of conflict edges in the materialised clique graph.
    pub clique_graph_conflicts: usize,
}

/// The result of [`Engine::solve`]: the [`Solution`] plus provenance,
/// timings and per-algorithm detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveReport {
    /// Which algorithm produced the solution.
    pub algo: Algo,
    /// The clique size solved for.
    pub k: usize,
    /// The node ordering the request carried (consumed by [`Algo::Hg`];
    /// recorded for every algorithm so a report fully reproduces its
    /// request).
    pub ordering: OrderingKind,
    /// Worker-thread cap the run was configured with.
    pub threads: usize,
    /// The effective budget.
    pub budget: Budget,
    /// End-to-end wall-clock time inside the engine.
    pub elapsed: Duration,
    /// Per-phase wall-clock breakdown.
    pub phases: Vec<PhaseTiming>,
    /// The wall-clock split of an [`Algo::L`] / [`Algo::Lp`] solve (see
    /// [`LightweightSolver::solve_with_phases`]); empty for every other
    /// algorithm.
    pub lp_phases: Vec<PhaseTiming>,
    /// The maximal disjoint k-clique set.
    pub solution: Solution,
    /// Run instrumentation for [`Algo::L`] / [`Algo::Lp`].
    pub lp_stats: Option<LpRunStats>,
    /// Run detail for [`Algo::Opt`].
    pub opt: Option<OptDetail>,
    /// Counters of the anytime improvement phase (present exactly when the
    /// request's budget set `improve_steps > 0`).
    pub improve: Option<ImproveStats>,
}

/// Failure of [`SolveReport::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseReportError {
    message: String,
}

impl std::fmt::Display for ParseReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SolveReport JSON: {}", self.message)
    }
}

impl std::error::Error for ParseReportError {}

fn parse_err(message: impl Into<String>) -> ParseReportError {
    ParseReportError { message: message.into() }
}

fn bad_field(name: &str) -> ParseReportError {
    parse_err(format!("field {name:?} has the wrong type"))
}

fn field<'a>(v: &'a Json, name: &str) -> Result<&'a Json, ParseReportError> {
    v.get(name).ok_or_else(|| parse_err(format!("missing field {name:?}")))
}

fn duration_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn cliques_to_json<'a>(
    cliques: impl Iterator<Item = &'a [NodeId]>,
    label: impl Fn(NodeId) -> u64,
) -> Json {
    Json::Arr(
        cliques.map(|c| Json::Arr(c.iter().map(|&u| Json::u64(label(u))).collect())).collect(),
    )
}

impl SolveReport {
    /// Renders the report as one compact JSON document using the dense
    /// internal node ids. Round-trips through [`SolveReport::from_json`].
    pub fn to_json(&self) -> String {
        self.to_json_with(|u| u as u64)
    }

    /// [`SolveReport::to_json`] with cliques rendered through a node-label
    /// table (as produced by `dkc_graph::io::LoadedGraph`), so machine
    /// consumers see the input file's original ids.
    pub fn to_json_with_labels(&self, labels: &[u64]) -> String {
        self.to_json_with(|u| labels[u as usize])
    }

    /// The report as a [`Json`] value (dense internal node ids) — for
    /// embedding into larger documents (e.g. a `dkc-serve` reply) without
    /// re-parsing the rendered string.
    pub fn to_json_value(&self) -> Json {
        self.json_value_with(|u| u as u64)
    }

    fn to_json_with(&self, label: impl Fn(NodeId) -> u64) -> String {
        self.json_value_with(label).render()
    }

    fn json_value_with(&self, label: impl Fn(NodeId) -> u64) -> Json {
        let lp_stats = match &self.lp_stats {
            None => Json::Null,
            Some(s) => Json::Obj(vec![
                ("initial_entries".into(), Json::u64(s.initial_entries)),
                ("heap_pops".into(), Json::u64(s.heap_pops)),
                ("stale_pops".into(), Json::u64(s.stale_pops)),
                ("reprobes".into(), Json::u64(s.reprobes)),
                ("reprobe_hits".into(), Json::u64(s.reprobe_hits)),
                ("cliques_added".into(), Json::u64(s.cliques_added)),
                ("clique_edges".into(), Json::u64(s.clique_edges)),
            ]),
        };
        let opt = match &self.opt {
            None => Json::Null,
            Some(o) => Json::Obj(vec![
                ("optimal".into(), Json::Bool(o.optimal)),
                ("search_nodes".into(), Json::u64(o.search_nodes)),
                ("clique_graph_cliques".into(), Json::usize(o.clique_graph_cliques)),
                ("clique_graph_conflicts".into(), Json::usize(o.clique_graph_conflicts)),
            ]),
        };
        let mut members = vec![
            ("algo".into(), Json::str(self.algo.cli_name())),
            ("k".into(), Json::usize(self.k)),
            ("ordering".into(), Json::str(self.ordering.token())),
            ("threads".into(), Json::usize(self.threads)),
            ("budget".into(), self.budget.to_json_value()),
            ("elapsed_ns".into(), Json::u64(duration_to_ns(self.elapsed))),
            ("phases".into(), Json::Arr(self.phases.iter().map(|p| p.to_json()).collect())),
            ("size".into(), Json::usize(self.solution.len())),
            ("covered_nodes".into(), Json::usize(self.solution.covered_nodes())),
            ("cliques".into(), cliques_to_json(self.solution.iter_members(), label)),
            ("lp_stats".into(), lp_stats),
            ("opt".into(), opt),
        ];
        // Default-omitted (like the budget's improve members): older
        // parsers never see these, newer ones treat absence as empty/None.
        if !self.lp_phases.is_empty() {
            members.push((
                "lp_phases".into(),
                Json::Arr(self.lp_phases.iter().map(|p| p.to_json()).collect()),
            ));
        }
        if let Some(st) = &self.improve {
            members.push(("improve".into(), st.to_json_value()));
        }
        Json::Obj(members)
    }

    /// Parses a report rendered by [`SolveReport::to_json`]. Clique member
    /// ids must be dense node ids (a rendering made with
    /// [`SolveReport::to_json_with_labels`] is a display format and is not
    /// guaranteed to parse back).
    pub fn from_json(text: &str) -> Result<Self, ParseReportError> {
        let v = Json::parse(text).map_err(|e| parse_err(e.to_string()))?;
        let algo: Algo = field(&v, "algo")?
            .as_str()
            .ok_or_else(|| bad_field("algo"))?
            .parse()
            .map_err(|e: ParseAlgoError| parse_err(e.to_string()))?;
        let k = field(&v, "k")?.as_usize().ok_or_else(|| bad_field("k"))?;
        let mut solution = Solution::new(k);
        for c in field(&v, "cliques")?.as_arr().ok_or_else(|| bad_field("cliques"))? {
            let members = c.as_arr().ok_or_else(|| bad_field("cliques"))?;
            if members.len() != k {
                return Err(parse_err(format!(
                    "clique has {} members, expected k={k}",
                    members.len()
                )));
            }
            let mut nodes: Vec<NodeId> = Vec::with_capacity(k);
            for m in members {
                let id = m.as_u64().ok_or_else(|| bad_field("cliques"))?;
                nodes.push(
                    NodeId::try_from(id)
                        .map_err(|_| parse_err("clique member out of NodeId range"))?,
                );
            }
            solution.push(Clique::new(&nodes));
        }
        let lp_stats = match field(&v, "lp_stats")? {
            Json::Null => None,
            s => Some(LpRunStats {
                initial_entries: field(s, "initial_entries")?
                    .as_u64()
                    .ok_or_else(|| bad_field("initial_entries"))?,
                heap_pops: field(s, "heap_pops")?.as_u64().ok_or_else(|| bad_field("heap_pops"))?,
                stale_pops: field(s, "stale_pops")?
                    .as_u64()
                    .ok_or_else(|| bad_field("stale_pops"))?,
                reprobes: field(s, "reprobes")?.as_u64().ok_or_else(|| bad_field("reprobes"))?,
                reprobe_hits: field(s, "reprobe_hits")?
                    .as_u64()
                    .ok_or_else(|| bad_field("reprobe_hits"))?,
                cliques_added: field(s, "cliques_added")?
                    .as_u64()
                    .ok_or_else(|| bad_field("cliques_added"))?,
                // Reports written before the counter existed lack it.
                clique_edges: match s.get("clique_edges") {
                    None => 0,
                    Some(c) => c.as_u64().ok_or_else(|| bad_field("clique_edges"))?,
                },
            }),
        };
        let opt = match field(&v, "opt")? {
            Json::Null => None,
            o => Some(OptDetail {
                optimal: field(o, "optimal")?.as_bool().ok_or_else(|| bad_field("optimal"))?,
                search_nodes: field(o, "search_nodes")?
                    .as_u64()
                    .ok_or_else(|| bad_field("search_nodes"))?,
                clique_graph_cliques: field(o, "clique_graph_cliques")?
                    .as_usize()
                    .ok_or_else(|| bad_field("clique_graph_cliques"))?,
                clique_graph_conflicts: field(o, "clique_graph_conflicts")?
                    .as_usize()
                    .ok_or_else(|| bad_field("clique_graph_conflicts"))?,
            }),
        };
        let phases = phases_from_json(field(&v, "phases")?, "phases")?;
        let lp_phases = match v.get("lp_phases") {
            None => Vec::new(),
            Some(p) => phases_from_json(p, "lp_phases")?,
        };
        let improve = match v.get("improve") {
            None | Some(Json::Null) => None,
            Some(s) => Some(ImproveStats::from_json_value(s).map_err(parse_err)?),
        };
        let ordering: OrderingKind = field(&v, "ordering")?
            .as_str()
            .ok_or_else(|| bad_field("ordering"))?
            .parse()
            .map_err(|e: dkc_graph::ParseOrderingError| parse_err(e.to_string()))?;
        Ok(SolveReport {
            algo,
            k,
            ordering,
            threads: field(&v, "threads")?.as_usize().ok_or_else(|| bad_field("threads"))?,
            budget: Budget::from_json_value(field(&v, "budget")?)?,
            elapsed: Duration::from_nanos(
                field(&v, "elapsed_ns")?.as_u64().ok_or_else(|| bad_field("elapsed_ns"))?,
            ),
            phases,
            lp_phases,
            solution,
            lp_stats,
            opt,
            improve,
        })
    }
}

fn phases_from_json(v: &Json, name: &str) -> Result<Vec<PhaseTiming>, ParseReportError> {
    v.as_arr().ok_or_else(|| bad_field(name))?.iter().map(PhaseTiming::from_json).collect()
}

/// The result of [`Engine::partition_all`]: a complete node partition plus
/// the same provenance a [`SolveReport`] carries.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Which algorithm solved each clique phase.
    pub algo: Algo,
    /// The maximum group size.
    pub k: usize,
    /// The node ordering the request carried (consumed by [`Algo::Hg`]).
    pub ordering: OrderingKind,
    /// Worker-thread cap the run was configured with.
    pub threads: usize,
    /// The effective budget.
    pub budget: Budget,
    /// End-to-end wall-clock time inside the engine.
    pub elapsed: Duration,
    /// Per-phase breakdown: one entry per clique size (`"k=5"` …), then
    /// `"matching"` and `"singletons"`.
    pub phases: Vec<PhaseTiming>,
    /// The partition itself.
    pub partition: Partition,
}

impl PartitionReport {
    /// Renders the report as one compact JSON document using the dense
    /// internal node ids.
    pub fn to_json(&self) -> String {
        self.to_json_with(|u| u as u64)
    }

    /// [`PartitionReport::to_json`] with groups rendered through a
    /// node-label table.
    pub fn to_json_with_labels(&self, labels: &[u64]) -> String {
        self.to_json_with(|u| labels[u as usize])
    }

    fn to_json_with(&self, label: impl Fn(NodeId) -> u64) -> String {
        let groups = Json::Arr(
            self.partition
                .groups
                .iter()
                .map(|g| Json::Arr(g.iter().map(|&u| Json::u64(label(u))).collect()))
                .collect(),
        );
        let hist =
            Json::Arr(self.partition.size_histogram().into_iter().map(Json::usize).collect());
        Json::Obj(vec![
            ("algo".into(), Json::str(self.algo.cli_name())),
            ("k".into(), Json::usize(self.k)),
            ("ordering".into(), Json::str(self.ordering.token())),
            ("threads".into(), Json::usize(self.threads)),
            ("budget".into(), self.budget.to_json_value()),
            ("elapsed_ns".into(), Json::u64(duration_to_ns(self.elapsed))),
            ("phases".into(), Json::Arr(self.phases.iter().map(|p| p.to_json()).collect())),
            ("num_groups".into(), Json::usize(self.partition.num_groups())),
            ("size_histogram".into(), hist),
            ("groups".into(), groups),
        ])
        .render()
    }
}

/// The dispatcher: one typed entry point over every solver in the family.
///
/// See the crate-level engine docs above for the full picture.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

impl Engine {
    /// Computes a maximal disjoint k-clique set of `g` as described by
    /// `req` and reports it with provenance.
    ///
    /// Budget trips surface exactly like the underlying solvers':
    /// [`SolveError::CliqueBudget`] / [`SolveError::CliqueGraph`] for the
    /// deterministic OOM emulation, [`SolveError::Timeout`] (carrying the
    /// best partial solution) when the exact search runs out.
    pub fn solve(g: &CsrGraph, req: SolveRequest) -> Result<SolveReport, SolveError> {
        let start = Instant::now();
        let mut lp_phases = Vec::new();
        let (solution, lp_stats, opt) = match req.algo {
            Algo::Hg => (HgSolver { ordering: req.ordering }.solve(g, req.k)?, None, None),
            Algo::Gc => {
                let solver = GcSolver { max_cliques: req.budget.max_cliques, par: req.par };
                (solver.solve(g, req.k)?, None, None)
            }
            Algo::L | Algo::Lp => {
                let solver = LightweightSolver { prune: req.algo == Algo::Lp, par: req.par };
                let (s, stats, phases) = solver.solve_with_phases(g, req.k)?;
                lp_phases = phases;
                (s, Some(stats), None)
            }
            Algo::Opt => {
                let solver = OptSolver {
                    limits: req.budget.clique_graph_limits(),
                    mis_budget: req.budget.mis_budget(),
                    par: req.par,
                };
                let outcome = solver.solve_detailed(g, req.k)?;
                if !outcome.optimal {
                    // The paper's convention: report OOT, not a weaker
                    // answer presented as exact.
                    return Err(SolveError::Timeout { partial: outcome.solution });
                }
                let detail = OptDetail {
                    optimal: true,
                    search_nodes: outcome.search_nodes,
                    clique_graph_cliques: outcome.clique_graph_size.0,
                    clique_graph_conflicts: outcome.clique_graph_size.1,
                };
                (outcome.solution, None, Some(detail))
            }
            Algo::GreedyCg => {
                let solver = GreedyCliqueGraphSolver {
                    limits: req.budget.clique_graph_limits(),
                    par: req.par,
                };
                (solver.solve(g, req.k)?, None, None)
            }
        };
        let solve_elapsed = start.elapsed();
        let mut phases = vec![PhaseTiming::new("solve", solve_elapsed)];
        let mut solution = solution;
        let mut improve = None;
        if let Some(steps) = req.budget.improve_steps.filter(|&s| s > 0) {
            let phase_start = Instant::now();
            let dg = DynGraph::from_csr(g);
            let cfg =
                ImproveConfig { steps, seed: req.budget.improve_seed.unwrap_or(0), par: req.par };
            let out = dkc_improve::improve(&dg, req.k, solution.store(), &cfg);
            let mut improved = Solution::new(req.k);
            for c in out.cliques {
                improved.push(c);
            }
            solution = improved;
            improve = Some(out.stats);
            phases.push(PhaseTiming::new("improve", phase_start.elapsed()));
        }
        Ok(SolveReport {
            algo: req.algo,
            k: req.k,
            ordering: req.ordering,
            threads: req.par.threads,
            budget: req.budget,
            elapsed: start.elapsed(),
            phases,
            lp_phases,
            solution,
            lp_stats,
            opt,
            improve,
        })
    }

    /// Partitions *every* node of `g` into disjoint dense groups of size
    /// at most `req.k`: repeatedly solves the disjoint s-clique problem
    /// (s = k, k-1, …, 3) on the residual graph with `req.algo`, then
    /// greedily matches remaining nodes into edges, then emits singletons
    /// — the residual loop of [`crate::partition_all`], parameterised by
    /// the full request.
    pub fn partition_all(g: &CsrGraph, req: SolveRequest) -> Result<PartitionReport, SolveError> {
        crate::check_k(req.k)?;
        let start = Instant::now();
        let mut phases = Vec::new();
        let n = g.num_nodes();
        let mut covered = vec![false; n];
        let mut groups: Vec<Vec<NodeId>> = Vec::new();

        // One free-list buffer reused (clear + refill) across the residual
        // iterations instead of a fresh allocation per s.
        let mut free: Vec<NodeId> = Vec::with_capacity(n);
        for s in (3..=req.k).rev() {
            let phase_start = Instant::now();
            free.clear();
            free.extend((0..n as NodeId).filter(|&u| !covered[u as usize]));
            if free.len() < s {
                continue;
            }
            // While nothing is covered (the first phase that runs), the
            // residual is `g` itself and local ids are global ids.
            let sub = (free.len() < n).then(|| InducedSubgraph::of_csr(g, &free));
            let graph = sub.as_ref().map_or(g, InducedSubgraph::graph);
            let report = Engine::solve(graph, SolveRequest { k: s, ..req })?;
            for c in report.solution.iter_members() {
                let global: Vec<NodeId> =
                    c.iter().map(|&l| sub.as_ref().map_or(l, |sub| sub.to_global(l))).collect();
                for &u in &global {
                    debug_assert!(!covered[u as usize]);
                    covered[u as usize] = true;
                }
                groups.push(global);
            }
            phases.push(PhaseTiming::new(format!("k={s}"), phase_start.elapsed()));
        }

        // Greedy maximal matching on the residual graph (the s = 2 phase).
        let phase_start = Instant::now();
        for u in 0..n as NodeId {
            if covered[u as usize] {
                continue;
            }
            if let Some(&v) = g.neighbors(u).iter().find(|&&v| !covered[v as usize] && v != u) {
                covered[u as usize] = true;
                covered[v as usize] = true;
                groups.push(vec![u, v]);
            }
        }
        phases.push(PhaseTiming::new("matching", phase_start.elapsed()));

        // Singletons.
        let phase_start = Instant::now();
        for u in 0..n as NodeId {
            if !covered[u as usize] {
                groups.push(vec![u]);
            }
        }
        phases.push(PhaseTiming::new("singletons", phase_start.elapsed()));

        Ok(PartitionReport {
            algo: req.algo,
            k: req.k,
            ordering: req.ordering,
            threads: req.par.threads,
            budget: req.budget,
            elapsed: start.elapsed(),
            phases,
            partition: Partition { groups, k: req.k },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgraphs::{paper_fig2, planted_triangles};

    #[test]
    fn algo_tokens_roundtrip_and_accept_paper_names() {
        for algo in Algo::ALL {
            assert_eq!(algo.cli_name().parse::<Algo>().unwrap(), algo);
            assert_eq!(algo.to_string().parse::<Algo>().unwrap(), algo);
            assert_eq!(algo.paper_name().parse::<Algo>().unwrap(), algo);
            assert_eq!(algo.paper_name().to_ascii_lowercase().parse::<Algo>().unwrap(), algo);
        }
        let e = "nope".parse::<Algo>().unwrap_err();
        assert!(e.to_string().contains("greedy-cg"), "{e}");
    }

    #[test]
    fn engine_dispatches_every_algorithm_on_fig2() {
        let g = paper_fig2();
        for algo in Algo::ALL {
            let report = Engine::solve(&g, SolveRequest::new(algo, 3))
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
            report.solution.verify(&g).unwrap();
            report.solution.verify_maximal(&g).unwrap();
            assert_eq!(report.algo, algo);
            assert_eq!(report.k, 3);
            assert!(report.solution.len() >= 2, "{algo}");
            assert_eq!(report.phases.len(), 1);
            assert_eq!(report.phases[0].name, "solve");
            match algo {
                Algo::L | Algo::Lp => {
                    let st = report.lp_stats.expect("L/LP carry run stats");
                    assert_eq!(st.cliques_added, report.solution.len() as u64);
                    assert!(report.opt.is_none());
                }
                Algo::Opt => {
                    let o = report.opt.expect("OPT carries detail");
                    assert!(o.optimal);
                    assert_eq!((o.clique_graph_cliques, o.clique_graph_conflicts), (7, 11));
                    assert!(report.lp_stats.is_none());
                }
                _ => {
                    assert!(report.lp_stats.is_none());
                    assert!(report.opt.is_none());
                }
            }
        }
    }

    #[test]
    fn budget_slices_map_onto_solver_budgets() {
        let b = Budget::standard();
        assert_eq!(b.clique_graph_limits().max_cliques, Some(OptSolver::DEFAULT_MAX_CLIQUES));
        assert_eq!(b.clique_graph_limits().max_conflicts, Some(OptSolver::DEFAULT_MAX_CONFLICTS));
        assert_eq!(b.mis_budget().node_limit, Some(OptSolver::DEFAULT_MIS_NODE_LIMIT));
        assert_eq!(b.mis_budget().time_limit, None, "standard budget stays deterministic");
        let tight = Budget::unlimited().with_max_cliques(2);
        match Engine::solve(&paper_fig2(), SolveRequest::new(Algo::Gc, 3).with_budget(tight)) {
            Err(SolveError::CliqueBudget { limit: 2 }) => {}
            other => panic!("expected CliqueBudget, got {other:?}"),
        }
        match Engine::solve(&paper_fig2(), SolveRequest::new(Algo::Opt, 3).with_budget(tight)) {
            Err(SolveError::CliqueGraph(_)) => {}
            other => panic!("expected CliqueGraph OOM, got {other:?}"),
        }
    }

    #[test]
    fn opt_budget_trip_reports_timeout_with_partial() {
        let g = planted_triangles(12);
        let req =
            SolveRequest::new(Algo::Opt, 3).with_budget(Budget::unlimited().with_mis_node_limit(1));
        match Engine::solve(&g, req) {
            Err(SolveError::Timeout { partial }) => partial.verify(&g).unwrap(),
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn solve_report_json_roundtrips() {
        let g = paper_fig2();
        for algo in [Algo::Lp, Algo::Opt, Algo::Hg] {
            let report = Engine::solve(&g, SolveRequest::new(algo, 3)).unwrap();
            let json = report.to_json();
            let back = SolveReport::from_json(&json).unwrap();
            assert_eq!(back, report, "{algo}");
        }
        // Budget fields survive too.
        let req = SolveRequest::new(Algo::Opt, 3)
            .with_budget(Budget::standard().with_mis_time_limit(Duration::from_millis(1500)));
        let report = Engine::solve(&g, req).unwrap();
        let back = SolveReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.budget, report.budget);
        // A non-default HG ordering is real provenance: it must be carried
        // and parsed back, not collapsed onto the default.
        let req = SolveRequest::new(Algo::Hg, 3).with_ordering(dkc_graph::OrderingKind::Identity);
        let report = Engine::solve(&g, req).unwrap();
        assert!(report.to_json().contains("\"ordering\":\"identity\""));
        let back = SolveReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.ordering, dkc_graph::OrderingKind::Identity);
        assert_eq!(back, report);
    }

    #[test]
    fn lp_phases_are_reported_for_l_and_lp_only() {
        let g = paper_fig2();
        for algo in Algo::ALL {
            let report = Engine::solve(&g, SolveRequest::new(algo, 3)).unwrap();
            let json = report.to_json();
            let back = SolveReport::from_json(&json).unwrap();
            assert_eq!(back.lp_phases, report.lp_phases, "{algo}");
            // The single "solve" span is unchanged.
            assert_eq!(report.phases.len(), 1, "{algo}");
            if matches!(algo, Algo::L | Algo::Lp) {
                let names: Vec<&str> = report.lp_phases.iter().map(|p| p.name.as_str()).collect();
                assert_eq!(names, ["score_order", "scores", "order", "dag", "heap_init", "drain"]);
                assert!(json.contains("\"lp_phases\":[{\"name\":\"score_order\""), "{json}");
                // A report written before the field existed still parses.
                let legacy = Json::parse(&json).unwrap();
                let Json::Obj(members) = legacy else { panic!("report is an object") };
                let members = members.into_iter().filter(|(name, _)| name != "lp_phases").collect();
                let back = SolveReport::from_json(&Json::Obj(members).render()).unwrap();
                assert!(back.lp_phases.is_empty(), "{algo}");
            } else {
                assert!(report.lp_phases.is_empty(), "{algo}");
                assert!(!json.contains("lp_phases"), "{algo}: {json}");
            }
        }
    }

    #[test]
    fn solve_request_json_roundtrips() {
        let req = SolveRequest::new(Algo::Opt, 4)
            .with_ordering(dkc_graph::OrderingKind::Identity)
            .with_threads(3)
            .with_budget(Budget::standard().with_mis_time_limit(Duration::from_millis(250)));
        let v = req.to_json_value();
        let back = SolveRequest::from_json_value(&v).unwrap();
        assert_eq!(back.algo, req.algo);
        assert_eq!(back.k, req.k);
        assert_eq!(back.ordering, req.ordering);
        assert_eq!(back.par.threads, 3);
        assert_eq!(back.budget, req.budget);
        // Optional members default to SolveRequest::new's values.
        let minimal = Json::parse(r#"{"algo":"lp","k":3}"#).unwrap();
        let back = SolveRequest::from_json_value(&minimal).unwrap();
        assert_eq!(back.algo, Algo::Lp);
        assert_eq!(back.budget, Budget::unlimited());
        // Unknown algorithms fail cleanly.
        let bad = Json::parse(r#"{"algo":"zz","k":3}"#).unwrap();
        assert!(SolveRequest::from_json_value(&bad).is_err());
    }

    #[test]
    fn a_missing_budget_gets_the_per_algorithm_default() {
        // The wire form and the CLI share one default: OPT is budgeted so
        // a bare `{"algo":"opt"}` degrades to OOM/OOT instead of hanging.
        for algo in Algo::ALL {
            let v = Json::parse(&format!(r#"{{"algo":"{}","k":3}}"#, algo.cli_name())).unwrap();
            let req = SolveRequest::from_json_value(&v).unwrap();
            assert_eq!(req.budget, Budget::default_for(algo), "{algo}");
        }
        assert_eq!(Budget::default_for(Algo::Opt), Budget::standard());
        assert_eq!(Budget::default_for(Algo::Gc), Budget::unlimited());
        // An explicit budget still wins, even an unlimited one.
        let explicit = SolveRequest::new(Algo::Opt, 3).to_json_value();
        let req = SolveRequest::from_json_value(&explicit).unwrap();
        assert_eq!(req.budget, Budget::unlimited());
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        assert!(SolveReport::from_json("").is_err());
        assert!(SolveReport::from_json("{}").is_err());
        let g = paper_fig2();
        let report = Engine::solve(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let json = report.to_json();
        // Breaking the algo token must fail cleanly.
        let broken = json.replace("\"algo\":\"lp\"", "\"algo\":\"zz\"");
        let e = SolveReport::from_json(&broken).unwrap_err();
        assert!(e.to_string().contains("zz"), "{e}");
        // A clique of the wrong size must fail, not panic.
        let broken = json.replace("\"k\":3", "\"k\":4");
        assert!(SolveReport::from_json(&broken).is_err());
    }

    #[test]
    fn json_with_labels_renders_original_ids() {
        let g = paper_fig2();
        let labels: Vec<u64> = (0..9).map(|u| 100 + u as u64).collect();
        let report = Engine::solve(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let json = report.to_json_with_labels(&labels);
        assert!(json.contains("100") || json.contains("108"), "{json}");
    }

    #[test]
    fn partition_report_covers_everything_and_renders() {
        let g = paper_fig2();
        let report = Engine::partition_all(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        assert_eq!(report.partition.num_groups(), 3);
        assert!(report.phases.iter().any(|p| p.name == "k=3"));
        assert!(report.phases.iter().any(|p| p.name == "matching"));
        let json = report.to_json();
        assert!(json.contains("\"num_groups\":3"), "{json}");
        assert!(json.contains("\"size_histogram\""), "{json}");
    }

    #[test]
    fn partition_respects_the_requested_algorithm() {
        let g = paper_fig2();
        for algo in [Algo::Hg, Algo::Gc, Algo::Lp] {
            let report = Engine::partition_all(&g, SolveRequest::new(algo, 4)).unwrap();
            assert_eq!(report.algo, algo);
            let covered: usize = report.partition.groups.iter().map(|g| g.len()).sum();
            assert_eq!(covered, 9, "{algo} must cover every node");
        }
    }

    #[test]
    fn budget_json_back_compat_with_pre_improve_renderings() {
        // A pre-PR-9 budget document carries exactly the four construction
        // members; it must parse with the improvement members unset.
        let old = Json::parse(
            r#"{"max_cliques":1000,"max_conflicts":null,"mis_node_limit":null,"mis_time_limit_ns":null}"#,
        )
        .unwrap();
        let b = Budget::from_json_value(&old).unwrap();
        assert_eq!(b.max_cliques, Some(1000));
        assert_eq!(b.improve_steps, None);
        assert_eq!(b.improve_seed, None);
        // A default budget renders without the new members, so pre-PR-9
        // strict parsers (and diff-based tooling) see the old wire form.
        let rendered = Budget::unlimited().to_json_value().render();
        assert!(!rendered.contains("improve"), "{rendered}");
        // Unknown members are skipped — future additions stay parseable.
        let future = Json::parse(
            r#"{"max_cliques":null,"max_conflicts":null,"mis_node_limit":null,"mis_time_limit_ns":null,"improve_steps":64,"some_future_member":7}"#,
        )
        .unwrap();
        let b = Budget::from_json_value(&future).unwrap();
        assert_eq!(b.improve_steps, Some(64));
        // Round-trip with the members set.
        let b = Budget::standard().with_improve_steps(128).with_improve_seed(9);
        let back = Budget::from_json_value(&b.to_json_value()).unwrap();
        assert_eq!(back, b);
        // Pre-PR-9 report lines (no "improve" member) still parse.
        let g = paper_fig2();
        let report = Engine::solve(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        assert!(!report.to_json().contains("\"improve\""));
        let back = SolveReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.improve, None);
    }

    #[test]
    fn engine_runs_improvement_as_a_timed_phase() {
        let g = paper_fig2();
        // HG on fig2 leaves room; a generous improve budget must close it.
        let budget = Budget::unlimited().with_improve_steps(256).with_improve_seed(1);
        let req = SolveRequest::new(Algo::Hg, 3).with_budget(budget);
        let base = Engine::solve(&g, SolveRequest::new(Algo::Hg, 3)).unwrap();
        let report = Engine::solve(&g, req).unwrap();
        report.solution.verify(&g).unwrap();
        report.solution.verify_maximal(&g).unwrap();
        assert!(report.solution.len() >= base.solution.len());
        let st = report.improve.expect("improve stats present");
        assert_eq!(st.uplift, (report.solution.len() - base.solution.len()) as u64);
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[1].name, "improve");
        // Stats and the improved solution survive the JSON round-trip.
        let back = SolveReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.improve, Some(st));
        // Deterministic: same request ⇒ same report modulo timings.
        let again = Engine::solve(&g, req).unwrap();
        assert_eq!(again.solution, report.solution);
        assert_eq!(again.improve, report.improve);
    }

    #[test]
    fn engine_rejects_invalid_k() {
        let g = paper_fig2();
        for algo in Algo::ALL {
            assert!(matches!(
                Engine::solve(&g, SolveRequest::new(algo, 2)),
                Err(SolveError::InvalidK { k: 2 })
            ));
        }
        assert!(matches!(
            Engine::partition_all(&g, SolveRequest::new(Algo::Lp, 2)),
            Err(SolveError::InvalidK { k: 2 })
        ));
    }
}
