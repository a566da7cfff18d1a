//! The single-writer serving wrapper: epochs, view publication, and the
//! durable snapshot + update-log state.
//!
//! [`ServingSolver`] owns a [`DynamicSolver`] and layers the serving
//! contract on top:
//!
//! * every applied batch bumps the **epoch** and publishes a fresh
//!   [`SolutionView`] through a [`SharedView`] handle, so any number of
//!   reader threads query consistent snapshots while the writer mutates;
//! * with a state directory attached, every batch is journaled to an
//!   append-only [`UpdateLog`] **before** it is applied, and
//!   [`ServingSolver::compact`] persists a `.dkcsr` graph snapshot plus a
//!   JSON metadata document and truncates the log — so **restart = load
//!   snapshot + replay the log tail**, reproducing the exact epoch, `|S|`
//!   and membership of the killed process.
//!
//! Publication costs O(Δ) page copies for a batch that adds or removes Δ
//! groups, not O(|S| + N) work: the solver keeps the view's canonical
//! group pages current as the batch runs (the leader-order invariant of
//! the `view` module: canonical order is the order of each group's
//! smallest member), so publishing an epoch clones a table of `Arc`
//! pages (one pointer per 1024 nodes), and the next batch copies only
//! the pages it writes. A view a reader still holds pins just the pages
//! written since its publication. [`ServingSolver::compact`] and
//! [`ServingSolver::export_state`] render `S` in canonical order straight
//! off the pages (no sort) and leave the solver untouched.
//!
//! State directory layout (files are **generation-named**; `meta.json`
//! names the live generation and its atomic rename is the commit point):
//!
//! ```text
//! <dir>/base.<gen>.dkcsr     graph at compaction <gen> (versioned, checksummed)
//! <dir>/meta.json            generation, epoch, request provenance, counters, S itself
//! <dir>/updates.<gen>.log    committed batches since compaction <gen>
//! ```
//!
//! Compaction never touches the live generation's files: it writes
//! `base.<gen+1>.dkcsr`, atomically renames the new `meta.json` over the
//! old one, starts a fresh `updates.<gen+1>.log`, and only then garbage-
//! collects the previous generation. A crash at any point leaves either
//! the complete old generation (meta not yet flipped — the orphan new
//! base is GC'd later) or the complete new one (empty/missing new log
//! replays as zero batches); the already-snapshotted batches can never be
//! replayed on top of the snapshot that contains them. On restore, the
//! journal is rewritten to exactly its committed records, so a torn tail
//! left by a kill mid-append cannot corrupt later appends.
//!
//! Why restart is bit-identical: a [`DynamicSolver`]'s behaviour depends
//! on its graph and `S` alone. Cliques are keyed by their leaders (smallest
//! members), and every swap decision sorts candidates or compares them as
//! sets, so no insertion order or id history leaks into later updates. A
//! restore rebuilds the solver from the snapshot's graph and `S`, which is
//! the live process's state at that epoch, and then both apply identical
//! record sequences; the deterministic update and improvement algorithms do
//! the rest. Replicas bootstrapped by [`ServingSolver::import_state`] rely
//! on the same property.
//!
//! Cold start: [`ServingSolver::create`] is one engine solve, one
//! (parallel) candidate-index build and one base-snapshot write straight
//! from the input graph; [`ServingSolver::restore`] is one snapshot
//! decode, one index build and the journal replay. `meta.json` is
//! checked against the base graph before any solver is built, so a
//! damaged state directory is an error, never a panic or a wrong index.

use crate::log::{FsyncPolicy, LogError, LogRecord, UpdateLog};
use crate::solver::{BatchOutcome, DynamicSolver, EdgeUpdate, UpdateStats};
use crate::view::{SharedView, SolutionView};
use dkc_clique::{Clique, MAX_K};
use dkc_core::{Solution, SolveError, SolveRequest, MIN_K};
use dkc_graph::io::{read_snapshot_path, write_csr_snapshot_path};
use dkc_graph::{CsrGraph, GraphError, NodeId};
use dkc_improve::ImproveStats;
use dkc_json::Json;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const META_VERSION: u64 = 1;
const META_FILE: &str = "meta.json";

fn base_file(gen: u64) -> String {
    format!("base.{gen}.dkcsr")
}

fn log_file(gen: u64) -> String {
    format!("updates.{gen}.log")
}

/// Failures of the serving state machinery.
#[derive(Debug)]
pub enum ServeStateError {
    /// Filesystem failure outside the structured formats.
    Io(std::io::Error),
    /// The graph snapshot failed to read or write.
    Graph(GraphError),
    /// The bootstrap solve failed.
    Solve(SolveError),
    /// The update journal failed.
    Log(LogError),
    /// `meta.json` was missing a field or malformed.
    Meta(String),
}

impl std::fmt::Display for ServeStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeStateError::Io(e) => write!(f, "serving state I/O error: {e}"),
            ServeStateError::Graph(e) => write!(f, "serving state snapshot error: {e}"),
            ServeStateError::Solve(e) => write!(f, "serving bootstrap solve failed: {e}"),
            ServeStateError::Log(e) => write!(f, "{e}"),
            ServeStateError::Meta(m) => write!(f, "serving state meta.json invalid: {m}"),
        }
    }
}

impl std::error::Error for ServeStateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeStateError::Io(e) => Some(e),
            ServeStateError::Graph(e) => Some(e),
            ServeStateError::Solve(e) => Some(e),
            ServeStateError::Log(e) => Some(e),
            ServeStateError::Meta(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeStateError {
    fn from(e: std::io::Error) -> Self {
        ServeStateError::Io(e)
    }
}

impl From<GraphError> for ServeStateError {
    fn from(e: GraphError) -> Self {
        ServeStateError::Graph(e)
    }
}

impl From<SolveError> for ServeStateError {
    fn from(e: SolveError) -> Self {
        ServeStateError::Solve(e)
    }
}

impl From<LogError> for ServeStateError {
    fn from(e: LogError) -> Self {
        ServeStateError::Log(e)
    }
}

#[derive(Debug)]
struct Store {
    dir: PathBuf,
    gen: u64,
    log: UpdateLog,
}

/// The writer-side serving wrapper around a [`DynamicSolver`]. See the
/// module docs for the state model.
#[derive(Debug)]
pub struct ServingSolver {
    solver: DynamicSolver,
    epoch: u64,
    shared: SharedView,
    store: Option<Store>,
    fsync: FsyncPolicy,
}

impl ServingSolver {
    /// An in-memory serving state (no durability): bootstraps `S` with
    /// `request` and publishes the epoch-0 view.
    pub fn in_memory(g: &CsrGraph, request: SolveRequest) -> Result<Self, SolveError> {
        Ok(Self::wrap(DynamicSolver::from_scratch(g, request)?, 0, None))
    }

    /// Wraps an existing solver (in-memory, no durability) at epoch 0.
    pub fn from_solver(solver: DynamicSolver) -> Self {
        Self::wrap(solver, 0, None)
    }

    /// Creates a fresh durable serving state in `dir` (any previous state
    /// files are removed): bootstraps `S`, persists the generation-0
    /// snapshot, opens an empty journal.
    pub fn create(
        dir: impl Into<PathBuf>,
        g: &CsrGraph,
        request: SolveRequest,
    ) -> Result<Self, ServeStateError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Stale generations from a previous state would replay against or
        // shadow the new base: start from a clean slate.
        remove_state_files(&dir, None);
        std::fs::remove_file(dir.join(META_FILE)).ok();
        let solver = DynamicSolver::from_scratch(g, request)?;
        write_state(&dir, &solver, g, 0, 0)?;
        let log = UpdateLog::open(dir.join(log_file(0)))?;
        Ok(Self::wrap(solver, 0, Some(Store { dir, gen: 0, log })))
    }

    /// Restores a durable serving state from `dir`: loads `base.dkcsr` and
    /// `meta.json`, replays the committed journal tail, and comes back at
    /// the exact epoch / `|S|` / membership of the process that wrote it.
    pub fn restore(dir: impl Into<PathBuf>) -> Result<Self, ServeStateError> {
        let dir = dir.into();
        let meta_text = std::fs::read_to_string(dir.join(META_FILE))?;
        let meta = Json::parse(&meta_text).map_err(|e| ServeStateError::Meta(e.to_string()))?;
        let version = meta
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServeStateError::Meta("missing version".into()))?;
        if version != META_VERSION {
            return Err(ServeStateError::Meta(format!("unsupported version {version}")));
        }
        let gen = meta
            .get("gen")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServeStateError::Meta("missing gen".into()))?;
        let base_epoch = meta
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServeStateError::Meta("missing epoch".into()))?;
        let request = request_from_json(&meta)?;
        let stats = stats_from_json(
            meta.get("stats").ok_or_else(|| ServeStateError::Meta("missing stats".into()))?,
        )
        .map_err(ServeStateError::Meta)?;
        let loaded = read_snapshot_path(dir.join(base_file(gen)))?;
        let solution = solution_from_json(&meta, request.k, &loaded.graph)?;
        let mut solver =
            DynamicSolver::from_solution_with_request(&loaded.graph, solution, request);
        solver.set_stats(stats);
        let log_path = dir.join(log_file(gen));
        let records = UpdateLog::replay(&log_path)?;
        let mut epoch = base_epoch;
        for record in &records {
            match record {
                LogRecord::Batch(batch) => {
                    solver.apply_batch(batch.iter().copied());
                }
                // An improve record is journaled only when the live run
                // applied at least one move; determinism over the identical
                // state makes this replay apply the same moves.
                LogRecord::Improve { steps, seed } => {
                    solver.improve(*steps, *seed);
                }
            }
            epoch += 1;
        }
        // Rewrite the journal to exactly its committed records: a torn
        // tail left by a kill mid-append must not sit in front of future
        // appends (replay would reject the resulting interleaving).
        let log = UpdateLog::rewrite(&log_path, &records)?;
        Ok(Self::wrap(solver, epoch, Some(Store { dir, gen, log })))
    }

    /// Restores from `dir` when a serving state exists there, otherwise
    /// bootstraps a fresh one from `bootstrap()`. Returns the state plus
    /// `true` when it was restored.
    pub fn open(
        dir: impl Into<PathBuf>,
        request: SolveRequest,
        bootstrap: impl FnOnce() -> Result<CsrGraph, ServeStateError>,
    ) -> Result<(Self, bool), ServeStateError> {
        let dir = dir.into();
        if dir.join(META_FILE).is_file() {
            Ok((Self::restore(dir)?, true))
        } else {
            Ok((Self::create(dir, &bootstrap()?, request)?, false))
        }
    }

    fn wrap(solver: DynamicSolver, epoch: u64, store: Option<Store>) -> Self {
        let shared = SharedView::new(solver.solution_view(epoch));
        ServingSolver { solver, epoch, shared, store, fsync: FsyncPolicy::default() }
    }

    /// The journal durability policy (meaningful for durable states).
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// Sets when journal appends are forced to stable storage. Applies to
    /// the live journal and to every journal a later compaction opens.
    pub fn set_fsync_policy(&mut self, policy: FsyncPolicy) {
        self.fsync = policy;
        if let Some(store) = &mut self.store {
            store.log.set_policy(policy);
        }
    }

    /// The current epoch: number of batches and applied improvement
    /// slices since creation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The latest published view.
    pub fn view(&self) -> Arc<SolutionView> {
        self.shared.current()
    }

    /// A cloneable reader handle — hand one to each reader thread.
    pub fn reader(&self) -> SharedView {
        self.shared.clone()
    }

    /// The wrapped solver (read access; mutation goes through
    /// [`ServingSolver::apply_batch`] so epochs and the journal stay
    /// consistent).
    pub fn solver(&self) -> &DynamicSolver {
        &self.solver
    }

    /// The state directory, when durable.
    pub fn state_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.dir.as_path())
    }

    /// Applies one batch: journals it (durable states), applies it, bumps
    /// the epoch and publishes the new view.
    pub fn apply_batch(
        &mut self,
        updates: &[EdgeUpdate],
    ) -> Result<(BatchOutcome, Arc<SolutionView>), ServeStateError> {
        let (mut outcomes, view) = self.apply_grouped(&[updates])?;
        Ok((outcomes.pop().expect("one group in, one outcome out"), view))
    }

    /// Applies several client batches as **one** epoch (one round of the
    /// server's writer, which merges the requests already queued): one
    /// journal record, one application pass in group order, one view
    /// publication — but per-group outcomes, so every client still gets
    /// its own applied/skipped accounting.
    pub fn apply_grouped(
        &mut self,
        groups: &[&[EdgeUpdate]],
    ) -> Result<(Vec<BatchOutcome>, Arc<SolutionView>), ServeStateError> {
        if let Some(store) = &mut self.store {
            // Write-ahead: the journal record precedes application, so a
            // crash between the two replays the batch on restart instead
            // of losing an acknowledged update.
            store.log.append_batch(groups.iter().flat_map(|g| g.iter()))?;
        }
        let mut outcomes = Vec::with_capacity(groups.len());
        for g in groups {
            outcomes.push(self.solver.apply_batch(g.iter().copied()));
        }
        self.epoch += 1;
        let view = self.publish();
        Ok((outcomes, view))
    }

    /// Runs one bounded improvement slice: proposes up to `steps` local-
    /// search moves ([`dkc_improve::improve`]) against the current state.
    ///
    /// When no move applies the state is already converged for this
    /// (steps, seed): the current view is returned unchanged — no journal
    /// record, no epoch bump — so an idle server polling improvement does
    /// not grow the journal or the epoch counter. When at least one move
    /// applies, the `(steps, seed)` pair is journaled **before** the
    /// improved solution is installed (write-ahead, like batches), the
    /// epoch bumps and the new view is published. Replaying the record on
    /// restore re-runs the same deterministic slice against the same
    /// state and lands on the identical view.
    pub fn improve(
        &mut self,
        steps: u64,
        seed: u64,
    ) -> Result<(ImproveStats, Arc<SolutionView>), ServeStateError> {
        let out = self.solver.propose_improvement(steps, seed);
        if out.stats.moves_applied == 0 {
            return Ok((out.stats, self.view()));
        }
        if let Some(store) = &mut self.store {
            store.log.append_improve(steps, seed)?;
        }
        self.solver.install_improvement(&out.cliques);
        self.epoch += 1;
        let view = self.publish();
        Ok((out.stats, view))
    }

    fn publish(&mut self) -> Arc<SolutionView> {
        let view = Arc::new(self.solver.solution_view(self.epoch));
        self.shared.publish(Arc::clone(&view));
        view
    }

    /// Persists the current state as a new generation and starts a fresh
    /// journal. The live solver is left as it is: it already continues
    /// exactly as a restore from the new generation would. Returns the new
    /// snapshot path (`None` for in-memory states, which only republish
    /// the current view).
    ///
    /// Crash-safe at every step: the new generation's files are written
    /// under new names, the atomic `meta.json` rename is the commit
    /// point, and the old generation is only garbage-collected after the
    /// new journal exists (a missing new journal replays as empty).
    pub fn compact(&mut self) -> Result<Option<PathBuf>, ServeStateError> {
        let epoch = self.epoch;
        let path = match &mut self.store {
            Some(store) => {
                let next = store.gen + 1;
                let base = self.solver.graph().to_csr();
                write_state(&store.dir, &self.solver, &base, epoch, next)?;
                let new_log_path = store.dir.join(log_file(next));
                std::fs::remove_file(&new_log_path).ok(); // stale orphan from a crashed compact
                store.log = UpdateLog::open(&new_log_path)?;
                store.log.set_policy(self.fsync);
                let old = store.gen;
                store.gen = next;
                remove_state_files(&store.dir, Some(old));
                Some(store.dir.join(base_file(next)))
            }
            None => None,
        };
        self.publish();
        Ok(path)
    }

    /// Forces journal contents to stable storage.
    pub fn sync(&mut self) -> Result<(), ServeStateError> {
        if let Some(store) = &mut self.store {
            store.log.sync()?;
        }
        Ok(())
    }

    /// Serialises the full serving state — graph edges, request, `S`,
    /// counters, epoch — as one JSON document: the replica bootstrap
    /// payload (the serve protocol's `fetch` reply).
    pub fn export_state(&self) -> Json {
        let csr = self.solver.graph().to_csr();
        let edges = Json::Arr(
            csr.iter_edges()
                .map(|(u, v)| Json::Arr(vec![Json::u64(u as u64), Json::u64(v as u64)]))
                .collect(),
        );
        let cliques = cliques_to_json(&self.solver);
        Json::Obj(vec![
            ("version".into(), Json::u64(META_VERSION)),
            ("epoch".into(), Json::u64(self.epoch)),
            ("num_nodes".into(), Json::u64(csr.num_nodes() as u64)),
            ("request".into(), self.solver.request().to_json_value()),
            ("stats".into(), stats_to_json(self.solver.stats())),
            ("edges".into(), edges),
            ("cliques".into(), cliques),
        ])
    }

    /// Rebuilds an in-memory serving state from an [`export_state`]
    /// document. The importer resumes at the exported epoch with the
    /// exporter's graph and `S`, so applying the same committed records
    /// afterwards yields bit-identical views — the replica catch-up
    /// contract (see the module docs).
    ///
    /// [`export_state`]: ServingSolver::export_state
    pub fn import_state(doc: &Json) -> Result<Self, ServeStateError> {
        let field = |name: &str| -> Result<u64, ServeStateError> {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ServeStateError::Meta(format!("missing {name}")))
        };
        let version = field("version")?;
        if version != META_VERSION {
            return Err(ServeStateError::Meta(format!("unsupported version {version}")));
        }
        let epoch = field("epoch")?;
        // Every node id must fit a `NodeId` below its `NodeId::MAX`
        // sentinel; a count inside that space is allocated as declared.
        let num_nodes = field("num_nodes")?;
        if num_nodes > u64::from(NodeId::MAX) {
            return Err(ServeStateError::Meta(format!(
                "num_nodes {num_nodes} exceeds the node id space ({})",
                NodeId::MAX
            )));
        }
        let num_nodes = num_nodes as usize;
        let request = request_from_json(doc)?;
        let stats = stats_from_json(
            doc.get("stats").ok_or_else(|| ServeStateError::Meta("missing stats".into()))?,
        )
        .map_err(ServeStateError::Meta)?;
        let edges_json = doc
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeStateError::Meta("missing edges".into()))?;
        let mut edges = Vec::with_capacity(edges_json.len());
        for e in edges_json {
            let pair = e.as_arr().filter(|p| p.len() == 2);
            let (u, v) = pair
                .and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?)))
                .ok_or_else(|| ServeStateError::Meta("bad edge".into()))?;
            let u = NodeId::try_from(u).map_err(|_| ServeStateError::Meta("bad edge".into()))?;
            let v = NodeId::try_from(v).map_err(|_| ServeStateError::Meta("bad edge".into()))?;
            edges.push((u, v));
        }
        let graph = CsrGraph::from_edges(num_nodes, edges)?;
        let solution = solution_from_json(doc, request.k, &graph)?;
        let mut solver = DynamicSolver::from_solution_with_request(&graph, solution, request);
        solver.set_stats(stats);
        Ok(Self::wrap(solver, epoch, None))
    }
}

/// Parses the `request` member of a state document (`meta.json` or an
/// [`ServingSolver::export_state`] reply) and checks its `k` is one the
/// solvers accept, `MIN_K..=MAX_K`.
fn request_from_json(doc: &Json) -> Result<SolveRequest, ServeStateError> {
    let request = SolveRequest::from_json_value(
        doc.get("request").ok_or_else(|| ServeStateError::Meta("missing request".into()))?,
    )
    .map_err(|e| ServeStateError::Meta(e.to_string()))?;
    if !(MIN_K..=MAX_K).contains(&request.k) {
        return Err(ServeStateError::Meta(format!(
            "request k = {} is outside the supported range {MIN_K}..={MAX_K}",
            request.k
        )));
    }
    Ok(request)
}

/// Parses the `cliques` member rendered by [`write_state`] and
/// [`ServingSolver::export_state`] back into a [`Solution`], and checks it
/// is a valid, maximal disjoint k-clique set of `g`. Damaged input is a
/// [`ServeStateError::Meta`], never a panic: every check the solver's
/// constructors would assert runs here first.
fn solution_from_json(doc: &Json, k: usize, g: &CsrGraph) -> Result<Solution, ServeStateError> {
    let bad = |m: String| ServeStateError::Meta(format!("cliques: {m}"));
    let cliques = doc
        .get("cliques")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeStateError::Meta("missing cliques".into()))?;
    let mut solution = Solution::new(k);
    let mut nodes: Vec<NodeId> = Vec::with_capacity(k);
    for (i, c) in cliques.iter().enumerate() {
        let members = c.as_arr().ok_or_else(|| ServeStateError::Meta("bad clique".into()))?;
        if members.len() != k {
            return Err(bad(format!("clique #{i} has {} members, expected {k}", members.len())));
        }
        nodes.clear();
        for m in members {
            let id = m
                .as_u64()
                .and_then(|v| NodeId::try_from(v).ok())
                .ok_or_else(|| ServeStateError::Meta("bad clique member".into()))?;
            if id as usize >= g.num_nodes() {
                return Err(bad(format!(
                    "clique #{i} member {id} is beyond the base graph's {} nodes",
                    g.num_nodes()
                )));
            }
            nodes.push(id);
        }
        nodes.sort_unstable();
        if let Some(w) = nodes.windows(2).find(|w| w[0] == w[1]) {
            return Err(bad(format!("clique #{i} lists member {} twice", w[0])));
        }
        solution.push(Clique::from_sorted(&nodes));
    }
    solution.verify(g).map_err(|e| bad(e.to_string()))?;
    solution.verify_maximal(g).map_err(|e| bad(e.to_string()))?;
    Ok(solution)
}

/// Writes generation `gen`: the base snapshot of `base` (the solver's
/// graph) and the `meta.json` that commits it.
fn write_state(
    dir: &Path,
    solver: &DynamicSolver,
    base: &CsrGraph,
    epoch: u64,
    gen: u64,
) -> Result<(), ServeStateError> {
    // The base goes to a generation-fresh name, never over the live
    // snapshot: until meta.json flips, a crash leaves the previous
    // generation fully intact (the new base is an orphan, GC'd later).
    write_csr_snapshot_path(base, dir.join(base_file(gen)))?;
    let cliques = cliques_to_json(solver);
    let meta = Json::Obj(vec![
        ("version".into(), Json::u64(META_VERSION)),
        ("gen".into(), Json::u64(gen)),
        ("epoch".into(), Json::u64(epoch)),
        ("request".into(), solver.request().to_json_value()),
        ("stats".into(), stats_to_json(solver.stats())),
        ("cliques".into(), cliques),
    ]);
    // Write-then-rename: the atomic rename is the generation commit point.
    let tmp = dir.join(format!("{META_FILE}.tmp"));
    std::fs::write(&tmp, meta.render())?;
    std::fs::rename(&tmp, dir.join(META_FILE))?;
    Ok(())
}

/// Renders `S` in canonical order, read off the solver's maintained
/// group pages (no sort).
fn cliques_to_json(solver: &DynamicSolver) -> Json {
    Json::Arr(
        solver
            .solution()
            .iter_members()
            .map(|c| Json::Arr(c.iter().map(|&u| Json::u64(u as u64)).collect()))
            .collect(),
    )
}

/// Best-effort removal of generation-named state files: the given
/// generation when `Some`, every generation when `None`. Failures are
/// ignored — orphans are re-collected by the next compaction.
fn remove_state_files(dir: &Path, only_gen: Option<u64>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let gen_of = |prefix: &str, suffix: &str| -> Option<u64> {
            name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
        };
        let gen = gen_of("base.", ".dkcsr").or_else(|| gen_of("updates.", ".log"));
        if let Some(gen) = gen {
            if only_gen.is_none_or(|g| g == gen) {
                std::fs::remove_file(entry.path()).ok();
            }
        }
    }
}

/// Renders lifetime update counters as a JSON object (shared by the state
/// metadata and the `dkc-serve` `stats` reply).
pub fn stats_to_json(stats: &UpdateStats) -> Json {
    Json::Obj(vec![
        ("insertions".into(), Json::u64(stats.insertions)),
        ("deletions".into(), Json::u64(stats.deletions)),
        ("swaps_attempted".into(), Json::u64(stats.swaps_attempted)),
        ("swaps_applied".into(), Json::u64(stats.swaps_applied)),
        ("cliques_added".into(), Json::u64(stats.cliques_added)),
        ("cliques_removed".into(), Json::u64(stats.cliques_removed)),
    ])
}

/// Parses counters rendered by [`stats_to_json`].
pub fn stats_from_json(v: &Json) -> Result<UpdateStats, String> {
    let get = |name: &str| -> Result<u64, String> {
        v.get(name).and_then(Json::as_u64).ok_or_else(|| format!("missing stats field {name:?}"))
    };
    Ok(UpdateStats {
        insertions: get("insertions")?,
        deletions: get("deletions")?,
        swaps_attempted: get("swaps_attempted")?,
        swaps_applied: get("swaps_applied")?,
        cliques_added: get("cliques_added")?,
        cliques_removed: get("cliques_removed")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_core::Algo;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dkc_serve_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Two triangles bridged — the doc-test graph of the crate.
    fn demo_graph() -> CsrGraph {
        CsrGraph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap()
    }

    /// Simulates a compaction killed before the meta flip: only the new
    /// generation's base snapshot reaches disk.
    fn write_state_base_only(dir: &Path, solver: &DynamicSolver, gen: u64) {
        write_csr_snapshot_path(&solver.graph().to_csr(), dir.join(base_file(gen))).unwrap();
    }

    #[test]
    fn epochs_advance_and_views_stay_consistent() {
        let g = demo_graph();
        let mut s = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let reader = s.reader();
        let v0 = reader.current();
        assert_eq!(v0.epoch(), 0);
        assert_eq!(v0.len(), 2);
        let (out, v1) =
            s.apply_batch(&[EdgeUpdate::Delete(0, 1), EdgeUpdate::Delete(0, 1)]).unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(out.skipped, 1);
        assert_eq!(v1.epoch(), 1);
        assert_eq!(v1.len(), 1);
        // The old Arc still answers from epoch 0.
        assert_eq!(v0.len(), 2);
        assert_eq!(reader.current().epoch(), 1);
        assert_eq!(reader.current().group_of(0), None);
        s.solver().validate().unwrap();
    }

    #[test]
    fn grouped_application_is_one_epoch_with_per_group_outcomes() {
        let g = demo_graph();
        let mut s = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let g1 = [EdgeUpdate::Delete(0, 1)];
        let g2 = [EdgeUpdate::Delete(0, 1), EdgeUpdate::Insert(0, 1)];
        let (outs, view) = s.apply_grouped(&[&g1, &g2]).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!((outs[0].applied, outs[0].skipped), (1, 0));
        assert_eq!((outs[1].applied, outs[1].skipped), (1, 1), "delete skipped, insert applied");
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.len(), 2);
    }

    #[test]
    fn create_restore_roundtrips_without_updates() {
        let dir = temp_dir("fresh");
        let g = demo_graph();
        let created = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let restored = ServingSolver::restore(&dir).unwrap();
        assert_eq!(*created.view(), *restored.view());
        assert_eq!(restored.epoch(), 0);
        assert_eq!(restored.solver().request().algo, Algo::Lp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_replays_the_log_tail_to_an_identical_view() {
        let dir = temp_dir("replay");
        let g = demo_graph();
        let mut live = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        live.apply_batch(&[EdgeUpdate::Delete(0, 1)]).unwrap();
        live.apply_batch(&[EdgeUpdate::Insert(0, 1), EdgeUpdate::Insert(1, 3)]).unwrap();
        let live_view = live.view();
        drop(live); // "kill" — no compaction
        let restored = ServingSolver::restore(&dir).unwrap();
        assert_eq!(*restored.view(), *live_view, "epoch, |S|, membership and stats must match");
        assert_eq!(restored.epoch(), 2);
        restored.solver().validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_truncates_the_log_and_preserves_the_view() {
        let dir = temp_dir("compact");
        let g = demo_graph();
        let mut live = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        live.apply_batch(&[EdgeUpdate::Delete(0, 1)]).unwrap();
        let before = live.view();
        let snap = live.compact().unwrap();
        assert_eq!(snap, Some(dir.join(base_file(1))), "compaction advances the generation");
        assert!(UpdateLog::replay(dir.join(log_file(1))).unwrap().is_empty());
        assert!(!dir.join(base_file(0)).exists(), "old generation is GC'd");
        assert!(!dir.join(log_file(0)).exists());
        assert_eq!(*live.view(), *before, "compaction must not change the observable state");
        // Restore now comes from the snapshot alone.
        let restored = ServingSolver::restore(&dir).unwrap();
        assert_eq!(*restored.view(), *before);
        // And further updates on both sides stay in lockstep.
        let mut live2 = live;
        let mut restored2 = restored;
        let batch = [EdgeUpdate::Insert(0, 1), EdgeUpdate::Delete(3, 4)];
        let (_, va) = live2.apply_batch(&batch).unwrap();
        let (_, vb) = restored2.apply_batch(&batch).unwrap();
        assert_eq!(*va, *vb);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_before_meta_flip_restores_the_previous_generation() {
        // A kill after the new base is written but before meta.json flips
        // must leave the old generation fully authoritative — the logged
        // batches replay against the OLD base, never the new one.
        let dir = temp_dir("crash_premeta");
        let g = demo_graph();
        let mut live = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        live.apply_batch(&[EdgeUpdate::Delete(0, 1)]).unwrap();
        let live_view = live.view();
        // Simulate the crash window: write the would-be gen-1 base without
        // flipping meta or touching the gen-0 journal.
        write_state_base_only(&dir, live.solver(), 1);
        drop(live);
        let restored = ServingSolver::restore(&dir).unwrap();
        assert_eq!(*restored.view(), *live_view);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_after_meta_flip_never_replays_snapshotted_batches() {
        // A kill after meta flips but before the new journal exists (and
        // before the old generation is GC'd) must NOT replay the old
        // journal on top of the new base — the exact double-apply bug the
        // generation scheme exists to prevent.
        let dir = temp_dir("crash_postmeta");
        let g = demo_graph();
        let mut live = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        live.apply_batch(&[EdgeUpdate::Delete(0, 1)]).unwrap();
        let live_view = live.view();
        // Simulate: full gen-1 state written (base + meta) but the gen-1
        // journal was never created and gen-0 files still linger.
        let solver = live.solver().clone();
        let epoch = live.epoch();
        drop(live);
        super::write_state(&dir, &solver, &solver.graph().to_csr(), epoch, 1).unwrap();
        assert!(dir.join(log_file(0)).exists(), "old journal still present");
        let restored = ServingSolver::restore(&dir).unwrap();
        assert_eq!(restored.epoch(), epoch, "old journal must not be replayed");
        assert_eq!(*restored.view(), *live_view);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_after_torn_tail_stays_restorable_across_appends() {
        // Kill mid-append, restart, apply more batches, restart again —
        // the rewritten journal must keep every committed batch readable.
        let dir = temp_dir("torn_tail");
        let g = demo_graph();
        let mut live = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        live.apply_batch(&[EdgeUpdate::Delete(0, 1)]).unwrap();
        drop(live);
        let log_path = dir.join(log_file(0));
        let mut text = std::fs::read_to_string(&log_path).unwrap();
        text.push_str("b 2\n+ 1 2\n"); // torn record, no commit marker
        std::fs::write(&log_path, text).unwrap();
        let mut restored = ServingSolver::restore(&dir).unwrap();
        assert_eq!(restored.epoch(), 1, "torn tail discarded");
        restored.apply_batch(&[EdgeUpdate::Insert(0, 1)]).unwrap();
        let second_view = restored.view();
        drop(restored);
        let again = ServingSolver::restore(&dir).unwrap();
        assert_eq!(*again.view(), *second_view);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A central triangle {0,1,2} that blocks one planted triangle per
    /// member: HG under the identity ordering roots at node 0, picks
    /// {0,1,2}, and every other root is then blocked — a size-1 bootstrap
    /// whose dissolve-and-recombine optimum is 3.
    fn blocker_graph() -> CsrGraph {
        CsrGraph::from_edges(
            9,
            vec![
                (0, 1),
                (0, 2),
                (1, 2),
                (0, 3),
                (0, 4),
                (3, 4),
                (1, 5),
                (1, 6),
                (5, 6),
                (2, 7),
                (2, 8),
                (7, 8),
            ],
        )
        .unwrap()
    }

    fn blocker_request() -> SolveRequest {
        SolveRequest::new(Algo::Hg, 3).with_ordering(dkc_graph::OrderingKind::Identity)
    }

    #[test]
    fn improve_journals_bumps_the_epoch_and_replays_on_restore() {
        let dir = temp_dir("improve");
        let g = blocker_graph();
        let mut live = ServingSolver::create(&dir, &g, blocker_request()).unwrap();
        assert_eq!(live.view().len(), 1, "HG bootstrap picks the blocker");
        let (stats, view) = live.improve(256, 7).unwrap();
        assert!(stats.moves_applied >= 1);
        assert_eq!(stats.uplift, 2);
        assert_eq!(view.len(), 3);
        assert_eq!(view.epoch(), 1, "an applied slice is one epoch");
        live.solver().validate().unwrap();
        // The slice went to the journal write-ahead, as parameters.
        let records = UpdateLog::replay(dir.join(log_file(0))).unwrap();
        assert_eq!(records, vec![LogRecord::Improve { steps: 256, seed: 7 }]);
        // A converged slice is free: no journal record, no epoch bump.
        let (stats2, view2) = live.improve(256, 8).unwrap();
        assert_eq!(stats2.moves_applied, 0);
        assert_eq!(view2.epoch(), 1);
        assert_eq!(UpdateLog::replay(dir.join(log_file(0))).unwrap().len(), 1);
        // Mix in a batch after the improvement, then restart: replaying
        // the (improve, batch) tail lands on the identical view.
        live.apply_batch(&[EdgeUpdate::Delete(3, 4)]).unwrap();
        let live_view = live.view();
        drop(live); // "kill" — no compaction
        let restored = ServingSolver::restore(&dir).unwrap();
        assert_eq!(restored.epoch(), 2);
        assert_eq!(*restored.view(), *live_view, "replayed slice must be bit-identical");
        restored.solver().validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn improve_on_in_memory_states_skips_the_journal_machinery() {
        let g = blocker_graph();
        let mut s = ServingSolver::in_memory(&g, blocker_request()).unwrap();
        let (stats, view) = s.improve(128, 0).unwrap();
        assert_eq!(stats.uplift, 2);
        assert_eq!((view.epoch(), view.len()), (1, 3));
        s.solver().validate().unwrap();
    }

    #[test]
    fn open_creates_then_restores() {
        let dir = temp_dir("open");
        let req = SolveRequest::new(Algo::Lp, 3);
        let (mut s, restored) = ServingSolver::open(&dir, req, || Ok(demo_graph())).unwrap();
        assert!(!restored);
        s.apply_batch(&[EdgeUpdate::Delete(0, 1)]).unwrap();
        drop(s);
        let (s, restored) =
            ServingSolver::open(&dir, req, || panic!("must not bootstrap twice")).unwrap();
        assert!(restored);
        assert_eq!(s.epoch(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_import_resumes_in_lockstep() {
        let g = demo_graph();
        let mut primary = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        primary.apply_batch(&[EdgeUpdate::Delete(0, 1)]).unwrap();
        let doc = primary.export_state();
        let mut replica = ServingSolver::import_state(&doc).unwrap();
        assert_eq!(replica.epoch(), 1);
        assert_eq!(*replica.view(), *primary.view());
        // The exporter's observable state is untouched by the export.
        assert_eq!(primary.epoch(), 1);
        // Identical batches applied on both sides stay bit-identical —
        // the replica catch-up contract.
        for batch in [
            vec![EdgeUpdate::Insert(0, 1), EdgeUpdate::Insert(1, 3)],
            vec![EdgeUpdate::Delete(2, 3)],
            vec![EdgeUpdate::Delete(0, 2), EdgeUpdate::Insert(2, 3)],
        ] {
            let (_, vp) = primary.apply_batch(&batch).unwrap();
            let (_, vr) = replica.apply_batch(&batch).unwrap();
            assert_eq!(*vp, *vr);
        }
        replica.solver().validate().unwrap();
        // A roundtrip through rendered text (the wire) imports the same.
        let rendered = primary.export_state().render();
        let reparsed = Json::parse(&rendered).unwrap();
        let wire = ServingSolver::import_state(&reparsed).unwrap();
        assert_eq!(*wire.view(), *primary.view());
    }

    #[test]
    fn import_rejects_damaged_documents() {
        let g = demo_graph();
        let s = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let good = s.export_state();
        assert!(ServingSolver::import_state(&Json::Null).is_err());
        let Json::Obj(mut members) = good else { panic!("export is an object") };
        members.retain(|(k, _)| k != "edges");
        assert!(matches!(
            ServingSolver::import_state(&Json::Obj(members)),
            Err(ServeStateError::Meta(m)) if m.contains("edges")
        ));
    }

    #[test]
    fn fsync_policy_threads_through_compaction() {
        let dir = temp_dir("fsync_knob");
        let g = demo_graph();
        let mut s = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        assert_eq!(s.fsync_policy(), FsyncPolicy::PerBatch);
        s.set_fsync_policy(FsyncPolicy::Snapshot);
        s.apply_batch(&[EdgeUpdate::Delete(0, 1)]).unwrap();
        // Buffered: the on-disk journal has no committed record yet.
        assert!(UpdateLog::replay(dir.join(log_file(0))).unwrap().is_empty());
        s.sync().unwrap();
        assert_eq!(UpdateLog::replay(dir.join(log_file(0))).unwrap().len(), 1);
        // Compaction opens the next generation's journal with the same policy.
        s.compact().unwrap();
        s.apply_batch(&[EdgeUpdate::Insert(0, 1)]).unwrap();
        assert!(UpdateLog::replay(dir.join(log_file(1))).unwrap().is_empty());
        s.sync().unwrap();
        assert_eq!(UpdateLog::replay(dir.join(log_file(1))).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_json_roundtrips() {
        let stats = UpdateStats {
            insertions: 1,
            deletions: 2,
            swaps_attempted: 3,
            swaps_applied: 4,
            cliques_added: 5,
            cliques_removed: 6,
        };
        let v = stats_to_json(&stats);
        assert_eq!(stats_from_json(&v).unwrap(), stats);
        assert!(stats_from_json(&Json::Null).is_err());
    }

    /// Two triangles bridged, plus the triangle {6, 7, 8} and the
    /// isolated node 9: the LP state is {0,1,2}, {3,4,5}, {6,7,8}.
    fn three_triangles() -> CsrGraph {
        let mut edges = vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
        edges.extend([(6, 7), (7, 8), (6, 8)]);
        CsrGraph::from_edges(10, edges).unwrap()
    }

    /// Creates a state of [`three_triangles`], replaces the `cliques` of
    /// its `meta.json` and restores it.
    fn restore_with_cliques(
        tag: &str,
        cliques: &[&[u64]],
    ) -> Result<ServingSolver, ServeStateError> {
        let dir = temp_dir(tag);
        let g = three_triangles();
        let created = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        assert_eq!(created.view().len(), 3);
        let meta_path = dir.join(META_FILE);
        let Json::Obj(mut members) =
            Json::parse(&std::fs::read_to_string(&meta_path).unwrap()).unwrap()
        else {
            panic!("meta.json is an object")
        };
        let rows = cliques.iter().map(|c| Json::Arr(c.iter().map(|&u| Json::u64(u)).collect()));
        for (key, value) in &mut members {
            if key == "cliques" {
                *value = Json::Arr(rows.clone().collect());
            }
        }
        std::fs::write(&meta_path, Json::Obj(members).render()).unwrap();
        let restored = ServingSolver::restore(&dir);
        std::fs::remove_dir_all(&dir).ok();
        restored
    }

    fn meta_error(result: Result<ServingSolver, ServeStateError>) -> String {
        match result {
            Err(ServeStateError::Meta(m)) => m,
            other => panic!("expected a Meta error, got {other:?}"),
        }
    }

    #[test]
    fn restore_accepts_an_untouched_clique_list() {
        let restored = restore_with_cliques("meta_ok", &[&[0, 1, 2], &[3, 4, 5], &[6, 7, 8]]);
        assert_eq!(restored.unwrap().view().len(), 3);
    }

    #[test]
    fn restore_rejects_overlapping_cliques() {
        // A member of clique 0 moved into clique 1.
        let m =
            meta_error(restore_with_cliques("meta_overlap", &[&[0, 1, 2], &[2, 4, 5], &[6, 7, 8]]));
        assert!(m.contains("share node 2"), "{m}");
    }

    #[test]
    fn restore_rejects_a_duplicate_member() {
        let m = meta_error(restore_with_cliques("meta_dup", &[&[0, 1, 2], &[3, 5, 5], &[6, 7, 8]]));
        assert!(m.contains("member 5 twice"), "{m}");
    }

    #[test]
    fn restore_rejects_a_wrong_clique_size() {
        let m = meta_error(restore_with_cliques("meta_size", &[&[0, 1, 2], &[3, 4], &[6, 7, 8]]));
        assert!(m.contains("clique #1 has 2 members, expected 3"), "{m}");
    }

    #[test]
    fn restore_rejects_more_than_max_k_members() {
        let many: Vec<u64> = (0..17).collect();
        let m = meta_error(restore_with_cliques("meta_many", &[&many]));
        assert!(m.contains("clique #0 has 17 members"), "{m}");
    }

    #[test]
    fn restore_rejects_a_node_beyond_the_base_graph() {
        let m =
            meta_error(restore_with_cliques("meta_range", &[&[0, 1, 2], &[3, 4, 5], &[6, 7, 10]]));
        assert!(m.contains("member 10 is beyond the base graph's 10 nodes"), "{m}");
    }

    #[test]
    fn restore_rejects_a_non_edge() {
        let m =
            meta_error(restore_with_cliques("meta_edge", &[&[0, 1, 2], &[3, 4, 5], &[6, 7, 9]]));
        assert!(m.contains("misses edge (6, 9)"), "{m}");
    }

    #[test]
    fn restore_rejects_a_non_maximal_solution() {
        // {6, 7, 8} is left free.
        let m = meta_error(restore_with_cliques("meta_maximal", &[&[0, 1, 2], &[3, 4, 5]]));
        assert!(m.contains("not maximal"), "{m}");
    }

    #[test]
    fn import_rejects_an_invalid_clique_list() {
        let s =
            ServingSolver::in_memory(&three_triangles(), SolveRequest::new(Algo::Lp, 3)).unwrap();
        let Json::Obj(mut members) = s.export_state() else { panic!("export is an object") };
        for (key, value) in &mut members {
            if key == "cliques" {
                *value = Json::parse("[[0,1,2],[2,4,5],[6,7,8]]").unwrap();
            }
        }
        let m = meta_error(ServingSolver::import_state(&Json::Obj(members)));
        assert!(m.contains("share node 2"), "{m}");
    }

    /// Sets `doc[path[0]][path[1]]…` to `value` (every step an object).
    fn set_member(doc: &mut Json, path: &[&str], value: Json) {
        let Json::Obj(members) = doc else { panic!("{} is not an object", doc.render()) };
        let (_, slot) = members.iter_mut().find(|(k, _)| k == path[0]).expect("member exists");
        match path {
            [_] => *slot = value,
            [_, rest @ ..] => set_member(slot, rest, value),
            [] => unreachable!(),
        }
    }

    #[test]
    fn import_rejects_a_node_count_beyond_the_id_space() {
        let s =
            ServingSolver::in_memory(&three_triangles(), SolveRequest::new(Algo::Lp, 3)).unwrap();
        for n in [(1u64 << 32) + 1, 1 << 40, u64::MAX] {
            let mut doc = s.export_state();
            set_member(&mut doc, &["num_nodes"], Json::u64(n));
            let m = meta_error(ServingSolver::import_state(&doc));
            assert!(m.contains("exceeds the node id space"), "{m}");
        }
    }

    #[test]
    fn import_and_restore_reject_a_k_outside_the_solver_range() {
        // k = 2 with a valid maximal matching of the graph: accepted as a
        // solution, so only the k check can refuse it.
        let matching = Json::parse("[[0,1],[2,3],[4,5],[6,7]]").unwrap();
        let s =
            ServingSolver::in_memory(&three_triangles(), SolveRequest::new(Algo::Lp, 3)).unwrap();
        for k in [2u64, 17] {
            let mut doc = s.export_state();
            set_member(&mut doc, &["request", "k"], Json::u64(k));
            set_member(&mut doc, &["cliques"], matching.clone());
            let m = meta_error(ServingSolver::import_state(&doc));
            assert!(m.contains(&format!("request k = {k} is outside")), "{m}");
        }
        let dir = temp_dir("meta_k2");
        ServingSolver::create(&dir, &three_triangles(), SolveRequest::new(Algo::Lp, 3)).unwrap();
        let meta_path = dir.join(META_FILE);
        let mut meta = Json::parse(&std::fs::read_to_string(&meta_path).unwrap()).unwrap();
        set_member(&mut meta, &["request", "k"], Json::u64(2));
        set_member(&mut meta, &["cliques"], matching);
        std::fs::write(&meta_path, meta.render()).unwrap();
        let m = meta_error(ServingSolver::restore(&dir));
        std::fs::remove_dir_all(&dir).ok();
        assert!(m.contains("request k = 2 is outside"), "{m}");
    }

    #[test]
    fn create_writes_the_base_of_the_solvers_graph() {
        // The base snapshot is written from the input graph; it must hold
        // the bytes the solver's own graph would produce.
        let dir = temp_dir("base_bytes");
        let g = three_triangles();
        let created = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let mut expected = Vec::new();
        dkc_graph::io::write_csr_snapshot(&created.solver().graph().to_csr(), &mut expected)
            .unwrap();
        assert!(std::fs::read(dir.join(base_file(0))).unwrap() == expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_damaged_meta() {
        let dir = temp_dir("damaged");
        let g = demo_graph();
        ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let meta_path = dir.join(META_FILE);
        std::fs::write(&meta_path, "{\"version\":99}").unwrap();
        match ServingSolver::restore(&dir) {
            Err(ServeStateError::Meta(m)) => assert!(m.contains("99"), "{m}"),
            other => panic!("expected Meta error, got {other:?}"),
        }
        std::fs::write(&meta_path, "not json").unwrap();
        assert!(matches!(ServingSolver::restore(&dir), Err(ServeStateError::Meta(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
