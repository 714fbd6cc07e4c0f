//! Continuous Γ-driven model refresh.
//!
//! The refresh loop closes the feature-store circle: streamed ingest
//! keeps each summary's `(n, L, Q)` current by folding deltas, the
//! summary's monotone `version` / `rows_folded` counters say *that* it
//! moved, and this loop turns those signals into fresh model tables —
//! a closed-form `O(d³)` refit for regression (no data scan at all),
//! a warm-started Lloyd pass for K-means — published atomically via
//! the engine's replicated model-table registration. Readers scoring
//! against the model table never block: they see the old coefficients
//! until the publish swaps the table.
//!
//! [`RefreshLoop`] is the synchronous core (one [`RefreshLoop::tick`]
//! per cadence interval, directly testable); [`RefreshDaemon`] wraps
//! it in a background thread with a stop flag.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nlq_engine::{
    beta_table, centroid_table, lambda_table, ExecOptions, SqlEngine, SummaryRefreshState,
};
use nlq_linalg::Vector;
use nlq_models::{GammaModelSet, KMeans, KMeansConfig, MatrixShape, PcaInput, RefreshSpec};
use nlq_storage::Value;

use crate::Result;

/// Which model a binding maintains from its summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingKind {
    /// Closed-form OLS over the summary's Γ, treating the **last**
    /// summarized column as `Y`. Published as the one-row coefficient
    /// table `model(b0, b1..bd)` — the exact layout
    /// `linearregscore` expects.
    Regression,
    /// K-means over the summarized columns, warm-started from the
    /// previous refresh's centroids. Published as
    /// `model(j, X1..Xd)` for `clusterscore`.
    Kmeans {
        /// Number of clusters.
        k: usize,
    },
    /// PCA of the summary's correlation matrix — a closed form over Γ,
    /// like regression. Published as the component-led loading table
    /// `model(j, X1..Xd)`, one row per component `j = 1..k`.
    Pca {
        /// Number of principal components to keep (clamped to `d`).
        components: usize,
    },
}

/// One watched summary → published model-table pair.
#[derive(Debug, Clone)]
pub struct Binding {
    /// The summary whose refresh signals drive this binding.
    pub summary: String,
    /// The model table to publish into (replaced on every refresh).
    pub model: String,
    /// What to refit.
    pub kind: BindingKind,
}

impl Binding {
    /// A regression binding publishing to `<summary>_beta`.
    pub fn regression(summary: &str) -> Binding {
        Binding {
            summary: summary.to_ascii_lowercase(),
            model: format!("{}_beta", summary.to_ascii_lowercase()),
            kind: BindingKind::Regression,
        }
    }

    /// A `k`-means binding publishing to `<summary>_centroids`.
    pub fn kmeans(summary: &str, k: usize) -> Binding {
        Binding {
            summary: summary.to_ascii_lowercase(),
            model: format!("{}_centroids", summary.to_ascii_lowercase()),
            kind: BindingKind::Kmeans { k },
        }
    }

    /// A PCA binding publishing to `<summary>_lambda`.
    pub fn pca(summary: &str, components: usize) -> Binding {
        Binding {
            summary: summary.to_ascii_lowercase(),
            model: format!("{}_lambda", summary.to_ascii_lowercase()),
            kind: BindingKind::Pca { components },
        }
    }
}

/// Cadence and trigger thresholds for the loop.
#[derive(Debug, Clone, Copy)]
pub struct RefreshConfig {
    /// How long the daemon sleeps between ticks.
    pub cadence: Duration,
    /// Minimum `rows_folded` advance since the last refresh before
    /// folds trigger a refit. Structural changes (DELETE and UPDATE,
    /// which bump the summary's version) always trigger. `0` refreshes
    /// on any fold.
    pub min_delta_rows: u64,
    /// Automatically bind every eligible summary (global,
    /// non-diagonal, `d ≥ 2`) the engine reports: a
    /// [`Binding::regression`] always, plus a [`Binding::kmeans`] /
    /// [`Binding::pca`] when a `j`-led `<summary>_centroids` /
    /// component-led `<summary>_lambda` model table already exists
    /// (its row count fixes `k` / the component count), so the daemon
    /// adopts models that were published manually or by a previous
    /// process lifetime.
    pub auto_discover: bool,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            cadence: Duration::from_millis(250),
            min_delta_rows: 0,
            auto_discover: false,
        }
    }
}

/// Per-binding memory between ticks.
struct BindingState {
    /// (version, rows_folded) at the last successful refresh.
    last: Option<(u64, u64)>,
    /// Warm regression state (rebuilt in place each refresh).
    models: Option<GammaModelSet>,
    /// Previous centroids for the K-means warm start.
    seeds: Option<Vec<Vector>>,
}

/// Shared ledger of how far each bound summary's fold counter had
/// advanced when its models were last published.
///
/// [`RefreshDaemon::staleness`] compares the ledger against the
/// engine's **current** counters on demand. That on-demand shape is
/// the point: a gauge updated by the tick itself would freeze at its
/// last value the moment the daemon stalled, which is exactly when
/// back-pressure needs to see the lag grow.
#[derive(Debug, Default)]
pub struct RefreshProgress {
    /// summary (lowercase) → what the last publish looked like
    /// (all-zero until the first publish).
    published: Mutex<HashMap<String, PublishState>>,
}

/// What the ledger remembers about one bound summary's last publish —
/// the `sys.summaries` row the server renders for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishState {
    /// `rows_folded` at the last publish (0 until then).
    pub rows_folded: u64,
    /// Wall-clock duration of the last refit + publish, nanoseconds
    /// (0 until the first publish).
    pub last_refit_nanos: u64,
    /// Query id of the daemon tick that last published — the
    /// [`DAEMON_QUERY_ID_BIT`]-tagged id its engine statements carried.
    pub refit_query_id: u64,
}

/// High bit set on every query id the refresh daemon mints for its own
/// engine statements, so daemon-driven work is distinguishable from
/// server-admitted queries (which count up from 1) in any trace.
pub const DAEMON_QUERY_ID_BIT: u64 = 1 << 63;

impl RefreshProgress {
    fn bind(&self, summary: &str) {
        self.published
            .lock()
            .unwrap()
            .entry(summary.to_ascii_lowercase())
            .or_default();
    }

    fn publish(&self, summary: &str, state: PublishState) {
        self.published
            .lock()
            .unwrap()
            .insert(summary.to_ascii_lowercase(), state);
    }

    /// The ledger's current rows: `(summary, last publish)` pairs in
    /// no particular order.
    pub fn snapshot(&self) -> Vec<(String, PublishState)> {
        self.published
            .lock()
            .unwrap()
            .iter()
            .map(|(s, p)| (s.clone(), *p))
            .collect()
    }

    /// Worst per-binding lag: rows folded into a bound summary since
    /// that summary's models were last published. 0 with no bindings.
    pub fn staleness(&self, engine: &dyn SqlEngine) -> u64 {
        let current: HashMap<String, u64> = engine
            .summary_refresh_states()
            .into_iter()
            .map(|st| (st.name.to_ascii_lowercase(), st.rows_folded))
            .collect();
        let published = self.published.lock().unwrap();
        published
            .iter()
            .map(|(s, done)| {
                current
                    .get(s)
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(done.rows_folded)
            })
            .max()
            .unwrap_or(0)
    }
}

/// The synchronous refresh core: polls refresh signals, refits and
/// publishes what moved. Drive it from your own scheduler or wrap it
/// in a [`RefreshDaemon`].
pub struct RefreshLoop {
    engine: Arc<dyn SqlEngine>,
    config: RefreshConfig,
    bindings: Vec<Binding>,
    state: HashMap<String, BindingState>,
    progress: Arc<RefreshProgress>,
    refreshes: u64,
    /// Ticks run so far; the current tick's engine statements carry
    /// `DAEMON_QUERY_ID_BIT | ticks` as their query id.
    ticks: u64,
}

impl RefreshLoop {
    /// Builds a loop over `engine` with explicit bindings (more may be
    /// auto-discovered per tick when the config says so).
    pub fn new(
        engine: Arc<dyn SqlEngine>,
        bindings: Vec<Binding>,
        config: RefreshConfig,
    ) -> RefreshLoop {
        Self::with_progress(
            engine,
            bindings,
            config,
            Arc::new(RefreshProgress::default()),
        )
    }

    /// Like [`RefreshLoop::new`], but sharing an externally owned
    /// [`RefreshProgress`] ledger, so a server can compute staleness
    /// without reaching into the loop. Every initial binding's summary
    /// is registered in the ledger immediately (lag is honest even
    /// before the first tick runs).
    pub fn with_progress(
        engine: Arc<dyn SqlEngine>,
        bindings: Vec<Binding>,
        config: RefreshConfig,
        progress: Arc<RefreshProgress>,
    ) -> RefreshLoop {
        for b in &bindings {
            progress.bind(&b.summary);
        }
        RefreshLoop {
            engine,
            config,
            bindings,
            state: HashMap::new(),
            progress,
            refreshes: 0,
            ticks: 0,
        }
    }

    /// Query id stamped on the current tick's engine statements.
    fn tick_query_id(&self) -> u64 {
        DAEMON_QUERY_ID_BIT | self.ticks
    }

    /// Execution options for the daemon's own engine statements: the
    /// tick's tagged query id, defaults otherwise.
    fn tick_opts(&self) -> ExecOptions {
        ExecOptions {
            query_id: self.tick_query_id(),
            ..ExecOptions::default()
        }
    }

    /// Models published over the loop's lifetime.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// The bindings currently maintained (explicit + discovered).
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    fn eligible(st: &SummaryRefreshState) -> bool {
        !st.grouped && st.shape != MatrixShape::Diagonal && st.d >= 2
    }

    /// One pass: discover, check triggers, refit, publish. Returns how
    /// many models were published this tick. An engine or model error
    /// aborts the tick; already-published models stay published and
    /// un-refreshed bindings retrigger next tick.
    pub fn tick(&mut self) -> Result<u64> {
        self.ticks += 1;
        let states = self.summary_states();
        self.discover(&states);
        let mut published = 0u64;
        for bi in 0..self.bindings.len() {
            let b = self.bindings[bi].clone();
            let Some(st) = states.get(&b.summary) else {
                continue; // summary dropped; binding goes dormant
            };
            let needs_gamma = matches!(b.kind, BindingKind::Regression | BindingKind::Pca { .. });
            if st.grouped || (needs_gamma && !Self::eligible(st)) {
                continue;
            }
            let entry = self.state.entry(b.model.clone()).or_insert(BindingState {
                last: None,
                models: None,
                seeds: None,
            });
            let due = match entry.last {
                None => true,
                Some((v, rows)) => {
                    st.version != v
                        || (st.rows_folded > rows
                            && st.rows_folded - rows >= self.config.min_delta_rows)
                }
            };
            if !due {
                continue;
            }
            let refit_started = Instant::now();
            match b.kind {
                BindingKind::Regression => self.refresh_regression(&b)?,
                BindingKind::Kmeans { k } => self.refresh_kmeans(&b, st, k)?,
                BindingKind::Pca { components } => self.refresh_pca(&b, components)?,
            }
            let entry = self.state.get_mut(&b.model).expect("binding state");
            entry.last = Some((st.version, st.rows_folded));
            self.progress.publish(
                &b.summary,
                PublishState {
                    rows_folded: st.rows_folded,
                    last_refit_nanos: refit_started.elapsed().as_nanos() as u64,
                    refit_query_id: self.tick_query_id(),
                },
            );
            self.refreshes += 1;
            published += 1;
        }
        Ok(published)
    }

    /// The engine's refresh signals keyed by lowercase summary name.
    /// Summary names are case-insensitive engine-side (the store keys
    /// by lowercase but reports the name as written), so normalize here
    /// or bindings would never match a summary created as `S`.
    fn summary_states(&self) -> HashMap<String, SummaryRefreshState> {
        self.engine
            .summary_refresh_states()
            .into_iter()
            .map(|st| (st.name.to_ascii_lowercase(), st))
            .collect()
    }

    /// Auto-discovery (a no-op unless configured): binds every eligible
    /// summary that has no binding yet, registering it in the progress
    /// ledger so its lag counts from this moment.
    fn discover(&mut self, states: &HashMap<String, SummaryRefreshState>) {
        if !self.config.auto_discover {
            return;
        }
        for (lc, st) in states {
            if !Self::eligible(st) {
                continue;
            }
            let name = &st.name;
            if !self.has_binding(name, |k| matches!(k, BindingKind::Regression)) {
                self.add_binding(Binding::regression(name));
            }
            if !self.has_binding(name, |k| matches!(k, BindingKind::Kmeans { .. })) {
                if let Some(k) = self.probe_rows(&format!("{lc}_centroids")) {
                    self.add_binding(Binding::kmeans(name, k));
                }
            }
            if !self.has_binding(name, |k| matches!(k, BindingKind::Pca { .. })) {
                if let Some(c) = self.probe_rows(&format!("{lc}_lambda")) {
                    self.add_binding(Binding::pca(name, c));
                }
            }
        }
    }

    fn has_binding(&self, summary: &str, kind: impl Fn(&BindingKind) -> bool) -> bool {
        self.bindings
            .iter()
            .any(|b| b.summary.eq_ignore_ascii_case(summary) && kind(&b.kind))
    }

    fn add_binding(&mut self, b: Binding) {
        self.progress.bind(&b.summary);
        self.bindings.push(b);
    }

    /// Row count of `table` when it exists and is non-empty; `None`
    /// otherwise. Discovery uses this to adopt pre-existing model
    /// tables: the row count of a `j`-led table *is* its `k`.
    fn probe_rows(&self, table: &str) -> Option<usize> {
        let rs = self
            .engine
            .execute_with(&format!("SELECT count(*) FROM {table}"), &self.tick_opts())
            .ok()?;
        match rs.rows.first()?.first()? {
            Value::Int(n) if *n > 0 => Some(*n as usize),
            _ => None,
        }
    }

    fn refresh_regression(&mut self, b: &Binding) -> Result<()> {
        let gamma = self.engine.summary_gamma(&b.summary)?;
        let entry = self.state.get_mut(&b.model).expect("binding state");
        let set = match &mut entry.models {
            Some(set) => {
                set.refresh(&gamma)?;
                set
            }
            None => {
                let spec = RefreshSpec {
                    correlation: false,
                    regression: true,
                    pca_components: None,
                    pca_input: PcaInput::Correlation,
                };
                entry.models.insert(GammaModelSet::build(&gamma, spec)?)
            }
        };
        let reg = set.regression().expect("regression enabled");
        let table = beta_table(reg.intercept(), reg.coefficients())?;
        self.engine.publish_model(&b.model, table)?;
        Ok(())
    }

    /// PCA is a closed form over Γ like regression: diagonalize the
    /// correlation matrix derived from `(n, L, Q)`, keep the leading
    /// `components` loadings, publish `model(j, X1..Xd)`.
    fn refresh_pca(&mut self, b: &Binding, components: usize) -> Result<()> {
        let gamma = self.engine.summary_gamma(&b.summary)?;
        let entry = self.state.get_mut(&b.model).expect("binding state");
        let set = match &mut entry.models {
            Some(set) => {
                set.refresh(&gamma)?;
                set
            }
            None => {
                let spec = RefreshSpec {
                    correlation: false,
                    regression: false,
                    pca_components: Some(components),
                    pca_input: PcaInput::Correlation,
                };
                entry.models.insert(GammaModelSet::build(&gamma, spec)?)
            }
        };
        let pca = set.pca().expect("pca enabled");
        let table = lambda_table(pca.lambda())?;
        self.engine.publish_model(&b.model, table)?;
        Ok(())
    }

    /// K-means needs the points themselves (Lloyd iterations are not a
    /// closed form over Γ), so this scans the summarized columns once —
    /// but seeds from the previous centroids, which converges in a few
    /// passes when the data only drifted.
    fn refresh_kmeans(&mut self, b: &Binding, st: &SummaryRefreshState, k: usize) -> Result<()> {
        let cols = st.columns.join(", ");
        let sql = format!("SELECT {cols} FROM {}", st.table);
        let rs = self.engine.execute_with(&sql, &self.tick_opts())?;
        let data: Vec<Vec<f64>> = rs
            .rows
            .iter()
            .filter_map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Float(x) => Some(*x),
                        Value::Int(i) => Some(*i as f64),
                        _ => None, // NULL-bearing rows don't vote
                    })
                    .collect()
            })
            .collect();
        let config = KMeansConfig::new(k);
        let entry = self.state.get_mut(&b.model).expect("binding state");
        let model = match &entry.seeds {
            Some(seeds) => KMeans::fit_seeded(&data, seeds, &config)?,
            None => KMeans::fit(&data, &config)?,
        };
        entry.seeds = Some(model.centroids().to_vec());
        let table = centroid_table(model.centroids())?;
        self.engine.publish_model(&b.model, table)?;
        Ok(())
    }
}

/// An external clock for daemon ticks, for deterministic tests.
///
/// The test thread calls [`TickGate::step`]; the daemon thread blocks
/// between ticks until a step is available and reports back when the
/// tick has fully completed. `step` returns only after *its* tick ran,
/// so `gate.step(); assert!(...)` sequences need no sleeps and cannot
/// race: everything the tick published is visible when `step` returns.
#[derive(Debug, Default)]
pub struct TickGate {
    /// (ticks allowed, ticks completed) — allowed ≥ completed.
    state: Mutex<(u64, u64)>,
    cv: Condvar,
}

impl TickGate {
    /// Releases exactly one daemon tick and blocks until it completed.
    pub fn step(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 += 1;
        let target = st.0;
        self.cv.notify_all();
        while st.1 < target {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Daemon side: block until a tick is allowed. Returns `false`
    /// when `stop` was raised instead (polled every 10ms — the gate
    /// holder is not obligated to wake a stopping daemon).
    fn acquire(&self, stop: &AtomicBool) -> bool {
        let mut st = self.state.lock().unwrap();
        loop {
            if stop.load(Ordering::Relaxed) {
                return false;
            }
            if st.0 > st.1 {
                return true;
            }
            let (guard, _) = self.cv.wait_timeout(st, Duration::from_millis(10)).unwrap();
            st = guard;
        }
    }

    /// Daemon side: mark the released tick as completed.
    fn finish(&self) {
        let mut st = self.state.lock().unwrap();
        st.1 += 1;
        self.cv.notify_all();
    }
}

/// A [`RefreshLoop`] on a background thread: tick, sleep `cadence`,
/// repeat until stopped. Tick errors are swallowed (the un-refreshed
/// binding simply retriggers next tick), so a transiently short table
/// cannot kill the daemon.
pub struct RefreshDaemon {
    engine: Arc<dyn SqlEngine>,
    progress: Arc<RefreshProgress>,
    stop: Arc<AtomicBool>,
    refreshes: Arc<AtomicU64>,
    ticks: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl RefreshDaemon {
    /// Spawns the daemon on its own cadence clock.
    pub fn spawn(
        engine: Arc<dyn SqlEngine>,
        bindings: Vec<Binding>,
        config: RefreshConfig,
    ) -> RefreshDaemon {
        Self::spawn_with_gate(engine, bindings, config, None)
    }

    /// Spawns the daemon; with a [`TickGate`] the cadence sleep is
    /// replaced entirely by the gate (one `step` = one tick), which is
    /// how tests freeze the daemon to provoke staleness deterministically.
    pub fn spawn_with_gate(
        engine: Arc<dyn SqlEngine>,
        bindings: Vec<Binding>,
        config: RefreshConfig,
        gate: Option<Arc<TickGate>>,
    ) -> RefreshDaemon {
        let stop = Arc::new(AtomicBool::new(false));
        let refreshes = Arc::new(AtomicU64::new(0));
        let ticks = Arc::new(AtomicU64::new(0));
        let progress = Arc::new(RefreshProgress::default());
        // Bind on the caller's thread, before the daemon thread exists:
        // explicit bindings and everything discoverable right now are in
        // the ledger when this returns, so `staleness()` (and ingest
        // back-pressure) never reads 0 just because no tick has run yet.
        let mut lp = RefreshLoop::with_progress(
            Arc::clone(&engine),
            bindings,
            config,
            Arc::clone(&progress),
        );
        let states = lp.summary_states();
        lp.discover(&states);
        let (stop2, refreshes2, ticks2) = (stop.clone(), refreshes.clone(), ticks.clone());
        let handle = std::thread::Builder::new()
            .name("nlq-refresh".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    if let Some(g) = &gate {
                        if !g.acquire(&stop2) {
                            break;
                        }
                    }
                    if let Ok(n) = lp.tick() {
                        refreshes2.fetch_add(n, Ordering::Relaxed);
                    }
                    ticks2.fetch_add(1, Ordering::Relaxed);
                    if let Some(g) = &gate {
                        g.finish();
                        continue;
                    }
                    // Sleep in short slices so stop() returns promptly
                    // even under a long cadence.
                    let mut left = config.cadence;
                    while !left.is_zero() && !stop2.load(Ordering::Relaxed) {
                        let nap = left.min(Duration::from_millis(10));
                        std::thread::sleep(nap);
                        left -= nap;
                    }
                }
            })
            .expect("spawn refresh daemon");
        RefreshDaemon {
            engine,
            progress,
            stop,
            refreshes,
            ticks,
            handle: Some(handle),
        }
    }

    /// On-demand worst lag across bindings: rows folded into a bound
    /// summary since its models were last published. Computed against
    /// the engine's current counters, so it keeps growing while the
    /// daemon is stalled — the signal ingest back-pressure keys on.
    pub fn staleness(&self) -> u64 {
        self.progress.staleness(self.engine.as_ref())
    }

    /// The shared publish ledger (per-summary published rows, last
    /// refit duration, tagged tick query id) — what `sys.summaries`
    /// renders.
    pub fn progress(&self) -> Arc<RefreshProgress> {
        Arc::clone(&self.progress)
    }

    /// Models published so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// Poll passes completed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Blocks until the daemon has completed at least `n` ticks (test
    /// aid: "the daemon has definitely seen the rows I just streamed").
    pub fn wait_ticks(&self, n: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.ticks() < n {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Signals the thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RefreshDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}
