//! The five workloads, run untraced, with every output checked.
//!
//! All serve workloads are closed loop: the generator submits a batch,
//! waits for every `Done`, checks it, and only then submits the next
//! batch. One generator thread, plus the `serve_session` thread on the
//! two wire workloads.

use crate::host::{self, HostReference};
use crate::population::{population, CAMPAIGNS};
use crate::stats::{median, Digest};
use jubench::core::{BenchmarkId, Registry, RunConfig};
use jubench::fleet::FleetStudy;
use jubench::serve::{
    serve_session, CampaignSpec, ChaosPlan, Client, DuplexPipe, Frame, Server, SupervisorConfig,
};
use jubench::trace::CacheStats;
use std::time::Instant;

pub const WORKLOADS: [&str; 5] = [
    "serve_cold",
    "serve_warm",
    "serve_backlog",
    "serve_supervised",
    "fleet_study",
];

/// Shards and per-shard cache capacity of every serve workload's server.
pub const SHARDS: usize = 2;
pub const CACHE_CAPACITY: usize = 8192;
/// Campaigns per closed-loop batch on the batched workloads.
pub const BATCH: usize = 8;
/// `serve_backlog` submits the population this many times per round
/// before draining, so the queue is 1000 deep.
pub const BACKLOG_REPEATS: usize = 5;
/// The artifact digest (and `serve_supervised`'s exact restart count)
/// covers the first this-many campaigns, which every run completes
/// whatever its `--seconds`.
pub const DIGEST_CAMPAIGNS: usize = 64;
/// Batches per round on `serve_cold` and `serve_supervised` (40
/// campaigns, about half a second). `serve_warm`'s round is one pass
/// over the population, `serve_backlog`'s one submit-then-drain,
/// `fleet_study`'s one study.
const ROUND_BATCHES: usize = 5;
/// Campaigns of a throwaway generation run before a cold span.
const COLD_WARMUP_CAMPAIGNS: usize = 16;
/// Generation number of that throwaway population.
const WARMUP_GENERATION: u64 = u64::MAX;
/// Expected `FleetReport::ranking` of the standard catalog.
pub const FLEET_RANKING: [&str; 4] = ["nextgen", "cloud", "booster", "cpu"];
/// Session id the generator submits under.
pub const CLIENT: u64 = 1;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured span.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// A campaign handed to the server and what its frames must add up to.
#[derive(Debug, Clone, Copy)]
pub struct Submitted {
    pub id: u64,
    pub points: usize,
    /// Digest of the cold artifacts of the same spec (warm workloads).
    pub reference: Option<Digest>,
    /// Taken just before its `Submit` was written (or `submit` called).
    pub sent: Instant,
}

/// The campaign a result frame belongs to.
pub fn frame_campaign(frame: &Frame) -> Option<u64> {
    match frame {
        Frame::Row { campaign, .. }
        | Frame::JobDone { campaign, .. }
        | Frame::Done { campaign, .. }
        | Frame::Cancelled { campaign, .. } => Some(*campaign),
        _ => None,
    }
}

/// Running totals and checks of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub done: u64,
    pub rows: u64,
    pub latencies_ms: Vec<f64>,
    /// Closed-loop batches checked: the completions that are independent
    /// of each other (every campaign of a batch is done when its drain
    /// returns).
    pub batches: u64,
    /// Completed rounds, see [`Tally::end_round`].
    pub rounds: Vec<Round>,
    /// First few check failures, for the operator.
    pub errors: Vec<String>,
    digest: Digest,
    digested: usize,
    round_open: Option<(Instant, u64, u64, usize)>,
    host: Option<HostReference>,
    /// Reference time at every round boundary, see [`Round::interval`].
    boundary_ns: Vec<f64>,
}

/// A fixed amount of work inside the measured span: every round of a
/// workload does the same multiset of work, so rounds differ only by
/// what the host did to them. Each is bracketed by two runs of the
/// host reference (see [`crate::host`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    pub done: u64,
    pub rows: u64,
    pub seconds: f64,
    /// Median `Done` latency of the campaigns checked in this round.
    pub latency_p50_ms: f64,
    /// The round ran between host-reference runs `interval` and
    /// `interval + 1` of the span.
    pub interval: usize,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Count the check failures of a side run (an untraced repeat, a
    /// probe) against this run.
    pub fn absorb_failures(&mut self, other: Tally) {
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
    }

    /// Close the open round (if any) at `now`, run the host reference,
    /// and open the next round after it.
    pub fn end_round(&mut self, now: Instant) {
        if let Some((start, done, rows, latencies)) =
            self.round_open.filter(|open| self.done > open.1)
        {
            self.rounds.push(Round {
                done: self.done - done,
                rows: self.rows - rows,
                seconds: (now - start).as_secs_f64(),
                latency_p50_ms: median(&self.latencies_ms[latencies..]),
                interval: self.boundary_ns.len() - 1,
            });
        }
        let host = self.host.get_or_insert_with(HostReference::default);
        self.boundary_ns.push(host.run_ns());
        self.round_open = Some((
            Instant::now(),
            self.done,
            self.rows,
            self.latencies_ms.len(),
        ));
    }

    /// Median over rounds of `count(round) / seconds(round)`, each round
    /// read at nominal host speed when `scaled` (wall clock otherwise);
    /// the whole span's wall-clock rate when no round completed (a smoke
    /// run).
    pub fn rate(
        &self,
        span_s: f64,
        count: impl Fn(&Round) -> u64,
        total: u64,
        scaled: bool,
    ) -> f64 {
        if self.rounds.is_empty() {
            return total as f64 / span_s;
        }
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .zip(self.speeds(scaled))
            .map(|(r, speed)| count(r) as f64 / r.seconds / speed)
            .collect();
        median(&rates)
    }

    /// Median over rounds of the round's median `Done` latency, scaled
    /// like [`Tally::rate`]; the whole span's wall-clock median when no
    /// round completed.
    pub fn latency_p50_ms(&self, scaled: bool) -> f64 {
        if self.rounds.is_empty() {
            return median(&self.latencies_ms);
        }
        let medians: Vec<f64> = self
            .rounds
            .iter()
            .zip(self.speeds(scaled))
            .map(|(r, speed)| r.latency_p50_ms * speed)
            .collect();
        median(&medians)
    }

    /// Host speed around each round (1 = nominal); all 1 when not
    /// `scaled`.
    fn speeds(&self, scaled: bool) -> Vec<f64> {
        if !scaled {
            return vec![1.0; self.rounds.len()];
        }
        let by_interval = host::speeds(&self.boundary_ns);
        self.rounds
            .iter()
            .map(|r| by_interval[r.interval])
            .collect()
    }

    /// Median host speed over the span's rounds.
    pub fn host_speed(&self) -> f64 {
        median(&self.speeds(true))
    }

    /// Digest over the first [`DIGEST_CAMPAIGNS`] campaigns' artifacts.
    pub fn artifact_digest(&self) -> u128 {
        self.digest.value()
    }

    fn absorb(&mut self, artifacts: Digest) {
        if self.digested < DIGEST_CAMPAIGNS {
            self.digest.absorb(artifacts);
            self.digested += 1;
        }
    }

    /// Check the frames one closed-loop batch produced: exactly one
    /// `Done` per campaign, one `pass` row per point, no cancellation,
    /// and (where a reference exists) artifacts byte-identical to the
    /// cold ones. `done` is when the caller held the frames: every
    /// campaign's latency runs from its `sent` to then. Campaign ids of
    /// a batch are consecutive, because this generator is the server's
    /// only submitter.
    pub fn check_batch<'a>(
        &mut self,
        batch: &[Submitted],
        frames: impl Iterator<Item = &'a Frame>,
        done: Instant,
    ) {
        #[derive(Clone, Default)]
        struct Seen {
            rows: usize,
            failed_rows: usize,
            dones: usize,
            cancelled: bool,
            artifacts: Option<Digest>,
        }
        let Some(first) = batch.first().map(|s| s.id) else {
            return;
        };
        self.batches += 1;
        self.latencies_ms
            .extend(batch.iter().map(|s| (done - s.sent).as_secs_f64() * 1e3));
        let mut seen = vec![Seen::default(); batch.len()];
        let mut strays = 0usize;
        for frame in frames {
            let Some(id) = frame_campaign(frame) else {
                continue;
            };
            let Some(slot) = id.checked_sub(first).and_then(|i| seen.get_mut(i as usize)) else {
                strays += 1;
                continue;
            };
            match frame {
                Frame::Row { cells, .. } => {
                    slot.rows += 1;
                    self.rows += 1;
                    if cells.get(7).map(String::as_str) != Some("pass") {
                        slot.failed_rows += 1;
                    }
                }
                Frame::Done {
                    table,
                    chrome_trace,
                    ..
                } => {
                    slot.dones += 1;
                    slot.artifacts = Some(Digest::of_artifacts(table, chrome_trace));
                }
                Frame::Cancelled { .. } => slot.cancelled = true,
                _ => {}
            }
        }
        if strays > 0 {
            self.fail(format!("{strays} frames for campaigns outside the batch"));
        }
        for (sub, seen) in batch.iter().zip(seen) {
            self.attempted += 1;
            self.done += (seen.dones == 1 && !seen.cancelled) as u64;
            let artifacts = seen.artifacts.unwrap_or_default();
            self.absorb(artifacts);
            let id = sub.id;
            if seen.cancelled {
                self.fail(format!("campaign {id} was cancelled"));
            } else if seen.dones != 1 {
                self.fail(format!("campaign {id}: {} Done frames", seen.dones));
            } else if seen.rows != sub.points {
                self.fail(format!(
                    "campaign {id}: {} rows for {} points",
                    seen.rows, sub.points
                ));
            } else if seen.failed_rows > 0 {
                self.fail(format!(
                    "campaign {id}: {} rows failed verification",
                    seen.failed_rows
                ));
            } else if sub.reference.is_some_and(|r| r != artifacts) {
                self.fail(format!("campaign {id}: artifacts differ from the cold run"));
            }
        }
    }
}

/// The outcome of one untraced run.
#[derive(Debug)]
pub struct Run {
    pub setup: SetupTime,
    pub span_s: f64,
    pub tally: Tally,
    /// Exact counts that must repeat bit-for-bit at one seed.
    pub counts: Vec<(&'static str, f64)>,
}

/// What a serve workload starts from.
pub struct Fixture {
    pub registry: Registry,
    /// `P(seed, 0)`.
    pub pop: Vec<CampaignSpec>,
    pub server: Server,
    /// Warm fixtures: the digest of each spec's cold artifacts.
    pub reference: Option<Vec<Digest>>,
}

impl Fixture {
    /// Registry, population, and a server that is either cold (nothing
    /// of the population cached) or warm (all of it cached).
    pub fn build(seed: u64, n_shards: usize, cold: bool) -> Result<Fixture, String> {
        let registry = jubench::scaling::full_registry();
        let pop = population(seed, 0);
        let (server, reference) = if cold {
            (cold_server(&registry, seed, n_shards)?, None)
        } else {
            let (server, reference) = warm_server(&registry, &pop, n_shards)?;
            (server, Some(reference))
        };
        Ok(Fixture {
            registry,
            pop,
            server,
            reference,
        })
    }
}

/// Sum of the shards' cache tallies.
pub fn cache_totals(server: &Server) -> CacheStats {
    let mut total = CacheStats::default();
    for i in 0..server.n_shards() {
        let s = server.shard(i as u32).cache().stats();
        total.hits += s.hits;
        total.misses += s.misses;
        total.insertions += s.insertions;
        total.evictions += s.evictions;
    }
    total
}

/// Submit `specs` directly and return what to expect of each.
pub fn submit_all(
    server: &mut Server,
    registry: &Registry,
    specs: &[CampaignSpec],
    reference: Option<&[Digest]>,
    tally: &mut Tally,
) -> Vec<Submitted> {
    let mut batch = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let sent = Instant::now();
        match server.submit(CLIENT, spec.clone(), registry) {
            Ok((id, _)) => batch.push(Submitted {
                id,
                points: spec.points.len(),
                reference: reference.map(|r| r[i]),
                sent,
            }),
            Err(rejection) => {
                tally.attempted += 1;
                tally.fail(format!("rejected: {rejection}"));
            }
        }
    }
    batch
}

/// Run the whole population cold on a fresh server (the shipped parallel
/// drain), check it, and keep each spec's artifact digest.
fn warm_server(
    registry: &Registry,
    pop: &[CampaignSpec],
    n_shards: usize,
) -> Result<(Server, Vec<Digest>), String> {
    let mut server = Server::new(n_shards, CACHE_CAPACITY);
    let mut tally = Tally::default();
    let batch = submit_all(&mut server, registry, pop, None, &mut tally);
    let emits = server.drain_parallel(registry).map_err(|e| e.to_string())?;
    let mut reference = vec![Digest::default(); pop.len()];
    for emit in &emits {
        if let Frame::Done {
            campaign,
            table,
            chrome_trace,
            ..
        } = &emit.frame
        {
            let slot = batch.first().and_then(|s| campaign.checked_sub(s.id));
            if let Some(slot) = slot.and_then(|i| reference.get_mut(i as usize)) {
                *slot = Digest::of_artifacts(table, chrome_trace);
            }
        }
    }
    tally.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now());
    if tally.failed > 0 || batch.len() != pop.len() {
        return Err(format!("cache warm-fill failed: {:?}", tally.errors));
    }
    Ok((server, reference))
}

/// A fresh server that has run a few campaigns of a throwaway
/// generation, so lazy set-up (thread pool, intern tables, metric
/// shards) is not charged to the first measured batch. Nothing the span
/// submits is in its cache.
fn cold_server(registry: &Registry, seed: u64, n_shards: usize) -> Result<Server, String> {
    let mut server = Server::new(n_shards, CACHE_CAPACITY);
    let warmup = population(seed, WARMUP_GENERATION);
    let mut tally = Tally::default();
    let specs = &warmup[..COLD_WARMUP_CAMPAIGNS];
    let batch = submit_all(&mut server, registry, specs, None, &mut tally);
    let emits = server.drain(registry).map_err(|e| e.to_string())?;
    tally.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now());
    if tally.failed > 0 {
        return Err(format!("cold warm-up failed: {:?}", tally.errors));
    }
    Ok(server)
}

/// Median set-up time of a run, as the wall clock read it and as it
/// would read at nominal host speed.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    pub nominal_s: f64,
    pub wall_s: f64,
}

/// Run `build` [`Config::setup_repeats`] times, each bracketed by the
/// host reference; keep the last fixture and the median build time.
fn timed_setup<T>(
    cfg: &Config,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTime), String> {
    let host = HostReference::default();
    let mut boundary_ns = vec![host.run_ns()];
    let mut wall = Vec::new();
    let mut fixture = None;
    for _ in 0..cfg.setup_repeats.max(1) {
        let t = Instant::now();
        let built = build()?;
        wall.push(t.elapsed().as_secs_f64());
        boundary_ns.push(host.run_ns());
        fixture = Some(built);
    }
    let nominal: Vec<f64> = wall
        .iter()
        .zip(host::speeds(&boundary_ns))
        .map(|(t, speed)| t * speed)
        .collect();
    let time = SetupTime {
        nominal_s: median(&nominal),
        wall_s: median(&wall),
    };
    Ok((fixture.expect("at least one set-up"), time))
}

/// Whether the measured span should go on: until `seconds` have passed
/// and the digest prefix is complete.
fn keep_going(start: Instant, cfg: &Config, attempted: u64) -> bool {
    start.elapsed().as_secs_f64() < cfg.seconds || attempted < DIGEST_CAMPAIGNS as u64
}

/// The cache counters a serve workload must show: every lookup of the
/// span a miss (`cold`) or every lookup a hit, and nothing evicted.
fn check_cache(tally: &mut Tally, before: CacheStats, after: CacheStats, cold: bool) -> f64 {
    let ratio = hit_ratio(before, after);
    if ratio != if cold { 0.0 } else { 1.0 } || after.evictions > 0 {
        tally.fail(format!(
            "cache: hit ratio {ratio}, {} evictions on a {} workload",
            after.evictions,
            if cold { "cold" } else { "warm" }
        ));
    }
    ratio
}

/// Share of the lookups between two readings that hit.
pub fn hit_ratio(before: CacheStats, after: CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    hits as f64 / (hits + misses).max(1) as f64
}

/// `serve_cold` / `serve_warm`: one `Client` over a `DuplexPipe` to a
/// `serve_session` thread, closed-loop batches of [`BATCH`] submits and
/// one drain.
fn serve_wire(cfg: &Config, cold: bool) -> Result<Run, String> {
    let (fixture, setup) = timed_setup(cfg, || Fixture::build(cfg.seed, SHARDS, cold))?;
    let Fixture {
        registry,
        pop,
        mut server,
        reference,
    } = fixture;

    let before = cache_totals(&server);
    let mut tally = Tally::default();
    let (client_end, mut server_end) = DuplexPipe::pair();
    let start = Instant::now();
    let span_s = std::thread::scope(|scope| -> Result<f64, String> {
        let session =
            scope.spawn(|| serve_session(&mut server, &registry, &mut server_end, CLIENT));
        let mut client = Client::new(client_end);
        let mut generation = 0u64;
        let mut specs = pop.clone();
        let round_batches = if cold {
            ROUND_BATCHES
        } else {
            CAMPAIGNS / BATCH
        };
        'span: loop {
            for (chunk_index, chunk) in specs.chunks(BATCH).enumerate() {
                if chunk_index % round_batches == 0 {
                    tally.end_round(Instant::now());
                }
                if !keep_going(start, cfg, tally.attempted) {
                    break 'span;
                }
                let mut batch = Vec::with_capacity(BATCH);
                for (i, spec) in chunk.iter().enumerate() {
                    let sent = Instant::now();
                    match client.submit(spec).map_err(|e| e.to_string())? {
                        Ok(id) => batch.push(Submitted {
                            id,
                            points: spec.points.len(),
                            reference: reference.as_ref().map(|r| r[chunk_index * BATCH + i]),
                            sent,
                        }),
                        Err(rejection) => {
                            tally.attempted += 1;
                            tally.fail(format!("rejected: {rejection}"));
                        }
                    }
                }
                let frames = client.drain().map_err(|e| e.to_string())?;
                tally.check_batch(&batch, frames.iter(), Instant::now());
            }
            if cold {
                generation += 1;
                specs = population(cfg.seed, generation);
            }
        }
        let span_s = start.elapsed().as_secs_f64();
        client.bye().map_err(|e| e.to_string())?;
        session
            .join()
            .map_err(|_| "serve_session panicked".to_string())?
            .map_err(|e| e.to_string())?;
        Ok(span_s)
    })?;
    let hit_ratio = check_cache(&mut tally, before, cache_totals(&server), cold);
    Ok(Run {
        setup,
        span_s,
        tally,
        counts: vec![("cache.hit_ratio", hit_ratio)],
    })
}

/// `items` repeated [`BACKLOG_REPEATS`] times: one round's queue.
pub fn backlog_queue<T: Clone>(items: &[T]) -> Vec<T> {
    (0..BACKLOG_REPEATS)
        .flat_map(|_| items.iter().cloned())
        .collect()
}

/// `serve_backlog`: direct API, warm; submit the population
/// [`BACKLOG_REPEATS`] times (a 1000-deep queue), then `drain_parallel`.
fn serve_backlog(cfg: &Config) -> Result<Run, String> {
    let (fixture, setup) = timed_setup(cfg, || Fixture::build(cfg.seed, SHARDS, false))?;
    let Fixture {
        registry,
        pop,
        mut server,
        reference,
    } = fixture;
    let reference = reference.expect("warm fixtures carry references");
    let queue: Vec<CampaignSpec> = backlog_queue(&pop);
    let references: Vec<Digest> = backlog_queue(&reference);
    let before = cache_totals(&server);
    let mut tally = Tally::default();
    let start = Instant::now();
    tally.end_round(start);
    while keep_going(start, cfg, tally.attempted) {
        let batch = submit_all(
            &mut server,
            &registry,
            &queue,
            Some(&references),
            &mut tally,
        );
        let emits = server
            .drain_parallel(&registry)
            .map_err(|e| e.to_string())?;
        tally.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now());
        tally.end_round(Instant::now());
    }
    let span_s = start.elapsed().as_secs_f64();
    let hit_ratio = check_cache(&mut tally, before, cache_totals(&server), false);
    Ok(Run {
        setup,
        span_s,
        tally,
        counts: vec![("cache.hit_ratio", hit_ratio)],
    })
}

/// The chaos plan and restart budget of supervised batch `batch`.
pub fn supervised_batch_plan(seed: u64, batch: u64) -> (ChaosPlan, SupervisorConfig) {
    let plan = ChaosPlan::scattered(seed.wrapping_add(batch), SHARDS as u32, 2, 16);
    let cfg = SupervisorConfig {
        max_restarts: plan.crash_count() as u32 + 1,
        ..SupervisorConfig::default()
    };
    (plan, cfg)
}

/// `serve_supervised`: direct API, warm; batches of [`BATCH`] drained by
/// `drain_supervised` under a seeded two-crash chaos plan.
fn serve_supervised(cfg: &Config) -> Result<Run, String> {
    let (fixture, setup) = timed_setup(cfg, || Fixture::build(cfg.seed, SHARDS, false))?;
    let Fixture {
        registry,
        pop,
        mut server,
        reference,
    } = fixture;
    let reference = reference.expect("warm fixtures carry references");
    let before = cache_totals(&server);
    let mut tally = Tally::default();
    let mut restarts_total = 0u64;
    let mut restarts_prefix = 0u64;
    let mut batch_index = 0u64;
    let start = Instant::now();
    'span: loop {
        for (chunk_index, chunk) in pop.chunks(BATCH).enumerate() {
            if chunk_index % ROUND_BATCHES == 0 {
                tally.end_round(Instant::now());
            }
            if !keep_going(start, cfg, tally.attempted) {
                break 'span;
            }
            let in_prefix = (tally.attempted as usize) < DIGEST_CAMPAIGNS;
            let refs = &reference[chunk_index * BATCH..];
            let batch = submit_all(&mut server, &registry, chunk, Some(refs), &mut tally);
            let (plan, sup) = supervised_batch_plan(cfg.seed, batch_index);
            let outcome = server
                .drain_supervised(&registry, &sup, Some(&plan))
                .map_err(|e| e.to_string())?;
            let done = Instant::now();
            if outcome.degraded() {
                tally.fail(format!("batch {batch_index} degraded"));
            }
            restarts_total += outcome.restarts;
            if in_prefix {
                restarts_prefix += outcome.restarts;
            }
            tally.check_batch(&batch, outcome.emits.iter().map(|e| &e.frame), done);
            batch_index += 1;
        }
    }
    let span_s = start.elapsed().as_secs_f64();
    if restarts_total == 0 {
        tally.fail("no injected crash fired: the supervisor was never exercised".to_string());
    }
    let hit_ratio = check_cache(&mut tally, before, cache_totals(&server), false);
    Ok(Run {
        setup,
        span_s,
        tally,
        counts: vec![
            ("cache.hit_ratio", hit_ratio),
            ("supervisor.restarts", restarts_prefix as f64),
        ],
    })
}

/// Check one study's report and fold it into the tally.
pub fn check_study(
    tally: &mut Tally,
    report: &jubench::fleet::FleetReport,
    rendered: &str,
    n_benchmarks: usize,
) {
    // A study is one completion: its campaigns are all done at once.
    tally.batches += 1;
    let ranking = report.ranking();
    let ranked = ranking == FLEET_RANKING;
    for backend in &report.backends {
        tally.attempted += 1;
        tally.rows += backend.runs.len() as u64;
        if backend.runs.len() != n_benchmarks {
            tally.fail(format!(
                "backend {}: {} rows for {n_benchmarks} benchmarks",
                backend.model.key,
                backend.runs.len()
            ));
        } else if !ranked {
            tally.fail(format!("ranking {ranking:?}, expected {FLEET_RANKING:?}"));
        } else {
            tally.done += 1;
        }
    }
    if tally.batches == 1 {
        tally.digest.update(rendered.as_bytes());
    }
}

/// Study seeds a run cycles over: a span is about a dozen studies, so
/// its median study is a median over these, not one seed's cost (studies
/// at different seeds differ by up to 10 %).
const STUDY_SEEDS: usize = 8;
/// Candidates every set-up screens, so that `setup_s` does not depend on
/// how many of them `--seed` happens to fail.
const SCREENED: usize = 12;

/// The first `n` seeds at or after `seed` on which the whole registry
/// verifies. Only ResNet's test-scale proxy is seed-sensitive (it fails
/// its own convergence check at about one seed in five, identically on
/// every backend), so one ResNet run per candidate decides. Always runs
/// [`SCREENED`] candidates, and more only while fewer than `n` passed.
pub fn study_seeds(registry: &Registry, seed: u64, n: usize) -> Result<Vec<u64>, String> {
    let resnet = registry
        .get(BenchmarkId::ResNet)
        .ok_or("ResNet is not registered")?;
    let config = RunConfig::test(resnet.reference_nodes());
    let mut seeds = Vec::with_capacity(SCREENED);
    let mut candidate = seed;
    for screened in 0.. {
        if screened >= SCREENED && seeds.len() >= n {
            break;
        }
        let outcome = resnet
            .run(&config.with_seed(candidate))
            .map_err(|e| e.to_string())?;
        if outcome.verification.passed() {
            seeds.push(candidate);
        }
        candidate = candidate.wrapping_add(1);
    }
    seeds.truncate(n);
    Ok(seeds)
}

/// Registry, screened study seeds, and a throwaway one-backend study so
/// lazy set-up is not charged to the first measured study.
pub fn fleet_setup(seed: u64) -> Result<(Registry, Vec<u64>), String> {
    let registry = jubench::scaling::full_registry();
    let seeds = study_seeds(&registry, seed, STUDY_SEEDS)?;
    let mut warmup = study_at(seeds[STUDY_SEEDS - 1]);
    warmup.catalog.truncate(1);
    warmup.run(&registry)?;
    Ok((registry, seeds))
}

/// The standard study at `seed`.
pub fn study_at(seed: u64) -> FleetStudy {
    FleetStudy {
        seed,
        ..FleetStudy::standard()
    }
}

/// `fleet_study`: cold `FleetStudy::standard()` runs, each on a fresh
/// server and followed by `render()`, cycling over the screened seeds.
fn fleet_study(cfg: &Config) -> Result<Run, String> {
    let ((registry, seeds), setup) = timed_setup(cfg, || fleet_setup(cfg.seed))?;
    let mut tally = Tally::default();
    let mut studies = 0usize;
    let start = Instant::now();
    tally.end_round(start);
    // A verification failure inside a study surfaces as `Err` from
    // `run` and fails the command.
    while studies == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let study = study_at(seeds[studies % seeds.len()]);
        let t = Instant::now();
        let report = study.run(&registry)?;
        let rendered = report.render();
        let study_ms = t.elapsed().as_secs_f64() * 1e3;
        // Every campaign of a study is submitted when it starts and is
        // done when it returns.
        tally
            .latencies_ms
            .extend(std::iter::repeat_n(study_ms, report.backends.len()));
        check_study(&mut tally, &report, &rendered, registry.len());
        tally.end_round(Instant::now());
        studies += 1;
    }
    Ok(Run {
        setup,
        span_s: start.elapsed().as_secs_f64(),
        tally,
        counts: vec![],
    })
}

/// Run workload `name` untraced.
pub fn run(name: &str, cfg: &Config) -> Result<Run, String> {
    match name {
        "serve_cold" => serve_wire(cfg, true),
        "serve_warm" => serve_wire(cfg, false),
        "serve_backlog" => serve_backlog(cfg),
        "serve_supervised" => serve_supervised(cfg),
        "fleet_study" => fleet_study(cfg),
        _ => Err(format!(
            "unknown workload `{name}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
