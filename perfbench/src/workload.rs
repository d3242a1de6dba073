//! The three workloads: their daemon and client configuration, the set-up
//! preload, the measured phase, and the post-recovery verification.

use crate::oracle::{BlobModel, Op, Pool, Pools, Rng, WriterLog};
use crate::trace::{connect_traced, LayerTotals, Recorder};
use blobseer_core::BlobClient;
use blobseer_net::{connect_remote, RemoteEndpoints};
use blobseer_types::{BlobConfig, BlobError, BlobId, ChunkCodec, ClusterConfig, Version};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// Bytes per payload pool; every record, patch and preload append is cut
/// from one of the two pools.
pub const POOL_BYTES: usize = 16 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Update,
    ReadMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "update" => Some(Workload::Update),
            "read_mix" => Some(Workload::ReadMix),
            _ => None,
        }
    }

    /// Daemon keys on top of the shared deployment shape. Durability stays
    /// at the daemon default, `commit`.
    pub fn daemon_config(self) -> &'static str {
        match self {
            // Segments of 16 MiB seal several times in every run; at the
            // 64 MiB default whether a provider seals its first segment
            // (and loads it into memory) depended on the run's throughput.
            Workload::Ingest => "chunk_codec = fast\nsegment_bytes = 16777216\n",
            Workload::Update => {
                "chunk_codec = off\nretained_versions = 8\nflatten_threshold = 32\n"
            }
            Workload::ReadMix => "chunk_codec = off\n",
        }
    }

    /// The load generator's client configuration. Application threads plus
    /// transfer-pool workers stay within two (the box has two cores).
    pub fn client_config(self) -> ClusterConfig {
        let (transfer_workers, codec) = match self {
            // Two writer threads, transfers inline on each.
            Workload::Ingest => (0, ChunkCodec::Fast),
            // One client thread plus one transfer worker.
            Workload::Update => (1, ChunkCodec::Off),
            // A reader and a writer thread, transfers inline.
            Workload::ReadMix => (0, ChunkCodec::Off),
        };
        ClusterConfig {
            data_providers: DATA_PROVIDERS,
            metadata_providers: METADATA_PROVIDERS,
            transfer_workers,
            chunk_codec: codec,
            connections_per_endpoint: 1,
            ..ClusterConfig::default()
        }
    }

    /// Whether the daemon runs the version lifecycle: it retires old
    /// versions and flattens (publishing versions of its own).
    pub fn lifecycle(self) -> bool {
        self == Workload::Update
    }
}

pub const DATA_PROVIDERS: usize = 4;
pub const METADATA_PROVIDERS: usize = 2;

// ---- ingest ----
const INGEST_CHUNK: u64 = 64 * KIB;
/// Records are 2..=6 whole chunks, so appends stay chunk-aligned.
const INGEST_RECORD_CHUNKS: (u64, u64) = (2, 6);
const INGEST_PRELOAD_RECORDS: u64 = 48;

// ---- update ----
const UPDATE_CHUNK: u64 = 64 * KIB;
const UPDATE_BLOB: u64 = 16 * MIB;
const UPDATE_PRELOAD_APPEND: u64 = MIB;
const UPDATE_PATCH: (u64, u64) = (64, 4 * KIB);
const UPDATE_READ: (u64, u64) = (KIB, 8 * KIB);
/// Rounds (overwrite + read) per second: about a third of what one client
/// sustains. Every run does the same number of rounds, so the never-sealed
/// segments hold the same garbage. The client still waits for each reply
/// and times it from the send (a paced closed loop), so a slow spell of the
/// disk lengthens the ops it hits instead of every later one.
const UPDATE_RATE: f64 = 200.0;

// ---- read_mix ----
const MIX_CHUNK: u64 = 64 * KIB;
/// The hot blob (fits the 64 MiB client and server caches) and the cold
/// blobs (together three times the cache).
const MIX_HOT_APPENDS: (u64, u64) = (128, 128 * KIB);
const MIX_COLD_BLOBS: usize = 3;
const MIX_COLD_APPENDS: (u64, u64) = (96, 512 * KIB);
const MIX_HOT_SHARE: f64 = 0.8;
const MIX_READ: (u64, u64) = (4 * KIB, 128 * KIB);
const MIX_WRITE_RATE: f64 = 100.0;
const MIX_WRITE: (u64, u64) = (4 * KIB, 32 * KIB);

/// A blob under test and its shadow model.
pub struct Tracked {
    pub id: BlobId,
    pub model: Mutex<BlobModel>,
}

/// Everything a run shares between its threads.
pub struct World {
    pub workload: Workload,
    pub pools: Pools,
    pub blobs: Vec<Tracked>,
    pub violations: Mutex<Vec<String>>,
    tags: AtomicU64,
}

impl World {
    pub fn new(workload: Workload, seed: u64) -> World {
        World {
            workload,
            pools: Pools::new(seed, POOL_BYTES),
            blobs: Vec::new(),
            violations: Mutex::new(Vec::new()),
            tags: AtomicU64::new(1),
        }
    }

    pub fn violation(&self, what: impl std::fmt::Display) {
        let mut v = self.violations.lock().expect("violations lock poisoned");
        if v.len() < 64 {
            v.push(what.to_string());
        }
    }

    fn tag(&self) -> u64 {
        self.tags.fetch_add(1, Ordering::Relaxed)
    }

    /// Live bytes: the size of the latest version of every blob.
    pub fn live_bytes(&self) -> u64 {
        self.blobs
            .iter()
            .map(|b| {
                let m = b.model.lock().expect("model lock poisoned");
                m.size(m.latest())
            })
            .sum()
    }

    pub fn flats(&self) -> u64 {
        self.blobs
            .iter()
            .map(|b| b.model.lock().expect("model lock poisoned").flats())
            .sum()
    }

    /// The payload of `op`, generated from the pools.
    fn data(&self, op: Op) -> Bytes {
        let (len, src) = match op {
            Op::Append { len, src } | Op::Write { len, src, .. } => (len, src),
        };
        Bytes::from(self.pools.payload(&src, len))
    }

    /// Issues one mutation; the version it was acknowledged as.
    fn issue(
        &self,
        client: &BlobClient,
        blob: usize,
        op: Op,
        data: Bytes,
    ) -> blobseer_types::Result<u64> {
        let id = self.blobs[blob].id;
        Ok(match op {
            Op::Append { .. } => client.append(id, data)?,
            Op::Write { offset, .. } => client.write(id, offset, data)?,
        }
        .0)
    }

    /// Folds an acknowledgement into the blob's model.
    fn ack(&self, blob: usize, version: u64, op: Op) {
        let t = &self.blobs[blob];
        if let Err(v) = t
            .model
            .lock()
            .expect("model lock poisoned")
            .ack(version, op)
        {
            self.violation(format!("blob {}: {v}", t.id.0));
        }
    }

    fn mutate(&self, client: &BlobClient, blob: usize, op: Op) -> blobseer_types::Result<u64> {
        let version = self.issue(client, blob, op, self.data(op))?;
        self.ack(blob, version, op);
        Ok(version)
    }

    fn read(
        &self,
        client: &BlobClient,
        blob: usize,
        version: u64,
        offset: u64,
        len: u64,
    ) -> blobseer_types::Result<Vec<u8>> {
        client.read(self.blobs[blob].id, Some(Version(version)), offset, len)
    }

    /// Compares a read with the model.
    fn check(&self, blob: usize, version: u64, offset: u64, got: &[u8]) {
        let t = &self.blobs[blob];
        let verdict = t.model.lock().expect("model lock poisoned").check_read(
            &self.pools,
            version,
            offset,
            got,
        );
        if let Err(v) = verdict {
            self.violation(format!("blob {}: {v}", t.id.0));
        }
    }

    /// Reads `offset..offset + len` of `version` and checks it against the
    /// model. `Err` only when the read itself failed.
    fn read_checked(
        &self,
        client: &BlobClient,
        blob: usize,
        version: u64,
        offset: u64,
        len: u64,
    ) -> blobseer_types::Result<()> {
        let got = self.read(client, blob, version, offset, len)?;
        self.check(blob, version, offset, &got);
        Ok(())
    }
}

/// Makes the load generator's clients: plain `connect_remote` clients, or
/// traced ones with a recorder each.
pub struct Connector {
    pub config: ClusterConfig,
    pub endpoints: RemoteEndpoints,
    pub trace: bool,
}

impl Connector {
    pub fn client(&self, id: u64) -> (BlobClient, Option<Arc<Recorder>>) {
        if self.trace {
            let (client, rec) = connect_traced(&self.config, &self.endpoints, id);
            (client, Some(rec))
        } else {
            let client = connect_remote(&self.config, &self.endpoints).expect("connect_remote");
            (client, None)
        }
    }
}

/// Creates the workload's blobs and writes the preload through `client`.
pub fn preload(world: &mut World, client: &BlobClient, rng: &mut Rng) {
    let create = |world: &mut World, chunk: u64, single_writer: bool| {
        let id = client
            .create_blob(BlobConfig::new(chunk, 1).expect("blob config"))
            .expect("create_blob");
        world.blobs.push(Tracked {
            id,
            model: Mutex::new(BlobModel::new(single_writer)),
        });
        world.blobs.len() - 1
    };
    let append = |world: &World, blob: usize, pool: Pool, len: u64, rng: &mut Rng| {
        let src = world.pools.pick(rng, pool, world.tag(), len);
        world
            .mutate(client, blob, Op::Append { len, src })
            .expect("preload append");
    };
    match world.workload {
        Workload::Ingest => {
            let blob = create(world, INGEST_CHUNK, false);
            for i in 0..INGEST_PRELOAD_RECORDS {
                let len = INGEST_CHUNK * rng.range(INGEST_RECORD_CHUNKS.0, INGEST_RECORD_CHUNKS.1);
                append(world, blob, ingest_pool(i), len, rng);
            }
        }
        Workload::Update => {
            let blob = create(world, UPDATE_CHUNK, true);
            for _ in 0..UPDATE_BLOB / UPDATE_PRELOAD_APPEND {
                append(world, blob, Pool::Random, UPDATE_PRELOAD_APPEND, rng);
            }
        }
        Workload::ReadMix => {
            let hot = create(world, MIX_CHUNK, false);
            let cold: Vec<usize> = (0..MIX_COLD_BLOBS)
                .map(|_| create(world, MIX_CHUNK, false))
                .collect();
            for _ in 0..MIX_HOT_APPENDS.0 {
                append(world, hot, Pool::Random, MIX_HOT_APPENDS.1, rng);
            }
            for _ in 0..MIX_COLD_APPENDS.0 {
                for &blob in &cold {
                    append(world, blob, Pool::Random, MIX_COLD_APPENDS.1, rng);
                }
            }
        }
    }
}

/// Half the ingest records are text-like, half random, alternating.
fn ingest_pool(i: u64) -> Pool {
    if i.is_multiple_of(2) {
        Pool::Text
    } else {
        Pool::Random
    }
}

/// What one load thread measured.
#[derive(Default)]
pub struct ThreadResult {
    pub write_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub writes: LayerTotals,
    pub reads: LayerTotals,
    /// How late each paced round started against its schedule (ms).
    pub late_ms: Vec<f64>,
    /// (seconds since the phase started, bytes) per completed write/read.
    pub write_done: Vec<(f64, u64)>,
    pub read_done: Vec<(f64, u64)>,
    pub client: ClientCounters,
}

/// Client-side counters over the measured phase (`ClientStats` and the
/// transport's `TransportMetrics`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientCounters {
    pub copied: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub wire_bytes: u64,
    pub frames: u64,
    pub coalesced: u64,
    pub retries: u64,
}

impl ClientCounters {
    fn of(client: &BlobClient) -> ClientCounters {
        let s = client.stats();
        ClientCounters {
            copied: s.payload_bytes_copied,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            wire_bytes: s.bytes_on_wire,
            frames: s.frames_sent,
            coalesced: s.frames_coalesced,
            retries: client
                .transport_metrics()
                .map_or(0, |m| m.snapshot().retries),
        }
    }

    fn since(self, b: ClientCounters) -> ClientCounters {
        ClientCounters {
            copied: self.copied - b.copied,
            cache_hits: self.cache_hits - b.cache_hits,
            cache_misses: self.cache_misses - b.cache_misses,
            wire_bytes: self.wire_bytes - b.wire_bytes,
            frames: self.frames - b.frames,
            coalesced: self.coalesced - b.coalesced,
            retries: self.retries - b.retries,
        }
    }

    fn add(&mut self, o: ClientCounters) {
        self.copied += o.copied;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.wire_bytes += o.wire_bytes;
        self.frames += o.frames;
        self.coalesced += o.coalesced;
        self.retries += o.retries;
    }
}

impl ThreadResult {
    pub fn write_bytes(&self) -> u64 {
        self.write_done.iter().map(|&(_, b)| b).sum()
    }

    pub fn read_bytes(&self) -> u64 {
        self.read_done.iter().map(|&(_, b)| b).sum()
    }

    pub fn merge(&mut self, o: ThreadResult) {
        self.write_ms.extend(o.write_ms);
        self.read_ms.extend(o.read_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.writes.merge(&o.writes);
        self.reads.merge(&o.reads);
        self.late_ms.extend(o.late_ms);
        self.write_done.extend(o.write_done);
        self.read_done.extend(o.read_done);
        self.client.add(o.client);
    }
}

/// Times one operation from its send; with a recorder, folds the service
/// calls it made into `totals`.
fn timed<T>(rec: Option<&Recorder>, totals: &mut LayerTotals, f: impl FnOnce() -> T) -> (T, f64) {
    if let Some(rec) = rec {
        rec.drain();
    }
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(rec) = rec {
        totals.add(start, end, &rec.drain());
    }
    (out, (end - start).as_nanos() as f64 / 1e6)
}

/// Picks a version whose predecessors are all acknowledged — any of them,
/// or with `newest` the latest one not above it — and a range inside it,
/// under the model lock.
fn pick_range(
    world: &World,
    blob: usize,
    rng: &mut Rng,
    len: (u64, u64),
    newest: Option<u64>,
) -> (u64, u64, u64) {
    let m = world.blobs[blob].model.lock().expect("model lock poisoned");
    let latest = m.latest();
    let version = match newest {
        None => rng.range(1, latest),
        Some(newest) => latest.min(newest),
    };
    let size = m.size(version);
    let len = rng.range(len.0, len.1).min(size);
    let offset = rng.range(0, size - len);
    (version, offset, len)
}

/// Pacing: sleeps until round `round` is due at `rate` per second and
/// records how late it starts; false once the rounds due before the
/// deadline are done. A paced thread still waits for each reply (a closed
/// loop with a schedule): on a shared box a slow spell then lengthens the
/// operations it hits, not every later one behind a growing queue.
fn pace(r: &mut ThreadResult, start: Instant, round: u64, rate: f64, deadline: Instant) -> bool {
    let due = start + Duration::from_secs_f64(round as f64 / rate);
    if due >= deadline {
        return false;
    }
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    r.late_ms
        .push(Instant::now().saturating_duration_since(due).as_nanos() as f64 / 1e6);
    true
}

/// Runs load thread `index` of the workload until `deadline`. Each loop
/// iteration is one whole round, so the mix of operations is the same in
/// every run.
pub fn load_thread(
    world: &World,
    conn: &Connector,
    index: usize,
    seed: u64,
    start: Instant,
    deadline: Instant,
) -> ThreadResult {
    let (client, rec) = conn.client(seed ^ (index as u64 + 1) << 32);
    let rec = rec.as_deref();
    let mut rng = Rng::new(seed.wrapping_add(1000 + index as u64));
    let mut r = ThreadResult::default();
    let counters = ClientCounters::of(&client);
    let mut writer_log = WriterLog::default();
    let mut round = 0u64;
    let mut write = |r: &mut ThreadResult, blob: usize, op: Op| {
        let len = match op {
            Op::Append { len, .. } | Op::Write { len, .. } => len,
        };
        r.attempted += 1;
        let data = world.data(op);
        let (res, ms) = timed(rec, &mut r.writes, || world.issue(&client, blob, op, data));
        match res {
            Ok(version) => {
                world.ack(blob, version, op);
                if let Err(v) = writer_log.ack(blob, version) {
                    world.violation(format!("blob {}: {v}", world.blobs[blob].id.0));
                }
                r.write_ms.push(ms);
                r.write_done.push((start.elapsed().as_secs_f64(), len));
            }
            Err(e) => {
                r.failed += 1;
                eprintln!("perfbench: write failed: {e}");
            }
        }
    };
    let read =
        |r: &mut ThreadResult, client: &BlobClient, blob: usize, (v, off, len): (u64, u64, u64)| {
            r.attempted += 1;
            let (res, ms) = timed(rec, &mut r.reads, || world.read(client, blob, v, off, len));
            match res {
                Ok(got) => {
                    world.check(blob, v, off, &got);
                    r.read_ms.push(ms);
                    r.read_done.push((start.elapsed().as_secs_f64(), len));
                }
                Err(e) => {
                    r.failed += 1;
                    eprintln!("perfbench: read failed: {e}");
                }
            }
        };
    loop {
        // Paced threads stop at the first round due after the deadline (in
        // `pace`), so every run issues the same number of rounds, even when
        // a slow spell makes the last ones late.
        let paced = matches!(
            (world.workload, index),
            (Workload::Update, _) | (Workload::ReadMix, 1)
        );
        if !paced && Instant::now() >= deadline {
            break;
        }
        match (world.workload, index) {
            (Workload::Ingest, _) => {
                let len = INGEST_CHUNK * rng.range(INGEST_RECORD_CHUNKS.0, INGEST_RECORD_CHUNKS.1);
                let src = world
                    .pools
                    .pick(&mut rng, ingest_pool(round), world.tag(), len);
                write(&mut r, 0, Op::Append { len, src });
                // A random earlier record, read whole at the newest version
                // whose predecessors are all acknowledged.
                let (version, offset, len) = {
                    let m = world.blobs[0].model.lock().expect("model lock poisoned");
                    let latest = m.latest();
                    let (offset, len) = m.written(rng.range(1, latest));
                    (latest, offset, len)
                };
                read(&mut r, &client, 0, (version, offset, len));
            }
            (Workload::Update, _) => {
                if !pace(&mut r, start, round, UPDATE_RATE, deadline) {
                    break;
                }
                let len = rng.range(UPDATE_PATCH.0, UPDATE_PATCH.1);
                let offset = rng.range(0, UPDATE_BLOB - len);
                let src = world.pools.pick(&mut rng, Pool::Random, world.tag(), len);
                write(&mut r, 0, Op::Write { offset, len, src });
                // A write is acknowledged once complete, which can be before
                // it is published: a flatten the daemon started just before
                // holds the version below it. Read the newest version that
                // is both published and in the model.
                match client.latest_version(world.blobs[0].id) {
                    Ok(published) => {
                        let pick = pick_range(world, 0, &mut rng, UPDATE_READ, Some(published.0));
                        read(&mut r, &client, 0, pick);
                    }
                    Err(e) => {
                        r.attempted += 1;
                        r.failed += 1;
                        eprintln!("perfbench: latest_version failed: {e}");
                    }
                }
            }
            (Workload::ReadMix, 0) => {
                let blob = if rng.chance(MIX_HOT_SHARE) {
                    0
                } else {
                    1 + rng.range(0, MIX_COLD_BLOBS as u64 - 1) as usize
                };
                let pick = pick_range(world, blob, &mut rng, MIX_READ, None);
                read(&mut r, &client, blob, pick);
            }
            (Workload::ReadMix, _) => {
                if !pace(&mut r, start, round, MIX_WRITE_RATE, deadline) {
                    break;
                }
                let blob = (round % (1 + MIX_COLD_BLOBS as u64)) as usize;
                let len = rng.range(MIX_WRITE.0, MIX_WRITE.1);
                let src = world.pools.pick(&mut rng, Pool::Random, world.tag(), len);
                write(&mut r, blob, Op::Append { len, src });
            }
        }
        round += 1;
    }
    r.client = ClientCounters::of(&client).since(counters);
    r
}

/// Number of load threads per workload.
pub fn load_threads(workload: Workload) -> usize {
    match workload {
        Workload::Ingest | Workload::ReadMix => 2,
        Workload::Update => 1,
    }
}

/// Verifies the recovered deployment against the model: the latest
/// published version is the latest acknowledged one (plus any flats the
/// daemon published itself, which must match the flattens it counted),
/// retained versions read back byte-identical, retired ones answer
/// `VersionRetired`.
pub fn verify(world: &World, client: &BlobClient, flattens_at_kill: u64, rng: &mut Rng) {
    for t in &world.blobs {
        let mut m = t.model.lock().expect("model lock poisoned");
        if let Err(v) = m.finish() {
            world.violation(format!("blob {}: {v}", t.id.0));
            continue;
        }
        let published: Vec<u64> = match client.published_versions(t.id) {
            Ok(p) => p.into_iter().map(|v| v.0).collect(),
            Err(e) => {
                world.violation(format!(
                    "blob {}: published_versions after restart: {e}",
                    t.id.0
                ));
                continue;
            }
        };
        let newest = published.last().copied().unwrap_or(0);
        if newest < m.latest() || (newest > m.latest() && !world.workload.lifecycle()) {
            world.violation(format!(
                "blob {}: latest published {newest} after restart, latest acknowledged {}",
                t.id.0,
                m.latest()
            ));
            continue;
        }
        let trailing = newest - m.latest();
        m.add_trailing_flats(trailing);
    }
    let flats = world.flats();
    if flats != flattens_at_kill {
        world.violation(format!(
            "{flats} versions nobody acknowledged, but the daemon counted {flattens_at_kill} flattens"
        ));
    }
    for (i, t) in world.blobs.iter().enumerate() {
        let latest = t.model.lock().expect("model lock poisoned").latest();
        let published: Vec<u64> = match client.published_versions(t.id) {
            Ok(p) => p.into_iter().map(|v| v.0).filter(|&v| v > 0).collect(),
            Err(e) => {
                world.violation(format!("blob {}: published_versions: {e}", t.id.0));
                continue;
            }
        };
        // Every retained version: its size, and a read of what it wrote (a
        // random window for flats); whole-version reads for the latest and,
        // under retention, for every retained version. The list also holds
        // retired versions, which answer `VersionRetired`.
        let mut retired = Vec::new();
        let mut oldest_kept = None;
        for &v in &published {
            let (size, (w_off, w_len)) = {
                let m = t.model.lock().expect("model lock poisoned");
                (m.size(v), m.written(v))
            };
            match client.size(t.id, Some(Version(v))) {
                Ok(s) if s == size => {}
                Ok(s) => {
                    world.violation(format!(
                        "blob {}: version {v} has size {s}, model {size}",
                        t.id.0
                    ));
                    continue;
                }
                Err(BlobError::VersionRetired { .. }) => {
                    if oldest_kept.is_some() {
                        world.violation(format!(
                            "blob {}: version {v} retired above a retained one",
                            t.id.0
                        ));
                    }
                    retired.push(v);
                    continue;
                }
                Err(e) => {
                    world.violation(format!("blob {}: size of version {v}: {e}", t.id.0));
                    continue;
                }
            }
            oldest_kept.get_or_insert(v);
            let ranges: Vec<(u64, u64)> = if v == latest || world.workload.lifecycle() {
                (0..size)
                    .step_by(8 * MIB as usize)
                    .map(|o| (o, (8 * MIB).min(size - o)))
                    .collect()
            } else if w_len > 0 {
                let len = w_len.min(64 * KIB);
                vec![(w_off + rng.range(0, w_len - len), len)]
            } else {
                let len = size.min(4 * KIB);
                vec![(rng.range(0, size - len), len)]
            };
            for (off, len) in ranges {
                if let Err(e) = world.read_checked(client, i, v, off, len) {
                    world.violation(format!(
                        "blob {}: read of retained version {v}: {e}",
                        t.id.0
                    ));
                }
            }
        }
        if oldest_kept.is_none() {
            world.violation(format!(
                "blob {}: no version readable after restart",
                t.id.0
            ));
        }
        // A sample of retired versions must answer VersionRetired on reads
        // too, never bytes.
        let step = (retired.len() / 16).max(1);
        for &v in retired.iter().step_by(step) {
            match client.read(t.id, Some(Version(v)), 0, 1) {
                Err(BlobError::VersionRetired { .. }) => {}
                Ok(_) => {
                    world.violation(format!("blob {}: retired version {v} served bytes", t.id.0))
                }
                Err(e) => world.violation(format!("blob {}: retired version {v}: {e}", t.id.0)),
            }
        }
    }
}

/// The payload sources of up to `n` writes of the run, for the codec
/// timing.
pub fn sample_payloads(world: &World, n: usize, rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for _ in 0..n {
        let t = &world.blobs[rng.range(0, world.blobs.len() as u64 - 1) as usize];
        let m = t.model.lock().expect("model lock poisoned");
        let v = rng.range(1, m.latest());
        if m.is_flat(v) {
            continue;
        }
        let (off, len) = m.written(v);
        if let Ok(bytes) = m.expected(&world.pools, v, off, len) {
            out.push(bytes);
        }
    }
    out
}
